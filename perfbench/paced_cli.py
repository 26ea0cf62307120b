"""Run one `hsl` command under a pacer; stdout stays the command's own.

    python perfbench/paced_cli.py PACE.json <hsl arguments>
    python perfbench/paced_cli.py PACE.json --import-only

Writes to PACE.json how many times slower than a calm host the CPU ran
(pace.py) over the whole command, and the seconds that `import hsl.cli`
took, scaled to a calm host; then exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from pace import Pacer


def main() -> int:
    began = time.perf_counter()
    pacer = Pacer().start()
    pace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hsl.cli
    t1 = time.perf_counter()
    code = 0 if argv == ["--import-only"] else hsl.cli.main(argv)
    sys.stdout.flush()
    ended = time.perf_counter()
    pacer.stop()
    with open(pace_path, "w") as fh:
        json.dump({"slowdown": pacer.slowdown(began, ended),
                   "import_s": pacer.calm(t0, t1)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
