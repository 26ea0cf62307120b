"""Run one `hsl` command under the tracer; stdout stays the command's own.

    python perfbench/traced_cli.py SPANS.json.gz STATS.json <hsl arguments>

Writes the spans to SPANS.json.gz and the per-layer statistics to
STATS.json, then exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import hsl.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0, "cli")
    try:
        code = hsl.cli.main(argv)
    finally:
        tracer.end_op()
        sys.stdout.flush()
    tracer.dump(spans_path)
    with open(stats_path, "w") as fh:
        json.dump({"layers": tracer.layer_stats(), "spans": tracer.spans(),
                   "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
