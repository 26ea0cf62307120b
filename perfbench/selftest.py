"""Quick self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json it checks that
- an untraced run prints every end-to-end metric with its unit, each a
  positive number, and fails no op;
- a traced run prints every per-layer metric with its unit, and its two
  traced passes agree on every count;
- a run given one deliberately wrong reference (a library reference, or
  a CLI golden digest) counts exactly that op in `failed` and is not
  `correct`.
"""

from __future__ import annotations

import json
import sys

import run


def check(workload: str, trace: bool, plant: bool, units: dict) -> list:
    result, record = run.execute(workload, seed=1, seconds=0.1, trace=trace,
                                 tiny=True, plant=plant)
    label = f"{workload} trace={int(trace)} planted={int(plant)}"
    problems = []
    if plant:
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{label}: the planted wrong reference was not "
                            f"counted once: {record['failures']}")
    elif not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} failed: {record['failures']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics {sorted(got.items() ^ units.items())} "
                        "differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
        elif not trace and m["value"] <= 0:
            problems.append(f"{label}: {name} is {m['value']}")
    print(f"{'FAIL' if problems else 'ok'}  {label}: "
          f"{result['failed']}/{result['attempted']} failed")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        problems += check(workload, False, False, units[False])
        problems += check(workload, True, False, units[True])
        problems += check(workload, False, True, units[False])
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
