"""Regenerate perfbench/golden.json: the stdout digest of every CLI command
the benchmark runs, each cross-checked by the command's own flags.

    python3 perfbench/golden.py [--check]

Cross-checks before a digest is written:
- the command exits 0 and reports `passed`/`agree` true where it has them;
- the same bytes come back with another PYTHONHASHSEED;
- antipode: `--method takeuchi` and `--method closed` return the vectors
  that `--method both` printed;
- primitives: `--format text` states the dimension the JSON gives, which
  is also the number of vectors and of indecomposables;
- verify: `--format text` ends with "all checks passed";
- fock: `--format text` states the power-sum scalar the JSON gives.

With --check, compares against the committed file instead of writing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def hsl(argv: list, hashseed: str = "0") -> bytes:
    env = {k: v for k, v in os.environ.items() if k != "HSL_BUDGET"}
    env.update(PYTHONHASHSEED=hashseed, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "hsl.cli"] + argv, cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"hsl {' '.join(argv)} exited {proc.returncode}")
    return proc.stdout


def _with(argv: list, flag: str, value: str) -> list:
    out = list(argv)
    if flag in out:
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return out


def cross_check(kind: str, argv: list, stdout: bytes) -> None:
    payload = json.loads(stdout)
    if payload.get("passed", True) is not True or payload.get("agree", True) is not True:
        raise SystemExit(f"{argv}: reports a failure")
    if hsl(argv, hashseed="1") != stdout:
        raise SystemExit(f"{argv}: output depends on PYTHONHASHSEED")
    if kind == "antipode":
        both = {r["method"]: r["vector"] for r in payload["results"]}
        for method, key in (("takeuchi", "takeuchi"), ("closed", "closed-upper")):
            single = json.loads(hsl(_with(argv, "--method", method)))
            if single["results"][0]["vector"] != both[key]:
                raise SystemExit(f"{argv}: --method {method} disagrees with both")
    text = hsl(_with(argv, "--format", "text")).decode()
    if kind == "primitives":
        dim = payload["dimension"]
        if (f"dimension {dim}" not in text.splitlines()[0]
                or len(payload["vectors"]) != dim
                or len(payload["indecomposables"]) != dim):
            raise SystemExit(f"{argv}: dimension does not check out")
    if kind == "verify" and text.splitlines()[-1] != "all checks passed":
        raise SystemExit(f"{argv}: text report is not a pass")
    if kind == "fock" and f"image is {payload['power_sum']['scalar']} * p_" not in text:
        raise SystemExit(f"{argv}: text report disagrees on the scalar")


def main() -> int:
    commands = [c for table in (workloads.CLI_CORPUS, workloads.CLI_PROBE)
                for c in workloads.cli_commands(table)]
    golden = {}
    for kind, argv in commands:
        if workloads.command_key(argv) in golden:
            continue
        stdout = hsl(argv)
        cross_check(kind, argv, stdout)
        golden[workloads.command_key(argv)] = {
            "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}
        print(f"ok {workloads.command_key(argv)}", file=sys.stderr)
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    path = HERE / "golden.json"
    if "--check" in sys.argv[1:]:
        if path.read_text() != text:
            print("golden.json differs from this checkout's outputs", file=sys.stderr)
            return 1
        return 0
    path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
