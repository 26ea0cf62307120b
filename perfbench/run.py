"""Benchmark of the `hsl` engine, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/hsl`.  Workloads:
defining-sum, closed-form and cli-corpus (see workloads.py for why each).
Every library pass and every CLI command is a fresh interpreter with a
pinned environment: PYTHONHASHSEED=0, PYTHONPATH=src, HSL_BUDGET unset
and `--jobs 1`.  Each workload is a closed loop with one caller.

With --trace 0 the run repeats whole passes over the seeded input set
while --seconds lasts.  Every time it reports is scaled to a calm host by
a pacer running beside the measured code (pace.py), because the shared
host's contended spells move raw times by up to 1.7 times.  Each call's
time is its median over the passes; the end-to-end metrics are taken over
those.  With --trace 1 it makes an untraced pass, two traced passes and
another untraced pass, requires the two traced passes to agree on every
count, and reports the per-layer metrics, as measured, plus the tracing
overhead.  Every output is checked, outside the timed region, against an
independent route or a committed golden digest; a wrong or failed op
counts in `failed`.

The last line of stdout is the result object.  perfbench/out/ receives a
record of the run (environment, per-pass numbers, raw and scaled, and
failures) and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("defining-sum", "closed-form", "cli-corpus")
RUN_LIMIT_S = 170        # a run must end within 180 s
MIN_SETUPS = 5           # set-up samples per run, for their median
PROBE_REPS = 4           # repetitions of the cold CLI probe per run
PROBES_PER_PASS = 2
IMPORT_SAMPLES_PER_PASS = 3

END_TO_END = {
    "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "cli.antipode_s": "s", "cli.fock_s": "s",
    "cli.primitives_s": "s", "cli.verify_s": "s",
}
PER_LAYER = dict(metric_names())
PER_LAYER.update({"cli.stdout_bytes": "bytes", "trace.overhead_s": "s",
                  "trace.spans": "count"})
COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]

class BenchError(Exception):
    """The benchmark cannot produce a result."""


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("HSL_BUDGET", "PYTHONPATH", "PYTHONHASHSEED",
                        "PYTHONSTARTUP", "PYTHONOPTIMIZE", "PYTHONDEVMODE")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH="src")
    return env


ENV = pinned_env()


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    stdout: bytes
    seconds: float
    rss_mb: float
    spawn_at: float


def _read_all(proc, deadline: float) -> bytes:
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
            if not sel.select(left):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def run_child(argv: list, deadline: float) -> Child:
    """Run argv from the checkout root and wait for it; report its exit
    code, stdout, wall seconds and peak resident set."""
    with open(OUT / "stderr.log", "ab") as err:
        spawn_at = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            stdout = _read_all(proc, deadline)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    seconds = time.monotonic() - spawn_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, stdout, seconds, usage.ru_maxrss / 1024, spawn_at)


def run_worker(cfg: dict, deadline: float) -> dict:
    child = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                      deadline)
    if child.code != 0:
        raise BenchError(f"{cfg['mode']} worker exited with {child.code}; "
                         f"see {OUT / 'stderr.log'}")
    res = json.loads(child.stdout.decode().strip().splitlines()[-1])
    res["setup_raw_s"] = res["ready_at"] - child.spawn_at
    res["setup_s"] = res["setup_raw_s"] / res["setup_slowdown"]
    return res


def run_paced_cli(argv: list, deadline: float) -> tuple[Child, dict]:
    """One `hsl` command, cold, under a pacer; returns the child and what
    the pacer saw (an empty dict if the command failed early)."""
    pace_path = OUT / "pace.json"
    pace_path.unlink(missing_ok=True)
    child = run_child([sys.executable, str(HERE / "paced_cli.py"), str(pace_path)]
                      + argv, deadline)
    pace = json.loads(pace_path.read_text()) if pace_path.is_file() else {}
    return child, pace


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def add_layers(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


# ---------------------------------------------------------------------------
# CLI passes


def cli_pass(commands: list, golden: dict, tally: Tally, deadline: float,
             trace_tag: str | None = None) -> dict:
    """Run each command once, cold, in its own process, and check it.
    Untraced, each command's seconds are scaled to a calm host (pace.py);
    traced, they are as measured."""
    out = {"seconds": [], "raw_seconds": [], "kinds": [], "rss_mb": [],
           "stdout_bytes": 0, "layers": {}}
    for n, (kind, argv) in enumerate(commands):
        if trace_tag is None:
            child, pace = run_paced_cli(argv, deadline)
            slowdown = pace.get("slowdown", 1.0)
        else:
            spans = OUT / f"spans-{trace_tag}-cmd{n}.json.gz"
            stats = OUT / f"stats-{trace_tag}-cmd{n}.json"
            child = run_child([sys.executable, str(HERE / "traced_cli.py"), str(spans),
                               str(stats)] + argv, deadline)
            slowdown = 1.0
        tally.add(workloads.check_cli_output(argv, child.code, child.stdout, golden),
                  f"hsl {workloads.command_key(argv)} (exit {child.code})")
        out["seconds"].append(child.seconds / slowdown)
        out["raw_seconds"].append(child.seconds)
        out["kinds"].append(kind)
        out["rss_mb"].append(child.rss_mb)
        out["stdout_bytes"] += len(child.stdout)
        if trace_tag is not None and child.code == 0:
            with open(stats) as fh:
                traced = json.load(fh)
            out["layers"] = add_layers(out["layers"], traced["layers"])
            out["layers"]["trace.spans"] = (out["layers"].get("trace.spans", 0)
                                            + traced["spans"])
            out.setdefault("missing", traced["missing"])
    out["total_s"] = sum(out["seconds"])
    out["total_raw_s"] = sum(out["raw_seconds"])
    return out


def per_item(repetitions: list) -> list:
    """Each item's median time over the repetitions of a run."""
    return [median(times) for times in zip(*repetitions)]


def cli_kind_metrics(passes: list) -> dict:
    typical = per_item([p["seconds"] for p in passes])
    return {f"cli.{kind}_s": sum(s for s, k in zip(typical, passes[0]["kinds"])
                                 if k == kind)
            for kind in workloads.CLI_KINDS}


def import_samples(count: int, deadline: float) -> list:
    """Seconds to import hsl.cli in `count` fresh interpreters, scaled to a
    calm host."""
    samples = []
    for _ in range(count):
        child, pace = run_paced_cli(["--import-only"], deadline)
        if child.code != 0 or "import_s" not in pace:
            raise BenchError(f"import hsl.cli failed; see {OUT / 'stderr.log'}")
        samples.append(pace["import_s"])
    return samples


# ---------------------------------------------------------------------------
# runs


def traced_layers(passes: list, tally: Tally) -> dict:
    """Counts from the first traced pass, times averaged over both; the two
    passes must agree on every count."""
    first, second = passes
    differ = [k for k in COUNT_METRICS if first.get(k, 0) != second.get(k, 0)]
    tally.add(not differ, f"traced passes disagree on {differ}")
    out = {}
    for name in PER_LAYER:
        if name in COUNT_METRICS:
            out[name] = first.get(name, 0)
        else:
            out[name] = (first.get(name, 0.0) + second.get(name, 0.0)) / 2
    return out


def out_of_time(start: float, seconds: float, iteration_s: float) -> bool:
    """Whether another iteration that takes as long as the last one would
    end past the run's measuring time."""
    return time.monotonic() + iteration_s > start + seconds


def library_run(workload, seed, seconds, trace, spec, probe, golden, plant,
                deadline, tally, record) -> dict:
    start = time.monotonic()
    base = {"workload": workload, "seed": seed, "spec": spec}
    gate = run_worker({**base, "mode": "gate", "plant": plant}, deadline)
    input_digests = {gate["input_digest"]}

    def lib_pass(trace_out=None):
        res = run_worker({**base, "mode": "pass", "trace_out": trace_out}, deadline)
        input_digests.add(res["input_digest"])
        verdicts = workloads.check_library(workload, res["ops"], res["digests"],
                                           gate["refs"])
        for (name, i), ok in zip(res["ops"], verdicts):
            tally.add(ok, f"{name} on input {i}")
        tally.failures.extend(res["errors"])
        record["passes"].append({k: res[k] for k in
                                 ("wall_s", "setup_s", "setup_raw_s", "peak_rss_mb",
                                  "latencies_s", "calm_latencies_s")})
        return res

    if not trace:
        # Every worker sets up the same inputs, the gate's included.  The
        # probe repetitions alternate with the passes, and the time left
        # when a whole pass no longer fits goes to more set-ups and probes:
        # the machine's speed drifts, and samples spread over the whole
        # run average more of it.
        passes, setups, probes = [], [gate["setup_s"]], []
        while True:
            began = time.monotonic()
            passes.append(lib_pass())
            setups.append(passes[-1]["setup_s"])
            for _ in range(PROBES_PER_PASS):
                probes.append(cli_pass(probe, golden, tally, deadline))
            if out_of_time(start, seconds, time.monotonic() - began):
                break
        while True:
            began = time.monotonic()
            res = run_worker({**base, "mode": "setup"}, deadline)
            input_digests.add(res["input_digest"])
            setups.append(res["setup_s"])
            probes.append(cli_pass(probe, golden, tally, deadline))
            if (len(setups) >= MIN_SETUPS and len(probes) >= PROBE_REPS
                    and out_of_time(start, seconds, time.monotonic() - began)):
                break
        typical = per_item([p["calm_latencies_s"] for p in passes])
        typical_ms = [s * 1000 for s in typical]
        record["samples"] = {"passes": len(passes), "ops": len(typical),
                             "setups": len(setups), "probe_reps": len(probes)}
        record["setups_s"] = setups
        record["probes"] = [{"seconds": p["seconds"], "raw_seconds": p["raw_seconds"]}
                            for p in probes]
        metrics = {
            "wall_s": sum(typical),
            "op_p50_ms": median(typical_ms),
            "op_p90_ms": p90(typical_ms),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
            **cli_kind_metrics(probes),
        }
    else:
        # untraced, traced, traced, untraced: the overhead estimate is not
        # biased by a steady drift in the machine's speed
        untraced = [lib_pass()["wall_s"]]
        traced, walls = [], []
        for k in (1, 2):
            res = lib_pass(str(OUT / f"spans-{workload}-pass{k}.json.gz"))
            cli = cli_pass(probe, golden, tally, deadline, f"{workload}-pass{k}-probe")
            layers = add_layers(res["layers"], cli["layers"])
            layers["trace.spans"] = res["spans"] + cli["layers"].get("trace.spans", 0)
            layers["cli.stdout_bytes"] = cli["stdout_bytes"]
            traced.append(layers)
            walls.append(res["wall_s"])
            record["missing"] = sorted(set(res["missing"]) | set(cli.get("missing", [])))
        untraced.append(lib_pass()["wall_s"])
        metrics = traced_layers(traced, tally)
        metrics["trace.overhead_s"] = median(walls) - median(untraced)
        record["traced_wall_s"] = walls
        record["untraced_wall_s"] = untraced
    tally.add(len(input_digests) == 1, "passes drew different inputs from one seed")
    record["input_digest"] = sorted(input_digests)
    return metrics


def cli_run(seconds, trace, commands, golden, deadline, tally, record) -> dict:
    record["input_digest"] = workloads.sha256(json.dumps(commands))
    if not trace:
        passes, setups = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            setups += import_samples(IMPORT_SAMPLES_PER_PASS, deadline)
            passes.append(cli_pass(commands, golden, tally, deadline))
            if out_of_time(start, seconds, time.monotonic() - began):
                break
        while len(setups) < MIN_SETUPS or not out_of_time(start, seconds, 0.5):
            setups += import_samples(1, deadline)
        typical = per_item([p["seconds"] for p in passes])
        typical_ms = [s * 1000 for s in typical]
        record["samples"] = {"passes": len(passes), "commands": len(typical),
                             "setups": len(setups)}
        record["setups_s"] = setups
        record["passes"] = [{"total_s": p["total_s"], "seconds": p["seconds"],
                             "raw_seconds": p["raw_seconds"],
                             "rss_mb": p["rss_mb"]} for p in passes]
        return {
            "wall_s": sum(typical),
            "op_p50_ms": median(typical_ms),
            "op_p90_ms": p90(typical_ms),
            "setup_s": median(setups),
            "peak_rss_mb": median(max(p["rss_mb"]) for p in passes),
            **cli_kind_metrics(passes),
        }
    untraced = [cli_pass(commands, golden, tally, deadline)["total_raw_s"]]
    traced = [cli_pass(commands, golden, tally, deadline, f"cli-corpus-pass{k}")
              for k in (1, 2)]
    untraced.append(cli_pass(commands, golden, tally, deadline)["total_raw_s"])
    layers = []
    for p in traced:
        layers.append({**p["layers"], "cli.stdout_bytes": p["stdout_bytes"]})
        record["missing"] = p.get("missing", [])
    metrics = traced_layers(layers, tally)
    metrics["trace.overhead_s"] = (median(p["total_s"] for p in traced)
                                   - median(untraced))
    record["traced_wall_s"] = [p["total_s"] for p in traced]
    record["untraced_wall_s"] = untraced
    return metrics


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": _read_commit(),
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": nproc,
        "loadavg_at_start": list(os.getloadavg()),
        "pinned": {"PYTHONHASHSEED": ENV["PYTHONHASHSEED"],
                   "PYTHONPATH": ENV["PYTHONPATH"], "HSL_BUDGET": None,
                   "jobs": 1, "fresh_interpreter": True},
    }


def _read_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def execute(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, plant: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, run record)."""
    if not (ROOT / "src" / "hsl" / "__init__.py").is_file():
        raise BenchError(f"no src/hsl under {ROOT}: run from a checkout of hsl")
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN}")
    OUT.mkdir(exist_ok=True)
    (OUT / "stderr.log").write_bytes(b"")
    golden = json.loads(GOLDEN.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(), "passes": []}
    probe = workloads.cli_commands(workloads.CLI_PROBE)
    if workload == "cli-corpus":
        commands = workloads.cli_commands(workloads.CLI_PROBE if tiny
                                          else workloads.CLI_CORPUS)
        if plant:
            # a deliberately wrong reference, for the self-test
            golden[workloads.command_key(commands[0][1])] = {
                "sha256": workloads.sha256("planted wrong reference")}
        values = cli_run(seconds, trace, commands, golden, deadline, tally, record)
    else:
        spec = (workloads.TINY if tiny else workloads.LIBRARY)[workload]
        values = library_run(workload, seed, seconds, trace, spec, probe, golden,
                             plant, deadline, tally, record)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["failures"] = tally.failures
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = execute(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    env = record["environment"]
    print(f"perfbench: {args.workload} seed {args.seed}: python {env['python']}, "
          f"nproc {env['nproc']}, load {env['loadavg_at_start']}, "
          f"commit {env['commit']}, failed {result['failed']}/{result['attempted']}",
          file=sys.stderr)
    if record.get("missing"):
        print(f"perfbench: boundaries missing from hsl: {record['missing']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
