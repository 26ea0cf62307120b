"""One library-workload process, started fresh for every pass.

    python perfbench/worker.py '<json config>'

Modes: "setup" stops once the inputs are ready; "gate" computes the
reference digests by the independent route; "pass" times every op of the
workload in a closed loop (one caller, `jobs=1`) and reports latencies,
result digests and its peak resident set.  With "trace" set, the tracer
wraps the `hsl` boundaries before the inputs are drawn and records only
while an op runs.  A pacer (pace.py) runs from the start, so that the
set-up and every latency are also reported scaled to a calm host.  The
last line of stdout is a JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import workloads
from pace import Pacer


def main() -> int:
    began = time.perf_counter()
    pacer = Pacer().start()
    cfg = json.loads(sys.argv[1])
    workload, mode = cfg["workload"], cfg["mode"]
    import hsl

    tracer = None
    if cfg.get("trace_out"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    inputs = workloads.sample_inputs(hsl, workload, cfg["seed"], cfg["spec"])
    ready = time.perf_counter()
    out = {"ready_at": time.monotonic(),
           "setup_slowdown": pacer.slowdown(began, ready),
           "input_digest": workloads.input_digest(inputs)}

    if mode == "gate":
        refs = [workloads.reference_digest(hsl, workload, tag, x)
                for tag, x in inputs]
        if cfg.get("plant"):
            # a deliberately wrong reference, for the self-test
            first = next(i for i, r in enumerate(refs) if r is not None)
            refs[first] = workloads.sha256("planted wrong reference")
        out["refs"] = refs

    elif mode == "pass":
        ops = workloads.library_ops(workload, inputs)
        results, latencies, spans, errors = [], [], [], []
        start = time.perf_counter()
        for j, (name, i) in enumerate(ops):
            tag, x = inputs[i]
            if tracer:
                tracer.begin_op(j, name)
            t0 = time.perf_counter()
            try:
                result = workloads.call_op(hsl, name, tag, x)
            except Exception:  # a failing op is counted, the pass goes on
                result = None
                errors.append(f"op {j} {name} {x.encode()}:\n{traceback.format_exc()}")
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op()
            latencies.append(t1 - t0)
            spans.append((t0, t1))
            results.append(result)
        out["wall_s"] = time.perf_counter() - start
        pacer.stop()
        out["calm_latencies_s"] = [pacer.calm(t0, t1) for t0, t1 in spans]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["latencies_s"] = latencies
        out["ops"] = ops
        out["digests"] = [None if r is None else workloads.vector_digest(r)
                          for r in results]
        out["errors"] = errors
        if tracer:
            out["layers"] = tracer.layer_stats()
            out["spans"] = tracer.spans()
            out["missing"] = tracer.missing
            tracer.dump(cfg["trace_out"])

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
