"""The simulating process of the native-* and classic-zoo workloads.

``python3 perfbench/simproc.py CONFIG.json``.  The parent times this
process from spawn to the ``READY`` line it prints once its inputs are
ready (imports, trace generation, kernel load from the warm cache), so
that interval is the workload's set-up time.  Modes:

* ``setup``   -- exit after ``READY`` (an extra set-up sample);
* ``measure`` -- ``passes`` passes over the ops;
* ``pass``    -- the same, as the traced run's untraced twin;
* ``traced``  -- install the span wrappers first, then ``passes``
  passes, and write the spans out at exit.

The report (JSON at ``config["report"]``) carries one sample per timed
call -- op index, records, seconds, result digests, invariant
violations, demoted native spans -- and the host-speed probes taken
between the calls.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict

import check
import hostspeed
import inputs
import spans


def _run_op(op: Dict[str, Any], traces: Dict[str, Any], workload: str,
            heartbeat) -> tuple:
    """One timed ``simulate``/``simulate_multicore`` call."""
    from repro.prefetchers.registry import make_prefetcher
    from repro.simulator import engine, multicore

    if op["kind"] == "multicore":
        trs = [traces[inputs.input_key(t)] for t in op["traces"]]
        pfs = [make_prefetcher(op["l1d"]) for _ in trs]
        t0 = time.perf_counter()
        results = multicore.simulate_multicore(trs, pfs)
        dt = time.perf_counter() - t0
        return sum(len(t) for t in trs), dt, results
    trace = traces[inputs.input_key(op["trace"])]
    kwargs: Dict[str, Any] = {}
    if workload.startswith("native"):
        kwargs.update(engine="native", native="force")
    if heartbeat is not None:
        heartbeat.set_total(len(trace))
        kwargs.update(progress=heartbeat.ping,
                      progress_every=inputs.SUPERVISED_EVERY)
    l1d, l2 = make_prefetcher(op["l1d"]), make_prefetcher(op["l2"])
    t0 = time.perf_counter()
    result = engine.simulate(trace, l1d, l2, **kwargs)
    dt = time.perf_counter() - t0
    return len(trace), dt, [result]


def _compile_seconds(work: Path) -> float:
    """``build_kernel()`` into an empty cache directory."""
    from repro.native import build

    saved = os.environ.get("REPRO_NATIVE_CACHE")
    with tempfile.TemporaryDirectory(dir=work) as empty:
        os.environ["REPRO_NATIVE_CACHE"] = empty
        try:
            t0 = time.perf_counter()
            build.build_kernel()
            return time.perf_counter() - t0
        finally:
            if saved is None:
                os.environ.pop("REPRO_NATIVE_CACHE", None)
            else:
                os.environ["REPRO_NATIVE_CACHE"] = saved


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    workload, mode = cfg["workload"], cfg["mode"]
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)

    ops = inputs.ops_for(workload, cfg["seed"])
    traces = {}
    for op in ops:
        for inp in inputs.op_inputs(op):
            key = inputs.input_key(inp)
            if key not in traces:
                traces[key] = inputs.build_trace(inp)
    if workload.startswith("native"):
        from repro.native.build import kernel_available

        fn, diagnostic = kernel_available()
        if fn is None:
            raise SystemExit(f"native kernel unavailable: {diagnostic}")
    heartbeat = None
    if workload == "native-supervised":
        from repro.runner.resources import Heartbeat

        heartbeat = Heartbeat(cfg["heartbeat"], key=workload)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    report: Dict[str, Any] = {"samples": []}
    if mode == "traced" and workload.startswith("native"):
        report["compile_s"] = _compile_seconds(Path(cfg["work"]))
    report["probes"] = [hostspeed.probe()]
    for _ in range(cfg["passes"]):
        for index, op in enumerate(ops):
            records, seconds, results = _run_op(op, traces, workload,
                                                heartbeat)
            report["probes"].append(hostspeed.probe())
            dicts = [r.to_dict() for r in results]
            report["samples"].append({
                "op": index,
                "records": records,
                "seconds": seconds,
                "digests": [check.digest(d) for d in dicts],
                "violations": check.invariant_violations(dicts),
                "demoted": sum(int(d["extra"].get("native_demoted_spans", 0))
                               for d in dicts),
            })
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(cfg["spans"])
    Path(cfg["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
