"""The repository benchmark: host-time cost of simulating, layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``LEDGER.json`` for the layers each loads and bypasses):

* ``native-direct``     -- ``simulate(engine="native", native="force")``
  over long traces, no progress callback;
* ``native-supervised`` -- the same inputs with a heartbeat every 5000
  records, as ``repro suite --supervise`` runs them;
* ``classic-zoo``       -- the classic engine with the ``repro compare``
  L1D prefetchers, one L2 prefetcher and a 2-core mix;
* ``campaign``          -- ``repro serve --workers 1`` and one client in
  a closed loop: one cold campaign, then cached resubmissions;
* ``all``               -- each of the above in turn.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: untraced and traced passes
over the same ops, checked equal, with spans around public calls of the
simulator's packages giving the per-layer metrics and the tracing
overhead.  Every timed result is compared with a reference computed by
another path (``check.py``); any mismatch, invariant violation, demoted
native span, failed job or HTTP error is a failed operation.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
Runs need the repository's ``src/`` next to this directory and write
only under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import check
import hostspeed
from check import BenchError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: The benchmark's definition: workloads and metrics with their units.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

#: Set-ups per run; ``setup_s`` is their median.  A set-up takes
#: 0.5-1.6 s and one sample moves by +-10 % with the host, so a run
#: takes several.
SETUP_SAMPLES = 7
#: Nominal seconds of one pass over a workload's ops.  A run makes a
#: fixed number of passes for its ``--seconds``, so every run of a
#: workload does the same work (peak RSS grows with the passes made).
PASS_S = {"native-direct": 1.6, "native-supervised": 3.75,
          "classic-zoo": 3.0}
#: Passes of each leg of a traced run over the sim workloads.  Per-layer
#: times and counts are summed over them (campaign: over one cold
#: campaign and ``campaign.TRACED_HITS`` hits).
TRACED_PASSES = 3
#: campaign: fresh daemons per run, each set up, given the cold
#: campaign and its share of the cached resubmissions.
CAMPAIGN_LEGS = 5
#: Cached resubmissions per second of ``--seconds``.
HITS_PER_S = 30
#: A run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0


class Run:
    """State of one invocation: its working directory, child
    environment and deadline."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = WORK / f"run-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._n = 0
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            REPRO_NATIVE_CACHE=str(WORK / "native"),
            TMPDIR=str(self.dir),
        )

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.dir / f"{self._n:02d}-{stem}"

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean
    of all order statistics.  Unlike picking one order statistic it moves
    smoothly when a value shifts, which matters when few ops make up a
    pass and their latencies form clusters.

    The weight of the i-th order statistic is the Beta(q(n+1),
    (1-q)(n+1)) mass on ((i-1)/n, i/n), integrated by the midpoint rule
    on a grid of about 2**16 points (within 0.1 % of the exact estimate
    for the sample sizes used here).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    per = -(-(1 << 16) // n)
    t = (np.arange(n * per) + 0.5) / (n * per)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, per).sum(axis=1)
    return float(weights @ x / weights.sum())


def prepare(run: Run, native: bool) -> None:
    """Warm bytecode and, for native workloads, the kernel cache.

    A fresh checkout builds here (once); set-up samples then measure a
    warm cache, as a user's second run would see it.
    """
    code = ("import repro.cli, repro.service.daemon, repro.sanitizer; "
            "from repro.native.build import kernel_available; "
            "fn, diag = kernel_available(); "
            f"raise SystemExit(0 if fn or not {native} else diag)")
    out = subprocess.run([sys.executable, "-c", code], env=run.env,
                         cwd=ROOT, timeout=run.remaining())
    if out.returncode != 0:
        raise BenchError("preparing the checkout failed")


# ----------------------------------------------------------------------
# native-direct, native-supervised, classic-zoo
# ----------------------------------------------------------------------

def _simproc(run: Run, workload: str, mode: str) -> Tuple[float, Dict]:
    """Spawn one simulating process; returns (set-up seconds scaled by
    the host speed while it set up, report)."""

    passes = max(1, round(run.seconds / PASS_S[workload])) \
        if mode == "measure" else TRACED_PASSES
    cfg = {"workload": workload, "seed": run.seed, "mode": mode,
           "passes": passes,
           "report": str(run.path("report.json")),
           "spans": str(run.path("spans.npz")),
           "heartbeat": str(run.path("heartbeat.json")),
           "work": str(run.dir)}
    cfg_path = run.path("config.json")
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "simproc.py"),
                             str(cfg_path)], env=run.env, cwd=ROOT,
                            stdout=subprocess.PIPE)
    watchdog = threading.Timer(run.remaining(), proc.kill)
    watchdog.start()
    try:
        ticks = hostspeed.ticks_until_readable(proc.stdout, run.remaining())
        line = proc.stdout.readline()
        setup_s = (time.perf_counter() - t0) / hostspeed.tick_slowness(ticks)
        proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"READY" or rc != 0:
        raise BenchError(f"{workload} {mode} process failed (exit {rc})")
    if mode == "setup":
        return setup_s, {}
    report = json.loads(Path(cfg["report"]).read_text())
    report["spans_path"] = cfg["spans"]
    return setup_s, report


def _reference_path(workload: str) -> str:
    return "classic" if workload.startswith("native") else \
        "sanitizer-reference"


def _failed_samples(samples: List[Dict], refs: List[List[str]]) -> int:
    return sum(1 for s in samples
               if s["digests"] != refs[s["op"]] or s["violations"]
               or s["demoted"])


def _pass_profile(report: Dict) -> Dict[int, Tuple[int, float]]:
    """op -> (records, median seconds over its repetitions).

    A typical pass: each op at the median of its repetitions, so a burst
    of host load during one call does not move the figures.  Each call
    is scaled by the probes just before and after it: the host drifts
    within a run, so one scale for the whole run would leave most of the
    drift in (it did: 9 % spread over seeds instead of 4 % for
    native-supervised records per second).
    """
    probes = report["probes"]
    by_op: Dict[int, List[float]] = {}
    records = {}
    for i, s in enumerate(report["samples"]):
        slow = hostspeed.slowness(probes[i:i + 2])
        by_op.setdefault(s["op"], []).append(s["seconds"] / slow)
        records[s["op"]] = s["records"]
    return {op: (records[op], _median(times)) for op, times in by_op.items()}


def measure_sim(run: Run, workload: str, cache) -> Dict[str, Any]:
    import inputs

    setups = [_simproc(run, workload, "setup")[0]
              for _ in range(SETUP_SAMPLES - 1)]
    # The measuring process sets up the same way: the last sample.
    setup_s, report = _simproc(run, workload, "measure")
    setups.append(setup_s)
    samples = report["samples"]
    ops = inputs.ops_for(workload, run.seed)
    refs = cache.digests(_reference_path(workload), ops)
    profile = _pass_profile(report)
    busy = sum(t for _, t in profile.values())
    latencies = [t * 1e3 for _, t in profile.values()]
    metrics = {
        "records_per_s": sum(n for n, _ in profile.values()) / busy,
        "jobs_per_s": len(profile) / busy,
        "hit_latency_p50_ms": _quantile(latencies, 0.5),
        "hit_latency_p90_ms": _quantile(latencies, 0.9),
        "setup_s": _median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {"attempted": len(samples),
            "failed": _failed_samples(samples, refs), "metrics": metrics}


def _layer_metrics(ledger, setup_ledger) -> Dict[str, float]:
    L = ledger
    sim = L.total("simulator.engine.simulate")
    kernel = L.total("native.build.kernel")
    imports = L.count("native.marshal.import")
    return {
        "simulator.engine.simulate_s": sim,
        "simulator.engine.self_s": L.self_time("simulator.engine.simulate"),
        "simulator.engine.build_hierarchy_s":
            L.total("simulator.engine.build_hierarchy"),
        "cpu.mmu.prewarm_s": L.total("cpu.mmu.prewarm"),
        "native.marshal.export_s": L.total("native.marshal.export"),
        "native.marshal.import_s": L.total("native.marshal.import"),
        "native.marshal.import_ms_per_span":
            1e3 * L.total("native.marshal.import") / imports if imports
            else 0.0,
        "native.marshal.decode_s": L.total("native.marshal.decode"),
        "native.build.kernel_s": kernel,
        "native.build.kernel_share": kernel / sim if sim else 0.0,
        "native.spans": L.count("native.build.kernel"),
        "simulator.batched.span_s": L.total("simulator.batched.span"),
        "memory.hierarchy.self_s":
            L.self_time("memory.hierarchy.demand_access"),
        "cpu.core_model.self_s": L.self_time("cpu.core_model.issue_memory"),
        "cpu.mmu.translate_s": L.total("cpu.mmu.translate"),
        "cpu.mmu.translate_calls": L.count("cpu.mmu.translate"),
        "memory.cache.fill_s": L.total("memory.cache.fill"),
        "memory.cache.fill_calls": L.count("memory.cache.fill"),
        "memory.mshr.allocate_s": L.total("memory.mshr.allocate"),
        "memory.mshr.allocate_calls": L.count("memory.mshr.allocate"),
        "memory.dram.access_s": L.total("memory.dram.access"),
        "memory.dram.access_calls": L.count("memory.dram.access"),
        "core.berti.hooks_s": L.total("core.berti.hooks"),
        "prefetchers.hooks_s": L.total("prefetchers.hooks"),
        "simulator.multicore.simulate_s":
            L.total("simulator.multicore.simulate"),
        "runner.resources.heartbeat_s":
            L.total("runner.resources.heartbeat"),
        "runner.resources.heartbeat_pings":
            L.count("runner.resources.heartbeat"),
        "workloads.generate_s": setup_ledger.total("workloads.generate"),
        "memory.tracestore.convert_s":
            setup_ledger.total("memory.tracestore.convert"),
        "tracing.spans": len(L) + (
            len(setup_ledger) if setup_ledger is not L else 0),
    }


def _complete(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer a workload never enters is 0."""
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    unknown = set(metrics) - set(names)
    if unknown:
        raise BenchError(f"not in BENCHMARK.json: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in names}


def trace_sim(run: Run, workload: str, cache) -> Dict[str, Any]:
    import inputs
    import spans

    _, plain = _simproc(run, workload, "pass")
    _, traced = _simproc(run, workload, "traced")
    ops = inputs.ops_for(workload, run.seed)
    refs = cache.digests(_reference_path(workload), ops)
    failed = _failed_samples(plain["samples"], refs) + _failed_samples(
        traced["samples"], refs)
    # Tracing must not change a result.
    failed += sum(1 for a, b in zip(plain["samples"], traced["samples"])
                  if a["digests"] != b["digests"])
    ledger = spans.Ledger(spans.load(traced["spans_path"]))
    metrics = _layer_metrics(ledger, ledger)

    def pass_seconds(report) -> float:
        # The two passes run in different processes at different times:
        # compare them at the same host speed.
        return sum(t for _, t in _pass_profile(report).values())

    metrics.update({
        "native.demoted_spans": sum(s["demoted"] for s in traced["samples"]),
        "native.build.compile_s": traced.get("compile_s", 0.0),
        "tracing.overhead_share":
            pass_seconds(traced) / pass_seconds(plain) - 1.0,
    })
    return {"attempted": len(plain["samples"]) + len(traced["samples"]),
            "failed": failed, "metrics": _complete(metrics)}


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

def _campaign_leg(run: Run, tag: str, traced: bool, hits: Optional[int]):
    """One fresh daemon: set up, cold campaign, ``hits`` cached
    resubmissions (neither when ``hits`` is None), stop.  Returns
    (set-up s scaled by the host speed while it ran, boot s, peak RSS
    MB, loop)."""
    import campaign

    convert_s, boot_s, ticks, daemon, loop = campaign.set_up(
        run.seed, run.dir, run.env, tag, traced)
    try:
        if hits is not None:
            loop.cold()
            loop.hits(hits)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    if daemon.proc.returncode != 0:
        raise BenchError(f"daemon exited with {daemon.proc.returncode}")
    return ((convert_s + boot_s) / hostspeed.tick_slowness(ticks), boot_s,
            rss, loop)


def _verify_campaign(loop, cache) -> int:
    import campaign

    return campaign.verify(loop, campaign.references(cache, loop))


def measure_campaign(run: Run, cache) -> Dict[str, Any]:
    """``CAMPAIGN_LEGS`` fresh daemons, one after another: each is set
    up, runs the cold campaign, then serves its share of the cached
    resubmissions.  Every figure is the median over the legs, so a few
    seconds of host load move one leg, not the result.  Further daemons
    are only set up, until there are ``SETUP_SAMPLES`` set-ups."""
    import campaign

    hits = max(campaign.MIN_HITS,
               round(run.seconds * HITS_PER_S / CAMPAIGN_LEGS))
    legs = [_campaign_leg(run, f"s{i}", False, hits)
            for i in range(CAMPAIGN_LEGS)]
    setups = [setup_s for setup_s, _, _, _ in legs] + [
        _campaign_leg(run, f"x{i}", False, None)[0]
        for i in range(SETUP_SAMPLES - CAMPAIGN_LEGS)]
    loops = [loop for _, _, _, loop in legs]

    def per_leg(fn) -> float:
        return _median([fn(leg) for leg in loops])

    def cold_s(g) -> float:
        return g.cold_s / hostspeed.tick_slowness(g.cold_ticks)

    def hit_ms(g, q: float) -> float:
        # Each hit scaled by the probes around its block of hits.
        every = campaign.PROBE_EVERY
        return 1e3 * _quantile([
            t / hostspeed.slowness(g.hit_probes[i // every:i // every + 2])
            for i, t in enumerate(g.hit_s)], q)

    metrics = {
        "records_per_s": per_leg(lambda g: g.cold_records / cold_s(g)),
        "jobs_per_s": per_leg(lambda g: len(g.jobs) / cold_s(g)),
        "hit_latency_p50_ms": per_leg(lambda g: hit_ms(g, 0.5)),
        "hit_latency_p90_ms": per_leg(lambda g: hit_ms(g, 0.9)),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([rss for _, _, rss, _ in legs]),
    }
    return {"attempted": sum(leg.attempted for leg in loops),
            "failed": sum(leg.failed + _verify_campaign(leg, cache)
                          for leg in loops),
            "metrics": metrics}


def trace_campaign(run: Run, cache) -> Dict[str, Any]:
    import campaign
    import spans

    *_, plain = _campaign_leg(run, "plain", False, campaign.TRACED_HITS)
    _, boot_s, _, traced = _campaign_leg(run, "traced", True,
                                         campaign.TRACED_HITS)
    failed = (plain.failed + traced.failed + _verify_campaign(plain, cache)
              + _verify_campaign(traced, cache))
    daemon = spans.Ledger(spans.load(str(run.dir / "daemon-traced.npz")))
    setup = spans.Ledger(spans.load(str(run.dir / "convert-traced.npz")))
    metrics = _layer_metrics(daemon, setup)

    # The daemon's spans of each phase: those starting inside the
    # client's interval for it (one host clock for both processes).
    cold, hits = traced.windows["cold"], traced.windows["hits"]
    submitted = {k: t for e, k, t in daemon.marks if e == "submit"}
    waits = [t - submitted[k] for e, k, t in daemon.marks
             if e == "grant" and k in submitted]
    handler = [d for name in ("service.daemon.submit",
                              "service.daemon.results")
               for d in daemon.durations(name, hits)]
    rtt = [t1 - t0 for kind in ("submit", "results")
           for t0, t1 in traced.rtt[kind] if hits[0] <= t0 <= hits[1]]
    http = [c - h for c, h in zip(rtt, handler)]

    def busy_s(loop) -> float:
        # The two legs run at different times: compare them at the same
        # host speed.
        return (loop.cold_s / hostspeed.tick_slowness(loop.cold_ticks)
                + sum(loop.hit_s) / hostspeed.slowness(loop.hit_probes))

    def p50_ms(name: str, within: spans.Window) -> float:
        return 1e3 * daemon.p50(name, within)

    metrics.update({
        "runner.worker.run_job_s": daemon.total("runner.worker.run_job"),
        "memory.tracestore.load_ms_p50":
            p50_ms("memory.tracestore.load", cold),
        "service.wal.append_ms_p50": p50_ms("service.wal.append", cold),
        "service.wal.appends": daemon.count("service.wal.append", cold),
        "service.wal.hit_append_ms_p50": p50_ms("service.wal.append", hits),
        "service.resultcache.put_ms_p50":
            p50_ms("service.resultcache.put", cold),
        "service.leases.queue_wait_s_p50": _median(waits) if waits else 0.0,
        "service.daemon.submit_ms_p50": p50_ms("service.daemon.submit", hits),
        "service.daemon.results_ms_p50":
            p50_ms("service.daemon.results", hits),
        "service.resultcache.get_ms_p50":
            p50_ms("service.resultcache.get", hits),
        "memory.tracestore.digest_ms_p50":
            p50_ms("memory.tracestore.digest", hits),
        "service.client.http_ms_p50": 1e3 * _median(http) if http else 0.0,
        "service.daemon.boot_s": boot_s,
        "tracing.overhead_share": busy_s(traced) / busy_s(plain) - 1.0,
    })
    return {"attempted": plain.attempted + traced.attempted,
            "failed": failed, "metrics": _complete(metrics)}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> Dict[str, Any]:
    run = Run(seed, seconds)
    try:
        prepare(run, workload.startswith("native"))
        cache = check.ReferenceCache(WORK / "refs", ROOT / "src")
        if workload == "campaign":
            out = trace_campaign(run, cache) if traced else \
                measure_campaign(run, cache)
        else:
            out = trace_sim(run, workload, cache) if traced else \
                measure_sim(run, workload, cache)
    finally:
        run.close()
    units = {m["name"]: m["unit"] for m in
             BENCHMARK["per_layer" if traced else "end_to_end"]}
    out["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in out["metrics"].items()}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    # References run in this process.
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    # Every process of a run shares one CPU (children inherit this):
    # the client/daemon ping-pong then never waits on a wake-up across
    # CPUs, and the host-speed probe times the CPU the work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed,
                                             args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for workload, out in results.items():
        print(f"{workload}: attempted {out['attempted']}, "
              f"failed {out['failed']}")
        for name, m in out["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    prefix = len(results) > 1      # --workload all: "<workload>/<metric>"
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}" if prefix else k: v
                    for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
