"""The function a runner worker process executes for one job.

Module-level and driven purely by the picklable :class:`JobSpec`, so it
works identically inline (``workers=0``) and across a process boundary.
Everything that can go wrong is translated into the typed exception
hierarchy with (trace, prefetcher) context attached:

* unknown trace / corrupted records → :class:`TraceError`
* unknown prefetcher, bad knobs     → :class:`ConfigError`
* a crash inside the simulator      → :class:`SimulationError`
* inconsistent statistics           → :class:`SimulationError`

When the job carries heartbeat fields (set by the campaign supervisor),
the worker additionally writes a progress ping to ``heartbeat_path``
every ``heartbeat_every`` simulated accesses — pure observation; the
simulation itself is bit-identical with or without it.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError, ReproError, SimulationError
from repro.prefetchers.registry import make_prefetcher
from repro.runner.faultinject import (
    CrashingPrefetcher,
    corrupt_trace,
    hierarchy_fault_hook,
)
from repro.runner.invariants import check_invariants
from repro.runner.jobs import JobSpec
from repro.runner.resources import Heartbeat
from repro.simulator.config import default_config
from repro.simulator.engine import simulate
from repro.simulator.stats import SimResult
from repro.workloads.catalog import resolve_trace


def run_job(spec: JobSpec, attempt: int = 1) -> SimResult:
    """Execute one job; returns its :class:`SimResult` or raises a
    classified :class:`~repro.errors.ReproError`."""
    fault = spec.fault

    hb = None
    if spec.heartbeat_path and spec.heartbeat_every > 0:
        hb = Heartbeat(spec.heartbeat_path, key=spec.key)
        hb.ping(0)  # registers our pid before any slow work starts

    if fault and fault.kind == "flaky" and attempt <= fault.fail_attempts:
        raise SimulationError(
            f"injected transient failure (attempt {attempt} of "
            f"{fault.fail_attempts} doomed)",
            trace=spec.trace, prefetcher=spec.l1d,
        )
    if fault and fault.kind == "hang":
        time.sleep(fault.hang_seconds)
    ballast = None
    if fault and fault.kind == "balloon":
        # Genuinely resident memory (bytearrays are touched pages), then
        # a sleep: the worker is alive but fat, and stays that way until
        # the supervisor's RSS guard preempts it.
        ballast = bytearray(fault.balloon_mb << 20)
        time.sleep(fault.hang_seconds)
        del ballast

    if spec.trace_path:
        # Zero-copy path: map the converted store read-only.  Pages are
        # shared with every other worker mapping the same file, and
        # MappedTrace.validate() is O(1) (records were validated at
        # conversion), so per-job trace cost no longer scales with the
        # trace length.
        from repro.memory.tracestore import load_trace_store

        trace = load_trace_store(spec.trace_path)
    else:
        trace = resolve_trace(spec.trace, spec.scale)
    if fault and fault.kind == "corrupt":
        trace = corrupt_trace(trace, period=fault.period)
    trace.validate()
    if hb is not None:
        hb.set_total(len(trace))
        hb.ping(0)  # trace built; the supervisor can now estimate ETA

    try:
        l1d = make_prefetcher(spec.l1d)
    except ValueError as exc:
        raise ConfigError(str(exc), trace=spec.trace,
                          prefetcher=spec.l1d, field="l1d") from exc
    try:
        l2 = make_prefetcher(spec.l2)
    except ValueError as exc:
        raise ConfigError(str(exc), trace=spec.trace,
                          prefetcher=spec.l2, field="l2") from exc

    if fault and fault.kind == "crash":
        l1d = CrashingPrefetcher(l1d, crash_on=max(1, fault.period))

    config = default_config()
    if spec.mtps:
        config = config.with_dram_mtps(spec.mtps)

    post_build = hierarchy_fault_hook(fault) if fault else None
    try:
        if spec.sanitize or spec.snapshot_every or spec.resume_from:
            from repro.sanitizer import SanitizerConfig, simulate_with_snapshots

            result = simulate_with_snapshots(
                trace,
                l1d_prefetcher=l1d,
                l2_prefetcher=l2,
                config=config,
                warmup_fraction=spec.warmup_fraction,
                post_build=post_build,
                snapshot_every=spec.snapshot_every,
                snapshot_dir=spec.snapshot_dir,
                resume_from=spec.resume_from,
                sanitize=(
                    SanitizerConfig(check_every=spec.sanitize_every)
                    if spec.sanitize else None
                ),
                engine=spec.engine,
                native=spec.native,
            )
        else:
            result = simulate(
                trace,
                l1d_prefetcher=l1d,
                l2_prefetcher=l2,
                config=config,
                warmup_fraction=spec.warmup_fraction,
                post_build=post_build,
                progress=hb.ping if hb is not None else None,
                progress_every=spec.heartbeat_every,
                engine=spec.engine,
                native=spec.native,
            )
    except ReproError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"simulation crashed: {type(exc).__name__}: {exc}",
            trace=spec.trace, prefetcher=spec.l1d,
        ) from exc

    violations = check_invariants(result)
    if violations:
        raise SimulationError(
            "inconsistent statistics: " + "; ".join(violations),
            trace=spec.trace, prefetcher=spec.l1d,
        )
    # Record the job's record count so the campaign supervisor can report
    # aggregate records/sec in the manifest.  Added after the simulation
    # returns, so engine-level results (golden matrix, lockstep) are
    # untouched.
    result.extra["trace_records"] = float(len(trace))
    return result
