"""Records/sec microbenchmarks for the simulation core.

The suite times :func:`repro.simulator.engine.simulate` end-to-end on a
small matrix of (trace × L1D prefetcher) cases spanning the three trace
families the paper evaluates — synthetic streams, GAP graph kernels, and
SPEC-like traces — and reports **records per second**, the unit that
directly bounds how many configurations a sweep can cover.

Cross-host comparability.  Raw records/sec moves with the host CPU, so
every report also carries a *host calibration* figure: the throughput of
a fixed pure-Python kernel measured at report time.  Regression checks
compare the *normalized* throughput (records/sec ÷ calibration) when
both sides carry a calibration, which makes the committed CI baseline
meaningful on runner hardware that differs from the machine that
recorded it.  Tolerances stay deliberately loose (30 % by default):
this gate exists to catch "accidentally made the engine 2× slower",
not 2 % jitter.

``benchmarks/perf/bench_simcore.py`` is the command-line entry point;
it writes ``BENCH_simcore.json`` so the throughput trajectory is
tracked across PRs.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Report schema version, bumped on incompatible layout changes.
SCHEMA = "bench-simcore/v1"


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchCase:
    """One timed configuration."""

    name: str           #: stable key, used by baselines ("mcf/none")
    trace: str          #: catalog trace spec, or "synth:bench"
    l1d: str            #: L1D prefetcher registry name
    scale: float = 1.0  #: trace scale passed to the catalog
    cores: int = 1      #: >1 runs the trace on every core of a shared-LLC mix
    engine: str = "classic"  #: simulator inner loop ("classic"/"native")


@dataclass
class BenchResult:
    """Timing for one case (best-of-``repeats`` wall clock)."""

    case: BenchCase
    records: int
    repeats: int
    best_seconds: float
    mean_seconds: float
    records_per_sec: float
    #: records/sec ÷ host-calibration Mops — the cross-host comparable unit.
    normalized: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.case.name,
            "trace": self.case.trace,
            "l1d": self.case.l1d,
            "scale": self.case.scale,
            "cores": self.case.cores,
            "engine": self.case.engine,
            "records": self.records,
            "repeats": self.repeats,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "records_per_sec": self.records_per_sec,
            "normalized": self.normalized,
        }


def default_cases(scale: float = 1.0) -> List[BenchCase]:
    """The tier-1 benchmark matrix: trace families × prefetchers × engines.

    The ``none`` rows time the demand path alone; the ``berti`` rows add
    the full train/predict/issue machinery.  Both matter: sweeps run
    mostly prefetcher configs, but the demand path is the floor every
    config pays.  Every single-core case gets an ``@native`` twin timing
    the C span kernel (:mod:`repro.native`); on hosts without a compiler
    it runs the classic fallback and reports comparable numbers rather
    than failing.  The multicore cases have no twins: multicore has no
    native path.
    """
    matrix = [
        ("synth", "synth:bench"),
        ("bfs-kron", "bfs-kron"),      # GAP graph kernel
        ("mcf", "mcf_s-1554B"),        # SPEC-like, pointer-heavy
        ("lbm", "lbm_s-2676B"),        # SPEC-like, streaming
    ]
    cases: List[BenchCase] = []
    for short, spec in matrix:
        for pf in ("none", "berti"):
            cases.append(
                BenchCase(name=f"{short}/{pf}", trace=spec, l1d=pf, scale=scale)
            )
            cases.append(
                BenchCase(name=f"{short}/{pf}@native", trace=spec, l1d=pf,
                          scale=scale, engine="native")
            )
    # Shared-LLC/DRAM replay loop with the full Berti machinery on both
    # cores: the configuration parallel campaigns actually sweep, and
    # the one the mmap trace store exists to feed.
    cases.append(BenchCase(name="mc2-synth/berti", trace="synth:bench",
                           l1d="berti", scale=scale, cores=2))
    cases.append(BenchCase(name="mc2-bfs/berti", trace="bfs-kron",
                           l1d="berti", scale=scale, cores=2))
    return cases


def build_bench_trace(spec: str, scale: float):
    """Resolve a case's trace; ``synth:bench`` is built inline, RNG-free.

    The synthetic mix mirrors the golden trace's construction (constant
    stride, repeating delta pattern, write-heavy stream) but sized by
    ``scale`` so ``--quick`` stays quick.
    """
    if spec != "synth:bench":
        from repro.workloads.catalog import resolve_trace

        return resolve_trace(spec, scale)

    from repro.workloads.synthetic import pattern_stream, strided_stream
    from repro.workloads.trace import Trace, interleave

    n = max(200, int(2000 * scale))
    a = Trace("a")
    a.extend(strided_stream(0x100, 0x10000, 1, n, gap=6))
    b = Trace("b")
    b.extend(pattern_stream(0x200, 0x400000, [1, 3, 1, 3], n, gap=4))
    c = Trace("c")
    c.extend(strided_stream(0x300, 0x800000, 2, n, gap=8, is_write=True))
    out = interleave([a, b, c], "bench_synth", chunk=2)
    out.suite = "synthetic"
    return out


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------


def _calibration_kernel(n: int) -> int:
    """A fixed interpreter workload: dict probes + int arithmetic.

    Deliberately shaped like the simulator's hot path (dict presence
    checks, attribute-free integer math) so its throughput tracks the
    interpreter speed the simulator actually experiences.
    """
    table: Dict[int, int] = {}
    get = table.get
    acc = 0
    for i in range(n):
        k = (i * 2654435761) & 0xFFFF
        v = get(k)
        if v is None:
            table[k] = i
        else:
            acc += v & 7
        if len(table) > 8192:
            table.clear()
    return acc


def calibrate_host(target_seconds: float = 0.2) -> float:
    """Millions of calibration-kernel iterations per second on this host."""
    n = 100_000
    # Grow n until the kernel runs long enough to time reliably.
    while True:
        t0 = time.perf_counter()
        _calibration_kernel(n)
        dt = time.perf_counter() - t0
        if dt >= target_seconds or n >= 10_000_000:
            return (n / dt) / 1e6
        n *= 4


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def _time_once(case: BenchCase, trace) -> float:
    """One timed simulation of ``case`` (fresh prefetchers each call)."""
    from repro.prefetchers.registry import make_prefetcher

    if case.cores <= 1:
        from repro.simulator.engine import simulate

        pf = make_prefetcher(case.l1d)
        t0 = time.perf_counter()
        simulate(trace, l1d_prefetcher=pf, engine=case.engine)
        return time.perf_counter() - t0
    from repro.simulator.multicore import simulate_multicore

    l1ds = [make_prefetcher(case.l1d) for _ in range(case.cores)]
    l2s = [make_prefetcher("none") for _ in range(case.cores)]
    t0 = time.perf_counter()
    simulate_multicore([trace] * case.cores, l1ds, l2s)
    return time.perf_counter() - t0


def run_case(
    case: BenchCase,
    repeats: int = 3,
    calibration_mops: Optional[float] = None,
) -> BenchResult:
    """Time one case, best-of-``repeats`` (fresh prefetcher per repeat)."""
    trace = build_bench_trace(case.trace, case.scale)
    times: List[float] = []
    for _ in range(max(1, repeats)):
        times.append(_time_once(case, trace))
    best = min(times)
    records = len(trace) * max(1, case.cores)
    rps = records / best if best > 0 else 0.0
    return BenchResult(
        case=case,
        records=records,
        repeats=len(times),
        best_seconds=best,
        mean_seconds=sum(times) / len(times),
        records_per_sec=rps,
        normalized=(rps / calibration_mops) if calibration_mops else None,
    )


def run_suite(
    cases: List[BenchCase],
    repeats: int = 3,
    calibration_mops: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    interleave: bool = True,
) -> List[BenchResult]:
    """Run every case; ``progress`` gets one line per finished case.

    With ``interleave`` (the default) the repeats are scheduled
    round-robin across cases — every case gets one timing per round —
    instead of back-to-back.  On a machine with background load,
    back-to-back repeats of one case all land in the same load window
    and best-of-N removes none of the bias; spreading a case's repeats
    across the whole suite duration decorrelates them from load bursts.
    """
    if not interleave:
        results = []
        for case in cases:
            res = run_case(
                case, repeats=repeats, calibration_mops=calibration_mops
            )
            results.append(res)
            if progress is not None:
                progress(
                    f"{case.name:<16} {res.records_per_sec:>10.0f} rec/s "
                    f"({res.records} recs, best of {res.repeats})"
                )
        return results

    traces = [build_bench_trace(c.trace, c.scale) for c in cases]
    times: List[List[float]] = [[] for _ in cases]
    for _round in range(max(1, repeats)):
        for i, case in enumerate(cases):
            times[i].append(_time_once(case, traces[i]))
    results = []
    for i, case in enumerate(cases):
        best = min(times[i])
        records = len(traces[i]) * max(1, case.cores)
        rps = records / best if best > 0 else 0.0
        res = BenchResult(
            case=case,
            records=records,
            repeats=len(times[i]),
            best_seconds=best,
            mean_seconds=sum(times[i]) / len(times[i]),
            records_per_sec=rps,
            normalized=(rps / calibration_mops) if calibration_mops else None,
        )
        results.append(res)
        if progress is not None:
            progress(
                f"{case.name:<16} {res.records_per_sec:>10.0f} rec/s "
                f"({res.records} recs, best of {res.repeats} interleaved)"
            )
    return results


# ----------------------------------------------------------------------
# Reports and regression gate
# ----------------------------------------------------------------------


def write_report(
    path: str,
    results: List[BenchResult],
    calibration_mops: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write ``BENCH_simcore.json``; returns the report dict."""
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "calibration_mops": calibration_mops,
        },
        "cases": [r.to_dict() for r in results],
    }
    if extra:
        report.update(extra)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def _throughput_by_name(
    report: Dict[str, Any], normalized: bool
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for case in report.get("cases", []):
        value = case.get("normalized") if normalized else None
        if value is None:
            value = case.get("records_per_sec")
        if value:
            out[case["name"]] = value
    return out


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.30,
) -> List[str]:
    """Regression messages, empty when the gate passes.

    A case regresses when its throughput falls more than ``tolerance``
    below the baseline's.  Normalized (calibration-scaled) figures are
    compared when both reports carry a calibration — that is what makes
    the committed baseline portable across CI hosts; otherwise raw
    records/sec is used.  Cases present on only one side are reported
    as notes but do not fail the gate (the matrix may legitimately
    grow), except baseline cases that vanished, which do fail: silently
    dropping a gated case would defeat the gate.
    """
    both_calibrated = bool(
        current.get("host", {}).get("calibration_mops")
        and baseline.get("host", {}).get("calibration_mops")
    )
    cur = _throughput_by_name(current, normalized=both_calibrated)
    base = _throughput_by_name(baseline, normalized=both_calibrated)
    unit = "normalized rec/s/Mop" if both_calibrated else "rec/s"
    problems: List[str] = []
    for name, base_val in sorted(base.items()):
        cur_val = cur.get(name)
        if cur_val is None:
            problems.append(
                f"{name}: present in baseline but missing from current run"
            )
            continue
        floor = base_val * (1.0 - tolerance)
        if cur_val < floor:
            drop = 1.0 - cur_val / base_val
            problems.append(
                f"{name}: {cur_val:.1f} {unit} is {drop:.0%} below baseline "
                f"{base_val:.1f} (tolerance {tolerance:.0%})"
            )
    return problems
