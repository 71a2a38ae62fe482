"""Single-core simulation engine.

Drives a :class:`~repro.workloads.trace.Trace` through the core model and
the memory hierarchy, with a warmup region whose statistics are discarded
(the paper warms caches for 50 M instructions and measures 200 M; we use
a configurable fraction of the — much shorter — synthetic traces).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cpu.core_model import CoreModel
from repro.cpu.mmu import MMU
from repro.errors import ConfigError, ReproError, SimulationError, TraceError
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import Hierarchy
from repro.prefetchers.base import NoPrefetcher, Prefetcher
from repro.simulator.config import SystemConfig, default_config
from repro.simulator.stats import PrefetchSummary, SimResult
from repro.workloads.trace import Trace

#: Engines selectable via ``simulate(..., engine=...)`` and ``--engine``.
ENGINES = ("classic", "native")

#: ``native=`` policies for ``engine="native"``: ``auto`` demotes to the
#: classic loop when the kernel is unavailable or a guard fires,
#: ``force`` raises ConfigError when the kernel cannot be built.
NATIVE_POLICIES = ("auto", "force")


def validate_engine(engine: str, trace_name: str,
                    native: str = "auto") -> None:
    """Reject unknown engines / native policies with field context."""
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r} (expected one of {', '.join(ENGINES)})",
            trace=trace_name,
            field="engine",
        )
    if native not in NATIVE_POLICIES:
        raise ConfigError(
            f"unknown native policy {native!r} (expected one of "
            f"{', '.join(NATIVE_POLICIES)})",
            trace=trace_name,
            field="native",
        )


def build_hierarchy(
    config: SystemConfig,
    l1d_prefetcher: Optional[Prefetcher] = None,
    l2_prefetcher: Optional[Prefetcher] = None,
    dram: Optional[DRAM] = None,
    llc: Optional[Cache] = None,
    asid: int = 0,
) -> Hierarchy:
    """Construct one core's hierarchy from a :class:`SystemConfig`.

    ``dram`` and ``llc`` can be shared between cores (multi-core runs).
    """
    mmu = MMU(
        dtlb_entries=config.dtlb_entries,
        dtlb_ways=config.dtlb_ways,
        dtlb_latency=config.dtlb_latency,
        stlb_entries=config.stlb_entries,
        stlb_ways=config.stlb_ways,
        stlb_latency=config.stlb_latency,
        page_walk_latency=config.page_walk_latency,
        asid=asid,
    )
    l1d = Cache(
        "l1d", config.l1d.size_bytes, config.l1d.ways, config.l1d.latency,
        replacement=config.l1d.replacement,
    )
    l2 = Cache(
        "l2", config.l2.size_bytes, config.l2.ways, config.l2.latency,
        replacement=config.l2.replacement,
    )
    if llc is None:
        llc = Cache(
            "llc", config.scaled_llc_size(), config.llc.ways,
            config.llc.latency, replacement=config.llc.replacement,
        )
    if dram is None:
        dram = DRAM(config.dram)
    return Hierarchy(
        mmu=mmu,
        dram=dram,
        l1d=l1d,
        l2=l2,
        llc=llc,
        l1d_mshr_size=config.l1d_mshr,
        l2_mshr_size=config.l2_mshr,
        pq_size=config.pq_size,
        l1d_prefetcher=l1d_prefetcher or NoPrefetcher(),
        l2_prefetcher=l2_prefetcher or NoPrefetcher(),
    )


@dataclass
class _Snapshot:
    instructions: int
    cycles: float


def _collect(
    trace: Trace,
    hierarchy: Hierarchy,
    core: CoreModel,
    start: _Snapshot,
) -> SimResult:
    res = SimResult(
        trace_name=trace.name,
        prefetcher_l1d=hierarchy.l1d_prefetcher.name,
        prefetcher_l2=hierarchy.l2_prefetcher.name,
    )
    res.instructions = core.instructions - start.instructions
    res.cycles = core.cycles - start.cycles

    l1d, l2, llc = hierarchy.l1d.stats, hierarchy.l2.stats, hierarchy.llc.stats
    res.l1d_demand_accesses = l1d.demand_accesses
    res.l1d_demand_misses = l1d.demand_misses
    res.l2_demand_accesses = l2.demand_accesses
    res.l2_demand_misses = l2.demand_misses
    # LLC counters come from the hierarchy's per-core attribution (the
    # LLC object itself may be shared between cores in multi-core runs).
    res.llc_demand_accesses = hierarchy.llc_demand_accesses
    res.llc_demand_misses = hierarchy.llc_demand_misses
    res.l1d_writebacks = l1d.writebacks
    res.l2_writebacks = l2.writebacks
    res.llc_writebacks = llc.writebacks
    res.l1d_prefetch_fills = l1d.prefetch_fills
    res.l2_prefetch_fills = l2.prefetch_fills
    res.llc_prefetch_fills = llc.prefetch_fills

    for origin, target in (("l1d", res.pf_l1d), ("l2", res.pf_l2)):
        src = hierarchy.pf_stats[origin]
        target.issued = src.issued
        target.fills = src.fills
        target.useful = src.useful
        target.late = src.late
        target.useless = src.useless
        target.promoted = src.promoted
        target.dropped_translation = src.dropped_translation
        target.dropped_duplicate = src.dropped_duplicate
        target.dropped_queue_full = src.dropped_queue_full
        target.dropped_mshr_full = src.dropped_mshr_full

    res.traffic_l1d_l2 = hierarchy.traffic_l1d_l2.total
    res.traffic_l2_llc = hierarchy.traffic_l2_llc.total
    res.traffic_llc_dram = hierarchy.traffic_llc_dram.total

    d = hierarchy.dram.stats
    res.dram_reads = d.reads
    res.dram_writes = d.writes
    res.dram_row_hits = d.row_hits
    res.dram_row_misses = d.row_misses + d.row_conflicts
    res.avg_dram_read_latency = d.avg_read_latency
    return res


def make_classic_runner(
    trace: Trace,
    hierarchy: Hierarchy,
    core: CoreModel,
) -> Callable[[int, int], None]:
    """The per-record span loop: ``run_span(lo, hi)`` replays ``[lo, hi)``.

    Every caller that splits a run into spans (warmup, heartbeat,
    snapshots, lockstep compare points, native demotion) uses this one
    loop.  Splitting a span at a record boundary performs exactly the
    same operations in the same order, so sub-spans are bit-identical to
    one long span.  The hierarchy's ``demand_access`` is read once, here:
    instrumentation that wraps it must be attached before the runner is
    built.
    """
    # Hot loop: columnar iteration over the trace's arrays, with the
    # demand callback hoisted once (no closure allocation per record).
    demand = hierarchy.demand_access
    issue = core.issue_memory
    advance = core.advance_nonmem
    ips, addrs, writes, gaps, deps = trace.columns()

    l1d_stats = hierarchy.l1d.stats

    def _run_span(lo: int, hi: int) -> None:
        # The try/except is zero-cost on the no-raise path (3.11+)
        # and turns any internal failure into a typed SimulationError
        # that names the record the run died on.  The index is
        # recovered from the demand-access counter (one increment per
        # record) rather than a per-record loop counter, so the hot
        # loop is untouched.
        base = l1d_stats.demand_accesses
        try:
            for ip, vaddr, is_write, gap, dep in zip(
                ips[lo:hi], addrs[lo:hi], writes[lo:hi], gaps[lo:hi],
                deps[lo:hi],
            ):
                if gap:
                    advance(gap)
                issue(demand, ip, vaddr, is_write, dep)
        except ReproError:
            raise  # already typed (incl. SanitizerError w/ exact index)
        except Exception as exc:
            done = l1d_stats.demand_accesses - base
            raise SimulationError(
                f"simulation crashed at record ~{lo + done} "
                f"({done} accesses into span [{lo}, {hi})): "
                f"{type(exc).__name__}: {exc}",
                trace=trace.name,
                prefetcher=hierarchy.l1d_prefetcher.name,
                field="record_index",
            ) from exc

    return _run_span


def simulate(
    trace: Trace,
    l1d_prefetcher: Optional[Prefetcher] = None,
    l2_prefetcher: Optional[Prefetcher] = None,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    prewarm_tlb: bool = True,
    post_build: Optional[Callable[[Hierarchy], None]] = None,
    progress: Optional[Callable[[int], None]] = None,
    progress_every: int = 0,
    engine: str = "classic",
    native: str = "auto",
    native_demote_at: Optional[int] = None,
) -> SimResult:
    """Run one trace on one core and return its measured statistics.

    ``warmup_fraction`` of the records train caches/TLBs/prefetchers with
    statistics discarded, mirroring the paper's 50 M-instruction warmup.
    ``prewarm_tlb`` additionally installs the trace's page translations
    into the STLB up front — the steady state a 50 M-instruction warmup
    reaches for any footprint within the STLB's 8 MB reach.
    ``post_build`` is an extension hook invoked with the freshly built
    hierarchy before the run starts — used by the fault-injection
    harness (:mod:`repro.runner.faultinject`) and by instrumentation.
    ``progress``, when set, is called with the number of records consumed
    every ``progress_every`` records — the supervisor's heartbeat hook.
    It only splits the record spans (the same split the snapshot
    machinery relies on), so results are bit-identical and the default
    path (``progress=None``) is untouched.
    ``engine`` selects the inner loop: ``"classic"`` is the per-record
    loop of :func:`make_classic_runner`, ``"native"`` the C span kernel
    of :mod:`repro.native` (bit-identical; demotes span-by-span to the
    classic loop when the kernel is unavailable or instrumentation,
    subclassed structures or an unsupported prefetcher are present).
    ``native`` picks the native policy: ``"auto"`` falls back
    silently-but-recorded, ``"force"`` raises
    :class:`~repro.errors.ConfigError` when no kernel can be built.
    ``native_demote_at`` forces demotion for every span extending past
    that record index (fuzz / test hook).  For ``engine="native"`` the
    result's ``extra`` carries ``native_spans`` /
    ``native_demoted_spans`` markers (plus ``native_demoted`` /
    ``native_demotion_code`` after a fallback) — strip ``native_*`` keys
    before cross-engine dict comparisons.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}",
            trace=trace.name,
            field="warmup_fraction",
        )
    validate_engine(engine, trace.name, native)
    if len(trace) == 0:
        # An empty trace used to fall through the warmup validation
        # (guarded by n > 0) and silently return all-zero statistics;
        # surface it as the malformed-input error it is.
        raise TraceError(
            f"trace {trace.name!r} has no records",
            trace=trace.name,
        )
    config = config or default_config()
    hierarchy = build_hierarchy(config, l1d_prefetcher, l2_prefetcher)
    if post_build is not None:
        post_build(hierarchy)
    core = CoreModel(config.core)

    n = len(trace)
    if prewarm_tlb:
        hierarchy.mmu.prewarm(trace.line_addresses())
    warmup_end = int(n * warmup_fraction)
    if warmup_end >= n:
        raise ConfigError(
            "warmup_fraction leaves no measured records",
            trace=trace.name,
            field="warmup_fraction",
        )
    carryover = {"l1d": 0, "l2": 0}

    native_runner = None
    if engine == "native":
        from repro.native.runner import make_native_runner

        native_runner = make_native_runner(
            trace, hierarchy, core, native, native_demote_at,
        )
        _run_span = native_runner
    else:
        _run_span = make_classic_runner(trace, hierarchy, core)

    if progress is not None and progress_every > 0:
        # Heartbeat mode: run each span in chunks, pinging between them.
        # Splitting a span at a record boundary performs exactly the same
        # operations in the same order, so results stay bit-identical.
        def _run(lo: int, hi: int) -> None:
            i = lo
            while i < hi:
                j = min(i + progress_every, hi)
                _run_span(i, j)
                progress(j)
                i = j
    else:
        _run = _run_span

    # Suspend the cyclic garbage collector for the hot loop: the run
    # allocates steadily (cache lines, MSHR entries) and repeatedly trips
    # generational collections that find almost nothing — reference
    # counting reclaims the simulator's objects.  The few true cycles
    # (hierarchy ↔ eviction-hook closures) are picked up by the next
    # collection after gc is re-enabled.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        # The warmup → measurement boundary splits the run in two spans
        # so the measured span carries no per-record boundary check.
        _run(0, warmup_end)
        if warmup_end > 0:
            hierarchy.reset_stats()
            carryover = hierarchy.prefetched_line_counts()
            snap_i, snap_c = core.snapshot()
            start = _Snapshot(snap_i, snap_c)
        else:
            start = _Snapshot(0, 0.0)
        _run(warmup_end, n)
    finally:
        if gc_was_enabled:
            gc.enable()
    res = _collect(trace, hierarchy, core, start)
    # Prefetched lines still resident (or in flight) at the end of warmup
    # can be demanded — and credited as useful — after the stats reset.
    # The invariant checker needs this to bound useful <= issued + carry.
    res.extra["pf_carryover_l1d"] = float(carryover["l1d"])
    res.extra["pf_carryover_l2"] = float(carryover["l2"])
    if native_runner is not None:
        res.extra["native_spans"] = float(native_runner.native_spans)
        res.extra["native_demoted_spans"] = float(
            native_runner.demoted_spans)
        if native_runner.demotion_code is not None:
            res.extra["native_demoted"] = 1.0
            res.extra["native_demotion_code"] = float(
                native_runner.demotion_code)
    return res
