"""Differential lockstep oracle: optimised vs. reference engine.

Runs the same trace through two fully independent simulator instances —
the optimised engine (exact-type fast paths) and the pure-reference
engine (:func:`~repro.sanitizer.reference.to_reference`, everything via
virtual dispatch) — one record at a time, comparing observable state
after every access:

* the access's issue cycle (core scheduling),
* the latency the hierarchy reported,
* the core's cycle clock (exact float equality — both engines perform
  the same arithmetic in the same order, so any drift is a real bug),

plus a structural digest (cache presence indexes, TLB columns with
their LRU stamps, the page table and its allocation counter, DRAM bank
and queue state, MSHR entry sets, PQ service times, per-cache
counters, Berti's delta and history tables in a view that reads
the kernelized and the reference tables alike, and IPCP's tables) every
``digest_every`` accesses, and a full
:class:`~repro.simulator.stats.SimResult` comparison at the end.
The first mismatch is reported with its access index, so a fast-path
bug is localised to the exact record that exposed it.

``seed_divergence=N`` perturbs the optimised side's reported latency at
access ``N`` (by one cycle, after the hierarchy has run), which must be
detected *at* ``N`` — the self-test that the oracle actually looks.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.berti import BertiPrefetcher
from repro.core.config import BertiConfig
from repro.core.reference_tables import (
    ReferenceDeltaTable,
    ReferenceHistoryTable,
)
from repro.memory.hierarchy import Hierarchy
from repro.prefetchers.ipcp import (
    CLOCK,
    CS_THRESHOLD,
    REGIONS,
    IPCPPrefetcher,
)
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer.reference import to_reference
from repro.simulator.config import SystemConfig, default_config
from repro.simulator.engine import Run, simulate, span_cuts
from repro.simulator.multicore import simulate_multicore
from repro.workloads.trace import Trace

#: Records between :func:`lockstep_engines` compare points when its
#: ``chunk_size`` is 0.
DEFAULT_CHUNK_SIZE = 1024


@dataclass
class LockstepReport:
    """Outcome of one differential run."""

    trace: str
    l1d: str
    l2: str
    accesses: int
    ok: bool
    #: Access index of the first divergence; ``accesses`` means the
    #: per-access observables agreed but the final results did not.
    diverged_at: Optional[int] = None
    field: Optional[str] = None
    optimized: Any = None
    reference: Any = None
    #: What was compared: ``"reference"`` pits the optimized hierarchy
    #: against the pure-virtual-dispatch one; ``"engines"`` pits the
    #: native engine against the classic loop (same hierarchy type).
    kind: str = "reference"
    #: What the native side ran (``"engines"`` kind only): ``"native"``,
    #: or ``"native[demoted]"`` when its guards sent spans to the
    #: classic loop.
    engine: str = "native"

    def describe(self) -> str:
        a, b = ((self.engine, "classic") if self.kind == "engines"
                else ("optimized", "reference"))
        tag = f"{self.trace} l1d={self.l1d} l2={self.l2}"
        if self.ok:
            return (f"OK {tag}: {self.accesses} accesses bit-identical "
                    f"between {a} and {b} engines")
        where = ("final result" if self.diverged_at == self.accesses
                 else f"access {self.diverged_at}")
        return (f"DIVERGED {tag} at {where}: {self.field} "
                f"{a}={self.optimized!r} {b}={self.reference!r}")


def _mshr_digest(mshr) -> Dict[int, Tuple[int, int, bool, int]]:
    return {
        line: (e.alloc_cycle, e.ready_cycle, e.is_prefetch, e.merged_demands)
        for line, e in mshr._entries.items()
    }


def _tlb_digest(tlb) -> Tuple[Tuple[Any, ...], Tuple[int, ...]]:
    """Each way's ``(vpage, ppage, LRU age)``, and the set clocks."""
    lru = tlb.policy
    return (tuple(zip(tlb.vpages, tlb.ppages, lru._age)), tuple(lru._clock))


def _delta_table_digest(dt) -> Tuple[Any, ...]:
    """Each entry's ``(valid, tag, counter, order, warmed, slots)`` with
    its dense ``(delta, coverage, status)`` slots, then the FIFO pointer
    and clock and the two counters: the same view of the flat columns
    and of :class:`ReferenceDeltaTable`'s slot objects."""
    if isinstance(dt, ReferenceDeltaTable):
        entries = tuple(
            (e.valid, e.tag, e.counter, e.order, e.warmed_up,
             tuple((s.delta, s.coverage, s.status)
                   for s in e.slots if s.valid))
            for e in dt._entries
        )
    else:
        per = dt.config.deltas_per_entry
        entries = tuple(
            (bool(dt._valid[e]), dt._tags[e], dt._counters[e],
             dt._orders[e], bool(dt._warmed[e]),
             tuple(zip(dt._slot_delta[b:b + n], dt._slot_cov[b:b + n],
                       dt._slot_status[b:b + n])))
            for e, (b, n) in enumerate(zip(
                range(0, len(dt._slot_delta), per), dt._slot_count))
        )
    return (entries, dt._fifo_ptr, dt._fifo_clock, dt.phase_completions,
            dt.discarded_deltas)


def _history_digest(ht) -> Tuple[Any, ...]:
    """Each way's ``(tag, line, ts, order)`` (``None`` when empty), the
    per-set FIFO pointers and clocks and the two counters: the same view
    of the flat rings and of :class:`ReferenceHistoryTable`'s rows."""
    if isinstance(ht, ReferenceHistoryTable):
        ways = tuple(row for rows in ht._sets for row in rows)
    else:
        ways = tuple(
            None if tag < 0 else (tag, line, ts, order)
            for tag, line, ts, order in zip(ht._tags, ht._lines, ht._tss,
                                            ht._orders)
        )
    return (ways, tuple(ht._fifo_ptr), tuple(ht._fifo_clock), ht.inserts,
            ht.searches)


def _ipcp_digest(pf: IPCPPrefetcher) -> Tuple[Any, ...]:
    """Each IP-table entry's ``(valid, tag, last line, stride, CS
    confidence, signature)``, each CSPT slot's ``(stride, confidence)``,
    the live region rows as a map region -> ``(bitmap, last line,
    direction)`` (so the rows' order does not matter) and the clock."""
    live = pf._scalars[REGIONS]
    regions = {
        region: (bitmap, last, direction)
        for region, bitmap, last, direction in zip(
            pf._region[:live], pf._bitmap, pf._last, pf._direction)
    }
    return (
        tuple(zip(pf._valid, pf._tags, pf._last_line, pf._stride,
                  pf._cs_conf, pf._signature)),
        tuple(zip(pf._cspt_stride, pf._cspt_conf)),
        regions,
        pf._scalars[CLOCK],
    )


def _state_digest(h: Hierarchy) -> Dict[str, Any]:
    """Comparable structural summary; read-only but for rebuilding a
    cache index a native span dropped."""
    mmu, dram = h.mmu, h.dram
    pf = h.l1d_prefetcher
    berti = isinstance(pf, BertiPrefetcher)
    ipcp = isinstance(pf, IPCPPrefetcher)
    return {
        "l1d_where": dict(h.l1d.index()),
        "l2_where": dict(h.l2.index()),
        "llc_where": dict(h.llc.index()),
        "dtlb": _tlb_digest(mmu.dtlb),
        "stlb": _tlb_digest(mmu.stlb),
        "page_table": tuple(mmu._page_table.items()),
        "next_ppage": mmu._next_ppage,
        "dram": (tuple((b.open_row, b.busy_until) for b in dram._banks),
                 dram._bus_free, tuple(dram._pending_writes),
                 astuple(dram.stats)),
        "l1d_mshr": _mshr_digest(h.l1d_mshr),
        "l2_mshr": _mshr_digest(h.l2_mshr),
        "llc_mshr": _mshr_digest(h.llc_mshr),
        "pq": tuple(h.pq._service_times),
        "l1d_stats": astuple(h.l1d.stats),
        "l2_stats": astuple(h.l2.stats),
        "llc_stats": astuple(h.llc.stats),
        "pf_l1d": astuple(h.pf_stats["l1d"]),
        "pf_l2": astuple(h.pf_stats["l2"]),
        "berti_deltas": _delta_table_digest(pf.deltas) if berti else None,
        "berti_history": _history_digest(pf.history) if berti else None,
        "ipcp": _ipcp_digest(pf) if ipcp else None,
    }


def _first_diff(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, Any, Any]:
    for key in a:
        if a[key] != b.get(key):
            return key, a[key], b.get(key)
    for key in b:
        if key not in a:
            return key, None, b[key]
    return "?", None, None


def lockstep_run(
    trace: Trace,
    l1d: str = "none",
    l2: str = "none",
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    prewarm_tlb: bool = True,
    digest_every: int = 256,
    seed_divergence: Optional[int] = None,
    make=make_prefetcher,
) -> LockstepReport:
    """Drive both engines through ``trace`` and report the first mismatch.

    Prefetchers are named (registry), not passed as objects: each side
    needs its own independent instance, and registry construction is
    deterministic (seeded RNGs), so both sides start identical.  ``make``
    swaps the registry factory for a custom one (the fuzzer passes a
    closure over an adversarial :class:`BertiConfig`); it must return a
    fresh, deterministic instance per call.
    """
    config = config or default_config()

    def side(reference: bool, perturb_at: Optional[int] = None):
        """A classic :class:`Run` whose demand path records the latest
        access's ``(issue cycle, latency)`` in the returned one-slot
        list; ``perturb_at`` adds one cycle to that access's latency
        (after the hierarchy has run)."""
        seen = [(-1, -1)]
        accesses = [0]

        def probe(h: Hierarchy) -> None:
            if reference:
                to_reference(h)
            inner = h.demand_access

            def capture(ip: int, vaddr: int, now: int,
                        is_write: bool = False) -> int:
                latency = inner(ip, vaddr, now, is_write)
                if accesses[0] == perturb_at:
                    latency += 1
                accesses[0] += 1
                seen[0] = (now, latency)
                return latency

            # Instance attribute shadowing the method: the span loop
            # calls this wrapper, the hierarchy underneath is untouched.
            h.demand_access = capture  # type: ignore[method-assign]

        run = Run.build(trace, make(l1d), make(l2), config, warmup_fraction,
                        prewarm_tlb, probe).use_engine()
        return run, seen

    opt, opt_seen = side(reference=False, perturb_at=seed_divergence)
    ref, ref_seen = side(reference=True)
    n = len(trace)

    def report(i: int, field: str, a: Any, b: Any) -> LockstepReport:
        return LockstepReport(
            trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=False,
            diverged_at=i, field=field, optimized=a, reference=b,
        )

    for i in range(n):
        opt.span(i, i + 1)
        ref.span(i, i + 1)
        (t_opt, lat_opt), (t_ref, lat_ref) = opt_seen[0], ref_seen[0]
        if t_opt != t_ref:
            return report(i, "issue_cycle", t_opt, t_ref)
        if lat_opt != lat_ref:
            return report(i, "latency", lat_opt, lat_ref)
        if opt.core.cycles != ref.core.cycles:
            return report(i, "core_cycles", opt.core.cycles, ref.core.cycles)
        if digest_every and (i + 1) % digest_every == 0:
            d_opt = _state_digest(opt.hierarchy)
            d_ref = _state_digest(ref.hierarchy)
            if d_opt != d_ref:
                key, a, b = _first_diff(d_opt, d_ref)
                return report(i, f"state:{key}", a, b)
        if i + 1 == opt.warmup_end:
            # After the digest, which must see the last warmup window's
            # statistics before the reset discards them.
            opt.end_warmup()
            ref.end_warmup()
            if opt.carryover != ref.carryover:
                return report(i + 1, "pf_carryover",
                              dict(opt.carryover), dict(ref.carryover))

    res_opt = opt.result().to_dict()
    res_ref = ref.result().to_dict()
    if res_opt != res_ref:
        key, a, b = _first_diff(res_opt, res_ref)
        return report(n, f"result:{key}", a, b)
    return LockstepReport(
        trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=True,
    )


def lockstep_engines(
    trace: Trace,
    l1d: str = "none",
    l2: str = "none",
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    prewarm_tlb: bool = True,
    chunk_size: int = 0,
    localize: bool = True,
    seed_divergence: Optional[int] = None,
    make=make_prefetcher,
) -> LockstepReport:
    """Differential check of the native engine against the classic loop.

    Both sides get independent, identically-seeded hierarchies (stock
    types, so the native side is *not* demoted the way the capture
    wrappers of :func:`lockstep_run` would demote it).  The classic side
    runs :func:`~repro.simulator.engine.make_classic_runner`; the native
    side runs :func:`repro.native.runner.make_native_runner` one chunk
    of ``chunk_size`` records (0 → :data:`DEFAULT_CHUNK_SIZE`) at a
    time, and the structural digest plus the core clock are compared at
    every chunk boundary — the native runner imports its state back into
    the Python objects there, so the digests are directly comparable.
    On a mismatch with ``localize=True`` the whole run is repeated at
    ``chunk_size=1``, which pins the divergence to the exact access; the
    final :class:`~repro.simulator.stats.SimResult` dicts are compared
    too.

    The oracle is strict about what it compared: if the native guards
    say the kernel should have engaged but spans still demoted (no
    compiler), the report fails with ``field="native_demotion"`` rather
    than silently passing a classic-vs-classic comparison off as a
    native one — callers that want a graceful skip check
    :func:`repro.native.build.kernel_available` first.  Demotions the
    guards themselves mandate (unsupported prefetcher, non-stock parts)
    still pass, labelled ``native[demoted]``.

    ``seed_divergence=N`` perturbs the *classic* side's latency on the
    first read at or after access ``N`` — a wrapper on the classic
    hierarchy only, so the native side keeps its kernel (wrapping the
    native side would demote it and silently defeat the plant).  The
    perturbation is larger than any real memory latency so the core's
    retire-frontier max cannot absorb it, and it skips writes, whose
    latency never reaches the clock.
    """
    from repro.native.runner import native_mode

    config = config or default_config()
    cs = chunk_size or DEFAULT_CHUNK_SIZE

    def plant(h: Hierarchy) -> None:
        inner_demand = h.demand_access
        counter = [0, False]  # access index, plant already fired

        def perturbed(ip: int, vaddr: int, now: int,
                      is_write: bool = False) -> int:
            latency = inner_demand(ip, vaddr, now, is_write)
            if (not counter[1] and counter[0] >= seed_divergence
                    and not is_write):
                latency += 100003  # prime, >> any real memory latency
                counter[1] = True
            counter[0] += 1
            return latency

        h.demand_access = perturbed  # type: ignore[method-assign]

    def side(engine: str, post_build=None) -> Run:
        return Run.build(trace, make(l1d), make(l2), config,
                         warmup_fraction, prewarm_tlb,
                         post_build).use_engine(engine)

    classic = side("classic", plant if seed_divergence is not None else None)
    native = side("native")
    n = len(trace)

    def report(mark: int, field: str, a: Any, b: Any) -> LockstepReport:
        if localize and cs > 1:
            # Re-run the whole comparison access-at-a-time: every record
            # becomes a chunk boundary, so the first differing digest
            # names the exact access that diverged.
            return lockstep_engines(
                trace, l1d, l2, config=config,
                warmup_fraction=warmup_fraction, prewarm_tlb=prewarm_tlb,
                chunk_size=1, localize=False,
                seed_divergence=seed_divergence, make=make,
            )
        at = mark - 1 if cs == 1 and mark < n else mark
        return LockstepReport(
            trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=False,
            diverged_at=at, field=field, optimized=a, reference=b,
            kind="engines",
        )

    cc, cn = classic.core, native.core
    warmup_end = classic.warmup_end
    for mark in span_cuts(n, warmup_end, multiples_of=cs):
        classic.advance(mark)
        native.advance(mark)
        if mark == warmup_end and native.carryover != classic.carryover:
            return report(mark, "pf_carryover",
                          dict(native.carryover), dict(classic.carryover))
        if (cn.instructions, cn.cycles) != (cc.instructions, cc.cycles):
            return report(mark, "core_clock",
                          (cn.instructions, cn.cycles),
                          (cc.instructions, cc.cycles))
        d_c = _state_digest(classic.hierarchy)
        d_n = _state_digest(native.hierarchy)
        if d_n != d_c:
            key, a, b = _first_diff(d_n, d_c)
            return report(mark, f"state:{key}", a, b)

    res_n = native.result().to_dict()
    res_c = classic.result().to_dict()
    if res_n != res_c:
        key, a, b = _first_diff(res_n, res_c)
        return report(n, f"result:{key}", a, b)
    engine_label = "native"
    if native.span.demoted_spans:
        if native_mode(native.hierarchy, cn)[0]:
            # The guards say native should have engaged, yet spans fell
            # back (e.g. no compiler): refuse to pass a classic run off
            # as a native validation.
            return LockstepReport(
                trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=False,
                diverged_at=n, field="native_demotion",
                optimized=native.span.demotion_detail,
                reference=None, kind="engines",
            )
        # Expected demotion (unsupported prefetcher etc.): the run is a
        # valid correctness check, just label what actually executed.
        engine_label = "native[demoted]"
    return LockstepReport(
        trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=True,
        kind="engines", engine=engine_label,
    )


def lockstep_multicore(
    traces: Sequence[Trace],
    l1ds: Sequence[str],
    l2s: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
) -> LockstepReport:
    """Differential check of a multicore mix (final per-core results).

    The multicore replay loop interleaves cores at chunk granularity, so
    per-access lockstep would have to re-implement it; instead the whole
    mix is run once per engine and the per-core result dicts compared —
    any fast-path divergence in the shared-LLC/DRAM machinery surfaces
    here with the core index and first differing counter.
    """
    config = config or default_config()
    l2s = list(l2s or ["none"] * len(traces))

    def run(reference: bool) -> List[Dict[str, Any]]:
        results = simulate_multicore(
            traces,
            [make_prefetcher(p) for p in l1ds],
            [make_prefetcher(p) for p in l2s],
            config=config,
            warmup_fraction=warmup_fraction,
            post_build=to_reference if reference else None,
        )
        return [r.to_dict() for r in results]

    name = "+".join(t.name for t in traces)
    tag_l1d = ",".join(l1ds)
    tag_l2 = ",".join(l2s)
    res_opt = run(False)
    res_ref = run(True)
    for cid, (a, b) in enumerate(zip(res_opt, res_ref)):
        if a != b:
            key, va, vb = _first_diff(a, b)
            return LockstepReport(
                trace=name, l1d=tag_l1d, l2=tag_l2,
                accesses=sum(len(t) for t in traces), ok=False,
                diverged_at=None, field=f"core{cid}:{key}",
                optimized=va, reference=vb,
            )
    return LockstepReport(
        trace=name, l1d=tag_l1d, l2=tag_l2,
        accesses=sum(len(t) for t in traces), ok=True,
    )


def quick_trace(records: int = 1200, name: str = "sancheck_quick") -> Trace:
    """A small, RNG-free synthetic mix for ``repro sancheck --quick``.

    Deliberately built like the golden synthetic trace (strides, a
    repeating delta pattern, a write-heavy stream) so it exercises hits,
    misses, writebacks, Berti delta learning, and prefetch issue — but
    short enough that running it twice per registry prefetcher stays in
    CI-smoke territory.
    """
    from repro.workloads.synthetic import pattern_stream, strided_stream
    from repro.workloads.trace import interleave

    per = max(1, records // 3)
    a = Trace("a")
    a.extend(strided_stream(0x100, 0x10000, 1, per, gap=6))
    b = Trace("b")
    b.extend(pattern_stream(0x200, 0x400000, [1, 3, 1, 3], per, gap=4))
    c = Trace("c")
    c.extend(strided_stream(0x300, 0x800000, 2, per, gap=8, is_write=True))
    out = interleave([a, b, c], name, chunk=2)
    out.suite = "synthetic"
    return out


def small_tlb_config() -> SystemConfig:
    """A 4-entry 2-way dTLB and an 8-entry 2-way STLB on the default
    system: from cold TLBs, :func:`quick_trace` hits both, evicts from
    both and re-walks evicted pages (the ``sancheck --quick`` leg that
    covers what the Table II STLB never does on these traces)."""
    return replace(default_config(), dtlb_entries=4, dtlb_ways=2,
                   stlb_entries=8, stlb_ways=2)


def small_queue_config() -> SystemConfig:
    """A 4-entry L1D MSHR, a 4-entry L2 MSHR and a 2-entry PQ on the
    default system: on ``mcf_s-1554B`` (scale 0.1) Berti and IPCP drive
    every drop branch of the prefetch issue tail, and Berti both of its
    fill levels (the ``sancheck --quick`` leg :func:`queue_drops`
    counts).  No other leg shrinks the PQ or an MSHR."""
    return replace(default_config(), l1d_mshr=4, l2_mshr=4, pq_size=2)


#: What :func:`queue_drops` counts, in report order.
QUEUE_DROPS = ("dropped_queue_full", "dropped_mshr_full",
               "dropped_duplicate", "dropped_translation", "l1d_fills",
               "l2_only_fills")


def queue_drops(trace: Trace, l1d: str,
                config: Optional[SystemConfig] = None) -> Dict[str, int]:
    """The L1D prefetcher's :data:`QUEUE_DROPS` when registry prefetcher
    ``l1d`` runs ``trace`` on ``config`` (default
    :func:`small_queue_config`; classic engine, default warmup): its
    drop counters, its fills into the L1D, and its fills that stopped
    at a lower level (``fills - l1d_prefetch_fills``).  The coverage
    report of the small-queue ``sancheck`` leg."""
    res = simulate(trace, l1d_prefetcher=make_prefetcher(l1d),
                   config=config or small_queue_config())
    pf = res.pf_l1d
    return {
        "dropped_queue_full": pf.dropped_queue_full,
        "dropped_mshr_full": pf.dropped_mshr_full,
        "dropped_duplicate": pf.dropped_duplicate,
        "dropped_translation": pf.dropped_translation,
        "l1d_fills": res.l1d_prefetch_fills,
        "l2_only_fills": pf.fills - res.l1d_prefetch_fills,
    }


def small_ipcp() -> IPCPPrefetcher:
    """A 4-entry IP table and an 8-slot CSPT: on :func:`ipcp_trace`
    every class fires and the tables churn (the ``sancheck --quick``
    leg :func:`ipcp_events` counts).  :func:`quick_trace` covers much
    less of IPCP: its three IPs (0x100, 0x200, 0x300) share IP-table
    entry 0 at any power-of-two table size up to 256 and evict each
    other, so IPCP there never reaches CS, CPLX, a region-monitor
    epoch clear or a negative target."""
    return IPCPPrefetcher(ip_entries=4, cspt_entries=8)


def small_ipcp_factory(name: str):
    """A registry-compatible factory that builds :func:`small_ipcp`
    for ``"ipcp"``."""
    return small_ipcp() if name == "ipcp" else make_prefetcher(name)


def ipcp_trace(records: int = 1200,
               name: str = "sancheck_small_ipcp") -> Trace:
    """A seeded many-IP, irregular mix for :func:`small_ipcp`, one
    record per role in turn:

    * IP-table entry 0 streams with a constant stride (CS);
    * entry 1 repeats +1, +3 (CPLX, which CS never claims);
    * entry 2 descends by 2 lines towards line 0 and restarts at line
      20, so CS and GS suggest negative targets;
    * entry 3 is shared by 48 IPs (each switch replaces its tag) that
      either jump anywhere in 2**24 lines (new GS regions, so the
      region monitor's epochs reset, and CSPT strides reset) or touch
      a 32-line window that moves now and then (dense: GS fires; sparse
      early on: next-line).
    """
    import random

    rng = random.Random(1209)
    out = Trace(name)
    stride_line, pattern_line, down = 1 << 14, 1 << 16, 20
    window = 1 << 12
    for i in range(records):
        role = i % 4
        if role == 0:
            ip, line = 0x400, stride_line
            stride_line += 2
        elif role == 1:
            ip, line = 0x401, pattern_line
            pattern_line += 1 if (i // 4) % 2 == 0 else 3
        elif role == 2:
            ip, line = 0x402, down
            down = down - 2 if down > 2 else 20
        else:
            ip = 0x403 + 4 * rng.randrange(48)
            if rng.random() < 0.5:
                line = rng.randrange(1 << 24)
            else:
                if rng.random() < 0.02:
                    window = rng.randrange(1 << 19) * 32
                line = window + rng.randrange(32)
        out.append(ip, line << 6, rng.random() < 0.25, rng.randrange(6), 0)
    out.suite = "synthetic"
    return out


#: What :func:`ipcp_events` counts, in report order.
IPCP_EVENTS = ("ip_tag_replace", "cspt_reset", "region_clear", "cs",
               "cplx", "gs", "next_line", "negative_target")


class _IPCPEventProbe(IPCPPrefetcher):
    """An IPCP that counts :data:`IPCP_EVENTS` from outside the
    algorithm: the table state around each ``on_access`` and which of
    ``_cplx_chain`` / ``_gs`` produced its suggestions."""

    name = "ipcp"

    def __init__(self, pf: IPCPPrefetcher) -> None:
        super().__init__(pf.ip_entries, pf.cspt_entries, pf.cs_degree,
                         pf.cplx_degree, pf.gs_degree, pf.region_lines)
        self.events = dict.fromkeys(IPCP_EVENTS, 0)
        self._fired = ""

    def on_access(self, access):
        events = self.events
        n = self.ip_entries
        e = access.ip % n
        if self._valid[e] and self._tags[e] != (access.ip // n) & 0x3FF:
            events["ip_tag_replace"] += 1
        cspt = bytes(self._cspt_stride)
        self._fired = ""
        requests = super().on_access(access)
        if bytes(self._cspt_stride) != cspt:
            events["cspt_reset"] += 1
        if not self._fired:
            self._fired = ("cs" if self._cs_conf[e] >= CS_THRESHOLD
                           and self._stride[e] else "next_line")
        events[self._fired] += 1
        events["negative_target"] += sum(r.line < 0 for r in requests)
        return requests

    def _cplx_chain(self, signature, line):
        requests = super()._cplx_chain(signature, line)
        if requests:
            self._fired = "cplx"
        return requests

    def _gs(self, line):
        live = self._scalars[REGIONS]
        requests = super()._gs(line)
        if self._scalars[REGIONS] < live:
            self.events["region_clear"] += 1
        if requests:
            self._fired = "gs"
        return requests


def ipcp_events(trace: Trace, pf: IPCPPrefetcher,
                config: Optional[SystemConfig] = None) -> Dict[str, int]:
    """How often each of :data:`IPCP_EVENTS` fires when a fresh copy of
    ``pf``'s geometry runs ``trace`` (classic engine, warmup included):
    the coverage report of the small-IPCP ``sancheck`` leg."""
    probe = _IPCPEventProbe(pf)
    Run.build(trace, probe, None, config or default_config()).use_engine(
        "classic").advance(len(trace))
    return probe.events


def small_berti_config() -> BertiConfig:
    """A 4-entry delta table of 4 slots whose phase closes every 4
    searches: on :func:`quick_trace` its entries fill, so nearly every
    unseen delta elects a victim and phases close often (the ``sancheck
    --quick`` leg that covers the victim election the 16 x 16 table
    rarely runs on these traces)."""
    return BertiConfig(delta_table_entries=4, deltas_per_entry=4,
                       counter_max=4)
