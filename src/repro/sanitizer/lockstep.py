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

plus a structural digest (cache presence indexes, MSHR entry sets, PQ
service times, per-cache counters) every ``digest_every`` accesses, and
a full :class:`~repro.simulator.stats.SimResult` comparison at the end.
The first mismatch is reported with its access index, so a fast-path
bug is localised to the exact record that exposed it.

``seed_divergence=N`` perturbs the optimised side's reported latency at
access ``N`` (by one cycle, after the hierarchy has run), which must be
detected *at* ``N`` — the self-test that the oracle actually looks.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cpu.core_model import CoreModel
from repro.memory.hierarchy import Hierarchy
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer.reference import to_reference
from repro.simulator.config import SystemConfig, default_config
from repro.simulator.engine import (
    _collect,
    _Snapshot,
    build_hierarchy,
    make_classic_runner,
)
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


class _Side:
    """One engine instance being driven in lockstep."""

    def __init__(
        self,
        trace: Trace,
        l1d: str,
        l2: str,
        config: SystemConfig,
        prewarm_tlb: bool,
        reference: bool,
        make=make_prefetcher,
    ) -> None:
        self.hierarchy = build_hierarchy(config, make(l1d), make(l2))
        if reference:
            to_reference(self.hierarchy)
        self.core = CoreModel(config.core)
        if prewarm_tlb:
            self.hierarchy.mmu.prewarm(trace.line_addresses())
        self.last_latency = -1
        inner = self.hierarchy.demand_access

        def capture(ip: int, vaddr: int, now: int,
                    is_write: bool = False) -> int:
            latency = inner(ip, vaddr, now, is_write)
            self.last_latency = latency
            return latency

        # Instance attribute shadowing the method: the core calls this
        # wrapper, the hierarchy underneath is untouched.
        self.hierarchy.demand_access = capture  # type: ignore[method-assign]
        self.demand = capture
        self.start = _Snapshot(0, 0.0)
        self.carryover = {"l1d": 0, "l2": 0}

    def warmup_boundary(self) -> None:
        self.hierarchy.reset_stats()
        self.carryover = self.hierarchy.prefetched_line_counts()
        self.start = _Snapshot(*self.core.snapshot())

    def result(self, trace: Trace) -> Dict[str, Any]:
        res = _collect(trace, self.hierarchy, self.core, self.start)
        res.extra["pf_carryover_l1d"] = float(self.carryover["l1d"])
        res.extra["pf_carryover_l2"] = float(self.carryover["l2"])
        return res.to_dict()


def _mshr_digest(mshr) -> Dict[int, Tuple[int, int, bool, int]]:
    return {
        line: (e.alloc_cycle, e.ready_cycle, e.is_prefetch, e.merged_demands)
        for line, e in mshr._entries.items()
    }


def _state_digest(h: Hierarchy) -> Dict[str, Any]:
    """Comparable structural summary; strictly read-only."""
    return {
        "l1d_where": dict(h.l1d._where),
        "l2_where": dict(h.l2._where),
        "llc_where": dict(h.llc._where),
        "l1d_mshr": _mshr_digest(h.l1d_mshr),
        "l2_mshr": _mshr_digest(h.l2_mshr),
        "llc_mshr": _mshr_digest(h.llc_mshr),
        "pq": tuple(h.pq._service_times),
        "l1d_stats": astuple(h.l1d.stats),
        "l2_stats": astuple(h.l2.stats),
        "llc_stats": astuple(h.llc.stats),
        "pf_l1d": astuple(h.pf_stats["l1d"]),
        "pf_l2": astuple(h.pf_stats["l2"]),
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
    opt = _Side(trace, l1d, l2, config, prewarm_tlb, reference=False,
                make=make)
    ref = _Side(trace, l1d, l2, config, prewarm_tlb, reference=True,
                make=make)

    if seed_divergence is not None:
        inner = opt.demand

        def perturbed(ip: int, vaddr: int, now: int,
                      is_write: bool = False) -> int:
            latency = inner(ip, vaddr, now, is_write)
            if opt_counter[0] == seed_divergence:
                latency += 1
                opt.last_latency = latency
            opt_counter[0] += 1
            return latency

        opt_counter = [0]
        opt.hierarchy.demand_access = perturbed  # type: ignore[method-assign]
        opt.demand = perturbed

    ips, addrs, writes, gaps, deps = trace.columns()
    n = len(trace)
    warmup_end = int(n * warmup_fraction)

    def report(i: int, field: str, a: Any, b: Any) -> LockstepReport:
        return LockstepReport(
            trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=False,
            diverged_at=i, field=field, optimized=a, reference=b,
        )

    for i in range(n):
        if i == warmup_end and warmup_end > 0:
            opt.warmup_boundary()
            ref.warmup_boundary()
            if opt.carryover != ref.carryover:
                return report(i, "pf_carryover",
                              dict(opt.carryover), dict(ref.carryover))
        ip = ips[i]
        vaddr = addrs[i]
        is_write = writes[i]
        gap = gaps[i]
        dep = deps[i]
        if gap:
            opt.core.advance_nonmem(gap)
            ref.core.advance_nonmem(gap)
        t_opt = opt.core.issue_memory(opt.demand, ip, vaddr, is_write, dep)
        t_ref = ref.core.issue_memory(ref.demand, ip, vaddr, is_write, dep)
        if t_opt != t_ref:
            return report(i, "issue_cycle", t_opt, t_ref)
        if opt.last_latency != ref.last_latency:
            return report(i, "latency", opt.last_latency, ref.last_latency)
        if opt.core.cycles != ref.core.cycles:
            return report(i, "core_cycles", opt.core.cycles, ref.core.cycles)
        if digest_every and (i + 1) % digest_every == 0:
            d_opt = _state_digest(opt.hierarchy)
            d_ref = _state_digest(ref.hierarchy)
            if d_opt != d_ref:
                key, a, b = _first_diff(d_opt, d_ref)
                return report(i, f"state:{key}", a, b)

    res_opt = opt.result(trace)
    res_ref = ref.result(trace)
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
    from repro.native.runner import make_native_runner, native_mode

    config = config or default_config()

    def build() -> Tuple[Hierarchy, CoreModel]:
        h = build_hierarchy(config, make(l1d), make(l2))
        core = CoreModel(config.core)
        if prewarm_tlb:
            h.mmu.prewarm(trace.line_addresses())
        return h, core

    hc, cc = build()
    hn, cn = build()
    run_native = make_native_runner(trace, hn, cn)
    cs = chunk_size or DEFAULT_CHUNK_SIZE

    if seed_divergence is not None:
        inner_demand = hc.demand_access
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

        hc.demand_access = perturbed  # type: ignore[method-assign]
    run_classic = make_classic_runner(trace, hc, cc)

    n = len(trace)
    warmup_end = int(n * warmup_fraction)

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

    marks = set(range(cs, n, cs))
    if warmup_end > 0:
        marks.add(warmup_end)
    marks.add(n)
    start_c = start_n = _Snapshot(0, 0.0)
    carry_c = carry_n = {"l1d": 0, "l2": 0}
    i = 0
    for mark in sorted(marks):
        run_classic(i, mark)
        run_native(i, mark)
        i = mark
        if mark == warmup_end and warmup_end > 0:
            hc.reset_stats()
            hn.reset_stats()
            carry_c = hc.prefetched_line_counts()
            carry_n = hn.prefetched_line_counts()
            start_c = _Snapshot(*cc.snapshot())
            start_n = _Snapshot(*cn.snapshot())
            if carry_c != carry_n:
                return report(mark, "pf_carryover",
                              dict(carry_n), dict(carry_c))
        if (cn.instructions, cn.cycles) != (cc.instructions, cc.cycles):
            return report(mark, "core_clock",
                          (cn.instructions, cn.cycles),
                          (cc.instructions, cc.cycles))
        d_c = _state_digest(hc)
        d_n = _state_digest(hn)
        if d_n != d_c:
            key, a, b = _first_diff(d_n, d_c)
            return report(mark, f"state:{key}", a, b)

    def final(h: Hierarchy, core: CoreModel, start, carry) -> Dict[str, Any]:
        res = _collect(trace, h, core, start)
        res.extra["pf_carryover_l1d"] = float(carry["l1d"])
        res.extra["pf_carryover_l2"] = float(carry["l2"])
        return res.to_dict()

    res_n = final(hn, cn, start_n, carry_n)
    res_c = final(hc, cc, start_c, carry_c)
    if res_n != res_c:
        key, a, b = _first_diff(res_n, res_c)
        return report(n, f"result:{key}", a, b)
    engine_label = "native"
    if run_native.demoted_spans:
        if native_mode(hn, cn)[0]:
            # The guards say native should have engaged, yet spans fell
            # back (e.g. no compiler): refuse to pass a classic run off
            # as a native validation.
            return LockstepReport(
                trace=trace.name, l1d=l1d, l2=l2, accesses=n, ok=False,
                diverged_at=n, field="native_demotion",
                optimized=run_native.demotion_detail,
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
