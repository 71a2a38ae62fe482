"""Multi-core simulation (paper §IV-I).

Four cores, each with private L1D/L2 and its own MMU/address space,
sharing one LLC and one DRAM channel (Table II: one channel per four
cores, 2 MB LLC per core).  Each core replays its trace until every core
has executed its instruction budget, as in the paper's methodology.

Cores are interleaved at a fixed record granularity and share the DRAM's
bank/bus state, so cross-core bandwidth contention — the effect the paper
credits for Berti's larger multi-core wins — emerges naturally.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cpu.core_model import CoreModel
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import Hierarchy
from repro.prefetchers.base import Prefetcher
from repro.simulator.config import SystemConfig, default_config
from repro.simulator.engine import Run, _Snapshot, _collect, build_hierarchy
from repro.simulator.stats import SimResult
from repro.workloads.trace import Trace


def simulate_multicore(
    traces: Sequence[Trace],
    l1d_prefetchers: Optional[Sequence[Optional[Prefetcher]]] = None,
    l2_prefetchers: Optional[Sequence[Optional[Prefetcher]]] = None,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    prewarm_tlb: bool = True,
    post_build: Optional[Callable[[Hierarchy], None]] = None,
) -> List[SimResult]:
    """Run one trace per core on a shared-LLC/DRAM system.

    Returns one :class:`SimResult` per core, measured over each core's
    post-warmup records (a finished core keeps replaying its trace so
    contention persists until all cores complete, per the paper).
    ``post_build`` is invoked once per core hierarchy right after it is
    built (same contract as :func:`~repro.simulator.engine.simulate`);
    hooks touching the shared LLC/DRAM must be idempotent, since those
    objects appear in every core's hierarchy.
    Every trace and ``warmup_fraction`` pass the same input check as
    ``simulate`` (:meth:`~repro.simulator.engine.Run.check`).

    There is no engine choice here: the replay loop interleaves cores
    every ``CHUNK`` records, and each core's warmup reset and
    end-of-trace collection fire mid-interleave, so it stays a
    per-access Python loop.
    """
    warmup_end = [Run.check(trace, warmup_fraction) for trace in traces]
    config = config or default_config()
    num_cores = len(traces)
    config_mc = config
    if config.num_cores != num_cores:
        from dataclasses import replace
        config_mc = replace(config, num_cores=num_cores)

    llc = Cache(
        "llc",
        config_mc.scaled_llc_size(),
        config_mc.llc.ways,
        config_mc.llc.latency,
        replacement=config_mc.llc.replacement,
    )
    dram = DRAM(config_mc.dram)

    l1d_prefetchers = list(l1d_prefetchers or [None] * num_cores)
    l2_prefetchers = list(l2_prefetchers or [None] * num_cores)

    hierarchies = []
    cores = []
    for cid in range(num_cores):
        h = build_hierarchy(
            config_mc,
            l1d_prefetchers[cid],
            l2_prefetchers[cid],
            dram=dram,
            llc=llc,
            asid=cid + 1,
        )
        if post_build is not None:
            post_build(h)
        if prewarm_tlb:
            h.mmu.prewarm(traces[cid].line_addresses())
        hierarchies.append(h)
        cores.append(CoreModel(config_mc.core))

    # Materialise row tuples once: the replay loop below indexes records
    # repeatedly (finished cores keep replaying), so per-index tuple
    # construction from the columnar store would be paid many times.
    records = [t.records[:] for t in traces]
    lengths = [len(r) for r in records]
    position = [0] * num_cores
    consumed = [0] * num_cores          # records consumed incl. replay
    starts: List[Optional[_Snapshot]] = [None] * num_cores
    finished = [False] * num_cores
    end_stats: List[Optional[SimResult]] = [None] * num_cores

    CHUNK = 8
    while not all(finished):
        for cid in range(num_cores):
            core = cores[cid]
            h = hierarchies[cid]
            recs = records[cid]
            n = lengths[cid]
            for _ in range(CHUNK):
                idx = position[cid]
                if consumed[cid] == warmup_end[cid]:
                    h.reset_stats()
                    snap_i, snap_c = core.snapshot()
                    starts[cid] = _Snapshot(snap_i, snap_c)
                ip, vaddr, is_write, gap, dep = recs[idx]
                if gap:
                    core.advance_nonmem(gap)
                core.issue_memory(
                    h.demand_access, ip, vaddr, is_write=is_write, dep=dep
                )
                consumed[cid] += 1
                position[cid] = (idx + 1) % n
                if not finished[cid] and consumed[cid] >= n:
                    finished[cid] = True
                    end_stats[cid] = _collect(
                        traces[cid], h, core, starts[cid] or _Snapshot(0, 0.0)
                    )
    results = []
    for cid in range(num_cores):
        res = end_stats[cid]
        if res is None:  # degenerate tiny trace
            res = _collect(
                traces[cid], hierarchies[cid], cores[cid],
                starts[cid] or _Snapshot(0, 0.0),
            )
        results.append(res)
    return results


def weighted_speedup(
    results: Sequence[SimResult], baselines: Sequence[SimResult]
) -> float:
    """Mean per-core speedup against per-core baseline runs."""
    ratios = [
        r.ipc / b.ipc for r, b in zip(results, baselines) if b.ipc > 0
    ]
    return sum(ratios) / len(ratios) if ratios else 0.0
