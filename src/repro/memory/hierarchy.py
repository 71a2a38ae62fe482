"""Three-level cache hierarchy with prefetching hooks.

This is the substrate every experiment runs on: L1D → L2 → LLC → DRAM,
with per-level MSHRs, a bounded FIFO prefetch queue (PQ), non-inclusive
fills, write-back traffic, and the two prefetcher attachment points the
paper evaluates (one at the L1D observing virtual addresses + IPs, one at
the L2 observing physical addresses).

Timing is forward-resolved: a demand access walks the levels immediately
and returns its total latency; fills install lines whose ``arrival_cycle``
records when the data really lands, so later demands can observe *late*
prefetches.  This mirrors how ChampSim's latencies compose while staying
fast enough for pure Python.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Deque, Dict, Optional

from repro.core.delta_table import L1D_PREF
from repro.cpu.mmu import MMU
from repro.memory.address import same_page
from repro.memory.cache import (
    ORIGIN_L1D,
    ORIGIN_L2,
    ORIGIN_NAMES,
    Cache,
)
from repro.memory.dram import DRAM
from repro.memory.mshr import MSHR
from repro.prefetchers.base import (
    FILL_L1,
    FILL_L2,
    FILL_LLC,
    AccessInfo,
    FillInfo,
    NoPrefetcher,
    Prefetcher,
    PrefetchRequest,
)

LATENCY_FIELD_BITS = 12  # Berti's per-L1D-line latency field width


@dataclass(slots=True)
class LinkTraffic:
    """Request counts on one link of the hierarchy (demand + prefetch +
    writeback), the quantity Figure 14 plots."""

    demand: int = 0
    prefetch: int = 0
    writeback: int = 0

    @property
    def total(self) -> int:
        return self.demand + self.prefetch + self.writeback

    def reset(self) -> None:
        self.demand = 0
        self.prefetch = 0
        self.writeback = 0


@dataclass(slots=True)
class PrefetcherStats:
    """Issue-side and outcome-side counters for one prefetcher."""

    suggested: int = 0          # requests emitted by the algorithm
    issued: int = 0             # survived translation/dedup/queue checks
    dropped_translation: int = 0
    dropped_duplicate: int = 0
    dropped_queue_full: int = 0
    dropped_mshr_full: int = 0
    fills: int = 0              # lines actually installed somewhere
    useful: int = 0             # prefetched lines later demanded
    late: int = 0               # ... demanded before the data arrived
    useless: int = 0            # evicted without a demand touch
    promoted: int = 0           # in-flight prefetches promoted by a demand

    def reset(self) -> None:
        self.suggested = 0
        self.issued = 0
        self.dropped_translation = 0
        self.dropped_duplicate = 0
        self.dropped_queue_full = 0
        self.dropped_mshr_full = 0
        self.fills = 0
        self.useful = 0
        self.late = 0
        self.useless = 0
        self.promoted = 0

    @property
    def timely(self) -> int:
        return self.useful - self.late

    @property
    def accuracy(self) -> float:
        """Artifact formula over *resolved* prefetches.

        The artifact computes (timely + late) / fills; over a 200 M
        instruction run the prefetches still in flight at the end are
        negligible, but over our much shorter traces they are not, so the
        denominator here is the resolved population (useful + useless).
        """
        resolved = self.useful + self.useless
        if resolved == 0:
            return 0.0
        return self.useful / resolved


class _FIFOQueue:
    """A bounded queue serviced at one entry per cycle (the PQ model).

    Returns the queueing delay a new entry observes, or ``None`` when the
    queue is full at ``now`` (the prefetch is then dropped).  This is what
    makes prefetch latency exceed demand latency under bursts — one of the
    variable-latency sources the paper calls out.
    """

    def __init__(self, size: int, rate: float = 1.0) -> None:
        self.size = size
        self.rate = rate  # entries serviced per cycle
        # Service times are appended in nondecreasing order (each new
        # entry starts no earlier than the youngest pending one), so a
        # deque expires from the front in O(expired) instead of
        # rebuilding a list per call.
        self._service_times: Deque[float] = deque()

    def _expire(self, now: float) -> None:
        st = self._service_times
        while st and st[0] <= now:
            st.popleft()

    def occupancy(self, now: float) -> int:
        self._expire(now)
        return len(self._service_times)

    def occupancy_fraction(self, now: float) -> float:
        return self.occupancy(now) / self.size if self.size else 0.0

    def push(self, now: float) -> Optional[int]:
        """Enqueue at ``now``; returns the queueing delay, or None if full.

        Robust to non-monotonic arrival times (an out-of-order core issues
        accesses out of program order): service times are expired lazily
        against each caller's clock.
        """
        st = self._service_times
        while st and st[0] <= now:
            st.popleft()
        if len(st) >= self.size:
            return None
        start = now
        if st and st[-1] > start:
            start = st[-1]
        service = start + 1.0 / self.rate
        st.append(service)
        return int(service - now)

    def reset(self) -> None:
        self._service_times.clear()


class Hierarchy:
    """One core's private L1D/L2 plus (possibly shared) LLC and DRAM."""

    def __init__(
        self,
        mmu: MMU,
        dram: DRAM,
        l1d: Cache,
        l2: Cache,
        llc: Cache,
        l1d_mshr_size: int = 16,
        l2_mshr_size: int = 32,
        llc_mshr_size: int = 64,
        pq_size: int = 16,
        l1d_prefetcher: Optional[Prefetcher] = None,
        l2_prefetcher: Optional[Prefetcher] = None,
    ) -> None:
        self.mmu = mmu
        self.dram = dram
        self.l1d = l1d
        self.l2 = l2
        self.llc = llc
        self.l1d_mshr = MSHR(l1d_mshr_size)
        self.l2_mshr = MSHR(l2_mshr_size)
        self.llc_mshr = MSHR(llc_mshr_size)
        # The L1D has two read ports (paper §III-C); the PQ drains
        # through them, so prefetch probes are serviced at 2/cycle.
        self.l1d_ports_per_cycle = 2.0
        self.pq = _FIFOQueue(pq_size, rate=self.l1d_ports_per_cycle)
        self.l1d_prefetcher = l1d_prefetcher or NoPrefetcher()
        self.l2_prefetcher = l2_prefetcher or NoPrefetcher()

        self.traffic_l1d_l2 = LinkTraffic()
        self.traffic_l2_llc = LinkTraffic()
        self.traffic_llc_dram = LinkTraffic()
        # Per-core LLC/DRAM demand counters: the LLC and DRAM objects may
        # be shared between cores (multi-core), so their own stats pool
        # all cores; these fields attribute demand events to *this* core.
        self.llc_demand_accesses = 0
        self.llc_demand_misses = 0
        self.dram_demand_reads = 0
        self.pf_stats: Dict[str, PrefetcherStats] = {
            "l1d": PrefetcherStats(),
            "l2": PrefetcherStats(),
        }
        # Hot-path alias: reset_stats() zeroes these objects in place, so
        # the reference stays valid for the lifetime of the hierarchy.
        self._pf_l1d_stats = self.pf_stats["l1d"]
        self._refresh_kernel_hooks()
        self._wire_eviction_hooks()

    def _refresh_kernel_hooks(self) -> None:
        """Cache the L1D prefetcher's kernel entry points, if it opts in.

        ``kernel_hooks`` must appear in the prefetcher's *own* class body
        (``type().__dict__``), so subclasses — fault injectors, the
        lockstep reference engine — fall back to the virtual hook
        protocol automatically.  Must be re-run whenever the prefetcher
        object or its class is swapped (snapshot restore, the sanitizer's
        ``to_reference``).
        """
        pf = self.l1d_prefetcher
        if type(pf).__dict__.get("kernel_hooks"):
            self._l1d_kernel = pf
            self._l1d_kern_watermark = pf.config.mshr_watermark
            self._l1d_kern_cross_page = pf.config.cross_page
        else:
            self._l1d_kernel = None
            self._l1d_kern_watermark = 0.0
            self._l1d_kern_cross_page = True

    def _wire_eviction_hooks(self) -> None:
        # The caches hold the hook, so it refers to this hierarchy weakly:
        # a strong reference would make every hierarchy a reference
        # cycle that outlives its run until a full garbage collection.
        hierarchy = weakref.ref(self)

        def account_useless(tag: int, prefetched: int, origin: int) -> None:
            if prefetched and origin:
                h = hierarchy()
                h.pf_stats[ORIGIN_NAMES[origin]].useless += 1
                if origin == ORIGIN_L2:
                    # Feedback for filtering prefetchers (PPF).
                    h.l2_prefetcher.on_evict(tag, was_useful=False)
                else:
                    h.l1d_prefetcher.on_evict(tag, was_useful=False)

        self.l1d.eviction_hook = account_useless
        self.l2.eviction_hook = account_useless
        self.llc.eviction_hook = account_useless

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        # Instrumentation (the sanitizer, the lockstep oracle) installs a
        # wrapper as an instance attribute shadowing the demand_access
        # method; it closes over unpicklable state and is re-attached by
        # whoever restores the snapshot.
        state.pop("demand_access", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Cache.__getstate__ drops the eviction-hook closures; restore
        # the useless-prefetch accounting against *this* hierarchy.
        self._wire_eviction_hooks()
        # Re-resolve kernel dispatch: the restorer may swap classes
        # (sanitizer reference engine) after unpickling.
        self._refresh_kernel_hooks()

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def demand_access(self, ip: int, vaddr: int, now: int, is_write: bool = False) -> int:
        """Perform one demand access; returns its total latency in cycles.

        Runs the L1D prefetcher hooks and issues any suggested prefetches
        at the access time (mirroring ChampSim's operate flow).  The
        dominant L1D-hit case is kept allocation-free: with no L1D
        prefetcher attached the hook plumbing (AccessInfo construction,
        MSHR/PQ occupancy sampling) is skipped entirely — the hooks are
        no-ops and emit no requests, so statistics are unchanged.
        """
        vline = vaddr >> 6
        pline, trans_latency = self.mmu.translate_demand(vline)
        t = now + trans_latency
        l1d = self.l1d
        l1d_latency = l1d.latency
        # NoPrefetcher exactly (a wrapped/faulty prefetcher has its own
        # class): safe to skip its no-op hooks.
        pf_active = type(self.l1d_prefetcher) is not NoPrefetcher

        slot = l1d.lookup(pline)
        if slot is not None:
            latency = trans_latency + l1d_latency
            was_pf, was_late, residual = l1d.demand_touch(
                slot, t + l1d_latency
            )
            latency += residual
            if was_pf:
                self._credit_useful(
                    "l2" if l1d.origin[slot] == ORIGIN_L2 else "l1d", was_late
                )
                pf_latency = l1d.pf_lat[slot]
                l1d.pf_lat[slot] = 0  # reset after consumption (paper §III-C)
                if pf_active:
                    self._notify_l1d_prefetch_hit(ip, vline, t, pf_latency)
            if is_write:
                l1d.dirty[slot] = 1
            if pf_active:
                self._run_l1d_prefetcher_on_access(
                    ip, vline, hit=True, prefetch_hit=was_pf, now=t,
                    is_write=is_write,
                )
            return latency

        # L1D miss: check for an in-flight fetch of the same line.
        l1d_mshr = self.l1d_mshr
        inflight = l1d_mshr.lookup(pline, t)
        if inflight is not None:
            wait = l1d_mshr.merge_demand(inflight, t)
            if inflight.is_prefetch:
                # Promote: a demand arrived before the prefetch landed.
                inflight.is_prefetch = False
                stats = self._pf_l1d_stats
                stats.useful += 1
                stats.late += 1
                stats.promoted += 1
                if pf_active:
                    self._notify_l1d_prefetch_hit(
                        ip, vline, t,
                        max(1, inflight.ready_cycle - inflight.alloc_cycle),
                    )
            if pf_active:
                self._run_l1d_prefetcher_on_access(
                    ip, vline, hit=False, prefetch_hit=False, now=t,
                    is_write=is_write,
                )
            return trans_latency + l1d_latency + wait

        # True miss: fetch from L2 (and below).  A full MSHR stalls the
        # demand until an entry frees (ChampSim replays the access); the
        # stall is part of the latency the core observes.
        detect_time = t + l1d_latency
        miss_time = detect_time
        if not l1d_mshr.can_allocate(miss_time):
            earliest = l1d_mshr.earliest_ready(miss_time)
            if earliest > miss_time:
                miss_time = earliest
        self.traffic_l1d_l2.demand += 1
        ready = self._access_l2(ip, pline, miss_time, is_prefetch=False)
        l1d_mshr.allocate(
            pline, miss_time, ready, is_prefetch=False, ip=ip, vline=vline
        )
        victim = l1d.fill(
            pline,
            now=miss_time,
            arrival_cycle=ready,
            is_prefetch=False,
            ip=ip,
            vline=vline,
        )
        self._handle_writeback(l1d, victim, ready)
        if is_write:
            l1d.mark_dirty(pline)

        if pf_active:
            self._run_l1d_prefetcher_on_access(
                ip, vline, hit=False, prefetch_hit=False, now=t,
                is_write=is_write,
            )
            self._run_l1d_prefetcher_on_fill(
                vline, ready, ready - miss_time, was_prefetch=False, ip=ip
            )
        return trans_latency + l1d_latency + (ready - detect_time)

    # ------------------------------------------------------------------
    # Lower levels
    # ------------------------------------------------------------------

    def _access_l2(
        self, ip: int, pline: int, now: int, is_prefetch: bool
    ) -> int:
        """Fetch ``pline`` for the L1D; returns the cycle data reaches L1D."""
        l2 = self.l2
        slot = l2.lookup(pline, is_demand=not is_prefetch)
        if slot is not None:
            ready = max(now + l2.latency, l2.arrival[slot])
            if not is_prefetch:
                was_pf, was_late, _ = l2.demand_touch(slot, ready)
                origin = l2.origin[slot]
                if was_pf and origin:
                    self._credit_useful(ORIGIN_NAMES[origin], was_late)
                    if origin == ORIGIN_L2:
                        # Positive feedback for filtering prefetchers.
                        self.l2_prefetcher.on_prefetch_hit(
                            AccessInfo(
                                ip=ip, line=pline, hit=True,
                                prefetch_hit=True, now=now,
                            ),
                            l2.pf_lat[slot],
                        )
                self._run_l2_prefetcher(ip, pline, hit=True, now=now)
            return ready

        inflight = self.l2_mshr.lookup(pline, now)
        if inflight is not None:
            wait = self.l2_mshr.merge_demand(inflight, now)
            if not is_prefetch and inflight.is_prefetch:
                inflight.is_prefetch = False
                origin = "l2"
                self.pf_stats[origin].useful += 1
                self.pf_stats[origin].late += 1
                self.pf_stats[origin].promoted += 1
            return now + self.l2.latency + wait

        miss_time = now + self.l2.latency
        self.traffic_l2_llc.demand += 1 if not is_prefetch else 0
        self.traffic_l2_llc.prefetch += 1 if is_prefetch else 0
        ready = self._access_llc(pline, miss_time, is_prefetch)
        if self.l2_mshr.can_allocate(miss_time):
            self.l2_mshr.allocate(pline, miss_time, ready, is_prefetch, ip=ip)
        # Copies installed on the way back up are not attributed to the
        # prefetcher's accuracy: only the fill at the *target* level is.
        victim = self.l2.fill(
            pline, now=miss_time, arrival_cycle=ready, is_prefetch=is_prefetch, ip=ip,
        )
        self._handle_writeback(self.l2, victim, ready)
        if not is_prefetch:
            self._run_l2_prefetcher(ip, pline, hit=False, now=now)
        return ready

    def _access_llc(self, pline: int, now: int, is_prefetch: bool) -> int:
        if not is_prefetch:
            self.llc_demand_accesses += 1
        llc = self.llc
        slot = llc.lookup(pline, is_demand=not is_prefetch)
        if slot is not None:
            ready = max(now + llc.latency, llc.arrival[slot])
            if not is_prefetch:
                was_pf, was_late, _ = llc.demand_touch(slot, ready)
                origin = llc.origin[slot]
                if was_pf and origin:
                    self._credit_useful(ORIGIN_NAMES[origin], was_late)
            return ready

        miss_time = now + self.llc.latency
        if not is_prefetch:
            self.llc_demand_misses += 1
            self.dram_demand_reads += 1
        self.traffic_llc_dram.demand += 1 if not is_prefetch else 0
        self.traffic_llc_dram.prefetch += 1 if is_prefetch else 0
        ready = self.dram.read(pline, miss_time)
        victim = self.llc.fill(
            pline, now=miss_time, arrival_cycle=ready, is_prefetch=is_prefetch,
        )
        self._handle_writeback(self.llc, victim, ready)
        return ready

    def _handle_writeback(self, cache: Cache, tag: int, now: int) -> None:
        """Write back the dirty victim ``tag`` (``-1``: none) of ``cache``."""
        if tag < 0:
            return
        if cache is self.l1d:
            self.traffic_l1d_l2.writeback += 1
            wv = self.l2.fill(tag, now, now, is_prefetch=False)
            self.l2.mark_dirty(tag)
            self._handle_writeback(self.l2, wv, now)
        elif cache is self.l2:
            self.traffic_l2_llc.writeback += 1
            wv = self.llc.fill(tag, now, now, is_prefetch=False)
            self.llc.mark_dirty(tag)
            self._handle_writeback(self.llc, wv, now)
        else:
            self.traffic_llc_dram.writeback += 1
            self.dram.write(tag, now)

    # ------------------------------------------------------------------
    # Prefetch issue
    # ------------------------------------------------------------------

    def _run_l1d_prefetcher_on_access(
        self,
        ip: int,
        vline: int,
        hit: bool,
        prefetch_hit: bool,
        now: int,
        is_write: bool,
    ) -> None:
        # Both samples run on every path: their lazy expiry is state the
        # lockstep digest reads.
        mshr_occ = self.l1d_mshr.occupancy_fraction(now)
        pq_occ = self.pq.occupancy_fraction(now)
        # Kernel dispatch: a prefetcher that opted in (Berti) trains and
        # predicts without AccessInfo/PrefetchRequest objects, and its
        # prediction policy (_predict) is applied here over the memoised
        # (delta, status) list it returns.  Counter order is identical to
        # the virtual path: a delta whose target underflows is skipped
        # uncounted (as _predict does), cross-page suppression precedes
        # the suggested count, and an L1D_PREF delta fills the L1D only
        # while the L1D MSHR is below the watermark (paper §III-B).
        kern = self._l1d_kernel
        if kern is not None:
            selected = kern.on_access_kernel(ip, vline, hit, now)
            if not selected:
                return
            pf_stats = self._pf_l1d_stats
            translate = self.mmu.translate_prefetch
            l1d_where = self.l1d._where
            l2_where = self.l2._where
            mshr_below = mshr_occ < self._l1d_kern_watermark
            cross_ok = self._l1d_kern_cross_page
            issue = self._issue_prefetch
            for delta, status in selected:
                target = vline + delta
                if target < 0:
                    continue
                if not cross_ok and not same_page(vline, target):
                    kern.cross_page_suppressed += 1
                    continue
                if status == L1D_PREF and mshr_below:
                    fill_level = FILL_L1
                    where = l1d_where
                else:
                    fill_level = FILL_L2
                    where = l2_where
                pf_stats.suggested += 1
                pline = translate(target)
                if pline is None:
                    pf_stats.dropped_translation += 1
                    continue
                if pline in where:
                    pf_stats.dropped_duplicate += 1
                    continue
                issue(target, pline, fill_level, ip, now)
            return
        info = AccessInfo(
            ip=ip,
            line=vline,
            hit=hit,
            prefetch_hit=prefetch_hit,
            now=now,
            is_write=is_write,
            mshr_occupancy=mshr_occ,
            pq_occupancy=pq_occ,
        )
        pf = self.l1d_prefetcher
        requests = pf.on_access(info)
        # Skip the cycle() call entirely for prefetchers that do not
        # override the base no-op (the common case, incl. Berti).  Duck-
        # typed wrappers without a class-level cycle still get called.
        if getattr(type(pf), "cycle", None) is not Prefetcher.cycle:
            requests.extend(pf.cycle(now))
        issue = self.issue_l1d_prefetch
        for req in requests:
            issue(req, ip, now)

    def _run_l1d_prefetcher_on_fill(
        self, vline: int, now: int, latency: int, was_prefetch: bool, ip: int
    ) -> None:
        kern = self._l1d_kernel
        if kern is not None:
            # One packed update, no FillInfo: Berti trains on demand-miss
            # fills only and never emits requests from this hook.
            if not was_prefetch:
                kern.on_fill_kernel(vline, now, latency, ip)
            return
        fill = FillInfo(
            line=vline, now=now, latency=latency, was_prefetch=was_prefetch, ip=ip
        )
        for req in self.l1d_prefetcher.on_fill(fill):
            self.issue_l1d_prefetch(req, ip, now)

    def _notify_l1d_prefetch_hit(
        self, ip: int, vline: int, now: int, pf_latency: int
    ) -> None:
        # The MSHR sampling (and its lazy-expiry side effect) runs on
        # both paths: the lockstep digest reads the raw entry map.
        mshr_occ = self.l1d_mshr.occupancy_fraction(now)
        kern = self._l1d_kernel
        if kern is not None:
            kern.on_prefetch_hit_kernel(ip, vline, now, pf_latency)
            return
        info = AccessInfo(
            ip=ip,
            line=vline,
            hit=True,
            prefetch_hit=True,
            now=now,
            mshr_occupancy=mshr_occ,
        )
        self.l1d_prefetcher.on_prefetch_hit(info, pf_latency)

    def issue_l1d_prefetch(
        self, req: PrefetchRequest, ip: int, now: int
    ) -> bool:
        """Translate, filter, and issue one L1D-prefetcher request.

        Returns True when the prefetch actually went out to the hierarchy.
        """
        stats = self._pf_l1d_stats
        stats.suggested += 1
        vline = req.line
        if vline < 0:
            stats.dropped_translation += 1
            return False
        pline = self.mmu.translate_prefetch(vline)
        if pline is None:
            stats.dropped_translation += 1
            return False
        # Duplicate suppression happens before a PQ slot is consumed:
        # hardware PQs match same-address entries at insert, so repeated
        # suggestions for already-covered lines are free and cannot
        # starve other streams of queue space.  Most suggestions die
        # here, so the presence index is probed directly.
        fill_level = req.fill_level
        target = self.l1d if fill_level == FILL_L1 else (
            self.l2 if fill_level == FILL_L2 else self.llc
        )
        if pline in target._where:
            stats.dropped_duplicate += 1
            return False
        return self._issue_prefetch(vline, pline, fill_level, ip, now)

    def _issue_prefetch(
        self, vline: int, pline: int, fill_level: int, ip: int, now: int
    ) -> bool:
        """The issue tail behind both prologues (Berti's kernel loop and
        :meth:`issue_l1d_prefetch`): PQ admission, MSHR reservation, and
        the fill walk.  The caller has counted the suggestion, translated
        ``vline`` to ``pline``, and run the presence filter.
        """
        stats = self._pf_l1d_stats
        l1d_mshr = self.l1d_mshr
        if fill_level == FILL_L1 and l1d_mshr.lookup(pline, now) is not None:
            stats.dropped_duplicate += 1
            return False

        # The bounded PQ (16 entries, Table I) drains through the two
        # L1D read ports; overflow drops the request.
        pq_delay = self.pq.push(now)
        if pq_delay is None:
            stats.dropped_queue_full += 1
            return False
        issue_time = now + pq_delay

        if fill_level == FILL_L1:
            # Keep two MSHR entries in reserve for demand misses, so a
            # prefetch burst cannot stall the demand path outright.
            if l1d_mshr.occupancy(issue_time) >= l1d_mshr.size - 2:
                stats.dropped_mshr_full += 1
                return False
            ready = self._access_l2(ip, pline, issue_time, is_prefetch=True)
            l1d_mshr.allocate(
                pline, issue_time, ready, is_prefetch=True, ip=ip, vline=vline
            )
            self.l1d.fill(
                pline,
                now=issue_time,
                arrival_cycle=ready,
                is_prefetch=True,
                ip=ip,
                vline=vline,
                pf_latency=self._clamp_latency(ready - now),
                pf_origin=ORIGIN_L1D,
            )
            self.traffic_l1d_l2.prefetch += 1
        elif fill_level == FILL_L2:
            # The L2 dedup probe runs after the PQ slot is consumed
            # (hardware matches in-queue entries at the L2, not at PQ
            # insert).
            l2 = self.l2
            l2_mshr = self.l2_mshr
            if l2.probe(pline) or l2_mshr.lookup(pline, now):
                stats.dropped_duplicate += 1
                return False
            if not l2_mshr.can_allocate(issue_time):
                stats.dropped_mshr_full += 1
                return False
            ready = self._access_llc(pline, issue_time + l2.latency, True)
            l2_mshr.allocate(pline, issue_time, ready, True, ip=ip)
            l2.fill(
                pline, now=issue_time, arrival_cycle=ready, is_prefetch=True,
                ip=ip, vline=vline,
                pf_latency=self._clamp_latency(ready - now),
                pf_origin=ORIGIN_L1D,
            )
            self.traffic_l1d_l2.prefetch += 1
            self.traffic_l2_llc.prefetch += 1
        else:  # FILL_LLC
            if self.llc.probe(pline):
                stats.dropped_duplicate += 1
                return False
            if not self.llc_mshr.can_allocate(issue_time):
                stats.dropped_mshr_full += 1
                return False
            ready = self.dram.read(pline, issue_time + self.llc.latency)
            self.llc_mshr.allocate(pline, issue_time, ready, True, ip=ip)
            self.llc.fill(
                pline, now=issue_time, arrival_cycle=ready, is_prefetch=True,
                pf_origin=ORIGIN_L1D,
            )
            self.traffic_llc_dram.prefetch += 1
        stats.fills += 1
        stats.issued += 1
        return True

    def _run_l2_prefetcher(self, ip: int, pline: int, hit: bool, now: int) -> None:
        if isinstance(self.l2_prefetcher, NoPrefetcher):
            return
        info = AccessInfo(
            ip=ip,
            line=pline,
            hit=hit,
            prefetch_hit=False,
            now=now,
            mshr_occupancy=self.l2_mshr.occupancy_fraction(now),
        )
        for req in self.l2_prefetcher.on_access(info):
            self.issue_l2_prefetch(req, ip, now)

    def issue_l2_prefetch(self, req: PrefetchRequest, ip: int, now: int) -> bool:
        """Issue one L2-prefetcher request (physical addressing)."""
        stats = self.pf_stats["l2"]
        stats.suggested += 1
        pline = req.line
        if pline < 0:
            stats.dropped_translation += 1
            return False
        target = self.llc if req.fill_level == FILL_LLC else self.l2
        if target.probe(pline) or (
            target is self.l2 and self.l2_mshr.lookup(pline, now)
        ):
            stats.dropped_duplicate += 1
            return False

        if req.fill_level == FILL_LLC:
            if self.llc.probe(pline):
                stats.dropped_duplicate += 1
                return False
            if not self.llc_mshr.can_allocate(now):
                stats.dropped_mshr_full += 1
                return False
            ready = self.dram.read(pline, now + self.llc.latency)
            self.llc_mshr.allocate(pline, now, ready, True, ip=ip)
            self.llc.fill(
                pline, now=now, arrival_cycle=ready, is_prefetch=True,
                pf_origin=ORIGIN_L2,
            )
            self.traffic_llc_dram.prefetch += 1
        else:
            if not self.l2_mshr.can_allocate(now):
                stats.dropped_mshr_full += 1
                return False
            ready = self._access_llc(pline, now + self.l2.latency, True)
            self.l2_mshr.allocate(pline, now, ready, True, ip=ip)
            self.l2.fill(
                pline, now=now, arrival_cycle=ready, is_prefetch=True, ip=ip,
                pf_origin=ORIGIN_L2,
            )
            self.traffic_l2_llc.prefetch += 1
        stats.fills += 1
        stats.issued += 1
        return True

    # ------------------------------------------------------------------

    def _credit_useful(self, origin: str, was_late: bool) -> None:
        if origin not in self.pf_stats:
            return
        self.pf_stats[origin].useful += 1
        if was_late:
            self.pf_stats[origin].late += 1

    @staticmethod
    def _clamp_latency(latency: int) -> int:
        """Model the 12-bit latency field: overflow stores zero."""
        if latency <= 0 or latency >= (1 << LATENCY_FIELD_BITS):
            return 0
        return latency

    def prefetched_line_counts(self) -> Dict[str, int]:
        """Resident or in-flight prefetched lines, by issuing prefetcher.

        Captured at the warmup→measurement boundary: these lines were
        issued before the stats reset but can still be demanded (and
        credited as useful) afterwards, so ``useful`` may legitimately
        exceed ``issued`` by up to this count.
        """
        counts = {"l1d": 0, "l2": 0}
        for cache in (self.l1d, self.l2, self.llc):
            # A set prefetch bit implies a valid line (check_cache).
            origins = list(compress(cache.origin, cache.pref))
            counts["l1d"] += origins.count(ORIGIN_L1D)
            counts["l2"] += origins.count(ORIGIN_L2)
        # In-flight prefetch misses promoted by a later demand are
        # credited to the MSHR's level ("l1d"/"l2" respectively).
        for origin, mshr in (("l1d", self.l1d_mshr), ("l2", self.l2_mshr)):
            counts[origin] += sum(
                1 for e in mshr._entries.values() if e.is_prefetch
            )
        return counts

    def reset_stats(self) -> None:
        """Clear all counters (but not cache contents) after warmup."""
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.llc.reset_stats()
        self.dram.reset_stats()
        self.traffic_l1d_l2.reset()
        self.traffic_l2_llc.reset()
        self.traffic_llc_dram.reset()
        self.llc_demand_accesses = 0
        self.llc_demand_misses = 0
        self.dram_demand_reads = 0
        for s in self.pf_stats.values():
            s.reset()
        self.mmu.reset_stats()
