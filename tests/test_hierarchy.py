"""Integration tests for the cache hierarchy."""

import pytest

from repro.prefetchers.base import (
    FILL_L1,
    FILL_L2,
    FILL_LLC,
    AccessInfo,
    NoPrefetcher,
    Prefetcher,
    PrefetchRequest,
)
from repro.simulator.config import default_config
from repro.simulator.engine import build_hierarchy


def fresh(l1d_pf=None, l2_pf=None):
    return build_hierarchy(default_config(), l1d_pf, l2_pf)


class _OneShot(Prefetcher):
    """Issues a single fixed request on the first access."""

    name = "oneshot"

    def __init__(self, line, fill_level):
        self.req = PrefetchRequest(line=line, fill_level=fill_level)
        self.fired = False

    def on_access(self, access):
        if self.fired:
            return []
        self.fired = True
        return [self.req]


class TestDemandPath:
    def test_cold_miss_walks_to_dram(self):
        h = fresh()
        lat = h.demand_access(0x400, 0x10000, now=0)
        assert lat > 100  # page walk + three levels + DRAM
        assert h.dram.stats.reads == 1
        assert h.l1d.stats.demand_misses == 1

    def test_second_access_hits_l1d(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0)
        lat = h.demand_access(0x400, 0x10000, 10_000)
        assert lat <= h.l1d.latency + h.mmu.dtlb.latency
        assert h.l1d.stats.demand_hits == 1

    def test_fill_populates_all_levels(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0)
        pline = h.mmu.translate_prefetch(0x10000 >> 6)
        assert h.l1d.probe(pline)
        assert h.l2.probe(pline)
        assert h.llc.probe(pline)

    def test_l2_hit_after_l1d_eviction(self):
        h = fresh()
        # Fill the L1D set of line X with conflicting lines.
        h.demand_access(0x400, 0x10000, 0)
        sets = h.l1d.num_sets
        for i in range(1, h.l1d.ways + 1):
            h.demand_access(0x400, 0x10000 + i * sets * 64, i * 3000)
        before = h.l2.stats.demand_hits
        h.demand_access(0x400, 0x10000, 10_000_000)
        assert h.l2.stats.demand_hits == before + 1

    def test_second_demand_to_inflight_line_waits_residual(self):
        h = fresh()
        lat_first = h.demand_access(0x400, 0x10000, 0)
        # Second demand to the same line (byte 32) while in flight: it
        # must wait only the residual, not issue a second fetch.
        lat_second = h.demand_access(0x401, 0x10020, 1)
        assert h.dram.stats.reads == 1
        assert lat_second <= lat_first

    def test_store_marks_dirty_and_writeback_traffic(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0, is_write=True)
        sets = h.l1d.num_sets
        for i in range(1, h.l1d.ways + 2):
            h.demand_access(0x400, 0x10000 + i * sets * 64, i * 3000)
        assert h.traffic_l1d_l2.writeback >= 1

    def test_translation_latency_included(self):
        h = fresh()
        lat_cold = h.demand_access(0x400, 0x10000, 0)
        # Same page: dTLB hit, same L1D line -> much cheaper.
        lat_warm = h.demand_access(0x400, 0x10000, 50_000)
        assert lat_cold - lat_warm >= h.mmu.page_walk_latency


class TestPrefetchIssue:
    def _warm_page(self, h, vline):
        h.demand_access(0x1, vline << 6, 0)

    def test_fill_l1_installs_to_l1(self):
        h = fresh()
        self._warm_page(h, 0x900)
        pf = _OneShot(0x901, FILL_L1)
        h.l1d_prefetcher = pf
        h.demand_access(0x2, 0x900 << 6, 5000)
        pline = h.mmu.translate_prefetch(0x901)
        assert h.l1d.probe(pline)
        assert h.pf_stats["l1d"].issued == 1

    def test_fill_l2_stops_at_l2(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0x902, FILL_L2)
        h.demand_access(0x2, 0x900 << 6, 5000)
        pline = h.mmu.translate_prefetch(0x902)
        assert not h.l1d.probe(pline)
        assert h.l2.probe(pline)

    def test_fill_llc_stops_at_llc(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0x903, FILL_LLC)
        h.demand_access(0x2, 0x900 << 6, 5000)
        pline = h.mmu.translate_prefetch(0x903)
        assert not h.l2.probe(pline)
        assert h.llc.probe(pline)

    def test_cold_page_prefetch_dropped(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0xFFFF0, FILL_L1)  # untouched page
        h.demand_access(0x2, 0x900 << 6, 5000)
        assert h.pf_stats["l1d"].dropped_translation == 1
        assert h.pf_stats["l1d"].issued == 0

    def test_duplicate_prefetch_dropped(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0x900, FILL_L1)  # already resident
        h.demand_access(0x2, 0x900 << 6, 50_000)
        assert h.pf_stats["l1d"].dropped_duplicate == 1

    def test_useful_prefetch_accounting(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0x905, FILL_L1)
        h.demand_access(0x2, 0x900 << 6, 5000)
        h.l1d_prefetcher = NoPrefetcher()
        h.demand_access(0x3, 0x905 << 6, 1_000_000)  # long after arrival
        s = h.pf_stats["l1d"]
        assert s.useful == 1 and s.late == 0

    def test_late_prefetch_accounting(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0x905, FILL_L1)
        h.demand_access(0x2, 0x900 << 6, 5000)
        h.l1d_prefetcher = NoPrefetcher()
        h.demand_access(0x3, 0x905 << 6, 5001)  # before the data arrives
        s = h.pf_stats["l1d"]
        assert s.useful == 1 and s.late == 1

    def test_useless_prefetch_accounting(self):
        h = fresh()
        self._warm_page(h, 0x900)
        h.l1d_prefetcher = _OneShot(0x905, FILL_L1)
        h.demand_access(0x2, 0x900 << 6, 5000)
        h.l1d_prefetcher = NoPrefetcher()
        pline = h.mmu.translate_prefetch(0x905)
        l1d = h.l1d
        assert l1d.peek(pline).prefetched
        # `ways` conflicting fills into its set evict the prefetched line
        # unused, as the LRU victim of one of them.
        for k in range(1, l1d.ways + 1):
            l1d.fill(pline + k * l1d.num_sets, 6000 + k, 6000 + k, False)
        assert not l1d.probe(pline)
        assert h.pf_stats["l1d"].useless == 1
        assert l1d.stats.useless_prefetches == 1

    def test_pq_overflow_drops(self):
        h = fresh()
        self._warm_page(h, 0x900)

        class Flood(Prefetcher):
            name = "flood"

            def on_access(self, access):
                return [
                    PrefetchRequest(line=0x900 + 2 + i, fill_level=FILL_L2)
                    for i in range(40)
                ]

        h.l1d_prefetcher = Flood()
        h.demand_access(0x2, 0x900 << 6, 5000)
        assert h.pf_stats["l1d"].dropped_queue_full > 0


class TestTraffic:
    def test_demand_traffic_counted_per_link(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0)
        assert h.traffic_l1d_l2.demand == 1
        assert h.traffic_l2_llc.demand == 1
        assert h.traffic_llc_dram.demand == 1

    def test_l1d_hit_generates_no_traffic(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0)
        before = h.traffic_l1d_l2.total
        h.demand_access(0x400, 0x10000, 50_000)
        assert h.traffic_l1d_l2.total == before

    def test_reset_stats(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0)
        h.reset_stats()
        assert h.traffic_l1d_l2.total == 0
        assert h.l1d.stats.demand_accesses == 0
        assert h.dram.stats.reads == 0


class TestL2Prefetcher:
    def test_l2_prefetcher_sees_l2_accesses(self):
        seen = []

        class Spy(Prefetcher):
            name = "spy"
            level = "l2"

            def on_access(self, access):
                seen.append(access.line)
                return []

        h = fresh(l2_pf=Spy())
        h.demand_access(0x400, 0x10000, 0)       # L2 miss -> seen
        h.demand_access(0x400, 0x10000, 50_000)  # L1D hit -> not seen
        assert len(seen) == 1

    def test_l2_prefetch_issue_and_credit(self):
        h = fresh()
        h.demand_access(0x400, 0x10000, 0)
        pline = h.mmu.translate_prefetch(0x10000 >> 6)
        req = PrefetchRequest(line=pline + 1, fill_level=FILL_L2)
        assert h.issue_l2_prefetch(req, ip=0x400, now=1000)
        assert h.l2.probe(pline + 1)
        assert h.pf_stats["l2"].issued == 1
