"""Unit tests for the TLBs and MMU."""

import pytest

from repro.cpu.mmu import MMU
from repro.cpu.tlb import TLB

LINES_PER_PAGE = 64


class TestTLB:
    def test_miss_then_hit(self):
        t = TLB("t", entries=8, ways=2, latency=1)
        assert t.lookup(5) is None
        t.insert(5, 99)
        assert t.lookup(5) == 99
        assert t.stats.hits == 1
        assert t.stats.misses == 1

    def test_lru_eviction_within_set(self):
        t = TLB("t", entries=4, ways=2, latency=1)
        # vpages 0, 2, 4 all map to set 0 (2 sets).
        t.insert(0, 10)
        t.insert(2, 12)
        t.lookup(0)          # 0 becomes MRU
        t.insert(4, 14)      # evicts 2
        assert t.lookup(2) is None
        assert t.lookup(0) == 10
        assert t.lookup(4) == 14

    def test_probe_does_not_count_demand_stats(self):
        t = TLB("t", entries=8, ways=2, latency=1)
        t.insert(1, 11)
        t.probe(1)
        t.probe(2)
        assert t.stats.accesses == 0
        assert t.stats.prefetch_probes == 2
        assert t.stats.prefetch_probe_hits == 1

    def test_reinsert_updates_mapping(self):
        t = TLB("t", entries=8, ways=2, latency=1)
        t.insert(1, 11)
        t.insert(1, 22)
        assert t.lookup(1) == 22

    def test_map_consistency_after_evictions(self):
        t = TLB("t", entries=4, ways=2, latency=1)
        for vp in range(20):
            t.insert(vp, vp + 100)
        occupied = [slot for slot, age in enumerate(t.policy._age) if age]
        assert len(occupied) == len(t._map) == t.entries
        # Each set keeps its two most recent pages, indexed where the
        # columns hold them; a rebuild from the columns agrees.
        assert sorted(t._map) == [16, 17, 18, 19]
        for vp, slot in t._map.items():
            assert (t.vpages[slot], t.ppages[slot]) == (vp, vp + 100)
        live = dict(t._map)
        assert t.reindex() == live

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TLB("t", entries=5, ways=2, latency=1)

    def test_reset(self):
        t = TLB("t", entries=8, ways=2, latency=1)
        t.insert(1, 11)
        t.reset()
        assert t.lookup(1) is None


class TestMMU:
    def test_translation_deterministic(self):
        a = MMU().translate_demand(0x1234)[0]
        b = MMU().translate_demand(0x1234)[0]
        assert a == b

    def test_same_page_same_frame(self):
        m = MMU()
        pa0, _ = m.translate_demand(0)
        pa1, _ = m.translate_demand(1)
        assert pa0 // LINES_PER_PAGE == pa1 // LINES_PER_PAGE
        assert pa1 - pa0 == 1

    def test_pages_scrambled(self):
        """Virtually adjacent pages must not be physically adjacent."""
        m = MMU()
        frames = [
            m.translate_demand(i * LINES_PER_PAGE)[0] // LINES_PER_PAGE
            for i in range(8)
        ]
        diffs = {b - a for a, b in zip(frames, frames[1:])}
        assert diffs != {1}

    def test_first_access_walks(self):
        m = MMU()
        __, lat = m.translate_demand(0)
        assert lat >= m.page_walk_latency
        assert m.stats.walks == 1

    def test_dtlb_hit_is_fast(self):
        m = MMU()
        m.translate_demand(0)
        __, lat = m.translate_demand(1)
        assert lat == m.dtlb.latency

    def test_stlb_hit_medium_latency(self):
        m = MMU()
        m.translate_demand(0)
        # Evict from the dTLB by filling its sets with conflicting pages.
        for i in range(1, 200):
            m.translate_demand(i * LINES_PER_PAGE)
        __, lat = m.translate_demand(0)
        assert lat in (
            m.dtlb.latency,
            m.dtlb.latency + m.stlb.latency,
        )

    def test_prefetch_translation_drops_cold_page(self):
        m = MMU()
        assert m.translate_prefetch(0) is None
        assert m.stats.dropped_prefetch_translations == 1

    def test_prefetch_translation_hits_warm_page(self):
        m = MMU()
        pa, __ = m.translate_demand(5)
        assert m.translate_prefetch(5) == pa

    def test_asid_separates_address_spaces(self):
        a = MMU(asid=1).translate_demand(0)[0]
        b = MMU(asid=2).translate_demand(0)[0]
        assert a != b

    def test_prewarm_installs_stlb(self):
        m = MMU()
        m.prewarm([0, 1, LINES_PER_PAGE])  # pages 0 and 1
        assert m.translate_prefetch(0) is not None
        assert m.translate_prefetch(LINES_PER_PAGE) is not None
        assert m.translate_prefetch(2 * LINES_PER_PAGE) is None

    def test_prewarm_matches_demand_mapping(self):
        m = MMU()
        m.prewarm([7])
        pf = m.translate_prefetch(7)
        demand, __ = m.translate_demand(7)
        assert pf == demand
