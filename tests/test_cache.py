"""Unit tests for the set-associative cache model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import ORIGIN_L1D, Cache


def make_cache(**kw):
    defaults = dict(name="t", size_bytes=8 * 64 * 4, ways=4, latency=5)
    defaults.update(kw)
    return Cache(**defaults)


class TestGeometry:
    def test_num_sets(self):
        c = make_cache()
        assert c.num_sets == 8
        assert c.num_lines == 32

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=1000, ways=3, latency=1)


class TestLookupFill:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(100) is None
        c.fill(100, now=0, arrival_cycle=10, is_prefetch=False)
        assert c.lookup(100) is not None
        assert c.stats.demand_hits == 1
        assert c.stats.demand_misses == 1

    def test_probe_has_no_side_effects(self):
        c = make_cache()
        c.fill(100, 0, 0, False)
        before = dataclasses.asdict(c.stats)
        assert c.probe(100)
        assert not c.probe(101)
        assert dataclasses.asdict(c.stats) == before

    def test_fill_evicts_within_set(self):
        c = make_cache(ways=2, size_bytes=2 * 64 * 2)  # 2 sets, 2 ways
        lines = [0, 2, 4]  # all map to set 0
        for ln in lines:
            c.fill(ln, 0, 0, False)
        present = [ln for ln in lines if c.probe(ln)]
        assert len(present) == 2

    def test_eviction_returns_dirty_victim(self):
        c = make_cache(ways=1, size_bytes=64)
        c.fill(0, 0, 0, False)
        c.mark_dirty(0)
        victim = c.fill(1, 0, 0, False)  # any line maps to set 0
        assert victim == 0  # the dirty victim's tag
        assert c.stats.writebacks == 1

    def test_refill_existing_line_no_eviction(self):
        c = make_cache()
        c.fill(5, 0, 100, False)
        victim = c.fill(5, 0, 50, False)
        assert victim == -1
        assert c.peek(5).arrival_cycle == 50  # earlier arrival wins

    def test_occupancy(self):
        c = make_cache()
        for i in range(10):
            c.fill(i, 0, 0, False)
        assert c.occupancy() == 10


class TestPrefetchMetadata:
    def test_prefetch_fill_marks_line(self):
        c = make_cache()
        c.fill(9, 0, 50, is_prefetch=True, pf_latency=40,
               pf_origin=ORIGIN_L1D)
        cl = c.peek(9)
        assert cl.prefetched and cl.pf_latency == 40
        assert cl.pf_origin == ORIGIN_L1D
        assert c.stats.prefetch_fills == 1

    def test_demand_touch_timely(self):
        c = make_cache()
        c.fill(9, 0, 50, is_prefetch=True)
        cl = c.lookup(9)
        was_pf, was_late, wait = c.demand_touch(cl, now=60)
        assert was_pf and not was_late and wait == 0
        assert c.stats.useful_prefetches == 1
        assert c.stats.late_prefetches == 0

    def test_demand_touch_late(self):
        c = make_cache()
        c.fill(9, 0, 100, is_prefetch=True)
        cl = c.lookup(9)
        was_pf, was_late, wait = c.demand_touch(cl, now=40)
        assert was_pf and was_late and wait == 60
        assert c.stats.late_prefetches == 1

    def test_second_touch_not_counted(self):
        c = make_cache()
        c.fill(9, 0, 0, is_prefetch=True)
        cl = c.lookup(9)
        c.demand_touch(cl, 10)
        was_pf, __, __ = c.demand_touch(cl, 20)
        assert not was_pf
        assert c.stats.useful_prefetches == 1

    def test_unused_prefetch_eviction_counts_useless(self):
        c = make_cache(ways=1, size_bytes=64)
        c.fill(0, 0, 0, is_prefetch=True)
        c.fill(1, 0, 0, is_prefetch=False)
        assert c.stats.useless_prefetches == 1

    def test_demand_fill_clears_prefetch_flag_on_refill(self):
        c = make_cache()
        c.fill(9, 0, 0, is_prefetch=True)
        c.fill(9, 0, 0, is_prefetch=False)
        assert not c.peek(9).prefetched


class TestEvictionHook:
    def test_hook_called_with_victim(self):
        # The hook sees the victim's tag, prefetch bit and origin code
        # before its slot is reused for the incoming fill.
        seen = []
        c = make_cache(ways=1, size_bytes=64)
        c.eviction_hook = lambda tag, pf, origin: seen.append(
            (tag, pf, origin)
        )
        c.fill(0, 0, 0, is_prefetch=True, pf_origin=ORIGIN_L1D)
        c.fill(1, 0, 0, False)
        assert seen == [(0, True, ORIGIN_L1D)]


class TestInvalidate:
    def test_invalidate_present(self):
        c = make_cache()
        c.fill(3, 0, 0, False)
        assert c.invalidate(3)
        assert not c.probe(3)

    def test_invalidate_absent(self):
        c = make_cache()
        assert not c.invalidate(3)

    def test_refill_after_invalidate(self):
        c = make_cache()
        c.fill(3, 0, 0, False)
        c.invalidate(3)
        c.fill(3, 0, 0, False)
        assert c.probe(3)


class TestPresenceIndexInvariant:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    def test_index_matches_arrays(self, lines):
        """The O(1) presence index always agrees with the tag arrays."""
        c = make_cache(ways=2, size_bytes=4 * 64 * 2)
        for ln in lines:
            c.fill(ln, 0, 0, False)
        in_arrays = {
            c.tags[slot] for slot in range(c.num_lines) if c.valid[slot]
        }
        assert set(c._where) == in_arrays
        for ln in in_arrays:
            assert c.probe(ln)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                    max_size=100))
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = make_cache(ways=2, size_bytes=2 * 64 * 2)
        for ln in lines:
            c.fill(ln, 0, 0, bool(ln % 2))
        assert c.occupancy() <= c.num_lines
