"""Regression pin: substituted components see their methods called.

The hierarchy calls ``Cache.lookup``, ``MSHR.occupancy_fraction`` and
``_FIFOQueue.occupancy_fraction`` rather than inlining them, and three
fast paths are left in front of virtual calls, each keyed on an exact
class: the cache's replacement-policy memos (``_lru`` only for a stock
``LRUPolicy``), the ``pf_active`` skip (exactly ``NoPrefetcher``), and
Berti's ``kernel_hooks`` (declared in the prefetcher's own class body).
The entire sanitizer subsystem — and any user-substituted component
model — relies on the complementary guarantee: a *subclass* must be
routed through the virtual methods.  These tests install counting
subclasses via ``post_build`` and assert their overridden methods
actually run, so a future optimisation cannot inline one of those
methods again, or widen an exact-type check to ``isinstance`` (which
would silently bypass substituted components), without failing here.
"""

import pytest

from repro.core.berti import BertiPrefetcher
from repro.memory.cache import Cache
from repro.memory.hierarchy import _FIFOQueue
from repro.memory.mshr import MSHR
from repro.memory.replacement import LRUPolicy
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer.lockstep import quick_trace
from repro.simulator.engine import simulate


class CountingCache(Cache):
    lookup_calls = 0

    def lookup(self, line, is_demand=True):
        CountingCache.lookup_calls += 1
        return super().lookup(line, is_demand)


class CountingMSHR(MSHR):
    occupancy_calls = 0

    def occupancy_fraction(self, now):
        CountingMSHR.occupancy_calls += 1
        return super().occupancy_fraction(now)


class CountingPQ(_FIFOQueue):
    occupancy_calls = 0

    def occupancy_fraction(self, now):
        CountingPQ.occupancy_calls += 1
        return super().occupancy_fraction(now)


class CountingLRU(LRUPolicy):
    on_hit_calls = 0

    def on_hit(self, set_index, way):
        CountingLRU.on_hit_calls += 1
        return super().on_hit(set_index, way)


class CountingNoPrefetcher(NoPrefetcher):
    on_access_calls = 0

    def on_access(self, access):
        CountingNoPrefetcher.on_access_calls += 1
        return super().on_access(access)


class CountingBerti(BertiPrefetcher):
    """Does not re-declare ``kernel_hooks``, so the hierarchy must drive
    it through the virtual hooks."""

    on_access_calls = 0

    def on_access(self, access):
        CountingBerti.on_access_calls += 1
        return super().on_access(access)


@pytest.fixture
def trace():
    return quick_trace(600, "guard_trace")


@pytest.fixture
def reuse_trace():
    """A stream that wraps a 16-line region, so the L1D sees demand hits
    (``quick_trace`` never revisits a line and would leave on_hit cold)."""
    from repro.workloads.synthetic import strided_stream
    from repro.workloads.trace import Trace

    t = Trace("guard_reuse")
    t.extend(strided_stream(0x100, 0x10000, 1, 600, gap=6, region_lines=16))
    t.suite = "synthetic"
    return t


def _reset_counters():
    CountingCache.lookup_calls = 0
    CountingMSHR.occupancy_calls = 0
    CountingPQ.occupancy_calls = 0
    CountingLRU.on_hit_calls = 0
    CountingNoPrefetcher.on_access_calls = 0
    CountingBerti.on_access_calls = 0


class TestSubclassesTakeVirtualPath:
    def test_cache_subclass_gets_lookup_calls(self, trace):
        _reset_counters()

        def swap(h):
            h.l1d.__class__ = CountingCache

        simulate(trace, post_build=swap)
        # Every demand access must have gone through Cache.lookup — the
        # engine's inline L1D probe is only legal for the exact type.
        assert CountingCache.lookup_calls >= len(trace)

    def test_mshr_and_pq_subclasses_get_occupancy_calls(self, trace):
        _reset_counters()

        def swap(h):
            h.l1d_mshr.__class__ = CountingMSHR
            h.pq.__class__ = CountingPQ

        # The occupancy sampling under test runs in the prefetcher
        # access hook, so a real prefetcher must be attached.
        simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                 post_build=swap)
        assert CountingMSHR.occupancy_calls > 0
        assert CountingPQ.occupancy_calls > 0

    def test_policy_subclass_gets_on_hit_calls(self, reuse_trace):
        _reset_counters()

        def swap(h):
            h.l1d.policy.__class__ = CountingLRU
            # Null the cache's memoised exact-type fast path the same
            # way Cache.__init__ would have (type(policy) is LRUPolicy
            # fails for the subclass).
            h.l1d._lru = None

        simulate(reuse_trace, post_build=swap)
        assert CountingLRU.on_hit_calls > 0

    def test_noprefetcher_subclass_gets_hook_calls(self, trace):
        _reset_counters()

        def swap(h):
            h.l1d_prefetcher.__class__ = CountingNoPrefetcher

        simulate(trace, post_build=swap)
        # pf_active must be True for a NoPrefetcher *subclass*: wrapped
        # or faulty prefetchers rely on their hooks being invoked.
        assert CountingNoPrefetcher.on_access_calls >= len(trace)

    def test_berti_subclass_gets_virtual_hooks(self, trace):
        _reset_counters()
        res = simulate(trace, l1d_prefetcher=CountingBerti())
        # kernel_hooks is read from the prefetcher's own class body, so
        # a subclass gets on_access per access, and its suggestions go
        # through the same issue path.
        assert CountingBerti.on_access_calls >= len(trace)
        assert res.to_dict() == simulate(
            trace, l1d_prefetcher=make_prefetcher("berti")).to_dict()

    def test_subclassed_run_matches_stock_run(self, trace):
        """The virtual path must be semantically identical to the fast
        path — subclass substitution changes dispatch, not results."""
        _reset_counters()

        def swap(h):
            h.l1d.__class__ = CountingCache
            h.l1d_mshr.__class__ = CountingMSHR
            h.pq.__class__ = CountingPQ

        stock = simulate(trace, l1d_prefetcher=make_prefetcher("berti"))
        subbed = simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                          post_build=swap)
        assert stock.to_dict() == subbed.to_dict()
