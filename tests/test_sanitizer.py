"""SimSan runtime invariant checker tests.

Covers: configuration validation, neutrality (a sanitized run is
bit-identical to an unsanitized one), detection of seeded corruptions
in every structure family, and end-to-end localisation — a corruption
injected mid-simulation surfaces as a typed SanitizerError naming the
access index and the offending structure.
"""

import pytest

from repro.errors import ConfigError, SanitizerError
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer import (
    SanitizerConfig,
    attach_sanitizer,
    check_hierarchy,
)
from repro.sanitizer.invariants import (
    check_berti,
    check_cache,
    check_mshr,
    check_pq,
    check_replacement,
    check_tlb,
)
from repro.sanitizer.lockstep import quick_trace
from repro.simulator.engine import build_hierarchy, simulate
from repro.simulator.config import default_config


@pytest.fixture
def trace():
    return quick_trace(900, "san_trace")


def warmed_hierarchy(trace, l1d="berti"):
    """A hierarchy that has simulated ``trace`` (state left in place)."""
    box = {}

    def keep(h):
        box["h"] = h

    simulate(trace, l1d_prefetcher=make_prefetcher(l1d), post_build=keep)
    return box["h"]


class TestConfig:
    def test_defaults_valid(self):
        cfg = SanitizerConfig()
        assert cfg.check_every == 64 and "mshr" in cfg.families

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigError, match="check_every"):
            SanitizerConfig(check_every=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown sanitizer"):
            SanitizerConfig(families=frozenset({"cache", "typo"}))


class TestNeutrality:
    def test_sanitized_run_bit_identical(self, trace):
        base = simulate(trace, l1d_prefetcher=make_prefetcher("berti"))
        san = simulate(
            trace,
            l1d_prefetcher=make_prefetcher("berti"),
            sanitize=SanitizerConfig(check_every=16),
        )
        assert base.to_dict() == san.to_dict()

    def test_clean_state_has_no_violations(self, trace):
        h = warmed_hierarchy(trace)
        assert check_hierarchy(h) == []


class TestDetection:
    """Each family catches a seeded corruption of its structure."""

    def test_cache_valid_count_drift(self, trace):
        h = warmed_hierarchy(trace)
        h.l1d._valid_count[0] += 1
        names = [v[0] for v in check_cache(h.l1d)]
        assert "l1d" in names

    def test_cache_where_points_at_wrong_way(self, trace):
        h = warmed_hierarchy(trace)
        line, way = next(iter(h.l1d._where.items()))
        h.l1d._where[line] = (way + 1) % h.l1d.ways
        assert check_cache(h.l1d)

    def test_lru_age_collision(self, trace):
        h = warmed_hierarchy(trace)
        sidx = next(
            s for s in range(h.l1d.num_sets)
            if h.l1d._valid_count[s] >= 2
        )
        ages = h.l1d.policy._age
        base = sidx * h.l1d.ways
        valid_slots = [slot for slot in range(base, base + h.l1d.ways)
                       if h.l1d.valid[slot]]
        ages[valid_slots[1]] = ages[valid_slots[0]]
        msgs = [v[1] for v in check_replacement(h.l1d)]
        assert any("uniqueness" in m for m in msgs)

    def test_rrpv_out_of_range(self, trace):
        h = warmed_hierarchy(trace)
        sidx = next(
            s for s in range(h.l2.num_sets) if h.l2._valid_count[s]
        )
        h.l2.policy._rrpv[sidx * h.l2.ways] = 7  # way 0 of the set
        msgs = [v[1] for v in check_replacement(h.l2)]
        assert any("RRPV" in m for m in msgs)

    def test_prefetch_bit_on_invalid_slot(self, trace):
        # prefetched_line_counts reads the prefetch bit without the
        # valid bit, so a stray bit on an empty way must be caught.
        h = warmed_hierarchy(trace)
        slot = h.llc.valid.index(0)
        h.llc.pref[slot] = 1
        msgs = [v[1] for v in check_cache(h.llc)]
        assert any("prefetch bit" in m for m in msgs)

    def test_drrip_psel_out_of_range(self, trace):
        h = warmed_hierarchy(trace)
        h.llc.policy._psel = 4096
        msgs = [v[1] for v in check_replacement(h.llc)]
        assert any("PSEL" in m for m in msgs)

    @pytest.mark.parametrize("kind, fragment", [
        ("unindexed", "missing from _map"),
        ("empty", "points at empty slot"),
        ("misindexed", "holding vpage"),
        ("wrong_set", "outside its set"),
        ("duplicate", "in slots"),
        ("ahead", "ahead of set clock"),
        ("shared_age", "uniqueness"),
    ])
    def test_tlb_corruption(self, trace, kind, fragment):
        h = warmed_hierarchy(trace)
        stlb = h.mmu.stlb
        assert check_tlb(stlb) == []
        age, vpages, tmap = stlb.policy._age, stlb.vpages, stlb._map
        a, b = next(
            occupied[:2] for base in range(0, stlb.entries, stlb.ways)
            if len(occupied := [s for s in range(base, base + stlb.ways)
                                if age[s]]) >= 2
        )
        if kind == "unindexed":
            del tmap[vpages[a]]
        elif kind == "empty":
            tmap[-7] = age.index(0)
        elif kind == "misindexed":
            tmap[vpages[a]] = b
        elif kind == "wrong_set":
            del tmap[vpages[a]]
            vpages[a] += 1
            tmap[vpages[a]] = a
        elif kind == "duplicate":
            del tmap[vpages[b]]
            vpages[b] = vpages[a]
        elif kind == "ahead":
            age[a] = stlb.policy._clock[a // stlb.ways] + 5
        else:
            age[b] = age[a]
        found = check_hierarchy(h, frozenset({"cache"}))
        assert any(fragment in v[1] for v in found), found
        assert {v[0] for v in found} <= {"stlb", "stlb.policy"}

    def test_mshr_timestamp_monotonicity(self):
        from repro.memory.mshr import MSHR

        mshr = MSHR(4)
        e = mshr.allocate(0x10, now=100, ready_cycle=200, is_prefetch=False)
        e.ready_cycle = 50  # ready before alloc: impossible
        msgs = [v[1] for v in check_mshr(mshr, "l1d_mshr")]
        assert any("monotonicity" in m for m in msgs)

    def test_mshr_leaked_entry(self):
        from repro.memory.mshr import MSHR

        mshr = MSHR(4)
        mshr.allocate(0x10, now=100, ready_cycle=200, is_prefetch=False)
        mshr._last_expire = 500  # scan claimed to run at 500; entry stayed
        msgs = [v[1] for v in check_mshr(mshr, "l1d_mshr")]
        assert any("leaked" in m for m in msgs)

    def test_mshr_unsound_min_ready_guard(self):
        from repro.memory.mshr import MSHR

        mshr = MSHR(4)
        mshr.allocate(0x10, now=100, ready_cycle=200, is_prefetch=False)
        mshr._min_ready = 10_000  # guard would skip scans that have work
        msgs = [v[1] for v in check_mshr(mshr, "l1d_mshr")]
        assert any("unsound" in m for m in msgs)

    def test_pq_fifo_discipline(self):
        from repro.memory.hierarchy import _FIFOQueue

        pq = _FIFOQueue(8)
        pq.push(10)    # services at 11.0
        pq.push(10.5)  # queues behind it, services at 12.0
        pq._service_times[0] = 99.0  # older entry now services later
        msgs = [v[1] for v in check_pq(pq)]
        assert any("FIFO" in m for m in msgs)

    def test_berti_counter_overflow(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        table = h.l1d_prefetcher.deltas
        e = next(i for i, v in enumerate(table._valid) if v)
        table._counters[e] = table.config.counter_max + 5
        msgs = [v[1] for v in check_berti(h.l1d_prefetcher,
                                          "l1d_prefetcher")]
        assert any("search counter" in m for m in msgs)

    def test_berti_coverage_exceeds_counter(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        table = h.l1d_prefetcher.deltas
        e = next(
            i for i, v in enumerate(table._valid)
            if v and table._slot_count[i] > 0
        )
        # Slot 0 of entry e in the flat slot columns.
        table._slot_cov[e * table.config.deltas_per_entry] = (
            table._counters[e] + 1)
        msgs = [v[1] for v in check_berti(h.l1d_prefetcher,
                                          "l1d_prefetcher")]
        assert any("exceeds" in m for m in msgs)

    def test_berti_by_delta_mirror_broken(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        table = h.l1d_prefetcher.deltas
        e = next(
            i for i, v in enumerate(table._valid)
            if v and table._slot_count[i] > 0
        )
        del table._by_delta[e][
            table._slot_delta[e * table.config.deltas_per_entry]]
        assert check_berti(h.l1d_prefetcher, "l1d_prefetcher")

    def test_berti_stale_prediction_cache(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        table = h.l1d_prefetcher.deltas
        e = next(
            i for i, v in enumerate(table._valid)
            if v and table._warmed[i]
        )
        table._pf_cache[e] = [(77, 1)]  # no slot holds delta 77
        msgs = [v[1] for v in check_berti(h.l1d_prefetcher,
                                          "l1d_prefetcher")]
        assert any("stale pf_cache" in m for m in msgs)

    def test_berti_history_ring_discipline(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        hist = h.l1d_prefetcher.history
        ways = hist.config.history_ways
        sidx = next(
            s for s in range(hist.config.history_sets)
            if sum(hist._tags[s * ways + w] >= 0 for w in range(ways)) >= 2
        )
        base = sidx * ways
        occupied = [w for w in range(ways) if hist._tags[base + w] >= 0]
        a, b = base + occupied[0], base + occupied[1]
        # Swap the two rows column-wise: orders no longer monotone.
        for col in (hist._tags, hist._lines, hist._tss, hist._orders):
            col[a], col[b] = col[b], col[a]
        assert check_berti(h.l1d_prefetcher, "l1d_prefetcher")

    def test_berti_history_chain_drift(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        hist = h.l1d_prefetcher.history
        dq = next(
            dq for chains in hist._chains for dq in chains.values() if dq
        )
        dq.append((123456, 7))  # phantom entry not present in the ring
        msgs = [v[1] for v in check_berti(h.l1d_prefetcher,
                                          "l1d_prefetcher")]
        assert any("skip chains" in m for m in msgs)

    def test_berti_victim_heap_missing_candidate(self, trace):
        h = warmed_hierarchy(trace, l1d="berti")
        table = h.l1d_prefetcher.deltas
        per = table.config.deltas_per_entry
        e = next(
            i for i, v in enumerate(table._valid)
            if v and any(
                st in (0, 3)  # NO_PREF / L2_PREF_REPL: candidates
                for st in table._slot_status[
                    i * per: i * per + table._slot_count[i]]
            )
        )
        del table._evict_heap[e][:]
        msgs = [v[1] for v in check_berti(h.l1d_prefetcher,
                                          "l1d_prefetcher")]
        assert any("victim heap" in m for m in msgs)


class TestEndToEnd:
    def test_mid_run_corruption_localised(self, trace):
        """A corruption at access N raises SanitizerError *at* N with the
        structure named (check_every=1 gives exact localisation)."""
        corrupt_at = 400
        calls = [0]

        def hook(h):
            inner = h.demand_access

            def corruptor(ip, vaddr, now, is_write=False):
                latency = inner(ip, vaddr, now, is_write)
                calls[0] += 1
                if calls[0] == corrupt_at:
                    h.l1d._valid_count[0] += 1
                return latency

            h.demand_access = corruptor
            # Attached last → outermost → checks run after the corruptor.
            attach_sanitizer(
                h, SanitizerConfig(check_every=1), trace="san_trace"
            )

        with pytest.raises(SanitizerError) as exc_info:
            simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                     post_build=hook)
        err = exc_info.value
        assert err.access_index == corrupt_at
        assert err.structure == "l1d"
        assert err.dump  # structure dump attached
        assert "l1d" in str(err)

    def test_families_can_be_narrowed(self, trace):
        """A corruption outside the enabled families is not reported."""
        h = warmed_hierarchy(trace)
        h.l1d._valid_count[0] += 1
        assert check_hierarchy(h, frozenset({"mshr", "pq"})) == []
        assert check_hierarchy(h, frozenset({"cache"}))

    def test_sanitizer_error_pickles(self, trace):
        import pickle

        err = SanitizerError(
            "boom", trace="t", prefetcher="berti", access_index=7,
            structure="l1d_mshr", dump={"line": 3},
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.access_index == 7
        assert clone.structure == "l1d_mshr"
        assert clone.dump == {"line": 3}
