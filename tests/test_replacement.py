"""Unit tests for replacement policies."""

import pytest

from repro.memory.replacement import (
    DRRIPPolicy,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_policy,
)


class TestLRU:
    def test_evicts_least_recently_used(self):
        p = LRUPolicy(1, 4)
        for way in range(4):
            p.on_fill(0, way)
        p.on_hit(0, 0)  # way 0 becomes MRU
        assert p.victim(0) == 1

    def test_fill_counts_as_use(self):
        p = LRUPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        assert p.victim(0) == 0

    def test_sets_are_independent(self):
        p = LRUPolicy(2, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        p.on_fill(1, 1)
        p.on_fill(1, 0)
        assert p.victim(0) == 0
        assert p.victim(1) == 1


class TestFIFO:
    def test_evicts_oldest_fill(self):
        p = FIFOPolicy(1, 3)
        for way in (2, 0, 1):
            p.on_fill(0, way)
        assert p.victim(0) == 2

    def test_hits_do_not_refresh(self):
        p = FIFOPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 0)
        assert p.victim(0) == 0


class TestRandom:
    def test_victim_in_range(self):
        p = RandomPolicy(1, 4, seed=42)
        for _ in range(50):
            assert 0 <= p.victim(0) < 4

    def test_deterministic_with_seed(self):
        a = [RandomPolicy(1, 8, seed=1).victim(0) for _ in range(5)]
        b = [RandomPolicy(1, 8, seed=1).victim(0) for _ in range(5)]
        assert a == b


class TestSRRIP:
    def test_fill_inserts_long_rereference(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0)
        assert p._rrpv[0] == SRRIPPolicy.MAX_RRPV - 1  # slot 0: set 0 way 0

    def test_hit_promotes_to_zero(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_hit(0, 0)
        assert p._rrpv[0] == 0

    def test_victim_prefers_distant(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 0)
        assert p.victim(0) == 1

    def test_victim_ages_until_found(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 0)
        p.on_hit(0, 1)
        way = p.victim(0)
        assert way in (0, 1)
        assert p._rrpv[way] == SRRIPPolicy.MAX_RRPV  # set 0: slot == way


class TestDRRIP:
    def test_leader_sets_disjoint(self):
        p = DRRIPPolicy(64, 4)
        assert not (p._srrip_leaders & p._brrip_leaders)

    def test_record_miss_moves_psel(self):
        p = DRRIPPolicy(64, 4)
        start = p._psel
        p.record_miss(0)   # SRRIP leader -> increment
        assert p._psel == start + 1
        p.record_miss(16)  # BRRIP leader -> decrement
        assert p._psel == start

    def test_follower_uses_duel_winner(self):
        p = DRRIPPolicy(64, 4)
        p._psel = 0
        assert not p._use_brrip(1)
        p._psel = p._psel_max
        assert p._use_brrip(1)

    def test_brrip_mostly_distant(self):
        p = DRRIPPolicy(64, 4)
        p._psel = p._psel_max
        rrpvs = {p.insertion_rrpv(1) for _ in range(200)}
        assert SRRIPPolicy.MAX_RRPV in rrpvs


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "fifo", "random", "srrip", "drrip"])
    def test_known_policies(self, name):
        p = make_policy(name, 4, 4)
        assert p.num_sets == 4 and p.num_ways == 4

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("plru", 4, 4)

    def test_case_insensitive(self):
        assert isinstance(make_policy("LRU", 2, 2), LRUPolicy)
