"""Differential lockstep oracle tests.

The reference engine (pure virtual dispatch, no memoised fast paths)
must be bit-identical to the optimized engine on every access; a seeded
divergence must be localized to the exact access index.
"""

import pytest

from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer.lockstep import (
    _first_diff,
    _state_digest,
    lockstep_multicore,
    lockstep_run,
    quick_trace,
)
from repro.sanitizer.reference import (
    ReferenceCache,
    ReferenceMSHR,
    ReferenceNoPrefetcher,
    is_reference,
    to_reference,
)
from repro.simulator.config import default_config
from repro.simulator.engine import Run, build_hierarchy, simulate


# A representative subset; the full registry sweep is `repro sancheck
# --quick` (exercised by the CI sanitize-smoke job).
L1D_SUBSET = ["none", "berti", "bop", "streamer"]


class TestLockstepAgreement:
    @pytest.mark.parametrize("l1d", L1D_SUBSET)
    def test_l1d_prefetchers_bit_identical(self, l1d):
        report = lockstep_run(quick_trace(900), l1d=l1d)
        assert report.ok, report.describe()
        assert report.diverged_at is None
        assert report.accesses == 900

    def test_l2_prefetcher_bit_identical(self):
        report = lockstep_run(quick_trace(900), l1d="berti", l2="spp")
        assert report.ok, report.describe()

    def test_multicore_bit_identical(self):
        traces = [quick_trace(500, "mix0"), quick_trace(500, "mix1")]
        report = lockstep_multicore(traces, ["berti", "none"])
        assert report.ok, report.describe()


class TestDivergenceLocalisation:
    def test_seeded_divergence_found_at_exact_access(self):
        report = lockstep_run(
            quick_trace(900), l1d="berti", seed_divergence=417
        )
        assert not report.ok
        assert report.diverged_at == 417
        assert report.field == "latency"
        assert report.optimized != report.reference
        assert "417" in report.describe()

    def test_divergence_at_first_access(self):
        report = lockstep_run(quick_trace(300), seed_divergence=0)
        assert not report.ok and report.diverged_at == 0

    def test_stats_drift_just_before_warmup_boundary_found(
            self, monkeypatch):
        # 600 records at the default warmup fraction end warmup at 120,
        # a digest point: the digest there must run before the stats
        # reset, which would otherwise erase a stats-only drift.
        import repro.sanitizer.lockstep as lockstep

        real_to_reference = lockstep.to_reference

        def drifting_reference(h):
            real_to_reference(h)
            inner = h.demand_access
            seen = [0]

            def demand(ip, vaddr, now, is_write=False):
                latency = inner(ip, vaddr, now, is_write)
                if seen[0] == 118:
                    h.l1d.stats.writebacks += 1
                seen[0] += 1
                return latency

            h.demand_access = demand
            return h

        monkeypatch.setattr(lockstep, "to_reference", drifting_reference)
        report = lockstep_run(quick_trace(600), digest_every=60)
        assert not report.ok
        assert report.diverged_at == 119
        assert report.field == "state:l1d_stats"


class TestStateDigest:
    def _pair(self):
        sides = []
        for _ in range(2):
            h = build_hierarchy(default_config(),
                                l1d_prefetcher=make_prefetcher("berti"))
            h.mmu.prewarm(quick_trace(600).line_addresses())
            for i in range(64):
                h.demand_access(0x40, (0x10000 + 4096 * i) << 6, 10 * i)
            sides.append(h)
        return sides

    def test_identical_hierarchies_agree(self):
        a, b = self._pair()
        da = _state_digest(a)
        assert da == _state_digest(b)
        assert da["page_table"] and da["next_ppage"] > 1
        assert any(da["dtlb"]) and any(da["stlb"])

    def test_stlb_lru_order_is_compared(self):
        a, b = self._pair()
        stlb = b.mmu.stlb
        age = stlb.policy._age
        for base in range(0, stlb.entries, stlb.ways):
            occupied = [s for s in range(base, base + stlb.ways) if age[s]]
            if len(occupied) >= 2:
                break
        # Same pages in the same slots, other LRU order.
        first, last = occupied[0], occupied[-1]
        age[first], age[last] = age[last], age[first]
        key, _, _ = _first_diff(_state_digest(a), _state_digest(b))
        assert key == "stlb"

    def test_dram_state_is_compared(self):
        a, b = self._pair()
        b.dram._banks[3].open_row += 1
        key, _, _ = _first_diff(_state_digest(a), _state_digest(b))
        assert key == "dram"

    def test_berti_tables_are_compared(self):
        def trained():
            run = Run.build(quick_trace(600), make_prefetcher("berti"))
            run.use_engine("classic").advance(600)
            return run.hierarchy

        def bump_coverage(pf):
            dt = pf.deltas
            e = next(e for e, n in enumerate(dt._slot_count) if n)
            dt._slot_cov[e * dt.config.deltas_per_entry] += 1

        def bump_timestamp(pf):
            hist = pf.history
            w = next(w for w, tag in enumerate(hist._tags) if tag >= 0)
            hist._tss[w] += 1

        a = _state_digest(trained())
        for key, bump in (("berti_deltas", bump_coverage),
                          ("berti_history", bump_timestamp)):
            b = trained()
            bump(b.l1d_prefetcher)
            assert _first_diff(a, _state_digest(b))[0] == key

    def test_ipcp_tables_are_compared(self):
        from repro.sanitizer.lockstep import ipcp_trace, small_ipcp

        def trained():
            run = Run.build(ipcp_trace(600), small_ipcp())
            run.use_engine("classic").advance(600)
            return run.hierarchy

        def live_rows(pf):
            return [r for r in range(pf._scalars[1]) if pf._bitmap[r]]

        def bump_stride(pf):
            pf._stride[0] += 1

        def bump_cspt(pf):
            pf._cspt_conf[0] ^= 1

        def bump_region(pf):
            pf._bitmap[live_rows(pf)[0]] ^= 1 << 5

        a = _state_digest(trained())
        assert a["ipcp"] is not None
        for bump in (bump_stride, bump_cspt, bump_region):
            b = trained()
            bump(b.l1d_prefetcher)
            assert _first_diff(a, _state_digest(b))[0] == "ipcp"
        # The live region rows are compared as a map: swapping two of
        # them (with the region index) changes no digest.
        b = trained()
        pf = b.l1d_prefetcher
        r, q = live_rows(pf)[:2]
        for column in (pf._region, pf._bitmap, pf._last, pf._direction):
            column[r], column[q] = column[q], column[r]
        pf.drop_index()
        assert _state_digest(b) == a


class TestReferenceEngine:
    def _hierarchy(self, l1d="none"):
        from repro.simulator.config import default_config

        return build_hierarchy(
            default_config(), l1d_prefetcher=make_prefetcher(l1d)
        )

    def test_to_reference_rewrites_components(self):
        h = to_reference(self._hierarchy())
        assert is_reference(h)
        assert type(h.l1d) is ReferenceCache
        assert type(h.l1d_mshr) is ReferenceMSHR
        assert type(h.l1d_prefetcher) is ReferenceNoPrefetcher
        # Memoised fast paths are nulled → virtual dispatch everywhere.
        assert h.l1d._lru is None and h.l1d._srrip_hit is None

    def test_to_reference_idempotent(self):
        h = to_reference(self._hierarchy())
        before = {n: type(getattr(h, n)) for n in
                  ("l1d", "l2", "llc", "l1d_mshr", "l2_mshr", "llc_mshr",
                   "pq", "l1d_prefetcher")}
        h2 = to_reference(h)  # second application must be a no-op
        assert h2 is h
        after = {n: type(getattr(h, n)) for n in before}
        assert after == before

    def test_real_prefetcher_kept(self):
        h = to_reference(self._hierarchy("berti"))
        # Only the *stock* NoPrefetcher is substituted; a real prefetcher
        # keeps its class (it has no fast-path twin to disable).
        assert not isinstance(h.l1d_prefetcher, NoPrefetcher)

    def test_reference_simulate_matches_optimized(self):
        trace = quick_trace(900)
        opt = simulate(trace, l1d_prefetcher=make_prefetcher("berti"))
        ref = simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                       post_build=to_reference)
        assert opt.to_dict() == ref.to_dict()


class TestSmallIPCPLeg:
    def test_every_ipcp_event_fires(self):
        from repro.sanitizer.lockstep import (
            IPCP_EVENTS,
            ipcp_events,
            ipcp_trace,
            small_ipcp,
        )

        events = ipcp_events(ipcp_trace(), small_ipcp())
        assert list(events) == list(IPCP_EVENTS)
        assert all(events[name] > 0 for name in IPCP_EVENTS), events
        # What the leg adds: on the quick trace the three IPs alias to
        # one IP-table entry, so these never fire there.
        quick = ipcp_events(quick_trace(), make_prefetcher("ipcp"))
        for name in ("cs", "cplx", "region_clear", "negative_target"):
            assert quick[name] == 0, (name, quick)


class TestQuickTrace:
    def test_deterministic(self):
        a, b = quick_trace(600), quick_trace(600)
        assert list(a) == list(b)
        assert len(a) == 600

    def test_mixes_reads_and_writes(self):
        t = quick_trace(600)
        writes = sum(1 for rec in t if rec[2])
        assert 0 < writes < len(t)


class TestSmallQueueLeg:
    """The small-MSHR/PQ leg of ``sancheck --quick``: the only leg whose
    prefetches reach every drop branch of the issue tail."""

    @pytest.fixture(scope="class")
    def mcf(self):
        from repro.workloads.catalog import resolve_trace

        return resolve_trace("mcf_s-1554B", 0.1)

    def test_every_drop_branch_counts(self, mcf):
        from repro.sanitizer.lockstep import QUEUE_DROPS, queue_drops

        assert len(mcf) == 1080
        assert queue_drops(mcf, "berti") == dict(
            zip(QUEUE_DROPS, (3487, 428, 1944, 29, 531, 172)))
        assert queue_drops(mcf, "ipcp") == dict(
            zip(QUEUE_DROPS, (741, 520, 475, 3, 483, 0)))

    def test_reference_engine_agrees(self, mcf):
        from repro.sanitizer.lockstep import small_queue_config

        report = lockstep_run(mcf, l1d="berti", config=small_queue_config())
        assert report.ok, report.describe()
