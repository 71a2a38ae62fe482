"""Tests for the campaign service (PR 6, ``repro.service``).

Unit-level coverage of every durability primitive — the CRC-framed
torn-tail-healing WAL, the checksum-verified result cache with
quarantine, the lease table with exactly-once requeue — plus the
scheduler itself (idempotent submission, backpressure, cancellation,
WAL-replay recovery) and the retrying HTTP client.  Whole-system crash
behaviour (SIGKILL, disconnects, corruption under load) lives in the
chaos harness (``repro chaos``, tests/test_chaos.py); these tests pin
the contracts each piece honours on its own, with injected clocks and
run functions so nothing here depends on timing.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    CacheCorruption,
    ConfigError,
    LeaseExpired,
    RecordLogError,
    ServiceError,
)
from repro.runner.jobs import JobSpec
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceConfig,
    read_endpoint,
)
from repro.service.daemon import (
    canonical_job_config,
    job_content_key,
    spec_from_dict,
    spec_to_dict,
    trace_digest,
)
from repro.service.leases import Lease, LeaseTable
from repro.service.resultcache import ResultCache, content_key
from repro.durability import RecordLog, canonical_json, crc32_of, read_log

TRACE = "lbm_s-2676B"
TRACE2 = "mcf_s-1554B"


# ----------------------------------------------------------------------
# Test doubles
# ----------------------------------------------------------------------


class FakeClock:
    """Injected monotonic clock: time moves only when told to."""

    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def fake_run(spec: JobSpec, attempt: int = 1) -> dict:
    """Deterministic stand-in for the simulation worker."""
    return {"trace": spec.trace, "l1d": spec.l1d, "attempt_seen": attempt}


def make_service(tmp_path, run_fn=fake_run, clock=None, **overrides):
    cfg = dict(state_dir=tmp_path / "state", workers=1,
               lease_duration=30.0, lease_poll=0.05)
    cfg.update(overrides)
    return CampaignService(ServiceConfig(**cfg), now_fn=clock or FakeClock(),
                           run_fn=run_fn)


def run_next(service) -> None:
    """Execute exactly one pending job inline (no worker threads)."""
    job = service._next_job()
    assert job is not None, "no pending job to run"
    lease = service.leases.lease_for(job.content_key)
    error = None
    result = None
    try:
        result = service._run_fn(job.spec, lease.attempt)
    except Exception as exc:  # noqa: BLE001 — mirrors the worker loop
        error = {"error_type": type(exc).__name__, "kind": "crash",
                 "message": str(exc)}
    service._record_attempt(job, lease.lease_id, lease.attempt,
                            result, error)


def run_all(service) -> None:
    while any(service._jobs[k].status == "pending"
              for k in service._pending):
        run_next(service)


def submit_specs(service, specs, idempotency_key=""):
    payload = {"jobs": [spec_to_dict(s) for s in specs]}
    if idempotency_key:
        payload["idempotency_key"] = idempotency_key
    return service.submit(payload)


SPECS = [JobSpec(trace=TRACE, l1d="none", scale=0.03),
         JobSpec(trace=TRACE2, l1d="berti", scale=0.03)]


# ----------------------------------------------------------------------
# WAL (the shared repro.durability.RecordLog): framing, healing, refusal
# ----------------------------------------------------------------------


class TestServiceWAL:
    def records(self, n=3):
        return [{"type": "campaign", "cid": f"c{i}"} for i in range(n)]

    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "service.wal"
        wal = RecordLog(path)
        for rec in self.records():
            wal.append(rec)
        wal.close()
        assert RecordLog(path).replay() == self.records()

    def test_seq_is_strictly_monotonic_on_disk(self, tmp_path):
        wal = RecordLog(tmp_path / "w.wal")
        for rec in self.records():
            wal.append(rec)
        wal.close()
        frames = [json.loads(line)
                  for line in (tmp_path / "w.wal").read_text().splitlines()]
        assert [f["seq"] for f in frames] == [1, 2, 3]
        assert all(f["crc"] == crc32_of(f["rec"]) for f in frames)

    def test_appends_after_replay_extend_the_sequence(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = RecordLog(path)
        wal.append({"type": "epoch", "epoch": 1})
        wal.close()
        resumed = RecordLog(path)
        resumed.replay()
        assert resumed.append({"type": "epoch", "epoch": 2}) == 2
        resumed.close()
        assert len(RecordLog(path).replay()) == 2

    def test_torn_tail_healed_at_every_byte_offset(self, tmp_path):
        """SIGKILL mid-append tears the final record at an arbitrary
        byte.  Every possible tear must heal to the last good record —
        replay returns the intact prefix and truncates the file so the
        next append starts a clean line."""
        path = tmp_path / "w.wal"
        wal = RecordLog(path)
        for rec in self.records(3):
            wal.append(rec)
        wal.close()
        raw = path.read_bytes()
        # Byte offset where the final frame starts.
        tail_start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        for cut in range(tail_start, len(raw)):
            torn = tmp_path / f"torn-{cut}.wal"
            torn.write_bytes(raw[:cut])
            replayed = RecordLog(torn).replay()
            if cut == len(raw) - 1:
                # Only the newline is gone: the final record is intact
                # and must survive.
                assert replayed == self.records(3), f"tear at byte {cut}"
            else:
                assert replayed == self.records(2), f"tear at byte {cut}"
                assert torn.read_bytes() == raw[:tail_start], \
                    f"tear at byte {cut} not healed"

    def test_healed_wal_accepts_new_appends(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = RecordLog(path)
        for rec in self.records(2):
            wal.append(rec)
        wal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # tear the tail
        resumed = RecordLog(path)
        assert resumed.replay() == self.records(1)
        resumed.append({"type": "drain", "epoch": 1})
        resumed.close()
        assert RecordLog(path).replay() == (
            self.records(1) + [{"type": "drain", "epoch": 1}]
        )

    def test_corruption_before_eof_is_refused(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = RecordLog(path)
        for rec in self.records(3):
            wal.append(rec)
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b'{"garbage": true}\n' + lines[2])
        with pytest.raises(RecordLogError, match="corrupt before EOF"):
            RecordLog(path).replay()

    def test_bitflip_mid_file_is_refused(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = RecordLog(path)
        for rec in self.records(3):
            wal.append(rec)
        wal.close()
        raw = bytearray(path.read_bytes())
        # Flip one byte inside the *first* record's payload: still JSON-
        # parseable garbage or a CRC mismatch — either way not at EOF.
        target = raw.index(b"c0")
        raw[target] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(RecordLogError, match="refusing to guess"):
            RecordLog(path).replay()

    def test_seq_gap_mid_file_is_refused(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = RecordLog(path)
        for rec in self.records(3):
            wal.append(rec)
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[2] + lines[1])  # 1, 3, 2
        with pytest.raises(RecordLogError, match="corrupt"):
            RecordLog(path).replay()

    def test_replay_after_append_is_a_bug(self, tmp_path):
        wal = RecordLog(tmp_path / "w.wal")
        wal.append({"type": "epoch", "epoch": 1})
        with pytest.raises(RecordLogError, match="before the first append"):
            wal.replay()
        wal.close()

    def test_canonical_json_is_deterministic(self):
        a = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
        b = canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
        assert a == b
        assert " " not in a
        assert crc32_of({"x": 1}) == crc32_of({"x": 1})
        assert crc32_of({"x": 1}) != crc32_of({"x": 2})


# ----------------------------------------------------------------------
# Result cache: verification + quarantine
# ----------------------------------------------------------------------


class TestResultCache:
    def test_put_get_roundtrip_counts_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"cycles": 42})
        assert cache.get("k1") == {"cycles": 42}
        assert cache.get("missing") is None
        assert cache.stats() == {"hits": 1, "misses": 1, "quarantined": 0,
                                 "entries": 1}

    def test_corrupt_entry_quarantined_never_served(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put("k1", {"cycles": 42})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheCorruption, match="recomputing"):
            cache.get("k1")
        assert not path.exists()  # moved aside, not readable as an entry
        quarantined = list((tmp_path / "cache").glob("*.quarantined-*"))
        assert len(quarantined) == 1  # preserved for post-mortem
        assert cache.quarantined == 1
        assert cache.get("k1") is None  # now a plain miss

    def test_reput_heals_a_quarantined_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put("k1", {"cycles": 42})
        path.write_bytes(b"not json at all")
        with pytest.raises(CacheCorruption):
            cache.get("k1")
        cache.put("k1", {"cycles": 42})
        assert cache.get("k1") == {"cycles": 42}

    def test_repeat_corruption_gets_distinct_quarantine_names(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for _ in range(2):
            path = cache.put("k1", {"cycles": 42})
            path.write_bytes(b"garbage")
            with pytest.raises(CacheCorruption):
                cache.get("k1")
        suffixes = sorted(p.name.rsplit("-", 1)[1] for p in
                          (tmp_path / "cache").glob("*.quarantined-*"))
        assert suffixes == ["0", "1"]

    def test_entry_swapped_between_keys_is_rejected(self, tmp_path):
        # A valid entry served under the wrong key is corruption too:
        # the body carries its own key and must match the filename.
        cache = ResultCache(tmp_path / "cache")
        a = cache.put("aaaa", {"cycles": 1})
        b = cache.put("bbbb", {"cycles": 2})
        b.write_bytes(a.read_bytes())
        with pytest.raises(CacheCorruption, match="does not match its key"):
            cache.get("bbbb")

    def test_reput_is_atomic_overwrite(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"cycles": 1})
        cache.put("k1", {"cycles": 2})
        assert cache.get("k1") == {"cycles": 2}
        assert cache.stats()["entries"] == 1


# ----------------------------------------------------------------------
# Content identity
# ----------------------------------------------------------------------


class TestContentKey:
    def test_identity_fields_change_the_key(self):
        base = JobSpec(trace=TRACE, l1d="berti", scale=0.1)
        assert job_content_key(base) == job_content_key(
            JobSpec(trace=TRACE, l1d="berti", scale=0.1))
        for variant in (
            JobSpec(trace=TRACE2, l1d="berti", scale=0.1),
            JobSpec(trace=TRACE, l1d="ip_stride", scale=0.1),
            JobSpec(trace=TRACE, l1d="berti", scale=0.2),
            JobSpec(trace=TRACE, l1d="berti", scale=0.1, mtps=1600),
            JobSpec(trace=TRACE, l1d="berti", scale=0.1,
                    warmup_fraction=0.5),
        ):
            assert job_content_key(variant) != job_content_key(base)

    def test_observation_knobs_do_not_change_the_key(self):
        # Heartbeats/sanitizer flags are observation, not identity —
        # mirrors their exclusion from JobSpec.key.
        base = JobSpec(trace=TRACE, l1d="berti", scale=0.1)
        tapped = JobSpec(trace=TRACE, l1d="berti", scale=0.1,
                         sanitize=True, heartbeat_every=100,
                         heartbeat_path="/tmp/hb.json")
        assert job_content_key(tapped) == job_content_key(base)

    def test_store_backed_jobs_hash_the_file_bytes(self, tmp_path):
        import hashlib

        store = tmp_path / "t.trc"
        store.write_bytes(b"trace bytes")
        spec = JobSpec(trace=TRACE, scale=0.1, trace_path=str(store))
        expected = "sha256:" + hashlib.sha256(b"trace bytes").hexdigest()
        assert trace_digest(spec) == expected
        assert trace_digest(JobSpec(trace=TRACE, scale=0.1)) == (
            f"catalog:{TRACE}:scale=0.1"
        )

    def test_config_resolution_lands_in_the_hash(self):
        # The DRAM rate resolves into actual SystemConfig field values,
        # so an mtps submission knob cannot collide with the default.
        base = canonical_job_config(JobSpec(trace=TRACE))
        fast = canonical_job_config(JobSpec(trace=TRACE, mtps=1600))
        assert fast["system"]["dram"] != base["system"]["dram"]
        assert "berti" in base and "job" in base

    def test_content_key_is_sha256_of_canonical_blob(self):
        key = content_key("sha256:abc", {"x": 1})
        assert len(key) == 64 and int(key, 16) >= 0
        assert key == content_key("sha256:abc", {"x": 1})
        assert key != content_key("sha256:abd", {"x": 1})

    def test_spec_dict_roundtrip_and_rejection(self):
        spec = SPECS[0]
        assert spec_from_dict(spec_to_dict(spec)) == spec
        with pytest.raises(ServiceError) as exc:
            spec_from_dict({"l1d": "berti"})  # no trace: malformed
        assert exc.value.status == 400


# ----------------------------------------------------------------------
# Lease table
# ----------------------------------------------------------------------


class TestLeaseTable:
    def test_grant_renew_release_lineage(self):
        table = LeaseTable(duration=10.0, epoch=1)
        lease = table.grant("job-a", attempt=1, now=100.0)
        assert lease.lease_id == "L1-1"
        assert lease.expires_at == 110.0
        table.renew(lease.lease_id, now=105.0, seq=7)
        assert lease.expires_at == 115.0 and lease.last_seq == 7
        table.release(lease.lease_id, "ok")
        events = [e["event"] for e in table.lineage("job-a")]
        assert events == ["grant", "renew", "ok"]
        assert not table.live()

    def test_one_live_lease_per_job(self):
        table = LeaseTable(duration=10.0)
        table.grant("job-a", attempt=1, now=0.0)
        with pytest.raises(LeaseExpired, match="grant refused"):
            table.grant("job-a", attempt=2, now=1.0)

    def test_renew_of_dead_lease_is_a_noop(self):
        table = LeaseTable(duration=10.0)
        table.renew("L1-99", now=0.0)  # must not raise or create state
        assert not table.live()

    def test_expiry_by_clock(self):
        table = LeaseTable(duration=10.0)
        lease = table.grant("job-a", attempt=1, now=0.0)
        assert table.expire(now=9.9) == []
        dead = table.expire(now=10.0)
        assert [d.lease_id for d in dead] == [lease.lease_id]
        [expiry] = [e for e in table.lineage("job-a")
                    if e["event"] == "expired"]
        assert expiry["reason"] == "no heartbeat before expiry"

    def test_dead_epoch_expires_immediately(self):
        # An epoch-1 lease surviving into an epoch-2 table models the
        # post-SIGKILL replay: its worker is provably dead, so expiry
        # must not wait out the clock.
        table = LeaseTable(duration=1e9, epoch=2)
        stale = Lease(lease_id="L1-1", job_key="job-a", attempt=1,
                      epoch=1, granted_at=0.0, expires_at=1e9)
        table._live["L1-1"] = stale
        table._by_job["job-a"] = "L1-1"
        dead = table.expire(now=0.0)
        assert [d.job_key for d in dead] == ["job-a"]
        [expiry] = [e for e in table.lineage("job-a")
                    if e["event"] == "expired"]
        assert expiry["reason"] == "daemon epoch lost"

    def test_requeue_budget_is_exactly_once_per_expiry(self):
        table = LeaseTable(duration=10.0, max_requeues=1)
        table.grant("job-a", attempt=1, now=0.0)
        table.expire(now=10.0)
        assert table.may_requeue("job-a")    # first expiry: requeue
        table.grant("job-a", attempt=2, now=20.0)
        table.expire(now=30.0)
        assert not table.may_requeue("job-a")  # budget spent: give up
        err = table.expiry_error("job-a")
        assert isinstance(err, LeaseExpired)
        assert "lost 2 leases" in str(err)

    def test_completed_job_is_never_requeued(self):
        table = LeaseTable(duration=10.0)
        lease = table.grant("job-a", attempt=1, now=0.0)
        table.release(lease.lease_id, "ok")
        assert not table.may_requeue("job-a")

    def test_late_result_release_returns_none(self):
        table = LeaseTable(duration=10.0)
        lease = table.grant("job-a", attempt=1, now=0.0)
        table.expire(now=10.0)
        assert table.release(lease.lease_id, "ok") is None
        table.record_late_result("job-a", lease.lease_id)
        assert table.lineage("job-a")[-1]["event"] == "late-result"

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            LeaseTable(duration=0.0)


# ----------------------------------------------------------------------
# Scheduler: submission, idempotency, backpressure, recovery
# ----------------------------------------------------------------------


class TestServiceConfig:
    @pytest.mark.parametrize("bad", [
        dict(workers=0), dict(lease_duration=0.0), dict(lease_poll=0.0),
        dict(max_queue=0), dict(max_requeues=-1),
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ConfigError):
            ServiceConfig(**bad)


class TestSubmission:
    def test_malformed_payloads_rejected(self, tmp_path):
        service = make_service(tmp_path)
        for payload in ({}, {"jobs": []}, {"jobs": "nope"},
                        {"jobs": ["not-an-object"]},
                        {"jobs": [{"l1d": "berti"}]}):
            with pytest.raises(ServiceError) as exc:
                service.submit(payload)
            assert exc.value.status == 400, payload

    def test_submit_compute_fetch(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, SPECS)
        assert resp["created"] and resp["cache_hits"] == 0
        assert resp["total"] == 2 and resp["state"] == "running"
        run_all(service)
        results = service.results(resp["campaign"])
        assert results["state"] == "done"
        assert [r["status"] for r in results["results"]] == ["ok", "ok"]
        assert results["results"][0]["result"]["trace"] == TRACE

    def test_duplicate_jobs_in_one_submission_compute_once(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, [SPECS[0], SPECS[0]])
        assert resp["total"] == 2  # both entries answered...
        run_all(service)
        assert service.jobs_computed == 1  # ...from one computation
        assert service.results(resp["campaign"])["state"] == "done"

    def test_resubmission_is_idempotent(self, tmp_path):
        service = make_service(tmp_path)
        first = submit_specs(service, SPECS)
        again = submit_specs(service, SPECS)
        assert again["campaign"] == first["campaign"]
        assert not again["created"]
        run_all(service)
        done = submit_specs(service, SPECS)
        assert done["cache_hits"] == 2 and done["all_cached"]
        assert service.jobs_computed == 2  # nothing recomputed

    def test_distinct_idempotency_keys_share_results(self, tmp_path):
        service = make_service(tmp_path)
        first = submit_specs(service, SPECS, idempotency_key="alpha")
        run_all(service)
        second = submit_specs(service, SPECS, idempotency_key="beta")
        assert second["campaign"] != first["campaign"]
        assert second["created"] and second["all_cached"]
        assert service.jobs_computed == 2  # cache served the second

    def test_job_order_does_not_change_the_campaign_id(self, tmp_path):
        service = make_service(tmp_path)
        first = submit_specs(service, SPECS)
        flipped = submit_specs(service, list(reversed(SPECS)))
        assert flipped["campaign"] == first["campaign"]

    def test_backpressure_refuses_with_retry_after(self, tmp_path):
        service = make_service(tmp_path, max_queue=1, retry_after=2.5)
        submit_specs(service, [SPECS[0]])
        with pytest.raises(ServiceError) as exc:
            submit_specs(service, [SPECS[1],
                                   JobSpec(trace=TRACE, l1d="berti",
                                           scale=0.07)])
        assert exc.value.status == 429
        assert exc.value.retry_after == 2.5

    def test_cached_jobs_bypass_backpressure(self, tmp_path):
        service = make_service(tmp_path, max_queue=1)
        submit_specs(service, [SPECS[0]])
        run_all(service)
        # The queue is empty again and these keys are cached: a huge
        # resubmission under a new idempotency key must not 429.
        resp = submit_specs(service, [SPECS[0]], idempotency_key="again")
        assert resp["all_cached"]

    def test_failures_are_never_memoized(self, tmp_path):
        calls = {"n": 0}

        def flaky(spec, attempt):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient blow-up")
            return fake_run(spec, attempt)

        service = make_service(tmp_path, run_fn=flaky)
        first = submit_specs(service, [SPECS[0]])
        run_all(service)
        results = service.results(first["campaign"])
        [failed] = results["results"]
        assert failed["status"] == "failed"
        assert failed["error"]["kind"] == "crash"
        # A fresh submission buys a fresh attempt — no negative caching.
        retry = submit_specs(service, [SPECS[0]], idempotency_key="retry")
        assert not retry["all_cached"]
        run_all(service)
        assert service.results(
            retry["campaign"])["results"][0]["status"] == "ok"

    def test_results_before_done_is_409(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, SPECS)
        with pytest.raises(ServiceError) as exc:
            service.results(resp["campaign"])
        assert exc.value.status == 409

    def test_unknown_campaign_is_404(self, tmp_path):
        service = make_service(tmp_path)
        for call in (service.status, service.results, service.cancel):
            with pytest.raises(ServiceError) as exc:
                call("c0000000000000000")
            assert exc.value.status == 404

    def test_cancel_stops_pending_but_spares_shared_jobs(self, tmp_path):
        service = make_service(tmp_path)
        both = submit_specs(service, SPECS)
        solo = submit_specs(service, [SPECS[0]], idempotency_key="solo")
        cancelled = service.cancel(both["campaign"])
        assert cancelled["state"] == "cancelled"
        # SPECS[0] is still wanted by the solo campaign; SPECS[1] is not.
        keys = [job_content_key(s) for s in SPECS]
        assert service._jobs[keys[0]].status == "pending"
        assert service._jobs[keys[1]].status == "cancelled"
        with pytest.raises(ServiceError, match="cancelled"):
            service.results(both["campaign"])
        run_all(service)
        assert service.results(solo["campaign"])["state"] == "done"

    def test_drain_refuses_submissions(self, tmp_path):
        service = make_service(tmp_path)
        service.drain()
        with pytest.raises(ServiceError) as exc:
            submit_specs(service, SPECS)
        assert exc.value.status == 503

    def test_status_reports_lease_and_lineage(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, [SPECS[0]])
        job = service._next_job()  # grant the lease, don't run yet
        status = service.status(resp["campaign"])
        [entry] = status["jobs"]
        assert entry["status"] == "leased"
        assert entry["lease"]["lease_id"] == job.lease_id
        assert entry["lineage"][0]["event"] == "grant"
        assert status["counts"] == {"leased": 1}

    def test_healthz_counters(self, tmp_path):
        service = make_service(tmp_path)
        submit_specs(service, SPECS)
        run_all(service)
        health = service.healthz()
        assert health["ok"] and health["epoch"] == 1
        assert health["queue_depth"] == 0
        assert health["jobs_computed"] == 2
        assert health["campaigns"] == 1
        assert health["cache"]["entries"] == 2

    def test_corrupt_cache_entry_requeues_on_fetch(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, SPECS)
        run_all(service)
        key = job_content_key(SPECS[0])
        entry = service.cache._entry(key)
        entry.write_bytes(b"rotted")
        with pytest.raises(ServiceError, match="recomputed") as exc:
            service.results(resp["campaign"])
        assert exc.value.status == 409
        run_all(service)  # the healed recompute
        results = service.results(resp["campaign"])
        assert all(r["status"] == "ok" for r in results["results"])
        assert service.cache.quarantined == 1


class TestRecovery:
    def test_restart_resumes_queue_and_results(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, SPECS)
        run_next(service)  # finish exactly one of the two jobs
        reference = service.cache.get(job_content_key(SPECS[0]))
        service.wal.close()

        resumed = make_service(tmp_path)
        assert resumed.epoch == 2
        keys = [job_content_key(s) for s in SPECS]
        assert resumed._jobs[keys[0]].status == "done"
        assert resumed._jobs[keys[1]].status == "pending"
        assert list(resumed._pending) == [keys[1]]
        run_all(resumed)
        results = resumed.results(resp["campaign"])
        assert results["state"] == "done"
        assert results["results"][0]["result"] == reference

    def test_open_lease_is_orphaned_and_requeued_once(self, tmp_path):
        service = make_service(tmp_path)
        submit_specs(service, [SPECS[0]])
        service._next_job()     # lease granted, worker "dies" here
        service.wal.close()

        resumed = make_service(tmp_path)
        key = job_content_key(SPECS[0])
        assert resumed._jobs[key].status == "pending"
        expiries = [r for r in read_log(
            resumed.state_dir / "service.wal")
            if r.get("type") == "lease-expired"]
        assert len(expiries) == 1
        assert expiries[0]["reason"] == "daemon epoch lost"
        assert expiries[0]["requeued"] is True
        resumed.wal.close()

    def test_cancellation_survives_replay(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, SPECS)
        service.cancel(resp["campaign"])
        service.wal.close()
        resumed = make_service(tmp_path)
        assert resumed._campaigns[resp["campaign"]].state == "cancelled"
        assert not resumed._pending
        resumed.wal.close()

    def test_idempotency_survives_replay(self, tmp_path):
        service = make_service(tmp_path)
        first = submit_specs(service, SPECS)
        run_all(service)
        service.wal.close()
        resumed = make_service(tmp_path)
        again = submit_specs(resumed, SPECS)
        assert again["campaign"] == first["campaign"]
        assert not again["created"]
        assert again["all_cached"]
        resumed.wal.close()


class TestLeaseExpiryInService:
    def test_expired_lease_requeues_then_fails_on_budget(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock, lease_duration=10.0,
                               max_requeues=1)
        resp = submit_specs(service, [SPECS[0]])
        key = job_content_key(SPECS[0])

        def expire_once():
            service._next_job()  # worker takes the lease and stalls
            clock.advance(11.0)
            now = clock()
            with service._lock:
                for lease in service.leases.expire(now):
                    job = service._jobs[lease.job_key]
                    requeue = service.leases.may_requeue(lease.job_key)
                    if requeue:
                        job.status = "pending"
                        service._pending.append(lease.job_key)
                    else:
                        exc = service.leases.expiry_error(lease.job_key)
                        job.status = "failed"
                        job.error = {"error_type": type(exc).__name__,
                                     "kind": "timeout",
                                     "message": str(exc)}
                        for cid in job.campaigns:
                            service._refresh_campaign(
                                service._campaigns[cid])

        expire_once()
        assert service._jobs[key].status == "pending"  # first: requeued
        expire_once()
        assert service._jobs[key].status == "failed"   # second: give up
        results = service.results(resp["campaign"])
        [failed] = results["results"]
        assert failed["status"] == "failed"
        assert failed["error"]["kind"] == "timeout"


# ----------------------------------------------------------------------
# Client: endpoint discovery, retry, backoff
# ----------------------------------------------------------------------


class TestReadEndpoint:
    def test_missing_endpoint_hints_at_serve(self, tmp_path):
        with pytest.raises(ServiceError, match="repro serve") as exc:
            read_endpoint(tmp_path)
        assert exc.value.status == 503

    def test_unreadable_endpoint_is_500(self, tmp_path):
        (tmp_path / "endpoint.json").write_text("{broken")
        with pytest.raises(ServiceError) as exc:
            read_endpoint(tmp_path)
        assert exc.value.status == 500

    def test_roundtrip(self, tmp_path):
        (tmp_path / "endpoint.json").write_text(
            json.dumps({"host": "127.0.0.1", "port": 8123, "pid": 1}))
        assert read_endpoint(tmp_path) == ("127.0.0.1", 8123)


def scripted_client(responses, **kwargs):
    """A ServiceClient whose transport replays a scripted sequence and
    whose sleeps are recorded instead of slept."""
    sleeps = []
    client = ServiceClient("127.0.0.1", 1, jitter_seed=7,
                           sleep_fn=sleeps.append, **kwargs)
    script = iter(responses)

    def fake_once(method, path, payload):
        item = next(script)
        if isinstance(item, Exception):
            raise item
        return item

    client._once = fake_once
    return client, sleeps


class TestClientRetry:
    def test_retries_transient_statuses_then_succeeds(self):
        client, sleeps = scripted_client([
            (503, 0.2, {"message": "draining"}),
            (429, None, {"message": "queue full"}),
            (200, None, {"ok": True}),
        ], retries=5)
        assert client.request("GET", "/v1/healthz") == {"ok": True}
        assert client.attempts_made == 3
        assert len(sleeps) == 2
        assert sleeps[0] == 0.2  # Retry-After wins over backoff

    def test_connection_errors_retry_too(self):
        client, sleeps = scripted_client([
            ConnectionRefusedError("nobody home"),
            (200, None, {"ok": True}),
        ], retries=2)
        assert client.request("GET", "/v1/healthz") == {"ok": True}
        assert len(sleeps) == 1

    def test_application_errors_do_not_retry(self):
        client, sleeps = scripted_client([
            (404, None, {"message": "unknown campaign"}),
        ], retries=5)
        with pytest.raises(ServiceError, match="unknown campaign") as exc:
            client.request("GET", "/v1/campaigns/cdead")
        assert exc.value.status == 404
        assert client.attempts_made == 1 and not sleeps

    def test_bounded_attempts_then_typed_failure(self):
        client, sleeps = scripted_client(
            [(503, None, {"message": "down"})] * 10, retries=2)
        with pytest.raises(ServiceError, match="after 3 attempts"):
            client.request("GET", "/v1/healthz")
        assert client.attempts_made == 3
        assert len(sleeps) == 2  # no sleep before the final raise

    def test_backoff_is_exponential_capped_and_jittered(self):
        client, sleeps = scripted_client(
            [(503, None, {})] * 8, retries=7,
            backoff_base=0.1, backoff_cap=1.0)
        with pytest.raises(ServiceError):
            client.request("GET", "/v1/healthz")
        raw = [0.1 * 2 ** i for i in range(7)]
        for got, base in zip(sleeps, raw):
            capped = min(1.0, base)
            assert 0.5 * capped <= got < 1.5 * capped
        # The cap bites: late sleeps never exceed 1.5 * cap.
        assert max(sleeps) < 1.5

    def test_jitter_is_deterministic_per_seed(self):
        a, sa = scripted_client([(503, None, {})] * 3, retries=2)
        b, sb = scripted_client([(503, None, {})] * 3, retries=2)
        for c in (a, b):
            with pytest.raises(ServiceError):
                c.request("GET", "/v1/healthz")
        assert sa == sb  # same seed, same schedule


# ----------------------------------------------------------------------
# HTTP API end to end (loopback, fake run_fn: fast and deterministic)
# ----------------------------------------------------------------------


@pytest.fixture()
def live_service(tmp_path):
    # start() launches the HTTP thread, the lease monitor, and the
    # configured worker pool — the same wiring ``repro serve`` uses.
    service = make_service(tmp_path)
    service.start()
    try:
        yield service
    finally:
        service.stop(timeout=10.0)


class TestHTTPRoundTrip:
    def test_submit_poll_fetch_over_http(self, live_service, tmp_path):
        host, port = live_service.address
        assert read_endpoint(tmp_path / "state") == (host, port)
        client = ServiceClient(host, port, retries=3, jitter_seed=1)
        resp = client.submit([spec_to_dict(s) for s in SPECS])
        assert resp["created"]
        final = client.poll(resp["campaign"], interval=0.05, timeout=30.0)
        assert final["state"] == "done"
        results = client.results(resp["campaign"])
        assert [r["status"] for r in results["results"]] == ["ok", "ok"]
        health = client.healthz()
        assert health["ok"] and health["jobs_computed"] == 2

    def test_unknown_routes_and_campaigns_are_404(self, live_service):
        host, port = live_service.address
        client = ServiceClient(host, port, retries=3)
        with pytest.raises(ServiceError) as exc:
            client.request("GET", "/v1/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.status("c0000000000000000")
        assert exc.value.status == 404
        assert client.attempts_made == 2  # neither error was retried

    def test_keep_alive_requests_do_not_stall(self, live_service):
        # Ten requests on one connection.  With Nagle on the handler's
        # two-write replies, each reuse waited out the client's delayed
        # ACK (~40 ms, ~400 ms in total).
        import http.client
        import time

        host, port = live_service.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            t0 = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.2, f"10 keep-alive requests took {elapsed:.3f}s"

    def test_bad_json_body_is_400(self, live_service):
        import http.client

        host, port = live_service.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("POST", "/v1/campaigns", body=b"{not json",
                         headers={"Content-Length": "9"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()


class TestNativeJobs:
    def test_two_workers_on_berti_jobs_match_classic(self, tmp_path,
                                                     monkeypatch):
        # Real jobs on two worker threads, on the default (native)
        # engine: the payloads the service caches are exactly what the
        # classic engine computes for the same specs.
        import dataclasses
        import time

        from repro.native import build as native_build
        from repro.runner.worker import run_job

        kernel_calls = []
        call_span = native_build.call_span

        def counted(fn, state):
            kernel_calls.append(1)
            return call_span(fn, state)

        monkeypatch.setattr(native_build, "call_span", counted)
        specs = [JobSpec(trace=trace, l1d="berti", scale=scale)
                 for trace in (TRACE, TRACE2) for scale in (0.05, 0.1)]
        service = CampaignService(ServiceConfig(
            state_dir=tmp_path / "state", workers=2, lease_duration=30.0,
            lease_poll=0.05))
        service.start()
        try:
            cid = submit_specs(service, specs)["campaign"]
            deadline = time.monotonic() + 120.0
            while service.status(cid)["state"] != "done":
                assert time.monotonic() < deadline, service.status(cid)
                time.sleep(0.05)
            results = service.results(cid)["results"]
        finally:
            service.stop(timeout=10.0)
        assert service.jobs_computed == len(specs)
        if native_build.kernel_available()[0] is not None:
            assert kernel_calls, "the service's jobs never ran the kernel"
        for spec, entry in zip(specs, results):
            assert entry["status"] == "ok", entry
            classic = run_job(dataclasses.replace(spec, engine="classic"))
            assert entry["result"] == classic.to_dict(), spec.key


class TestServeCommand:
    def test_sigterm_as_soon_as_endpoint_is_published_drains(
            self, tmp_path):
        # A client may stop the daemon the moment endpoint.json appears.
        # The child sends itself SIGTERM right after start(); `repro
        # serve` must drain and exit 0, not die of the signal (-15).
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "from repro.service import CampaignService\n"
            "start = CampaignService.start\n"
            "def start_then_term(self):\n"
            "    start(self)\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "CampaignService.start = start_then_term\n"
            "sys.exit(main(['serve', '--state-dir', sys.argv[1],\n"
            "               '--workers', '1']))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "state")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "draining" in proc.stderr
