"""Tests for the multi-host worker fleet (PR 8, ``repro.fleet``).

Unit-level coverage of the fleet pieces — the deterministic
fault-injecting transport, the typed error branch, the defensive
Retry-After handling in the client, the daemon-side agent registry and
manifest — plus the daemon's agent endpoints driven with injected
clocks and run functions, WAL replay with interleaved multi-agent
epochs, and one live end-to-end agent over real HTTP.  Whole-system
network-failure behaviour (partitions, SIGKILL, duplicate delivery,
poisoned trace stores) lives in the chaos harness (``repro chaos``).
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.errors import (
    AgentLost,
    DigestMismatch,
    FleetError,
    ServiceError,
    TransportError,
)
from repro.fleet import (
    AgentRegistry,
    FaultPlan,
    FaultyTransport,
    FleetAgent,
    FleetManifest,
)
from repro.fleet.transport import parse_retry_after
from repro.runner.jobs import JobSpec
from repro.service import CampaignService, ServiceClient, ServiceConfig
from repro.service.client import _sanitize_retry_after
from repro.service.daemon import (
    job_content_key,
    spec_from_dict,
    spec_to_dict,
)
from repro.durability import read_log

TRACE = "lbm_s-2676B"
TRACE2 = "mcf_s-1554B"

SPECS = [JobSpec(trace=TRACE, l1d="none", scale=0.03),
         JobSpec(trace=TRACE2, l1d="berti", scale=0.03)]


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


class FakeInner:
    """Recording transport double under the fault injector."""

    def __init__(self, response=(200, None, {"ok": True})):
        self.sent = []
        self.response = response

    def send(self, method, path, payload=None):
        self.sent.append((method, path, payload))
        return self.response


def fake_run(spec: JobSpec, attempt: int = 1) -> dict:
    return {"trace": spec.trace, "l1d": spec.l1d, "attempt_seen": attempt}


def make_service(tmp_path, run_fn=fake_run, clock=None, **overrides):
    cfg = dict(state_dir=tmp_path / "state", workers=1,
               lease_duration=30.0, lease_poll=0.05)
    cfg.update(overrides)
    return CampaignService(ServiceConfig(**cfg),
                           now_fn=clock or FakeClock(), run_fn=run_fn)


def submit_specs(service, specs):
    return service.submit({"jobs": [spec_to_dict(s) for s in specs]})


def register(service, name="a1"):
    return service.agent_register(
        {"name": name, "host": "testhost", "pool": 1})["agent"]


def deliver(service, agent_id, entry, status="ok", result=None, error=None):
    payload = {"lease_id": entry["lease_id"],
               "content_key": entry["content_key"],
               "attempt": entry["attempt"], "status": status}
    if status == "ok":
        payload["result"] = result or fake_run(
            spec_from_dict(entry["spec"]), entry["attempt"])
    if error is not None:
        payload["error"] = error
    return service.agent_result(agent_id, payload)


# ----------------------------------------------------------------------
# Retry-After: defensive parsing at both layers (satellite: client fix)
# ----------------------------------------------------------------------


class TestRetryAfterDefense:
    @pytest.mark.parametrize("raw,expected", [
        ("0.5", 0.5), (" 2 ", 2.0), (0, 0.0), (3, 3.0),
        (None, None), ("soon", None), ("", None),
        ("nan", None), ("inf", None), ("-inf", None), (-5, 0.0),
    ])
    def test_transport_header_parse(self, raw, expected):
        assert parse_retry_after(raw) == expected

    @pytest.mark.parametrize("raw", [
        None, "soon", "", "nan", "inf", "-inf", -1, -0.001, 1e9, 3601,
        object(),
    ])
    def test_client_rejects_unusable_hints(self, raw):
        assert _sanitize_retry_after(raw) is None

    @pytest.mark.parametrize("raw,expected", [
        (0.2, 0.2), ("1.5", 1.5), (0, 0.0), (3600, 3600.0),
    ])
    def test_client_accepts_sane_hints(self, raw, expected):
        assert _sanitize_retry_after(raw) == expected

    def _client(self, sleeps):
        return ServiceClient("h", 1, retries=2, backoff_base=0.1,
                             jitter_seed=0, sleep_fn=sleeps.append)

    def test_sane_retry_after_wins_over_backoff(self, tmp_path):
        sleeps = []
        client = self._client(sleeps)
        script = iter([(429, 0.2, {"message": "busy"}),
                       (200, None, {"done": True})])
        client._once = lambda *a: next(script)
        assert client.request("GET", "/v1/healthz") == {"done": True}
        assert sleeps == [0.2]

    @pytest.mark.parametrize("bad", ["soon", "nan", -3, 1e9, None])
    def test_malformed_retry_after_falls_back_to_backoff(self, bad):
        """The pinned regression: a garbage header must neither crash
        the retry loop nor park the client; the computed jittered
        backoff is used instead."""
        sleeps = []
        client = self._client(sleeps)
        script = iter([(503, bad, {"message": "flaky"}),
                       (200, None, {"done": True})])
        client._once = lambda *a: next(script)
        assert client.request("GET", "/v1/healthz") == {"done": True}
        assert len(sleeps) == 1
        # jitter in [0.5x, 1.5x) of base * 2^0
        assert 0.05 <= sleeps[0] < 0.15


# ----------------------------------------------------------------------
# Typed errors (satellite: FleetError branch)
# ----------------------------------------------------------------------


class TestFleetErrors:
    def test_hierarchy_and_retryability(self):
        assert issubclass(FleetError, ServiceError)
        for cls in (TransportError, AgentLost, DigestMismatch):
            assert issubclass(cls, FleetError)
        assert TransportError("x").retryable
        assert AgentLost("x").retryable
        assert not DigestMismatch("x").retryable

    def test_agent_tag_renders_and_pickles(self):
        exc = FleetError("agent went dark", status=410, agent="A7")
        assert "A7" in str(exc)
        assert exc.status == 410
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.agent == "A7"
        assert clone.status == 410
        assert str(clone) == str(exc)

    def test_digest_mismatch_is_conflict(self):
        exc = DigestMismatch("bytes drifted", trace=TRACE, agent="A1")
        assert exc.status == 409
        assert exc.trace == TRACE

    def test_transport_wraps_raw_network_errors(self):
        from repro.fleet.transport import HTTPTransport

        transport = HTTPTransport("127.0.0.1", 1, timeout=0.2)
        with pytest.raises(TransportError):
            transport.send("GET", "/v1/healthz")


# ----------------------------------------------------------------------
# FaultyTransport: deterministic network fire
# ----------------------------------------------------------------------


class TestFaultyTransport:
    def test_clean_passthrough(self):
        inner = FakeInner()
        faulty = FaultyTransport(inner)
        assert faulty.send("GET", "/x") == (200, None, {"ok": True})
        assert faulty.stats.sent == faulty.stats.delivered == 1

    def test_drop_request_never_reaches_inner(self):
        inner = FakeInner()
        faulty = FaultyTransport(inner, FaultPlan(drop_requests=(1,)))
        with pytest.raises(TransportError):
            faulty.send("GET", "/x")
        assert inner.sent == []
        assert faulty.send("GET", "/x")[0] == 200
        assert faulty.stats.dropped_requests == 1

    def test_drop_response_after_delivery(self):
        """The at-least-once hazard: the server acted, the client saw
        an error — exactly what forces idempotent result recording."""
        inner = FakeInner()
        faulty = FaultyTransport(inner, FaultPlan(drop_responses=(1,)))
        with pytest.raises(TransportError):
            faulty.send("POST", "/x", {"n": 1})
        assert len(inner.sent) == 1
        assert faulty.stats.dropped_responses == 1

    def test_duplicate_delivers_twice(self):
        inner = FakeInner()
        faulty = FaultyTransport(inner, FaultPlan(duplicates=(1,)))
        assert faulty.send("POST", "/x", {"n": 1})[0] == 200
        assert len(inner.sent) == 2
        assert faulty.stats.duplicated == 1

    def test_reorder_redelivers_stale_copy_before_next_send(self):
        inner = FakeInner()
        faulty = FaultyTransport(inner, FaultPlan(reorders=(1,)))
        faulty.send("POST", "/a", {"n": 1})
        assert len(inner.sent) == 1
        faulty.send("POST", "/b", {"n": 2})
        assert [s[1] for s in inner.sent] == ["/a", "/a", "/b"]
        assert faulty.stats.reordered == 1

    def test_path_selectors_match_substring(self):
        inner = FakeInner()
        faulty = FaultyTransport(
            inner, FaultPlan(duplicate_paths=("/result",)))
        faulty.send("POST", "/v1/agents/A1/result", {})
        faulty.send("POST", "/v1/agents/A1/lease", {})
        assert faulty.stats.duplicated == 1
        assert len(inner.sent) == 3

    def test_partition_toggle_and_window(self):
        inner = FakeInner()
        faulty = FaultyTransport(inner, FaultPlan(partitions=((2, 4),)))
        assert faulty.send("GET", "/x")[0] == 200       # n=1
        for _ in range(2):                              # n=2, n=3
            with pytest.raises(TransportError):
                faulty.send("GET", "/x")
        assert faulty.send("GET", "/x")[0] == 200       # n=4
        faulty.set_partitioned(True)
        with pytest.raises(TransportError):
            faulty.send("GET", "/x")
        faulty.set_partitioned(False)
        assert faulty.send("GET", "/x")[0] == 200
        assert faulty.stats.partitioned == 3

    def test_block_paths_gate_until_unblocked(self):
        inner = FakeInner()
        faulty = FaultyTransport(inner, FaultPlan(block_paths=("/lease",)))
        with pytest.raises(TransportError):
            faulty.send("POST", "/v1/agents/A1/lease", {})
        assert faulty.send("POST", "/v1/agents/A1/renew", {})[0] == 200
        faulty.unblock("/lease")
        assert faulty.send("POST", "/v1/agents/A1/lease", {})[0] == 200

    def test_seeded_rates_replay_identically(self):
        def fates(seed):
            inner = FakeInner()
            faulty = FaultyTransport(
                inner, FaultPlan(seed=seed, drop_rate=0.4))
            out = []
            for _ in range(32):
                try:
                    faulty.send("GET", "/x")
                    out.append("ok")
                except TransportError:
                    out.append("drop")
            return out

        assert fates(7) == fates(7)
        assert fates(7) != fates(8)

    def test_delay_sleeps_deterministically(self):
        slept = []
        inner = FakeInner()
        faulty = FaultyTransport(
            inner, FaultPlan(seed=3, delay=0.01, delay_jitter=0.02),
            sleep_fn=slept.append)
        for _ in range(8):
            faulty.send("GET", "/x")
        assert len(slept) == 8
        assert all(0.01 <= s < 0.03 for s in slept)


# ----------------------------------------------------------------------
# AgentRegistry: lifecycle state machine + breaker
# ----------------------------------------------------------------------


class TestAgentRegistry:
    def registry(self, clock=None, **kw):
        return AgentRegistry(timeout=10.0, clock=clock or FakeClock(), **kw)

    def test_register_touch_activate(self):
        reg = self.registry()
        rec = reg.register(name="n", host="h", pool=2)
        assert rec.agent_id == "A1" and rec.state == "registered"
        assert rec.leasable
        reg.activate(rec.agent_id)
        assert reg.get(rec.agent_id).state == "active"

    def test_unknown_agent_is_410(self):
        reg = self.registry()
        with pytest.raises(FleetError) as err:
            reg.touch("A99")
        assert err.value.status == 410
        with pytest.raises(FleetError):
            reg.drain("A99")

    def test_stale_agent_reaped_then_rejoins(self):
        clock = FakeClock()
        reg = self.registry(clock=clock)
        rec = reg.register()
        assert reg.reap_stale() == []
        clock.advance(10.1)
        dead = reg.reap_stale()
        assert [r.agent_id for r in dead] == [rec.agent_id]
        assert rec.state == "dead" and rec.deaths == 1
        assert not rec.live and not rec.leasable
        reg.touch(rec.agent_id)
        assert rec.state == "active" and rec.rejoins == 1

    def test_drain_lifecycle(self):
        reg = self.registry()
        rec = reg.register()
        reg.drain(rec.agent_id)
        assert rec.state == "draining"
        assert rec.live and not rec.leasable
        reg.mark_drained(rec.agent_id)
        assert rec.state == "drained" and not rec.live

    def test_breaker_trips_after_consecutive_failures(self):
        reg = self.registry(breaker_after=3)
        rec = reg.register()
        reg.activate(rec.agent_id)
        assert reg.record_result(rec.agent_id, "failed") is None
        assert reg.record_result(rec.agent_id, "ok") is None  # resets
        for _ in range(2):
            assert reg.record_result(rec.agent_id, "failed") is None
        assert reg.record_result(rec.agent_id, "refused") == "quarantined"
        assert rec.state == "quarantined" and not rec.leasable
        reg.reset_breaker(rec.agent_id)
        assert rec.state == "active" and rec.consecutive_failures == 0


# ----------------------------------------------------------------------
# FleetManifest: durable degraded windows
# ----------------------------------------------------------------------


class TestFleetManifest:
    def test_events_and_windows(self, tmp_path):
        clock = FakeClock()
        manifest = FleetManifest(tmp_path / "m.json", clock=clock)
        manifest.record("agent-registered", agent="A1")
        manifest.enter_degraded("zero agents")
        manifest.enter_degraded("zero agents")  # idempotent
        assert manifest.degraded
        clock.advance(5.0)
        assert manifest.exit_degraded() == pytest.approx(5.0)
        assert not manifest.degraded
        windows = manifest.degraded_windows()
        assert len(windows) == 1
        assert windows[0]["end"] - windows[0]["start"] == pytest.approx(5.0)
        assert windows[0]["recovered"] is True
        kinds = [e["event"] for e in manifest.events()]
        assert kinds == ["agent-registered", "degraded-enter",
                        "degraded-exit"]

    def test_open_window_survives_reload_unrecovered(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = FleetManifest(path, clock=FakeClock())
        manifest.enter_degraded("zero agents")
        reloaded = FleetManifest(path, clock=FakeClock())
        windows = reloaded.degraded_windows()
        assert len(windows) == 1
        assert windows[0]["recovered"] is False

    def test_torn_file_tolerated(self, tmp_path):
        # Beyond-recovery garbage: the manifest stays usable and the
        # loss is recorded as an event instead of silently discarded.
        path = tmp_path / "m.json"
        path.write_text("{torn", encoding="utf-8")
        manifest = FleetManifest(path, clock=FakeClock())
        kinds = [e["event"] for e in manifest.events()]
        assert kinds == ["manifest-unrecoverable"]
        manifest.record("agent-registered", agent="A1")
        assert [e["event"] for e in manifest.events()] == [
            "manifest-unrecoverable", "agent-registered"]

    def test_torn_tail_healed_to_prefix(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = FleetManifest(path, clock=FakeClock())
        for i in range(5):
            manifest.record(f"event-{i}")
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[:len(raw) // 2], encoding="utf-8")
        reloaded = FleetManifest(path, clock=FakeClock())
        kinds = [e["event"] for e in reloaded.events()]
        assert kinds[-1] == "manifest-healed"
        recovered = [k for k in kinds if k.startswith("event-")]
        assert recovered == [f"event-{i}" for i in range(len(recovered))]


# ----------------------------------------------------------------------
# Daemon agent endpoints (injected clock, no threads)
# ----------------------------------------------------------------------


class TestDaemonFleet:
    def test_register_lease_result_roundtrip(self, tmp_path):
        service = make_service(tmp_path)
        submit_specs(service, SPECS)
        aid = register(service)
        resp = service.agent_lease(aid, {"max": 2})
        assert len(resp["leases"]) == 2
        for entry in resp["leases"]:
            assert entry["trace_digest"].startswith("catalog:")
            out = deliver(service, aid, entry)
            assert out["recorded"] is True and out["duplicate"] is False
        record = service.fleet.get(aid)
        assert record.results_ok == 2 and record.state == "active"
        keys = [job_content_key(s) for s in SPECS]
        assert all(service._jobs[k].status == "done" for k in keys)

    def test_live_agent_blocks_local_pool(self, tmp_path):
        service = make_service(tmp_path)
        submit_specs(service, [SPECS[0]])
        register(service)
        assert service._fleet_blocks_local()
        # the job stays queued for the agent; local workers stand down
        key = job_content_key(SPECS[0])
        assert service._jobs[key].status == "pending"

    def test_duplicate_delivery_drops_late(self, tmp_path):
        service = make_service(tmp_path)
        submit_specs(service, [SPECS[0]])
        aid = register(service)
        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        first = deliver(service, aid, entry)
        second = deliver(service, aid, entry)
        assert first["recorded"] and not second["recorded"]
        assert second["duplicate"] is True
        lineage = service.leases.lineage(entry["content_key"])
        assert [e["event"] for e in lineage] == ["grant", "ok",
                                                 "late-result"]
        assert service.fleet.get(aid).results_ok == 1

    def test_unknown_agent_answers_410(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(FleetError) as err:
            service.agent_lease("A99", {"max": 1})
        assert err.value.status == 410

    def test_refusal_burns_requeue_budget(self, tmp_path):
        service = make_service(tmp_path, max_requeues=1)
        submit_specs(service, [SPECS[0]])
        aid = register(service)
        key = job_content_key(SPECS[0])
        error = {"error_type": "DigestMismatch", "kind": "trace",
                 "message": "bytes drifted"}

        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        out = deliver(service, aid, entry, status="refused", error=error)
        assert out["recorded"] is True
        assert service._jobs[key].status == "pending"  # requeued once

        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        assert entry["attempt"] == 2
        deliver(service, aid, entry, status="refused", error=error)
        assert service._jobs[key].status == "failed"   # budget exhausted
        refused = [r for r in read_log(
            service.state_dir / "service.wal")
            if r.get("type") == "refused"]
        assert [r["requeued"] for r in refused] == [True, False]
        assert all(r["agent"] == aid for r in refused)
        assert service.fleet.get(aid).results_refused == 2

    def test_dead_agent_leases_requeue_and_degrade(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock, lease_duration=5.0)
        submit_specs(service, [SPECS[0]])
        aid = register(service)
        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        key = entry["content_key"]

        clock.advance(3.0)
        renew = service.agent_renew(aid, {"leases": [entry["lease_id"]]})
        assert renew["ok"] == [entry["lease_id"]]

        clock.advance(5.1)  # past both lease expiry and agent timeout
        service._monitor_tick(clock())
        assert service.fleet.get(aid).state == "dead"
        assert service._jobs[key].status == "pending"
        assert service.fleet_status()["degraded"] is True
        expiry = [r for r in read_log(
            service.state_dir / "service.wal")
            if r.get("type") == "lease-expired"]
        assert len(expiry) == 1
        assert expiry[0]["agent"] == aid
        assert expiry[0]["reason"] == "agent lost"

        # Rejoin: next contact revives the agent and ends degradation.
        resp = service.agent_lease(aid, {"max": 1})
        assert len(resp["leases"]) == 1  # the requeued job, attempt 2
        assert resp["leases"][0]["attempt"] == 2
        assert service.fleet.get(aid).rejoins == 1
        assert service.fleet_status()["degraded"] is False
        events = [e["event"] for e in service.manifest.events()]
        for needed in ("agent-dead", "agent-requeue", "degraded-enter",
                       "agent-rejoined", "degraded-exit"):
            assert needed in events, events

    def test_renew_reports_lost_leases(self, tmp_path):
        clock = FakeClock()
        service = make_service(tmp_path, clock=clock, lease_duration=5.0,
                               agent_timeout=60.0)
        submit_specs(service, [SPECS[0]])
        aid = register(service)
        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        clock.advance(5.1)  # lease expires; agent itself is not stale
        service._monitor_tick(clock())
        renew = service.agent_renew(aid, {"leases": [entry["lease_id"]]})
        assert renew["lost"] == [entry["lease_id"]]
        assert renew["ok"] == []

    def test_quarantined_agent_is_refused_leases(self, tmp_path):
        service = make_service(tmp_path, agent_quarantine_after=1)
        submit_specs(service, SPECS)
        aid = register(service)
        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        deliver(service, aid, entry, status="failed",
                error={"error_type": "RuntimeError", "kind": "crash",
                       "message": "boom"})
        assert service.fleet.get(aid).state == "quarantined"
        assert "agent-quarantined" in [
            e["event"] for e in service.manifest.events()]
        assert service.agent_lease(aid, {"max": 1})["leases"] == []
        # quarantined != leasable: the local pool takes over
        assert not service._fleet_blocks_local()

    def test_drain_completes_when_no_leases_in_flight(self, tmp_path):
        service = make_service(tmp_path)
        submit_specs(service, [SPECS[0]])
        aid = register(service)
        entry = service.agent_lease(aid, {"max": 1})["leases"][0]
        assert service.agent_drain(aid)["state"] == "draining"
        assert service.agent_lease(aid, {"max": 1})["leases"] == []
        deliver(service, aid, entry)  # last in-flight result lands
        assert service.fleet.get(aid).state == "drained"

    def test_healthz_and_fleet_status_expose_fleet(self, tmp_path):
        service = make_service(tmp_path)
        health = service.healthz()
        assert health["fleet"] == {"agents": 0, "engaged": False,
                                   "degraded": False}
        aid = register(service)
        assert service.healthz()["fleet"]["agents"] == 1
        fleet = service.fleet_status()
        assert fleet["engaged"] is True
        assert [a["agent"] for a in fleet["agents"]] == [aid]


# ----------------------------------------------------------------------
# WAL replay with interleaved multi-agent epochs (satellite)
# ----------------------------------------------------------------------


class TestMultiAgentReplay:
    def test_replay_reconstructs_both_lease_lineages(self, tmp_path):
        service = make_service(tmp_path)
        resp = submit_specs(service, SPECS)
        a1, a2 = register(service, "a1"), register(service, "a2")
        e1 = service.agent_lease(a1, {"max": 1})["leases"][0]
        e2 = service.agent_lease(a2, {"max": 1})["leases"][0]
        assert {e1["content_key"]} != {e2["content_key"]}
        deliver(service, a1, e1)           # a1 finishes its job
        service.wal.close()                # a2's lease dies with epoch 1

        revived = make_service(tmp_path)
        assert revived.epoch == 2
        done_key, open_key = e1["content_key"], e2["content_key"]
        assert revived._jobs[done_key].status == "done"
        assert revived._jobs[open_key].status == "pending"

        # Only the dead epoch's *open* lease was orphaned — exactly one.
        orphans = [r for r in read_log(
            revived.state_dir / "service.wal")
            if r.get("type") == "lease-expired"
            and r.get("reason") == "daemon epoch lost"]
        assert len(orphans) == 1
        assert orphans[0]["agent"] == a2
        assert orphans[0]["content_key"] == open_key
        assert orphans[0]["requeued"] is True

        # Both lineages reconstructed, each attributed to its agent.
        line1 = revived.leases.lineage(done_key)
        assert [e["event"] for e in line1] == ["grant", "ok"]
        assert line1[0]["agent"] == a1
        line2 = revived.leases.lineage(open_key)
        assert [e["event"] for e in line2] == ["grant", "expired"]
        assert line2[0]["agent"] == a2
        assert line2[1]["reason"] == "daemon epoch lost"

        # The registry died with the old epoch: old ids answer 410 and
        # the agents re-register, then the campaign finishes.
        with pytest.raises(FleetError) as err:
            revived.agent_lease(a2, {"max": 1})
        assert err.value.status == 410
        a2b = register(revived, "a2")
        entry = revived.agent_lease(a2b, {"max": 1})["leases"][0]
        assert entry["content_key"] == open_key
        assert entry["attempt"] == 2
        deliver(revived, a2b, entry)
        assert revived.results(resp["campaign"])["state"] == "done"

    def test_requeue_budget_survives_restart(self, tmp_path):
        """An orphaned lease's expiry must still count against the
        budget after replay — epochs cannot launder requeue credits."""
        service = make_service(tmp_path, max_requeues=1)
        submit_specs(service, [SPECS[0]])
        a1 = register(service)
        service.agent_lease(a1, {"max": 1})
        service.wal.close()                 # expiry #1 (epoch lost)

        revived = make_service(tmp_path, max_requeues=1)
        key = job_content_key(SPECS[0])
        assert revived._jobs[key].status == "pending"
        assert revived.leases.may_requeue(key) is True
        a1b = register(revived)
        entry = revived.agent_lease(a1b, {"max": 1})["leases"][0]
        revived.wal.close()                 # expiry #2: budget exhausted

        final = make_service(tmp_path, max_requeues=1)
        assert final.leases.may_requeue(key) is False
        assert entry["attempt"] == 2


# ----------------------------------------------------------------------
# FleetAgent: digest verification + live end-to-end
# ----------------------------------------------------------------------


class TestFleetAgent:
    def test_verify_digest_refuses_drifted_bytes(self, tmp_path):
        from repro.memory.tracestore import file_digest

        path = tmp_path / "t.trc"
        path.write_bytes(b"store bytes v1")
        promised = file_digest(path)
        agent = FleetAgent.__new__(FleetAgent)  # no network needed
        agent.agent_id = "A1"
        spec = JobSpec(trace=TRACE, l1d="none", scale=0.03,
                       trace_path=str(path))
        agent._verify_digest(spec, promised)    # matching bytes pass
        path.write_bytes(b"store bytes v2")
        with pytest.raises(DigestMismatch):
            agent._verify_digest(spec, promised)
        # catalog identities have nothing on disk to verify
        agent._verify_digest(spec, "catalog:xyz")

    def test_live_agent_runs_campaign_end_to_end(self, tmp_path):
        service = make_service(tmp_path, clock=None)
        service.start()
        agent = None
        try:
            host, port = service.address
            agent = FleetAgent(host, port, pool=2, name="t",
                               run_fn=fake_run, poll=0.02, retries=2,
                               backoff_base=0.02, jitter_seed=0)
            agent.start()
            resp = submit_specs(service, SPECS)
            client = ServiceClient(host, port, retries=3, jitter_seed=0)
            status = client.poll(resp["campaign"], interval=0.05,
                                 timeout=30.0)
            assert status["state"] == "done"
            # the agent (not the local pool) did the work
            record = service.fleet.get(agent.agent_id)
            assert record.results_ok == len(SPECS)
            # the daemon counts a result the moment it lands; the agent
            # bumps jobs_done only after its POST returns, so give the
            # worker threads a beat to catch up
            deadline = time.monotonic() + 5.0
            while agent.jobs_done < len(SPECS) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert agent.jobs_done == len(SPECS)
            results = client.results(resp["campaign"])
            assert all(r["status"] == "ok" for r in results["results"])
        finally:
            if agent is not None:
                agent.stop()
            service.stop()
