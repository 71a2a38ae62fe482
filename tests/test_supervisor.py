"""Tests for the campaign supervisor (PR 4).

Covers the four tentpole behaviours — heartbeat liveness, resource-aware
degradation, circuit breakers with half-open probes on resume, and
graceful signal-driven shutdown — each made deterministic by injecting
scripted clocks, scripted ``/proc`` readers, or real fork children.
"""

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.errors import ConfigError
from repro.runner import (
    CampaignSupervisor,
    ExperimentRunner,
    FaultSpec,
    JobSpec,
    Journal,
    QuarantinedRun,
    ResourceMonitor,
    ResourcePolicy,
    RunnerConfig,
    SupervisorConfig,
)

TRACE = "lbm_s-2676B"
TRACE2 = "mcf_s-1554B"
SCALE = 0.05

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="fork + POSIX signals required",
)


def fast_sup(**overrides) -> SupervisorConfig:
    base = dict(heartbeat_every=200, heartbeat_timeout=30.0,
                poll_interval=0.05, handle_signals=False)
    base.update(overrides)
    return SupervisorConfig(**base)


def make_group_jobs(n=3, fault=None, trace=TRACE, l1d="none"):
    """n jobs in the same (trace, l1d) breaker group, distinct keys."""
    return [
        JobSpec(trace=trace, l1d=l1d, scale=SCALE, fault=fault,
                warmup_fraction=0.2 + 0.01 * i)
        for i in range(n)
    ]


class TestConfig:
    def test_supervisor_needs_a_pool(self):
        with pytest.raises(ConfigError) as exc:
            CampaignSupervisor(RunnerConfig(workers=0))
        assert exc.value.field == "workers"

    def test_bad_quarantine_after(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(quarantine_after=0)

    def test_bad_heartbeat_timeout(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(heartbeat_timeout=0)

    def test_bad_deadline_factor(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(deadline_factor=0.5)


class TestDefaultPathUnchanged:
    def test_supervised_results_bit_identical_to_plain(self, tmp_path):
        jobs = [JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE),
                JobSpec(trace=TRACE2, l1d="ip_stride", scale=SCALE)]
        plain = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)
        supervised = CampaignSupervisor(
            RunnerConfig(workers=2, journal_path=tmp_path / "j.jsonl"),
            fast_sup(),
        ).run(jobs)
        assert not supervised.failures
        for job in jobs:
            assert (supervised.result(job.key).to_dict()
                    == plain.result(job.key).to_dict()), job.key


class TestCircuitBreaker:
    def test_retry_storm_trips_breaker_and_quarantines(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        jobs = make_group_jobs(4, fault=FaultSpec(kind="crash", period=3))
        runner = CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal),
            fast_sup(quarantine_after=2),
        )
        suite = runner.run(jobs)

        failed = [o for o in suite.failures
                  if not isinstance(o, QuarantinedRun)]
        quarantined = suite.quarantined
        assert len(failed) == 2        # exactly K strikes burned workers
        assert len(quarantined) == 2   # the rest skipped by the breaker
        for q in quarantined:
            assert q.kind == "quarantined"
            assert q.group == f"{TRACE}|none"
        assert "2 quarantined" in suite.banner()

        # Quarantined outcomes are journaled as typed records.
        records = Journal(journal).load()
        q_records = [r for r in records.values()
                     if r.get("status") == "quarantined"]
        assert len(q_records) == 2
        assert all(r["failures"] >= 2 for r in q_records)

    def test_success_resets_the_strike_count(self, tmp_path):
        # fail, fail, succeed, fail, fail: never 3 *consecutive*
        # failures → the breaker must stay closed (workers=1 keeps the
        # completion order sequential and deterministic).
        jobs = (make_group_jobs(2, fault=FaultSpec(kind="crash")) +
                [JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                         warmup_fraction=0.3)] +
                make_group_jobs(2, fault=FaultSpec(kind="crash", period=5)))
        runner = CampaignSupervisor(
            RunnerConfig(workers=1, retries=0,
                         journal_path=tmp_path / "j.jsonl"),
            fast_sup(quarantine_after=3),
        )
        suite = runner.run(jobs)
        assert not suite.quarantined
        assert len(suite.completed) == 1  # the clean job in the middle

    def test_half_open_probe_on_resume_closes_breaker(self, tmp_path):
        """Run 1 quarantines the group; the resumed run admits one probe,
        the probe succeeds (flaky passes on its retry), the breaker
        closes, and every remaining job completes."""
        journal = tmp_path / "j.jsonl"
        jobs = make_group_jobs(
            4, fault=FaultSpec(kind="flaky", fail_attempts=1))

        first = CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal),
            fast_sup(quarantine_after=1),
        ).run(jobs)
        assert len(first.quarantined) == 3  # job 1 tripped it immediately

        resumed = CampaignSupervisor(
            RunnerConfig(workers=1, retries=1, backoff_base=0.01,
                         journal_path=journal, resume=True),
            fast_sup(quarantine_after=1),
        )
        suite = resumed.run(jobs)
        assert len(suite.completed) == len(jobs)
        assert not suite.quarantined
        assert resumed._breakers[f"{TRACE}|none"].state == "closed"

    def test_failed_probe_requarantines_without_burning_the_group(
            self, tmp_path):
        journal = tmp_path / "j.jsonl"
        jobs = make_group_jobs(3, fault=FaultSpec(kind="crash", period=3))

        CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal),
            fast_sup(quarantine_after=1),
        ).run(jobs)

        resumed = CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal,
                         resume=True),
            fast_sup(quarantine_after=1),
        )
        suite = resumed.run(jobs)
        # One probe failed for real; everything else went straight back
        # to quarantine instead of re-running a known-bad config.
        real_failures = [o for o in suite.failures
                         if not isinstance(o, QuarantinedRun)]
        assert len(real_failures) == 1
        assert len(suite.quarantined) == 2
        assert resumed._breakers[f"{TRACE}|none"].state == "open"


class TestHeartbeatLiveness:
    def test_hung_worker_preempted_by_heartbeat_not_wall_clock(self):
        wall_budget = 300.0
        job = JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                      fault=FaultSpec(kind="hang", hang_seconds=600.0))
        started = time.monotonic()
        suite = CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, timeout=wall_budget),
            fast_sup(heartbeat_timeout=1.0),
        ).run([job])
        took = time.monotonic() - started

        [failed] = suite.failures
        assert failed.error_type == "HeartbeatTimeout"
        assert failed.kind == "timeout"
        assert took < wall_budget / 10  # liveness, not the wall clock

    def test_healthy_jobs_survive_supervision(self, tmp_path):
        jobs = [JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE)]
        suite = CampaignSupervisor(
            RunnerConfig(workers=1, timeout=300.0),
            fast_sup(heartbeat_every=100, heartbeat_timeout=5.0),
        ).run(jobs)
        assert not suite.failures


class TestResourceDegradation:
    def _scripted(self, values, default):
        calls = {"n": 0}

        def reader(*_args):
            calls["n"] += 1
            idx = calls["n"] - 1
            return values[idx] if idx < len(values) else default
        return reader

    def test_memory_pressure_degrades_then_restores(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        sup = fast_sup()
        # Plenty for 2 samples, starved for 4, then plenty again.
        monitor = ResourceMonitor(
            sup.policy,
            mem_reader=self._scripted(
                [4096.0] * 2 + [32.0] * 4, 4096.0),
            disk_reader=lambda path: 65536.0,
        )
        jobs = [JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                        warmup_fraction=0.2 + 0.01 * i,
                        fault=FaultSpec(kind="hang", hang_seconds=0.2))
                for i in range(4)]
        runner = CampaignSupervisor(
            RunnerConfig(workers=2, timeout=120.0, journal_path=journal),
            sup, monitor=monitor,
        )
        suite = runner.run(jobs)
        assert len(suite.completed) == 4  # degradation is graceful

        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        kinds = [e["event"] for e in manifest["events"]]
        assert "degrade" in kinds and "restore" in kinds
        assert manifest["workers_target_final"] == 2  # fully restored
        degrade = next(e for e in manifest["events"]
                       if e["event"] == "degrade")
        assert degrade["workers_target"] == 1  # pool was halved

    def test_full_disk_buffers_journal_until_it_clears(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        sup = fast_sup()
        # Disk reads (tick samples AND journal-guard checks share the
        # reader) report "full" for the first 20 calls — roughly the
        # first second of the campaign — so the first job's append is
        # guaranteed to be refused, then the disk "clears".
        monitor = ResourceMonitor(
            sup.policy,
            mem_reader=lambda: 65536.0,
            disk_reader=self._scripted([1.0] * 20, 65536.0),
        )
        jobs = [JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                        warmup_fraction=0.2 + 0.01 * i) for i in range(3)]
        runner = CampaignSupervisor(
            RunnerConfig(workers=1, timeout=120.0, journal_path=journal),
            sup, monitor=monitor,
        )
        suite = runner.run(jobs)
        assert len(suite.completed) == 3
        # Every outcome made it to disk once the guard cleared — degraded,
        # never lost — and the refusal is on record.
        records = Journal(journal).load()
        assert {j.key for j in jobs} <= set(records)
        assert not runner._journal_backlog
        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        kinds = [e["event"] for e in manifest["events"]]
        assert "journal-degraded" in kinds

    def test_rss_cap_preempts_fat_worker(self, tmp_path):
        from repro.runner.resources import process_rss_mb

        # Fork shares pages with this (possibly fat) pytest process, so
        # anchor the cap to our own RSS: only the balloon can exceed it.
        base = process_rss_mb(os.getpid()) or 128.0
        sup = fast_sup(policy=ResourcePolicy(
            max_worker_rss_mb=base + 128.0))
        monitor = ResourceMonitor(
            sup.policy,
            mem_reader=lambda: 65536.0,
            disk_reader=lambda path: 65536.0,
        )
        job = JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                      fault=FaultSpec(kind="balloon", balloon_mb=256,
                                      hang_seconds=600.0))
        suite = CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, timeout=600.0),
            sup, monitor=monitor,
        ).run([job])
        [failed] = suite.failures
        assert failed.kind == "resource"
        assert failed.error_type == "ResourceError"


class TestClockSkew:
    def test_forward_jump_does_not_expire_healthy_jobs(self, tmp_path):
        from repro.runner.chaos import SkewedClock

        clock = SkewedClock(jump=120.0, after=40)
        jobs = [JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                        fault=FaultSpec(kind="hang", hang_seconds=1.0))]
        runner = CampaignSupervisor(
            RunnerConfig(workers=1, timeout=30.0,
                         journal_path=tmp_path / "j.jsonl"),
            fast_sup(heartbeat_every=0, skew_threshold=30.0),
            now_fn=clock,
        )
        suite = runner.run(jobs)
        assert clock.jumped
        assert not suite.failures
        kinds = [e["event"] for e in runner._events]
        assert "clock-skew" in kinds


class TestManifest:
    def test_manifest_written_next_to_journal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        jobs = [JobSpec(trace=TRACE, l1d="none", scale=SCALE)]
        CampaignSupervisor(
            RunnerConfig(workers=1, journal_path=journal), fast_sup(),
        ).run(jobs)
        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        assert manifest["schema"] == 1
        assert manifest["interrupted"] is False
        assert manifest["hard_killed"] is False
        assert manifest["counts"] == {"ok": 1}
        assert manifest["quarantined_groups"] == []


# ----------------------------------------------------------------------
# Graceful shutdown (fork children so signals stay contained)
# ----------------------------------------------------------------------

def _drain_child(journal_str, hb_dir_str, hang_seconds):
    """Supervised campaign; exits 0 iff a drain left a resumable state."""
    jobs = [JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                    warmup_fraction=0.2 + 0.01 * i,
                    fault=FaultSpec(kind="hang", hang_seconds=hang_seconds))
            for i in range(4)]
    runner = CampaignSupervisor(
        RunnerConfig(workers=1, retries=0, timeout=1200.0,
                     journal_path=journal_str),
        SupervisorConfig(heartbeat_every=200, heartbeat_timeout=600.0,
                         poll_interval=0.05, heartbeat_dir=hb_dir_str,
                         handle_signals=True),
    )
    suite = runner.run(jobs)
    ok = suite.interrupted and 1 <= len(suite.outcomes) < 4
    os._exit(0 if ok else 7)


def _wait_for_heartbeat(hb_dir, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(hb_dir.glob("*.json")):
            return True
        time.sleep(0.02)
    return False


def _wait_for_death(proc, timeout):
    deadline = time.monotonic() + timeout
    while proc.is_alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not proc.is_alive()


@needs_fork
class TestGracefulShutdown:
    def test_first_sigint_drains_to_a_resumable_journal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        hb_dir = tmp_path / "hb"
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_drain_child,
                           args=(str(journal), str(hb_dir), 0.4))
        proc.start()
        try:
            assert _wait_for_heartbeat(hb_dir), "campaign never started"
            os.kill(proc.pid, signal.SIGINT)
            assert _wait_for_death(proc, 60.0), "drain never finished"
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert proc.exitcode == 0  # drained: partial but consistent

        # The journal is parseable and a plain resume finishes the rest.
        records = Journal(journal).load()
        assert 1 <= len(records) < 4
        jobs = [JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                        warmup_fraction=0.2 + 0.01 * i,
                        fault=FaultSpec(kind="hang", hang_seconds=0.4))
                for i in range(4)]
        executed = []

        def counting(job, attempt):
            executed.append(job.key)
            from repro.runner.worker import run_job
            return run_job(job, attempt)

        resumed = ExperimentRunner(
            RunnerConfig(workers=0, retries=0, journal_path=journal,
                         resume=True)
        ).run(jobs, run_fn=counting)
        assert len(resumed.completed) == 4
        assert set(executed) == {j.key for j in jobs} - set(records)

        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["hard_killed"] is False

    def test_second_sigint_hard_kills_within_bounded_grace(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        hb_dir = tmp_path / "hb"
        ctx = multiprocessing.get_context("fork")
        # Jobs hang ~forever: a drain can never finish on its own.
        proc = ctx.Process(target=_drain_child,
                           args=(str(journal), str(hb_dir), 600.0))
        proc.start()
        try:
            assert _wait_for_heartbeat(hb_dir), "campaign never started"
            os.kill(proc.pid, signal.SIGINT)   # drain (blocks forever)
            time.sleep(1.0)
            os.kill(proc.pid, signal.SIGINT)   # hard kill
            died = _wait_for_death(proc, 15.0)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert died, "second SIGINT did not kill within the 15s grace"
        assert proc.exitcode not in (0, None)

        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        assert manifest["hard_killed"] is True


# ----------------------------------------------------------------------
# Half-open probe audit trail + throughput edge cases (PR 6)
# ----------------------------------------------------------------------


class TestProbeAudit:
    def test_closed_probe_recorded_with_release_and_verdict(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        jobs = make_group_jobs(
            4, fault=FaultSpec(kind="flaky", fail_attempts=1))
        CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal),
            fast_sup(quarantine_after=1),
        ).run(jobs)

        resumed = CampaignSupervisor(
            RunnerConfig(workers=1, retries=1, backoff_base=0.01,
                         journal_path=journal, resume=True),
            fast_sup(quarantine_after=1),
        )
        resumed.run(jobs)
        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        [probe] = manifest["quarantine_probes"]
        assert probe["group"] == f"{TRACE}|none"
        assert probe["outcome"] == "closed"
        assert isinstance(probe["released_at"], float)
        assert probe["resolved_at"] >= probe["released_at"]
        # The event stream carries the same transition for debugging.
        kinds = [e["event"] for e in manifest["events"]]
        assert "breaker-probe" in kinds
        assert "breaker-probe-result" in kinds

    def test_failed_probe_recorded_as_reopened(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        jobs = make_group_jobs(3, fault=FaultSpec(kind="crash", period=3))
        CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal),
            fast_sup(quarantine_after=1),
        ).run(jobs)

        CampaignSupervisor(
            RunnerConfig(workers=1, retries=0, journal_path=journal,
                         resume=True),
            fast_sup(quarantine_after=1),
        ).run(jobs)
        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        [probe] = manifest["quarantine_probes"]
        assert probe["outcome"] == "reopened"
        assert probe["group"] == f"{TRACE}|none"

    def test_runs_without_probes_emit_an_empty_list(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        CampaignSupervisor(
            RunnerConfig(workers=1, journal_path=journal), fast_sup(),
        ).run([JobSpec(trace=TRACE, l1d="none", scale=SCALE)])
        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        assert manifest["quarantine_probes"] == []


class TestThroughputEdges:
    def test_zero_wall_time_emits_zero_not_a_crash(self):
        sup = CampaignSupervisor(RunnerConfig(workers=1), fast_sup())
        sup._now = lambda: 100.0
        sup._campaign_started = 100.0   # zero elapsed wall time
        sup._records_done = 500
        block = sup._throughput()
        assert block["campaign_seconds"] == 0.0
        assert block["records_per_sec"] == 0.0
        assert block["records_per_sec_busy"] == 0.0
        assert block["records_simulated"] == 500.0

    def test_unstarted_campaign_reports_zero_wall(self):
        sup = CampaignSupervisor(RunnerConfig(workers=1), fast_sup())
        assert sup._campaign_started is None
        block = sup._throughput()
        assert block["campaign_seconds"] == 0.0
        assert block["records_per_sec"] == 0.0

    def test_engine_breakdown_in_manifest(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        jobs = [
            JobSpec(trace=TRACE, l1d="none", scale=SCALE,
                    engine="native"),
            JobSpec(trace=TRACE, l1d="berti", scale=SCALE),
        ]
        CampaignSupervisor(
            RunnerConfig(workers=1, journal_path=journal), fast_sup(),
        ).run(jobs)
        manifest = json.loads(
            (tmp_path / "j.jsonl.manifest.json").read_text())
        tp = manifest["throughput"]
        assert set(tp["engines"]) == {"classic", "native"}
        assert tp["engines"]["native"] > 0
        assert tp["engines"]["classic"] > 0
