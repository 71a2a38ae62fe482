"""Tests for the resilient experiment runner.

The acceptance bar: faulted campaigns complete with correct failure
classification, survivors are bit-identical to a clean serial run, and
an interrupted + resumed campaign executes exactly the jobs that were
missing — with an identical final table.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.runner import (
    CallableJob,
    CompletedRun,
    ExperimentRunner,
    FailedRun,
    FaultSpec,
    JobSpec,
    Journal,
    RunnerConfig,
    build_matrix_jobs,
    per_trace_results,
    run_callable,
)

TRACE = "lbm_s-2676B"
TRACE2 = "mcf_s-1554B"
SCALE = 0.05


def make_jobs(prefetchers=("ip_stride", "berti"), traces=(TRACE, TRACE2)):
    return build_matrix_jobs(list(traces), list(prefetchers), scale=SCALE)


class TestInline:
    def test_all_complete(self):
        suite = ExperimentRunner(RunnerConfig(workers=0)).run(make_jobs())
        assert len(suite.completed) == 4 and not suite.failures
        assert suite.banner() == "4/4 jobs completed"

    def test_outcomes_in_submission_order(self):
        jobs = make_jobs()
        suite = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)
        assert [o.key for o in suite.outcomes] == [j.key for j in jobs]

    def test_crash_isolated_to_one_job(self):
        jobs = list(make_jobs(traces=(TRACE,))) + [
            JobSpec(trace=TRACE2, l1d="berti", scale=SCALE,
                    fault=FaultSpec(kind="crash", period=3)),
        ]
        suite = ExperimentRunner(RunnerConfig(workers=0, retries=0)).run(jobs)
        assert len(suite.completed) == 2
        [failed] = suite.failures
        assert failed.kind == "crash"
        assert failed.error_type == "SimulationError"
        assert "InjectedCrash" in failed.message
        assert failed.context["trace"] == TRACE2
        assert "1 crash" in suite.banner()

    def test_trace_error_never_retried(self):
        calls = []

        def run_fn(job, attempt):
            calls.append(attempt)
            from repro.errors import TraceError
            raise TraceError("permanently bad")

        suite = ExperimentRunner(RunnerConfig(workers=0, retries=3)).run(
            [JobSpec(trace=TRACE, scale=SCALE)], run_fn=run_fn
        )
        assert calls == [1]
        assert suite.failures[0].kind == "trace"

    def test_flaky_job_retried_then_succeeds(self):
        job = JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE,
                      fault=FaultSpec(kind="flaky", fail_attempts=1))
        cfg = RunnerConfig(workers=0, retries=1, backoff_base=0.01)
        suite = ExperimentRunner(cfg).run([job])
        [done] = suite.completed
        assert done.attempts == 2

    def test_flaky_job_exhausts_retries(self):
        job = JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE,
                      fault=FaultSpec(kind="flaky", fail_attempts=5))
        cfg = RunnerConfig(workers=0, retries=1, backoff_base=0.01)
        suite = ExperimentRunner(cfg).run([job])
        [failed] = suite.failures
        assert failed.kind == "crash" and failed.attempts == 2

    def test_duplicate_keys_rejected(self):
        job = JobSpec(trace=TRACE, scale=SCALE)
        with pytest.raises(ConfigError):
            ExperimentRunner(RunnerConfig()).run([job, job])

    def test_callable_jobs(self):
        jobs = [CallableJob(key=f"k{i}", fn=lambda i=i: i * i)
                for i in range(3)]
        suite = ExperimentRunner(RunnerConfig(workers=0)).run(
            jobs, run_fn=run_callable
        )
        assert [o.result for o in suite.completed] == [0, 1, 4]


class TestConfigValidation:
    def test_negative_workers(self):
        with pytest.raises(ConfigError):
            RunnerConfig(workers=-1)

    def test_nonpositive_backoff_base(self):
        with pytest.raises(ConfigError) as exc:
            RunnerConfig(backoff_base=0)
        assert exc.value.field == "backoff_base"

    def test_negative_backoff_base(self):
        with pytest.raises(ConfigError):
            RunnerConfig(backoff_base=-0.5)

    def test_nonpositive_backoff_factor(self):
        with pytest.raises(ConfigError) as exc:
            RunnerConfig(backoff_factor=0)
        assert exc.value.field == "backoff_factor"

    def test_negative_retries(self):
        with pytest.raises(ConfigError):
            RunnerConfig(retries=-1)

    def test_nonpositive_timeout(self):
        with pytest.raises(ConfigError):
            RunnerConfig(timeout=0)

    def test_resume_requires_journal(self):
        with pytest.raises(ConfigError):
            RunnerConfig(resume=True)


class TestPool:
    """Process-pool backend: parallel == serial, and real preemption."""

    def test_parallel_bit_identical_to_serial(self):
        jobs = make_jobs()
        serial = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)
        parallel = ExperimentRunner(RunnerConfig(workers=2)).run(jobs)
        assert not parallel.failures
        for job in jobs:
            a = serial.result(job.key)
            b = parallel.result(job.key)
            assert a.to_dict() == b.to_dict(), job.key

    def test_crash_classified_in_pool(self):
        jobs = [
            JobSpec(trace=TRACE, l1d="berti", scale=SCALE),
            JobSpec(trace=TRACE2, l1d="berti", scale=SCALE,
                    fault=FaultSpec(kind="crash", period=3)),
        ]
        suite = ExperimentRunner(RunnerConfig(workers=2, retries=0)).run(jobs)
        assert len(suite.completed) == 1
        [failed] = suite.failures
        assert failed.kind == "crash"
        assert failed.context["trace"] == TRACE2

    def test_hang_times_out_and_survivors_unaffected(self):
        jobs = [
            JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE),
            JobSpec(trace=TRACE2, l1d="ip_stride", scale=SCALE,
                    fault=FaultSpec(kind="hang", hang_seconds=120.0)),
        ]
        cfg = RunnerConfig(workers=2, timeout=1.5, retries=1)
        suite = ExperimentRunner(cfg).run(jobs)
        [failed] = suite.failures
        assert failed.kind == "timeout"
        assert failed.error_type == "JobTimeout"
        assert failed.attempts == 1  # timeouts not retried by default

        clean = ExperimentRunner(RunnerConfig(workers=0)).run([jobs[0]])
        assert (suite.result(jobs[0].key).to_dict()
                == clean.result(jobs[0].key).to_dict())


class TestHeartbeatCoverage:
    """Sanitize and snapshot jobs report progress like plain jobs."""

    @pytest.mark.parametrize("knob", ["sanitize", "snapshot_every"])
    def test_last_ping_reports_trace_length(self, tmp_path, knob):
        from repro.runner.resources import read_heartbeat
        from repro.runner.worker import run_job

        extra = ({"sanitize": True} if knob == "sanitize" else
                 {"snapshot_every": 200,
                  "snapshot_dir": str(tmp_path / "ckpts")})
        beat = tmp_path / "hb.json"
        result = run_job(JobSpec(
            trace=TRACE2, l1d="berti", scale=SCALE,
            heartbeat_path=str(beat), heartbeat_every=100, **extra,
        ))
        records = int(result.extra["trace_records"])
        ping = read_heartbeat(beat)
        assert ping["accesses"] == ping["total"] == records > 0


class TestJournal:
    def test_resume_runs_exactly_the_missing_jobs(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        jobs = make_jobs()

        # Interrupt after k=2 of n=4 jobs: only the first two ran.
        first = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal)
        ).run(jobs[:2])
        assert len(first.completed) == 2
        assert len(journal.read_text().splitlines()) == 2

        executed = []

        def counting_run_fn(job, attempt):
            executed.append(job.key)
            from repro.runner.worker import run_job
            return run_job(job, attempt)

        resumed = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal, resume=True)
        ).run(jobs, run_fn=counting_run_fn)

        # Exactly n - k jobs executed; the rest replayed from disk.
        assert executed == [j.key for j in jobs[2:]]
        assert len(resumed.completed) == 4
        assert sum(o.from_journal for o in resumed.completed) == 2

        # The final table is identical to an uninterrupted run.
        clean = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)
        for job in jobs:
            assert (resumed.result(job.key).to_dict()
                    == clean.result(job.key).to_dict()), job.key

    def test_failed_jobs_are_rerun_on_resume(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        job = JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE,
                      fault=FaultSpec(kind="flaky", fail_attempts=1))
        cfg = RunnerConfig(workers=0, retries=0, journal_path=journal)
        first = ExperimentRunner(cfg).run([job])
        assert first.failures

        # Second invocation (attempt numbering restarts): flaky now passes.
        cfg2 = RunnerConfig(workers=0, retries=1, backoff_base=0.01,
                            journal_path=journal, resume=True)
        second = ExperimentRunner(cfg2).run([job])
        assert second.completed and not second.completed[0].from_journal

    def test_corrupt_lines_skipped(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        good = {"key": "a", "status": "ok", "result": 7}
        journal.write_text(
            json.dumps(good) + "\n" + '{"key": "b", "status"' + "\n"
        )
        records = Journal(journal).load()
        assert records == {"a": good}

    def test_last_record_wins(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        journal.write_text(
            json.dumps({"key": "a", "status": "failed", "kind": "crash",
                        "error_type": "X", "message": "m"}) + "\n"
            + json.dumps({"key": "a", "status": "ok", "result": 1}) + "\n"
        )
        assert Journal(journal).load()["a"]["status"] == "ok"

    def test_journal_round_trips_sim_results(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,))
        run = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal)
        ).run(jobs)
        replayed = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal, resume=True)
        ).run(jobs, run_fn=lambda j, a: pytest.fail("should not re-run"))
        for job in jobs:
            assert (replayed.result(job.key).to_dict()
                    == run.result(job.key).to_dict())


class TestJournalDurability:
    """Appends are one fsync'd frame each, and a journal torn mid-line by
    a crash is healed by the next append."""

    def _completed(self, key, result=7):
        from repro.runner.jobs import CompletedRun
        return CompletedRun(key=key, result=result)

    def test_append_heals_truncated_tail(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        good = json.dumps({"key": "a", "status": "ok", "result": 1})
        # A crash mid-write left a torn final line with no newline.
        journal.write_text(good + "\n" + '{"key": "b", "status": "o')

        Journal(journal).append(self._completed("c"))

        lines = journal.read_text().splitlines()
        # The unframed journal was framed with its prior record intact.
        assert json.loads(lines[0])["rec"] == json.loads(good)
        records = Journal(journal).load()
        assert records["a"]["result"] == 1
        assert records["c"]["status"] == "ok"
        assert "b" not in records  # torn record stays dead, not resurrected

    def test_append_to_missing_file_creates_parents(self, tmp_path):
        journal = tmp_path / "deep" / "nested" / "suite.jsonl"
        Journal(journal).append(self._completed("a"))
        assert Journal(journal).load()["a"]["status"] == "ok"

    def test_no_temp_files_left_behind(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        j = Journal(journal)
        for i in range(5):
            j.append(self._completed(f"job{i}"))
        # atomic_write_bytes (the unframed-journal migration) stages
        # into ".<name>-*.tmp" beside the file; appends stage nothing.
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".suite.jsonl-")]
        assert leftovers == []
        assert len(j.load()) == 5

    def test_appends_preserve_existing_records_bytewise(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        j = Journal(journal)
        j.append(self._completed("a", result=1))
        first_bytes = journal.read_bytes()
        j.append(self._completed("b", result=2))
        assert journal.read_bytes().startswith(first_bytes)


class TestJournalSchemaV2:
    """PR 4: records carry attempt / elapsed_seconds / worker_pid;
    version-1 journals still resume (fields default)."""

    def test_new_records_carry_v2_fields(self, tmp_path):
        import os

        journal = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,), prefetchers=("ip_stride",))
        ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal)
        ).run(jobs)
        [rec] = [json.loads(line)["rec"]
                 for line in journal.read_text().splitlines()]
        assert rec["schema"] >= 2   # v3 keeps every v2 field
        assert rec["attempt"] == 1
        assert rec["elapsed_seconds"] > 0
        assert rec["worker_pid"] == os.getpid()  # inline = this process

    def test_pool_records_tag_the_worker_pid(self, tmp_path):
        import os

        journal = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,), prefetchers=("ip_stride",))
        suite = ExperimentRunner(
            RunnerConfig(workers=1, journal_path=journal)
        ).run(jobs)
        [done] = suite.completed
        assert done.worker_pid is not None
        assert done.worker_pid != os.getpid()  # ran in a pool worker
        [rec] = [json.loads(line)["rec"]
                 for line in journal.read_text().splitlines()]
        assert rec["worker_pid"] == done.worker_pid

    def test_v1_journal_still_resumes(self, tmp_path):
        """A journal written before the schema bump (no ``schema`` field,
        ``attempts``/``elapsed`` names, no ``worker_pid``) must replay."""
        journal = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,), prefetchers=("ip_stride",))
        reference = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)

        v1 = {
            "key": jobs[0].key,
            "status": "ok",
            "attempts": 3,
            "elapsed": 1.25,
            "result": reference.completed[0].result.to_dict(),
        }
        journal.write_text(json.dumps(v1) + "\n")

        resumed = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal, resume=True)
        ).run(jobs, run_fn=lambda j, a: pytest.fail("must replay, not run"))
        [done] = resumed.completed
        assert done.from_journal
        assert done.attempts == 3       # migrated from "attempts"
        assert done.elapsed == 1.25     # migrated from "elapsed"
        assert done.worker_pid is None  # absent in v1: defaults
        assert done.result.to_dict() == v1["result"]

    def test_decode_quarantined_record(self):
        from repro.runner import QuarantinedRun

        rec = {"schema": 2, "key": "k", "status": "quarantined",
               "group": "t|pf", "failures": 3, "message": ""}
        q = Journal.decode_quarantined(rec)
        assert isinstance(q, QuarantinedRun)
        assert q.group == "t|pf" and q.failures == 3 and not q.ok
        assert Journal.decode_quarantined({"status": "ok", "key": "k"}) is None


class TestSuiteHelpers:
    def test_per_trace_results_groups_survivors(self):
        jobs = make_jobs()
        suite = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)
        grouped = per_trace_results(jobs, suite)
        assert set(grouped) == {TRACE, TRACE2}
        assert set(grouped[TRACE]) == {"ip_stride", "berti"}

    def test_banner_mixed_failures(self):
        jobs = [
            JobSpec(trace=TRACE, l1d="ip_stride", scale=SCALE),
            JobSpec(trace=TRACE2, l1d="ip_stride", scale=SCALE,
                    fault=FaultSpec(kind="crash")),
        ]
        suite = ExperimentRunner(RunnerConfig(workers=0, retries=0)).run(jobs)
        assert suite.banner() == "1/2 jobs completed (1 crash)"


class TestJournalSchemaV3:
    """PR 6: schema 3 adds *optional* lease provenance (``lease_id``,
    ``lineage``) for campaign-service executions.  Direct runs keep
    writing v2-shaped lines, and v1/v2 journals still replay."""

    def test_direct_runs_keep_the_v2_line_shape(self, tmp_path):
        journal = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,), prefetchers=("ip_stride",))
        ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal)
        ).run(jobs)
        [rec] = [json.loads(line)["rec"]
                 for line in journal.read_text().splitlines()]
        assert rec["schema"] == 3
        # No lease was involved: the provenance fields must be absent,
        # not null — the line shape is exactly what v2 wrote.
        assert "lease_id" not in rec
        assert "lineage" not in rec

    def test_lease_provenance_roundtrips(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        lineage = [{"event": "grant", "lease_id": "L1-1", "attempt": 1},
                   {"event": "ok", "lease_id": "L1-1"}]
        journal.append(CompletedRun(key="k", result={"cycles": 1},
                                    lease_id="L1-1", lineage=lineage))
        rec = journal.load()["k"]
        assert rec["schema"] == 3
        assert rec["lease_id"] == "L1-1"
        assert rec["lineage"] == lineage
        done = Journal.decode_completed(rec)
        assert done.from_journal
        assert done.lease_id == "L1-1"
        assert done.lineage == lineage

    def test_failed_run_provenance_is_encoded_too(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(FailedRun(
            key="k", kind="timeout", error_type="LeaseExpired",
            message="lease lost", lease_id="L2-3",
            lineage=[{"event": "expired", "lease_id": "L2-3"}],
        ))
        rec = journal.load()["k"]
        assert rec["status"] == "failed"
        assert rec["lease_id"] == "L2-3"
        assert rec["lineage"] == [{"event": "expired", "lease_id": "L2-3"}]

    def test_v2_journal_resumes_with_default_provenance(self, tmp_path):
        jobs = make_jobs(traces=(TRACE,), prefetchers=("ip_stride",))
        reference = ExperimentRunner(RunnerConfig(workers=0)).run(jobs)
        v2 = {
            "schema": 2, "key": jobs[0].key, "status": "ok",
            "attempt": 2, "elapsed_seconds": 0.5, "worker_pid": 77,
            "result": reference.completed[0].result.to_dict(),
        }
        journal = tmp_path / "suite.jsonl"
        journal.write_text(json.dumps(v2) + "\n")
        resumed = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=journal, resume=True)
        ).run(jobs, run_fn=lambda j, a: pytest.fail("must replay, not run"))
        [done] = resumed.completed
        assert done.from_journal
        assert done.attempts == 2 and done.worker_pid == 77
        assert done.lease_id is None    # absent in v2: defaults
        assert done.lineage == []


class TestJournalTornTail:
    """A journal truncated at *any* byte of its final record must load
    cleanly (the intact prefix wins) and heal on the next append."""

    def _journal_bytes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(CompletedRun(key="a", result={"cycles": 1}))
        journal.append(CompletedRun(key="b", result={"cycles": 2}))
        return path, path.read_bytes()

    def test_load_survives_truncation_at_every_offset(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        tail_start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        for cut in range(tail_start, len(raw)):
            path.write_bytes(raw[:cut])
            records = Journal(path).load()
            if cut == len(raw) - 1:
                # Only the newline is torn: the record itself is whole.
                assert set(records) == {"a", "b"}, f"cut at byte {cut}"
            else:
                assert set(records) == {"a"}, f"cut at byte {cut}"

    def test_append_after_truncation_heals_the_tail(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        path.write_bytes(raw[:-7])  # tear the final record mid-JSON
        Journal(path).append(CompletedRun(key="c", result={"cycles": 3}))
        records = Journal(path).load()
        assert set(records) == {"a", "c"}  # the torn "b" frame is cut
        # The heal cut the torn bytes off, so the new frame starts a
        # clean line right after the last good one.
        keys = [json.loads(line)["rec"]["key"]
                for line in path.read_text().splitlines()]
        assert keys == ["a", "c"]


class TestJournalFraming:
    """The journal is a CRC-framed record log: one frame per append, a
    corrupt journal refused before any job runs, and unframed (schema
    1-3) journals framed once when opened."""

    def _berti_like(self, key):
        # About the size of a Berti SimResult record (1.2 KB framed).
        result = {f"counter_{i}": 114 + i for i in range(60)}
        return CompletedRun(key=key, result=result, elapsed=1.5)

    def test_first_and_200th_append_each_write_one_frame(self, tmp_path,
                                                         monkeypatch):
        import os

        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        writes = []
        real_pwrite = os.pwrite

        def counting_pwrite(fd, data, offset):
            writes.append(bytes(data))
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", counting_pwrite)
        for n in range(1, 201):
            before = path.read_bytes() if path.exists() else b""
            writes.clear()
            journal.append(self._berti_like(f"job{n}"))
            after = path.read_bytes()
            assert after.startswith(before)  # nothing rewritten
            [frame] = after[len(before):].splitlines()
            if n in (1, 200):
                assert writes == [frame + b"\n"]  # one write, one frame
            assert json.loads(frame)["seq"] == n
            assert json.loads(frame)["rec"]["key"] == f"job{n}"
        assert len(journal.load()) == 200

    def test_corrupt_journal_is_refused_before_any_job_runs(self, tmp_path):
        from repro.errors import RecordLogError

        path = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,))
        journal = Journal(path)
        journal.append(CompletedRun(key=jobs[0].key,
                                    result={"l1d_misses": 114}))
        journal.append(CompletedRun(key="other", result={"cycles": 1}))
        journal.close()
        # One flipped digit in the first record: without the CRC this
        # was served on resume as 214 misses.
        path.write_bytes(path.read_bytes().replace(
            b'"l1d_misses":114', b'"l1d_misses":214'))
        for resume in (True, False):
            runner = ExperimentRunner(RunnerConfig(
                workers=0, journal_path=path, resume=resume))
            with pytest.raises(RecordLogError, match="corrupt before EOF"):
                runner.run(jobs, run_fn=lambda j, a: pytest.fail("ran"))

    def test_unframed_journal_is_framed_once_when_opened(self, tmp_path):
        from repro.durability import read_log

        path = tmp_path / "suite.jsonl"
        old = [{"schema": 2, "key": "a", "status": "failed",
                "kind": "crash", "error_type": "X", "message": "m"},
               {"schema": 3, "key": "a", "status": "ok", "result": 1},
               {"key": "b", "status": "ok", "result": 2}]
        path.write_text("".join(json.dumps(r) + "\n" for r in old)
                        + '{"key": "c", "sta')  # a torn v2-era tail
        journal = Journal(path)
        assert journal.load() == {"a": old[1], "b": old[2]}
        assert read_log(path) == old  # every record kept, in order
        journal.append(CompletedRun(key="d", result=4))
        assert [r["key"] for r in read_log(path)] == ["a", "a", "b", "d"]

    def test_damaged_framed_journal_is_never_read_as_unframed(self,
                                                             tmp_path):
        from repro.errors import RecordLogError

        path = tmp_path / "suite.jsonl"
        journal = Journal(path)
        for key in ("a", "b", "c"):
            journal.append(CompletedRun(key=key, result={"cycles": 1}))
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # The first frame replaced by a well-formed unframed record.
        forged = json.dumps({"key": "a", "status": "ok", "result": 214})
        path.write_bytes(forged.encode() + b"\n" + b"".join(lines[1:]))
        with pytest.raises(RecordLogError):
            Journal(path).load()

    def test_resume_replays_the_journal_once(self, tmp_path, monkeypatch):
        from repro.runner import CampaignSupervisor, SupervisorConfig

        path = tmp_path / "suite.jsonl"
        jobs = make_jobs(traces=(TRACE,), prefetchers=("ip_stride",))
        ExperimentRunner(RunnerConfig(workers=0, journal_path=path)).run(
            jobs)
        loads = []
        real_load = Journal.load

        def counting_load(self):
            loads.append(self.path)
            return real_load(self)

        monkeypatch.setattr(Journal, "load", counting_load)
        suite = CampaignSupervisor(
            RunnerConfig(workers=1, journal_path=path, resume=True),
            supervisor=SupervisorConfig(handle_signals=False),
        ).run(jobs)
        assert suite.completed[0].from_journal
        assert loads == [path]
