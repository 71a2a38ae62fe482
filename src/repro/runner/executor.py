"""Fault-isolated experiment executor.

Runs a batch of jobs either inline (``workers=0``) or across a
``concurrent.futures.ProcessPoolExecutor`` (``workers >= 1``), with:

* **fault isolation** — an exception (even a hard worker death) fails
  one job, not the campaign;
* **per-job wall-clock timeouts** — a hung job is recorded as a
  :class:`~repro.errors.JobTimeout` and its worker process is killed;
* **bounded retry with exponential backoff** — transient failures
  (``SimulationError``, lost workers, optionally timeouts) are retried
  up to ``retries`` extra attempts; trace/config errors never are;
* **checkpoint journaling** — every outcome is appended to a CRC-framed
  journal the moment it is known, and ``resume=True`` replays completed
  jobs instead of re-running them.  If the journal itself cannot be
  written (disk full), outcomes are buffered in order and flushed the
  moment a later append succeeds — degraded, never lost.

Scheduling detail: at most ``workers`` jobs are ever in flight, so a
submitted future starts executing immediately and its wall-clock
deadline can be measured from submission.  When a job times out or a
worker dies, the pool is rebuilt (hung processes are killed) and the
unaffected in-flight jobs are resubmitted — their results are
deterministic, so a resubmission cannot change the campaign's output.

The pool loop exposes a small set of **supervision hooks** (clock,
submission gate, per-tick callback, deadline derivation, slot count,
drain flag) that are no-ops here; :class:`repro.runner.supervisor.
CampaignSupervisor` overrides them to add heartbeat liveness, adaptive
deadlines, resource-aware degradation, circuit breakers, and graceful
shutdown — the default path is behaviourally identical to the
pre-supervisor runner.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError, JobTimeout, ResourceError
from repro.runner import worker
from repro.runner.jobs import (
    CompletedRun,
    RunOutcome,
    SuiteResult,
    TaggedResult,
    failed_run_from,
    tag_worker,
)
from repro.runner.journal import Journal

#: Sentinel a ``_prepare_job`` hook returns to push a job to the back of
#: the queue (e.g. while a half-open circuit-breaker probe is in flight).
DEFER = object()


def _bind_worker_to_parent() -> None:
    """Pool-worker initializer: die when the campaign process dies.

    Without this, a SIGKILLed campaign (OOM killer, chaos harness) leaves
    its pool workers orphaned — blocked forever on the work queue and
    holding the campaign's sentinel pipe open.  ``PR_SET_PDEATHSIG``
    makes the kernel SIGKILL the workers the moment the parent goes,
    so nothing leaks.  Best-effort and Linux-only; elsewhere a no-op.

    Also resets signal dispositions: fork-context workers inherit the
    campaign's handlers, so without this a supervisor's drain handler
    would swallow the SIGTERM that ``_kill_pool`` sends.  SIGINT is
    ignored outright — a terminal Ctrl-C hits the whole foreground
    group, and the drain contract says in-flight jobs get to finish.
    """
    try:
        import signal as _signal

        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except Exception:  # noqa: BLE001 — purely protective, never fatal
        pass
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes
        import signal as _signal

        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_PDEATHSIG, _signal.SIGKILL, 0, 0, 0
        )
    except Exception:  # noqa: BLE001 — purely protective, never fatal
        pass


@dataclass
class RunnerConfig:
    """All resilience knobs in one place."""

    workers: int = 0                 # 0 = inline (no subprocess)
    timeout: Optional[float] = None  # per-job wall-clock seconds (pool mode)
    retries: int = 1                 # extra attempts for transient failures
    retry_timeouts: bool = False     # a hang usually hangs again
    backoff_base: float = 0.25      # seconds; doubles per attempt
    backoff_factor: float = 2.0
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0, got {self.workers}", field="workers"
            )
        if self.retries < 0:
            raise ConfigError(
                f"retries must be >= 0, got {self.retries}", field="retries"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(
                f"timeout must be positive, got {self.timeout}",
                field="timeout",
            )
        if self.backoff_base <= 0:
            raise ConfigError(
                f"backoff_base must be positive, got {self.backoff_base}",
                field="backoff_base",
            )
        if self.backoff_factor <= 0:
            raise ConfigError(
                f"backoff_factor must be positive, got "
                f"{self.backoff_factor}", field="backoff_factor",
            )
        if self.resume and not self.journal_path:
            raise ConfigError(
                "resume=True requires a journal_path", field="resume"
            )


@dataclass
class _InFlight:
    """Mutable bookkeeping for one submitted future.

    Mutable on purpose: the supervisor's tick hook rebases ``deadline``
    and ``started`` after a clock-skew event and extends deadlines as
    heartbeat throughput estimates improve.
    """

    job: object
    attempt: int
    deadline: Optional[float]
    started: float


class ExperimentRunner:
    """Executes jobs with isolation, retry, timeout, and checkpointing.

    ``run_fn(job, attempt)`` produces a job's result; the default is
    :func:`repro.runner.worker.run_job` (jobs are then
    :class:`~repro.runner.jobs.JobSpec`).  In pool mode both the jobs
    and ``run_fn`` must be picklable; inline mode has no such
    constraint (``analysis.sweep`` passes closures).

    ``journal`` overrides the journal built from
    ``config.journal_path`` — used by tests and the chaos harness to
    inject failing journals, and by the supervisor to install its
    disk-space guard.
    """

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        run_fn: Callable = worker.run_job,
        journal: Optional[Journal] = None,
    ) -> None:
        self.config = config or RunnerConfig()
        self._run_fn = run_fn
        if journal is not None:
            self._journal = journal
        else:
            self._journal = (
                Journal(self.config.journal_path)
                if self.config.journal_path else None
            )
        #: Outcomes whose journal append failed (disk full); flushed in
        #: order as soon as an append succeeds again, and once more at
        #: the end of the run.
        self._journal_backlog: List[RunOutcome] = []

    # ------------------------------------------------------------------
    # Supervision hooks — no-ops here; CampaignSupervisor overrides them
    # ------------------------------------------------------------------

    def _now(self) -> float:
        """The executor's clock; injectable for clock-skew chaos."""
        return time.monotonic()

    def _prepare_job(self, job, attempt: int):
        """Gate/augment a job just before submission.

        Returns ``(job, None)`` to submit (possibly a modified copy),
        ``(job, outcome)`` to record ``outcome`` without running, or
        ``(job, DEFER)`` to push the job to the back of the queue.
        """
        return job, None

    def _deadline_for(self, job, now: float) -> Optional[float]:
        """Wall-clock deadline for a submission (None = unbounded)."""
        if self.config.timeout:
            return now + self.config.timeout
        return None

    def _tick(self, inflight: Dict) -> List[Tuple[object, BaseException, str]]:
        """Called once per pool-loop iteration with the live in-flight
        table (future → :class:`_InFlight`, mutable).  Returns a list of
        ``(future, exception, kind)`` preemptions."""
        return []

    def _available_slots(self) -> int:
        """How many jobs may be in flight right now."""
        return self.config.workers

    def _draining(self) -> bool:
        """True once a graceful shutdown was requested: finish what is
        in flight, submit nothing new."""
        return False

    def _max_wait(self) -> Optional[float]:
        """Upper bound on one blocking wait (None = event-driven only).
        The supervisor returns its poll interval so ticks keep flowing."""
        return None

    def _expiry_now(self) -> float:
        """The clock the wall-clock expiry scan compares deadlines to.

        The supervisor returns the timestamp its tick observed, so a
        clock jump landing *between* the tick (which rebases deadlines)
        and the expiry scan cannot mass-expire healthy workers.
        """
        return self._now()

    def _outcome_recorded(self, outcome: RunOutcome, job) -> None:
        """Called after an outcome is recorded (not for journal replays)."""

    def _journal_degraded(self, exc: BaseException) -> None:
        """Called when a journal append fails and buffering begins."""
        if self.config.verbose:
            print(f"[runner] journal write failed ({exc}); buffering "
                  f"outcomes until the journal recovers", file=sys.stderr)

    # ------------------------------------------------------------------

    def run(
        self, jobs: Sequence, run_fn: Optional[Callable] = None
    ) -> SuiteResult:
        """Run every job; never raises for individual job failures.

        ``run_fn`` overrides the constructor's job function for this
        batch (``analysis.sweep`` passes a thunk-caller for its
        :class:`~repro.runner.jobs.CallableJob` jobs).
        """
        if run_fn is not None:
            previous, self._run_fn = self._run_fn, run_fn
            try:
                return self.run(jobs)
            finally:
                self._run_fn = previous
        keys = [job.key for job in jobs]
        if len(set(keys)) != len(keys):
            dup = next(k for k in keys if keys.count(k) > 1)
            raise ConfigError(
                f"duplicate job key {dup!r}; every job needs a unique key",
                field="jobs",
            )

        outcomes: Dict[str, RunOutcome] = {}
        pending: List = list(jobs)

        if self._journal is not None:
            # Opening the journal verifies it, so a corrupt one is
            # refused before any job runs.
            records = self._journal.load()
            if self.config.resume:
                replayed = self._replay_journal(records, pending, outcomes)
                pending = [job for job in pending if job.key not in outcomes]
                if self.config.verbose and replayed:
                    print(
                        f"[runner] resumed {replayed} completed jobs from "
                        f"{self._journal.path}", file=sys.stderr,
                    )

        if pending:
            if self.config.workers == 0:
                self._run_inline(pending, outcomes)
            else:
                self._run_pool(pending, outcomes)

        self._flush_journal()  # last chance for backlogged records
        if self._journal is not None:
            self._journal.close()
        interrupted = any(k not in outcomes for k in keys)
        return SuiteResult(
            outcomes=[outcomes[k] for k in keys if k in outcomes],
            interrupted=interrupted,
        )

    # ------------------------------------------------------------------

    def _replay_journal(self, records: Dict[str, dict], jobs: Sequence,
                        outcomes: Dict) -> int:
        """Adopt the journal's ``ok`` records for ``jobs``; returns how
        many were replayed."""
        replayed = 0
        for job in jobs:
            rec = records.get(job.key)
            if rec and rec.get("status") == "ok":
                done = Journal.decode_completed(rec)
                if done is not None:
                    outcomes[job.key] = done
                    replayed += 1
        return replayed

    def _flush_journal(self, outcome: Optional[RunOutcome] = None) -> None:
        """Append ``outcome`` (and any backlog) to the journal, keeping
        submission order; on failure the records stay buffered."""
        if outcome is not None:
            self._journal_backlog.append(outcome)
        if self._journal is None:
            self._journal_backlog.clear()
            return
        while self._journal_backlog:
            head = self._journal_backlog[0]
            try:
                self._journal.append(head)
            except (OSError, ResourceError) as exc:
                self._journal_degraded(exc)
                return
            self._journal_backlog.pop(0)

    def _record(self, outcomes: Dict, outcome: RunOutcome, job=None) -> None:
        outcomes[outcome.key] = outcome
        self._flush_journal(outcome)
        if self.config.verbose:
            if outcome.ok:
                print(f"[runner] ok     {outcome.key} "
                      f"({outcome.elapsed:.1f}s)", file=sys.stderr)
            else:
                print(f"[runner] FAILED {outcome.key} "
                      f"[{outcome.kind}] {outcome.message}", file=sys.stderr)
        self._outcome_recorded(outcome, job)

    def _backoff(self, attempt: int) -> float:
        return self.config.backoff_base * (
            self.config.backoff_factor ** (attempt - 1)
        )

    def _may_retry(self, kind: str, attempt: int) -> bool:
        if attempt > self.config.retries:
            return False
        if kind in ("trace", "config"):
            return False  # deterministic job defects: retry cannot help
        if kind == "timeout":
            return self.config.retry_timeouts
        return True  # crash / worker-lost / resource

    # ------------------------------------------------------------------
    # Inline backend (workers=0): isolation + retry, no preemption
    # ------------------------------------------------------------------

    def _run_inline(self, jobs: Sequence, outcomes: Dict) -> None:
        for job in jobs:
            attempt = 1
            start = time.monotonic()
            while True:
                try:
                    result = self._run_fn(job, attempt)
                except KeyboardInterrupt:
                    raise  # journal already holds the finished jobs
                except BaseException as exc:  # noqa: BLE001 — isolation point
                    if isinstance(exc, (SystemExit, GeneratorExit)):
                        raise
                    failed = failed_run_from(
                        job.key, exc, attempt, time.monotonic() - start,
                        worker_pid=os.getpid(),
                    )
                    if self._may_retry(failed.kind, attempt):
                        time.sleep(self._backoff(attempt))
                        attempt += 1
                        continue
                    self._record(outcomes, failed, job)
                    break
                else:
                    self._record(outcomes, CompletedRun(
                        key=job.key, result=result, attempts=attempt,
                        elapsed=time.monotonic() - start,
                        worker_pid=os.getpid(),
                    ), job)
                    break

    # ------------------------------------------------------------------
    # Process-pool backend (workers >= 1)
    # ------------------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context()
        return ProcessPoolExecutor(
            max_workers=self.config.workers, mp_context=ctx,
            initializer=_bind_worker_to_parent,
        )

    @staticmethod
    def _kill_pool(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down even if a worker is wedged."""
        procs = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.kill()  # SIGKILL: uncatchable, so a wedged or
            except Exception:  # handler-shadowed worker still dies
                pass

    def _run_pool(self, jobs: Sequence, outcomes: Dict) -> None:
        cfg = self.config
        queue = deque((job, 1) for job in jobs)  # (job, attempt)
        delayed: List[Tuple[float, object, int]] = []  # (ready_at, job, att)
        inflight: Dict = {}  # future -> _InFlight
        executor = self._new_pool()

        def submit(job, attempt: int) -> None:
            now = self._now()
            fut = executor.submit(tag_worker, self._run_fn, job, attempt)
            inflight[fut] = _InFlight(
                job=job, attempt=attempt,
                deadline=self._deadline_for(job, now), started=now,
            )

        def fail_or_retry(job, attempt, exc, elapsed, kind=None,
                          worker_pid=None) -> None:
            failed = failed_run_from(job.key, exc, attempt, elapsed,
                                     kind=kind, worker_pid=worker_pid)
            if self._may_retry(failed.kind, attempt):
                delayed.append(
                    (self._now() + self._backoff(attempt), job, attempt + 1)
                )
            else:
                self._record(outcomes, failed, job)

        def rebuild_pool() -> None:
            """Kill the pool; resubmit unaffected in-flight jobs."""
            nonlocal executor
            for fut, entry in list(inflight.items()):
                queue.appendleft((entry.job, entry.attempt))
            inflight.clear()
            self._kill_pool(executor)
            executor = self._new_pool()

        try:
            while queue or inflight or delayed:
                if self._draining() and not inflight:
                    break  # graceful shutdown: nothing new gets submitted
                now = self._now()
                still_delayed = []
                for ready_at, job, attempt in delayed:
                    if ready_at <= now:
                        queue.append((job, attempt))
                    else:
                        still_delayed.append((ready_at, job, attempt))
                delayed = still_delayed

                deferred: List[Tuple[object, int]] = []
                while (queue and len(inflight) < self._available_slots()
                       and not self._draining()):
                    job, attempt = queue.popleft()
                    prepared, pre = self._prepare_job(job, attempt)
                    if pre is DEFER:
                        deferred.append((job, attempt))
                        continue
                    if pre is not None:
                        self._record(outcomes, pre, job)
                        continue
                    submit(prepared, attempt)
                queue.extend(deferred)
                # Safety valve: every remaining job was deferred and
                # nothing is in flight or delayed to unblock it.  With a
                # correct breaker this is unreachable; without the break
                # it would spin forever.
                stalled = (bool(deferred) and not inflight and not delayed
                           and len(queue) == len(deferred))

                waits = []
                if delayed:
                    waits.append(min(r for r, _, _ in delayed) - now)
                deadlines = [e.deadline for e in inflight.values()
                             if e.deadline is not None]
                if deadlines:
                    waits.append(min(deadlines) - now)
                cap = self._max_wait()
                if cap is not None:
                    waits.append(cap)
                wait_for = max(0.01, min(waits)) if waits else None

                if inflight:
                    done, _ = wait(
                        set(inflight), timeout=wait_for,
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    if stalled:
                        break
                    if wait_for:
                        time.sleep(wait_for)
                    done = set()

                pool_broken = False
                for fut in done:
                    entry = inflight.pop(fut, None)
                    if entry is None:  # already handled via a pool rebuild
                        continue
                    job, attempt = entry.job, entry.attempt
                    elapsed = self._now() - entry.started
                    try:
                        result = fut.result()
                    except BrokenProcessPool as exc:
                        fail_or_retry(job, attempt, exc, elapsed,
                                      kind="worker-lost")
                        pool_broken = True
                    except BaseException as exc:  # noqa: BLE001
                        if isinstance(exc, KeyboardInterrupt):
                            raise
                        fail_or_retry(job, attempt, exc, elapsed)
                    else:
                        pid = None
                        if isinstance(result, TaggedResult):
                            pid = result.worker_pid
                            result = result.result
                        self._record(outcomes, CompletedRun(
                            key=job.key, result=result, attempts=attempt,
                            elapsed=elapsed, worker_pid=pid,
                        ), job)

                # Supervision tick first (it may rebase deadlines after a
                # clock-skew event), then the wall-clock expiry scan.
                preempted = False
                for fut, exc, kind in self._tick(inflight):
                    entry = inflight.get(fut)
                    if entry is None or fut.done():
                        continue  # completed in the meantime: keep result
                    inflight.pop(fut)
                    fail_or_retry(entry.job, entry.attempt, exc,
                                  self._now() - entry.started, kind=kind)
                    preempted = True

                now = self._expiry_now()
                expired = [
                    fut for fut, e in inflight.items()
                    if e.deadline is not None and e.deadline <= now
                    and not fut.done()
                ]
                for fut in expired:
                    entry = inflight.pop(fut)
                    job = entry.job
                    budget = (cfg.timeout if cfg.timeout
                              else (entry.deadline - entry.started))
                    exc = JobTimeout(
                        f"job exceeded {budget:.1f}s wall-clock budget",
                        trace=getattr(job, "trace", None),
                        prefetcher=getattr(job, "l1d", None),
                        timeout=budget,
                    )
                    fail_or_retry(job, entry.attempt, exc,
                                  now - entry.started, kind="timeout")
                if expired or preempted or pool_broken:
                    rebuild_pool()

            executor.shutdown(wait=True)
        except BaseException:
            # Flush nothing further — the journal is already up to date
            # for every finished job; kill stragglers and propagate.
            self._kill_pool(executor)
            raise
