"""Campaign supervisor: liveness, resource-aware degradation, circuit
breakers, and graceful shutdown for long experiment campaigns.

:class:`CampaignSupervisor` is an :class:`~repro.runner.executor.
ExperimentRunner` whose supervision hooks are actually wired up:

* **Heartbeat liveness** — every submitted :class:`JobSpec` is given a
  heartbeat file; the worker pings it every N simulated accesses (see
  :mod:`repro.runner.resources`).  A worker whose pings stop is
  preempted after ``heartbeat_timeout`` seconds — typically long before
  a wall-clock budget would expire — and recorded as a
  :class:`~repro.errors.HeartbeatTimeout`.
* **Adaptive deadlines** — heartbeats carry (accesses, total), so the
  supervisor estimates each worker's throughput and tightens its
  deadline to ``deadline_factor ×`` the projected duration; completed
  jobs additionally seed a per-trace estimate used at submission.  A
  live-but-looping worker is caught without a hand-tuned global timeout.
* **Resource guards** — a ``/proc``-based monitor samples free memory,
  free disk under the journal, and per-worker RSS each tick.  Memory
  pressure *degrades* the campaign (submissions pause, the worker target
  halves) instead of letting the OOM killer pick a victim; pressure
  release restores the pool.  A worker over the RSS cap is preempted
  with a typed ``ResourceError``.  Journal writes are guarded by a
  free-disk check and buffered (never lost) while the disk is full.
* **Circuit breakers** — ``quarantine_after`` consecutive failures of a
  (trace, prefetcher) group open its breaker: remaining jobs of the
  group are recorded as typed :class:`~repro.runner.jobs.QuarantinedRun`
  outcomes without burning a worker.  On a resumed campaign each open
  breaker admits one half-open probe; success closes it.
* **Graceful shutdown** — the first SIGINT/SIGTERM stops submissions and
  drains in-flight jobs, leaving a journal a plain ``--resume`` can
  finish from plus a campaign manifest; a second signal hard-kills the
  pool immediately.

Every tick is clocked through an injectable ``now_fn`` and large forward
clock jumps are detected and *rebased* (deadlines and heartbeat stamps
shift with the jump), so NTP steps or suspend/resume cannot mass-expire
healthy workers — the chaos harness exercises exactly that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError, HeartbeatTimeout, ResourceError
from repro.runner.executor import DEFER, ExperimentRunner, RunnerConfig
from repro.runner.jobs import JobSpec, QuarantinedRun, RunOutcome, SuiteResult
from repro.runner.journal import Journal
from repro.runner.resources import (
    ResourceMonitor,
    ResourcePolicy,
    disk_free_mb,
    read_heartbeat,
)

__all__ = ["CampaignSupervisor", "SupervisorConfig",
           "load_campaign_manifest"]


def load_campaign_manifest(path):
    """Read a campaign manifest, healing a torn tail on the way in.

    Returns ``(manifest, healed)``: ``manifest`` is ``None`` when the
    file is missing or beyond recovery; ``healed`` is ``True`` when the
    strict parse failed and the torn-tail recovery of
    :func:`repro.durability.tolerant_read_json` produced the document
    (a manifest written by a pre-durability build and cut mid-write).
    The current writer is atomic, so ``healed`` should never be true
    for a manifest it produced — chaos scenarios assert exactly that.
    """
    from repro.durability import tolerant_read_json

    doc, healed = tolerant_read_json(path)
    if not isinstance(doc, dict):
        return None, healed
    return doc, healed


@dataclass
class SupervisorConfig:
    """Supervision knobs, layered on top of :class:`RunnerConfig`."""

    heartbeat_every: int = 5000      # simulated accesses between pings
    heartbeat_timeout: float = 10.0  # seconds without progress → dead
    poll_interval: float = 0.25      # supervisor tick period
    adaptive_deadlines: bool = True
    deadline_factor: float = 4.0     # × projected duration
    min_deadline: float = 5.0        # adaptive deadlines never drop below
    quarantine_after: int = 3        # consecutive failures → breaker opens
    skew_threshold: float = 30.0     # tick gap treated as a clock jump
    policy: ResourcePolicy = field(default_factory=ResourcePolicy)
    heartbeat_dir: Optional[Union[str, Path]] = None  # default: tmpdir
    manifest_path: Optional[Union[str, Path]] = None  # default: journal+.manifest.json
    handle_signals: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_every < 0:
            raise ConfigError(
                f"heartbeat_every must be >= 0, got {self.heartbeat_every}",
                field="heartbeat_every",
            )
        if self.heartbeat_timeout <= 0:
            raise ConfigError(
                f"heartbeat_timeout must be positive, got "
                f"{self.heartbeat_timeout}", field="heartbeat_timeout",
            )
        if self.poll_interval <= 0:
            raise ConfigError(
                f"poll_interval must be positive, got {self.poll_interval}",
                field="poll_interval",
            )
        if self.deadline_factor < 1.0:
            raise ConfigError(
                f"deadline_factor must be >= 1, got {self.deadline_factor}",
                field="deadline_factor",
            )
        if self.min_deadline <= 0:
            raise ConfigError(
                f"min_deadline must be positive, got {self.min_deadline}",
                field="min_deadline",
            )
        if self.quarantine_after < 1:
            raise ConfigError(
                f"quarantine_after must be >= 1, got "
                f"{self.quarantine_after}", field="quarantine_after",
            )
        if self.skew_threshold <= 0:
            raise ConfigError(
                f"skew_threshold must be positive, got "
                f"{self.skew_threshold}", field="skew_threshold",
            )


@dataclass
class _Breaker:
    """Per-(trace, prefetcher) circuit-breaker state."""

    strikes: int = 0
    state: str = "closed"        # closed | open | probing
    probing_key: Optional[str] = None
    probe_spent: bool = False    # this run's half-open probe already used
    tripped_this_run: bool = False


@dataclass
class _HeartbeatState:
    """Supervisor-side view of one job's heartbeat channel."""

    path: Path
    last_seq: Optional[int] = None
    last_change_at: float = 0.0   # supervisor clock, not worker clock
    accesses: int = 0
    total: int = 0
    pid: Optional[int] = None
    throughput: Optional[float] = None  # accesses / second (EMA)


class CampaignSupervisor(ExperimentRunner):
    """A supervised :class:`ExperimentRunner` (pool mode only).

    ``now_fn`` and ``monitor`` are injectable for the chaos harness:
    a skewed clock and scripted ``/proc`` readers make every degradation
    path deterministically testable.
    """

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        supervisor: Optional[SupervisorConfig] = None,
        run_fn: Optional[Callable] = None,
        journal: Optional[Journal] = None,
        now_fn: Optional[Callable[[], float]] = None,
        monitor: Optional[ResourceMonitor] = None,
    ) -> None:
        config = config or RunnerConfig(workers=1)
        if config.workers < 1:
            raise ConfigError(
                "the campaign supervisor needs a process pool; "
                f"workers must be >= 1, got {config.workers}",
                field="workers",
            )
        self.sup = supervisor or SupervisorConfig()
        self._now_fn = now_fn or time.monotonic
        self._monitor = monitor or ResourceMonitor(self.sup.policy)
        kwargs = {} if run_fn is None else {"run_fn": run_fn}
        super().__init__(config, journal=journal, **kwargs)
        if (self._journal is not None and journal is None
                and self._journal.guard is None):
            self._journal.guard = self._disk_guard

        self._breakers: Dict[str, _Breaker] = {}
        self._hb: Dict[str, _HeartbeatState] = {}
        self._trace_est: Dict[str, float] = {}  # elapsed-seconds EMA
        self._events: List[dict] = []
        # The one native-demotion event per reason code, updated in place.
        self._demotion_events: Dict[int, dict] = {}
        self._recorded: List[Tuple[str, str, str]] = []  # (key, status, kind)
        # Half-open probe audit trail: one entry per breaker release
        # (probe admitted), updated in place with the probe's verdict.
        # Lands in the manifest as ``quarantine_probes``.
        self._probe_history: List[dict] = []
        # Campaign throughput: records simulated by fresh (non-replayed)
        # completions, the worker-seconds they took, and the campaign
        # wall clock — the manifest's aggregate records/sec.
        self._records_done = 0
        self._busy_seconds = 0.0
        # Per-engine record counts of fresh completions — the manifest's
        # throughput block names which inner loop produced the
        # campaign's records/sec.
        self._engine_records: Dict[str, int] = {}
        self._campaign_started: Optional[float] = None
        self._drain = False
        self._hard_killed = False
        self._paused = False
        self._workers_target = config.workers
        self._last_tick: Optional[float] = None
        self._hb_dir: Optional[Path] = None
        self._hb_dir_is_temp = False

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self, jobs, run_fn: Optional[Callable] = None) -> SuiteResult:
        self._drain = False
        self._hard_killed = False
        self._campaign_started = self._now()
        self._ensure_heartbeat_dir()
        restore = self._install_signal_handlers()
        try:
            suite = super().run(jobs, run_fn)
            if self._drain:
                suite.interrupted = True
            return suite
        except KeyboardInterrupt:
            self._hard_killed = True
            self._event("hard-kill", detail="second signal: pool killed")
            raise
        finally:
            restore()
            self._write_manifest()
            self._cleanup_heartbeat_dir()

    # ------------------------------------------------------------------
    # Supervision hooks (overriding ExperimentRunner no-ops)
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self._now_fn()

    def _max_wait(self) -> Optional[float]:
        return self.sup.poll_interval

    def _expiry_now(self) -> float:
        # Use the tick-synchronized timestamp: deadlines were rebased (or
        # not) relative to exactly this clock reading, so a jump landing
        # after the tick cannot expire jobs the tick considered healthy.
        return (self._last_tick if self._last_tick is not None
                else self._now())

    def _draining(self) -> bool:
        return self._drain

    def _available_slots(self) -> int:
        if self._paused:
            return 0
        return min(self.config.workers, self._workers_target)

    def _group(self, job) -> str:
        if isinstance(job, JobSpec):
            return f"{job.trace}|{job.l1d}"
        return job.key

    def _prepare_job(self, job, attempt: int):
        group = self._group(job)
        breaker = self._breakers.get(group)
        if breaker is not None:
            if breaker.state == "open":
                if breaker.tripped_this_run or breaker.probe_spent:
                    return job, QuarantinedRun(
                        key=job.key, group=group,
                        failures=max(breaker.strikes,
                                     self.sup.quarantine_after),
                    )
                # Half-open: admit exactly one probe for this group.
                breaker.state = "probing"
                breaker.probing_key = job.key
                released_at = round(self._now(), 3)
                self._probe_history.append({
                    "group": group, "key": job.key,
                    "released_at": released_at, "outcome": "pending",
                })
                self._event("breaker-probe", group=group, key=job.key,
                            released_at=released_at)
            elif (breaker.state == "probing"
                    and breaker.probing_key != job.key):
                return job, DEFER  # wait for the probe's verdict
        return self._attach_heartbeat(job), None

    def _deadline_for(self, job, now: float) -> Optional[float]:
        static = (now + self.config.timeout) if self.config.timeout else None
        if not self.sup.adaptive_deadlines:
            return static
        est = self._trace_est.get(getattr(job, "trace", None))
        if est is None:
            return static
        adaptive = now + max(self.sup.min_deadline,
                             self.sup.deadline_factor * est)
        return adaptive if static is None else min(static, adaptive)

    def _tick(self, inflight: Dict) -> List[Tuple[object, BaseException, str]]:
        now = self._now()
        self._detect_clock_skew(now, inflight)
        preempts: List[Tuple[object, BaseException, str]] = []
        claimed = set()

        pids: Dict[int, object] = {}  # pid -> future, for the RSS guard
        for fut, entry in inflight.items():
            state = self._hb.get(entry.job.key)
            if state is None:
                continue
            self._observe_heartbeat(entry, state, now)
            if state.pid is not None:
                pids[state.pid] = fut
            stale = now - max(state.last_change_at, entry.started)
            if stale > self.sup.heartbeat_timeout and fut not in claimed:
                claimed.add(fut)
                preempts.append((fut, HeartbeatTimeout(
                    f"no heartbeat for {stale:.1f}s "
                    f"(limit {self.sup.heartbeat_timeout:.1f}s); "
                    f"worker presumed dead and preempted",
                    trace=getattr(entry.job, "trace", None),
                    prefetcher=getattr(entry.job, "l1d", None),
                    timeout=self.sup.heartbeat_timeout,
                ), "timeout"))

        status = self._monitor.sample(
            pids=list(pids),
            disk_path=(self._journal.path.parent
                       if self._journal is not None else None),
        )
        self._apply_pressure(status)
        for pid in status.fat_workers:
            fut = pids.get(pid)
            entry = inflight.get(fut)
            if fut is None or entry is None or fut in claimed:
                continue
            claimed.add(fut)
            rss_cap = self.sup.policy.max_worker_rss_mb
            self._event("rss-preempt", pid=pid, key=entry.job.key)
            preempts.append((fut, ResourceError(
                f"worker pid {pid} exceeded the {rss_cap:.0f} MB RSS cap "
                f"and was preempted",
                trace=getattr(entry.job, "trace", None),
                prefetcher=getattr(entry.job, "l1d", None),
            ), "resource"))
        return preempts

    def _outcome_recorded(self, outcome: RunOutcome, job) -> None:
        self._recorded.append(
            (outcome.key,
             "ok" if outcome.ok
             else ("quarantined" if isinstance(outcome, QuarantinedRun)
                   else "failed"),
             getattr(outcome, "kind", "ok"))
        )
        state = self._hb.pop(outcome.key, None)
        if state is not None:
            try:
                state.path.unlink()
            except OSError:
                pass
        if job is None:
            return
        if outcome.ok and not getattr(outcome, "from_journal", False):
            result = getattr(outcome, "result", None)
            extra = getattr(result, "extra", None)
            if isinstance(extra, dict):
                # Which path ran: the markers run_job keeps beside (not
                # in) the result, so results stay engine-independent.
                markers = getattr(result, "engine_markers", {})
                if markers.get("native_demoted"):
                    self._note_demotion(outcome.key, markers)
                records = extra.get("trace_records")
                if records:
                    self._records_done += int(records)
                    self._busy_seconds += outcome.elapsed
                    engine = ("native" if markers.get("native_spans")
                              else "classic")
                    self._engine_records[engine] = (
                        self._engine_records.get(engine, 0) + int(records)
                    )
        if outcome.ok and isinstance(job, JobSpec):
            prev = self._trace_est.get(job.trace)
            self._trace_est[job.trace] = (
                outcome.elapsed if prev is None
                else 0.5 * prev + 0.5 * outcome.elapsed
            )
        self._update_breaker(outcome, job)

    def _note_demotion(self, key: str, markers: Dict[str, float]) -> None:
        """Fold one demoted job into its reason's ``native-demotion``
        event: one event per reason per campaign, with the job count
        and keys.  The fallback is silent at the ``simulate()`` API level
        (results stay bit-identical), so the manifest is where operators
        learn the C kernel did not run."""
        from repro.native.runner import DEMOTION_REASONS

        code = int(markers.get("native_demotion_code", 0))
        event = self._demotion_events.get(code)
        if event is None:
            event = self._demotion_events[code] = self._event(
                "native-demotion", code=code,
                reason=DEMOTION_REASONS.get(code, "unknown"),
                jobs=0, keys=[], demoted_spans=0, native_spans=0)
        event["jobs"] += 1
        event["keys"].append(key)
        event["demoted_spans"] += int(markers.get("native_demoted_spans", 0))
        event["native_spans"] += int(markers.get("native_spans", 0))

    def _journal_degraded(self, exc: BaseException) -> None:
        super()._journal_degraded(exc)
        self._event("journal-degraded", detail=str(exc))

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def _ensure_heartbeat_dir(self) -> None:
        if self.sup.heartbeat_every <= 0:
            return
        if self.sup.heartbeat_dir is not None:
            self._hb_dir = Path(self.sup.heartbeat_dir)
            self._hb_dir.mkdir(parents=True, exist_ok=True)
        elif self._hb_dir is None:
            self._hb_dir = Path(tempfile.mkdtemp(prefix="repro-hb-"))
            self._hb_dir_is_temp = True

    def _cleanup_heartbeat_dir(self) -> None:
        if self._hb_dir_is_temp and self._hb_dir is not None:
            shutil.rmtree(self._hb_dir, ignore_errors=True)
            self._hb_dir = None
            self._hb_dir_is_temp = False

    def _attach_heartbeat(self, job):
        if (self.sup.heartbeat_every <= 0 or self._hb_dir is None
                or not isinstance(job, JobSpec)):
            return job
        digest = hashlib.sha1(job.key.encode("utf-8")).hexdigest()[:16]
        path = self._hb_dir / f"{digest}.json"
        # (Re-)registering resets the liveness window — a resubmitted job
        # gets a fresh grace period, not its predecessor's stale stamp.
        self._hb[job.key] = _HeartbeatState(
            path=path, last_change_at=self._now()
        )
        return dataclasses.replace(
            job, heartbeat_path=str(path),
            heartbeat_every=self.sup.heartbeat_every,
        )

    def _observe_heartbeat(self, entry, state: _HeartbeatState,
                           now: float) -> None:
        data = read_heartbeat(state.path)
        if data is None or data.get("seq") == state.last_seq:
            return
        accesses = int(data.get("accesses", 0))
        if (state.last_seq is not None and accesses > state.accesses):
            dt = now - state.last_change_at
            if dt > 0:
                inst = (accesses - state.accesses) / dt
                state.throughput = (
                    inst if state.throughput is None
                    else 0.5 * state.throughput + 0.5 * inst
                )
        state.last_seq = data.get("seq")
        state.accesses = accesses
        state.total = int(data.get("total", 0)) or state.total
        state.pid = data.get("pid")
        state.last_change_at = now
        if (self.sup.adaptive_deadlines and state.throughput
                and state.total):
            projected = state.total / state.throughput
            adaptive = entry.started + max(
                self.sup.min_deadline,
                self.sup.deadline_factor * projected,
            )
            # Liveness gets first refusal: never tighten below one more
            # heartbeat window from now.
            floor = now + self.sup.heartbeat_timeout
            adaptive = max(adaptive, floor)
            entry.deadline = (adaptive if entry.deadline is None
                              else min(entry.deadline, adaptive))

    # ------------------------------------------------------------------
    # Clock skew
    # ------------------------------------------------------------------

    def _detect_clock_skew(self, now: float, inflight: Dict) -> None:
        last = self._last_tick
        self._last_tick = now
        if last is None:
            return
        gap = now - last
        if gap <= self.sup.skew_threshold:
            return
        # The clock jumped (NTP step, suspend/resume, chaos injection):
        # rebase every deadline and liveness stamp by the gap so healthy
        # workers are not mass-expired by a time discontinuity.
        for entry in inflight.values():
            entry.started += gap
            if entry.deadline is not None:
                entry.deadline += gap
        for state in self._hb.values():
            state.last_change_at += gap
        self._event("clock-skew", gap_seconds=round(gap, 3))
        if self.config.verbose:
            print(f"[supervisor] clock jumped {gap:.0f}s; deadlines "
                  f"rebased", file=sys.stderr)

    # ------------------------------------------------------------------
    # Resource pressure
    # ------------------------------------------------------------------

    def _apply_pressure(self, status) -> None:
        pressured = status.memory_pressure or status.disk_pressure
        if pressured and not self._paused:
            self._paused = True
            if status.memory_pressure and self._workers_target > 1:
                self._workers_target = max(1, self._workers_target // 2)
            self._event(
                "degrade",
                memory=status.memory_pressure, disk=status.disk_pressure,
                available_mb=status.available_mb,
                disk_free_mb=status.disk_free_mb,
                workers_target=self._workers_target,
            )
            if self.config.verbose:
                print(f"[supervisor] resource pressure: submissions "
                      f"paused, worker target {self._workers_target}",
                      file=sys.stderr)
        elif self._paused and not pressured and status.memory_recovered:
            self._paused = False
            self._workers_target = self.config.workers
            self._event("restore", workers_target=self._workers_target)
            if self.config.verbose:
                print("[supervisor] resource pressure cleared: pool "
                      "restored", file=sys.stderr)

    def _disk_guard(self) -> Optional[str]:
        if self._journal is None:
            return None
        free = self._monitor._disk(self._journal.path.parent)
        floor = self.sup.policy.min_free_disk_mb
        if free is not None and free < floor:
            return (f"{free:.1f} MB free under {self._journal.path.parent} "
                    f"(floor {floor:.1f} MB)")
        return None

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------

    def _replay_journal(self, records: Dict[str, dict], jobs,
                        outcomes: Dict) -> int:
        """On resume, also rebuild breaker state from the quarantined
        records: each quarantined group starts open with one half-open
        probe available."""
        for rec in records.values():
            quarantined = Journal.decode_quarantined(rec)
            if quarantined is None:
                continue
            breaker = self._breakers.setdefault(quarantined.group,
                                                _Breaker())
            breaker.state = "open"
            breaker.strikes = max(breaker.strikes, quarantined.failures)
            breaker.tripped_this_run = False
            breaker.probe_spent = False
        return super()._replay_journal(records, jobs, outcomes)

    def _update_breaker(self, outcome: RunOutcome, job) -> None:
        if isinstance(outcome, QuarantinedRun):
            return  # skipping a job teaches the breaker nothing
        group = self._group(job)
        breaker = self._breakers.get(group)
        if outcome.ok:
            if breaker is not None:
                if breaker.state == "probing":
                    self._probe_verdict(group, outcome.key, "closed")
                if breaker.state != "closed":
                    self._event("breaker-close", group=group)
                breaker.state = "closed"
                breaker.strikes = 0
                breaker.probing_key = None
                breaker.tripped_this_run = False
            return
        breaker = self._breakers.setdefault(group, _Breaker())
        breaker.strikes += 1
        if breaker.state == "probing" and breaker.probing_key == outcome.key:
            breaker.state = "open"
            breaker.probing_key = None
            breaker.probe_spent = True
            self._probe_verdict(group, outcome.key, "reopened")
            self._event("breaker-reopen", group=group,
                        strikes=breaker.strikes)
        elif (breaker.state == "closed"
                and breaker.strikes >= self.sup.quarantine_after):
            breaker.state = "open"
            breaker.tripped_this_run = True
            self._event("breaker-open", group=group,
                        strikes=breaker.strikes)
            if self.config.verbose:
                print(f"[supervisor] quarantining {group} after "
                      f"{breaker.strikes} consecutive failures",
                      file=sys.stderr)

    def _probe_verdict(self, group: str, key: str, outcome: str) -> None:
        """Stamp a half-open probe's result into the audit trail."""
        for entry in reversed(self._probe_history):
            if (entry["group"] == group and entry["key"] == key
                    and entry["outcome"] == "pending"):
                entry["outcome"] = outcome
                entry["resolved_at"] = round(self._now(), 3)
                break
        self._event("breaker-probe-result", group=group, key=key,
                    outcome=outcome)

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------

    def _install_signal_handlers(self) -> Callable[[], None]:
        if (not self.sup.handle_signals
                or threading.current_thread() is not threading.main_thread()):
            return lambda: None

        def handler(signum, frame):
            if not self._drain:
                self._drain = True
                print(f"[supervisor] caught signal {signum}: draining "
                      f"in-flight jobs (signal again to hard-kill)",
                      file=sys.stderr)
                self._event("drain", signal=signum)
            else:
                raise KeyboardInterrupt

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # non-main thread / platform
                pass

        def restore() -> None:
            for sig, prev in previous.items():
                try:
                    signal.signal(sig, prev)
                except (ValueError, OSError):
                    pass

        return restore

    # ------------------------------------------------------------------
    # Manifest + events
    # ------------------------------------------------------------------

    def _event(self, kind: str, **details) -> dict:
        event = {"event": kind, "at_monotonic": round(self._now(), 3)}
        event.update(details)
        self._events.append(event)
        return event

    def _manifest_path(self) -> Optional[Path]:
        if self.sup.manifest_path is not None:
            return Path(self.sup.manifest_path)
        if self._journal is not None:
            return self._journal.path.with_name(
                self._journal.path.name + ".manifest.json"
            )
        return None

    def _throughput(self) -> Dict[str, Any]:
        """Campaign-level records/sec: the manifest's headline metric.

        ``records_per_sec`` divides records by campaign wall time (what
        the operator experiences — includes scheduling, journal writes,
        degraded pauses).  ``records_per_sec_busy`` divides by summed
        worker seconds (per-worker simulation speed, the number to
        compare against ``BENCH_simcore.json``).  Journal-replayed jobs
        contribute to neither: they did no simulation this run.
        ``engines`` breaks the record count down by the simulator inner
        loop that produced it: ``native`` when the C kernel ran at least
        one of the job's spans, ``classic`` otherwise.
        """
        wall = 0.0
        if self._campaign_started is not None:
            wall = max(0.0, self._now() - self._campaign_started)
        return {
            "records_simulated": float(self._records_done),
            "busy_seconds": round(self._busy_seconds, 3),
            "campaign_seconds": round(wall, 3),
            "records_per_sec": (
                round(self._records_done / wall, 1) if wall > 0 else 0.0
            ),
            "records_per_sec_busy": (
                round(self._records_done / self._busy_seconds, 1)
                if self._busy_seconds > 0 else 0.0
            ),
            "engines": dict(sorted(self._engine_records.items())),
        }

    def _write_manifest(self) -> None:
        path = self._manifest_path()
        if path is None:
            return
        counts: Dict[str, int] = {}
        for _key, status, kind in self._recorded:
            label = status if status != "failed" else f"failed:{kind}"
            counts[label] = counts.get(label, 0) + 1
        manifest = {
            "schema": 1,
            "written_at": time.time(),
            "interrupted": self._drain,
            "hard_killed": self._hard_killed,
            "jobs_recorded": len(self._recorded),
            "counts": counts,
            "quarantined_groups": sorted(
                group for group, b in self._breakers.items()
                if b.state in ("open", "probing")
            ),
            # Every half-open release this run: when the probe was let
            # through (released_at, monotonic) and how it ended
            # ("closed", "reopened", or "pending" if the campaign was
            # drained before the probe's verdict landed).
            "quarantine_probes": self._probe_history,
            "workers": self.config.workers,
            "workers_target_final": self._workers_target,
            "journal": (str(self._journal.path)
                        if self._journal is not None else None),
            "journal_backlog": len(self._journal_backlog),
            "throughput": self._throughput(),
            "events": self._events,
        }
        try:
            # Temp + fsync + rename + directory fsync — same crash
            # discipline as the service WAL, so a SIGKILL mid-write
            # leaves the previous manifest, never a torn one.
            from repro.durability import atomic_write_json

            atomic_write_json(path, manifest, sort_keys=False)
        except OSError:
            pass  # a manifest must never mask the campaign's own outcome
