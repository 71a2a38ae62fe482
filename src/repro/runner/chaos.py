"""Host-level chaos harness for the campaign supervisor.

Where :mod:`repro.runner.faultinject` perturbs a *job* (crashes, hangs,
corrupt traces), this module perturbs the *host* around a whole
campaign, deterministically, and then asserts the campaign invariants
held:

* ``disk-full``   — chosen journal appends raise ``ENOSPC``; outcomes
  must be buffered and flushed once the disk "recovers", in order,
  losing and duplicating nothing.
* ``sigkill``     — the campaign process SIGKILLs *itself* in the middle
  of a journal append (after spilling half a frame, the classic crash
  artefact); the journal must still replay and a plain resume must
  execute exactly the missing jobs.
* ``hung-worker`` — a worker sleeps forever; the heartbeat watchdog must
  preempt it long before any wall-clock budget.
* ``balloon``     — a worker allocates real resident memory and idles;
  the per-worker RSS guard must preempt it with a typed
  ``ResourceError``.
* ``clock-skew``  — the supervisor's clock jumps forward minutes while
  jobs are in flight; deadlines must be rebased, nothing spuriously
  expired.

Four further scenarios aim at the campaign *service*
(:mod:`repro.service` — the durable scheduler daemon behind
``repro serve``) and its network surface:

* ``service-sigkill``    — the daemon is SIGKILLed mid-campaign; a
  restart against the same state directory must replay the WAL, requeue
  the orphaned lease exactly once, and finish with byte-identical
  results, none lost, none duplicated.
* ``client-disconnect``  — a client tears the connection mid-upload
  (truncated POST body) and mid-download (closes before reading the
  response); the daemon must act on neither partial request nor die,
  and a well-behaved client then gets byte-identical results.
* ``cache-corruption``   — a result-cache entry is bit-flipped on disk;
  the checksum must catch it, the entry must be quarantined (never
  served), and the recomputed result must match the reference exactly.
* ``duplicate-submit``   — the same campaign is submitted twice
  concurrently; both submissions must map onto one campaign, the work
  must be computed exactly once, and a later resubmit must be a 100%
  cache hit with zero recomputation.

Four more scenarios aim at the multi-host *fleet* (:mod:`repro.fleet`
— remote agents pulling leased jobs over HTTP), using the seeded
fault-injecting transport for deterministic network failure:

* ``agent-sigkill``      — a remote agent is SIGKILLed while holding a
  lease; the daemon must declare it dead, requeue its job exactly once
  (manifest-attributed), degrade to its local pool, and finish with
  byte-identical results.
* ``network-partition``  — the agent's link is severed mid-job; the
  daemon reaps it and completes degraded, then the partition heals and
  the agent must *rejoin* — with the degradation window closed and
  recorded, and no result lost or doubled.
* ``duplicate-delivery`` — every result the agent sends is delivered
  twice (plus stale out-of-order redeliveries); the lease ledger must
  record each job exactly once and drop every duplicate with lineage.
* ``digest-mismatch``    — the trace-store interchange file is
  corrupted after submission; the agent must refuse the poisoned job
  (typed, without executing), the daemon must requeue it within the
  lease budget, and the healed file must then produce byte-identical
  results.

After every scenario the harness checks the **journal invariants**: every
frame verifies (a torn frame is tolerated only at EOF), no key has more
than one ``ok`` record, a resume executes exactly the missing keys, and
the merged results are bit-identical to a fault-free reference run.

Everything is counter-based — no randomness, no reliance on real host
pressure — so a failing scenario reproduces exactly.  ``repro chaos``
is the CLI entry point; ``--quick`` runs the subset CI exercises.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import multiprocessing
import os
import signal
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.durability import encode_frame, read_log
from repro.errors import RecordLogError
from repro.runner import worker
from repro.runner.executor import ExperimentRunner, RunnerConfig
from repro.runner.faultinject import FaultSpec
from repro.runner.jobs import JobSpec
from repro.runner.journal import Journal
from repro.runner.resources import ResourceMonitor, ResourcePolicy
from repro.runner.supervisor import (
    CampaignSupervisor,
    SupervisorConfig,
    load_campaign_manifest,
)

__all__ = [
    "ENOSPCJournal",
    "KillerJournal",
    "QUICK_SCENARIOS",
    "SCENARIOS",
    "ScenarioResult",
    "SkewedClock",
    "run_chaos",
    "verify_journal",
]

_TRACE = "lbm_s-2676B"
_TRACE2 = "mcf_s-1554B"
_SCALE = 0.03  # a few hundred records: real simulations, chaos-fast


# ----------------------------------------------------------------------
# Injection primitives
# ----------------------------------------------------------------------

class ENOSPCJournal(Journal):
    """A journal whose N-th appends fail with ``ENOSPC`` (1-based)."""

    def __init__(self, path: Union[str, Path],
                 fail_on: Sequence[int] = ()) -> None:
        super().__init__(path)
        self.fail_on = frozenset(fail_on)
        self.refused = 0
        self._appends = 0

    def append(self, outcome) -> None:
        self._appends += 1
        if self._appends in self.fail_on:
            self.refused += 1
            raise OSError(errno.ENOSPC,
                          "No space left on device (injected)")
        super().append(outcome)


class KillerJournal(Journal):
    """A journal that SIGKILLs its own process mid-append.

    On the ``kill_on``-th append it first spills the first half of the
    frame that append would write directly into the journal file — the
    artefact a real power cut or OOM kill leaves behind — and then
    SIGKILLs the process, so neither ``finally`` blocks nor ``atexit``
    hooks get to tidy up.
    """

    def __init__(self, path: Union[str, Path], kill_on: int = 2) -> None:
        super().__init__(path)
        self.kill_on = kill_on
        self._appends = 0

    def append(self, outcome) -> None:
        self._appends += 1
        if self._appends == self.kill_on:
            frame = encode_frame(self._appends, self._encode(outcome))
            with self.path.open("ab") as fh:
                fh.write(frame[:len(frame) // 2])
                fh.flush()
                os.fsync(fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        super().append(outcome)


class SkewedClock:
    """A monotonic clock that jumps ``jump`` seconds forward after
    ``after`` readings — an NTP step / suspend-resume, deterministically.
    """

    def __init__(self, jump: float = 120.0, after: int = 40) -> None:
        self.jump = jump
        self.after = after
        self.jumped = False
        self._calls = 0
        self._offset = 0.0

    def __call__(self) -> float:
        self._calls += 1
        if not self.jumped and self._calls > self.after:
            self.jumped = True
            self._offset = self.jump
        return time.monotonic() + self._offset


# ----------------------------------------------------------------------
# Journal invariants
# ----------------------------------------------------------------------

def verify_journal(path: Union[str, Path]) -> List[str]:
    """Check the journal invariants; returns human-readable problems.

    * the journal replays (:func:`repro.durability.read_log`): every
      frame verifies, and a torn frame is tolerated only at EOF (the
      artefact of a mid-append kill);
    * no key has more than one ``ok`` record (a resume must replay, not
      re-run, finished jobs).
    """
    path = Path(path)
    if not path.exists():
        return ["journal file does not exist"]
    try:
        records = read_log(path)
    except RecordLogError as exc:
        return [f"journal does not replay: {exc}"]
    ok_counts = Counter(rec["key"] for rec in records
                        if rec.get("status") == "ok" and rec.get("key"))
    return [f"{count} duplicate ok records for {key!r}"
            for key, count in sorted(ok_counts.items()) if count > 1]


def _reference_results(specs: Sequence[JobSpec]) -> Dict[str, dict]:
    """Fault-free inline results, as dicts, for bit-identity checks."""
    return {spec.key: worker.run_job(spec, 1).to_dict() for spec in specs}


def _check_resume(
    journal_path: Path,
    specs: Sequence[JobSpec],
    reference: Dict[str, dict],
    expect_executed: Optional[set] = None,
) -> List[str]:
    """Resume the campaign inline; assert it executes exactly the
    missing keys and that the merged results are bit-identical to the
    fault-free reference."""
    problems: List[str] = []
    executed: List[str] = []

    def counting_run(job, attempt):
        executed.append(job.key)
        return worker.run_job(job, attempt)

    runner = ExperimentRunner(
        RunnerConfig(workers=0, retries=0, journal_path=journal_path,
                     resume=True),
        run_fn=counting_run,
    )
    suite = runner.run(specs)

    if expect_executed is not None and set(executed) != expect_executed:
        problems.append(
            f"resume executed {sorted(executed)}, expected "
            f"{sorted(expect_executed)}"
        )
    if len(suite.outcomes) != len(specs):
        problems.append(
            f"resume finished {len(suite.outcomes)}/{len(specs)} jobs"
        )
    for outcome in suite.outcomes:
        if not outcome.ok:
            problems.append(f"resume failed {outcome.key}: "
                            f"{outcome.message}")
            continue
        result = outcome.result
        as_dict = result.to_dict() if hasattr(result, "to_dict") else result
        if as_dict != reference[outcome.key]:
            problems.append(
                f"results for {outcome.key} are not bit-identical to the "
                f"fault-free reference"
            )
    return problems


# ----------------------------------------------------------------------
# Scenario harness
# ----------------------------------------------------------------------

@dataclass
class ScenarioResult:
    name: str
    passed: bool
    skipped: bool = False
    duration: float = 0.0
    problems: List[str] = field(default_factory=list)

    def banner(self) -> str:
        if self.skipped:
            state = "SKIP"
        else:
            state = "PASS" if self.passed else "FAIL"
        return f"[{state}] {self.name} ({self.duration:.1f}s)"


def _campaign_specs() -> List[JobSpec]:
    """Four cheap-but-real jobs with distinct journal keys."""
    return [
        JobSpec(trace=t, l1d="none", scale=_SCALE, warmup_fraction=wf)
        for t in (_TRACE, _TRACE2)
        for wf in (0.2, 0.25)
    ]


def _supervisor(
    journal: Journal,
    workers: int = 1,
    timeout: Optional[float] = 120.0,
    retries: int = 0,
    sup: Optional[SupervisorConfig] = None,
    **kwargs,
) -> CampaignSupervisor:
    return CampaignSupervisor(
        RunnerConfig(workers=workers, timeout=timeout, retries=retries),
        supervisor=sup or SupervisorConfig(
            heartbeat_every=200, heartbeat_timeout=30.0,
            poll_interval=0.05, handle_signals=False,
        ),
        journal=journal,
        **kwargs,
    )


def _read_manifest(journal_path: Path) -> dict:
    path = journal_path.with_name(journal_path.name + ".manifest.json")
    doc, _healed = load_campaign_manifest(path)
    return doc if isinstance(doc, dict) else {}


def _event_kinds(manifest: dict) -> List[str]:
    return [e.get("event") for e in manifest.get("events", [])]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def _scenario_disk_full(workdir: Path) -> List[str]:
    """Appends 2 and 3 hit ENOSPC; nothing may be lost or reordered."""
    specs = _campaign_specs()
    reference = _reference_results(specs)
    journal = ENOSPCJournal(workdir / "journal.jsonl", fail_on=(2, 3))
    suite = _supervisor(journal).run(specs)

    problems = []
    if len(suite.completed) != len(specs):
        problems.append(f"campaign completed {len(suite.completed)}/"
                        f"{len(specs)} jobs under ENOSPC")
    if journal.refused != 2:
        problems.append(f"expected 2 refused appends, saw "
                        f"{journal.refused}")
    problems += verify_journal(journal.path)
    records = journal.load()
    missing = {s.key for s in specs} - set(records)
    if missing:
        problems.append(f"journal lost entries for {sorted(missing)}")
    if "journal-degraded" not in _event_kinds(_read_manifest(journal.path)):
        problems.append("manifest records no journal-degraded event")
    # The backlog was flushed, so a resume replays everything.
    problems += _check_resume(journal.path, specs, reference,
                              expect_executed=set())
    return problems


def _sigkill_campaign(workdir_str: str, kill_on: int) -> None:
    """Child-process body for the sigkill scenario (killed mid-append)."""
    journal = KillerJournal(Path(workdir_str) / "journal.jsonl",
                            kill_on=kill_on)
    _supervisor(journal).run(_campaign_specs())


def _scenario_sigkill(workdir: Path) -> List[str]:
    """SIGKILL mid-journal-append: torn tail, then a perfect resume."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return ["fork start method unavailable (platform)"]
    specs = _campaign_specs()
    reference = _reference_results(specs)
    kill_on = 2
    proc = ctx.Process(target=_sigkill_campaign,
                       args=(str(workdir), kill_on))
    proc.start()
    # Poll is_alive() (waitpid-backed) rather than join(): join waits on
    # a sentinel pipe that surviving grandchildren would hold open, and
    # this scenario is exactly about ungraceful process death.
    deadline = time.monotonic() + 120
    while proc.is_alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    problems = []
    if proc.is_alive():
        proc.kill()
        proc.join()
        problems.append("campaign child did not die within 120s")
    elif proc.exitcode != -signal.SIGKILL:
        problems.append(f"campaign child exited {proc.exitcode}, "
                        f"expected -SIGKILL")

    journal_path = workdir / "journal.jsonl"
    problems += verify_journal(journal_path)
    recorded = {
        key for key, rec in Journal(journal_path).load().items()
        if rec.get("status") == "ok"
    }
    if len(recorded) != kill_on - 1:
        problems.append(
            f"expected {kill_on - 1} durable records before the kill, "
            f"found {len(recorded)}"
        )
    missing = {s.key for s in specs} - recorded
    problems += _check_resume(journal_path, specs, reference,
                              expect_executed=missing)
    return problems


def _scenario_hung_worker(workdir: Path) -> List[str]:
    """A wedged worker must die by heartbeat, not by wall clock."""
    spec = JobSpec(
        trace=_TRACE, l1d="none", scale=_SCALE,
        fault=FaultSpec(kind="hang", hang_seconds=600.0),
    )
    wall_budget = 300.0
    journal = Journal(workdir / "journal.jsonl")
    sup = SupervisorConfig(heartbeat_every=200, heartbeat_timeout=1.0,
                           poll_interval=0.05, handle_signals=False)
    started = time.monotonic()
    suite = _supervisor(journal, timeout=wall_budget, sup=sup).run([spec])
    took = time.monotonic() - started

    problems = []
    outcome = suite.outcomes[0] if suite.outcomes else None
    if outcome is None or outcome.ok:
        problems.append("hung job did not fail")
    else:
        if outcome.error_type != "HeartbeatTimeout":
            problems.append(f"expected HeartbeatTimeout, got "
                            f"{outcome.error_type}: {outcome.message}")
        if outcome.kind != "timeout":
            problems.append(f"expected kind=timeout, got {outcome.kind}")
    if took > wall_budget / 10:
        problems.append(
            f"preemption took {took:.1f}s — not 'well before' the "
            f"{wall_budget:.0f}s wall-clock budget"
        )
    problems += verify_journal(journal.path)
    return problems


def _scenario_balloon(workdir: Path) -> List[str]:
    """A worker over the RSS cap is preempted with a ResourceError."""
    from repro.runner.resources import process_rss_mb

    spec = JobSpec(
        trace=_TRACE, l1d="none", scale=_SCALE,
        fault=FaultSpec(kind="balloon", balloon_mb=256,
                        hang_seconds=600.0),
    )
    journal = Journal(workdir / "journal.jsonl")
    # Forked workers share pages with this process, so the cap is
    # anchored to our own RSS — only the balloon can push a worker over.
    base_rss = process_rss_mb(os.getpid()) or 128.0
    sup = SupervisorConfig(
        heartbeat_every=200, heartbeat_timeout=60.0, poll_interval=0.05,
        handle_signals=False,
        policy=ResourcePolicy(max_worker_rss_mb=base_rss + 128.0),
    )
    # Memory/disk readers are scripted to "plenty" so only the RSS guard
    # (reading the real /proc) can act — the scenario is then immune to
    # whatever the host happens to be doing.
    monitor = ResourceMonitor(
        sup.policy,
        mem_reader=lambda: 65536.0,
        disk_reader=lambda path: 65536.0,
    )
    suite = _supervisor(journal, timeout=600.0, sup=sup,
                        monitor=monitor).run([spec])

    problems = []
    outcome = suite.outcomes[0] if suite.outcomes else None
    if outcome is None or outcome.ok:
        problems.append("ballooning job did not fail")
    else:
        if outcome.kind != "resource":
            problems.append(f"expected kind=resource, got "
                            f"{outcome.kind}: {outcome.message}")
        if outcome.error_type != "ResourceError":
            problems.append(f"expected ResourceError, got "
                            f"{outcome.error_type}")
    kinds = _event_kinds(_read_manifest(journal.path))
    if "rss-preempt" not in kinds:
        problems.append(f"manifest records no rss-preempt event "
                        f"(events: {kinds})")
    problems += verify_journal(journal.path)
    return problems


def _scenario_clock_skew(workdir: Path) -> List[str]:
    """A +120s clock jump mid-campaign must not expire healthy jobs."""
    specs = [
        JobSpec(trace=_TRACE, l1d="none", scale=_SCALE,
                fault=FaultSpec(kind="hang", hang_seconds=1.5)),
        JobSpec(trace=_TRACE2, l1d="none", scale=_SCALE),
    ]
    journal = Journal(workdir / "journal.jsonl")
    clock = SkewedClock(jump=120.0, after=40)
    sup = SupervisorConfig(heartbeat_every=0, poll_interval=0.05,
                           skew_threshold=30.0, handle_signals=False)
    suite = _supervisor(journal, timeout=30.0, sup=sup,
                        now_fn=clock).run(specs)

    problems = []
    if not clock.jumped:
        problems.append("clock never jumped — scenario misconfigured")
    for outcome in suite.outcomes:
        if not outcome.ok:
            problems.append(
                f"{outcome.key} failed after the clock jump "
                f"[{outcome.kind}] {outcome.message}"
            )
    if len(suite.outcomes) != len(specs):
        problems.append(f"only {len(suite.outcomes)}/{len(specs)} "
                        f"outcomes recorded")
    if "clock-skew" not in _event_kinds(_read_manifest(journal.path)):
        problems.append("manifest records no clock-skew event")
    problems += verify_journal(journal.path)
    return problems


# ----------------------------------------------------------------------
# Campaign-service scenarios (repro.service)
# ----------------------------------------------------------------------

def _service_jobs(specs: Sequence[JobSpec]) -> List[dict]:
    """Submission payload entries matching ``specs``."""
    from repro.service.daemon import spec_to_dict

    return [spec_to_dict(spec) for spec in specs]


def _start_service(state_dir: Path, workers: int = 1,
                   lease_duration: float = 30.0, **overrides):
    from repro.service import CampaignService, ServiceConfig

    service = CampaignService(ServiceConfig(
        state_dir=state_dir, workers=workers,
        lease_duration=lease_duration, lease_poll=0.05,
        heartbeat_every=200, **overrides,
    ))
    service.start()
    return service


def _wait_campaign(service, cid: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.status(cid)
        if status["state"] in ("done", "cancelled"):
            return status
        time.sleep(0.05)
    return service.status(cid)


def _service_results_map(service, cid: str) -> Dict[str, dict]:
    """``job key -> result dict`` from the service's verified results."""
    resp = service.results(cid)
    return {r["key"]: r.get("result") for r in resp["results"]}


def _check_wal_exactly_once(state_dir: Path,
                            expect_keys: int) -> List[str]:
    """Every content key must have exactly one ``ok`` result record."""
    counts: Dict[str, int] = {}
    for rec in read_log(state_dir / "service.wal"):
        if rec.get("type") == "result" and rec.get("status") == "ok":
            key = rec.get("content_key", "?")
            counts[key] = counts.get(key, 0) + 1
    problems = []
    dupes = {k: n for k, n in counts.items() if n > 1}
    if dupes:
        problems.append(f"duplicated WAL result records: {dupes}")
    if len(counts) != expect_keys:
        problems.append(f"WAL holds ok results for {len(counts)} content "
                        f"keys, expected {expect_keys}")
    return problems


def _service_daemon_body(state_dir_str: str) -> None:
    """Child-process body for the service-sigkill scenario."""
    service = _start_service(Path(state_dir_str), workers=1)
    while True:  # parent SIGKILLs us; there is no graceful exit here
        time.sleep(0.5)


def _scenario_service_sigkill(workdir: Path) -> List[str]:
    """SIGKILL the daemon mid-campaign; a restart must lose nothing."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return ["fork start method unavailable (platform)"]
    from repro.service import ServiceClient

    specs = _campaign_specs()
    reference = _reference_results(specs)
    state_dir = workdir / "state"
    proc = ctx.Process(target=_service_daemon_body, args=(str(state_dir),))
    proc.start()

    problems: List[str] = []
    endpoint = state_dir / "endpoint.json"
    deadline = time.monotonic() + 30
    while not endpoint.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    if not endpoint.exists():
        proc.kill()
        proc.join()
        return ["daemon child never wrote endpoint.json"]
    info = json.loads(endpoint.read_text(encoding="utf-8"))
    client = ServiceClient(info["host"], info["port"], retries=2,
                           jitter_seed=0)
    resp = client.submit(_service_jobs(specs))
    cid = resp["campaign"]
    # Let the single worker land at least one result, then kill the
    # daemon dead — no drain, no cleanup, mid-campaign by construction.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.healthz().get("jobs_computed", 0) >= 1:
            break
        time.sleep(0.01)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()

    computed_before = sum(
        1 for rec in read_log(state_dir / "service.wal")
        if rec.get("type") == "result" and rec.get("status") == "ok"
    )
    if computed_before >= len(specs):
        problems.append("daemon finished the whole campaign before the "
                        "kill — not mid-campaign")

    # Restart against the same state directory (in-process this time).
    service = _start_service(state_dir, workers=1)
    try:
        if service.epoch != 2:
            problems.append(f"restarted daemon has epoch {service.epoch}, "
                            f"expected 2")
        # Only the records written before the restart's epoch marker
        # describe the kill; the resumed workers append concurrently.
        wal = read_log(state_dir / "service.wal")
        epoch2 = next(i for i, r in enumerate(wal)
                      if r.get("type") == "epoch" and r.get("epoch") == 2)
        dead_epoch = wal[:epoch2]
        open_at_kill = (
            sum(1 for r in dead_epoch if r.get("type") == "lease")
            - sum(1 for r in dead_epoch
                  if r.get("type") in ("result", "lease-expired"))
        )
        orphaned = [r for r in wal if r.get("type") == "lease-expired"
                    and r.get("reason") == "daemon epoch lost"]
        if open_at_kill > 0 and not orphaned:
            problems.append("a lease was open at the kill but replay "
                            "recorded no epoch-lost expiry")
        if orphaned and len(orphaned) != open_at_kill:
            problems.append(f"{open_at_kill} leases were open at the kill "
                            f"but {len(orphaned)} epoch-lost expiries "
                            f"were recorded")
        status = _wait_campaign(service, cid)
        if status["state"] != "done":
            return problems + [f"campaign stuck {status['state']!r} after "
                               f"restart: {status['counts']}"]
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"results for {spec.key} are not "
                                f"byte-identical after the restart")
        problems += _check_wal_exactly_once(state_dir, len(specs))
    finally:
        service.stop()
    return problems


def _raw_http(host: str, port: int, payload: bytes) -> None:
    """Send raw bytes and slam the connection shut (no read)."""
    import socket

    sock = socket.create_connection((host, port), timeout=5.0)
    try:
        sock.sendall(payload)
    finally:
        sock.close()


def _scenario_client_disconnect(workdir: Path) -> List[str]:
    """Torn uploads and abandoned downloads must not hurt the daemon."""
    specs = _campaign_specs()
    reference = _reference_results(specs)
    service = _start_service(workdir / "state", workers=2)
    problems: List[str] = []
    try:
        host, port = service.address
        body = json.dumps({"jobs": _service_jobs(specs)}).encode("utf-8")

        # 1. Truncated POST: promise the full body, send half, hang up.
        #    The daemon must not act on the partial submission.
        head = (f"POST /v1/campaigns HTTP/1.1\r\nHost: chaos\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        _raw_http(host, port, head + body[:len(body) // 2])
        time.sleep(0.2)  # let the handler thread trip over the EOF
        health = service.healthz()
        if not health.get("ok"):
            problems.append("daemon unhealthy after truncated upload")
        if health.get("campaigns") != 0:
            problems.append("a truncated submission created a campaign")

        # 2. A full, well-formed submission must still work.
        resp = service.submit({"jobs": _service_jobs(specs)})
        cid = resp["campaign"]
        status = _wait_campaign(service, cid)
        if status["state"] != "done":
            return problems + [f"campaign did not finish: "
                               f"{status['counts']}"]

        # 3. Mid-stream disconnect: request the results, vanish before
        #    reading a byte.  The daemon eats the broken pipe.
        _raw_http(host, port,
                  (f"GET /v1/campaigns/{cid}/results HTTP/1.1\r\n"
                   f"Host: chaos\r\n\r\n").encode("ascii"))
        time.sleep(0.2)
        if not service.healthz().get("ok"):
            problems.append("daemon unhealthy after mid-stream disconnect")

        # 4. The patient client still gets every byte, exactly right.
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"results for {spec.key} differ from the "
                                f"direct-runner reference")
        problems += _check_wal_exactly_once(workdir / "state", len(specs))
    finally:
        service.stop()
    return problems


def _scenario_cache_corruption(workdir: Path) -> List[str]:
    """A bit-flipped cache entry must be quarantined and recomputed."""
    specs = _campaign_specs()
    reference = _reference_results(specs)
    state_dir = workdir / "state"
    service = _start_service(state_dir, workers=2)
    problems: List[str] = []
    try:
        resp = service.submit({"jobs": _service_jobs(specs)})
        cid = resp["campaign"]
        if _wait_campaign(service, cid)["state"] != "done":
            return ["campaign did not finish before corruption"]

        entries = sorted((state_dir / "cache").glob("*.json"))
        if len(entries) != len(specs):
            return [f"expected {len(specs)} cache entries, found "
                    f"{len(entries)}"]
        victim = entries[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # deterministic single-byte flip
        victim.write_bytes(bytes(blob))

        # The verified read must refuse the entry and requeue the job.
        from repro.errors import ServiceError
        try:
            service.results(cid)
            problems.append("corrupt cache entry was served without "
                            "complaint")
        except ServiceError as exc:
            if exc.status != 409:
                problems.append(f"expected a 409 recompute signal, got "
                                f"{exc.status}: {exc}")
        quarantined = list((state_dir / "cache").glob("*.quarantined-*"))
        if len(quarantined) != 1:
            problems.append(f"expected 1 quarantined entry, found "
                            f"{len(quarantined)}")
        if _wait_campaign(service, cid)["state"] != "done":
            return problems + ["recompute after corruption never finished"]
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"healed results for {spec.key} are not "
                                f"byte-identical to the reference")
        if service.cache.quarantined != 1:
            problems.append(f"cache counted {service.cache.quarantined} "
                            f"quarantines, expected 1")
        if service.jobs_computed != len(specs) + 1:
            problems.append(f"expected exactly one recompute "
                            f"({len(specs) + 1} total), daemon computed "
                            f"{service.jobs_computed}")
    finally:
        service.stop()
    return problems


def _scenario_duplicate_submit(workdir: Path) -> List[str]:
    """Two racing identical submissions must compute each job once."""
    import threading

    specs = _campaign_specs()
    reference = _reference_results(specs)
    state_dir = workdir / "state"
    service = _start_service(state_dir, workers=2)
    problems: List[str] = []
    try:
        payload = {"jobs": _service_jobs(specs)}
        barrier = threading.Barrier(2)
        responses: List[dict] = [None, None]

        def racer(slot: int) -> None:
            barrier.wait()
            responses[slot] = service.submit(payload)

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cids = {r["campaign"] for r in responses if r}
        if len(cids) != 1:
            return [f"racing submissions produced {len(cids)} campaigns: "
                    f"{sorted(cids)}"]
        if sum(1 for r in responses if r and r["created"]) != 1:
            problems.append("exactly one racer should have created the "
                            "campaign")
        cid = cids.pop()
        if _wait_campaign(service, cid)["state"] != "done":
            return problems + ["deduplicated campaign did not finish"]
        if service.jobs_computed != len(specs):
            problems.append(f"duplicate submission caused recomputation: "
                            f"{service.jobs_computed} computes for "
                            f"{len(specs)} unique jobs")
        campaign_recs = [r for r in read_log(state_dir / "service.wal")
                         if r.get("type") == "campaign"]
        if len(campaign_recs) != 1:
            problems.append(f"{len(campaign_recs)} campaign WAL records "
                            f"for one logical campaign")
        # A third, late submission: 100% cache hit, zero new work.
        resp = service.submit(payload)
        if not resp["all_cached"] or resp["cache_hits"] != len(specs):
            problems.append(f"resubmit was not fully cached: "
                            f"{resp['cache_hits']}/{resp['total']}")
        if service.jobs_computed != len(specs):
            problems.append("resubmit of a finished campaign recomputed")
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"results for {spec.key} differ from the "
                                f"direct-runner reference")
        problems += _check_wal_exactly_once(state_dir, len(specs))
    finally:
        service.stop()
    return problems


# ----------------------------------------------------------------------
# Fleet scenarios (repro.fleet): remote agents under network fire
# ----------------------------------------------------------------------

def _wait_until(predicate, timeout: float = 30.0,
                interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _fleet_agent(service, plan=None, run_fn=None, name: str = "chaos",
                 pool: int = 1):
    """An in-process agent whose every request crosses a fault injector."""
    from repro.fleet import FaultyTransport, FleetAgent, HTTPTransport

    host, port = service.address
    transport = FaultyTransport(HTTPTransport(host, port, timeout=10.0),
                                plan)
    agent = FleetAgent(host, port, pool=pool, name=name,
                       run_fn=run_fn or worker.run_job,
                       transport=transport, poll=0.05, retries=2,
                       backoff_base=0.05, jitter_seed=0)
    return agent, transport


def _fleet_events(state_dir: Path) -> List[str]:
    """Event kinds from the daemon's fleet manifest, in order."""
    path = state_dir / "fleet-manifest.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    return [e.get("event") for e in doc.get("events", [])]


def _agent_held_lease(service) -> bool:
    return any(lease.agent for lease in service.leases.live())


def _fleet_agent_body(host: str, port: int) -> None:
    """Child-process body for the agent-sigkill scenario.

    The slow ``run_fn`` guarantees the agent is mid-job — holding a
    lease, result not yet delivered — for long enough that the parent's
    SIGKILL always lands inside the window.
    """
    from repro.fleet import FleetAgent

    def slow_run(spec, attempt):
        time.sleep(0.8)
        return worker.run_job(spec, attempt)

    agent = FleetAgent(host, port, pool=1, name="doomed",
                       run_fn=slow_run, poll=0.05, jitter_seed=0)
    agent.start()
    while True:  # parent SIGKILLs us; there is no graceful exit here
        time.sleep(0.5)


def _scenario_agent_sigkill(workdir: Path) -> List[str]:
    """SIGKILL a remote agent mid-job; nothing lost, nothing doubled.

    The daemon must declare the silent agent dead, requeue its lease
    exactly once, fall back to its local pool (degraded mode, recorded
    in the manifest), and still finish byte-identical to a direct run.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return ["fork start method unavailable (platform)"]
    specs = _campaign_specs()
    reference = _reference_results(specs)
    state_dir = workdir / "state"
    # Short leases so the dead agent is reaped in scenario time.
    service = _start_service(state_dir, workers=1, lease_duration=1.5)
    problems: List[str] = []
    proc = None
    try:
        host, port = service.address
        proc = ctx.Process(target=_fleet_agent_body, args=(host, port))
        proc.start()
        # Register *before* submitting so the agent — not the local
        # pool — takes the first lease (a live agent blocks local).
        if not _wait_until(lambda: service.fleet.live_agents()):
            return ["agent child never registered"]
        cid = service.submit({"jobs": _service_jobs(specs)})["campaign"]
        if not _wait_until(lambda: _agent_held_lease(service)):
            return ["agent never held a lease"]
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()
        proc = None

        status = _wait_campaign(service, cid)
        if status["state"] != "done":
            return problems + [f"campaign stuck after the agent kill: "
                               f"{status['counts']}"]
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"results for {spec.key} are not "
                                f"byte-identical after the agent death")
        events = _fleet_events(state_dir)
        for needed in ("agent-registered", "agent-dead", "agent-requeue",
                       "degraded-enter"):
            if needed not in events:
                problems.append(f"manifest records no {needed} event "
                                f"(saw {events})")
        if not service.fleet_status()["degraded"]:
            problems.append("daemon is not degraded with zero live agents")
        requeued = [r for r in read_log(state_dir / "service.wal")
                    if r.get("type") == "lease-expired" and r.get("agent")]
        if not requeued:
            problems.append("no agent-attributed lease-expired WAL record")
        problems += _check_wal_exactly_once(state_dir, len(specs))
    finally:
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join()
        service.stop()
    return problems


def _scenario_network_partition(workdir: Path) -> List[str]:
    """Sever the agent's link mid-job, then heal it and rejoin.

    During the partition the daemon must reap the agent, requeue its
    lease, and finish on the local pool (degraded).  After the heal the
    agent's next contact must rejoin it and close the recorded
    degradation window — and the result the agent computed behind the
    partition must not produce a second record.
    """

    def slow_run(spec, attempt):
        time.sleep(0.6)
        return worker.run_job(spec, attempt)

    specs = _campaign_specs()
    reference = _reference_results(specs)
    state_dir = workdir / "state"
    service = _start_service(state_dir, workers=1, lease_duration=1.0)
    agent, transport = _fleet_agent(service, run_fn=slow_run, name="flaky")
    problems: List[str] = []
    try:
        agent.start()
        cid = service.submit({"jobs": _service_jobs(specs)})["campaign"]
        if not _wait_until(lambda: _agent_held_lease(service)):
            return ["agent never held a lease"]
        transport.set_partitioned(True)

        status = _wait_campaign(service, cid)
        if status["state"] != "done":
            return [f"campaign stuck behind the partition: "
                    f"{status['counts']}"]
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"results for {spec.key} are not "
                                f"byte-identical across the partition")
        events = _fleet_events(state_dir)
        for needed in ("agent-dead", "agent-requeue", "degraded-enter"):
            if needed not in events:
                problems.append(f"manifest records no {needed} event "
                                f"(saw {events})")
        if transport.stats.partitioned == 0:
            problems.append("the injected partition never dropped a "
                            "request")

        # Heal the link: the agent must rejoin and end the degradation.
        transport.set_partitioned(False)
        if not _wait_until(
                lambda: not service.fleet_status()["degraded"]):
            problems.append("degradation window never closed after the "
                            "heal")
        events = _fleet_events(state_dir)
        for needed in ("agent-rejoined", "degraded-exit"):
            if needed not in events:
                problems.append(f"manifest records no {needed} event "
                                f"after the heal (saw {events})")
        windows = service.manifest.degraded_windows()
        if not windows or not windows[-1].get("recovered"):
            problems.append(f"no recovered degradation window recorded: "
                            f"{windows}")
        problems += _check_wal_exactly_once(state_dir, len(specs))
    finally:
        agent.stop()
        service.stop()
    return problems


def _scenario_duplicate_delivery(workdir: Path) -> List[str]:
    """Deliver every result twice (plus stale redelivery): record once.

    ``duplicate_paths`` makes the transport send each ``/result`` POST
    twice back to back; ``reorder_paths`` re-delivers a stale copy once
    more before the agent's next request.  The lease ledger must record
    each job exactly once, route every duplicate through the late-result
    drop path, and keep the campaign byte-identical.
    """
    from repro.fleet import FaultPlan

    specs = _campaign_specs()
    reference = _reference_results(specs)
    state_dir = workdir / "state"
    service = _start_service(state_dir, workers=1)
    plan = FaultPlan(duplicate_paths=("/result",),
                     reorder_paths=("/result",))
    agent, transport = _fleet_agent(service, plan=plan, name="stutter")
    problems: List[str] = []
    try:
        agent.start()
        cid = service.submit({"jobs": _service_jobs(specs)})["campaign"]
        status = _wait_campaign(service, cid)
        if status["state"] != "done":
            return [f"campaign did not finish under duplicate delivery: "
                    f"{status['counts']}"]
        # The daemon marks the campaign done on the *first* delivery of
        # the final result; the agent thread may still be mid-way
        # through sending its injected duplicate, so give the counter a
        # beat to catch up before judging it.
        _wait_until(lambda: transport.stats.duplicated >= len(specs),
                    timeout=5.0)
        if transport.stats.duplicated < len(specs):
            problems.append(f"only {transport.stats.duplicated} duplicate "
                            f"deliveries were injected for {len(specs)} "
                            f"results")
        if service.jobs_computed != len(specs):
            problems.append(f"{service.jobs_computed} computes for "
                            f"{len(specs)} jobs under duplicate delivery")
        merged = _service_results_map(service, cid)
        for spec in specs:
            if merged.get(spec.key) != reference[spec.key]:
                problems.append(f"results for {spec.key} are not "
                                f"byte-identical under duplicate delivery")
        _wait_until(lambda: sum(
            1 for job in service.status(cid)["jobs"]
            for event in job.get("lineage", [])
            if event.get("event") == "late-result") >= len(specs),
            timeout=5.0)
        late = sum(1 for job in service.status(cid)["jobs"]
                   for event in job.get("lineage", [])
                   if event.get("event") == "late-result")
        if late < len(specs):
            problems.append(f"expected >= {len(specs)} late-result drops "
                            f"in the lineage, saw {late}")
        problems += _check_wal_exactly_once(state_dir, len(specs))
    finally:
        agent.stop()
        service.stop()
    return problems


def _scenario_digest_mismatch(workdir: Path) -> List[str]:
    """Corrupt the trace-store interchange file: refuse, requeue, heal.

    The scheduler hashed the store at submission; the agent must detect
    that the bytes on disk no longer match the digest the lease
    promised, refuse the job (typed, without executing it), and burn
    exactly one requeue credit.  Restoring the bytes must let the
    requeued attempt verify, run, and land byte-identical.
    """
    from repro.memory.tracestore import ensure_store

    store_dir = workdir / "stores"
    path = ensure_store(store_dir, _TRACE, _SCALE)
    spec = dataclasses.replace(
        JobSpec(trace=_TRACE, l1d="none", scale=_SCALE,
                warmup_fraction=0.2),
        trace_path=str(path))
    reference = worker.run_job(spec, 1).to_dict()
    pristine = path.read_bytes()

    state_dir = workdir / "state"
    service = _start_service(state_dir, workers=1)
    # Driven synchronously (no threads): each step below is one
    # deterministic lease/report exchange, so the corruption window
    # cannot race the agent's poll loop.
    agent, transport = _fleet_agent(service, name="careful")
    problems: List[str] = []
    try:
        agent.register()
        cid = service.submit({"jobs": _service_jobs([spec])})["campaign"]
        blob = bytearray(pristine)
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        lease1 = agent._agent_request("lease", {"max": 1})
        if len(lease1.get("leases", ())) != 1:
            return ["agent could not lease the poisoned job"]
        agent._run_one(lease1["leases"][0])
        if agent.jobs_refused != 1 or agent.jobs_done != 0:
            problems.append(f"agent should have refused the poisoned job "
                            f"(refused={agent.jobs_refused}, "
                            f"done={agent.jobs_done})")
        if service.jobs_computed != 0:
            problems.append("a job ran against corrupted trace bytes")
        refused = [r for r in read_log(state_dir / "service.wal")
                   if r.get("type") == "refused"]
        if len(refused) != 1 or not refused[0].get("requeued") \
                or refused[0].get("agent") != agent.agent_id:
            problems.append(f"expected one agent-attributed requeued "
                            f"refusal in the WAL, saw {refused}")
        if "job-refused" not in _fleet_events(state_dir):
            problems.append("manifest records no job-refused event")

        # Heal the bytes: the requeued attempt must verify and run.
        path.write_bytes(pristine)
        lease2 = agent._agent_request("lease", {"max": 1})
        if len(lease2.get("leases", ())) != 1:
            return problems + ["requeued job was not leasable after the "
                               "heal"]
        if lease2["leases"][0].get("attempt") != 2:
            problems.append(f"healed lease should be attempt 2, got "
                            f"{lease2['leases'][0].get('attempt')}")
        agent._run_one(lease2["leases"][0])
        status = service.status(cid)
        if status["state"] != "done":
            return problems + [f"campaign not done after the heal: "
                               f"{status['counts']}"]
        merged = _service_results_map(service, cid)
        if merged.get(spec.key) != reference:
            problems.append("healed result is not byte-identical to the "
                            "direct-runner reference")
        record = service.fleet.get(agent.agent_id)
        if record is None or record.results_refused != 1 \
                or record.results_ok != 1:
            problems.append(f"registry miscounted the refusal: "
                            f"{record.describe() if record else None}")
        problems += _check_wal_exactly_once(state_dir, 1)
    finally:
        service.stop()
    return problems


SCENARIOS: Dict[str, Callable[[Path], List[str]]] = {
    "disk-full": _scenario_disk_full,
    "sigkill": _scenario_sigkill,
    "hung-worker": _scenario_hung_worker,
    "balloon": _scenario_balloon,
    "clock-skew": _scenario_clock_skew,
    "service-sigkill": _scenario_service_sigkill,
    "client-disconnect": _scenario_client_disconnect,
    "cache-corruption": _scenario_cache_corruption,
    "duplicate-submit": _scenario_duplicate_submit,
    "agent-sigkill": _scenario_agent_sigkill,
    "network-partition": _scenario_network_partition,
    "duplicate-delivery": _scenario_duplicate_delivery,
    "digest-mismatch": _scenario_digest_mismatch,
}

#: The CI subset: one journal-durability kill, one ENOSPC storm, one
#: liveness preemption — the three invariants a campaign lives or dies
#: by — plus all four campaign-service scenarios (daemon kill, torn
#: connections, cache corruption, duplicate submission) and the fastest
#: fleet scenario (duplicate delivery over the faulty transport).
QUICK_SCENARIOS = ("disk-full", "sigkill", "hung-worker",
                   "service-sigkill", "client-disconnect",
                   "cache-corruption", "duplicate-submit",
                   "duplicate-delivery")


def run_chaos(
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    workdir: Optional[Union[str, Path]] = None,
    verbose: bool = False,
) -> List[ScenarioResult]:
    """Run chaos scenarios; each gets a private subdirectory.

    ``scenarios`` selects by name (default: all, or ``QUICK_SCENARIOS``
    when ``quick``).  Unknown names raise ``KeyError`` so typos fail
    loudly rather than silently passing.
    """
    names = list(scenarios) if scenarios else (
        list(QUICK_SCENARIOS) if quick else list(SCENARIOS)
    )
    for name in names:
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown chaos scenario {name!r}; choose from "
                f"{sorted(SCENARIOS)}"
            )
    base = Path(workdir) if workdir else Path(
        tempfile.mkdtemp(prefix="repro-chaos-")
    )
    results: List[ScenarioResult] = []
    for name in names:
        subdir = base / name.replace("-", "_")
        subdir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        try:
            problems = SCENARIOS[name](subdir)
            skipped = False
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — harness must report, not die
            problems = [f"scenario crashed: {type(exc).__name__}: {exc}"]
            skipped = False
        result = ScenarioResult(
            name=name,
            passed=not problems,
            skipped=skipped,
            duration=time.monotonic() - started,
            problems=problems,
        )
        results.append(result)
        if verbose:
            print(result.banner())
            for problem in problems:
                print(f"         - {problem}")
    return results
