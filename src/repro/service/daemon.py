"""The campaign scheduler daemon behind ``repro serve``.

:class:`CampaignService` turns the single-shot experiment runner into a
long-running, crash-safe simulation service:

* **Durable state** — every transition is written ahead to a CRC-framed
  fsync'd WAL (``service.wal``, a :class:`repro.durability.RecordLog`);
  after a SIGKILL the daemon replays it and resumes the full queue and
  in-flight picture bit-identically (in-flight jobs of the dead epoch
  are provably orphaned and requeue immediately, with lineage).
* **Idempotent submission** — each job is keyed by the content hash of
  (trace digest, canonicalized config).  Identical submissions dedupe
  into one computation; completed keys are served from the
  checksum-verified result cache with **zero** recomputation.
* **Leases, not hand-offs** — a worker holds a time-bounded lease that
  the lease monitor renews from the worker's heartbeat file (the same
  channel the campaign supervisor reads).  An expired lease requeues
  its job exactly once per expiry; a late result from an expired lease
  is recorded only if no earlier attempt won (never twice).
* **Backpressure + drain** — submissions beyond ``max_queue`` pending
  jobs are refused with a typed 429/Retry-After; SIGTERM stops intake,
  finishes leased jobs, and leaves a WAL any restart resumes from.

The daemon executes jobs with :func:`repro.runner.worker.run_job` in
worker threads — simulations are deterministic and self-contained, so
a thread is as bit-exact as a process, and the WAL/lease machinery is
what guarantees loss-free accounting either way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.durability import RecordLog
from repro.errors import ConfigError, ReproError, ServiceError
from repro.fleet.manifest import FleetManifest
from repro.fleet.registry import AgentRegistry
from repro.runner import worker as runner_worker
from repro.runner.jobs import JobSpec, classify_error
from repro.runner.resources import read_heartbeat
from repro.service.leases import LeaseTable
from repro.service.resultcache import ResultCache, content_key

__all__ = ["CampaignService", "ServiceConfig", "canonical_job_config",
           "job_content_key"]


@dataclass
class ServiceConfig:
    """All daemon knobs in one place."""

    state_dir: Union[str, Path] = "service-state"
    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral; endpoint.json records it
    workers: int = 2
    lease_duration: float = 30.0     # seconds without heartbeat progress
    lease_poll: float = 0.25         # lease-monitor tick period
    max_requeues: int = 1            # expiries allowed to resurrect one job
    max_queue: int = 64              # pending jobs before 429 backpressure
    heartbeat_every: int = 2000      # worker ping cadence (accesses)
    retry_after: float = 1.0         # hint sent with 429/503 responses
    agent_timeout: float = 0.0       # silence before an agent is dead
    #                                  (0 = inherit lease_duration)
    agent_quarantine_after: int = 3  # consecutive failures trip breaker

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(
                f"service workers must be >= 1, got {self.workers}",
                field="workers",
            )
        if self.lease_duration <= 0:
            raise ConfigError(
                f"lease_duration must be positive, got "
                f"{self.lease_duration}", field="lease_duration",
            )
        if self.lease_poll <= 0:
            raise ConfigError(
                f"lease_poll must be positive, got {self.lease_poll}",
                field="lease_poll",
            )
        if self.max_queue < 1:
            raise ConfigError(
                f"max_queue must be >= 1, got {self.max_queue}",
                field="max_queue",
            )
        if self.max_requeues < 0:
            raise ConfigError(
                f"max_requeues must be >= 0, got {self.max_requeues}",
                field="max_requeues",
            )
        if self.agent_timeout < 0:
            raise ConfigError(
                f"agent_timeout must be >= 0, got {self.agent_timeout}",
                field="agent_timeout",
            )
        if self.agent_quarantine_after < 1:
            raise ConfigError(
                f"agent_quarantine_after must be >= 1, got "
                f"{self.agent_quarantine_after}",
                field="agent_quarantine_after",
            )


# ----------------------------------------------------------------------
# Content identity
# ----------------------------------------------------------------------

#: JobSpec fields that change simulation output — the identity the
#: content hash protects.  Transport/observation knobs (trace_path,
#: heartbeats, sanitizer flags) are deliberately excluded, mirroring
#: their exclusion from ``JobSpec.key``.
_IDENTITY_FIELDS = ("trace", "l1d", "l2", "scale", "mtps",
                    "warmup_fraction")


def canonical_job_config(spec: JobSpec) -> Dict[str, Any]:
    """The canonicalized config half of a job's content hash.

    Resolves the *actual* SystemConfig (with the job's DRAM rate) and
    BertiConfig field values into a sorted plain dict, so bumping a
    config default invalidates old cache entries instead of serving
    results computed under different hardware parameters.
    """
    from repro.core.config import BertiConfig
    from repro.simulator.config import default_config

    config = default_config()
    if spec.mtps:
        config = config.with_dram_mtps(spec.mtps)
    return {
        "job": {f: getattr(spec, f) for f in _IDENTITY_FIELDS},
        "system": dataclasses.asdict(config),
        "berti": dataclasses.asdict(BertiConfig()),
    }


def trace_digest(spec: JobSpec) -> str:
    """Trace identity half of the content hash.

    A job backed by a mapped ``.trc`` store hashes the store file's
    bytes (reusing the digest ``trace-store info`` reports); a catalog
    job uses its deterministic (name, scale) generation identity.
    """
    if spec.trace_path:
        from repro.memory.tracestore import file_digest

        return file_digest(spec.trace_path)
    return f"catalog:{spec.trace}:scale={spec.scale}"


def job_content_key(spec: JobSpec) -> str:
    return content_key(trace_digest(spec), canonical_job_config(spec))


# ----------------------------------------------------------------------
# In-memory state
# ----------------------------------------------------------------------

_JOB_FIELDS = _IDENTITY_FIELDS + ("trace_path",)


def spec_to_dict(spec: JobSpec) -> Dict[str, Any]:
    return {f: getattr(spec, f) for f in _JOB_FIELDS}


def spec_from_dict(data: Dict[str, Any]) -> JobSpec:
    known = {k: v for k, v in data.items() if k in _JOB_FIELDS}
    try:
        return JobSpec(**known)
    except TypeError as exc:
        raise ServiceError(f"malformed job spec: {exc}", status=400)


@dataclass
class _Job:
    """One unique (content-key) simulation the service owns."""

    spec: JobSpec
    content_key: str
    status: str = "pending"     # pending | leased | done | failed | cancelled
    attempt: int = 0            # attempts granted so far
    lease_id: Optional[str] = None
    error: Optional[Dict[str, Any]] = None
    campaigns: List[str] = field(default_factory=list)


@dataclass
class _Campaign:
    """An ordered set of submitted jobs sharing one campaign id."""

    cid: str
    entries: List[str]          # content keys, submission order
    state: str = "running"      # running | done | cancelled
    cached_at_submit: int = 0


class CampaignService:
    """The scheduler daemon: durable queue, leases, cache, HTTP API."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        now_fn: Optional[Callable[[], float]] = None,
        run_fn: Optional[Callable] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.state_dir = Path(self.config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._now = now_fn or time.monotonic
        self._run_fn = run_fn or runner_worker.run_job
        self.wal = RecordLog(self.state_dir / "service.wal")
        self.cache = ResultCache(self.state_dir / "cache")
        self._hb_dir = self.state_dir / "hb"

        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._jobs: Dict[str, _Job] = {}          # content_key -> _Job
        self._campaigns: Dict[str, _Campaign] = {}
        self._pending: deque = deque()            # content keys
        self._digests: Dict[str, str] = {}        # content_key -> sha256:…
        self.epoch = 1
        self.fleet = AgentRegistry(
            timeout=self.config.agent_timeout or self.config.lease_duration,
            breaker_after=self.config.agent_quarantine_after,
            clock=self._now,
        )
        self.manifest = FleetManifest(
            self.state_dir / "fleet-manifest.json", clock=self._now,
        )
        self._fleet_engaged = False   # ever had a leasable agent?
        self.leases = LeaseTable(self.config.lease_duration,
                                 epoch=self.epoch,
                                 max_requeues=self.config.max_requeues)
        self.draining = False
        self.jobs_computed = 0
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._httpd = None
        self._recover()

    # ------------------------------------------------------------------
    # Recovery (WAL replay)
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        records = self.wal.replay()
        last_epoch = 0
        open_leases: Dict[str, Dict[str, Any]] = {}  # key -> lease record
        for rec in records:
            kind = rec.get("type")
            if kind == "epoch":
                last_epoch = max(last_epoch, int(rec.get("epoch", 0)))
            elif kind == "campaign":
                entries = []
                for item in rec.get("jobs", []):
                    key = item["content_key"]
                    entries.append(key)
                    if key not in self._jobs:
                        job = _Job(spec=spec_from_dict(item["spec"]),
                                   content_key=key)
                        self._jobs[key] = job
                        self._pending.append(key)
                    if item.get("digest"):
                        # The digest promised to agents is the one from
                        # submission time, not a re-hash of whatever the
                        # file holds now.
                        self._digests[key] = item["digest"]
                    self._jobs[key].campaigns.append(rec["cid"])
                self._campaigns[rec["cid"]] = _Campaign(
                    cid=rec["cid"], entries=entries,
                    cached_at_submit=rec.get("cached", 0),
                )
            elif kind == "lease":
                job = self._jobs.get(rec.get("content_key"))
                if job is not None:
                    job.status = "leased"
                    job.attempt = max(job.attempt, rec.get("attempt", 1))
                    open_leases[job.content_key] = rec
            elif kind in ("lease-expired", "refused"):
                job = self._jobs.get(rec.get("content_key"))
                if job is not None:
                    open_leases.pop(job.content_key, None)
                    if rec.get("requeued", True):
                        job.status = "pending"
                    else:
                        job.status = "failed"
                        job.error = rec.get("error")
            elif kind == "result":
                job = self._jobs.get(rec.get("content_key"))
                if job is not None:
                    open_leases.pop(job.content_key, None)
                    if rec.get("status") == "ok":
                        job.status = "done"
                    else:
                        job.status = "failed"
                        job.error = rec.get("error")
            elif kind == "cancel":
                campaign = self._campaigns.get(rec.get("cid"))
                if campaign is not None:
                    campaign.state = "cancelled"

        self.epoch = last_epoch + 1
        self.leases = LeaseTable(self.config.lease_duration,
                                 epoch=self.epoch,
                                 max_requeues=self.config.max_requeues)
        # Reconstruct every job's full attempt lineage — grants,
        # expiries, refusals, results, across all dead epochs and
        # whichever agents held them — so a restarted daemon reports
        # history instead of amnesia, and requeue budgets survive
        # restarts.
        self.leases.absorb_history(records)
        self.wal.append({"type": "epoch", "epoch": self.epoch})

        # Leases from the dead epoch are orphans: their worker threads
        # died with the process.  Requeue each held job exactly once,
        # with the expiry recorded in WAL + lineage.
        for key, rec in open_leases.items():
            job = self._jobs[key]
            job.status = "pending"
            job.lease_id = None
            orphan = {
                "type": "lease-expired", "content_key": key,
                "lease_id": rec.get("lease_id"),
                "agent": rec.get("agent"),
                "reason": "daemon epoch lost", "requeued": True,
            }
            self.wal.append(orphan)
            self.leases.absorb_history([orphan])
        # Rebuild the pending queue in deterministic submission order.
        self._pending = deque(
            key for c in self._campaigns.values() if c.state != "cancelled"
            for key in c.entries
            if self._jobs[key].status == "pending"
        )
        seen = set()
        self._pending = deque(
            k for k in self._pending if not (k in seen or seen.add(k))
        )
        for campaign in self._campaigns.values():
            self._refresh_campaign(campaign)

    # ------------------------------------------------------------------
    # Submission (idempotent, deduplicated, backpressured)
    # ------------------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        jobs_in = payload.get("jobs")
        if not isinstance(jobs_in, list) or not jobs_in:
            raise ServiceError("submission needs a non-empty 'jobs' list",
                               status=400, field="jobs")
        specs = [spec_from_dict(item) if isinstance(item, dict)
                 else self._reject_job(item) for item in jobs_in]
        digests = [trace_digest(spec) for spec in specs]
        keys = [content_key(digest, canonical_job_config(spec))
                for spec, digest in zip(specs, digests)]
        ident = hashlib.sha256(
            ("\n".join(sorted(set(keys)))
             + "\n" + str(payload.get("idempotency_key", ""))).encode()
        ).hexdigest()[:16]
        cid = f"c{ident}"

        with self._lock:
            if self.draining:
                raise ServiceError(
                    "daemon is draining; submissions refused", status=503,
                    retry_after=self.config.retry_after,
                )
            existing = self._campaigns.get(cid)
            if existing is not None:
                # Idempotent resubmission: same content, same campaign.
                return self._submit_response(existing, created=False)

            new_keys = [
                k for i, k in enumerate(keys)
                if k not in self._jobs and k not in keys[:i]
            ]
            fresh = [k for k in new_keys if not self._cache_has_verified(k)]
            if len(self._pending) + len(fresh) > self.config.max_queue:
                raise ServiceError(
                    f"queue full: {len(self._pending)} pending + "
                    f"{len(fresh)} new exceeds max_queue="
                    f"{self.config.max_queue}", status=429,
                    retry_after=self.config.retry_after, field="max_queue",
                )

            cached = 0
            entries: List[str] = []
            for spec, key, digest in zip(specs, keys, digests):
                entries.append(key)
                self._digests[key] = digest
                job = self._jobs.get(key)
                if job is None:
                    job = _Job(spec=spec, content_key=key)
                    self._jobs[key] = job
                    if self._cache_has_verified(key):
                        job.status = "done"
                    else:
                        self._pending.append(key)
                elif job.status == "failed":
                    # Failures are never memoized: a fresh submission
                    # buys the job a fresh attempt.
                    job.status = "pending"
                    job.error = None
                    self._pending.append(key)
                if job.status == "done" and cid not in job.campaigns:
                    cached += 1
                if cid not in job.campaigns:
                    job.campaigns.append(cid)

            campaign = _Campaign(cid=cid, entries=entries,
                                 cached_at_submit=cached)
            self._campaigns[cid] = campaign
            self.wal.append({
                "type": "campaign", "cid": cid, "cached": cached,
                "jobs": [{"content_key": k, "spec": spec_to_dict(s),
                          "digest": d}
                         for k, s, d in zip(keys, specs, digests)],
            })
            self._refresh_campaign(campaign)
            self._work.notify_all()
            return self._submit_response(campaign, created=True)

    @staticmethod
    def _reject_job(item) -> JobSpec:
        raise ServiceError(f"job entries must be objects, got "
                           f"{type(item).__name__}", status=400)

    def _cache_has_verified(self, key: str) -> bool:
        """Cache hit that is safe to serve: present *and* verified.

        Corruption found here quarantines the entry and reports a miss,
        so a poisoned cache degrades to recomputation, never to output.
        """
        if not self.cache.has(key):
            return False
        try:
            return self.cache.get(key) is not None
        except ReproError:
            return False  # quarantined by the read; treat as a miss

    def _submit_response(self, campaign: _Campaign,
                         created: bool) -> Dict[str, Any]:
        jobs = []
        for key in campaign.entries:
            job = self._jobs[key]
            jobs.append({
                "content_key": key,
                "key": job.spec.key,
                "status": job.status,
                "cached": job.status == "done",
            })
        done = sum(1 for j in jobs if j["status"] == "done")
        return {
            "campaign": campaign.cid,
            "created": created,
            "state": campaign.state,
            "jobs": jobs,
            # Jobs this submission did not have to compute: the cache
            # (or an earlier campaign) already holds their results.
            "cache_hits": done,
            "total": len(jobs),
            "all_cached": done == len(jobs),
        }

    # ------------------------------------------------------------------
    # Status / results / cancel
    # ------------------------------------------------------------------

    def _campaign_or_404(self, cid: str) -> _Campaign:
        campaign = self._campaigns.get(cid)
        if campaign is None:
            raise ServiceError(f"unknown campaign {cid!r}", status=404)
        return campaign

    def status(self, cid: str) -> Dict[str, Any]:
        with self._lock:
            campaign = self._campaign_or_404(cid)
            self._refresh_campaign(campaign)
            jobs = []
            counts: Dict[str, int] = {}
            for key in campaign.entries:
                job = self._jobs[key]
                counts[job.status] = counts.get(job.status, 0) + 1
                lease = self.leases.lease_for(key)
                jobs.append({
                    "content_key": key,
                    "key": job.spec.key,
                    "trace": job.spec.trace,
                    "l1d": job.spec.l1d,
                    "status": job.status,
                    "attempt": job.attempt,
                    "lease": lease.describe() if lease else None,
                    "lineage": self.leases.lineage(key),
                })
            return {
                "campaign": cid,
                "state": campaign.state,
                "counts": counts,
                "jobs": jobs,
            }

    def results(self, cid: str) -> Dict[str, Any]:
        """Verified results for a finished campaign.

        Every payload is re-read through the checksummed cache; an entry
        that fails verification is quarantined and its job silently
        requeued — the response then says 409/recomputing and the client
        polls until the healed result lands.
        """
        with self._lock:
            campaign = self._campaign_or_404(cid)
            if campaign.state == "cancelled":
                raise ServiceError(f"campaign {cid} was cancelled",
                                   status=409)
            self._refresh_campaign(campaign)
            if campaign.state != "done":
                raise ServiceError(
                    f"campaign {cid} still running", status=409,
                    retry_after=self.config.retry_after,
                )
            results = []
            requeued = 0
            for key in campaign.entries:
                job = self._jobs[key]
                if job.status == "failed":
                    results.append({"content_key": key, "key": job.spec.key,
                                    "status": "failed", "error": job.error})
                    continue
                try:
                    payload = self.cache.get(key)
                except ReproError:
                    payload = None  # corrupt: quarantined by the read
                if payload is None:
                    requeued += 1
                    job.status = "pending"
                    self._pending.append(key)
                    continue
                results.append({"content_key": key, "key": job.spec.key,
                                "status": "ok", "result": payload})
            if requeued:
                campaign.state = "running"
                self._work.notify_all()
                raise ServiceError(
                    f"{requeued} cached results failed verification and "
                    f"are being recomputed; poll again", status=409,
                    retry_after=self.config.retry_after,
                )
            return {"campaign": cid, "state": campaign.state,
                    "results": results}

    def cancel(self, cid: str) -> Dict[str, Any]:
        with self._lock:
            campaign = self._campaign_or_404(cid)
            if campaign.state == "running":
                campaign.state = "cancelled"
                self.wal.append({"type": "cancel", "cid": cid})
                for key in campaign.entries:
                    job = self._jobs[key]
                    others = [c for c in job.campaigns if c != cid
                              and self._campaigns[c].state == "running"]
                    if job.status == "pending" and not others:
                        job.status = "cancelled"
            return {"campaign": cid, "state": campaign.state}

    def healthz(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "ok": True,
                "epoch": self.epoch,
                "draining": self.draining,
                "queue_depth": sum(
                    1 for k in self._pending
                    if self._jobs[k].status == "pending"
                ),
                "live_leases": len(self.leases.live()),
                "jobs_computed": self.jobs_computed,
                "campaigns": len(self._campaigns),
                "cache": self.cache.stats(),
                "fleet": {
                    "agents": len(self.fleet.live_agents()),
                    "engaged": self._fleet_engaged,
                    "degraded": (self._fleet_engaged
                                 and self.manifest.degraded),
                },
            }

    def _refresh_campaign(self, campaign: _Campaign) -> None:
        if campaign.state == "cancelled":
            return
        states = {self._jobs[k].status for k in campaign.entries}
        campaign.state = (
            "done" if states <= {"done", "failed"} else "running"
        )

    # ------------------------------------------------------------------
    # Execution: worker threads + lease monitor
    # ------------------------------------------------------------------

    def _fleet_blocks_local(self) -> bool:
        """Remote agents available: the local pool stands down.

        The moment the last leasable agent dies or quarantines, this
        flips false and the daemon degrades to its own worker threads —
        jobs keep flowing, and the fleet manifest records the window.
        """
        return any(r.leasable for r in self.fleet.live_agents())

    def _next_job(self) -> Optional[_Job]:
        """Blocking pop of the next pending job (None = shutting down)."""
        with self._work:
            while True:
                if self._stop.is_set() or self.draining:
                    return None
                while not self._fleet_blocks_local() and self._pending:
                    key = self._pending.popleft()
                    job = self._jobs[key]
                    if job.status == "pending":
                        job.attempt += 1
                        job.status = "leased"
                        lease = self.leases.grant(
                            key, job.attempt, self._now(),
                            heartbeat_path=str(
                                self._hb_dir / f"{key[:16]}-{job.attempt}"
                                               f".json"),
                        )
                        job.lease_id = lease.lease_id
                        self.wal.append({
                            "type": "lease", "content_key": key,
                            "lease_id": lease.lease_id,
                            "attempt": job.attempt, "epoch": self.epoch,
                        })
                        return job
                self._work.wait(timeout=0.5)

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            lease = self.leases.lease_for(job.content_key)
            spec = dataclasses.replace(
                job.spec,
                heartbeat_path=lease.heartbeat_path,
                heartbeat_every=self.config.heartbeat_every,
            )
            lease_id, attempt = lease.lease_id, lease.attempt
            error: Optional[Dict[str, Any]] = None
            result = None
            try:
                result = self._run_fn(spec, attempt)
            except ReproError as exc:
                error = {
                    "error_type": type(exc).__name__,
                    "kind": classify_error(exc),
                    "message": str(exc),
                }
            except Exception as exc:  # noqa: BLE001 — isolation point
                error = {
                    "error_type": type(exc).__name__,
                    "kind": "crash",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            self._record_attempt(job, lease_id, attempt, result, error)

    def _record_attempt(self, job: _Job, lease_id: str, attempt: int,
                        result, error: Optional[Dict[str, Any]],
                        agent: Optional[str] = None) -> bool:
        """Record one attempt's outcome; ``False`` = dropped as late.

        Shared by the local worker threads and the remote-agent result
        endpoint — idempotency lives here: a duplicate delivery releases
        a lease that no longer exists and finds the job already
        resolved, so it is dropped with a ``late-result`` lineage entry
        instead of being recorded twice.
        """
        with self._lock:
            lease = self.leases.release(
                lease_id, "ok" if error is None else "failed"
            )
            late = lease is None
            if late and job.status in ("done", "failed", "cancelled"):
                # An earlier attempt (or a cancel) already resolved the
                # job; recording again would duplicate it.  Drop, with
                # lineage.
                self.leases.record_late_result(job.content_key, lease_id)
                return False
            lineage = self.leases.lineage(job.content_key)
            if error is None:
                payload = (result.to_dict()
                           if hasattr(result, "to_dict") else result)
                self.cache.put(job.content_key, payload)
                job.status = "done"
                job.error = None
                self.jobs_computed += 1
                self.wal.append({
                    "type": "result", "content_key": job.content_key,
                    "status": "ok", "lease_id": lease_id,
                    "attempt": attempt, "lineage": lineage,
                    "agent": agent,
                })
            else:
                job.status = "failed"
                job.error = error
                self.wal.append({
                    "type": "result", "content_key": job.content_key,
                    "status": "failed", "lease_id": lease_id,
                    "attempt": attempt, "error": error,
                    "lineage": lineage, "agent": agent,
                })
            job.lease_id = None
            for cid in job.campaigns:
                self._refresh_campaign(self._campaigns[cid])
            self._work.notify_all()
            return True

    def _lease_monitor(self) -> None:
        while not self._stop.wait(self.config.lease_poll):
            self._monitor_tick(self._now())

    def _monitor_tick(self, now: float) -> None:
        """One liveness sweep: renew, reap dead agents, expire, requeue.

        Factored out of the monitor thread so tests can drive it with an
        injected clock instead of sleeping through real lease windows.
        """
        with self._lock:
            for lease in self.leases.live():
                if not lease.heartbeat_path:
                    continue
                data = read_heartbeat(lease.heartbeat_path)
                if data is not None and data.get("seq") != lease.last_seq:
                    self.leases.renew(lease.lease_id, now,
                                      seq=data.get("seq"))
            # Remote agents renew by HTTP, not heartbeat files.  One
            # that has gone silent past the agent timeout is dead as a
            # failure domain: force-expire every lease it holds so the
            # ordinary requeue path below reclaims the jobs, and note
            # the death (with the orphaned leases) in the manifest.
            reaped: Dict[str, str] = {}
            for record in self.fleet.reap_stale(now):
                held = self.leases.leases_of_agent(record.agent_id)
                self.manifest.record(
                    "agent-dead", agent=record.agent_id,
                    name=record.name,
                    leases=[lease.lease_id for lease in held],
                )
                for lease in held:
                    lease.expires_at = now
                    reaped[lease.lease_id] = record.agent_id
            if reaped:
                self._update_degraded()
            for lease in self.leases.expire(now):
                job = self._jobs.get(lease.job_key)
                if job is None or job.status != "leased":
                    continue
                requeue = self.leases.may_requeue(lease.job_key)
                if requeue:
                    job.status = "pending"
                    self._pending.append(lease.job_key)
                else:
                    exc = self.leases.expiry_error(lease.job_key)
                    job.status = "failed"
                    job.error = {
                        "error_type": type(exc).__name__,
                        "kind": "timeout", "message": str(exc),
                    }
                    for cid in job.campaigns:
                        self._refresh_campaign(self._campaigns[cid])
                job.lease_id = None
                reason = ("agent lost" if lease.lease_id in reaped
                          else "no heartbeat before expiry")
                self.wal.append({
                    "type": "lease-expired",
                    "content_key": lease.job_key,
                    "lease_id": lease.lease_id,
                    "agent": lease.agent,
                    "reason": reason,
                    "requeued": requeue,
                    "error": job.error,
                })
                if lease.agent is not None:
                    self.manifest.record(
                        "agent-requeue", agent=lease.agent,
                        content_key=lease.job_key,
                        lease_id=lease.lease_id, requeued=requeue,
                    )
                self._work.notify_all()

    # ------------------------------------------------------------------
    # Fleet: remote agent endpoints
    # ------------------------------------------------------------------

    def _update_degraded(self) -> None:
        """Reconcile degraded mode with the live-agent census.

        Call with ``self._lock`` held.  Degraded mode only exists once
        the fleet has engaged (a single-host daemon that never saw an
        agent is not "degraded", it is just local); from then on, zero
        leasable agents opens a degradation window in the manifest and
        wakes the local pool, and the next leasable agent closes it.
        """
        leasable = any(r.leasable for r in self.fleet.live_agents())
        if leasable:
            self._fleet_engaged = True
        if not self._fleet_engaged:
            return
        if leasable:
            self.manifest.exit_degraded()
        else:
            self.manifest.enter_degraded(
                "zero live agents; daemon local pool active")
        self._work.notify_all()

    def _touch_agent(self, agent_id: str):
        """Liveness contact from an agent; handles partition rejoin."""
        previous = self.fleet.get(agent_id)
        previous_state = previous.state if previous is not None else None
        record = self.fleet.touch(agent_id)  # 410 for unknown agents
        if previous_state == "dead":
            self.manifest.record("agent-rejoined", agent=agent_id,
                                 name=record.name)
            self._update_degraded()
        return record

    def agent_register(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self.draining:
                raise ServiceError(
                    "daemon is draining; agents refused", status=503,
                    retry_after=self.config.retry_after,
                )
            record = self.fleet.register(
                name=str(payload.get("name", "")),
                host=str(payload.get("host", "")),
                pool=int(payload.get("pool", 1)),
            )
            self.manifest.record("agent-registered", agent=record.agent_id,
                                 name=record.name, pool=record.pool)
            self._update_degraded()
            return {
                "agent": record.agent_id,
                "epoch": self.epoch,
                "lease_duration": self.config.lease_duration,
                "heartbeat_every": self.config.heartbeat_every,
            }

    def agent_lease(self, agent_id: str,
                    payload: Dict[str, Any]) -> Dict[str, Any]:
        """Grant up to ``max`` pending jobs to a remote agent."""
        want = max(1, int(payload.get("max", 1)))
        with self._lock:
            record = self._touch_agent(agent_id)
            granted: List[Dict[str, Any]] = []
            if record.leasable and not self.draining:
                while self._pending and len(granted) < want:
                    key = self._pending.popleft()
                    job = self._jobs[key]
                    if job.status != "pending":
                        continue
                    job.attempt += 1
                    job.status = "leased"
                    lease = self.leases.grant(key, job.attempt,
                                              self._now(), agent=agent_id)
                    job.lease_id = lease.lease_id
                    record.leases_granted += 1
                    self.wal.append({
                        "type": "lease", "content_key": key,
                        "lease_id": lease.lease_id,
                        "attempt": job.attempt, "epoch": self.epoch,
                        "agent": agent_id,
                    })
                    digest = self._digests.get(key)
                    if digest is None:
                        digest = trace_digest(job.spec)
                        self._digests[key] = digest
                    granted.append({
                        "lease_id": lease.lease_id,
                        "content_key": key,
                        "key": job.spec.key,
                        "attempt": job.attempt,
                        "spec": spec_to_dict(job.spec),
                        "trace_digest": digest,
                    })
                if granted:
                    self.fleet.activate(agent_id)
            return {
                "leases": granted,
                "epoch": self.epoch,
                "state": record.state,
                "draining": self.draining,
            }

    def agent_renew(self, agent_id: str,
                    payload: Dict[str, Any]) -> Dict[str, Any]:
        """Bulk lease renewal — the agent's HTTP heartbeat."""
        with self._lock:
            record = self._touch_agent(agent_id)
            now = self._now()
            kept: List[str] = []
            lost: List[str] = []
            for lease_id in payload.get("leases", []):
                if self.leases.renew(str(lease_id), now):
                    kept.append(str(lease_id))
                else:
                    # The lease died (expiry, requeue, daemon restart):
                    # the agent must abandon the attempt — any result it
                    # still delivers will take the late-result path.
                    lost.append(str(lease_id))
            return {
                "ok": kept, "lost": lost, "epoch": self.epoch,
                "draining": self.draining or record.state == "draining",
            }

    def agent_result(self, agent_id: str,
                     payload: Dict[str, Any]) -> Dict[str, Any]:
        """Record a remote attempt's outcome (``ok``/``failed``/``refused``).

        Exactly-once by construction: duplicate deliveries (network
        retries, duplicated packets) release an already-dead lease and
        drop through the late-result path, never recording twice.
        """
        lease_id = str(payload.get("lease_id", ""))
        key = payload.get("content_key")
        status = payload.get("status")
        if status not in ("ok", "failed", "refused"):
            raise ServiceError(
                f"result status must be ok|failed|refused, got {status!r}",
                status=400, field="status",
            )
        with self._lock:
            self._touch_agent(agent_id)
            job = self._jobs.get(key)
            if job is None:
                raise ServiceError(f"unknown job {key!r}", status=404)
            attempt = int(payload.get("attempt", job.attempt))

            if status == "refused":
                recorded = self._record_refusal(job, lease_id, attempt,
                                                agent_id, payload)
            else:
                error = payload.get("error") if status == "failed" else None
                if status == "failed" and error is None:
                    error = {"error_type": "FleetError", "kind": "crash",
                             "message": "agent reported failure without "
                                        "detail"}
                recorded = self._record_attempt(
                    job, lease_id, attempt, payload.get("result"), error,
                    agent=agent_id,
                )
            if recorded:
                breaker = self.fleet.record_result(
                    agent_id, "ok" if status == "ok" else status)
                if breaker == "quarantined":
                    self.manifest.record("agent-quarantined",
                                         agent=agent_id)
                    self._update_degraded()
            record = self.fleet.get(agent_id)
            if (record is not None and record.state == "draining"
                    and not self.leases.leases_of_agent(agent_id)):
                # Last in-flight result landed: the drain completes.
                self.fleet.mark_drained(agent_id)
                self._update_degraded()
            return {"recorded": recorded, "duplicate": not recorded,
                    "epoch": self.epoch}

    def _record_refusal(self, job: _Job, lease_id: str, attempt: int,
                        agent_id: str, payload: Dict[str, Any]) -> bool:
        """A digest-mismatch refusal: requeue within the lease budget.

        The job never executed, so there is nothing to cache — but the
        refusal burns one requeue credit (a poisoned trace store must
        not ping-pong between agents forever) and is durably recorded.
        """
        lease = self.leases.release(lease_id, "refused")
        if lease is None:
            if job.status in ("done", "failed", "cancelled"):
                self.leases.record_late_result(job.content_key, lease_id)
            return False
        requeue = self.leases.record_refusal(job.content_key, lease_id,
                                             agent=agent_id)
        error = payload.get("error") or {
            "error_type": "DigestMismatch", "kind": "trace",
            "message": "agent refused job: trace digest mismatch",
        }
        if requeue:
            job.status = "pending"
            job.error = None
            self._pending.append(job.content_key)
        else:
            job.status = "failed"
            job.error = error
            for cid in job.campaigns:
                self._refresh_campaign(self._campaigns[cid])
        job.lease_id = None
        self.wal.append({
            "type": "refused", "content_key": job.content_key,
            "lease_id": lease_id, "attempt": attempt,
            "agent": agent_id, "requeued": requeue,
            "error": None if requeue else error,
        })
        self.manifest.record("job-refused", agent=agent_id,
                             content_key=job.content_key,
                             lease_id=lease_id, requeued=requeue)
        self._work.notify_all()
        return True

    def agent_drain(self, agent_id: str) -> Dict[str, Any]:
        with self._lock:
            record = self.fleet.drain(agent_id)
            self.manifest.record("agent-draining", agent=agent_id)
            if not self.leases.leases_of_agent(agent_id):
                # Nothing in flight: the drain completes immediately.
                self.fleet.mark_drained(agent_id)
            self._update_degraded()
            return {"agent": agent_id, "state": record.state}

    def fleet_status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "epoch": self.epoch,
                "engaged": self._fleet_engaged,
                "degraded": self.manifest.degraded,
                "degraded_windows": self.manifest.degraded_windows(),
                "agents": self.fleet.describe(),
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the HTTP API, start workers, write endpoint.json."""
        from repro.service.api import make_server

        self._hb_dir.mkdir(parents=True, exist_ok=True)
        self._httpd = make_server(self)
        host, port = self._httpd.server_address[:2]
        endpoint = {"host": host, "port": port, "pid": os.getpid(),
                    "epoch": self.epoch}
        (self.state_dir / "endpoint.json").write_text(
            json.dumps(endpoint), encoding="utf-8"
        )
        threads = [threading.Thread(target=self._httpd.serve_forever,
                                    name="repro-http", daemon=True),
                   threading.Thread(target=self._lease_monitor,
                                    name="repro-leases", daemon=True)]
        threads += [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-worker-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        self._threads = threads
        for t in threads:
            t.start()

    @property
    def address(self) -> tuple:
        if self._httpd is None:
            raise ServiceError("daemon not started", status=500)
        return self._httpd.server_address[:2]

    def drain(self) -> None:
        """SIGTERM path: refuse intake, finish leased jobs, keep state."""
        with self._lock:
            if self.draining:
                return
            self.draining = True
            self.wal.append({"type": "drain", "epoch": self.epoch})
            self._work.notify_all()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain, wait for in-flight leases, shut everything down."""
        self.drain()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self.leases.live():
                    break
            time.sleep(0.05)
        self._stop.set()
        with self._work:
            self._work.notify_all()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=5.0)
        self._threads = []
        self.wal.close()

    def serve_forever(self, handle_signals: bool = True) -> None:
        """Blocking entry point for ``repro serve``."""
        done = threading.Event()

        if handle_signals:
            def on_term(signum, frame):
                self.drain()
                done.set()

            # Before start() publishes the endpoint (see cmd_serve).
            signal.signal(signal.SIGTERM, on_term)
            signal.signal(signal.SIGINT, on_term)
        self.start()
        try:
            while not done.wait(timeout=0.5):
                pass
        finally:
            self.stop()
