"""Structured exception hierarchy for the reproduction toolkit.

Every failure the experiment pipeline can encounter is classified under
:class:`ReproError`, carrying the (trace, prefetcher) context of the job
that produced it.  The resilient runner (:mod:`repro.runner`) uses the
class of an exception to decide whether a job is retryable:

* :class:`TraceError` / :class:`ConfigError` — *permanent*: the job is
  malformed and re-running it cannot help.
* :class:`SimulationError` — a run crashed mid-flight; retried a bounded
  number of times in case the failure was environmental (a worker OOM,
  a flaky filesystem), then recorded as a failed run.
* :class:`JobTimeout` — the job exceeded its wall-clock budget; not
  retried by default (a hang will usually hang again).

Exceptions cross process boundaries (``concurrent.futures`` pickles
them back to the parent), so the context travels via ``__reduce__``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all toolkit errors, with job context attached."""

    #: Whether the runner may retry a job that raised this error.
    retryable: bool = False

    def __init__(
        self,
        message: str,
        *,
        trace: Optional[str] = None,
        prefetcher: Optional[str] = None,
        field: Optional[str] = None,
    ) -> None:
        self.message = message
        self.trace = trace
        self.prefetcher = prefetcher
        self.field = field
        super().__init__(self._render())

    def _render(self) -> str:
        parts = []
        if self.trace:
            parts.append(f"trace={self.trace}")
        if self.prefetcher:
            parts.append(f"prefetcher={self.prefetcher}")
        if self.field:
            parts.append(f"field={self.field}")
        if parts:
            return f"{self.message} [{' '.join(parts)}]"
        return self.message

    def context(self) -> Dict[str, Any]:
        """The job context as a plain dict (for journal records)."""
        return {
            "trace": self.trace,
            "prefetcher": self.prefetcher,
            "field": self.field,
        }

    def __reduce__(self):
        # Preserve keyword context across pickling (process boundaries).
        return (
            _rebuild,
            (self.__class__, self.message, self.trace, self.prefetcher,
             self.field),
        )


def _rebuild(cls, message, trace, prefetcher, field):
    return cls(message, trace=trace, prefetcher=prefetcher, field=field)


class TraceError(ReproError):
    """A trace could not be resolved, loaded, or failed validation."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of its legal range.

    Also a :class:`ValueError` so existing ``with_watermarks``-style
    call sites (and their tests) keep working unchanged.
    """


class SimulationError(ReproError):
    """A simulation crashed or produced internally inconsistent stats."""

    retryable = True


class SanitizerError(SimulationError):
    """A runtime invariant check (SimSan) failed mid-simulation.

    Carries the index of the demand access at which the violation was
    detected and a structured dump of the offending hardware structure,
    so the failure is reproducible and debuggable without re-running.
    Not retryable: a corrupted simulator state is deterministic.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        trace: Optional[str] = None,
        prefetcher: Optional[str] = None,
        field: Optional[str] = None,
        access_index: Optional[int] = None,
        structure: Optional[str] = None,
        dump: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.access_index = access_index
        self.structure = structure
        self.dump = dump or {}
        super().__init__(message, trace=trace, prefetcher=prefetcher,
                         field=field)

    def _render(self) -> str:
        base = super()._render()
        parts = []
        if self.structure:
            parts.append(f"structure={self.structure}")
        if self.access_index is not None:
            parts.append(f"access_index={self.access_index}")
        if parts:
            base = f"{base} [{' '.join(parts)}]"
        if self.dump:
            base = f"{base}\n  dump: {self.dump!r}"
        return base

    def __reduce__(self):
        return (
            _rebuild_sanitizer,
            (self.__class__, self.message, self.trace, self.prefetcher,
             self.field, self.access_index, self.structure, self.dump),
        )


def _rebuild_sanitizer(cls, message, trace, prefetcher, field, access_index,
                       structure, dump):
    return cls(message, trace=trace, prefetcher=prefetcher, field=field,
               access_index=access_index, structure=structure, dump=dump)


class SnapshotError(ReproError):
    """A simulator snapshot could not be written, read, or trusted.

    Raised on checksum mismatches, truncated files, unsupported format
    versions, and trace/config identity mismatches on ``--resume-from``.
    Never retryable: a corrupt snapshot stays corrupt.
    """


class ResourceError(ReproError):
    """A host resource guard tripped (low memory, low disk, fat worker).

    Retryable: resource pressure is environmental — after the supervisor
    degrades the campaign (fewer workers, paused submissions) a retry of
    the same job may well succeed.
    """

    retryable = True


class JobTimeout(ReproError):
    """A job exceeded its wall-clock budget and was killed."""

    def __init__(
        self,
        message: str,
        *,
        trace: Optional[str] = None,
        prefetcher: Optional[str] = None,
        field: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.timeout = timeout
        super().__init__(message, trace=trace, prefetcher=prefetcher,
                         field=field)

    def __reduce__(self):
        return (
            _rebuild_timeout,
            (self.__class__, self.message, self.trace, self.prefetcher,
             self.field, self.timeout),
        )


def _rebuild_timeout(cls, message, trace, prefetcher, field, timeout):
    return cls(message, trace=trace, prefetcher=prefetcher, field=field,
               timeout=timeout)


class ServiceError(ReproError):
    """A campaign-service request could not be honoured.

    Raised by the scheduler daemon (:mod:`repro.service`) and its client
    for protocol-level failures: malformed submissions, unknown
    campaigns, a full queue (backpressure), or a daemon that is
    draining.  ``status`` carries the HTTP status code the API maps the
    error to, and ``retry_after`` (seconds) is set when the client
    should back off and try again — the client honours it.
    """

    def __init__(
        self,
        message: str,
        *,
        trace: Optional[str] = None,
        prefetcher: Optional[str] = None,
        field: Optional[str] = None,
        status: int = 400,
        retry_after: Optional[float] = None,
    ) -> None:
        self.status = status
        self.retry_after = retry_after
        super().__init__(message, trace=trace, prefetcher=prefetcher,
                         field=field)

    def __reduce__(self):
        return (
            _rebuild_service,
            (self.__class__, self.message, self.trace, self.prefetcher,
             self.field, self.status, self.retry_after),
        )


def _rebuild_service(cls, message, trace, prefetcher, field, status,
                     retry_after):
    return cls(message, trace=trace, prefetcher=prefetcher, field=field,
               status=status, retry_after=retry_after)


class FleetError(ServiceError):
    """A multi-host fleet operation failed (agents, transport, digests).

    The fleet branch of the service hierarchy: everything that can only
    go wrong once a second host is involved — an unreachable daemon, an
    agent the daemon no longer knows, a trace store whose bytes do not
    match the digest the scheduler promised.  ``agent`` attributes the
    failure to the remote agent involved, when there is one, so campaign
    reports and the fleet manifest can name the failure domain.
    """

    def __init__(
        self,
        message: str,
        *,
        trace: Optional[str] = None,
        prefetcher: Optional[str] = None,
        field: Optional[str] = None,
        status: int = 500,
        retry_after: Optional[float] = None,
        agent: Optional[str] = None,
    ) -> None:
        self.agent = agent
        super().__init__(message, trace=trace, prefetcher=prefetcher,
                         field=field, status=status, retry_after=retry_after)

    def _render(self) -> str:
        base = super()._render()
        if self.agent:
            base = f"{base} [agent={self.agent}]"
        return base

    def __reduce__(self):
        return (
            _rebuild_fleet,
            (self.__class__, self.message, self.trace, self.prefetcher,
             self.field, self.status, self.retry_after, self.agent),
        )


def _rebuild_fleet(cls, message, trace, prefetcher, field, status,
                   retry_after, agent):
    return cls(message, trace=trace, prefetcher=prefetcher, field=field,
               status=status, retry_after=retry_after, agent=agent)


class TransportError(FleetError):
    """A network-level request failed before an HTTP status existed.

    Wraps the raw socket/HTTP exceptions (``ConnectionError``,
    ``socket.timeout``, ``OSError``) the transport layer can raise, so
    nothing above the client ever sees an untyped network error.  Always
    field-tagged ``transport`` and retryable: the fault-injecting chaos
    transport raises exactly this for drops and partitions, and the
    client's bounded-backoff loop is the recovery path.
    """

    retryable = True

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("status", 503)
        kwargs.setdefault("field", "transport")
        super().__init__(message, **kwargs)


class AgentLost(FleetError):
    """A remote agent stopped heartbeating and was declared dead.

    Its leases are requeued (exactly once per expiry, with lineage and
    agent attribution in the fleet manifest); retryable by construction,
    the requeue *is* the retry.
    """

    retryable = True

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("status", 503)
        super().__init__(message, **kwargs)


class DigestMismatch(FleetError):
    """A trace store's bytes do not match the digest the lease promised.

    An agent verifies the ``sha256:`` digest of a leased job's trace
    store *before* executing it; a mismatch means the interchange file
    was corrupted or swapped in flight, and running it would poison the
    result cache with stats computed from the wrong bytes.  The agent
    refuses the job (it never executes), the daemon requeues it within
    the lease budget, and a persistently poisoned job fails typed.
    Not retryable against the same bytes — recovery means healing the
    file, which the requeue gives the operator time to do.
    """

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("status", 409)
        kwargs.setdefault("field", "trace_digest")
        super().__init__(message, **kwargs)


class LeaseExpired(ServiceError):
    """A worker's time-bounded job lease lapsed without a heartbeat.

    The scheduler requeues the job exactly once per expiry (attempt
    lineage records every grant/expiry), so a lost worker delays a job
    instead of losing it.  Retryable by construction: expiry *is* the
    retry signal.
    """

    retryable = True

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("status", 503)
        super().__init__(message, **kwargs)


class CacheCorruption(ServiceError):
    """A result-cache entry failed its checksum and cannot be served.

    The cache quarantines the entry (renamed aside, never deleted, never
    returned) and the scheduler recomputes the result.  Not retryable at
    the job level — the *cache read* failed, not the job; the recompute
    path handles it.
    """

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("status", 500)
        super().__init__(message, **kwargs)


class RecordLogError(ReproError):
    """A :class:`repro.durability.RecordLog` (the service WAL, the
    checkpoint journal) refused to replay: a bad frame before the torn
    tail, a sequence gap, or a replay after appends began.  Not
    retryable: the log's history cannot be trusted."""


class HeartbeatTimeout(JobTimeout):
    """A worker stopped emitting progress heartbeats and was preempted.

    Distinct from :class:`JobTimeout` so campaign reports can tell
    "killed by liveness, long before the wall-clock budget" apart from
    "ran out its full budget" — the supervisor preempts on the former.
    """


class FuzzError(ReproError):
    """A fuzzing artifact (case file, corpus entry, report) is malformed.

    Raised by :mod:`repro.fuzz` when a replayable case file cannot be
    parsed or fails its schema check — the fuzzer holds its own
    artifacts to the same typed-rejection standard it enforces on the
    five persisted simulator formats.
    """
