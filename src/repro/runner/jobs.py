"""Job and outcome records for the resilient experiment runner.

A :class:`JobSpec` is a *declarative*, picklable description of one
(trace, prefetcher, config) simulation: it names the trace instead of
carrying its records, so worker processes rebuild it deterministically
from the catalog.  :class:`CallableJob` wraps an arbitrary thunk for
in-process execution (used by ``analysis.sweep``, whose variants are
closures).

Every job resolves to exactly one outcome: a :class:`CompletedRun`
holding its :class:`SimResult`, or a :class:`FailedRun` recording *why*
it failed (classified as trace/config/crash/timeout/worker-lost) — the
suite keeps going either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import (
    ConfigError,
    JobTimeout,
    ReproError,
    ResourceError,
    TraceError,
)
from repro.runner.faultinject import FaultSpec
from repro.simulator.stats import SimResult


@dataclass(frozen=True)
class JobSpec:
    """One (trace, prefetcher, config) simulation, by name."""

    trace: str
    l1d: str = "none"
    l2: str = "none"
    scale: float = 0.5
    mtps: Optional[int] = None
    warmup_fraction: float = 0.2
    fault: Optional[FaultSpec] = None
    # Optional mmap-backed trace store (repro.memory.tracestore): when
    # set, the worker maps this file read-only instead of regenerating
    # the trace from the catalog.  The store holds exactly the records
    # `resolve_trace(trace, scale)` would rebuild, so it is a transport
    # detail, not an identity change — excluded from `key` like the
    # sanitizer knobs below (journals written either way interchange).
    trace_path: Optional[str] = None
    # Instrumentation/durability knobs (repro.sanitizer).  None of these
    # changes the simulation result — the sanitizer is read-only and a
    # snapshotted/resumed run is bit-identical — so they are deliberately
    # excluded from `key`: journals written before these fields existed
    # stay replayable, and a sanitized re-run can reuse a prior result.
    sanitize: bool = False
    sanitize_every: int = 64
    snapshot_every: int = 0
    snapshot_dir: Optional[str] = None
    resume_from: Optional[str] = None
    # Supervision knobs (repro.runner.supervisor).  Heartbeats are pure
    # observation — the worker writes progress pings to heartbeat_path
    # every heartbeat_every simulated accesses — so, like the sanitizer
    # fields above, they are excluded from `key`.
    heartbeat_path: Optional[str] = None
    heartbeat_every: int = 0
    # Simulator inner loop and native-backend policy (repro.native).
    # The native engine is bit-identical to the classic one (that is its
    # contract, enforced by `repro sancheck --engine native`), so like
    # the knobs above these are performance details excluded from `key`:
    # results cached under one engine are valid under the other.  Jobs
    # default to the C kernel; "auto" demotes to the classic loop where
    # the kernel cannot run (no compiler, a prefetcher it lacks).
    engine: str = "native"
    native: str = "auto"

    @property
    def key(self) -> str:
        """Stable identity used by the checkpoint journal."""
        parts = [
            self.trace, self.l1d, self.l2,
            f"scale={self.scale}", f"mtps={self.mtps}",
            f"wf={self.warmup_fraction}",
        ]
        if self.fault is not None:
            parts.append(f"fault={self.fault.kind}:{self.fault.period}")
        return "|".join(parts)


@dataclass(frozen=True)
class CallableJob:
    """An arbitrary thunk with a stable key (in-process execution only)."""

    key: str
    fn: Callable[[], Any] = field(compare=False)


def run_callable(job: "CallableJob", attempt: int = 1) -> Any:
    """The ``run_fn`` matching :class:`CallableJob` jobs."""
    return job.fn()


@dataclass(frozen=True)
class TaggedResult:
    """A worker's result wrapped with the pid that produced it.

    The pool submits :func:`tag_worker` rather than the raw job
    function, so the parent learns which OS process ran each job — the
    ``worker_pid`` journal field — without touching the result payload.
    """

    worker_pid: int
    result: Any


def tag_worker(run_fn: Callable, job: Any, attempt: int) -> "TaggedResult":
    """Run ``run_fn(job, attempt)`` and tag the result with our pid."""
    return TaggedResult(worker_pid=os.getpid(), result=run_fn(job, attempt))


@dataclass
class CompletedRun:
    """A job that finished and produced a result."""

    key: str
    result: Any                 # SimResult for simulation jobs
    attempts: int = 1
    elapsed: float = 0.0
    from_journal: bool = False  # replayed from the checkpoint, not re-run
    worker_pid: Optional[int] = None
    # Lease provenance (repro.service): which lease produced this result
    # and the grant/renew/expiry history behind it.  Empty for direct
    # runner executions — schema-v3 journal fields, additive.
    lease_id: Optional[str] = None
    lineage: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return True


@dataclass
class FailedRun:
    """A job that was given up on, with its classified failure."""

    key: str
    kind: str                   # "trace"|"config"|"crash"|"timeout"|"worker-lost"|"resource"
    error_type: str
    message: str
    attempts: int = 1
    elapsed: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)
    worker_pid: Optional[int] = None
    # Lease provenance (repro.service); see CompletedRun.
    lease_id: Optional[str] = None
    lineage: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return False


@dataclass
class QuarantinedRun:
    """A job skipped because its (trace, prefetcher) circuit breaker is
    open: the group failed ``failures`` consecutive times and re-running
    it would only burn campaign budget.  A resumed campaign sends one
    half-open probe per quarantined group; on success the breaker closes
    and the group's remaining jobs run normally on the next pass."""

    key: str
    group: str                  # "trace|prefetcher" breaker identity
    failures: int               # consecutive failures that tripped it
    message: str = ""
    kind: str = "quarantined"
    error_type: str = "CircuitOpen"
    attempts: int = 0
    elapsed: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)
    worker_pid: Optional[int] = None
    from_journal: bool = False

    def __post_init__(self) -> None:
        if not self.message:
            self.message = (
                f"circuit breaker open for {self.group} after "
                f"{self.failures} consecutive failures; job skipped"
            )

    @property
    def ok(self) -> bool:
        return False


RunOutcome = Union[CompletedRun, FailedRun, QuarantinedRun]


def classify_error(exc: BaseException) -> str:
    """Map an exception to the failure taxonomy the journal records."""
    if isinstance(exc, JobTimeout):
        return "timeout"
    if isinstance(exc, ResourceError):
        return "resource"
    if isinstance(exc, TraceError):
        return "trace"
    if isinstance(exc, ConfigError):
        return "config"
    return "crash"


def failed_run_from(
    key: str, exc: BaseException, attempts: int, elapsed: float,
    kind: Optional[str] = None, worker_pid: Optional[int] = None,
) -> FailedRun:
    return FailedRun(
        key=key,
        kind=kind or classify_error(exc),
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
        elapsed=elapsed,
        context=exc.context() if isinstance(exc, ReproError) else {},
        worker_pid=worker_pid,
    )


@dataclass
class SuiteResult:
    """All outcomes of one runner invocation, in submission order.

    ``interrupted=True`` means the campaign was drained early (graceful
    shutdown): the outcomes list covers only the jobs that finished, and
    a journal-backed resume will execute exactly the missing ones.
    """

    outcomes: List[RunOutcome] = field(default_factory=list)
    interrupted: bool = False

    @property
    def completed(self) -> List[CompletedRun]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def quarantined(self) -> List[QuarantinedRun]:
        return [o for o in self.outcomes if isinstance(o, QuarantinedRun)]

    def result(self, key: str) -> Optional[SimResult]:
        for o in self.outcomes:
            if o.key == key and o.ok:
                return o.result
        return None

    def results_by_key(self) -> Dict[str, Any]:
        return {o.key: o.result for o in self.outcomes if o.ok}

    def banner(self) -> str:
        """The "N/M completed" line every suite report leads with."""
        total = len(self.outcomes)
        done = len(self.completed)
        suffix = " [interrupted]" if self.interrupted else ""
        if done == total:
            return f"{done}/{total} jobs completed{suffix}"
        kinds: Dict[str, int] = {}
        for f in self.failures:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        detail = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return f"{done}/{total} jobs completed ({detail}){suffix}"

    def raise_if_all_failed(self) -> None:
        if self.outcomes and not self.completed:
            first = self.failures[0]
            raise ReproError(
                f"all {len(self.outcomes)} jobs failed; first: "
                f"[{first.kind}] {first.message}"
            )
