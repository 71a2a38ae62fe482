"""JSONL checkpoint journal: crash-safe progress for long campaigns.

One line per finished job (completed, given up on, *or* quarantined),
appended and flushed immediately, so an interrupted suite loses at most
the jobs that were still in flight.  On ``--resume`` the journal is
replayed: jobs with a stored ``ok`` record return their deserialised
result without re-running; failed and quarantined records are retried
(the supervisor turns quarantined groups into half-open probes).

Line format — schema version 3 (all lines are independent JSON
objects)::

    {"schema": 3, "key": "<job key>", "status": "ok", "attempt": 1,
     "elapsed_seconds": 1.2, "worker_pid": 4242,
     "lease_id": "L2-7", "lineage": [{"event": "grant", ...}, ...],
     "result": {<SimResult.to_dict()>}}
    {"schema": 3, "key": "<job key>", "status": "failed",
     "kind": "timeout", "error_type": "JobTimeout", "message": "...",
     "attempt": 2, "elapsed_seconds": 30.1, "worker_pid": 4243,
     "context": {"trace": "...", "prefetcher": "..."}}
    {"schema": 3, "key": "<job key>", "status": "quarantined",
     "group": "<trace>|<prefetcher>", "failures": 3, "message": "..."}

Version 3 is purely *additive* over version 2: ``lease_id`` and
``lineage`` record which campaign-service lease (:mod:`repro.service`)
produced the outcome and its grant/renew/expiry history; both are
omitted for direct runner executions, so v2-shaped lines keep being
written where no lease was involved and v2 journals replay byte-for-
byte unchanged.  Version-1 journals (no ``schema`` field;
``attempts`` / ``elapsed`` instead of ``attempt`` /
``elapsed_seconds``; no ``worker_pid``) are also still read: missing
fields default, so pre-supervisor campaigns resume unchanged.

The *last* record for a key wins, so re-runs simply append.  Truncated
or corrupt lines (a worker killed mid-write) are skipped, not fatal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.durability import atomic_write_bytes
from repro.errors import ResourceError
from repro.runner.jobs import CompletedRun, QuarantinedRun, RunOutcome
from repro.simulator.stats import SimResult

#: Bumped when the record shape changes; readers accept all versions.
SCHEMA_VERSION = 3


class Journal:
    """Append-only JSONL record of job outcomes.

    ``guard`` is an optional pre-write check (the supervisor installs a
    free-disk probe): it returns a human-readable reason to refuse the
    write, or ``None`` to proceed.  A refused append raises
    :class:`~repro.errors.ResourceError` *before* any bytes are written,
    so the journal is never half-updated by a full disk — the runner
    buffers the outcome and flushes it once the guard clears.
    """

    def __init__(
        self,
        path: Union[str, Path],
        guard: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        self.path = Path(path)
        self.guard = guard

    def load(self) -> Dict[str, dict]:
        """Parse the journal; returns the last record per job key."""
        records: Dict[str, dict] = {}
        if not self.path.exists():
            return records
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from an interrupted run
                key = rec.get("key")
                if key:
                    records[key] = rec
        return records

    def append(self, outcome: RunOutcome) -> None:
        """Record one outcome, durable on disk before returning.

        Write-temp-then-rename: the journal's existing bytes plus the
        new line go to a temp file in the same directory, are fsynced,
        and replace the journal atomically.  A crash at any point leaves
        either the old journal or the new one — never a torn line in the
        middle of the file (a torn *tail* from pre-hardening journals is
        still tolerated by :meth:`load`).  Journals are one line per
        finished job, so the rewrite is a few kilobytes per append.
        """
        if self.guard is not None:
            reason = self.guard()
            if reason:
                raise ResourceError(
                    f"journal append refused: {reason}", field="journal"
                )
        try:
            existing = self.path.read_bytes()
        except FileNotFoundError:
            existing = b""
        if existing and not existing.endswith(b"\n"):
            existing += b"\n"  # heal a torn tail so the new record parses
        line = (json.dumps(self._encode(outcome)) + "\n").encode("utf-8")
        atomic_write_bytes(self.path, existing + line)

    @staticmethod
    def _encode(outcome: RunOutcome) -> dict:
        if isinstance(outcome, QuarantinedRun):
            return {
                "schema": SCHEMA_VERSION,
                "key": outcome.key,
                "status": "quarantined",
                "group": outcome.group,
                "failures": outcome.failures,
                "message": outcome.message,
            }
        if outcome.ok:
            result = outcome.result
            rec = {
                "schema": SCHEMA_VERSION,
                "key": outcome.key,
                "status": "ok",
                "attempt": outcome.attempts,
                "elapsed_seconds": round(outcome.elapsed, 4),
                "worker_pid": outcome.worker_pid,
                "result": result.to_dict()
                if isinstance(result, SimResult) else result,
            }
        else:
            rec = {
                "schema": SCHEMA_VERSION,
                "key": outcome.key,
                "status": "failed",
                "kind": outcome.kind,
                "error_type": outcome.error_type,
                "message": outcome.message,
                "attempt": outcome.attempts,
                "elapsed_seconds": round(outcome.elapsed, 4),
                "worker_pid": outcome.worker_pid,
                "context": outcome.context,
            }
        # v3 additive lease provenance: only written when a campaign-
        # service lease actually produced the outcome, so direct-runner
        # journals keep their v2 line shape.
        if getattr(outcome, "lease_id", None):
            rec["lease_id"] = outcome.lease_id
        if getattr(outcome, "lineage", None):
            rec["lineage"] = outcome.lineage
        return rec

    @staticmethod
    def _attempts(rec: dict) -> int:
        return rec.get("attempt", rec.get("attempts", 1))

    @staticmethod
    def _elapsed(rec: dict) -> float:
        return rec.get("elapsed_seconds", rec.get("elapsed", 0.0))

    @staticmethod
    def decode_completed(rec: dict) -> Optional[CompletedRun]:
        """Rebuild a :class:`CompletedRun` from an ``ok`` journal record.

        Handles every schema version: v1 records use ``attempts`` /
        ``elapsed`` and carry no ``worker_pid``; v2 records carry no
        lease provenance.  All missing fields default.
        """
        if rec.get("status") != "ok":
            return None
        result = rec.get("result")
        if isinstance(result, dict) and "trace_name" in result:
            result = SimResult.from_dict(result)
        return CompletedRun(
            key=rec["key"],
            result=result,
            attempts=Journal._attempts(rec),
            elapsed=Journal._elapsed(rec),
            from_journal=True,
            worker_pid=rec.get("worker_pid"),
            lease_id=rec.get("lease_id"),
            lineage=rec.get("lineage") or [],
        )

    @staticmethod
    def decode_quarantined(rec: dict) -> Optional[QuarantinedRun]:
        """Rebuild a :class:`QuarantinedRun` from a journal record."""
        if rec.get("status") != "quarantined":
            return None
        return QuarantinedRun(
            key=rec["key"],
            group=rec.get("group", rec["key"]),
            failures=rec.get("failures", 0),
            message=rec.get("message", ""),
            from_journal=True,
        )
