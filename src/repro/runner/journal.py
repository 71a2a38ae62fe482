"""Checkpoint journal: crash-safe progress for long campaigns.

One record per finished job (completed, given up on, *or* quarantined),
one fsync'd frame of a :class:`repro.durability.RecordLog` each, so an
interrupted suite loses at most the jobs that were still in flight.  On
``--resume`` the journal is replayed: jobs with a stored ``ok`` record
return their deserialised result without re-running; failed and
quarantined records are retried (the supervisor turns quarantined
groups into half-open probes).

Record format — schema version 3 (the ``rec`` of each frame)::

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
omitted for direct runner executions.  Version-1 records (no
``schema`` field; ``attempts`` / ``elapsed`` instead of ``attempt`` /
``elapsed_seconds``; no ``worker_pid``) are also still read: missing
fields default, so pre-supervisor campaigns resume unchanged.

Opening the journal (the first :meth:`Journal.load` or append) replays
it: a torn final frame is cut off, any other bad frame raises
:class:`~repro.errors.RecordLogError`.  An unframed journal (schemas
1–3 wrote one bare JSON record per line) is read once with the old
rules, unparseable lines skipped, and rewritten as frames.  A file is
unframed only when some line is a record with a ``key`` and no line
parses as a frame, so a damaged framed journal is never read that way.

The *last* record for a key wins, so re-runs simply append.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.durability import RecordLog, read_log
from repro.errors import ResourceError
from repro.runner.jobs import CompletedRun, QuarantinedRun, RunOutcome
from repro.simulator.stats import SimResult

#: Bumped when the record shape changes; readers accept all versions.
SCHEMA_VERSION = 3

_FRAME_KEYS = frozenset(("crc", "rec", "seq"))


def _read_unframed(raw: bytes) -> Optional[List[dict]]:
    """The records of an unframed (schema 1–3) journal, else ``None``."""
    records = []
    for line in raw.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # torn write from an interrupted run
        if not isinstance(rec, dict):
            continue
        if not _FRAME_KEYS.isdisjoint(rec):
            return None
        if rec.get("key"):
            records.append(rec)
    return records or None


class Journal:
    """Append-only record of job outcomes.

    ``guard`` is an optional pre-write check (the supervisor installs a
    free-disk probe): it returns a human-readable reason to refuse the
    write, or ``None`` to proceed.  A refused append raises
    :class:`~repro.errors.ResourceError` *before* any bytes are written
    — and a failed write leaves the journal as it was — so the runner
    buffers the outcome and flushes it once the journal recovers.
    """

    def __init__(
        self,
        path: Union[str, Path],
        guard: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        self.path = Path(path)
        self.guard = guard
        self._log: Optional[RecordLog] = None

    def _open(self) -> List[dict]:
        log = RecordLog(self.path)
        records = log.replay(unframed=_read_unframed)
        self._log = log
        return records

    def load(self) -> Dict[str, dict]:
        """The last record per job key.

        The first call opens the journal (see the module docstring);
        later ones re-read it without writing.
        """
        records = self._open() if self._log is None else read_log(self.path)
        return {rec["key"]: rec for rec in records if rec.get("key")}

    def append(self, outcome: RunOutcome) -> None:
        """Record one outcome as one frame, durable before returning."""
        if self.guard is not None:
            reason = self.guard()
            if reason:
                raise ResourceError(
                    f"journal append refused: {reason}", field="journal"
                )
        if self._log is None:
            self._open()
        self._log.append(self._encode(outcome))

    def close(self) -> None:
        """Release the file; a later append reopens it where it ends."""
        if self._log is not None:
            self._log.close()

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
            group=rec.get("group") or rec["key"],
            failures=rec.get("failures", 0),
            message=rec.get("message", ""),
            from_journal=True,
        )
