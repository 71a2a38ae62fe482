"""Write-ahead service journal: the daemon's single source of truth.

Every state transition the campaign scheduler makes — a submission
accepted, a lease granted, a lease expired, a result recorded, a
cancellation, a daemon (re)start — is appended to this log *before* the
in-memory state changes, flushed and fsync'd, so a SIGKILL at any byte
offset loses at most the record being written.  On restart the daemon
replays the log and reconstructs its full queue and in-flight state
bit-identically.

Frame format (one JSON object per line)::

    {"seq": 7, "crc": 3735928559, "rec": {"type": "lease", ...}}

``crc`` is the CRC32 of the canonical JSON encoding of ``rec`` (sorted
keys, no whitespace), so a torn or bit-flipped record is detected on
replay.  ``seq`` is strictly monotonic; a gap or repeat means the log
was edited or interleaved and replay refuses it.

Failure handling on replay:

* a malformed / CRC-mismatched **final** line is the classic torn tail
  of a mid-append kill — it is healed (the file is truncated back to
  the last good record) and replay proceeds;
* a malformed record **before** the tail means real corruption and
  raises a typed :class:`~repro.errors.ServiceError` — the daemon must
  not guess at history.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durability import canonical_json, crc32_of
from repro.errors import ServiceError

__all__ = ["ServiceWAL", "canonical_json", "crc32_of"]


class ServiceWAL:
    """Append-only, fsync'd, torn-tail-healing record log.

    ``append`` keeps the file descriptor open across calls (the daemon
    appends on every state transition); ``replay`` is called once at
    startup, before the first append, and heals a torn tail in place.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None
        self._seq = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, rec: Dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number."""
        self._seq += 1
        frame = canonical_json(
            {"seq": self._seq, "crc": crc32_of(rec), "rec": rec}
        )
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        self._fh.write(frame.encode("ascii") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return self._seq

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # ------------------------------------------------------------------
    # Replay + healing
    # ------------------------------------------------------------------

    def replay(self) -> List[Dict[str, Any]]:
        """Parse the log, heal a torn tail, return the record payloads.

        After replay the internal sequence counter continues from the
        last good record, so appends from a resumed daemon extend the
        same monotonic history.
        """
        if self._fh is not None:
            raise ServiceError(
                "replay() must run before the first append", status=500
            )
        if not self.path.exists():
            return []
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise ServiceError(
                f"cannot read service journal {self.path}: {exc}",
                status=500,
            ) from exc
        records: List[Dict[str, Any]] = []
        good_end = 0   # byte offset just past the last verified record
        offset = 0
        last_seq = 0
        while offset < len(raw):
            nl = raw.find(b"\n", offset)
            line = raw[offset:(nl if nl >= 0 else len(raw))]
            at_tail = nl < 0 or nl == len(raw) - 1 or not raw[nl + 1:].strip()
            frame = self._decode_frame(line, last_seq)
            if frame is None:
                if at_tail:
                    break  # torn tail: heal below, keep everything before
                raise ServiceError(
                    f"service journal corrupt before EOF at byte {offset} "
                    f"of {self.path} ({line[:60]!r}); refusing to guess "
                    f"at campaign history", status=500,
                )
            records.append(frame["rec"])
            last_seq = frame["seq"]
            good_end = (nl + 1) if nl >= 0 else len(raw)
            if nl < 0:
                break
            offset = nl + 1
        if good_end < len(raw):
            # Heal: truncate the torn bytes so the next append starts a
            # clean line (the lost record's transition never happened as
            # far as durable state is concerned — exactly the contract).
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
        self._seq = last_seq
        return records

    @staticmethod
    def _decode_frame(line: bytes, last_seq: int) -> Optional[Dict]:
        """One verified frame, or ``None`` for torn/corrupt bytes."""
        if not line.strip():
            return None
        try:
            frame = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(frame, dict) or not isinstance(frame.get("rec"),
                                                         dict):
            return None
        if frame.get("crc") != crc32_of(frame["rec"]):
            return None
        seq = frame.get("seq")
        if not isinstance(seq, int) or seq != last_seq + 1:
            return None
        return frame
