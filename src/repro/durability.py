"""Shared crash-durability primitives: whole files and one append-only log.

**Whole documents** — trace stores, snapshots, result-cache entries,
the fleet and campaign manifests, fuzzing reports — are written with
:func:`atomic_write_bytes` (temp file, ``fsync``, ``os.replace``, then
a directory ``fsync``), so a reader sees the old file or the new.  The
manifests reload through :func:`tolerant_read_json`, which heals a
document an older, non-atomic writer tore: :func:`heal_truncated_json`
only removes trailing data and appends closers, so a healed document
holds only key/value pairs fully present on disk.

**Append-only logs** — the service WAL and the runner's checkpoint
journal — are a :class:`RecordLog`: one line per record, a frame
``{"crc":…,"rec":{…},"seq":N}`` in :func:`canonical_json`, where
``crc`` is the CRC32 of the record's canonical JSON and ``seq`` counts
from 1 with no gap.  An append writes one frame and syncs it to disk; a
failed one leaves the log as it was.  Replay cuts a torn final frame
and refuses any other bad frame with
:class:`~repro.errors.RecordLogError`: guessing at history would serve
results that were never computed.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RecordLogError

__all__ = [
    "RecordLog",
    "atomic_write_bytes",
    "atomic_write_json",
    "canonical_json",
    "crc32_of",
    "encode_frame",
    "fsync_dir",
    "heal_truncated_json",
    "read_log",
    "tolerant_read_json",
]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, pure ASCII."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def crc32_of(payload: Any) -> int:
    """CRC32 over the canonical JSON encoding of ``payload``."""
    return zlib.crc32(canonical_json(payload).encode("ascii")) & 0xFFFFFFFF


def fsync_dir(directory: str | Path) -> None:
    """Flush a directory's metadata (making a rename durable), best effort."""
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks``, in order, to ``path`` so a crash leaves the old
    file or the new.

    Temp file ``.<name>-*.tmp`` in the target directory, ``flush`` +
    ``fsync``, then ``os.replace`` and a directory fsync.  The temp file
    is removed if anything fails before the rename.  Passing a large
    file as several chunks writes it without joining them in memory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_json(path: str | Path, doc: Any, indent: int = 2,
                      sort_keys: bool = True) -> None:
    """:func:`atomic_write_bytes` of ``doc`` as UTF-8 JSON."""
    atomic_write_bytes(path, json.dumps(doc, indent=indent,
                                        sort_keys=sort_keys).encode("utf-8"))


def _scan_state(text: str) -> Tuple[list, bool, bool]:
    """Bracket stack, in-string flag, and escape flag after ``text``."""
    stack: list = []
    in_string = False
    escaped = False
    for ch in text:
        if escaped:
            escaped = False
            continue
        if in_string:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in "{[":
            stack.append(ch)
        elif ch == "}":
            if stack and stack[-1] == "{":
                stack.pop()
        elif ch == "]":
            if stack and stack[-1] == "[":
                stack.pop()
    return stack, in_string, escaped


def heal_truncated_json(raw: str | bytes,
                        max_attempts: int = 256) -> Optional[Any]:
    """Recover the longest parseable prefix of a torn JSON document.

    Returns the healed object, or ``None`` when nothing structurally
    complete survives (e.g. the file was cut inside the opening brace).
    A valid document is parsed unchanged.  Healing never invents data:
    cut points after a complete substructure (closing bracket) are
    tried first — so a torn array of objects heals to a verbatim
    prefix of its complete elements — then closing-quote/comma cuts
    for flat documents, and only closing brackets are ever appended.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")
    raw = raw.rstrip()
    if not raw:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass

    # Cut candidates, scanned from the tail.  Cuts after a closing
    # bracket are preferred: they drop a partially-written trailing
    # element *whole*, so for the array-of-objects manifests a healed
    # document is a verbatim prefix of the elements that were written
    # (never an object with half its keys).  Quote/comma cuts are the
    # fallback for flat documents with no complete substructure to
    # cut at.
    strong, weak = [], []
    for i in range(len(raw) - 1, 0, -1):
        if raw[i] in "}]":
            strong.append(i + 1)
        elif raw[i] == '"':
            weak.append(i + 1)
        elif raw[i] == ",":
            weak.append(i)
        if len(strong) >= max_attempts and len(weak) >= max_attempts:
            break
    for cut in strong[:max_attempts] + weak[:max_attempts]:
        prefix = raw[:cut].rstrip()
        # Drop a trailing comma / colon left dangling by the cut; a
        # dangling colon drags its key string down with it.
        while prefix and prefix[-1] in ",:":
            if prefix[-1] == ",":
                prefix = prefix[:-1].rstrip()
                continue
            prefix = prefix[:-1].rstrip()
            if not prefix.endswith('"'):
                prefix = ""
                break
            j = prefix.rfind('"', 0, len(prefix) - 1)
            while j > 0 and prefix[j - 1] == "\\":
                j = prefix.rfind('"', 0, j)
            if j < 0:
                prefix = ""
                break
            prefix = prefix[:j].rstrip()
        if not prefix:
            continue
        stack, in_string, escaped = _scan_state(prefix)
        if in_string or escaped:
            continue
        closers = "".join("}" if b == "{" else "]" for b in reversed(stack))
        try:
            return json.loads(prefix + closers)
        except json.JSONDecodeError:
            continue
    return None


def tolerant_read_json(path: str | Path) -> Tuple[Optional[Any], bool]:
    """Read a JSON document, healing a torn tail.

    Returns ``(doc, healed)``: ``doc`` is ``None`` when the file is
    missing or beyond recovery; ``healed`` is ``True`` when the strict
    parse failed and the torn-tail recovery produced the document (the
    caller should record that data was lost).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return None, False
    try:
        return json.loads(raw.decode("utf-8")), False
    except (json.JSONDecodeError, UnicodeDecodeError):
        return heal_truncated_json(raw), True


# ----------------------------------------------------------------------
# The append-only record log
# ----------------------------------------------------------------------

def encode_frame(seq: int, rec: Dict[str, Any]) -> bytes:
    """The log line for record ``rec`` at sequence number ``seq``.

    The bytes are ``canonical_json({"seq": seq, "crc": crc, "rec": rec})``
    plus a newline (the keys sort as crc, rec, seq), with ``rec``
    encoded once instead of twice.
    """
    body = canonical_json(rec)
    crc = zlib.crc32(body.encode("ascii")) & 0xFFFFFFFF
    return f'{{"crc":{crc},"rec":{body},"seq":{seq}}}\n'.encode("ascii")


def _decode_frame(line: bytes, seq: int) -> Optional[Dict[str, Any]]:
    """The record of a verified frame numbered ``seq``, else ``None``."""
    try:
        frame = json.loads(line)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        return None
    if (not isinstance(frame, dict) or not isinstance(frame.get("rec"), dict)
            or frame.get("crc") != crc32_of(frame["rec"])
            or type(frame.get("seq")) is not int or frame["seq"] != seq):
        return None
    return frame["rec"]


def _scan(raw: bytes, path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """Verified records and the byte offset just past the last of them.

    A bad frame followed by nothing but whitespace is the torn tail and
    ends the scan; any other bad frame raises :class:`RecordLogError`.
    """
    records: List[Dict[str, Any]] = []
    good_end = offset = 0
    while offset < len(raw):
        nl = raw.find(b"\n", offset)
        end = len(raw) if nl < 0 else nl + 1
        rec = _decode_frame(raw[offset:end], len(records) + 1)
        if rec is None:
            if not raw[end:].strip():
                break
            raise RecordLogError(
                f"{path} corrupt before EOF at byte {offset} "
                f"({raw[offset:offset + 60]!r}); refusing to guess at its "
                f"history", field=path.name,
            )
        records.append(rec)
        good_end = offset = end
    return records, good_end


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""
    except OSError as exc:
        raise RecordLogError(f"cannot read {path}: {exc}",
                             field=path.name) from exc


def read_log(path: str | Path) -> List[Dict[str, Any]]:
    """Read-only replay: the verified records of the log at ``path``.

    A torn tail is skipped but left on disk, so a checker may read a
    log while its writer appends; a missing log is empty.
    """
    path = Path(path)
    return _scan(_read(path), path)[0]


class RecordLog:
    """The append-only, ``fsync``'d, torn-tail-healing record log.

    One writer per file.  :meth:`replay` runs before the first
    :meth:`append` and continues the sequence from the last good frame;
    after :meth:`close` an append reopens the file where the log ends.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None  # unbuffered, written with ``os.pwrite``
        self._seq = 0
        #: Bytes of verified frames: where the next frame is written.
        self._end: Optional[int] = None

    def replay(
        self,
        unframed: Optional[Callable[[bytes], Optional[List[dict]]]] = None,
    ) -> List[Dict[str, Any]]:
        """Verify the log, truncate a torn tail, return the records.

        ``unframed`` reads a file written before the log was framed: if
        it returns records for the raw bytes, the file is atomically
        rewritten as their frames and those records are returned.
        """
        if self._fh is not None:
            raise RecordLogError(
                "replay() must run before the first append",
                field=self.path.name,
            )
        raw = _read(self.path)
        old = unframed(raw) if unframed is not None and raw else None
        if old is not None:
            frames = [encode_frame(seq, rec)
                      for seq, rec in enumerate(old, 1)]
            atomic_write_bytes(self.path, *frames)
            self._seq, self._end = len(frames), sum(map(len, frames))
            return old
        records, good_end = _scan(raw, self.path)
        if good_end < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)
                os.fsync(fh.fileno())
        self._seq, self._end = len(records), good_end
        return records

    def append(self, rec: Dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        The sequence advances only once the frame is ``fsync``'d; if
        the write or the ``fsync`` raises, the file is cut back to the
        last good frame before the error propagates.
        """
        frame = encode_frame(self._seq + 1, rec)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = os.fdopen(
                os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666),
                "wb", buffering=0)
            if self._end is None:
                self._end = os.fstat(self._fh.fileno()).st_size
        fd, offset, view = self._fh.fileno(), self._end, memoryview(frame)
        try:
            while view:
                written = os.pwrite(fd, view, offset)
                view, offset = view[written:], offset + written
            os.fsync(fd)
        except BaseException:
            # If the cut fails too, the next frame is written over the
            # partial one and a replay cuts any rest as a torn tail.
            with contextlib.suppress(OSError):
                os.ftruncate(fd, self._end)
            raise
        self._end += len(frame)
        self._seq += 1
        return self._seq

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()
