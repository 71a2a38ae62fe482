"""Zero-copy shared trace store: mmap-backed columnar trace files.

The runner's workers historically rebuilt every trace from its
``(name, scale)`` catalog entry — deterministic, but each worker of a
parallel campaign pays the full generation cost per job (and on some
platforms the records would otherwise be pickled across the process
boundary).  A *trace store* is the same columnar layout
:class:`~repro.workloads.trace.Trace` holds in RAM (six ``int64``
columns, one per field plus the precomputed line-address column),
serialised once by a converter and then **memory-mapped read-only** by
every worker: page-cache pages are shared between all processes on the
host, loading is O(1), and no per-job parsing or pickling happens at
all.

File layout (everything little-endian, pinned by an explicit byte-order
sentinel)::

    offset 0   magic            8 bytes  b"BERTITRC"
    offset 8   version          u32      FORMAT_VERSION
    offset 12  meta length      u32      bytes of UTF-8 JSON metadata
    offset 16  endian sentinel  u64      0x0102030405060708
    offset 24  record count     u64
    offset 32  metadata         meta-length bytes of JSON
               (zero padding to the next 8-byte boundary)
               ips              n × int64
               addrs            n × int64
               writes           n × int64 (0/1)
               gaps             n × int64
               deps             n × int64
               lines            n × int64 (addrs >> 6, precomputed)

Format version 2 adds a ``crc32`` field *inside* the metadata JSON — a
fixed-width hex CRC-32 of the entire column region — so the binary
header layout (and every offset above) is unchanged from version 1.
The CRC is **not** checked at open time: mapping stays O(1) and
zero-copy.  :meth:`MappedTrace.verify` is the opt-in deep check (used
by ``store_info``, the fuzzer's corruption matrix, and any client that
just pulled a store across a host boundary); it walks the pad bytes and
the column region once and raises a typed error with the first bad
offset.

Every malformed-input path raises the typed :class:`TraceStoreError`
(a :class:`~repro.errors.TraceError`, so the runner classifies it as a
permanent ``trace`` failure, not a retryable crash).

Stores are validated *at conversion time* (:func:`write_trace_store`
runs ``Trace.validate`` and the file is written atomically), so
:meth:`MappedTrace.validate` only re-checks structural integrity —
that is what keeps the worker's per-job cost independent of the trace
length.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.durability import atomic_write_bytes, canonical_json
from repro.errors import TraceError
from repro.workloads.trace import Trace

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "MappedTrace",
    "TraceStoreError",
    "ensure_store",
    "file_digest",
    "load_trace_store",
    "store_info",
    "store_path",
    "write_trace_store",
]

MAGIC = b"BERTITRC"
FORMAT_VERSION = 2
ENDIAN_SENTINEL = 0x0102030405060708

#: magic, version, meta length, endian sentinel, record count.
_HEADER = struct.Struct("<8sIIQQ")
_COLUMNS = ("ips", "addrs", "writes", "gaps", "deps", "lines")
_ITEM = 8  # int64


class TraceStoreError(TraceError):
    """A trace-store file is missing, truncated, or corrupt."""


def _identity_bytes(name: str, suite: str, description: str) -> bytes:
    """Canonical encoding of the identity fields folded into the CRC.

    Covering these makes a bit flip inside the metadata *values* (trace
    renamed, suite relabelled) detectable by :meth:`MappedTrace.verify`
    even though the checksum itself lives in the same JSON object —
    the CRC field is simply excluded from its own coverage.
    """
    return canonical_json([name, suite, description]).encode("ascii")


def _check(cond: bool, message: str, path: Path) -> None:
    if not cond:
        raise TraceStoreError(message, trace=str(path), field="trace_store")


def store_path(directory: str | Path, trace: str, scale: float) -> Path:
    """Canonical store filename for a catalog ``(trace, scale)`` pair."""
    return Path(directory) / f"{trace}__s{scale}.trc"


def file_digest(path: str | Path, chunk: int = 1 << 20) -> str:
    """Streamed SHA-256 of a file's bytes (``sha256:<hex>``).

    This is the trace-identity half of the campaign service's content
    hash — and what ``repro trace-store info`` reports, so the two can
    never disagree about what was simulated.
    """
    import hashlib

    path = Path(path)
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while True:
                block = fh.read(chunk)
                if not block:
                    break
                digest.update(block)
    except OSError as exc:
        raise TraceStoreError(
            f"cannot digest trace store {path}: {exc}",
            trace=str(path), field="trace_store",
        ) from exc
    return f"sha256:{digest.hexdigest()}"


def write_trace_store(trace: Trace, path: str | Path) -> Path:
    """Serialise ``trace`` to ``path`` atomically; returns the path.

    The trace is validated first — a store on disk is trusted by
    :meth:`MappedTrace.validate`, so corruption must be caught here.
    An empty trace is refused: a zero-record store carries no work and
    is indistinguishable from a conversion that died before writing
    records, so it must never be produced (or silently simulated).
    """
    import zlib

    trace.validate()
    path = Path(path)
    _check(len(trace) > 0,
           f"refusing to write an empty trace store for {trace.name!r}: "
           f"0 records", path)
    columns = (
        trace._ips, trace._addrs, trace._writes, trace._gaps, trace._deps,
        trace.line_addresses(),
    )
    blobs = []
    crc = zlib.crc32(_identity_bytes(trace.name, trace.suite,
                                     trace.description))
    for col in columns:
        data = col.tobytes() if hasattr(col, "tobytes") else bytes(col)
        if sys.byteorder == "big":  # the format is little-endian
            from array import array

            swapped = array("q", data)
            swapped.byteswap()
            data = swapped.tobytes()
        blobs.append(data)
        crc = zlib.crc32(data, crc)
    meta = json.dumps({
        "name": trace.name,
        "suite": trace.suite,
        "description": trace.description,
        # Fixed-width hex so the metadata length (and thus every data
        # offset) never depends on the checksum's value.
        "crc32": f"{crc:08x}",
    }).encode("utf-8")
    pad = (-(_HEADER.size + len(meta))) % _ITEM
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(meta), ENDIAN_SENTINEL, len(trace)
    )
    atomic_write_bytes(path, header, meta, b"\x00" * pad, *blobs)
    return path


def _parse_header(buf, path: Path):
    """Validate the fixed header; returns ``(n_records, meta, data_off)``."""
    _check(len(buf) >= _HEADER.size,
           f"trace store truncated: {len(buf)} bytes is smaller than the "
           f"{_HEADER.size}-byte header", path)
    magic, version, meta_len, sentinel, n_records = _HEADER.unpack_from(buf)
    _check(magic == MAGIC,
           f"not a trace store (magic {magic!r}, expected {MAGIC!r})", path)
    _check(version == FORMAT_VERSION,
           f"unsupported trace-store version {version} "
           f"(this build reads version {FORMAT_VERSION})", path)
    _check(sentinel == ENDIAN_SENTINEL,
           "endianness mismatch: store was written with the opposite byte "
           "order (sentinel 0x%016x)" % sentinel, path)
    meta_end = _HEADER.size + meta_len
    _check(len(buf) >= meta_end,
           f"trace store truncated inside metadata "
           f"({len(buf)} bytes, metadata ends at {meta_end})", path)
    try:
        meta = json.loads(bytes(buf[_HEADER.size:meta_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceStoreError(
            f"corrupt trace-store metadata: {exc}",
            trace=str(path), field="trace_store",
        ) from exc
    _check(isinstance(meta, dict), "trace-store metadata is not an object",
           path)
    data_off = meta_end + ((-meta_end) % _ITEM)
    expected = data_off + len(_COLUMNS) * n_records * _ITEM
    _check(len(buf) == expected,
           f"trace store truncated or oversized: {len(buf)} bytes on disk, "
           f"header promises {expected} ({n_records} records)", path)
    _check(n_records > 0,
           "trace store holds 0 records: an empty store cannot drive a "
           "simulation and is refused at open time", path)
    crc = meta.get("crc32")
    _check(isinstance(crc, str) and len(crc) == 8
           and all(c in "0123456789abcdef" for c in crc),
           f"trace-store metadata is missing its crc32 integrity field "
           f"(version-{FORMAT_VERSION} stores carry a fixed-width hex "
           f"CRC of the column region); got {crc!r}", path)
    return n_records, meta, data_off, meta_end


class MappedTrace(Trace):
    """A read-only :class:`Trace` whose columns live in a shared mmap.

    Behaves exactly like the trace the converter serialised — the
    simulation hot loop iterates the same 64-bit values — but the
    columns are ``memoryview`` casts into page-cache memory shared by
    every process mapping the same store.  Mutation APIs (``append`` /
    ``extend``) are unavailable by construction.  The native kernel
    reads these columns by pointer, without a copy.

    On a big-endian host the zero-copy contract cannot hold (the store
    format is little-endian), so :func:`load_trace_store` refuses with a
    typed error rather than silently copying.
    """

    __slots__ = ("path", "_mm", "_meta_end", "_data_off", "_stored_crc")

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        if sys.byteorder == "big":
            raise TraceStoreError(
                "trace stores are little-endian; zero-copy mapping is not "
                "supported on big-endian hosts",
                trace=str(path), field="trace_store",
            )
        try:
            with open(path, "rb") as fh:
                if os.fstat(fh.fileno()).st_size == 0:
                    # mmap would refuse a zero-length file with an
                    # unhelpful ValueError; say what actually happened.
                    raise TraceStoreError(
                        f"trace store is zero-length: {path} (truncated "
                        f"or never written)",
                        trace=str(path), field="trace_store",
                    )
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError as exc:
            raise TraceStoreError(
                f"trace store not found: {path}",
                trace=str(path), field="trace_store",
            ) from exc
        except (OSError, ValueError) as exc:
            raise TraceStoreError(
                f"cannot map trace store {path}: {exc}",
                trace=str(path), field="trace_store",
            ) from exc
        head = memoryview(mm)
        try:
            n_records, meta, data_off, meta_end = _parse_header(head, path)
        except BaseException:
            head.release()  # an exported view blocks mmap.close()
            mm.close()
            raise
        head.release()
        self.path = path
        self._mm = mm
        self._meta_end = meta_end
        self._data_off = data_off
        self._stored_crc = int(meta["crc32"], 16)
        self.name = meta.get("name", path.stem)
        self.suite = meta.get("suite", "")
        self.description = meta.get("description", "")
        view = memoryview(mm)
        span = n_records * _ITEM
        cols = []
        for i in range(len(_COLUMNS)):
            start = data_off + i * span
            cols.append(view[start:start + span].cast("q"))
        (self._ips, self._addrs, self._writes, self._gaps, self._deps,
         self._lines) = cols
        self._pages_cache = None  # decoded_columns() derives it on demand

    # -- read-only contract -------------------------------------------

    def append(self, *args, **kwargs) -> None:  # pragma: no cover - guard
        raise TraceStoreError(
            "mapped traces are read-only", trace=self.name,
            field="trace_store",
        )

    def extend(self, records) -> None:
        raise TraceStoreError(
            "mapped traces are read-only", trace=self.name,
            field="trace_store",
        )

    def validate(self) -> None:
        """Structural re-check only — O(1), not a record scan.

        Record-level validation ran in :func:`write_trace_store`; the
        store is immutable (written atomically, mapped read-only), so
        the worker does not re-pay a linear scan per job.  The header
        was fully re-verified when this object mapped the file.
        """

    def verify(self) -> None:
        """Deep integrity check of the mapped bytes (opt-in, O(n)).

        Opening a store stays O(1); this walks the file once and raises
        :class:`TraceStoreError` with the first bad offset when any
        byte of the pad region or the column region disagrees with the
        checksum the converter recorded.  The header and metadata need
        no checksum: every header field is individually pinned at open
        time and the file-size equation cross-checks the lengths.
        """
        import zlib

        view = memoryview(self._mm)
        try:
            pad = bytes(view[self._meta_end:self._data_off])
            if any(pad):
                bad = self._meta_end + next(
                    i for i, b in enumerate(pad) if b)
                raise TraceStoreError(
                    f"trace store {self.path} corrupt: non-zero pad byte "
                    f"at offset {bad} (pad region "
                    f"[{self._meta_end}, {self._data_off}) must be zero)",
                    trace=str(self.path), field="trace_store",
                )
            actual = zlib.crc32(
                view[self._data_off:],
                zlib.crc32(_identity_bytes(self.name, self.suite,
                                           self.description)),
            )
            if actual != self._stored_crc:
                raise TraceStoreError(
                    f"trace store {self.path} corrupt: identity fields + "
                    f"column region (offset {self._data_off}..{len(view)}) "
                    f"have CRC32 {actual:08x}, metadata recorded "
                    f"{self._stored_crc:08x}",
                    trace=str(self.path), field="trace_store",
                )
        finally:
            view.release()

    def close(self) -> None:
        """Drop our column views and unmap (tests; workers just exit).

        If a caller still holds a column view, the unmap is deferred to
        garbage collection of that view — ``mmap`` refuses to close with
        live exports, and an mmap lingering until its last reader drops
        is exactly the zero-copy contract.
        """
        empty = memoryview(b"").cast("q")
        self._ips = self._addrs = self._writes = empty
        self._gaps = self._deps = self._lines = empty
        try:
            self._mm.close()
        except BufferError:
            pass

    def __reduce__(self):
        # Pickling ships the *path*: the receiving process re-maps the
        # store (sharing page cache) instead of serialising the records.
        return (load_trace_store, (str(self.path),))


def load_trace_store(path: str | Path) -> MappedTrace:
    """Map a trace store read-only; raises :class:`TraceStoreError`."""
    return MappedTrace(path)


def store_info(path: str | Path) -> Dict[str, object]:
    """Header + metadata summary of a store file (the ``info`` CLI)."""
    path = Path(path)
    t = load_trace_store(path)
    try:
        t.verify()  # info is a diagnostic: pay the deep check
        return {
            "path": str(path),
            "version": FORMAT_VERSION,
            "name": t.name,
            "suite": t.suite,
            "description": t.description,
            "records": len(t),
            "bytes": path.stat().st_size,
            "crc32": f"{t._stored_crc:08x}",
            "digest": file_digest(path),
        }
    finally:
        t.close()


def ensure_store(
    directory: str | Path, trace: str, scale: float,
    resolve=None,
) -> Path:
    """Convert ``(trace, scale)`` into ``directory`` unless already there.

    The parent process calls this once per unique trace before a
    campaign; workers then only ever map.  An existing file is trusted
    (stores are immutable and written atomically), so repeated campaigns
    share one conversion.
    """
    path = store_path(directory, trace, scale)
    if path.exists():
        return path
    if resolve is None:
        from repro.workloads.catalog import resolve_trace as resolve
    return write_trace_store(resolve(trace, scale), path)


def attach_trace_stores(jobs: List, directory: str | Path) -> List:
    """Rewrite runner jobs to carry a mapped-store path.

    Converts each unique ``(trace, scale)`` once (parent-side), then
    returns copies of the :class:`~repro.runner.jobs.JobSpec` entries
    with ``trace_path`` set.  Non-JobSpec jobs pass through untouched.
    ``trace_path`` is excluded from the job key, so journals written
    without a store replay cleanly against a campaign that uses one.
    """
    import dataclasses

    from repro.runner.jobs import JobSpec

    cache: Dict[tuple, str] = {}
    out = []
    for job in jobs:
        if not isinstance(job, JobSpec):
            out.append(job)
            continue
        key = (job.trace, job.scale)
        if key not in cache:
            cache[key] = str(ensure_store(directory, job.trace, job.scale))
        out.append(dataclasses.replace(job, trace_path=cache[key]))
    return out
