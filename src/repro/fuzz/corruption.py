"""Corruption injector: every persisted format vs hostile bytes.

Builds one small, pristine artifact per persisted format — a ``.trc``
trace store, a simulator snapshot, a service WAL, a checkpoint journal,
and a result-cache entry — then applies a deterministic battery of
mutations (single-bit flips spread over the file, truncations at
structural and arbitrary offsets, block splices, and a grown tail) and
asserts the reader's contract on every mutant:

* ``.trc``      → :class:`TraceStoreError` from open or ``verify()``;
* snapshot      → :class:`SnapshotError` from ``load_snapshot``;
* WAL, journal  → :class:`RecordLogError`, **or** a healed replay whose
  records are a prefix of the original history (torn-tail healing is
  the record log's documented contract — anything that "heals" to a
  non-prefix is corruption being laundered into history).  The journal
  is read through ``Journal.load``, the resume path, so a mutant that
  the unframed-journal migration would read with the old tolerant
  rules shows up here as a finding;
* result cache  → :class:`CacheCorruption` from ``get``.

Any other exception type is a **non-typed-error finding** (a raw
``struct.error``/``KeyError`` reaching a client is a bug even when the
bytes are rejected), and a read that returns data is a
**silent-acceptance finding**.  The battery is seeded: the same seed
replays the same mutations, so a finding here is replayable by seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import (
    CacheCorruption,
    RecordLogError,
    ServiceError,
    SnapshotError,
)
from repro.memory.tracestore import (
    TraceStoreError,
    load_trace_store,
    write_trace_store,
)

__all__ = ["CorruptionReport", "corruption_matrix"]

FORMATS = ("tracestore", "snapshot", "wal", "journal", "resultcache")


@dataclass
class CorruptionReport:
    """Outcome of one full matrix run."""

    checked: int = 0
    rejected: int = 0
    healed: int = 0   # WAL and journal: torn tail cut back to a prefix
    findings: List[Dict[str, Any]] = field(default_factory=list)
    per_format: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "checked": self.checked,
            "rejected": self.rejected,
            "healed": self.healed,
            "findings": self.findings,
            "per_format": self.per_format,
        }


def _sample_trace():
    from repro.workloads.synthetic import pattern_stream
    from repro.workloads.trace import Trace

    t = Trace("fuzz_corruption_probe")
    t.suite = "fuzz"
    t.extend(pattern_stream(0x900000, 0x40000, [1, 3, 1, 3], 96, gap=2))
    return t


def _mutations(data: bytes, rng: Random,
               flips: int) -> List[Tuple[str, bytes]]:
    """The deterministic mutant battery for one pristine blob."""
    out: List[Tuple[str, bytes]] = []
    size = len(data)
    for _ in range(flips):
        pos = rng.randrange(size)
        bit = rng.randrange(8)
        mutant = bytearray(data)
        mutant[pos] ^= 1 << bit
        out.append((f"bitflip@{pos}.{bit}", bytes(mutant)))
    cuts = sorted({1, size // 3, size // 2, size - 1,
                   rng.randrange(1, size)})
    for cut in cuts:
        out.append((f"truncate@{cut}", data[:cut]))
    # Splice: overwrite a block with bytes copied from elsewhere.
    for _ in range(3):
        length = rng.randrange(4, max(5, size // 4))
        src = rng.randrange(max(1, size - length))
        dst = rng.randrange(max(1, size - length))
        if src == dst:
            dst = (dst + length) % max(1, size - length)
        mutant = bytearray(data)
        mutant[dst:dst + length] = data[src:src + length]
        out.append((f"splice{length}@{src}->{dst}", bytes(mutant)))
    # Grown tail: trailing garbage after a structurally complete file.
    out.append(("grow-tail", data + bytes(rng.randrange(256)
                                          for _ in range(16))))
    return [(kind, blob) for kind, blob in out if blob != data]


def _check_format(
    fmt: str,
    path: Path,
    pristine: bytes,
    reader: Callable[[], str],
    rng: Random,
    flips: int,
    report: CorruptionReport,
) -> None:
    """Run the battery for one format; ``reader`` returns a verdict.

    ``reader`` raises the format's typed error on rejection, raises
    anything else on a hygiene bug, returns ``"healed"`` when the
    format legally recovered a prefix, and ``"accepted"`` otherwise.
    """
    count = 0
    for kind, blob in _mutations(pristine, rng, flips):
        path.write_bytes(blob)
        count += 1
        report.checked += 1
        try:
            verdict = reader()
        except (TraceStoreError, SnapshotError, RecordLogError,
                ServiceError):
            # ServiceError is CacheCorruption's parent; these are the
            # typed families the formats document.
            report.rejected += 1
            continue
        except Exception as exc:  # noqa: BLE001 — that *is* the check
            report.findings.append({
                "format": fmt, "mutation": kind,
                "signature": f"corruption:{fmt}:raw:{type(exc).__name__}",
                "detail": f"{kind} escaped as {type(exc).__name__}: {exc}",
            })
            continue
        if verdict == "healed":
            report.healed += 1
            continue
        report.findings.append({
            "format": fmt, "mutation": kind,
            "signature": f"corruption:{fmt}:silent-accept",
            "detail": f"{kind} was accepted without error",
        })
    report.per_format[fmt] = count
    path.write_bytes(pristine)  # leave the artifact clean for reuse


def _healed(path: Path, mutant: bytes, got: list, original: list) -> str:
    """The torn-tail contract: replay cut at most the mutant's last line
    and returned a prefix of the original records (possibly all of them,
    e.g. after a stripped final newline or a grown garbage tail)."""
    kept = path.read_bytes()
    cut = mutant[len(kept):]
    if (mutant.startswith(kept) and b"\n" not in cut.rstrip()
            and got == original[:len(got)]):
        return "healed"
    return "accepted"


def corruption_matrix(workdir, seed: int = 0,
                      flips_per_format: int = 24) -> CorruptionReport:
    """Build all five artifacts and run the mutant battery on each."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = CorruptionReport()
    trace = _sample_trace()

    # -- trace store ---------------------------------------------------
    trc = workdir / "probe.trc"
    write_trace_store(trace, trc)

    def read_trc() -> str:
        t = load_trace_store(trc)
        try:
            # verify() CRCs the identity metadata plus the entire data
            # region, so any surviving mutation below the header is a
            # genuine silent acceptance.
            t.verify()
        finally:
            t.close()
        return "accepted"

    _check_format("tracestore", trc, trc.read_bytes(), read_trc,
                  Random(seed ^ zlib.crc32(b"tracestore")),
                  flips_per_format, report)

    # -- snapshot ------------------------------------------------------
    from repro.sanitizer.snapshot import latest_snapshot, load_snapshot
    from repro.simulator.engine import simulate

    snapdir = workdir / "snaps"
    simulate(trace, snapshot_every=len(trace) // 2, snapshot_dir=str(snapdir))
    snap = Path(latest_snapshot(str(snapdir)))

    def read_snap() -> str:
        load_snapshot(str(snap), trace=trace)
        return "accepted"

    _check_format("snapshot", snap, snap.read_bytes(), read_snap,
                  Random(seed ^ zlib.crc32(b"snapshot")),
                  flips_per_format, report)

    # -- service WAL ---------------------------------------------------
    from repro.durability import RecordLog

    wal_path = workdir / "probe.wal"
    wal = RecordLog(wal_path)
    original = [{"type": "submit", "i": i, "payload": "x" * 20}
                for i in range(8)]
    for rec in original:
        wal.append(rec)
    wal.close()

    def read_wal() -> str:
        mutant = wal_path.read_bytes()
        return _healed(wal_path, mutant, RecordLog(wal_path).replay(),
                       original)

    _check_format("wal", wal_path, wal_path.read_bytes(), read_wal,
                  Random(seed ^ zlib.crc32(b"wal")),
                  flips_per_format, report)

    # -- checkpoint journal --------------------------------------------
    from repro.runner.jobs import CompletedRun
    from repro.runner.journal import Journal

    journal_path = workdir / "probe.jsonl"
    journal = Journal(journal_path)
    for i in range(4):
        journal.append(CompletedRun(
            key=f"{trace.name}|berti|{i}", elapsed=0.5 + i,
            result={"l1d_misses": 114 + i, "ipc": 1.25, "cycles": 9000 + i},
        ))
    journal.close()
    entries = list(Journal(journal_path).load().values())

    def read_journal() -> str:
        # A rewrite, not a cut, would mean the mutant was taken for an
        # unframed journal and read by the old tolerant rules.
        mutant = journal_path.read_bytes()
        return _healed(journal_path, mutant,
                       list(Journal(journal_path).load().values()), entries)

    _check_format("journal", journal_path, journal_path.read_bytes(),
                  read_journal, Random(seed ^ zlib.crc32(b"journal")),
                  flips_per_format, report)

    # -- result cache --------------------------------------------------
    from repro.service.resultcache import ResultCache

    cache_root = workdir / "cache"
    cache = ResultCache(cache_root)
    key = "f" * 64
    cache.put(key, {"ipc": 1.25, "trace": trace.name, "records": len(trace)})
    entry = cache_root / f"{key}.json"

    def read_cache() -> str:
        got = ResultCache(cache_root).get(key)
        if got is None:
            # The entry file exists (we just wrote the mutant), so a
            # None here can only mean get() misclassified it as absent.
            return "accepted"
        return "accepted"

    _check_format("resultcache", entry, entry.read_bytes(), read_cache,
                  Random(seed ^ zlib.crc32(b"resultcache")),
                  flips_per_format, report)
    return report
