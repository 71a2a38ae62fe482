"""Crash-durable mid-trace snapshots: the file format.

A snapshot captures the *entire* state of a
:class:`~repro.simulator.engine.Run` at a cut — hierarchy (caches,
MSHRs, PQ, MMU, DRAM, prefetchers), core model, warmup bookkeeping — so
an interrupted run can continue from the last checkpoint and produce a
:class:`~repro.simulator.stats.SimResult` bit-identical to the
uninterrupted run.  ``simulate(snapshot_every=N, snapshot_dir=D)``
writes them and ``simulate(resume_from=P)`` continues from one; both go
through the same span loop, merely cut at checkpoint boundaries.  This
module holds the format: :func:`save_snapshot`, :func:`load_snapshot`
(which verifies), and :func:`resume_run`, which checks that a snapshot
continues the requested run and returns that run.

File format (version 6)::

    <JSON header line>\\n<pickle payload>

The header is human-readable metadata plus integrity/identity fields:
``magic``, ``version``, ``index`` (records consumed), trace ``name`` /
``records`` / ``trace_crc`` (CRC-32 of the columnar arrays), prefetcher
names, ``payload_len`` and ``payload_crc`` (CRC-32 of the pickle
bytes), and ``header_crc``, :func:`repro.durability.crc32_of` (the
CRC-32 of the canonical JSON) of every *other* header field, so a
flipped bit in the identity fields themselves (trace name, record
count, prefetcher names) is caught instead of silently redirecting a
resume.  Version 6 pickles each cache and TLB as its per-way columns,
Berti's delta table and IPCP's IP table, CSPT and region monitor as
flat ``array('q')`` columns (version 5 held IPCP's per-entry objects and
region dict, version 4 the delta table's per-entry lists and victim
heaps, version 3 the TLBs as per-set lists, earlier versions per-line
cache objects), leaves out the indexes the caches, TLBs, Berti tables
and IPCP region monitor rebuild from their columns, the victim heaps
among them, and computes ``header_crc`` with the shared helper; older
files are refused.
Checks run in a fixed order: magic, version, header integrity, payload
length, payload checksum, trace identity, then payload structure (the
unpickled state must be a dict carrying every resume field, and its
``next_index`` must agree with the header's ``index``).
:func:`load_snapshot` rejects every failure as a typed
:class:`~repro.errors.SnapshotError`, never a partial resume.

Writes are atomic: payload to a temp file in the target directory,
``flush`` + ``fsync``, then ``os.replace`` — a crash mid-write leaves
either the old snapshot or none, and a torn file is caught by the
checksum on load.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from typing import Any, Dict, Optional

from repro.durability import atomic_write_bytes, crc32_of
from repro.errors import SnapshotError
from repro.prefetchers.base import Prefetcher
from repro.simulator.engine import Run
from repro.workloads.trace import Trace

MAGIC = "repro-snap"
VERSION = 6

#: Payload keys: the :class:`~repro.simulator.engine.Run` attributes a
#: resume restores, in the order they are pickled.
FIELDS = ("hierarchy", "core", "next_index", "warmup_end", "carryover",
          "start")


def _header_crc(header: Dict[str, Any]) -> int:
    """CRC-32 of the canonical JSON of every field except the CRC itself."""
    return crc32_of({k: v for k, v in header.items() if k != "header_crc"})


def trace_digest(trace: Trace) -> int:
    """CRC-32 over the trace's columnar arrays (identity, not security)."""
    crc = 0
    for column in trace.columns():
        crc = zlib.crc32(column.tobytes(), crc)
    return crc


def snapshot_path(directory: str, index: int) -> str:
    """Canonical checkpoint filename for a record index."""
    return os.path.join(directory, f"snap-{index:08d}.ckpt")


def latest_snapshot(directory: str) -> Optional[str]:
    """Path of the highest-index checkpoint in ``directory``, if any."""
    best = None
    best_index = -1
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    for name in names:
        if not (name.startswith("snap-") and name.endswith(".ckpt")):
            continue
        try:
            index = int(name[5:-5])
        except ValueError:
            continue
        if index > best_index:
            best_index = index
            best = os.path.join(directory, name)
    return best


def save_snapshot(path: str, run: Run) -> str:
    """Write ``run``'s state to ``path`` atomically; returns the path."""
    payload = pickle.dumps({k: getattr(run, k) for k in FIELDS},
                           protocol=pickle.HIGHEST_PROTOCOL)
    trace = run.trace
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "index": run.next_index,
        "trace": trace.name,
        "records": len(trace),
        "trace_crc": trace_digest(trace),
        "l1d": run.hierarchy.l1d_prefetcher.name,
        "l2": run.hierarchy.l2_prefetcher.name,
        "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload),
    }
    header["header_crc"] = _header_crc(header)
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode("ascii"),
                       b"\n", payload)
    return path


def load_snapshot(path: str, trace: Optional[Trace] = None
                  ) -> Dict[str, Any]:
    """Load and verify a snapshot; returns its state dict (the
    :data:`FIELDS`).  Raises :class:`SnapshotError` on any integrity or
    identity failure (never returns partial state)."""
    if os.path.isdir(path):
        latest = latest_snapshot(path)
        if latest is None:
            raise SnapshotError(f"no snapshots found in {path}")
        path = latest
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotError(f"{path}: truncated snapshot (no header)")
    try:
        header = json.loads(data[:newline])
    except ValueError as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotError(f"{path}: not a repro snapshot")
    if header.get("version") != VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version "
            f"{header.get('version')!r} (this build reads {VERSION})"
        )
    if _header_crc(header) != header.get("header_crc"):
        raise SnapshotError(
            f"{path}: header checksum mismatch — an identity or integrity "
            f"field was altered after the snapshot was written"
        )
    payload = data[newline + 1:]
    if len(payload) != header.get("payload_len"):
        raise SnapshotError(
            f"{path}: truncated snapshot payload "
            f"({len(payload)} bytes, header says {header.get('payload_len')})"
        )
    if zlib.crc32(payload) != header.get("payload_crc"):
        raise SnapshotError(
            f"{path}: payload checksum mismatch — snapshot is corrupt"
        )
    if trace is not None:
        if (header.get("trace") != trace.name
                or header.get("records") != len(trace)
                or header.get("trace_crc") != trace_digest(trace)):
            raise SnapshotError(
                f"{path}: snapshot was taken from trace "
                f"{header.get('trace')!r} ({header.get('records')} records), "
                f"not from {trace.name!r} ({len(trace)} records)"
            )
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise SnapshotError(
            f"{path}: cannot unpickle snapshot payload: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(state, dict):
        raise SnapshotError(
            f"{path}: snapshot payload is a {type(state).__name__}, "
            f"not the expected state dict"
        )
    missing = [k for k in FIELDS if k not in state]
    if missing:
        raise SnapshotError(
            f"{path}: snapshot payload is missing resume fields "
            f"{missing} (has {sorted(state)})"
        )
    if state["next_index"] != header.get("index"):
        raise SnapshotError(
            f"{path}: header says index {header.get('index')} but the "
            f"payload resumes at {state['next_index']} — refusing the "
            f"inconsistent snapshot"
        )
    if not isinstance(state["carryover"], dict):
        raise SnapshotError(
            f"{path}: snapshot carryover is a "
            f"{type(state['carryover']).__name__}, not a dict"
        )
    return state


def resume_run(
    path: str,
    trace: Trace,
    l1d_prefetcher: Optional[Prefetcher] = None,
    l2_prefetcher: Optional[Prefetcher] = None,
    warmup_fraction: float = 0.2,
) -> Run:
    """The run the snapshot at ``path`` (a file, or a directory whose
    newest checkpoint is used) continues, checked against the requested
    trace, prefetchers and warmup boundary."""
    warmup_end = Run.check(trace, warmup_fraction)
    state = load_snapshot(path, trace=trace)
    run = Run(trace, **{k: state[k] for k in FIELDS})
    for level, requested, used in (
        ("L1D", l1d_prefetcher, run.hierarchy.l1d_prefetcher),
        ("L2", l2_prefetcher, run.hierarchy.l2_prefetcher),
    ):
        if requested is not None and requested.name != used.name:
            raise SnapshotError(
                f"snapshot used {level} prefetcher {used.name!r}, "
                f"run requests {requested.name!r}"
            )
    if run.warmup_end != warmup_end:
        raise SnapshotError(
            f"snapshot's warmup boundary ({run.warmup_end}) does not match "
            f"warmup_fraction={warmup_fraction} ({warmup_end})"
        )
    return run
