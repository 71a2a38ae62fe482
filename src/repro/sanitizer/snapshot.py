"""Crash-durable mid-trace snapshots with bit-identical resume.

A snapshot captures the *entire* simulator state at a record boundary —
hierarchy (caches, MSHRs, PQ, MMU, DRAM, prefetchers), core model,
warmup bookkeeping — so an interrupted run can continue from the last
checkpoint and produce a :class:`~repro.simulator.stats.SimResult`
bit-identical to the uninterrupted run.  That works because
:func:`simulate_with_snapshots` replays exactly the engine's record
loop, merely split at checkpoint boundaries: every sub-span performs
the same operations in the same order as ``simulate``'s two spans.

File format (version 2)::

    <JSON header line>\\n<pickle payload>

The header is human-readable metadata plus integrity/identity fields:
``magic``, ``version``, ``index`` (records consumed), trace ``name`` /
``records`` / ``trace_crc`` (CRC-32 of the columnar arrays), prefetcher
names, ``payload_len`` and ``payload_crc`` (CRC-32 of the pickle
bytes), and — new in version 2 — ``header_crc``, a CRC-32 of the
canonical JSON of every *other* header field, so a flipped bit in the
identity fields themselves (trace name, record count, prefetcher names)
is caught instead of silently redirecting a resume.  Checks run in a
fixed order: magic, version, header integrity, payload length, payload
checksum, trace identity, then payload structure (the unpickled state
must be a dict carrying every resume field, and its ``next_index`` must
agree with the header's ``index``).  :func:`load_snapshot` rejects
every failure as a typed :class:`~repro.errors.SnapshotError`, never a
partial resume.

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
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cpu.core_model import CoreModel
from repro.durability import atomic_write_bytes
from repro.errors import (
    ConfigError,
    SnapshotError,
    TraceError,
)
from repro.memory.hierarchy import Hierarchy
from repro.prefetchers.base import Prefetcher
from repro.sanitizer.config import SanitizerConfig
from repro.sanitizer.invariants import attach_sanitizer
from repro.simulator.config import SystemConfig, default_config
from repro.simulator.engine import (
    _collect,
    _Snapshot,
    build_hierarchy,
    make_classic_runner,
    validate_engine,
)
from repro.simulator.stats import SimResult
from repro.workloads.trace import Trace

MAGIC = "repro-snap"
VERSION = 2


def _header_crc(header: Dict[str, Any]) -> int:
    """CRC-32 of the canonical JSON of every field except the CRC itself."""
    core = {k: v for k, v in header.items() if k != "header_crc"}
    return zlib.crc32(json.dumps(core, sort_keys=True).encode("ascii"))


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


@dataclass
class SnapshotState:
    """Everything needed to continue a run mid-trace."""

    hierarchy: Hierarchy
    core: CoreModel
    next_index: int
    warmup_end: int
    carryover: Dict[str, int]
    #: (instructions, cycles) at the warmup boundary; None while still
    #: inside warmup.
    start: Optional[Any]


def save_snapshot(
    path: str,
    state: SnapshotState,
    trace: Trace,
) -> str:
    """Write ``state`` to ``path`` atomically; returns the path."""
    payload = pickle.dumps(
        {
            "hierarchy": state.hierarchy,
            "core": state.core,
            "next_index": state.next_index,
            "warmup_end": state.warmup_end,
            "carryover": dict(state.carryover),
            "start": state.start,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "index": state.next_index,
        "trace": trace.name,
        "records": len(trace),
        "trace_crc": trace_digest(trace),
        "l1d": state.hierarchy.l1d_prefetcher.name,
        "l2": state.hierarchy.l2_prefetcher.name,
        "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload),
    }
    header["header_crc"] = _header_crc(header)
    data = json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload
    atomic_write_bytes(path, data)
    return path


def load_snapshot(path: str, trace: Optional[Trace] = None) -> SnapshotState:
    """Load and verify a snapshot; raises :class:`SnapshotError` on any
    integrity or identity failure (never returns partial state)."""
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
    required = ("hierarchy", "core", "next_index", "warmup_end",
                "carryover", "start")
    missing = [k for k in required if k not in state]
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
    return SnapshotState(
        hierarchy=state["hierarchy"],
        core=state["core"],
        next_index=state["next_index"],
        warmup_end=state["warmup_end"],
        carryover=state["carryover"],
        start=state["start"],
    )


def simulate_with_snapshots(
    trace: Trace,
    l1d_prefetcher: Optional[Prefetcher] = None,
    l2_prefetcher: Optional[Prefetcher] = None,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    prewarm_tlb: bool = True,
    post_build=None,
    snapshot_every: int = 0,
    snapshot_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    sanitize: Optional[SanitizerConfig] = None,
    engine: str = "classic",
    native: str = "auto",
) -> SimResult:
    """:func:`~repro.simulator.engine.simulate`, split at checkpoints.

    With ``snapshot_every=0`` and no ``resume_from`` this runs the same
    record loop as ``simulate`` (same hoisted callbacks, same span
    structure) and returns the identical result.  ``snapshot_every=N``
    writes ``snap-<index>.ckpt`` into ``snapshot_dir`` every N records;
    ``resume_from`` (a checkpoint file, or a directory whose newest
    checkpoint is used) continues an interrupted run.  ``sanitize``
    attaches the SimSan invariant checker on top.

    ``engine``/``native`` select the inner loop exactly as in
    ``simulate``.  Snapshots are taken between spans, where the native
    runner has imported its state back into the Python objects, so
    checkpoint files are byte-identical across engines and a run
    snapshotted under one engine resumes under the other.  (With
    ``sanitize`` the native engine demotes every span to the classic
    loop — the invariant checker wraps the dispatch the kernel bypasses.)
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}",
            trace=trace.name,
            field="warmup_fraction",
        )
    if snapshot_every < 0:
        raise ConfigError(
            f"snapshot_every must be >= 0, got {snapshot_every}",
            field="snapshot_every",
        )
    if snapshot_every and not snapshot_dir:
        raise ConfigError(
            "snapshot_every requires a snapshot_dir", field="snapshot_dir"
        )
    if snapshot_every:
        os.makedirs(snapshot_dir, exist_ok=True)
    validate_engine(engine, trace.name, native)
    if len(trace) == 0:
        # Same typed error as the engine: an empty trace used to slip
        # past the n > 0 warmup guard and return all-zero statistics.
        raise TraceError(
            f"trace {trace.name!r} has no records",
            trace=trace.name,
        )
    config = config or default_config()
    n = len(trace)

    if resume_from is not None:
        state = load_snapshot(resume_from, trace=trace)
        hierarchy = state.hierarchy
        core = state.core
        next_index = state.next_index
        warmup_end = state.warmup_end
        carryover = state.carryover
        start = state.start
        if l1d_prefetcher is not None and (
            l1d_prefetcher.name != hierarchy.l1d_prefetcher.name
        ):
            raise SnapshotError(
                f"snapshot used L1D prefetcher "
                f"{hierarchy.l1d_prefetcher.name!r}, "
                f"run requests {l1d_prefetcher.name!r}"
            )
        if l2_prefetcher is not None and (
            l2_prefetcher.name != hierarchy.l2_prefetcher.name
        ):
            raise SnapshotError(
                f"snapshot used L2 prefetcher "
                f"{hierarchy.l2_prefetcher.name!r}, "
                f"run requests {l2_prefetcher.name!r}"
            )
        if int(n * warmup_fraction) != warmup_end:
            raise SnapshotError(
                f"snapshot's warmup boundary ({warmup_end}) does not match "
                f"warmup_fraction={warmup_fraction} ({int(n * warmup_fraction)})"
            )
    else:
        hierarchy = build_hierarchy(config, l1d_prefetcher, l2_prefetcher)
        if post_build is not None:
            post_build(hierarchy)
        core = CoreModel(config.core)
        if prewarm_tlb:
            hierarchy.mmu.prewarm(trace.line_addresses())
        next_index = 0
        warmup_end = int(n * warmup_fraction)
        carryover = {"l1d": 0, "l2": 0}
        start = None
    if warmup_end >= n:
        raise ConfigError(
            "warmup_fraction leaves no measured records",
            trace=trace.name,
            field="warmup_fraction",
        )

    if sanitize is not None:
        sanitizer = attach_sanitizer(
            hierarchy, sanitize, trace=trace.name, start_index=next_index
        )
        # Keep the check cadence aligned with the uninterrupted run
        # (cosmetic: checks are read-only either way).
        sanitizer._countdown = (
            sanitize.check_every - next_index % sanitize.check_every
        )

    if engine == "native":
        # The runner revalidates its guards per span, so the sanitizer
        # wrapper installed above demotes every span to the classic loop.
        from repro.native.runner import make_native_runner

        _run_span = make_native_runner(trace, hierarchy, core, native)
    else:
        _run_span = make_classic_runner(trace, hierarchy, core)

    def _boundaries():
        """Record indexes where the loop must pause, in order."""
        marks = set()
        if warmup_end > next_index:
            marks.add(warmup_end)
        if snapshot_every:
            first = (next_index // snapshot_every + 1) * snapshot_every
            marks.update(range(first, n, snapshot_every))
        marks.add(n)
        return sorted(marks)

    i = next_index
    if i == 0 and warmup_end == 0:
        start = _Snapshot(0, 0.0)
    for mark in _boundaries():
        _run_span(i, mark)
        i = mark
        if i == warmup_end and warmup_end > 0:
            hierarchy.reset_stats()
            carryover = hierarchy.prefetched_line_counts()
            snap_i, snap_c = core.snapshot()
            start = _Snapshot(snap_i, snap_c)
        if snapshot_every and i % snapshot_every == 0 and 0 < i < n:
            save_snapshot(
                snapshot_path(snapshot_dir, i),
                SnapshotState(
                    hierarchy=hierarchy,
                    core=core,
                    next_index=i,
                    warmup_end=warmup_end,
                    carryover=carryover,
                    start=start,
                ),
                trace,
            )

    if start is None:  # defensive: every path above sets it
        start = _Snapshot(0, 0.0)
    res = _collect(trace, hierarchy, core, start)
    res.extra["pf_carryover_l1d"] = float(carryover["l1d"])
    res.extra["pf_carryover_l2"] = float(carryover["l2"])
    return res
