"""Trace containers: the unit of work every experiment consumes.

A trace is an ordered sequence of memory accesses annotated with the
number of non-memory instructions preceding each access — the same
information a ChampSim trace carries after decoding.  Records:

``(ip, vaddr, is_write, gap, dep)``

* ``ip``   — instruction pointer of the memory instruction
* ``vaddr``— virtual byte address accessed
* ``is_write`` — store vs. load
* ``gap``  — non-memory instructions between the previous access and this
* ``dep``  — 0, or *d* when the address depends on the value loaded by the
  *d*-th previous memory record (pointer chasing / indirect indexing)

Storage is **columnar**: one ``array('q')`` per field plus a precomputed
line-address column (``vaddr >> 6``), so the simulation hot loop iterates
flat C arrays instead of a list of Python tuples.  The :attr:`Trace.records`
view preserves the historical row-oriented API (append/extend/index/slice/
iterate/compare) for tests, generators, and the fault-injection harness.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

TraceRecord = Tuple[int, int, bool, int, int]

_LINE_SHIFT = 6
_PAGE_SHIFT = 12


class _RecordsView:
    """Row-oriented (list-of-tuples-like) view over a trace's columns.

    Cheap to construct; mutations write through to the owning trace's
    column arrays.  Slicing materialises a plain list of tuples.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._ips)

    def __iter__(self) -> Iterator[TraceRecord]:
        t = self._trace
        for ip, va, w, g, d in zip(t._ips, t._addrs, t._writes, t._gaps,
                                   t._deps):
            yield (ip, va, bool(w), g, d)

    def __getitem__(self, idx):
        t = self._trace
        if isinstance(idx, slice):
            return [
                (ip, va, bool(w), g, d)
                for ip, va, w, g, d in zip(
                    t._ips[idx], t._addrs[idx], t._writes[idx], t._gaps[idx],
                    t._deps[idx],
                )
            ]
        return (
            t._ips[idx], t._addrs[idx], bool(t._writes[idx]),
            t._gaps[idx], t._deps[idx],
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, _RecordsView):
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __mul__(self, times: int) -> List[TraceRecord]:
        return list(self) * times

    def append(self, record: Sequence) -> None:
        ip, va, w, g, d = record
        self._trace.append(ip, va, w, g, d)

    def extend(self, records: Iterable[Sequence]) -> None:
        self._trace.extend(records)

    def __repr__(self) -> str:
        return f"_RecordsView({list(self)!r})"


class Trace:
    """A named memory-access trace plus bookkeeping (columnar storage)."""

    __slots__ = (
        "name", "suite", "description",
        "_ips", "_addrs", "_writes", "_gaps", "_deps", "_lines",
        "_pages_cache",
    )

    def __init__(
        self,
        name: str,
        records: Optional[Iterable[Sequence]] = None,
        suite: str = "",
        description: str = "",
    ) -> None:
        self.name = name
        self.suite = suite
        self.description = description
        self._ips = array("q")
        self._addrs = array("q")
        self._writes = array("q")   # 0/1
        self._gaps = array("q")
        self._deps = array("q")
        self._lines = array("q")    # precomputed vaddr >> 6
        self._pages_cache: Optional[array] = None
        if records:
            self.extend(records)

    def __len__(self) -> int:
        return len(self._ips)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and self.suite == other.suite
            and self.description == other.description
            and self._ips == other._ips
            and self._addrs == other._addrs
            and self._writes == other._writes
            and self._gaps == other._gaps
            and self._deps == other._deps
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def append(
        self,
        ip: int,
        vaddr: int,
        is_write: bool = False,
        gap: int = 0,
        dep: int = 0,
    ) -> None:
        self._ips.append(ip)
        self._addrs.append(vaddr)
        self._writes.append(1 if is_write else 0)
        self._gaps.append(gap)
        self._deps.append(dep)
        self._lines.append(vaddr >> _LINE_SHIFT)

    def extend(self, records: Iterable[Sequence]) -> None:
        ips, addrs = self._ips, self._addrs
        writes, gaps, deps = self._writes, self._gaps, self._deps
        lines = self._lines
        for ip, vaddr, is_write, gap, dep in records:
            ips.append(ip)
            addrs.append(vaddr)
            writes.append(1 if is_write else 0)
            gaps.append(gap)
            deps.append(dep)
            lines.append(vaddr >> _LINE_SHIFT)

    # ------------------------------------------------------------------
    # Row and column access
    # ------------------------------------------------------------------

    @property
    def records(self) -> _RecordsView:
        """Row-oriented view: behaves like the old list of tuples."""
        return _RecordsView(self)

    def columns(self) -> Tuple[array, array, array, array, array]:
        """The raw ``(ips, addrs, writes, gaps, deps)`` column arrays.

        The hot simulation loop iterates these directly; callers must not
        mutate them behind the trace's back (use :meth:`append`).
        """
        return self._ips, self._addrs, self._writes, self._gaps, self._deps

    def line_addresses(self) -> array:
        """Precomputed line-address column (``vaddr >> 6`` per record)."""
        return self._lines

    def decoded_columns(self) -> Tuple[array, array]:
        """``(vlines, vpages)`` derived columns, vectorized and cached.

        The page column is produced in one numpy pass (an arithmetic
        shift, so negative addresses floor-divide exactly like Python's
        ``>>``) and cached; staleness is detected by length, which is
        sufficient because the column arrays are append-only.  The
        native span kernel reads these by pointer.
        """
        pages = self._pages_cache
        if pages is None or len(pages) != len(self._addrs):
            addrs = self._addrs
            if len(addrs):
                a = np.frombuffer(addrs, dtype=np.int64)
                pages = array("q")
                pages.frombytes((a >> _PAGE_SHIFT).tobytes())
            else:
                pages = array("q")
            self._pages_cache = pages
        return self._lines, pages

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Total instructions (memory + the gaps between them)."""
        return len(self._ips) + sum(self._gaps)

    @property
    def unique_ips(self) -> int:
        return len(set(self._ips))

    @property
    def unique_lines(self) -> int:
        return len(set(self._lines))

    @property
    def write_fraction(self) -> float:
        if not self._ips:
            return 0.0
        return sum(self._writes) / len(self._writes)

    def footprint_bytes(self) -> int:
        """Approximate data footprint (unique lines × 64 B)."""
        return self.unique_lines * 64

    def validate(self) -> None:
        """Check every record is well-formed; raise ``TraceError`` if not.

        Guards the simulator against corrupted trace files (and is what
        the fault-injection harness's ``corrupt`` fault trips): negative
        addresses/IPs/gaps, or a ``dep`` pointing before the trace start.
        """
        from repro.errors import TraceError

        for i, (ip, vaddr, gap, dep) in enumerate(
            zip(self._ips, self._addrs, self._gaps, self._deps)
        ):
            if ip < 0 or vaddr < 0 or gap < 0 or dep < 0:
                raise TraceError(
                    f"corrupt record {i}: negative field "
                    f"(ip={ip}, vaddr={vaddr}, gap={gap}, dep={dep})",
                    trace=self.name,
                )

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def _copy_meta(self, name: str) -> "Trace":
        return Trace(name=name, suite=self.suite,
                     description=self.description)

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace over record indices [start, stop)."""
        out = self._copy_meta(f"{self.name}[{start}:{stop}]")
        out._ips = self._ips[start:stop]
        out._addrs = self._addrs[start:stop]
        out._writes = self._writes[start:stop]
        out._gaps = self._gaps[start:stop]
        out._deps = self._deps[start:stop]
        out._lines = self._lines[start:stop]
        return out

    def repeated(self, times: int) -> "Trace":
        """The trace concatenated ``times`` times (multi-core replay)."""
        out = self._copy_meta(self.name)
        out._ips = self._ips * times
        out._addrs = self._addrs * times
        out._writes = self._writes * times
        out._gaps = self._gaps * times
        out._deps = self._deps * times
        out._lines = self._lines * times
        return out

    # ------------------------------------------------------------------
    # Serialisation (npz + json sidecar)
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        path = Path(path)
        np.savez_compressed(
            path,
            ips=np.asarray(self._ips, dtype=np.int64),
            addrs=np.asarray(self._addrs, dtype=np.int64),
            writes=np.asarray(self._writes, dtype=np.int64).astype(np.bool_),
            gaps=np.asarray(self._gaps, dtype=np.int32),
            deps=np.asarray(self._deps, dtype=np.int32),
        )
        meta = {
            "name": self.name,
            "suite": self.suite,
            "description": self.description,
        }
        Path(str(path) + ".json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        path = Path(path)
        data = np.load(path if path.suffix == ".npz" else str(path) + ".npz")
        meta_path = Path(str(path) + ".json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        out = cls(
            name=meta.get("name", path.stem),
            suite=meta.get("suite", ""),
            description=meta.get("description", ""),
        )
        for col, key in (
            (out._ips, "ips"), (out._addrs, "addrs"), (out._writes, "writes"),
            (out._gaps, "gaps"), (out._deps, "deps"),
        ):
            col.frombytes(
                np.ascontiguousarray(data[key], dtype=np.int64).tobytes()
            )
        addrs = out._addrs
        out._lines.frombytes(
            (np.frombuffer(addrs, dtype=np.int64) >> _LINE_SHIFT).tobytes()
        )
        return out


def interleave(traces: Sequence[Trace], name: str, chunk: int = 1) -> Trace:
    """Round-robin interleave several traces at ``chunk``-record granularity.

    Used to build patterns like CactuBSSN's hundreds of interleaved strided
    instructions, and heterogeneous phases within one synthetic benchmark.
    """
    out = Trace(name=name, suite=traces[0].suite if traces else "")
    iters = [iter(t.records) for t in traces]
    live = list(range(len(iters)))
    while live:
        next_live = []
        for idx in live:
            taken = 0
            for rec in iters[idx]:
                out.records.append(rec)
                taken += 1
                if taken >= chunk:
                    break
            if taken >= chunk:
                next_live.append(idx)
        live = next_live
    return out


def concatenate(traces: Sequence[Trace], name: str) -> Trace:
    """Phases executed back to back (program phase changes)."""
    out = Trace(name=name, suite=traces[0].suite if traces else "")
    for t in traces:
        out.records.extend(t.records)
    return out
