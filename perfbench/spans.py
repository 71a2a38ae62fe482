"""Span recording for the traced run, and the per-layer arithmetic.

The traced run wraps public functions and methods of the simulator's
packages from the outside (:func:`install`).  Each call records one
span -- name, start, end, parent span and root span (the op it belongs
to) -- into per-thread in-memory columns; :meth:`Tracer.dump` writes
them out when the traced process ends.

Wrappers replace *class attributes* and module-level function bindings
only, never instance attributes, so the engine's exact-type checks
(``type(x) is Cache``), the ``type(pf).__dict__`` opt-ins
(``kernel_hooks``/``kernel_batch_hooks``) and the instance
``demand_access`` guard classify a traced hierarchy exactly as an
untraced one.

Self time is a span's duration minus the time its children cover; calls
are synchronous within a thread, so children never overlap and the
covered time is the sum of their durations (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: (start, end) in ``time.perf_counter`` seconds.
Window = Tuple[float, float]


class _Buffer:
    """One thread's span columns plus its open-span cursor."""

    __slots__ = ("name", "parent", "root", "start", "end", "top")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.top = -1


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Keyed marks: (event, key, perf_counter time), e.g. when a job
        #: was submitted and when its lease was granted.
        self.marks: List[Tuple[str, str, float]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def mark(self, event: str, key: str) -> None:
        self.marks.append((event, key, time.perf_counter()))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one span named ``name`` recorded around each call."""
        nid = self.name_id(name)
        get_buffer = self._buffer
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            parent = buf.top
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.root.append(i if parent < 0 else buf.root[parent])
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.top = i
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                buf.start[i] = t0
                buf.end[i] = t1
                buf.top = parent

        return traced

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def columns(self) -> Dict[str, np.ndarray]:
        """All threads' spans as flat arrays with global parent indices."""
        with self._lock:
            buffers = list(self._buffers)
        parts: Dict[str, list] = {k: [] for k in
                                  ("name", "parent", "root", "start", "end")}
        offset = 0
        for buf in buffers:
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n].copy()
            parent[parent >= 0] += offset
            root = np.frombuffer(buf.root, dtype=np.int64)[:n] + offset
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:n])
            parts["parent"].append(parent)
            parts["root"].append(root)
            parts["start"].append(np.frombuffer(buf.start,
                                                dtype=np.float64)[:n])
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64)[:n])
            offset += n
        dtypes = {"name": np.int32, "parent": np.int64, "root": np.int64,
                  "start": np.float64, "end": np.float64}
        return {k: (np.concatenate(v) if v else np.zeros(0, dtypes[k]))
                for k, v in parts.items()}

    def dump(self, path: str) -> None:
        cols = self.columns()
        np.savez(path, names=np.array(self.names, dtype=object), **cols,
                 marks=np.array(self.marks, dtype=object).reshape(-1, 3))


def load(path: str) -> Dict[str, Any]:
    with np.load(path, allow_pickle=True) as data:
        out = {k: data[k] for k in data.files}
    out["names"] = [str(n) for n in out["names"]]
    out["marks"] = [(str(e), str(k), float(t)) for e, k, t in out["marks"]]
    return out


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has],
                          minlength=len(dur))
    return dur - covered


class Ledger:
    """Per-name aggregates over one traced process's spans."""

    def __init__(self, spans: Dict[str, Any]) -> None:
        self.names = spans["names"]
        self.marks = spans.get("marks", [])
        name = spans["name"]
        parent = spans["parent"]
        self._name = name
        self._start = spans["start"]
        self._dur = spans["end"] - spans["start"]
        self._self = self_times(parent, spans["start"], spans["end"])
        # A span nested in a span of the same name (a wrapped override
        # calling a wrapped base method) is already inside its parent's
        # total; only the outermost of such a chain counts.
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        self._outer = parent_name != name

    def __len__(self) -> int:
        return len(self._name)

    def _mask(self, name: str, within: Optional[Window] = None
              ) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self._name), dtype=bool)
        mask = self._name == self.names.index(name)
        if within is not None:
            mask &= (self._start >= within[0]) & (self._start <= within[1])
        return mask

    def total(self, name: str) -> float:
        return float(self._dur[self._mask(name) & self._outer].sum())

    def self_time(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def count(self, name: str, within: Optional[Window] = None) -> int:
        return int(self._mask(name, within).sum())

    def durations(self, name: str, within: Optional[Window] = None
                  ) -> np.ndarray:
        """Durations of the spans named ``name`` (those starting inside
        the ``within`` interval of ``time.perf_counter`` times, which
        every process on the host shares)."""
        return self._dur[self._mask(name, within)]

    def p50(self, name: str, within: Optional[Window] = None) -> float:
        d = self.durations(name, within)
        return float(np.median(d)) if len(d) else 0.0


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------

#: (module, attribute path, span name).  Module-level functions are
#: re-bound in every loaded ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simulator.engine", "simulate", "simulator.engine.simulate"),
    ("repro.simulator.engine", "build_hierarchy",
     "simulator.engine.build_hierarchy"),
    ("repro.simulator.multicore", "simulate_multicore",
     "simulator.multicore.simulate"),
    ("repro.cpu.mmu", "MMU.prewarm", "cpu.mmu.prewarm"),
    ("repro.cpu.mmu", "MMU.translate_demand", "cpu.mmu.translate"),
    ("repro.cpu.mmu", "MMU.translate_prefetch", "cpu.mmu.translate"),
    ("repro.cpu.core_model", "CoreModel.issue_memory",
     "cpu.core_model.issue_memory"),
    ("repro.memory.hierarchy", "Hierarchy.demand_access",
     "memory.hierarchy.demand_access"),
    ("repro.memory.cache", "Cache.fill", "memory.cache.fill"),
    ("repro.memory.mshr", "MSHR.allocate", "memory.mshr.allocate"),
    ("repro.memory.dram", "DRAM.read", "memory.dram.access"),
    ("repro.memory.dram", "DRAM.write", "memory.dram.access"),
    ("repro.core.berti", "BertiPrefetcher.on_access_kernel",
     "core.berti.hooks"),
    ("repro.core.berti", "BertiPrefetcher.on_fill_kernel",
     "core.berti.hooks"),
    ("repro.core.berti", "BertiPrefetcher.on_prefetch_hit_kernel",
     "core.berti.hooks"),
    ("repro.native.marshal", "NativeState.begin_span",
     "native.marshal.export"),
    ("repro.native.marshal", "NativeState.end_span",
     "native.marshal.import"),
    ("repro.workloads.trace", "Trace.decoded_columns",
     "native.marshal.decode"),
    ("repro.native.build", "call_span", "native.build.kernel"),
    ("repro.runner.worker", "run_job", "runner.worker.run_job"),
    ("repro.runner.resources", "Heartbeat.ping",
     "runner.resources.heartbeat"),
    ("repro.memory.tracestore", "load_trace_store",
     "memory.tracestore.load"),
    ("repro.memory.tracestore", "file_digest", "memory.tracestore.digest"),
    ("repro.memory.tracestore", "write_trace_store",
     "memory.tracestore.convert"),
    ("repro.service.wal", "ServiceWAL.append", "service.wal.append"),
    ("repro.service.resultcache", "ResultCache.put",
     "service.resultcache.put"),
    ("repro.service.resultcache", "ResultCache.get",
     "service.resultcache.get"),
    ("repro.service.leases", "LeaseTable.grant", "service.leases.grant"),
    ("repro.service.daemon", "CampaignService.submit",
     "service.daemon.submit"),
    ("repro.service.daemon", "CampaignService.results",
     "service.daemon.results"),
    ("repro.workloads.catalog", "resolve_trace", "workloads.generate"),
    ("repro.workloads.spec_like", "cactuBSSN", "workloads.generate"),
)

#: Prefetcher hooks on the classic (object-protocol) path.
_ZOO_HOOKS = ("on_access", "on_fill", "on_prefetch_hit")


def _rebind_everywhere(tracer: Tracer, original: Callable,
                       wrapper: Callable) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, wrapper)


def _keyed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Marks the queue-wait metric needs: job submitted, lease granted."""
    if name == "service.leases.grant":
        def grant(self, job_key, *args, **kwargs):
            tracer.mark("grant", job_key)
            return fn(self, job_key, *args, **kwargs)
        return functools.wraps(fn)(grant)
    if name == "service.daemon.submit":
        def submit(self, payload):
            response = fn(self, payload)
            for job in response.get("jobs", []):
                if not job.get("cached"):
                    tracer.mark("submit", job["content_key"])
            return response
        return functools.wraps(fn)(submit)
    return fn


def install(tracer: Tracer) -> None:
    """Wrap every target; call before any hierarchy is built."""
    for mod_name, path, name in TARGETS:
        module = importlib.import_module(mod_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            tracer.patch(owner, attr,
                         tracer.wrap(name, _keyed(tracer, name, original)))
        else:
            original = getattr(module, attr)
            _rebind_everywhere(tracer, original,
                               tracer.wrap(name, _keyed(tracer, name,
                                                        original)))

    # The batched runner is a closure the native engine demotes spans
    # to; each runner it builds is traced (the metric must stay 0).
    from repro.simulator import batched

    factory = batched.make_batched_runner

    @functools.wraps(factory)
    def make_batched_runner(*args, **kwargs):
        return tracer.wrap("simulator.batched.span",
                           factory(*args, **kwargs))

    _rebind_everywhere(tracer, factory, make_batched_runner)

    from repro.core.berti import BertiPrefetcher
    from repro.prefetchers import registry
    from repro.prefetchers.base import Prefetcher

    classes = {Prefetcher}
    classes.update(v for v in vars(registry).values()
                   if isinstance(v, type) and issubclass(v, Prefetcher)
                   and not issubclass(v, BertiPrefetcher))
    for cls in sorted(classes, key=lambda c: c.__name__):
        for hook in _ZOO_HOOKS:
            if hook in cls.__dict__:
                tracer.patch(cls, hook,
                             tracer.wrap("prefetchers.hooks",
                                         cls.__dict__[hook]))
