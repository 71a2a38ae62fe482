"""Opt-in native backend: C span kernel behind a bit-identity gate.

``engine="native"`` runs each simulation span through a small C shared
object compiled at first use (:mod:`repro.native.build`) over flat
buffers (:mod:`repro.native.marshal`, zero-copy for the trace columns
and Berti history rings).  Its guards
(:func:`repro.native.runner.native_mode`) demote any span the kernel
cannot run — no compiler, non-stock or instrumented parts, any
prefetcher but the stock Berti — to the classic per-record loop, with
bit-identical results.
"""

from .build import (
    NativeBuildError,
    build_kernel,
    cache_dir,
    find_compiler,
    kernel_available,
    kernel_key,
    reset_build_cache,
)
from .marshal import BUFS, FREGS, REGISTERS, NativeState, layout_digest
from .runner import (
    DEMOTION_REASONS,
    NativeRunner,
    make_native_runner,
    native_mode,
    non_stock_reason,
)

__all__ = [
    "BUFS",
    "DEMOTION_REASONS",
    "FREGS",
    "NativeBuildError",
    "NativeRunner",
    "NativeState",
    "REGISTERS",
    "build_kernel",
    "cache_dir",
    "find_compiler",
    "kernel_available",
    "kernel_key",
    "layout_digest",
    "make_native_runner",
    "native_mode",
    "non_stock_reason",
    "reset_build_cache",
]
