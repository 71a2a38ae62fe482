"""Native backend: C span kernel behind a bit-identity gate.

``engine="native"`` runs each simulation span through a small C shared
object compiled at first use (:mod:`repro.native.build`) over flat
buffers (:mod:`repro.native.marshal`, zero-copy for the trace columns,
mapped trace stores included, the caches' and TLBs' per-way and
replacement columns, and the L1D prefetcher's tables).  The kernel
runs no prefetcher, the stock Berti or the stock IPCP at the L1D, and
none at the L2.  Its guards (:func:`repro.native.runner.native_mode`)
demote any span the kernel cannot run — no compiler, non-stock or
instrumented parts, any other prefetcher or a subclass of these, an L2
prefetcher — to the classic per-record loop, with bit-identical
results.

It is the default of every job path (``JobSpec``, the CLI, the service
and its agents, the figure benches); ``simulate()`` itself defaults to
the classic engine.  The kernel runs one span per process at a time
(:func:`repro.native.build.call_span`), so concurrent threads take
turns in it.
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
