"""Compile and bind the native span kernel.

The kernel source (``kernel.c``) is compiled at first use into a shared
object cached under :func:`cache_dir`, keyed on the SHA-256 of the
kernel source plus the marshal layout digest — editing either produces a
new cache entry, so stale binaries can never be loaded against a
mismatched layout.  The generated ``repro_native_layout.h`` is the only
ABI: ``R_<NAME>``/``FR_<NAME>``/``B_<NAME>`` index defines derived from
:data:`repro.native.marshal.REGISTERS` / ``FREGS`` / ``BUFS``, and the
``PF_<NAME>`` prefetcher kinds of ``PF_KINDS``.

No build-time dependencies beyond a C compiler (``$CC``, ``cc``,
``gcc`` or ``clang``); when none is present :func:`kernel_available`
reports the diagnostic and the caller demotes to the classic loop.

The kernel keeps its working state in file-scope statics (the register
and buffer pointers, the error ``jmp_buf`` and the structs it caches
from them), and ctypes releases the GIL for the call.  So
:func:`call_span` runs one span per process at a time: threads that
simulate concurrently (``repro serve --workers``, ``repro agent
--pool``) take turns in the kernel and overlap only in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

from . import marshal


class NativeBuildError(RuntimeError):
    """Kernel compilation failed; ``str(exc)`` carries the diagnostic."""


_KERNEL_SRC = Path(__file__).with_name("kernel.c")

#: Memoised (entry_point, diagnostic) — at most one build per process.
_BOUND: Optional[Tuple[Optional[Callable], Optional[str]]] = None
_BUILD_LOCK = threading.Lock()
#: Held for every kernel call: the kernel's state is process-global.
_SPAN_LOCK = threading.Lock()


def cache_dir() -> Path:
    """Where built shared objects live (override: ``REPRO_NATIVE_CACHE``)."""
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def kernel_key() -> str:
    """Cache key: kernel source + layout digest."""
    digest = hashlib.sha256()
    digest.update(_KERNEL_SRC.read_bytes())
    digest.update(marshal.layout_digest().encode("ascii"))
    return digest.hexdigest()[:24]


def layout_header() -> str:
    """The generated ``repro_native_layout.h`` contents."""
    lines = [
        "/* Generated from repro.native.marshal -- do not edit. */",
        "#ifndef REPRO_NATIVE_LAYOUT_H",
        "#define REPRO_NATIVE_LAYOUT_H",
    ]
    for i, name in enumerate(marshal.REGISTERS):
        lines.append(f"#define R_{name} {i}")
    for i, name in enumerate(marshal.FREGS):
        lines.append(f"#define FR_{name} {i}")
    for i, name in enumerate(marshal.BUFS):
        lines.append(f"#define B_{name} {i}")
    for i, name in enumerate(marshal.PF_KINDS):
        lines.append(f"#define PF_{name} {i}")
    lines.append("#endif")
    return "\n".join(lines) + "\n"


def find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def build_kernel() -> ctypes.CDLL:
    """Compile (if not cached) and load the kernel shared object."""
    key = kernel_key()
    directory = cache_dir()
    so_path = directory / f"repro_kernel_{key}.so"
    if not so_path.exists():
        cc = find_compiler()
        if cc is None:
            raise NativeBuildError(
                "no C compiler found (tried $CC, cc, gcc, clang)"
            )
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=str(directory)) as td:
            tdp = Path(td)
            (tdp / "repro_native_layout.h").write_text(layout_header())
            src = tdp / "kernel.c"
            src.write_text(_KERNEL_SRC.read_text())
            tmp_so = tdp / "kernel.so"
            # NOTE: no -ffast-math — the timing model is IEEE doubles
            # and must match CPython bit for bit.
            cmd = [cc, "-O2", "-fPIC", "-shared",
                   "-o", str(tmp_so), str(src)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                detail = (proc.stderr or proc.stdout or "").strip()
                raise NativeBuildError(
                    f"kernel build failed ({' '.join(cmd)}):\n{detail}"
                )
            os.replace(str(tmp_so), str(so_path))
    lib = ctypes.CDLL(str(so_path))
    fn = lib.repro_run_span
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_void_p),
    ]
    fn.restype = ctypes.c_int64
    return lib


def kernel_available() -> Tuple[Optional[Callable], Optional[str]]:
    """``(entry_point, None)`` or ``(None, diagnostic)``, memoised."""
    global _BOUND
    if _BOUND is None:
        with _BUILD_LOCK:  # concurrent first jobs compile once
            if _BOUND is None:
                try:
                    lib = build_kernel()
                    _BOUND = (lib.repro_run_span, None)
                except NativeBuildError as exc:
                    _BOUND = (None, str(exc))
                except OSError as exc:  # dlopen failure etc.
                    _BOUND = (None, f"kernel load failed: {exc}")
    return _BOUND


def reset_build_cache() -> None:
    """Forget the memoised binding (tests monkeypatch around this)."""
    global _BOUND
    _BOUND = None


def call_span(fn: Callable, state: Any) -> int:
    """Invoke ``repro_run_span`` over a prepared :class:`NativeState`,
    one span per process at a time (module docstring)."""
    r_ptr = ctypes.cast(
        state.R.buffer_info()[0], ctypes.POINTER(ctypes.c_int64)
    )
    f_ptr = ctypes.cast(
        state.F.buffer_info()[0], ctypes.POINTER(ctypes.c_double)
    )
    bufs = (ctypes.c_void_p * len(marshal.BUFS))(*state.pointers())
    with _SPAN_LOCK:
        return int(fn(r_ptr, f_ptr, bufs))
