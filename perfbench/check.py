"""Correctness: every timed result against a reference from another path.

* native workloads -- the classic engine on the same inputs;
* classic-zoo -- the sanitizer's reference engine
  (``post_build=to_reference``), which forces every component through
  its virtual-dispatch path;
* campaign -- an in-process ``run_job`` of the same job spec.

References are cached under ``perfbench/.work/refs``, keyed by a hash
of ``src/`` plus the op, so a code change recomputes them and repeated
seeds reuse them.  Every result also passes ``check_invariants``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import inputs

class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed operation)."""


#: ``SimResult.extra`` keys that legitimately differ between paths.
_PATH_MARKERS = ("native_",)


def strip(result: Dict[str, Any]) -> Dict[str, Any]:
    """A result dict without the engine-path markers in ``extra``."""
    out = dict(result)
    out["extra"] = {k: v for k, v in result.get("extra", {}).items()
                    if not k.startswith(_PATH_MARKERS)}
    return out


def digest(result: Dict[str, Any]) -> str:
    blob = json.dumps(strip(result), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def source_hash(src: Path) -> str:
    """Hash of every source file under ``src`` (bytecode excluded)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and path.suffix in (".py", ".c", ".h"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:20]


def op_key(path_name: str, op: Dict[str, Any]) -> str:
    blob = json.dumps({"path": path_name, "op": op}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def invariant_violations(results: List[Dict[str, Any]]) -> List[str]:
    from repro.runner.invariants import check_invariants
    from repro.simulator.stats import SimResult

    out: List[str] = []
    for res in results:
        out.extend(check_invariants(SimResult.from_dict(res)))
    return out


# ----------------------------------------------------------------------
# Reference paths
# ----------------------------------------------------------------------

def classic_reference(op: Dict[str, Any]) -> List[Dict[str, Any]]:
    from repro.prefetchers.registry import make_prefetcher
    from repro.simulator.engine import simulate

    res = simulate(inputs.build_trace(op["trace"]),
                   make_prefetcher(op["l1d"]), make_prefetcher(op["l2"]),
                   engine="classic")
    return [res.to_dict()]


def sanitizer_reference(op: Dict[str, Any]) -> List[Dict[str, Any]]:
    from repro.prefetchers.registry import make_prefetcher
    from repro.sanitizer.reference import to_reference
    from repro.simulator.engine import simulate
    from repro.simulator.multicore import simulate_multicore

    if op["kind"] == "multicore":
        traces = [inputs.build_trace(t) for t in op["traces"]]
        results = simulate_multicore(
            traces, [make_prefetcher(op["l1d"]) for _ in traces],
            post_build=to_reference)
        return [r.to_dict() for r in results]
    res = simulate(inputs.build_trace(op["trace"]),
                   make_prefetcher(op["l1d"]), make_prefetcher(op["l2"]),
                   post_build=to_reference)
    return [res.to_dict()]


def run_job_reference(job: Dict[str, Any]) -> List[Dict[str, Any]]:
    from repro.runner.jobs import JobSpec
    from repro.runner.worker import run_job

    return [run_job(JobSpec(**job)).to_dict()]


REFERENCES: Dict[str, Callable[[Dict[str, Any]], List[Dict[str, Any]]]] = {
    "classic": classic_reference,
    "sanitizer-reference": sanitizer_reference,
    "run_job": run_job_reference,
}


class ReferenceCache:
    """Reference digests on disk, computed on demand (after the timed
    work, in the benchmark's own process)."""

    def __init__(self, root: Path, src: Path) -> None:
        self.dir = root / source_hash(src)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _file(self, path_name: str, op: Dict[str, Any],
              key_op: Optional[Dict[str, Any]]) -> Path:
        return self.dir / f"{op_key(path_name, key_op or op)}.json"

    def digests(self, path_name: str, ops: List[Dict[str, Any]],
                key_ops: Optional[List[Dict[str, Any]]] = None
                ) -> List[List[str]]:
        """Reference digests per op (one per core for multicore ops).

        ``key_ops`` overrides what keys the cache (the campaign's job
        specs carry run-local store paths that must not enter the key).
        """
        key_ops = key_ops or [None] * len(ops)
        out = []
        for op, key_op in zip(ops, key_ops):
            f = self._file(path_name, op, key_op)
            if not f.exists():
                results = REFERENCES[path_name](op)
                tmp = f.with_suffix(f".tmp{os.getpid()}")
                tmp.write_text(json.dumps([digest(r) for r in results]))
                os.replace(tmp, f)
            out.append(json.loads(f.read_text()))
        return out
