"""Record golden SimResult snapshots for the engine-refactor guard.

Run from the repo root::

    PYTHONPATH=src python tests/golden/record_golden.py

Writes ``tests/golden/simcore_golden.json``: the full ``SimResult``
dict for a small matrix of (trace × L1D prefetcher) runs.  The golden
file was recorded with the pre-refactor (PR 1) engine; the test
``tests/test_golden_stats.py`` asserts the current engine reproduces
every counter bit-for-bit, so hot-path optimisations cannot silently
change simulation semantics.

Regenerate only when a PR *intentionally* changes simulation results,
and say so in the PR description.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "simcore_golden.json"

#: (trace spec, scale); "synth:golden" is built inline below so the
#: golden run does not depend on any suite generator's RNG stream.
GOLDEN_TRACES = [
    ("synth:golden", 0.0),
    ("bfs-kron", 0.1),
    ("mcf_s-1554B", 0.1),
]
#: "berti_page" rides the same kernelized history/delta tables as
#: "berti" but keys them on the page, pinning the kernel path under a
#: second training-key distribution (denser per-entry delta sets).
GOLDEN_PREFETCHERS = ["none", "berti", "berti_page"]


def build_golden_trace(spec: str, scale: float):
    """Resolve one golden trace spec deterministically."""
    from repro.workloads.catalog import resolve_trace
    from repro.workloads.synthetic import pattern_stream, strided_stream
    from repro.workloads.trace import Trace, interleave

    if spec != "synth:golden":
        return resolve_trace(spec, scale)
    # A fixed, RNG-free mix: one constant stride, one repeating stride
    # pattern, one write-heavy stream — enough to exercise hits, misses,
    # writebacks, and Berti's delta learning.
    a = Trace("a")
    a.extend(strided_stream(0x100, 0x10000, 1, 1500, gap=6))
    b = Trace("b")
    b.extend(pattern_stream(0x200, 0x400000, [1, 3, 1, 3], 1500, gap=4))
    c = Trace("c")
    c.extend(strided_stream(0x300, 0x800000, 2, 1500, gap=8, is_write=True))
    out = interleave([a, b, c], "golden_synth", chunk=2)
    out.suite = "synthetic"
    return out


def run_golden_matrix(engine: str = "optimized"):
    """All golden runs as {key: SimResult-dict}.

    ``engine`` selects which engine executes the matrix: the optimised
    hot-path engine (what the test replays), the native C span kernel
    (``"native"``; its reporting-only ``native_*`` extra markers are
    dropped, and it demotes to the classic loop wherever its guards say
    so), or the pure-reference virtual-dispatch engine (what ``main()``
    records with).  All are required to be bit-identical, so the
    comparison in ``tests/test_golden_stats.py`` is differential by
    construction: reference-recorded numbers replayed on the optimised
    and native engines against the same golden JSON.
    """
    from dataclasses import replace
    from repro.prefetchers.registry import make_prefetcher
    from repro.sanitizer.reference import to_reference
    from repro.simulator.config import CacheConfig, default_config
    from repro.simulator.engine import simulate
    from repro.simulator.multicore import simulate_multicore

    post_build = to_reference if engine == "reference" else None
    sim_engine = "native" if engine == "native" else "classic"

    def as_dict(res):
        d = res.to_dict()
        d["extra"] = {k: v for k, v in d["extra"].items()
                      if not k.startswith("native")}
        return d

    results = {}
    for spec, scale in GOLDEN_TRACES:
        trace = build_golden_trace(spec, scale)
        for pf in GOLDEN_PREFETCHERS:
            res = simulate(trace, l1d_prefetcher=make_prefetcher(pf),
                           post_build=post_build, engine=sim_engine)
            results[f"{spec}@{scale}#{pf}"] = as_dict(res)

    # A non-default replacement config: SRRIP at the L1D exercises the
    # cache's RRPV fast paths under Berti (the default matrix only sees
    # LRU there).
    config = default_config()
    config = replace(
        config, l1d=replace(config.l1d, replacement="srrip")
    )
    trace = build_golden_trace("synth:golden", 0.0)
    res = simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                   config=config, post_build=post_build, engine=sim_engine)
    results["synth:golden@0.0#berti+l1d_srrip"] = as_dict(res)

    # One multicore mix: shared LLC/DRAM contention between a Berti core
    # and a prefetcher-less core.  (Multicore has no native path, so the
    # native replay runs the same loop here.)
    mix = [build_golden_trace("bfs-kron", 0.1),
           build_golden_trace("mcf_s-1554B", 0.1)]
    mc = simulate_multicore(
        mix,
        [make_prefetcher("berti"), make_prefetcher("none")],
        post_build=post_build,
    )
    results["mc:bfs-kron+mcf_s-1554B@0.1#berti,none"] = {
        f"core{i}": r.to_dict() for i, r in enumerate(mc)
    }
    return results


def main() -> int:
    results = run_golden_matrix(engine="reference")
    GOLDEN_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {GOLDEN_PATH} ({len(results)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
