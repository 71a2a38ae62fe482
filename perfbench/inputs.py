"""Seed -> benchmark inputs.

The seed draws each workload's traces from per-family pools and draws
the multicore mix; the simulator only ever sees the generated traces.
Pools group catalog traces by access-pattern class, and every trace is
generated at the scale that gives the workload's target record count,
so two seeds load the same layers with the same amount of work and
differ only in which member of each class they simulate.  Each pool
holds only traces whose host cost in that workload lies within about
5 % of each other (measured on the commit that defined the benchmark),
so the seed changes the inputs without changing the figures much.  The
native graph pool holds only the Kronecker graphs: generating a 64k-
record trace from a uniform-random graph costs ~0.15 s less, about 9 %
of the native set-up time.  The classic-zoo SPEC pool leaves out
``mcf_s-782B``, which simulates ~8 % faster there than the others.

An input is a plain dict (JSON-serialisable, hashable as a reference
cache key):

* ``{"trace": name, "scale": s}`` -- a catalog trace;
* ``{"trace": "cactuBSSN_s-2421B", "scale": s, "num_ips": k}`` -- the
  many-IP generator with ``k`` interleaved instructions.

An op is one timed call: ``{"kind": "single", "trace": input, "l1d": ..,
"l2": ..}`` (``simulate``) or ``{"kind": "multicore", "traces": [..],
"l1d": ..}`` (``simulate_multicore``, one prefetcher per core).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: Default seed (LEDGER.json also records a held-out seed for claims).
DEFAULT_SEED = 1

#: Records per trace at scale 1.0 (catalog generators scale linearly).
UNIT_RECORDS = {
    "lbm_s-2676B": 12600,
    "bwaves_s-2609B": 12000,
    "fotonik3d_s-1176B": 12000,
    "wrf_s-6673B": 10400,
    "mcf_s-1554B": 10800,
    "mcf_s-782B": 12000,
    "mcf_s-1536B": 8400,
    "xalancbmk_s-700B": 7700,
    "gcc_s-1850B": 10000,
    "cactuBSSN_s-2421B": 20000,
}
_GAP_UNIT = 12000

#: Native workloads: one trace of each class per seed.
NATIVE_POOLS = {
    "streaming": ["bwaves_s-2609B", "fotonik3d_s-1176B", "wrf_s-6673B"],
    "irregular": ["mcf_s-1536B", "xalancbmk_s-700B"],
    "graph": ["bfs-kron", "sssp-kron"],
    "many-ip": [96, 128, 192, 256],  # cactuBSSN instruction counts
}
NATIVE_RECORDS = 64000
NATIVE_L1D = ("berti", "none")
#: The ``--heartbeat-every`` default ``repro suite --supervise`` passes
#: through ``run_job``.
SUPERVISED_EVERY = 5000

GAP_POOL = ["bfs-kron", "bfs-urand", "pr-kron", "pr-urand", "sssp-kron",
            "sssp-urand"]

#: classic-zoo: the ``repro compare`` default L1D set.
ZOO_SPEC_POOL = ["mcf_s-1554B", "xalancbmk_s-700B"]
ZOO_L1D = ("ip_stride", "mlop", "ipcp", "berti")
ZOO_RECORDS = 4000

#: campaign: seed-drawn traces x these prefetchers at this scale.
CAMPAIGN_SPEC_POOL = ["mcf_s-1554B", "gcc_s-1850B", "bwaves_s-2609B",
                      "fotonik3d_s-1176B", "wrf_s-6673B", "lbm_s-2676B",
                      "xalancbmk_s-700B"]
CAMPAIGN_SPEC = 3
CAMPAIGN_GAP = 3
CAMPAIGN_L1D = ("berti", "ipcp")
CAMPAIGN_SCALE = 0.25


def _unit(name: str) -> int:
    return UNIT_RECORDS.get(name, _GAP_UNIT)


def trace_input(name: str, records: int, **extra: Any) -> Dict[str, Any]:
    """A catalog trace generated at the scale giving ~``records``."""
    return {"trace": name, "scale": round(records / _unit(name), 4), **extra}


def native_ops(seed: int) -> List[Dict[str, Any]]:
    """Shared by ``native-direct`` and ``native-supervised``."""
    rng = random.Random(f"native:{seed}")
    traces = []
    for role, pool in NATIVE_POOLS.items():
        pick = rng.choice(pool)
        if role == "many-ip":
            traces.append(trace_input("cactuBSSN_s-2421B", NATIVE_RECORDS,
                                      num_ips=pick))
        else:
            traces.append(trace_input(pick, NATIVE_RECORDS))
    return [{"kind": "single", "trace": t, "l1d": pf, "l2": "none"}
            for t in traces for pf in NATIVE_L1D]


def zoo_ops(seed: int) -> List[Dict[str, Any]]:
    rng = random.Random(f"zoo:{seed}")
    spec = trace_input(rng.choice(ZOO_SPEC_POOL), ZOO_RECORDS)
    gap = trace_input(rng.choice(GAP_POOL), ZOO_RECORDS)
    ops = [{"kind": "single", "trace": t, "l1d": pf, "l2": "none"}
           for t in (spec, gap) for pf in ZOO_L1D]
    ops.append({"kind": "single", "trace": spec, "l1d": "berti",
                "l2": "spp_ppf"})
    # Half-length traces, so the 2-core op simulates as many records as
    # the single-core ones.
    mix = [trace_input(rng.choice(ZOO_SPEC_POOL), ZOO_RECORDS // 2),
           trace_input(rng.choice(GAP_POOL), ZOO_RECORDS // 2)]
    ops.append({"kind": "multicore", "traces": mix, "l1d": "berti"})
    return ops


def campaign_jobs(seed: int) -> List[Dict[str, Any]]:
    """Job dicts as ``repro submit`` sends them (before ``trace_path``)."""
    rng = random.Random(f"campaign:{seed}")
    names = rng.sample(CAMPAIGN_SPEC_POOL, CAMPAIGN_SPEC) + rng.sample(
        GAP_POOL, CAMPAIGN_GAP)
    return [{"trace": name, "l1d": pf, "l2": "none",
             "scale": CAMPAIGN_SCALE, "warmup_fraction": 0.2}
            for name in names for pf in CAMPAIGN_L1D]


def ops_for(workload: str, seed: int) -> List[Dict[str, Any]]:
    if workload in ("native-direct", "native-supervised"):
        return native_ops(seed)
    if workload == "classic-zoo":
        return zoo_ops(seed)
    raise ValueError(f"no simulate ops for workload {workload!r}")


def op_inputs(op: Dict[str, Any]) -> List[Dict[str, Any]]:
    return op["traces"] if op["kind"] == "multicore" else [op["trace"]]


def input_key(inp: Dict[str, Any]) -> str:
    extra = f"@ips={inp['num_ips']}" if "num_ips" in inp else ""
    return f"{inp['trace']}{extra}@{inp['scale']}"


def build_trace(inp: Dict[str, Any]):
    """Generate one input trace through the workload generators."""
    from repro.workloads import catalog, spec_like

    if "num_ips" in inp:
        return spec_like.cactuBSSN(inp["scale"], num_ips=inp["num_ips"])
    return catalog.resolve_trace(inp["trace"], inp["scale"])
