"""Structured adversarial generators: traces and config vectors.

Every family targets a specific weakness class of delta-based prefetch
state machines (history ring wrap, delta-table FIFO thrash, page-crop
logic, warmup bookkeeping) rather than uniform random noise — uniform
noise exercises almost no interesting transitions per record, while a
page-boundary storm or an IP-aliasing flood drives the exact code the
Berti tables use to decide timeliness and coverage.

Generators are pure functions of a :class:`random.Random` instance:
the campaign derives one child seed per case, so the case list for a
given campaign seed is identical across runs, machines, and
``PYTHONHASHSEED`` values.

Config vectors are *adversarial but valid*: every emitted override
passes ``BertiConfig.__post_init__`` — the point is to stress the
engines on legal extremes (1-way tables, zero watermarks, chunk size 1
or a prime), not to test the validators (the corruption injector owns
invalid bytes).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.fuzz.cases import FuzzCase

__all__ = ["FAMILIES", "generate_case"]

LINE = 64
PAGE = 4096
PAGE_LINES = PAGE // LINE

Records = List[List[int]]


def _rows(entries) -> Records:
    return [[int(ip), int(addr), int(bool(w)), int(gap), int(dep)]
            for ip, addr, w, gap, dep in entries]


# ----------------------------------------------------------------------
# Trace families
# ----------------------------------------------------------------------


def _degenerate_stride(rng: random.Random) -> Tuple[Records, str, Dict]:
    """Stride 0 / ±1 line / huge / alternating-sign single-IP streams.

    Stride 0 keeps hitting one line (timeliness denominators near zero);
    alternating ±d cancels to no net motion but floods the delta table;
    a huge stride crosses a page on every access.
    """
    n = rng.randrange(96, 384)
    kind = rng.choice(["zero", "one", "minus", "huge", "alternate"])
    stride = {"zero": 0, "one": 1, "minus": -1,
              "huge": rng.choice([PAGE_LINES, 3 * PAGE_LINES + 1]),
              "alternate": rng.randrange(1, 8)}[kind]
    ip = 0x400000 + rng.randrange(16) * 4
    base = (1 + rng.randrange(64)) * PAGE
    gap = rng.choice([0, 1, 7])
    out = []
    line = base // LINE
    for i in range(n):
        out.append((ip, line * LINE, False, gap, 0))
        if kind == "alternate":
            line += stride if i % 2 == 0 else -stride
        else:
            line += stride
        line = max(line, 1)
    return _rows(out), f"stride:{kind}", {}


def _page_storm(rng: random.Random) -> Tuple[Records, str, Dict]:
    """Accesses hammering 4 KB page boundaries from both sides.

    Berti crops (or suppresses) prefetches that cross a page; lines
    ping-ponging across a boundary make every learned delta a crossing
    one, exercising the crop path and the ``cross_page`` ablation.
    """
    n = rng.randrange(128, 512)
    pages = [(2 + rng.randrange(256)) * PAGE
             for _ in range(rng.randrange(2, 6))]
    ip = 0x500000
    out = []
    for i in range(n):
        page = pages[i % len(pages)]
        # Last or first line of the page, alternating: every delta
        # between consecutive same-page accesses crosses the boundary.
        edge = page + (PAGE - LINE if i % 2 == 0 else 0)
        jitter = rng.randrange(2) * LINE
        out.append((ip, max(LINE, edge - jitter), False, 2, 0))
    return _rows(out), "page-storm", {}


def _ip_alias(rng: random.Random) -> Tuple[Records, str, Dict]:
    """More concurrent IPs than the history table has associativity.

    With ``history_sets=S``, IPs spaced ``S`` apart index the same set;
    a flood of K >> ways such IPs evicts each other's history before a
    search completes, so learned deltas come from torn windows.
    """
    n = rng.randrange(128, 512)
    sets = rng.choice([1, 2, 8])
    flood = rng.randrange(3, 24)
    ips = [0x600000 + (k * sets) * 4 for k in range(flood)]
    out = []
    lines = {ip: 0x100000 // LINE + k * 2048 for k, ip in enumerate(ips)}
    strides = {ip: rng.choice([1, 2, 3, -1]) for ip in ips}
    for i in range(n):
        ip = ips[i % flood]
        out.append((ip, lines[ip] * LINE, False, 1, 0))
        lines[ip] = max(1, lines[ip] + strides[ip])
    # Pin the geometry the IP spacing was computed against.
    return _rows(out), f"ip-alias:{flood}x{sets}", {"history_sets": sets}


def _warmup_edge(rng: random.Random) -> Tuple[Records, str, Dict]:
    """Tiny traces whose warmup boundary lands on degenerate indexes.

    One to a handful of records with warmup fractions of 0, near-1, or
    placing the boundary on the very first/last record — the off-by-one
    farm of the measurement bookkeeping.  A zero-record trace is the
    ``expect="reject"`` member: every engine must refuse it typed.
    """
    n = rng.choice([0, 1, 2, 3, 5, 8])
    ip = 0x700000
    out = [(ip, (0x200 + i * rng.choice([1, 2])) * LINE, i % 2 == 1,
            rng.randrange(3), 0)
           for i in range(n)]
    return _rows(out), f"warmup-edge:{n}", {}


def _zipf_interleave(rng: random.Random) -> Tuple[Records, str, Dict]:
    """Zipf-skewed multi-stream interleave: one hog, a long tail.

    Stream k gets ~1/(k+1) of the records; chunked round-robin delivery
    means the tail streams present Berti with long reuse distances and
    constantly-stale timestamps while the hog wraps the history ring.
    """
    n = rng.randrange(192, 512)
    k = rng.randrange(3, 8)
    weights = [1.0 / (i + 1) for i in range(k)]
    total = sum(weights)
    ips = [0x800000 + i * 4 for i in range(k)]
    lines = [0x40000 // LINE + i * 4096 for i in range(k)]
    strides = [rng.choice([1, 2, 5, -2]) for _ in range(k)]
    deps = [rng.choice([0, 0, 1]) for _ in range(k)]
    out = []
    while len(out) < n:
        r = rng.random() * total
        s = 0
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if r <= acc:
                s = i
                break
        burst = rng.randrange(1, 4)
        for _ in range(burst):
            out.append((ips[s], lines[s] * LINE, False, 1, deps[s]))
            lines[s] = max(1, lines[s] + strides[s])
    return _rows(out[:n]), f"zipf:{k}", {}


_TRACE_FAMILIES = {
    "degenerate-stride": _degenerate_stride,
    "page-storm": _page_storm,
    "ip-alias": _ip_alias,
    "warmup-edge": _warmup_edge,
    "zipf-interleave": _zipf_interleave,
}

FAMILIES = sorted(_TRACE_FAMILIES)


# ----------------------------------------------------------------------
# Config vectors
# ----------------------------------------------------------------------

_WATERMARKS = [
    None,              # paper defaults
    (0.0, 0.0),        # everything qualifies for L1D fill
    (1.0, 1.0),        # nothing ever reaches the high tier
    (1.0, 0.0),        # maximal spread: every delta lands mid-tier
]

_GEOMETRIES: List[Dict[str, int]] = [
    {},
    {"history_sets": 1, "history_ways": 1},            # single-entry history
    {"delta_table_entries": 1, "deltas_per_entry": 1}, # 1-delta learning
    {"counter_max": 1, "max_deltas_per_search": 1},    # instant phase flip
    {"pq_entries": 1, "mshr_entries": 1},              # queues always full
    {"l1d_lines": 1, "latency_bits": 1},               # latency field wraps
    {"max_prefetch_deltas": 1},
]

_CHUNKS = [0, 1, 17, 8192]       # default, minimal, prime, huge
_WARMUPS = [0.0, 0.2, 0.5, 0.9]


def _config_vector(rng: random.Random) -> Dict[str, Any]:
    config: Dict[str, Any] = {
        "l1d": rng.choice(["berti", "berti", "berti", "berti_page",
                           "next_line"]),
        "l2": rng.choice(["none", "none", "none", "vldp"]),
        "chunk_size": rng.choice(_CHUNKS),
        "warmup_fraction": rng.choice(_WARMUPS),
    }
    berti: Dict[str, Any] = dict(rng.choice(_GEOMETRIES))
    marks = rng.choice(_WATERMARKS)
    if marks is not None:
        berti["high_watermark"] = marks[0]
        berti["medium_watermark"] = marks[1]
        berti["low_watermark"] = marks[1]
    if rng.random() < 0.25:
        berti["cross_page"] = False
    if berti:
        config["berti"] = dict(sorted(berti.items()))
    if rng.random() < 0.15:
        # Native-backend edge: force the C kernel to demote to the
        # classic Python loop mid-run (0 = before the first span), so
        # the marshal round-trip is exercised at awkward boundaries.
        config["native_demote_at"] = rng.choice([0, 1, 7, 64])
    return config


# ----------------------------------------------------------------------


def generate_case(family: str, seed: int) -> FuzzCase:
    """Deterministically expand ``(family, seed)`` into a full case."""
    rng = random.Random(seed)
    records, detail, pinned = _TRACE_FAMILIES[family](rng)
    config = _config_vector(rng)
    if pinned:
        # Family-pinned Berti fields win over the random vector: the
        # trace's arithmetic (e.g. IP spacing) was computed against them.
        berti = dict(config.get("berti", {}))
        berti.update(pinned)
        config["berti"] = dict(sorted(berti.items()))
    if not records:
        config["expect"] = "reject"
    return FuzzCase(family=family, seed=seed, records=records,
                    config=config,
                    provenance=f"generated: {family} ({detail}) seed={seed}")
