"""SimSan: runtime invariant checking for the simulation core.

An opt-in instrumentation layer that validates deep structural
invariants of the simulated hardware *while the simulation runs*,
instead of trusting post-hoc statistics checks.  Attach it with
:func:`attach_sanitizer` (or the ``--sanitize`` CLI flag); it wraps
``Hierarchy.demand_access`` and, every ``check_every`` accesses, walks
the hierarchy's structures:

* **cache** — the per-way columns against their derived indexes
  (``_where`` ↔ tag/valid columns, ``_valid_count``), duplicate tags,
  prefetch metadata ranges, no prefetch bit on an invalid slot; and
  the dTLB/STLB columns against ``_map``, each page in its own set
  and once, with the LRU stamp rules of **replacement**;
* **replacement** — LRU clock uniqueness and bounds, SRRIP/DRRIP RRPV
  range, DRRIP PSEL range;
* **mshr** — occupancy bound, per-entry timestamp monotonicity
  (``alloc_cycle <= ready_cycle``), expired-entry leaks (an entry whose
  ``ready_cycle`` is at or before the last expire scan should have been
  released), and soundness of the ``_min_ready`` expire guard;
* **pq** — occupancy bound and FIFO service-time discipline;
* **berti** — delta-table tag-index consistency, coverage/counter
  bounds (``coverage <= counter <= counter_max - 1``), status validity,
  FIFO pointer ranges, and history-table ring discipline (ages strictly
  decreasing walking back from the insertion pointer) with
  hardware-width field bounds.

Checks are strictly **read-only**: they never call methods with lazy
side effects (MSHR/PQ expiry), so an instrumented run is bit-identical
to an uninstrumented one.  A violation raises a typed
:class:`~repro.errors.SanitizerError` carrying the index of the access
after which it was detected and a dump of the offending structure.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.delta_table import L2_PREF_REPL, NO_PREF, DeltaTable
from repro.core.history_table import HistoryTable
from repro.cpu.tlb import TLB
from repro.errors import SanitizerError
from repro.memory.cache import ORIGIN_L1D, ORIGIN_L2, ORIGIN_NONE, Cache
from repro.memory.hierarchy import Hierarchy, _FIFOQueue
from repro.memory.mshr import MSHR
from repro.memory.replacement import (
    DRRIPPolicy,
    LRUPolicy,
    SRRIPPolicy,
)
from repro.sanitizer.config import SanitizerConfig

#: (structure name, message, dump) — one detected violation.
Violation = Tuple[str, str, Dict[str, Any]]


# ----------------------------------------------------------------------
# Per-structure checkers (read-only, usable standalone in tests)
# ----------------------------------------------------------------------

def check_cache(cache: Cache) -> List[Violation]:
    """Consistency of one cache's columns and its derived indexes.

    An index a native span dropped is rebuilt from the columns first
    (:meth:`~repro.memory.cache.Cache.index`), so only the column
    checks apply to it.
    """
    out: List[Violation] = []
    name = cache.name
    ways = cache.ways
    mask = cache._set_mask
    tags, valid, where = cache.tags, cache.valid, cache.index()

    for line, slot in where.items():
        sidx = line & mask
        dump = {"cache": name, "line": line, "set": sidx, "slot": slot}
        if slot // ways != sidx:
            out.append((name, f"_where[{line:#x}] = slot {slot} is outside "
                        f"set {sidx}", dump))
        elif not valid[slot]:
            out.append((name, f"_where[{line:#x}] points at invalid "
                        f"slot {slot}", dump))
        elif tags[slot] != line:
            out.append((name, f"_where[{line:#x}] points at slot {slot} "
                        f"holding tag {tags[slot]:#x}",
                        {**dump, "found_tag": tags[slot]}))

    seen_tags: Dict[int, int] = {}
    counts = [0] * cache.num_sets
    for slot in compress(range(len(valid)), valid):
        counts[slot // ways] += 1
        tag = tags[slot]
        other = seen_tags.setdefault(tag, slot)
        if other != slot:
            out.append((name, f"duplicate tag {tag:#x} in slots {other} "
                        f"and {slot}", {"cache": name, "tag": tag}))
        elif where.get(tag) != slot:
            out.append((name, f"valid line {tag:#x} (slot {slot}) missing "
                        f"from _where",
                        {"cache": name, "slot": slot, "tag": tag}))
        origin = cache.origin[slot]
        if origin not in (ORIGIN_NONE, ORIGIN_L1D, ORIGIN_L2):
            out.append((name, f"line {tag:#x} has unknown origin code "
                        f"{origin}", {"cache": name, "tag": tag,
                                      "origin": origin}))
        if cache.pf_lat[slot] < 0:
            out.append((name, f"line {tag:#x} has negative pf_latency "
                        f"{cache.pf_lat[slot]}",
                        {"cache": name, "tag": tag,
                         "pf_latency": cache.pf_lat[slot]}))
    # Hierarchy.prefetched_line_counts reads the prefetch bit alone.
    for slot in compress(range(len(valid)), cache.pref):
        if not valid[slot]:
            out.append((name, f"slot {slot} has its prefetch bit set but "
                        f"holds no valid line",
                        {"cache": name, "set": slot // ways, "slot": slot}))

    for sidx, (count, claimed) in enumerate(zip(counts, cache._valid_count)):
        if count != claimed:
            out.append((name, f"set {sidx}: {count} valid ways but "
                        f"_valid_count = {claimed}",
                        {"cache": name, "set": sidx, "valid": count,
                         "valid_count": claimed}))
    return out


def check_tlb(tlb: TLB) -> List[Violation]:
    """Consistency of one TLB's columns and its ``_map`` index (rebuilt
    first if a native span dropped it); age 0 marks an empty way."""
    out: List[Violation] = []
    name, ways, num_sets = tlb.name, tlb.ways, tlb.num_sets
    vpages, age, tmap = tlb.vpages, tlb.policy._age, tlb.index()
    for vpage, slot in tmap.items():
        if not (0 <= slot < len(age) and age[slot]):
            out.append((name, f"_map[{vpage:#x}] points at empty slot "
                        f"{slot}", {"tlb": name, "vpage": vpage}))
        elif vpages[slot] != vpage:
            out.append((name, f"_map[{vpage:#x}] points at slot {slot} "
                        f"holding vpage {vpages[slot]:#x}",
                        {"tlb": name, "vpage": vpage, "slot": slot}))
    seen: Dict[int, int] = {}
    occupied = list(compress(range(len(age)), age))
    for slot in occupied:
        vpage = vpages[slot]
        dump = {"tlb": name, "slot": slot, "vpage": vpage}
        if vpage % num_sets != slot // ways:
            out.append((name, f"vpage {vpage:#x} in slot {slot} sits "
                        f"outside its set {vpage % num_sets}", dump))
        elif seen.setdefault(vpage, slot) != slot:
            out.append((name, f"vpage {vpage:#x} in slots {seen[vpage]} "
                        f"and {slot}", dump))
        elif tmap.get(vpage) != slot:
            out.append((name, f"vpage {vpage:#x} (slot {slot}) missing "
                        f"from _map", dump))
    out.extend(_check_lru(tlb.policy, occupied, f"{name}.policy",
                          {"tlb": name}))
    return out


def _check_lru(policy: LRUPolicy, slots, name: str,
               owner: Dict[str, Any]) -> List[Violation]:
    """LRU stamps of the occupied ``slots``: none ahead of its set's
    clock, none shared within a set."""
    out: List[Violation] = []
    ways = policy.num_ways
    seen: Dict[Tuple[int, int], int] = {}
    for slot in slots:
        sidx, way = divmod(slot, ways)
        age, clock = policy._age[slot], policy._clock[sidx]
        dump = {**owner, "set": sidx, "way": way, "age": age,
                "clock": clock}
        if age > clock:
            out.append((name, f"set {sidx} way {way}: LRU age "
                        f"{age} ahead of set clock {clock}", dump))
        other = seen.setdefault((sidx, age), way)
        if other != way:
            out.append((name, f"set {sidx}: LRU age {age} shared "
                        f"by ways {other} and {way} (clock "
                        f"uniqueness broken)", dump))
    return out


def check_replacement(cache: Cache) -> List[Violation]:
    """Replacement-metadata consistency for one cache's policy."""
    out: List[Violation] = []
    name = f"{cache.name}.policy"
    policy = cache.policy
    ways = cache.ways
    if isinstance(policy, LRUPolicy):
        out.extend(_check_lru(policy,
                              compress(range(len(cache.valid)), cache.valid),
                              name, {"cache": cache.name}))
    if isinstance(policy, SRRIPPolicy):
        max_rrpv = SRRIPPolicy.MAX_RRPV
        rrpvs = np.frombuffer(policy._rrpv, dtype=np.int64)
        for slot in np.flatnonzero((rrpvs < 0) | (rrpvs > max_rrpv)).tolist():
            sidx, way = divmod(slot, ways)
            rrpv = policy._rrpv[slot]
            out.append((name, f"set {sidx} way {way}: RRPV {rrpv} "
                        f"out of [0, {max_rrpv}]",
                        {"cache": cache.name, "set": sidx,
                         "way": way, "rrpv": rrpv}))
    if isinstance(policy, DRRIPPolicy):
        if not 0 <= policy._psel <= policy._psel_max:
            out.append((name, f"DRRIP PSEL {policy._psel} out of "
                        f"[0, {policy._psel_max}]",
                        {"cache": cache.name, "psel": policy._psel}))
    return out


def check_mshr(mshr: MSHR, name: str) -> List[Violation]:
    """Entry-leak, double-accounting, and timestamp checks for one MSHR."""
    out: List[Violation] = []
    entries = mshr._entries
    if len(entries) > mshr.size:
        out.append((name, f"{len(entries)} entries exceed capacity "
                    f"{mshr.size}",
                    {"mshr": name, "entries": len(entries),
                     "size": mshr.size}))
    last_expire = mshr._last_expire
    min_ready: Optional[int] = None
    for line, e in entries.items():
        dump = {"mshr": name, "line": line, "alloc": e.alloc_cycle,
                "ready": e.ready_cycle, "last_expire": last_expire}
        if e.line != line:
            out.append((name, f"entry keyed {line:#x} records line "
                        f"{e.line:#x}", {**dump, "entry_line": e.line}))
        if e.ready_cycle < e.alloc_cycle:
            out.append((name, f"entry {line:#x}: ready_cycle "
                        f"{e.ready_cycle} before alloc_cycle "
                        f"{e.alloc_cycle} (timestamp monotonicity)", dump))
        if e.ready_cycle <= last_expire:
            out.append((name, f"leaked entry {line:#x}: ready_cycle "
                        f"{e.ready_cycle} at or before the last expire "
                        f"scan ({last_expire})", dump))
        if e.merged_demands < 0:
            out.append((name, f"entry {line:#x}: negative merge count",
                        dump))
        if min_ready is None or e.ready_cycle < min_ready:
            min_ready = e.ready_cycle
    if min_ready is not None and mshr._min_ready > min_ready:
        # An overshooting guard would skip expiry scans that have work,
        # leaking entries and inflating occupancy — the exact corruption
        # the PR 2 fast path could introduce.
        out.append((name, f"_min_ready {mshr._min_ready} overshoots the "
                    f"earliest outstanding ready_cycle {min_ready} "
                    f"(expire guard unsound)",
                    {"mshr": name, "min_ready": mshr._min_ready,
                     "actual_min": min_ready}))
    return out


def check_pq(pq: _FIFOQueue, name: str = "pq") -> List[Violation]:
    """Occupancy bound and FIFO discipline of the prefetch queue."""
    out: List[Violation] = []
    st = pq._service_times
    if len(st) > pq.size:
        out.append((name, f"{len(st)} pending service times exceed "
                    f"capacity {pq.size}",
                    {"pq": name, "pending": len(st), "size": pq.size}))
    prev = None
    for i, t in enumerate(st):
        if prev is not None and t < prev:
            out.append((name, f"service times not FIFO: entry {i} "
                        f"({t}) earlier than entry {i - 1} ({prev})",
                        {"pq": name, "index": i, "time": t,
                         "previous": prev}))
            break
        prev = t
    return out


def check_delta_table(table: DeltaTable, name: str) -> List[Violation]:
    """Berti delta-table coverage/counter bounds and index consistency.

    Validates the kernel's columnar layout: entry columns, dense-prefix
    slot discipline, the ``_by_tag``/``by_delta`` mirrors, and — new with
    the kernelized table — that the dirty-bit–invalidated prediction
    caches agree with a from-scratch recomputation (a stale cache is
    exactly the corruption the memoisation could introduce).
    """
    out: List[Violation] = []
    cfg = table.config
    coverage_cap = (1 << cfg.coverage_bits) - 1
    n = len(table._valid)
    per_entry = cfg.deltas_per_entry
    if not 0 <= table._fifo_ptr < n:
        out.append((name, f"FIFO pointer {table._fifo_ptr} out of "
                    f"[0, {n})", {"table": name, "ptr": table._fifo_ptr}))
    for tag, e in table._by_tag.items():
        if not 0 <= e < n or not table._valid[e] or table._tags[e] != tag:
            out.append((name, f"_by_tag[{tag:#x}] points at "
                        f"{'invalid' if (0 <= e < n and not table._valid[e]) else 'mistagged'} "
                        f"entry {e}",
                        {"table": name, "tag": tag, "entry": e}))
    valid_entries = 0
    for e in range(n):
        if not table._valid[e]:
            continue
        valid_entries += 1
        tag = table._tags[e]
        counter = table._counters[e]
        count = table._slot_count[e]
        dump = {"table": name, "tag": tag, "counter": counter, "entry": e}
        if table._by_tag.get(tag) != e:
            out.append((name, f"valid entry {tag:#x} missing from "
                        f"_by_tag", dump))
        if not 0 <= counter < cfg.counter_max:
            out.append((name, f"entry {tag:#x}: search counter "
                        f"{counter} out of [0, {cfg.counter_max}) "
                        f"(phase close missed)", dump))
        if not 0 <= count <= per_entry:
            out.append((name, f"entry {tag:#x}: slot count {count} out "
                        f"of [0, {per_entry}]", dump))
            continue
        base = e * per_entry
        deltas = table._slot_delta
        covs = table._slot_cov
        statuses = table._slot_status
        by_delta = table._by_delta[e]
        for i in range(count):
            s = base + i
            sdump = {**dump, "slot": i, "delta": deltas[s],
                     "coverage": covs[s], "status": statuses[s]}
            if not 0 <= covs[s] <= coverage_cap:
                out.append((name, f"entry {tag:#x} slot {i}: "
                            f"coverage {covs[s]} out of "
                            f"[0, {coverage_cap}]", sdump))
            elif covs[s] > counter:
                out.append((name, f"entry {tag:#x} slot {i}: "
                            f"coverage {covs[s]} exceeds the "
                            f"phase's search counter {counter}", sdump))
            if not NO_PREF <= statuses[s] <= L2_PREF_REPL:
                out.append((name, f"entry {tag:#x} slot {i}: "
                            f"unknown status {statuses[s]}", sdump))
            if by_delta.get(deltas[s]) != s:
                out.append((name, f"entry {tag:#x} slot {i}: "
                            f"delta {deltas[s]} not mirrored in "
                            f"by_delta", sdump))
        if len(by_delta) != count:
            out.append((name, f"entry {tag:#x}: {count} valid "
                        f"slots but by_delta holds {len(by_delta)}",
                        {**dump, "valid_slots": count,
                         "by_delta": len(by_delta)}))
        # The lazy victim heap may hold stale pairs, but the *current*
        # pair of every replacement-candidate slot must be present —
        # a missing pair silently protects the slot from eviction.
        heap_pairs = set(table._evict_heap[e])
        for i in range(count):
            s = base + i
            st = statuses[s]
            if (st == NO_PREF or st == L2_PREF_REPL) and \
                    (covs[s], s) not in heap_pairs:
                out.append((name, f"entry {tag:#x} slot {i}: "
                            f"replacement candidate missing from the "
                            f"victim heap",
                            {**dump, "slot": i, "coverage": covs[s],
                             "status": st}))
        out.extend(_check_delta_caches(table, e, name, dump))
    if valid_entries != len(table._by_tag):
        out.append((name, f"{valid_entries} valid entries but _by_tag "
                    f"holds {len(table._by_tag)}",
                    {"table": name, "valid": valid_entries,
                     "by_tag": len(table._by_tag)}))
    return out


def _check_delta_caches(
    table: DeltaTable, e: int, name: str, dump: Dict[str, Any]
) -> List[Violation]:
    """A populated prediction cache must equal a fresh recomputation."""
    out: List[Violation] = []
    cfg = table.config
    base = e * cfg.deltas_per_entry
    slots = range(base, base + table._slot_count[e])
    deltas = table._slot_delta
    covs = table._slot_cov
    statuses = table._slot_status
    cached = table._pf_cache[e]
    if cached is not None:
        expected = [
            (deltas[i], statuses[i])
            for i in slots
            if statuses[i] != NO_PREF
        ]
        expected.sort(key=lambda ds: ds[1] != 1)  # L1D_PREF first
        expected = expected[: cfg.max_prefetch_deltas]
        if not table._warmed[e]:
            out.append((name, f"entry {dump['tag']:#x}: pf_cache "
                        f"populated before the first phase completed",
                        dump))
        elif cached != expected:
            out.append((name, f"entry {dump['tag']:#x}: stale pf_cache "
                        f"(dirty-bit invalidation missed)",
                        {**dump, "cached": list(cached),
                         "expected": expected}))
    warm = table._warm_cache[e]
    if warm is not None:
        counter = table._counters[e]
        if table._warmed[e] or counter < cfg.warmup_min_searches:
            out.append((name, f"entry {dump['tag']:#x}: warm_cache "
                        f"populated outside the warmup window", dump))
        else:
            threshold = cfg.warmup_watermark * counter
            expected = [
                (deltas[i], 1)  # L1D_PREF
                for i in slots
                if covs[i] >= threshold
            ][: cfg.max_prefetch_deltas]
            if warm != expected:
                out.append((name, f"entry {dump['tag']:#x}: stale "
                            f"warm_cache (counter invalidation missed)",
                            {**dump, "cached": list(warm),
                             "expected": expected}))
    return out


def check_reference_delta_table(table: Any, name: str) -> List[Violation]:
    """The original object-per-slot layout (reference engine only)."""
    out: List[Violation] = []
    cfg = table.config
    coverage_cap = (1 << cfg.coverage_bits) - 1
    n = len(table._entries)
    if not 0 <= table._fifo_ptr < n:
        out.append((name, f"FIFO pointer {table._fifo_ptr} out of "
                    f"[0, {n})", {"table": name, "ptr": table._fifo_ptr}))
    for tag, entry in table._by_tag.items():
        if not entry.valid or entry.tag != tag:
            out.append((name, f"_by_tag[{tag:#x}] points at "
                        f"{'invalid' if not entry.valid else 'mistagged'} "
                        f"entry (tag {entry.tag:#x})",
                        {"table": name, "tag": tag,
                         "entry_tag": entry.tag, "valid": entry.valid}))
    valid_entries = 0
    for entry in table._entries:
        if not entry.valid:
            continue
        valid_entries += 1
        dump = {"table": name, "tag": entry.tag, "counter": entry.counter}
        if table._by_tag.get(entry.tag) is not entry:
            out.append((name, f"valid entry {entry.tag:#x} missing from "
                        f"_by_tag", dump))
        if not 0 <= entry.counter < cfg.counter_max:
            out.append((name, f"entry {entry.tag:#x}: search counter "
                        f"{entry.counter} out of [0, {cfg.counter_max}) "
                        f"(phase close missed)", dump))
        valid_slots = 0
        for i, slot in enumerate(entry.slots):
            if not slot.valid:
                continue
            valid_slots += 1
            sdump = {**dump, "slot": i, "delta": slot.delta,
                     "coverage": slot.coverage, "status": slot.status}
            if not 0 <= slot.coverage <= coverage_cap:
                out.append((name, f"entry {entry.tag:#x} slot {i}: "
                            f"coverage {slot.coverage} out of "
                            f"[0, {coverage_cap}]", sdump))
            elif slot.coverage > entry.counter:
                out.append((name, f"entry {entry.tag:#x} slot {i}: "
                            f"coverage {slot.coverage} exceeds the "
                            f"phase's search counter {entry.counter}",
                            sdump))
            if not NO_PREF <= slot.status <= L2_PREF_REPL:
                out.append((name, f"entry {entry.tag:#x} slot {i}: "
                            f"unknown status {slot.status}", sdump))
            if entry.by_delta.get(slot.delta) is not slot:
                out.append((name, f"entry {entry.tag:#x} slot {i}: "
                            f"delta {slot.delta} not mirrored in "
                            f"by_delta", sdump))
        if len(entry.by_delta) != valid_slots:
            out.append((name, f"entry {entry.tag:#x}: {valid_slots} valid "
                        f"slots but by_delta holds {len(entry.by_delta)}",
                        {**dump, "valid_slots": valid_slots,
                         "by_delta": len(entry.by_delta)}))
    if valid_entries != len(table._by_tag):
        out.append((name, f"{valid_entries} valid entries but _by_tag "
                    f"holds {len(table._by_tag)}",
                    {"table": name, "valid": valid_entries,
                     "by_tag": len(table._by_tag)}))
    return out


def check_history_table(table: HistoryTable, name: str) -> List[Violation]:
    """Berti history-table FIFO-ring discipline and field widths.

    Validates the kernel's flat columnar rings, including the IP-tag
    skip masks: every mask bit must point at a way holding that tag and
    every occupied way must be covered by exactly its tag's mask.
    """
    out: List[Violation] = []
    cfg = table.config
    ways = cfg.history_ways
    tags = table._tags
    for sidx in range(cfg.history_sets):
        base = sidx * ways
        ptr = table._fifo_ptr[sidx]
        clock = table._fifo_clock[sidx]
        if not 0 <= ptr < ways:
            out.append((name, f"set {sidx}: FIFO pointer {ptr} out of "
                        f"[0, {ways})", {"table": name, "set": sidx,
                                         "ptr": ptr}))
            continue
        prev_order = None
        gap_seen = False
        max_order = 0
        for i in range(1, ways + 1):
            way = (ptr - i) % ways
            idx = base + way
            if tags[idx] < 0:
                gap_seen = True
                continue
            order = table._orders[idx]
            dump = {"table": name, "set": sidx, "way": way, "order": order}
            if gap_seen:
                # The ring fills contiguously from the pointer; a way
                # *older* than an empty way means the FIFO order broke.
                out.append((name, f"set {sidx}: occupied way behind an "
                            f"empty way (ring discipline broken)", dump))
                break
            if prev_order is not None and order >= prev_order:
                out.append((name, f"set {sidx}: insertion order not "
                            f"strictly decreasing walking back from the "
                            f"pointer ({order} after {prev_order})",
                            {**dump, "previous": prev_order}))
                break
            prev_order = order
            max_order = max(max_order, order)
            if tags[idx] > table._tag_mask:
                out.append((name, f"set {sidx}: ip_tag {tags[idx]:#x} "
                            f"wider than the hardware field", dump))
            if table._lines[idx] > table._line_mask or table._lines[idx] < 0:
                out.append((name, f"set {sidx}: line "
                            f"{table._lines[idx]:#x} wider than the "
                            f"hardware field", dump))
            if table._tss[idx] > table._ts_mask or table._tss[idx] < 0:
                out.append((name, f"set {sidx}: timestamp "
                            f"{table._tss[idx]} wider than the hardware "
                            f"field", dump))
        if max_order > clock:
            out.append((name, f"set {sidx}: newest order {max_order} "
                        f"ahead of the set clock {clock}",
                        {"table": name, "set": sidx,
                         "max_order": max_order, "clock": clock}))
        # Skip-chain ↔ ring consistency: the chains are pure acceleration
        # state, so any drift silently changes search results.  Expected:
        # for each tag, the (line, ts) pairs of its ways, oldest first.
        chains = table._chains[sidx]
        expected: Dict[int, List] = {}
        for i in range(ways, 0, -1):  # oldest way first
            idx = base + (ptr - i) % ways
            t = tags[idx]
            if t >= 0:
                expected.setdefault(t, []).append(
                    (table._lines[idx], table._tss[idx])
                )
        actual = {t: list(dq) for t, dq in chains.items()}
        if actual != expected:
            out.append((name, f"set {sidx}: IP-tag skip chains disagree "
                        f"with the ring contents",
                        {"table": name, "set": sidx,
                         "chains": actual, "expected": expected}))
    return out


def check_reference_history_table(table: Any, name: str) -> List[Violation]:
    """The original tuple-row layout (reference engine only)."""
    out: List[Violation] = []
    ways = table.config.history_ways
    for sidx, rows in enumerate(table._sets):
        ptr = table._fifo_ptr[sidx]
        clock = table._fifo_clock[sidx]
        if not 0 <= ptr < ways:
            out.append((name, f"set {sidx}: FIFO pointer {ptr} out of "
                        f"[0, {ways})", {"table": name, "set": sidx,
                                         "ptr": ptr}))
            continue
        prev_order = None
        gap_seen = False
        max_order = 0
        for i in range(1, ways + 1):
            row = rows[(ptr - i) % ways]
            if row is None:
                gap_seen = True
                continue
            ip_tag, line, ts, order = row
            dump = {"table": name, "set": sidx, "row": (ptr - i) % ways,
                    "order": order}
            if gap_seen:
                out.append((name, f"set {sidx}: occupied way behind an "
                            f"empty way (ring discipline broken)", dump))
                break
            if prev_order is not None and order >= prev_order:
                out.append((name, f"set {sidx}: insertion order not "
                            f"strictly decreasing walking back from the "
                            f"pointer ({order} after {prev_order})",
                            {**dump, "previous": prev_order}))
                break
            prev_order = order
            max_order = max(max_order, order)
            if ip_tag > table._tag_mask or ip_tag < 0:
                out.append((name, f"set {sidx}: ip_tag {ip_tag:#x} wider "
                            f"than the hardware field", dump))
            if line > table._line_mask or line < 0:
                out.append((name, f"set {sidx}: line {line:#x} wider "
                            f"than the hardware field", dump))
            if ts > table._ts_mask or ts < 0:
                out.append((name, f"set {sidx}: timestamp {ts} wider "
                            f"than the hardware field", dump))
        if max_order > clock:
            out.append((name, f"set {sidx}: newest order {max_order} "
                        f"ahead of the set clock {clock}",
                        {"table": name, "set": sidx,
                         "max_order": max_order, "clock": clock}))
    return out


def check_berti(pf: Any, name: str) -> List[Violation]:
    """Berti-table checks for any prefetcher exposing history/deltas.

    Dispatches on the concrete table class: the kernel layouts get the
    columnar checkers (including cache-consistency), the reference
    engine's object layouts get the original checkers.
    """
    from repro.core.reference_tables import (
        ReferenceDeltaTable,
        ReferenceHistoryTable,
    )

    out: List[Violation] = []
    deltas = getattr(pf, "deltas", None)
    history = getattr(pf, "history", None)
    if isinstance(deltas, DeltaTable):
        out.extend(check_delta_table(deltas, f"{name}.deltas"))
    elif isinstance(deltas, ReferenceDeltaTable):
        out.extend(check_reference_delta_table(deltas, f"{name}.deltas"))
    if isinstance(history, HistoryTable):
        out.extend(check_history_table(history, f"{name}.history"))
    elif isinstance(history, ReferenceHistoryTable):
        out.extend(check_reference_history_table(
            history, f"{name}.history"))
    return out


def check_hierarchy(
    hierarchy: Hierarchy,
    families: Optional[frozenset] = None,
) -> List[Violation]:
    """Run every enabled invariant family over one hierarchy."""
    fams = families if families is not None else frozenset(
        {"cache", "replacement", "mshr", "pq", "berti"}
    )
    out: List[Violation] = []
    caches = (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
    if "cache" in fams:
        for cache in caches:
            out.extend(check_cache(cache))
        out.extend(check_tlb(hierarchy.mmu.dtlb))
        out.extend(check_tlb(hierarchy.mmu.stlb))
    if "replacement" in fams:
        for cache in caches:
            out.extend(check_replacement(cache))
    if "mshr" in fams:
        for mshr, mname in (
            (hierarchy.l1d_mshr, "l1d_mshr"),
            (hierarchy.l2_mshr, "l2_mshr"),
            (hierarchy.llc_mshr, "llc_mshr"),
        ):
            out.extend(check_mshr(mshr, mname))
    if "pq" in fams:
        out.extend(check_pq(hierarchy.pq))
    if "berti" in fams:
        out.extend(check_berti(hierarchy.l1d_prefetcher, "l1d_prefetcher"))
        out.extend(check_berti(hierarchy.l2_prefetcher, "l2_prefetcher"))
    return out


# ----------------------------------------------------------------------
# The attachable sanitizer
# ----------------------------------------------------------------------

class Sanitizer:
    """Wraps a hierarchy's demand path with periodic invariant checks.

    The wrapper is installed as an *instance* attribute shadowing
    ``Hierarchy.demand_access``, so the engine's hoisted callback (and
    the multicore loop's per-record attribute lookup) both route through
    it without any change to the hot path of uninstrumented runs.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        config: Optional[SanitizerConfig] = None,
        trace: Optional[str] = None,
        start_index: int = 0,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config or SanitizerConfig()
        self.trace = trace
        self.access_index = start_index
        self.checks_run = 0
        self._countdown = self.config.check_every
        self._inner = hierarchy.demand_access

    def install(self) -> "Sanitizer":
        self.hierarchy.demand_access = self._wrapped  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        self.hierarchy.__dict__.pop("demand_access", None)

    def _wrapped(self, ip: int, vaddr: int, now: int,
                 is_write: bool = False) -> int:
        latency = self._inner(ip, vaddr, now, is_write)
        self.access_index += 1
        self._countdown -= 1
        if self._countdown == 0:
            self._countdown = self.config.check_every
            self.check_now()
        return latency

    def check_now(self) -> None:
        """Validate all enabled families; raise on the first violation."""
        self.checks_run += 1
        violations = check_hierarchy(self.hierarchy, self.config.families)
        if not violations:
            return
        structure, message, dump = violations[0]
        if len(violations) > 1:
            message += f" (+{len(violations) - 1} more violations)"
        raise SanitizerError(
            message,
            trace=self.trace,
            prefetcher=self.hierarchy.l1d_prefetcher.name,
            access_index=self.access_index,
            structure=structure,
            dump=dump if self.config.dump_structures else {},
        )


def attach_sanitizer(
    hierarchy: Hierarchy,
    config: Optional[SanitizerConfig] = None,
    trace: Optional[str] = None,
    start_index: int = 0,
) -> Sanitizer:
    """Install a :class:`Sanitizer` on ``hierarchy``; returns it."""
    return Sanitizer(hierarchy, config, trace, start_index).install()
