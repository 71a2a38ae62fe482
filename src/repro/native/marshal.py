"""State marshalling between the Python simulator objects and the C kernel.

The native backend runs one *span* at a time: :class:`NativeState`
exports the full mutable simulation state into flat ``int64``/``double``
buffers, the C kernel executes the span over those buffers, and the
state is imported back into the very same Python objects before the
span runner returns.  Python therefore remains the source of truth at
every span boundary — snapshots, warmup resets, lockstep digests and
engine switches (demotion) all operate on ordinary hierarchy objects
and never need to know a C kernel ran the span.

Layout contract
---------------

``REGISTERS`` (int64 scalars), ``FREGS`` (double scalars) and ``BUFS``
(buffer pointers) are the *single* authoritative layout definition:
:mod:`repro.native.build` generates a C header mapping each name to its
index (``R_<NAME>``, ``FR_<NAME>``, ``B_<NAME>``), so Python and C can
never disagree on an offset — adding a field here re-keys the kernel
hash and forces a rebuild.

Three marshalling classes of state:

* **zero-copy** — the trace columns and the Berti history-table rings
  (``array('q')`` columns) are passed by pointer and mutated in place;
* **span-delta counters** — the pure counters the classic
  :class:`~repro.memory.hierarchy.Hierarchy` methods bump accumulate in
  registers zeroed at span start and added back on success only (a
  crashed span discards them; a crashed run's statistics are discarded
  anyway);
* **absolute counters and structures** — everything else round-trips
  by value: exported at span start, imported unconditionally at span
  end (even on error: like the classic loop, the kernel mutates
  structures in place before it fails).

Dict-shaped indexes (``Cache._where``, ``MSHR._entries``, TLB ``_map``,
history ``_chains``, delta-table ``_by_delta``/``_by_tag``) are rebuilt
from the flat columns at import time; their *insertion order* differs
from the classic engine's, which is why those classes canonicalise dict
order in ``__getstate__`` — snapshot bytes stay backend-independent.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Dict, List, Tuple

from repro.cpu.core_model import CoreModel
from repro.memory.cache import Cache, CacheLine
from repro.memory.hierarchy import LATENCY_FIELD_BITS, Hierarchy
from repro.memory.mshr import MSHREntry
from repro.memory.replacement import DRRIPPolicy, LRUPolicy, SRRIPPolicy

try:  # numpy is a declared dependency, but the fallback keeps us honest
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatching
    _np = None

__all__ = ["REGISTERS", "FREGS", "BUFS", "NativeState", "layout_digest"]

# Replacement-policy kinds understood by the kernel.
POL_LRU = 0
POL_SRRIP = 1
POL_DRRIP = 2

# CacheLine.pf_origin encoding.
ORIGINS = ("", "l1d", "l2")
_ORIGIN_CODE = {"": 0, "l1d": 1, "l2": 2}

_CACHE_PREFIXES = ("L1", "L2", "LL")
_MSHR_PREFIXES = ("M1", "M2")
_TLB_PREFIXES = ("DT", "ST")


def _cache_regs(p: str) -> Tuple[str, ...]:
    return (
        f"{p}_SETS", f"{p}_WAYS", f"{p}_LAT", f"{p}_POL", f"{p}_PSEL",
        f"{p}_PF_FILLS", f"{p}_DEM_FILLS", f"{p}_USELESS", f"{p}_WB",
    )


def _mshr_regs(p: str) -> Tuple[str, ...]:
    return (
        f"{p}_SIZE", f"{p}_COUNT", f"{p}_MINREADY", f"{p}_LASTEXP",
        f"{p}_ALLOCS", f"{p}_FULLREJ",
    )


def _tlb_regs(p: str) -> Tuple[str, ...]:
    return (f"{p}_NSETS", f"{p}_WAYS")


#: Span-delta counters: the demand path's pure counters, flushed
#: additively in this order.  Zeroed at span start; added on success
#: only.
DELTA_REGS = (
    "D_DT_ACC", "D_DT_HIT",
    "D_L1_ACC", "D_L1_HIT", "D_L1_MISS", "D_L1_USEFUL", "D_L1_LATE",
    "D_L2_ACC", "D_L2_HIT", "D_L2_MISS", "D_L2_USEFUL",
    "D_LLC_ACC", "D_LLC_HIT", "D_LLC_MISS", "D_LLC_USEFUL",
    "D_H_LLC_ACC", "D_H_LLC_MISS", "D_H_DRAM",
    "D_T12_DEM", "D_T12_PF", "D_T2L_DEM", "D_T2L_PF",
    "D_TLD_DEM", "D_TLD_PF",
    "D_PF_SUGG", "D_PF_ISSUED", "D_PF_FILLS",
    "D_PF_USEFUL", "D_PF_LATE", "D_PF_PROMOTED",
    "D_PF_DTRANS", "D_PF_DDUP", "D_PF_DQ", "D_PF_DM",
    "D_PF2_USEFUL", "D_PF2_LATE", "D_PF2_PROMOTED",
    "D_STLB_PROBES", "D_STLB_HITS",
    "D_M1_MERGES", "D_M2_MERGES",
    "D_CROSS",
)

REGISTERS: Tuple[str, ...] = (
    # Span arguments and error channel.
    "LO", "HI", "KERNEL",
    "ERR", "ERR_A", "ERR_B", "ERR_C", "ERR_D",
    # Caches.
    *(_cache_regs(p)[i] for p in _CACHE_PREFIXES
      for i in range(len(_cache_regs(p)))),
    # MSHRs.
    *(_mshr_regs(p)[i] for p in _MSHR_PREFIXES
      for i in range(len(_mshr_regs(p)))),
    # TLBs + translation.
    *(_tlb_regs(p)[i] for p in _TLB_PREFIXES
      for i in range(len(_tlb_regs(p)))),
    "DT_LAT", "MISS_TRANS_LAT", "WALK_LAT",
    "DT_PPROBES", "DT_PPROBE_HITS", "ST_ACC", "ST_HITS",
    # MMU.
    "MMU_NEXT_PPAGE", "MMU_WALKS", "MMU_DROPPED",
    "HASH_CAP", "WALKLOG_LEN",
    # DRAM.
    "DR_BANKS", "DR_LPR", "DR_TRP", "DR_TRCD", "DR_TCAS",
    "DR_WQ_SIZE", "DR_PENDW_LEN",
    "DR_READS", "DR_WRITES", "DR_ROWH", "DR_ROWM", "DR_ROWC",
    "DR_LAT_TOTAL",
    # Core model.
    "C_INSTR", "ROB_SIZE", "ISSUE_WIDTH", "RETIRE_WIDTH",
    "DEP_WINDOW", "WIN_LEN", "LOADS_LEN", "LOADS_POS", "WIN_CAP",
    # PQ.
    "PQ_SIZE", "PQ_LEN",
    # Dual-channel pf_stats["l2"] useful/late (see module docstring) and
    # the absolute counters bumped by fills/evictions/writebacks.
    "CREDIT2_USEFUL", "CREDIT2_LATE",
    "PF1_USELESS", "PF2_USELESS",
    "T12_WB", "T2L_WB", "TLD_WB",
    # Berti history table.
    "H_SETS", "H_WAYS", "H_INSERTS", "H_SEARCHES",
    "TS_MASK", "LINE_MASK", "HTAG_MASK",
    # Berti delta table + config.
    "E_COUNT", "E_PER", "COUNTER_MAX", "MAX_DSEARCH", "MAX_PF_DELTAS",
    "LAT_MASK", "COV_CAP", "DTAG_MASK", "WARM_MIN", "CROSS_OK",
    "DELTA_LO", "DELTA_HI",
    "HEAP_CAP", "DT_FIFO_CLOCK", "DT_FIFO_PTR",
    "DT_PHASES", "DT_DISCARDED",
    *DELTA_REGS,
)

FREGS: Tuple[str, ...] = (
    "F_FRONTEND", "F_RETIRE", "F_ROB_HEAD",
    "F_ISSUE_INCR", "F_RETIRE_INCR", "F_ISSUE_W", "F_RETIRE_W",
    "F_BUSFREE", "F_BURST", "F_WQ_THRESH",
    "F_PERIOD", "F_WATERMARK",
    "F_HIGH", "F_MEDIUM", "F_REPL", "F_WARM_WM",
)

_CACHE_BUF_FIELDS = (
    "TAG", "VALID", "DIRTY", "PREF", "ARR", "PFLAT", "IP", "VLINE",
    "ORG", "MAT", "POLC", "POLA", "MT",
)
_MSHR_BUF_FIELDS = ("LINE", "ALLOC", "READY", "ISPF", "IP", "VLINE", "MERGED")
_TLB_BUF_FIELDS = ("VP", "PP", "LEN")

BUFS: Tuple[str, ...] = (
    "T_IPS", "T_ADDRS", "T_WRITES", "T_GAPS", "T_DEPS",
    "T_VLINES", "T_VPAGES",
    *(f"{p}_{f}" for p in _CACHE_PREFIXES for f in _CACHE_BUF_FIELDS),
    *(f"{p}_{f}" for p in _MSHR_PREFIXES for f in _MSHR_BUF_FIELDS),
    *(f"{p}_{f}" for p in _TLB_PREFIXES for f in _TLB_BUF_FIELDS),
    "HASH_K", "HASH_V", "WALK_VP", "WALK_PP",
    "BANK_ROW", "BANK_BUSY", "PENDW",
    "WIN_K", "WIN_RET", "LOADS",
    "PQ_ST",
    "H_TAGS", "H_LINES", "H_TSS", "H_ORDERS", "H_CLOCK", "H_PTR",
    "E_VALID", "E_TAG", "E_CTR", "E_ORDER", "E_WARMED", "E_SCOUNT",
    "S_DELTA", "S_COV", "S_STATUS", "HEAP", "HEAP_LEN",
    "SCRATCH",
)

RIX: Dict[str, int] = {name: i for i, name in enumerate(REGISTERS)}
FIX: Dict[str, int] = {name: i for i, name in enumerate(FREGS)}
BIX: Dict[str, int] = {name: i for i, name in enumerate(BUFS)}


def layout_digest() -> str:
    """A short hash of the layout, folded into the kernel cache key."""
    import hashlib

    blob = "|".join(REGISTERS) + "#" + "|".join(FREGS) + "#" + "|".join(BUFS)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def decoded_columns(trace) -> Tuple[Any, Any]:
    """addr→(vline, vpage) derived columns for the whole trace.

    Delegates to :meth:`repro.workloads.trace.Trace.decoded_columns`
    (numpy-vectorized, cached on the trace), so every span of every run
    over the trace shares one decode by pointer.
    """
    return trace.decoded_columns()


def _ptr_of(buf: Any) -> int:
    """Raw data pointer of an array('q'/'d') or numpy array (0 if empty)."""
    if buf is None:
        return 0
    if _np is not None and isinstance(buf, _np.ndarray):
        return buf.ctypes.data if buf.size else 0
    return buf.buffer_info()[0] if len(buf) else 0


class NativeState:
    """Owns the flat buffers for one (trace, hierarchy, core) binding."""

    def __init__(self, trace, hierarchy: Hierarchy, core: CoreModel) -> None:
        self.h = hierarchy
        self.core = core
        self.trace = trace
        self.R = array("q", bytes(8 * len(REGISTERS)))
        self.F = array("d", bytes(8 * len(FREGS)))
        # Buffer objects by name; pointers are refreshed per span (the
        # history arrays are rebound by HistoryTable.reset()).
        self.bufs: Dict[str, Any] = {name: None for name in BUFS}
        self._kern = None
        self._win_cap = 0
        # Cache-array sync protocol: Python-side cache objects and the
        # flat set arrays stay pointwise equal between spans, so export
        # only rewrites them after mark_stale() (first span, or a
        # demoted span mutated the Python objects behind our back), and
        # import only reads sets the kernel flagged touched (mat == 2).
        self._cache_stale = True

        ips, addrs, writes, gaps, deps = trace.columns()
        vlines, vpages = decoded_columns(trace)
        b = self.bufs
        b["T_IPS"], b["T_ADDRS"], b["T_WRITES"] = ips, addrs, writes
        b["T_GAPS"], b["T_DEPS"] = gaps, deps
        b["T_VLINES"], b["T_VPAGES"] = vlines, vpages

        assert LATENCY_FIELD_BITS == 12, "kernel hardcodes the latency field"

        self._alloc_static()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _alloc_static(self) -> None:
        h, b = self.h, self.bufs
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            n = cache.num_sets * cache.ways
            for f in ("TAG", "VALID", "DIRTY", "PREF", "ARR", "PFLAT",
                      "IP", "VLINE", "ORG", "POLA"):
                b[f"{p}_{f}"] = array("q", bytes(8 * n))
            b[f"{p}_MAT"] = array("q", bytes(8 * cache.num_sets))
            b[f"{p}_POLC"] = array("q", bytes(8 * cache.num_sets))
            if type(cache.policy) is DRRIPPolicy:
                b[f"{p}_MT"] = array("q", bytes(8 * 625))
        for p, mshr in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            for f in _MSHR_BUF_FIELDS:
                b[f"{p}_{f}"] = array("q", bytes(8 * max(1, mshr.size)))
        for p, tlb in zip(_TLB_PREFIXES, (h.mmu.dtlb, h.mmu.stlb)):
            row = tlb.ways + 1  # insert transiently exceeds ways
            n = tlb.num_sets * row
            b[f"{p}_VP"] = array("q", bytes(8 * n))
            b[f"{p}_PP"] = array("q", bytes(8 * n))
            b[f"{p}_LEN"] = array("q", bytes(8 * tlb.num_sets))
        cfg = h.dram.config
        b["BANK_ROW"] = array("q", bytes(8 * cfg.banks))
        b["BANK_BUSY"] = array("q", bytes(8 * cfg.banks))
        b["PENDW"] = array("q", bytes(8 * (cfg.write_queue + 2)))
        b["LOADS"] = array("d", bytes(8 * self.core.config.dependency_window))
        b["PQ_ST"] = array("d", bytes(8 * max(1, h.pq.size)))

        kern = h._l1d_kernel
        self._kern = kern
        if kern is not None:
            kcfg = kern.config
            e = kcfg.delta_table_entries
            per = kcfg.deltas_per_entry
            for f in ("E_VALID", "E_TAG", "E_CTR", "E_ORDER", "E_WARMED",
                      "E_SCOUNT", "HEAP_LEN"):
                b[f] = array("q", bytes(8 * e))
            for f in ("S_DELTA", "S_COV", "S_STATUS"):
                b[f] = array("q", bytes(8 * e * per))
            b["SCRATCH"] = array("q", bytes(8 * max(1, kcfg.max_deltas_per_search)))
            # Between phase closes an entry's heap gains at most
            # counter_max * max_deltas_per_search pairs on top of what a
            # close leaves (<= per_entry); sized per span in begin_span.
            self._heap_slack = (kcfg.counter_max * kcfg.max_deltas_per_search
                                + per + 8)

    # ------------------------------------------------------------------
    # Export (Python -> flat buffers)
    # ------------------------------------------------------------------

    def begin_span(self, lo: int, hi: int) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        for name in DELTA_REGS:
            R[RIX[name]] = 0
        R[RIX["LO"]], R[RIX["HI"]] = lo, hi
        R[RIX["ERR"]] = 0
        R[RIX["KERNEL"]] = 0 if self._kern is None else 1

        self._export_caches()
        self._export_mshrs()
        self._export_tlbs()
        self._export_mmu(hi - lo)
        self._export_dram()
        self._export_core(hi - lo)
        self._export_pq()
        if self._kern is not None:
            self._export_berti()

        F[FIX["F_WATERMARK"]] = h._l1d_kern_watermark
        R[RIX["CROSS_OK"]] = 1 if h._l1d_kern_cross_page else 0
        pfs2 = h.pf_stats["l2"]
        R[RIX["CREDIT2_USEFUL"]] = pfs2.useful
        R[RIX["CREDIT2_LATE"]] = pfs2.late
        R[RIX["PF1_USELESS"]] = h._pf_l1d_stats.useless
        R[RIX["PF2_USELESS"]] = pfs2.useless
        R[RIX["T12_WB"]] = h.traffic_l1d_l2.writeback
        R[RIX["T2L_WB"]] = h.traffic_l2_llc.writeback
        R[RIX["TLD_WB"]] = h.traffic_llc_dram.writeback

    def mark_stale(self) -> None:
        """Python-side cache objects were mutated outside the kernel
        (a demoted span ran); the next span must re-export every set."""
        self._cache_stale = True

    def _export_caches(self) -> None:
        R, F, b = self.R, self.F, self.bufs
        h = self.h
        stale = self._cache_stale
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            ways = cache.ways
            R[RIX[f"{p}_SETS"]] = cache.num_sets
            R[RIX[f"{p}_WAYS"]] = ways
            R[RIX[f"{p}_LAT"]] = cache.latency
            pol = cache.policy
            if type(pol) is LRUPolicy:
                R[RIX[f"{p}_POL"]] = POL_LRU
                pol_clock, pol_rows = pol._clock, pol._age
            else:
                R[RIX[f"{p}_POL"]] = (
                    POL_DRRIP if type(pol) is DRRIPPolicy else POL_SRRIP
                )
                pol_clock, pol_rows = None, pol._rrpv
            if type(pol) is DRRIPPolicy:
                R[RIX[f"{p}_PSEL"]] = pol._psel
                if stale:
                    mt = b[f"{p}_MT"]
                    state = pol._rng.getstate()[1]
                    for i in range(625):
                        mt[i] = state[i]
            st = cache.stats
            R[RIX[f"{p}_PF_FILLS"]] = st.prefetch_fills
            R[RIX[f"{p}_DEM_FILLS"]] = st.demand_fills
            R[RIX[f"{p}_USELESS"]] = st.useless_prefetches
            R[RIX[f"{p}_WB"]] = st.writebacks
            if not stale:
                # Set arrays are pointwise equal to the Python objects
                # (kept in sync by the touched-set import), skip them.
                continue
            tags = b[f"{p}_TAG"]
            valid = b[f"{p}_VALID"]
            dirty = b[f"{p}_DIRTY"]
            pref = b[f"{p}_PREF"]
            arr = b[f"{p}_ARR"]
            pflat = b[f"{p}_PFLAT"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            org = b[f"{p}_ORG"]
            mat = b[f"{p}_MAT"]
            polc = b[f"{p}_POLC"]
            pola = b[f"{p}_POLA"]
            ocode = _ORIGIN_CODE
            for s, row in enumerate(cache.sets):
                if not row:
                    mat[s] = 0
                    continue
                mat[s] = 1
                base = s * ways
                for w, cl in enumerate(row):
                    i = base + w
                    tags[i] = cl.tag
                    valid[i] = 1 if cl.valid else 0
                    dirty[i] = 1 if cl.dirty else 0
                    pref[i] = 1 if cl.prefetched else 0
                    arr[i] = cl.arrival_cycle
                    pflat[i] = cl.pf_latency
                    ipc[i] = cl.ip
                    vlc[i] = cl.vline
                    org[i] = ocode[cl.pf_origin]
                prow = pol_rows[s]
                for w in range(ways):
                    pola[base + w] = prow[w]
                if pol_clock is not None:
                    polc[s] = pol_clock[s]
        if stale:
            self._cache_stale = False

    def _export_mshrs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for p, m in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            R[RIX[f"{p}_SIZE"]] = m.size
            R[RIX[f"{p}_COUNT"]] = len(m._entries)
            R[RIX[f"{p}_MINREADY"]] = m._min_ready
            R[RIX[f"{p}_LASTEXP"]] = m._last_expire
            R[RIX[f"{p}_ALLOCS"]] = m.allocations
            R[RIX[f"{p}_FULLREJ"]] = m.full_rejections
            line = b[f"{p}_LINE"]
            alloc = b[f"{p}_ALLOC"]
            ready = b[f"{p}_READY"]
            ispf = b[f"{p}_ISPF"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            merged = b[f"{p}_MERGED"]
            for i, e in enumerate(m._entries.values()):
                line[i] = e.line
                alloc[i] = e.alloc_cycle
                ready[i] = e.ready_cycle
                ispf[i] = 1 if e.is_prefetch else 0
                ipc[i] = e.ip
                vlc[i] = e.vline
                merged[i] = e.merged_demands

    def _export_tlbs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        for p, tlb in zip(_TLB_PREFIXES, (mmu.dtlb, mmu.stlb)):
            R[RIX[f"{p}_NSETS"]] = tlb.num_sets
            R[RIX[f"{p}_WAYS"]] = tlb.ways
            row = tlb.ways + 1
            vp, pp, ln = b[f"{p}_VP"], b[f"{p}_PP"], b[f"{p}_LEN"]
            for s, entries in enumerate(tlb._sets):
                ln[s] = len(entries)
                base = s * row
                for i, (v, ph) in enumerate(entries):
                    vp[base + i] = v
                    pp[base + i] = ph
        R[RIX["DT_LAT"]] = mmu.dtlb.latency
        R[RIX["MISS_TRANS_LAT"]] = mmu.dtlb.latency + mmu.stlb.latency
        R[RIX["WALK_LAT"]] = mmu.page_walk_latency
        R[RIX["DT_PPROBES"]] = mmu.dtlb.stats.prefetch_probes
        R[RIX["DT_PPROBE_HITS"]] = mmu.dtlb.stats.prefetch_probe_hits
        R[RIX["ST_ACC"]] = mmu.stlb.stats.accesses
        R[RIX["ST_HITS"]] = mmu.stlb.stats.hits

    def _export_mmu(self, span_len: int) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        table = mmu._page_table
        need = 2 * (len(table) + span_len + 16)
        cap = 64
        while cap < need:
            cap <<= 1
        hk = b.get("HASH_K")
        if hk is None or len(hk) < cap:
            b["HASH_K"] = hk = array("q", bytes(8 * cap))
            b["HASH_V"] = array("q", bytes(8 * cap))
        else:
            cap = len(hk)
        hv = b["HASH_V"]
        for i in range(cap):
            hk[i] = -1
        mask = cap - 1
        for vp, ppage in table.items():
            i = (vp * 0x9E3779B97F4A7C15 >> 32) & mask
            while hk[i] != -1:
                i = (i + 1) & mask
            hk[i] = vp
            hv[i] = ppage
        R[RIX["HASH_CAP"]] = cap
        wl = b.get("WALK_VP")
        if wl is None or len(wl) < span_len + 1:
            b["WALK_VP"] = array("q", bytes(8 * (span_len + 1)))
            b["WALK_PP"] = array("q", bytes(8 * (span_len + 1)))
        R[RIX["WALKLOG_LEN"]] = 0
        R[RIX["MMU_NEXT_PPAGE"]] = mmu._next_ppage
        R[RIX["MMU_WALKS"]] = mmu.stats.walks
        R[RIX["MMU_DROPPED"]] = mmu.stats.dropped_prefetch_translations

    def _export_dram(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        dram = h.dram
        cfg = dram.config
        R[RIX["DR_BANKS"]] = cfg.banks
        R[RIX["DR_LPR"]] = dram._lines_per_row
        R[RIX["DR_TRP"]] = cfg.trp_cycles
        R[RIX["DR_TRCD"]] = cfg.trcd_cycles
        R[RIX["DR_TCAS"]] = cfg.tcas_cycles
        R[RIX["DR_WQ_SIZE"]] = cfg.write_queue
        F[FIX["F_WQ_THRESH"]] = cfg.write_queue * cfg.write_watermark
        F[FIX["F_BURST"]] = dram._burst
        F[FIX["F_BUSFREE"]] = dram._bus_free
        brow, bbusy = b["BANK_ROW"], b["BANK_BUSY"]
        for i, bank in enumerate(dram._banks):
            brow[i] = bank.open_row
            bbusy[i] = bank.busy_until
        pendw = b["PENDW"]
        for i, pl in enumerate(dram._pending_writes):
            pendw[i] = pl
        R[RIX["DR_PENDW_LEN"]] = len(dram._pending_writes)
        st = dram.stats
        R[RIX["DR_READS"]] = st.reads
        R[RIX["DR_WRITES"]] = st.writes
        R[RIX["DR_ROWH"]] = st.row_hits
        R[RIX["DR_ROWM"]] = st.row_misses
        R[RIX["DR_ROWC"]] = st.row_conflicts
        R[RIX["DR_LAT_TOTAL"]] = st.total_read_latency

    def _export_core(self, span_len: int) -> None:
        R, F, b = self.R, self.F, self.bufs
        core = self.core
        R[RIX["C_INSTR"]] = core._instr
        R[RIX["ROB_SIZE"]] = core._rob_size
        R[RIX["ISSUE_WIDTH"]] = core.config.issue_width
        R[RIX["RETIRE_WIDTH"]] = core.config.retire_width
        R[RIX["DEP_WINDOW"]] = core.config.dependency_window
        F[FIX["F_FRONTEND"]] = core._frontend
        F[FIX["F_RETIRE"]] = core._retire_frontier
        F[FIX["F_ROB_HEAD"]] = core._rob_head_retire
        F[FIX["F_ISSUE_INCR"]] = core._issue_incr
        F[FIX["F_RETIRE_INCR"]] = core._retire_incr
        F[FIX["F_ISSUE_W"]] = float(core.config.issue_width)
        F[FIX["F_RETIRE_W"]] = float(core.config.retire_width)
        win = core._window
        cap = len(win) + span_len + 1
        wk = b.get("WIN_K")
        if wk is None or len(wk) < cap:
            b["WIN_K"] = array("q", bytes(8 * cap))
            b["WIN_RET"] = array("d", bytes(8 * cap))
        wk, wr = b["WIN_K"], b["WIN_RET"]
        for i, (k, ret) in enumerate(win):
            wk[i] = k
            wr[i] = ret
        R[RIX["WIN_LEN"]] = len(win)
        R[RIX["WIN_CAP"]] = len(wk)
        loads = b["LOADS"]
        lc = self.core._load_completions
        for i, v in enumerate(lc):
            loads[i] = v
        R[RIX["LOADS_LEN"]] = len(lc)
        R[RIX["LOADS_POS"]] = 0

    def _export_pq(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        pq = h.pq
        R[RIX["PQ_SIZE"]] = pq.size
        F[FIX["F_PERIOD"]] = 1.0 / pq.rate
        st = b["PQ_ST"]
        for i, v in enumerate(pq._service_times):
            st[i] = v
        R[RIX["PQ_LEN"]] = len(pq._service_times)

    def _export_berti(self) -> None:
        R, F, b = self.R, self.F, self.bufs
        kern = self._kern
        hist = kern.history
        cfg = kern.config
        # History rings: zero-copy — refresh pointers each span (reset()
        # rebinds new arrays).
        b["H_TAGS"] = hist._tags
        b["H_LINES"] = hist._lines
        b["H_TSS"] = hist._tss
        b["H_ORDERS"] = hist._orders
        b["H_CLOCK"] = hist._fifo_clock
        b["H_PTR"] = hist._fifo_ptr
        R[RIX["H_SETS"]] = cfg.history_sets
        R[RIX["H_WAYS"]] = cfg.history_ways
        R[RIX["H_INSERTS"]] = hist.inserts
        R[RIX["H_SEARCHES"]] = hist.searches
        R[RIX["TS_MASK"]] = hist._ts_mask
        R[RIX["LINE_MASK"]] = hist._line_mask
        R[RIX["HTAG_MASK"]] = hist._tag_mask

        dt = kern.deltas
        entries = cfg.delta_table_entries
        per = cfg.deltas_per_entry
        R[RIX["E_COUNT"]] = entries
        R[RIX["E_PER"]] = per
        R[RIX["COUNTER_MAX"]] = cfg.counter_max
        R[RIX["MAX_DSEARCH"]] = cfg.max_deltas_per_search
        R[RIX["MAX_PF_DELTAS"]] = cfg.max_prefetch_deltas
        R[RIX["LAT_MASK"]] = kern._latency_mask
        R[RIX["COV_CAP"]] = dt._coverage_cap
        R[RIX["DTAG_MASK"]] = dt._tag_mask
        R[RIX["WARM_MIN"]] = cfg.warmup_min_searches
        R[RIX["DELTA_LO"]] = -(1 << (cfg.delta_bits - 1))
        R[RIX["DELTA_HI"]] = (1 << (cfg.delta_bits - 1)) - 1
        R[RIX["DT_FIFO_CLOCK"]] = dt._fifo_clock
        R[RIX["DT_FIFO_PTR"]] = dt._fifo_ptr
        R[RIX["DT_PHASES"]] = dt.phase_completions
        R[RIX["DT_DISCARDED"]] = dt.discarded_deltas
        F[FIX["F_HIGH"]] = cfg.high_watermark * cfg.counter_max
        F[FIX["F_MEDIUM"]] = cfg.medium_watermark * cfg.counter_max
        F[FIX["F_REPL"]] = cfg.repl_watermark * cfg.counter_max
        F[FIX["F_WARM_WM"]] = cfg.warmup_watermark

        ev, et = b["E_VALID"], b["E_TAG"]
        ec, eo = b["E_CTR"], b["E_ORDER"]
        ew, es = b["E_WARMED"], b["E_SCOUNT"]
        sd, sc, ss = b["S_DELTA"], b["S_COV"], b["S_STATUS"]
        for e in range(entries):
            ev[e] = 1 if dt._valid[e] else 0
            et[e] = dt._tags[e]
            ec[e] = dt._counters[e]
            eo[e] = dt._orders[e]
            ew[e] = 1 if dt._warmed[e] else 0
            es[e] = dt._slot_count[e]
            base = e * per
            drow, crow, strow = (dt._slot_delta[e], dt._slot_cov[e],
                                 dt._slot_status[e])
            for i in range(per):
                sd[base + i] = drow[i]
                sc[base + i] = crow[i]
                ss[base + i] = strow[i]
        # Heaps: verbatim pair arrays (the kernel implements CPython's
        # heapq algorithms, so the final array layout round-trips).
        heap_cap = max(
            (max((len(hp) for hp in dt._evict_heap), default=0)
             + self._heap_slack),
            self._heap_slack,
        )
        hb = b.get("HEAP")
        if hb is None or len(hb) < entries * heap_cap * 2:
            b["HEAP"] = hb = array("q", bytes(8 * entries * heap_cap * 2))
        else:
            heap_cap = len(hb) // (entries * 2)
        R[RIX["HEAP_CAP"]] = heap_cap
        hl = b["HEAP_LEN"]
        for e in range(entries):
            heap = dt._evict_heap[e]
            hl[e] = len(heap)
            base = e * heap_cap * 2
            for i, (c, s) in enumerate(heap):
                hb[base + 2 * i] = c
                hb[base + 2 * i + 1] = s

    # ------------------------------------------------------------------
    # Import (flat buffers -> Python)
    # ------------------------------------------------------------------

    def end_span(self, ok: bool) -> None:
        """Import state back; ``ok=False`` skips the span-delta flush."""
        self._import_caches()
        self._import_mshrs()
        self._import_tlbs()
        self._import_mmu()
        self._import_dram()
        self._import_core()
        self._import_pq()
        if self._kern is not None:
            self._import_berti()
        R, h = self.R, self.h
        h._pf_l1d_stats.useless = R[RIX["PF1_USELESS"]]
        pfs2 = h.pf_stats["l2"]
        pfs2.useless = R[RIX["PF2_USELESS"]]
        h.traffic_l1d_l2.writeback = R[RIX["T12_WB"]]
        h.traffic_l2_llc.writeback = R[RIX["T2L_WB"]]
        h.traffic_llc_dram.writeback = R[RIX["TLD_WB"]]
        if ok:
            self._flush_deltas()
        else:
            # A crashed span keeps its in-place mutations (the
            # immediate Hierarchy._credit_useful calls) but not the
            # deltas.
            pfs2.useful = R[RIX["CREDIT2_USEFUL"]]
            pfs2.late = R[RIX["CREDIT2_LATE"]]

    def _import_caches(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            ways = cache.ways
            tags = b[f"{p}_TAG"]
            valid = b[f"{p}_VALID"]
            dirty = b[f"{p}_DIRTY"]
            pref = b[f"{p}_PREF"]
            arr = b[f"{p}_ARR"]
            pflat = b[f"{p}_PFLAT"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            org = b[f"{p}_ORG"]
            mat = b[f"{p}_MAT"]
            polc = b[f"{p}_POLC"]
            pola = b[f"{p}_POLA"]
            pol = cache.policy
            if type(pol) is LRUPolicy:
                pol_clock, pol_rows = pol._clock, pol._age
            else:
                pol_clock, pol_rows = None, pol._rrpv
            if type(pol) is DRRIPPolicy:
                pol._psel = R[RIX[f"{p}_PSEL"]]
                mt = b[f"{p}_MT"]
                pol._rng.setstate(
                    (3, tuple(mt[i] for i in range(625)), None)
                )
            where = cache._where
            vcount = cache._valid_count
            sets = cache.sets
            for s in range(cache.num_sets):
                if mat[s] != 2:  # untouched since export: already in sync
                    continue
                mat[s] = 1
                row = sets[s]
                if not row:
                    row += [CacheLine() for _ in range(ways)]
                else:
                    # Tags are full line numbers (they encode the set),
                    # so evicting this set's old keys cannot collide
                    # with entries belonging to other sets.
                    for cl in row:
                        if cl.valid:
                            where.pop(cl.tag, None)
                base = s * ways
                nvalid = 0
                for w in range(ways):
                    i = base + w
                    cl = row[w]
                    t = tags[i]
                    cl.tag = t
                    v = valid[i] != 0
                    cl.valid = v
                    cl.dirty = dirty[i] != 0
                    cl.prefetched = pref[i] != 0
                    cl.arrival_cycle = arr[i]
                    cl.pf_latency = pflat[i]
                    cl.ip = ipc[i]
                    cl.vline = vlc[i]
                    cl.pf_origin = ORIGINS[org[i]]
                    if v:
                        nvalid += 1
                        where[t] = w
                vcount[s] = nvalid
                prow = pol_rows[s]
                for w in range(ways):
                    prow[w] = pola[base + w]
                if pol_clock is not None:
                    pol_clock[s] = polc[s]
            st = cache.stats
            st.prefetch_fills = R[RIX[f"{p}_PF_FILLS"]]
            st.demand_fills = R[RIX[f"{p}_DEM_FILLS"]]
            st.useless_prefetches = R[RIX[f"{p}_USELESS"]]
            st.writebacks = R[RIX[f"{p}_WB"]]

    def _import_mshrs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for p, m in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            count = R[RIX[f"{p}_COUNT"]]
            line = b[f"{p}_LINE"]
            alloc = b[f"{p}_ALLOC"]
            ready = b[f"{p}_READY"]
            ispf = b[f"{p}_ISPF"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            merged = b[f"{p}_MERGED"]
            entries: dict = {}
            for i in range(count):
                entries[line[i]] = MSHREntry(
                    line=line[i], alloc_cycle=alloc[i],
                    ready_cycle=ready[i], is_prefetch=ispf[i] != 0,
                    ip=ipc[i], vline=vlc[i], merged_demands=merged[i],
                )
            m._entries = entries
            m._min_ready = R[RIX[f"{p}_MINREADY"]]
            m._last_expire = R[RIX[f"{p}_LASTEXP"]]
            m.allocations = R[RIX[f"{p}_ALLOCS"]]
            m.full_rejections = R[RIX[f"{p}_FULLREJ"]]

    def _import_tlbs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        for p, tlb in zip(_TLB_PREFIXES, (mmu.dtlb, mmu.stlb)):
            row = tlb.ways + 1
            vp, pp, ln = b[f"{p}_VP"], b[f"{p}_PP"], b[f"{p}_LEN"]
            tmap: dict = {}
            sets = tlb._sets
            for s in range(tlb.num_sets):
                base = s * row
                n = ln[s]
                entries = [(vp[base + i], pp[base + i]) for i in range(n)]
                sets[s] = entries
                for v, ph in entries:
                    tmap[v] = ph
            tlb._map = tmap
        mmu.dtlb.stats.prefetch_probes = R[RIX["DT_PPROBES"]]
        mmu.dtlb.stats.prefetch_probe_hits = R[RIX["DT_PPROBE_HITS"]]
        mmu.stlb.stats.accesses = R[RIX["ST_ACC"]]
        mmu.stlb.stats.hits = R[RIX["ST_HITS"]]

    def _import_mmu(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        n = R[RIX["WALKLOG_LEN"]]
        wvp, wpp = b["WALK_VP"], b["WALK_PP"]
        table = mmu._page_table
        for i in range(n):
            # Walk order == the classic engine's dict insertion order.
            table[wvp[i]] = wpp[i]
        mmu._next_ppage = R[RIX["MMU_NEXT_PPAGE"]]
        mmu.stats.walks = R[RIX["MMU_WALKS"]]
        mmu.stats.dropped_prefetch_translations = R[RIX["MMU_DROPPED"]]

    def _import_dram(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        dram = h.dram
        brow, bbusy = b["BANK_ROW"], b["BANK_BUSY"]
        for i, bank in enumerate(dram._banks):
            bank.open_row = brow[i]
            bank.busy_until = bbusy[i]
        dram._bus_free = F[FIX["F_BUSFREE"]]
        pendw = b["PENDW"]
        dram._pending_writes = [
            pendw[i] for i in range(R[RIX["DR_PENDW_LEN"]])
        ]
        st = dram.stats
        st.reads = R[RIX["DR_READS"]]
        st.writes = R[RIX["DR_WRITES"]]
        st.row_hits = R[RIX["DR_ROWH"]]
        st.row_misses = R[RIX["DR_ROWM"]]
        st.row_conflicts = R[RIX["DR_ROWC"]]
        st.total_read_latency = R[RIX["DR_LAT_TOTAL"]]

    def _import_core(self) -> None:
        R, F, b = self.R, self.F, self.bufs
        core = self.core
        core._instr = R[RIX["C_INSTR"]]
        core._frontend = F[FIX["F_FRONTEND"]]
        core._retire_frontier = F[FIX["F_RETIRE"]]
        core._rob_head_retire = F[FIX["F_ROB_HEAD"]]
        wk, wr = b["WIN_K"], b["WIN_RET"]
        n = R[RIX["WIN_LEN"]]
        win = core._window
        win.clear()
        # The kernel compacts the window to offset 0 before returning.
        for i in range(n):
            win.append((wk[i], wr[i]))
        loads = core._load_completions
        loads.clear()
        lbuf = b["LOADS"]
        pos = R[RIX["LOADS_POS"]]
        cnt = R[RIX["LOADS_LEN"]]
        cap = core.config.dependency_window
        for i in range(cnt):
            loads.append(lbuf[(pos + i) % cap])

    def _import_pq(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        st = h.pq._service_times
        st.clear()
        buf = b["PQ_ST"]
        for i in range(R[RIX["PQ_LEN"]]):
            st.append(buf[i])

    def _import_berti(self) -> None:
        R, b = self.R, self.bufs
        kern = self._kern
        hist = kern.history
        new_inserts = R[RIX["H_INSERTS"]]
        rebuild = new_inserts != hist.inserts
        hist.inserts = new_inserts
        hist.searches = R[RIX["H_SEARCHES"]]
        if rebuild:
            # Forward walk from the FIFO pointer visits oldest->youngest,
            # reproducing the incremental chain maintenance exactly.
            cfg = kern.config
            sets, ways = cfg.history_sets, cfg.history_ways
            tags, lines, tss = hist._tags, hist._lines, hist._tss
            ptrs = hist._fifo_ptr
            chains = hist._chains
            for s in range(sets):
                chain: dict = {}
                base = s * ways
                ptr = ptrs[s]
                for j in range(ways):
                    w = base + (ptr + j) % ways
                    t = tags[w]
                    if t < 0:
                        continue
                    dq = chain.get(t)
                    if dq is None:
                        chain[t] = dq = deque()
                    dq.append((lines[w], tss[w]))
                chains[s] = chain

        dt = kern.deltas
        entries = len(dt._valid)
        per = kern.config.deltas_per_entry
        ev, et = b["E_VALID"], b["E_TAG"]
        ec, eo = b["E_CTR"], b["E_ORDER"]
        ew, es = b["E_WARMED"], b["E_SCOUNT"]
        sd, sc, ss = b["S_DELTA"], b["S_COV"], b["S_STATUS"]
        by_tag: dict = {}
        for e in range(entries):
            v = ev[e] != 0
            dt._valid[e] = v
            dt._tags[e] = et[e]
            dt._counters[e] = ec[e]
            dt._orders[e] = eo[e]
            dt._warmed[e] = ew[e] != 0
            count = es[e]
            dt._slot_count[e] = count
            base = e * per
            drow, crow, strow = (dt._slot_delta[e], dt._slot_cov[e],
                                 dt._slot_status[e])
            for i in range(per):
                drow[i] = sd[base + i]
                crow[i] = sc[base + i]
                strow[i] = ss[base + i]
            dt._by_delta[e] = {drow[i]: i for i in range(count)}
            dt._pf_cache[e] = None
            dt._warm_cache[e] = None
            if v:
                by_tag[et[e]] = e
        dt._by_tag = by_tag
        heap_cap = R[RIX["HEAP_CAP"]]
        hb, hl = b["HEAP"], b["HEAP_LEN"]
        for e in range(entries):
            base = e * heap_cap * 2
            dt._evict_heap[e] = [
                (hb[base + 2 * i], hb[base + 2 * i + 1])
                for i in range(hl[e])
            ]
        dt._fifo_clock = R[RIX["DT_FIFO_CLOCK"]]
        dt._fifo_ptr = R[RIX["DT_FIFO_PTR"]]
        dt.phase_completions = R[RIX["DT_PHASES"]]
        dt.discarded_deltas = R[RIX["DT_DISCARDED"]]

    def _flush_deltas(self) -> None:
        R, h = self.R, self.h
        g = lambda name: R[RIX[name]]
        dtlb_stats = h.mmu.dtlb.stats
        dtlb_stats.accesses += g("D_DT_ACC")
        dtlb_stats.hits += g("D_DT_HIT")
        l1s, l2s, llcs = h.l1d.stats, h.l2.stats, h.llc.stats
        l1s.demand_accesses += g("D_L1_ACC")
        l1s.demand_hits += g("D_L1_HIT")
        l1s.demand_misses += g("D_L1_MISS")
        l1s.useful_prefetches += g("D_L1_USEFUL")
        l1s.late_prefetches += g("D_L1_LATE")
        l2s.demand_accesses += g("D_L2_ACC")
        l2s.demand_hits += g("D_L2_HIT")
        l2s.demand_misses += g("D_L2_MISS")
        l2s.useful_prefetches += g("D_L2_USEFUL")
        llcs.demand_accesses += g("D_LLC_ACC")
        llcs.demand_hits += g("D_LLC_HIT")
        llcs.demand_misses += g("D_LLC_MISS")
        llcs.useful_prefetches += g("D_LLC_USEFUL")
        h.llc_demand_accesses += g("D_H_LLC_ACC")
        h.llc_demand_misses += g("D_H_LLC_MISS")
        h.dram_demand_reads += g("D_H_DRAM")
        tr12 = h.traffic_l1d_l2
        tr12.demand += g("D_T12_DEM")
        tr12.prefetch += g("D_T12_PF")
        tr2l = h.traffic_l2_llc
        tr2l.demand += g("D_T2L_DEM")
        tr2l.prefetch += g("D_T2L_PF")
        trld = h.traffic_llc_dram
        trld.demand += g("D_TLD_DEM")
        trld.prefetch += g("D_TLD_PF")
        pfs1 = h._pf_l1d_stats
        pfs1.suggested += g("D_PF_SUGG")
        pfs1.issued += g("D_PF_ISSUED")
        pfs1.fills += g("D_PF_FILLS")
        pfs1.useful += g("D_PF_USEFUL")
        pfs1.late += g("D_PF_LATE")
        pfs1.promoted += g("D_PF_PROMOTED")
        pfs1.dropped_translation += g("D_PF_DTRANS")
        pfs1.dropped_duplicate += g("D_PF_DDUP")
        pfs1.dropped_queue_full += g("D_PF_DQ")
        pfs1.dropped_mshr_full += g("D_PF_DM")
        pfs2 = h.pf_stats["l2"]
        # Dual-channel fields: the "credit" channel (the immediate
        # Hierarchy._credit_useful calls) lives in the absolute
        # registers; the delta channel mirrors the flush list.
        pfs2.useful = g("CREDIT2_USEFUL") + g("D_PF2_USEFUL")
        pfs2.late = g("CREDIT2_LATE") + g("D_PF2_LATE")
        pfs2.promoted += g("D_PF2_PROMOTED")
        stlb_stats = h.mmu.stlb.stats
        stlb_stats.prefetch_probes += g("D_STLB_PROBES")
        stlb_stats.prefetch_probe_hits += g("D_STLB_HITS")
        h.l1d_mshr.merges += g("D_M1_MERGES")
        h.l2_mshr.merges += g("D_M2_MERGES")
        kern = self._kern
        if kern is not None:
            kern.cross_page_suppressed += g("D_CROSS")

    # ------------------------------------------------------------------

    def pointers(self) -> List[int]:
        """Current raw buffer pointers in BUFS order."""
        return [_ptr_of(self.bufs[name]) for name in BUFS]
