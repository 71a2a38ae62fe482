/* repro.native kernel: bit-exact C transcription of the classic demand
 * path for one span of records -- CoreModel.issue_memory around
 * Hierarchy.demand_access (repro/memory/hierarchy.py: the dTLB/STLB
 * path of MMU.translate_demand, the L1D probe and MSHR merge ladder,
 * and _access_l2 / _access_llc, which the demand miss and the prefetch
 * ladder share) -- plus the L1D prefetcher the PF_KIND register names
 * and its prologue in front of the one issue tail (_issue_prefetch):
 * the Berti kernel hooks (repro/core/berti.py over history_table.py /
 * delta_table.py) with the kernel loop of _run_l1d_prefetcher_on_access,
 * or IPCP (repro/prefetchers/ipcp.py) with issue_l1d_prefetch, each
 * over its own Python columns.  Each function's comment names the
 * Python it transcribes.
 *
 * The layout header (repro_native_layout.h) is generated from
 * repro/native/marshal.py at build time; the R_/FR_/B_ indexes are the
 * only ABI between Python and this file.  Every arithmetic expression
 * below mirrors the Python source exactly: int64 two's-complement
 * masking matches Python's & on 2^k-1 masks, imod/ifdiv reproduce
 * Python's % and //, and all float work is IEEE double in source order
 * (compiled -O2 WITHOUT -ffast-math).
 *
 * The cache and TLB buffers are the Python Cache's and TLB's own
 * per-way columns and their replacement policies' columns (slot = set *
 * ways + way), bound by pointer and updated in place; every set is
 * allocated, so no set is ever initialised or copied here.
 *
 * Contract: repro_run_span(R, F, B) runs records [R[LO], R[HI]) and
 * returns 0 on success or R[ERR] after an error longjmp.  On both
 * paths every struct-cached scalar and span-delta counter is written
 * back to R/F before returning (the Python side decides whether to
 * flush the deltas).
 */
#include <stdint.h>
#include <string.h>
#include <setjmp.h>

#include "repro_native_layout.h"

typedef int64_t i64;
typedef uint64_t u64;
typedef double f64;

#define LPB 6
#define POM 63
#define LATENCY_CAP 4096
#define MAX_RRPV 3
#define PSEL_MAX 1023

#define POL_LRU 0
#define POL_SRRIP 1
#define POL_DRRIP 2

static i64 *R;
static f64 *F;
static void **B;
static jmp_buf err_jmp;

/* Python % and // for possibly-negative left operands. */
static inline i64 imod(i64 a, i64 m) {
    i64 r = a % m;
    return r < 0 ? r + m : r;
}

static inline i64 ifdiv(i64 a, i64 b) {
    i64 q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q--;
    return q;
}

/* ------------------------------------------------------------------ */
/* Span-delta counters: the demand path's pure counters, in the order  */
/* of marshal.DELTA_REGS.                                               */
/* ------------------------------------------------------------------ */

#define DELTA_LIST(X)                                                  \
    X(D_DT_ACC) X(D_DT_HIT)                                            \
    X(D_L1_ACC) X(D_L1_HIT) X(D_L1_MISS) X(D_L1_USEFUL) X(D_L1_LATE)   \
    X(D_L2_ACC) X(D_L2_HIT) X(D_L2_MISS) X(D_L2_USEFUL)                \
    X(D_LLC_ACC) X(D_LLC_HIT) X(D_LLC_MISS) X(D_LLC_USEFUL)            \
    X(D_H_LLC_ACC) X(D_H_LLC_MISS) X(D_H_DRAM)                         \
    X(D_T12_DEM) X(D_T12_PF) X(D_T2L_DEM) X(D_T2L_PF)                  \
    X(D_TLD_DEM) X(D_TLD_PF)                                           \
    X(D_PF_SUGG) X(D_PF_ISSUED) X(D_PF_FILLS)                          \
    X(D_PF_USEFUL) X(D_PF_LATE) X(D_PF_PROMOTED)                       \
    X(D_PF_DTRANS) X(D_PF_DDUP) X(D_PF_DQ) X(D_PF_DM)                  \
    X(D_PF2_USEFUL) X(D_PF2_LATE) X(D_PF2_PROMOTED)                    \
    X(D_STLB_PROBES) X(D_STLB_HITS)                                    \
    X(D_M1_MERGES) X(D_M2_MERGES)                                      \
    X(D_CROSS)

#define DECL_DELTA(n) static i64 d_##n;
DELTA_LIST(DECL_DELTA)
#undef DECL_DELTA

/* ------------------------------------------------------------------ */
/* Mersenne Twister: CPython's _randommodule.c genrand_uint32/random_  */
/* random over the 625-word (state + index) exported buffer.           */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397

static u64 mt_next(i64 *mt) {
    i64 mti = mt[MT_N];
    u64 y;
    if (mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (((u64)mt[kk]) & 0x80000000ULL)
                | (((u64)mt[kk + 1]) & 0x7fffffffULL);
            mt[kk] = (i64)(((u64)mt[kk + MT_M]) ^ (y >> 1)
                           ^ ((y & 1) ? 0x9908b0dfULL : 0ULL));
        }
        for (; kk < MT_N - 1; kk++) {
            y = (((u64)mt[kk]) & 0x80000000ULL)
                | (((u64)mt[kk + 1]) & 0x7fffffffULL);
            mt[kk] = (i64)(((u64)mt[kk + (MT_M - MT_N)]) ^ (y >> 1)
                           ^ ((y & 1) ? 0x9908b0dfULL : 0ULL));
        }
        y = (((u64)mt[MT_N - 1]) & 0x80000000ULL)
            | (((u64)mt[0]) & 0x7fffffffULL);
        mt[MT_N - 1] = (i64)(((u64)mt[MT_M - 1]) ^ (y >> 1)
                             ^ ((y & 1) ? 0x9908b0dfULL : 0ULL));
        mti = 0;
    }
    y = (u64)mt[mti];
    mt[MT_N] = mti + 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680ULL;
    y ^= (y << 15) & 0xefc60000ULL;
    y ^= y >> 18;
    return y & 0xffffffffULL;
}

static f64 mt_random(i64 *mt) {
    u64 a = mt_next(mt) >> 5;
    u64 b = mt_next(mt) >> 6;
    return ((f64)a * 67108864.0 + (f64)b) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* LRU stamps (LRUPolicy's columns, shared by the caches and TLBs)     */
/* ------------------------------------------------------------------ */

/* LRUPolicy.on_hit / on_fill: stamp slot i of set s from its clock. */
static inline void lru_stamp(i64 *clk, i64 *age, i64 s, i64 i) {
    i64 clock = clk[s] + 1;
    clk[s] = clock;
    age[i] = clock;
}

/* LRUPolicy.victim: the set's first way of minimal age. */
static inline i64 lru_victim(const i64 *age, i64 base, i64 ways) {
    i64 best = 0, bestv = age[base];
    i64 w;
    for (w = 1; w < ways; w++) {
        if (age[base + w] < bestv) {
            bestv = age[base + w];
            best = w;
        }
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Caches                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 sets, ways, lat, pol, set_mask;
    i64 psel;
    i64 pf_fills, dem_fills, useless, wb;
    i64 *tag, *valid, *dirty, *pref, *arr, *pflat, *ip, *vline, *org;
    i64 *polc, *pola, *mtbuf;
} CCache;

static CCache CL1, CL2, CLL;

#define LOAD_CACHE(c, P) do {                                          \
    (c)->sets = R[R_##P##_SETS]; (c)->ways = R[R_##P##_WAYS];          \
    (c)->lat = R[R_##P##_LAT]; (c)->pol = R[R_##P##_POL];              \
    (c)->set_mask = (c)->sets - 1; (c)->psel = R[R_##P##_PSEL];        \
    (c)->pf_fills = R[R_##P##_PF_FILLS];                               \
    (c)->dem_fills = R[R_##P##_DEM_FILLS];                             \
    (c)->useless = R[R_##P##_USELESS]; (c)->wb = R[R_##P##_WB];        \
    (c)->tag = (i64 *)B[B_##P##_TAG];                                  \
    (c)->valid = (i64 *)B[B_##P##_VALID];                              \
    (c)->dirty = (i64 *)B[B_##P##_DIRTY];                              \
    (c)->pref = (i64 *)B[B_##P##_PREF];                                \
    (c)->arr = (i64 *)B[B_##P##_ARR];                                  \
    (c)->pflat = (i64 *)B[B_##P##_PFLAT];                              \
    (c)->ip = (i64 *)B[B_##P##_IP];                                    \
    (c)->vline = (i64 *)B[B_##P##_VLINE];                              \
    (c)->org = (i64 *)B[B_##P##_ORG];                                  \
    (c)->polc = (i64 *)B[B_##P##_POLC];                                \
    (c)->pola = (i64 *)B[B_##P##_POLA];                                \
    (c)->mtbuf = (i64 *)B[B_##P##_MT];                                 \
} while (0)

#define SAVE_CACHE(c, P) do {                                          \
    R[R_##P##_PSEL] = (c)->psel;                                       \
    R[R_##P##_PF_FILLS] = (c)->pf_fills;                               \
    R[R_##P##_DEM_FILLS] = (c)->dem_fills;                             \
    R[R_##P##_USELESS] = (c)->useless; R[R_##P##_WB] = (c)->wb;        \
} while (0)

static i64 cache_way(CCache *c, i64 s, i64 line) {
    i64 base = s * c->ways;
    i64 w;
    for (w = 0; w < c->ways; w++) {
        i64 i = base + w;
        if (c->valid[i] && c->tag[i] == line)
            return w;
    }
    return -1;
}

static void cache_touch(CCache *c, i64 s, i64 w) {
    i64 i = s * c->ways + w;
    if (c->pol == POL_LRU)
        lru_stamp(c->polc, c->pola, s, i);
    else
        c->pola[i] = 0;
}

static i64 cache_victim(CCache *c, i64 s) {
    i64 base = s * c->ways;
    i64 w;
    if (c->pol == POL_LRU)
        return lru_victim(c->pola, base, c->ways);
    for (;;) {
        for (w = 0; w < c->ways; w++)
            if (c->pola[base + w] == MAX_RRPV)
                return w;
        for (w = 0; w < c->ways; w++)
            c->pola[base + w] += 1;
    }
}

static i64 drrip_insertion(CCache *c, i64 s) {
    i64 leader = s & 31;
    int brrip;
    if (leader == 0)
        brrip = 0;
    else if (leader == 16)
        brrip = 1;
    else
        brrip = c->psel > PSEL_MAX / 2;
    if (brrip) {
        if (mt_random(c->mtbuf) < 1.0 / 32.0)
            return MAX_RRPV - 1;
        return MAX_RRPV;
    }
    return MAX_RRPV - 1;
}

static void drrip_record_miss(CCache *c, i64 s) {
    i64 leader = s & 31;
    if (leader == 0) {
        if (c->psel < PSEL_MAX)
            c->psel++;
    } else if (leader == 16) {
        if (c->psel > 0)
            c->psel--;
    }
}

/* Cache.fill: returns the dirty victim's tag (for the writeback chain)
 * or -1.  Clean evictions still run the useless-prefetch accounting
 * (the eviction hook's account_useless, inlined for origin 1/2). */
static i64 cache_fill(CCache *c, i64 line, i64 now, i64 arrival,
                      i64 is_prefetch, i64 ip, i64 vline, i64 pflat_v,
                      i64 origin) {
    i64 s = line & c->set_mask;
    i64 ways = c->ways;
    i64 base = s * ways;
    i64 w = cache_way(c, s, line);
    i64 victim_tag = -1;
    if (w < 0) {
        /* The first invalid way; the policy's victim in a full set. */
        for (w = 0; w < ways && c->valid[base + w]; w++)
            ;
        if (w == ways)
            w = cache_victim(c, s);
        i64 i = base + w;
        if (c->valid[i]) {
            if (c->pref[i]) {
                c->useless++;
                if (c->org[i] == 1)
                    R[R_PF1_USELESS]++;
                else if (c->org[i] == 2)
                    R[R_PF2_USELESS]++;
            }
            if (c->dirty[i]) {
                c->wb++;
                victim_tag = c->tag[i];
            }
        }
        c->tag[i] = line;
        c->valid[i] = 1;
        c->dirty[i] = 0;
        c->pref[i] = is_prefetch;
        c->arr[i] = arrival;
        c->pflat[i] = pflat_v;
        c->ip[i] = ip;
        c->vline[i] = vline;
        c->org[i] = is_prefetch ? origin : 0;
        if (c->pol == POL_LRU) {
            lru_stamp(c->polc, c->pola, s, i);
        } else if (c->pol == POL_SRRIP) {
            c->pola[i] = MAX_RRPV - 1;
        } else {
            c->pola[i] = drrip_insertion(c, s);
        }
    } else {
        i64 i = base + w;
        if (arrival < c->arr[i])
            c->arr[i] = arrival;
        if (!is_prefetch)
            c->pref[i] = 0;
    }
    if (is_prefetch)
        c->pf_fills++;
    else
        c->dem_fills++;
    return victim_tag;
}

static void cache_mark_dirty(CCache *c, i64 line) {
    i64 s = line & c->set_mask;
    i64 w = cache_way(c, s, line);
    if (w >= 0)
        c->dirty[s * c->ways + w] = 1;
}

/* ------------------------------------------------------------------ */
/* DRAM                                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 banks, lpr, trp, trcd, tcas, wq_size, pendw_len;
    i64 reads, writes, rowh, rowm, rowc, lat_total;
    f64 bus_free, burst, wq_thresh;
    i64 *bank_row, *bank_busy, *pendw;
} CDram;

static CDram DR;

static i64 dram_access(i64 pline, i64 now) {
    i64 row = ifdiv(pline, DR.lpr);
    i64 bank = imod(row, DR.banks);
    i64 busy = DR.bank_busy[bank];
    i64 start = now > busy ? now : busy;
    i64 open_row = DR.bank_row[bank];
    i64 prep;
    if (open_row == row) {
        DR.rowh++;
        prep = 0;
    } else if (open_row == -1) {
        DR.rowm++;
        prep = DR.trcd;
    } else {
        DR.rowc++;
        prep = DR.trp + DR.trcd;
    }
    DR.bank_row[bank] = row;
    f64 data_start = (f64)(start + prep + DR.tcas);
    if (DR.bus_free > data_start)
        data_start = DR.bus_free;
    f64 done = data_start + DR.burst;
    DR.bus_free = done;
    DR.bank_busy[bank] = (i64)((f64)(start + prep) + DR.burst);
    return (i64)done;
}

static void dram_drain(i64 now) {
    i64 i;
    for (i = 0; i < DR.pendw_len; i++)
        dram_access(DR.pendw[i], now);
    DR.pendw_len = 0;
}

static i64 dram_read(i64 pline, i64 now) {
    if ((f64)DR.pendw_len >= DR.wq_thresh)
        dram_drain(now);
    i64 done = dram_access(pline, now);
    DR.reads++;
    DR.lat_total += done - now;
    return done;
}

static void dram_write(i64 pline, i64 now) {
    DR.writes++;
    DR.pendw[DR.pendw_len++] = pline;
    if (DR.pendw_len >= DR.wq_size)
        dram_drain(now);
}

/* ------------------------------------------------------------------ */
/* MSHRs                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 size, count, min_ready, last_expire, allocs, fullrej;
    i64 *line, *alloc, *ready, *ispf, *ip, *vline, *merged;
} CMshr;

static CMshr M1, M2;

#define LOAD_MSHR(m, P) do {                                           \
    (m)->size = R[R_##P##_SIZE]; (m)->count = R[R_##P##_COUNT];        \
    (m)->min_ready = R[R_##P##_MINREADY];                              \
    (m)->last_expire = R[R_##P##_LASTEXP];                             \
    (m)->allocs = R[R_##P##_ALLOCS];                                   \
    (m)->fullrej = R[R_##P##_FULLREJ];                                 \
    (m)->line = (i64 *)B[B_##P##_LINE];                                \
    (m)->alloc = (i64 *)B[B_##P##_ALLOC];                              \
    (m)->ready = (i64 *)B[B_##P##_READY];                              \
    (m)->ispf = (i64 *)B[B_##P##_ISPF];                                \
    (m)->ip = (i64 *)B[B_##P##_IP];                                    \
    (m)->vline = (i64 *)B[B_##P##_VLINE];                              \
    (m)->merged = (i64 *)B[B_##P##_MERGED];                            \
} while (0)

#define SAVE_MSHR(m, P) do {                                           \
    R[R_##P##_COUNT] = (m)->count;                                     \
    R[R_##P##_MINREADY] = (m)->min_ready;                              \
    R[R_##P##_LASTEXP] = (m)->last_expire;                             \
    R[R_##P##_ALLOCS] = (m)->allocs;                                   \
    R[R_##P##_FULLREJ] = (m)->fullrej;                                 \
} while (0)

/* MSHR._expire: order-preserving compaction == dict insertion order. */
static void mshr_expire(CMshr *m, i64 now) {
    if (now == m->last_expire)
        return;
    m->last_expire = now;
    if (!m->count || now < m->min_ready)
        return;
    i64 n = 0, mn = 0;
    int have = 0;
    i64 i;
    for (i = 0; i < m->count; i++) {
        if (m->ready[i] > now) {
            if (n != i) {
                m->line[n] = m->line[i];
                m->alloc[n] = m->alloc[i];
                m->ready[n] = m->ready[i];
                m->ispf[n] = m->ispf[i];
                m->ip[n] = m->ip[i];
                m->vline[n] = m->vline[i];
                m->merged[n] = m->merged[i];
            }
            if (!have || m->ready[n] < mn) {
                mn = m->ready[n];
                have = 1;
            }
            n++;
        }
    }
    m->count = n;
    m->min_ready = have ? mn : 0;
}

static i64 mshr_find(CMshr *m, i64 line) {
    i64 i;
    for (i = 0; i < m->count; i++)
        if (m->line[i] == line)
            return i;
    return -1;
}

static void mshr_allocate(CMshr *m, i64 line, i64 now, i64 ready,
                          i64 ispf, i64 ip, i64 vline) {
    mshr_expire(m, now);
    if (m->count >= m->size) {
        m->fullrej++;
        R[R_ERR] = 1;
        R[R_ERR_A] = m->count;
        R[R_ERR_B] = m->size;
        R[R_ERR_C] = now;
        R[R_ERR_D] = line;
        longjmp(err_jmp, 1);
    }
    if (m->count == 0 || ready < m->min_ready)
        m->min_ready = ready;
    i64 i = m->count++;
    m->line[i] = line;
    m->alloc[i] = now;
    m->ready[i] = ready;
    m->ispf[i] = ispf;
    m->ip[i] = ip;
    m->vline[i] = vline;
    m->merged[i] = 0;
    m->allocs++;
}

/* ------------------------------------------------------------------ */
/* TLBs + page table                                                   */
/* ------------------------------------------------------------------ */

/* The TLB buffers are the Python TLB's own columns (vpages, ppages and
 * its LRUPolicy's clock/age, slot = set * ways + way), bound by pointer;
 * age 0 marks an empty way. */
typedef struct {
    i64 nsets, ways;
    i64 *vp, *pp, *clk, *age;
} CTlb;

static CTlb TDT, TST;

#define LOAD_TLB(t, P) do {                                            \
    (t)->nsets = R[R_##P##_NSETS]; (t)->ways = R[R_##P##_WAYS];        \
    (t)->vp = (i64 *)B[B_##P##_VP];                                    \
    (t)->pp = (i64 *)B[B_##P##_PP];                                    \
    (t)->clk = (i64 *)B[B_##P##_CLK];                                  \
    (t)->age = (i64 *)B[B_##P##_AGE];                                  \
} while (0)

/* TLB._map.get: the slot holding vpage, or -1. */
static i64 tlb_slot(CTlb *t, i64 vpage) {
    i64 base = imod(vpage, t->nsets) * t->ways;
    i64 i;
    for (i = base; i < base + t->ways; i++)
        if (t->age[i] && t->vp[i] == vpage)
            return i;
    return -1;
}

/* TLB.lookup's LRU update of a hit slot. */
static void tlb_touch(CTlb *t, i64 i) {
    lru_stamp(t->clk, t->age, i / t->ways, i);
}

/* TLB.insert: refresh vpage's slot, else take the set's first way of
 * minimal age (an empty way while one is left, else the LRU way). */
static void tlb_insert(CTlb *t, i64 vpage, i64 ppage) {
    i64 i = tlb_slot(t, vpage);
    if (i < 0) {
        i64 base = imod(vpage, t->nsets) * t->ways;
        i = base + lru_victim(t->age, base, t->ways);
        t->vp[i] = vpage;
    }
    t->pp[i] = ppage;
    tlb_touch(t, i);
}

static i64 stlb_lookup(i64 vpage) {
    R[R_ST_ACC]++;
    i64 i = tlb_slot(&TST, vpage);
    if (i < 0)
        return -1;
    tlb_touch(&TST, i);
    R[R_ST_HITS]++;
    return TST.pp[i];
}

/* Open-addressed page-table hash (marshal exports the same probe
 * sequence).  Keys are nonnegative vpages; -1 marks an empty slot. */
static i64 *HK, *HV;
static i64 HMASK;
static i64 *WVP, *WPP;

static i64 pt_find(i64 vpage) {
    u64 h = ((u64)vpage * 0x9E3779B97F4A7C15ULL) >> 32;
    i64 i = (i64)(h & (u64)HMASK);
    for (;;) {
        i64 k = HK[i];
        if (k == vpage)
            return i;
        if (k == -1)
            return -1;
        i = (i + 1) & HMASK;
    }
}

/* MMU._physical_page (asid == 0 is a runner guard) + the walk log that
 * lets the marshal replay dict insertion order. */
static i64 physical_page(i64 vpage) {
    i64 slot = pt_find(vpage);
    if (slot >= 0)
        return HV[slot];
    i64 n = R[R_MMU_NEXT_PPAGE]++;
    i64 scrambled = (i64)(((u64)n * 2654435761ULL) & 0xFFFFFULL);
    i64 ppage = scrambled ^ (n >> 8);
    u64 h = ((u64)vpage * 0x9E3779B97F4A7C15ULL) >> 32;
    i64 i = (i64)(h & (u64)HMASK);
    while (HK[i] != -1)
        i = (i + 1) & HMASK;
    HK[i] = vpage;
    HV[i] = ppage;
    i64 wl = R[R_WALKLOG_LEN]++;
    WVP[wl] = vpage;
    WPP[wl] = ppage;
    return ppage;
}

/* MMU.translate_prefetch: the STLB's probe, else the dTLB's (TLB.probe:
 * no LRU update, no demand stats); -1 when both miss. */
static i64 translate_prefetch(i64 target) {
    i64 vpage = target >> LPB;
    d_D_STLB_PROBES++;
    i64 i = tlb_slot(&TST, vpage);
    if (i >= 0) {
        d_D_STLB_HITS++;
        return (TST.pp[i] << LPB) | (target & POM);
    }
    R[R_DT_PPROBES]++;
    i = tlb_slot(&TDT, vpage);
    if (i < 0) {
        R[R_MMU_DROPPED]++;
        return -1;
    }
    R[R_DT_PPROBE_HITS]++;
    return (TDT.pp[i] << LPB) | (target & POM);
}

/* ------------------------------------------------------------------ */
/* Prefetch queue (_FIFOQueue service times)                           */
/* ------------------------------------------------------------------ */

static f64 *PQST;
static i64 pq_len, pq_size;
static f64 pq_period;

static void pq_expire(i64 now) {
    f64 fnow = (f64)now;
    i64 n = 0;
    while (n < pq_len && PQST[n] <= fnow)
        n++;
    if (n > 0) {
        memmove(PQST, PQST + n, (size_t)(pq_len - n) * sizeof(f64));
        pq_len -= n;
    }
}

/* _FIFOQueue.push: the cycle the entry issues at (now plus its queueing
 * delay), or -1 when the queue is full at `now`. */
static i64 pq_push(i64 now) {
    pq_expire(now);
    if (pq_len >= pq_size)
        return -1;
    f64 start = (f64)now;
    if (pq_len && PQST[pq_len - 1] > start)
        start = PQST[pq_len - 1];
    f64 service = start + pq_period;
    PQST[pq_len++] = service;
    return now + (i64)(service - (f64)now);
}

/* ------------------------------------------------------------------ */
/* Core model scalars + window/loads buffers                           */
/* ------------------------------------------------------------------ */

static i64 c_instr, rob_size;
static f64 c_frontend, c_retire, c_rob_head;
static f64 f_issue_incr, f_retire_incr, f_issue_w, f_retire_w;
static i64 *WINK;
static f64 *WINR;
static i64 win_head, win_len;
static f64 *LOADSB;
static i64 loads_pos, loads_len, dep_window;

/* ------------------------------------------------------------------ */
/* Writeback chain (Hierarchy._handle_writeback)                       */
/* ------------------------------------------------------------------ */

static void handle_wb(int level, i64 tag, i64 now) {
    while (tag >= 0) {
        if (level == 0) {
            R[R_T12_WB]++;
            i64 v = cache_fill(&CL2, tag, now, now, 0, 0, -1, 0, 0);
            cache_mark_dirty(&CL2, tag);
            tag = v;
            level = 1;
        } else if (level == 1) {
            R[R_T2L_WB]++;
            i64 v = cache_fill(&CLL, tag, now, now, 0, 0, -1, 0, 0);
            cache_mark_dirty(&CLL, tag);
            tag = v;
            level = 2;
        } else {
            R[R_TLD_WB]++;
            dram_write(tag, now);
            break;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Lower levels, shared by the demand miss and the prefetch ladder     */
/* ------------------------------------------------------------------ */

/* Hierarchy._access_llc: the LLC hit, or the DRAM read and LLC fill, at
 * cycle t; returns the cycle the line is ready.  Only a demand counts,
 * trains DRRIP and consumes a prefetched line. */
static i64 access_llc(i64 pline, i64 t, int is_pf) {
    if (!is_pf)
        d_D_H_LLC_ACC++;
    i64 s3 = pline & CLL.set_mask;
    i64 w3 = cache_way(&CLL, s3, pline);
    if (w3 >= 0) {
        cache_touch(&CLL, s3, w3);
        i64 ci = s3 * CLL.ways + w3;
        i64 ready = t + CLL.lat;
        if (CLL.arr[ci] > ready)
            ready = CLL.arr[ci];
        if (!is_pf) {
            d_D_LLC_ACC++;
            d_D_LLC_HIT++;
            if (CLL.pref[ci]) {
                d_D_LLC_USEFUL++;
                CLL.pref[ci] = 0;
                if (CLL.org[ci] == 1)
                    d_D_PF_USEFUL++;
                else if (CLL.org[ci] == 2)
                    R[R_CREDIT2_USEFUL]++;
            }
        }
        return ready;
    }
    i64 mt3 = t + CLL.lat;
    if (is_pf) {
        d_D_TLD_PF++;
    } else {
        d_D_LLC_ACC++;
        d_D_LLC_MISS++;
        if (CLL.pol == POL_DRRIP)
            drrip_record_miss(&CLL, s3);
        d_D_H_LLC_MISS++;
        d_D_H_DRAM++;
        d_D_TLD_DEM++;
    }
    i64 ready = dram_read(pline, mt3);
    i64 v3 = cache_fill(&CLL, pline, mt3, ready, is_pf, 0, -1, 0, 0);
    if (v3 >= 0)
        handle_wb(2, v3, ready);
    return ready;
}

/* Hierarchy._access_l2: fetch pline for the L1D at cycle t; returns the
 * cycle the data reaches the L1D.  Only a demand counts, trains DRRIP,
 * consumes a prefetched line and promotes an in-flight prefetch. */
static i64 access_l2(i64 ip, i64 pline, i64 t, int is_pf) {
    i64 s2 = pline & CL2.set_mask;
    i64 w2 = cache_way(&CL2, s2, pline);
    if (w2 >= 0) {
        cache_touch(&CL2, s2, w2);
        i64 ci = s2 * CL2.ways + w2;
        i64 ready = t + CL2.lat;
        if (CL2.arr[ci] > ready)
            ready = CL2.arr[ci];
        if (!is_pf) {
            d_D_L2_ACC++;
            d_D_L2_HIT++;
            if (CL2.pref[ci]) {
                d_D_L2_USEFUL++;
                CL2.pref[ci] = 0;
                if (CL2.org[ci] == 1)
                    d_D_PF_USEFUL++;
                else if (CL2.org[ci] == 2)
                    R[R_CREDIT2_USEFUL]++;
            }
        }
        return ready;
    }
    if (!is_pf) {
        d_D_L2_ACC++;
        d_D_L2_MISS++;
        if (CL2.pol == POL_DRRIP)
            drrip_record_miss(&CL2, s2);
    }
    mshr_expire(&M2, t);
    i64 mi = mshr_find(&M2, pline);
    if (mi >= 0) {
        d_D_M2_MERGES++;
        M2.merged[mi]++;
        i64 wait = M2.ready[mi] - t;
        if (wait < 0)
            wait = 0;
        if (!is_pf && M2.ispf[mi]) {
            M2.ispf[mi] = 0;
            d_D_PF2_USEFUL++;
            d_D_PF2_LATE++;
            d_D_PF2_PROMOTED++;
        }
        return t + CL2.lat + wait;
    }
    i64 mt2 = t + CL2.lat;
    if (is_pf)
        d_D_T2L_PF++;
    else
        d_D_T2L_DEM++;
    i64 ready = access_llc(pline, mt2, is_pf);
    mshr_expire(&M2, mt2);
    if (M2.count < M2.size)
        mshr_allocate(&M2, pline, mt2, ready, is_pf, ip, 0);
    /* Copies installed on the way back up carry no origin. */
    i64 v2 = cache_fill(&CL2, pline, mt2, ready, is_pf, ip, -1, 0, 0);
    if (v2 >= 0)
        handle_wb(1, v2, ready);
    return ready;
}

/* ------------------------------------------------------------------ */
/* Berti history table (flat rings; chains rebuilt on import)          */
/* ------------------------------------------------------------------ */

static i64 *HT, *HL, *HTS, *HO, *HCLK, *HPTR;
static i64 h_sets, h_ways, ts_mask, line_mask, htag_mask;
static i64 *SCR;

static void hist_insert(i64 key, i64 line, i64 now) {
    R[R_H_INSERTS]++;
    i64 folded = key ^ (key >> 3) ^ (key >> 7);
    i64 sidx = imod(folded, h_sets);
    i64 ptr = HPTR[sidx];
    HPTR[sidx] = (ptr + 1) % h_ways;
    i64 clock = HCLK[sidx] + 1;
    HCLK[sidx] = clock;
    i64 idx = sidx * h_ways + ptr;
    HT[idx] = ifdiv(key, h_sets) & htag_mask;
    HL[idx] = line & line_mask;
    HTS[idx] = now & ts_mask;
    HO[idx] = clock;
}

/* search_timely_into: newest-first ring walk == reversed chain order.
 * Timely deltas land in SCR; returns the count. */
static i64 hist_search(i64 key, i64 line, i64 demand_time, i64 latency) {
    R[R_H_SEARCHES]++;
    i64 folded = key ^ (key >> 3) ^ (key >> 7);
    i64 sidx = imod(folded, h_sets);
    i64 tag = ifdiv(key, h_sets) & htag_mask;
    i64 now_ts = demand_time & ts_mask;
    i64 line_masked = line & line_mask;
    i64 half_range = (ts_mask >> 1) + 1;
    i64 sign_bit = (line_mask >> 1) + 1;
    i64 line_span = line_mask + 1;
    i64 base = sidx * h_ways;
    i64 ptr = HPTR[sidx];
    i64 n = 0;
    i64 j;
    for (j = 0; j < h_ways; j++) {
        i64 w = base + imod(ptr - 1 - j, h_ways);
        i64 t = HT[w];
        if (t == -1)
            break;
        if (t != tag)
            continue;
        i64 age = (now_ts - HTS[w]) & ts_mask;
        if (age >= half_range || age < latency)
            continue;
        i64 delta = (line_masked - HL[w]) & line_mask;
        if (delta & sign_bit)
            delta -= line_span;
        if (delta != 0 && delta >= R[R_DELTA_LO] && delta <= R[R_DELTA_HI]) {
            SCR[n++] = delta;
            if (n >= R[R_MAX_DSEARCH])
                break;
        }
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* Berti delta table                                                   */
/* ------------------------------------------------------------------ */

static i64 *EV, *ET, *EC, *EO, *EW, *ES;
static i64 *SD, *SCV, *SST;
static i64 e_count, e_per;
static i64 SEL_D[64], SEL_S[64];

static i64 dt_tag_of(i64 key) {
    i64 h = key;
    h ^= h >> 10;
    h ^= h >> 20;
    return h & R[R_DTAG_MASK];
}

/* Valid entries hold unique tags (allocate only runs on a tag miss),
 * so a linear scan is the dict lookup. */
static i64 dt_by_tag(i64 tag) {
    i64 e;
    for (e = 0; e < e_count; e++)
        if (EV[e] && ET[e] == tag)
            return e;
    return -1;
}

static i64 dt_by_delta(i64 e, i64 delta) {
    i64 base = e * e_per;
    i64 cnt = ES[e];
    i64 s;
    for (s = 0; s < cnt; s++)
        if (SD[base + s] == delta)
            return s;
    return -1;
}

static i64 dt_allocate(i64 tag) {
    i64 victim = R[R_DT_FIFO_PTR];
    R[R_DT_FIFO_PTR] = (victim + 1) % e_count;
    i64 clock = ++R[R_DT_FIFO_CLOCK];
    EV[victim] = 1;
    ET[victim] = tag;
    EC[victim] = 0;
    EO[victim] = clock;
    EW[victim] = 0;
    ES[victim] = 0;
    i64 base = victim * e_per;
    i64 i;
    for (i = 0; i < e_per; i++) {
        SD[base + i] = 0;
        SCV[base + i] = 0;
        SST[base + i] = 0;
    }
    return victim;
}

static void dt_close_phase(i64 e) {
    R[R_DT_PHASES]++;
    i64 base = e * e_per;
    i64 cnt = ES[e];
    i64 order[64];
    i64 i, j, k;
    /* Stable insertion sort, coverage descending (strict shift ==
     * Python's stable sorted(reverse=True)). */
    for (i = 0; i < cnt; i++) {
        j = i;
        while (j > 0 && SCV[base + order[j - 1]] < SCV[base + i]) {
            order[j] = order[j - 1];
            j--;
        }
        order[j] = i;
    }
    i64 promoted = 0;
    i64 maxpf = R[R_MAX_PF_DELTAS];
    for (k = 0; k < cnt; k++) {
        i64 s = base + order[k];
        f64 fcov = (f64)SCV[s];
        if (fcov > F[FR_F_HIGH] && promoted < maxpf) {
            SST[s] = 1;
            promoted++;
        } else if (fcov > F[FR_F_MEDIUM] && promoted < maxpf) {
            SST[s] = (fcov < F[FR_F_REPL]) ? 3 : 2;
            promoted++;
        } else {
            SST[s] = 0;
        }
        SCV[s] = 0;
    }
    EC[e] = 0;
    EW[e] = 1;
}

/* The victim for a newly seen delta in a full entry: the lowest
 * (coverage, slot) among the NO_PREF / L2_PREF_REPL slots -- the pair
 * DeltaTable's lazy heap pops and the reference table's min() picks.
 * -1 when no slot may be replaced. */
static i64 dt_victim(i64 base) {
    i64 victim = -1, best = INT64_MAX, s;
    for (s = 0; s < e_per; s++) {
        i64 st = SST[base + s];
        if ((st == 0 || st == 3) && SCV[base + s] < best) {
            victim = s;
            best = SCV[base + s];
        }
    }
    return victim;
}

/* record_search runs unconditionally after a clamped search — it
 * allocates/bumps the context entry even when no deltas were timely. */
static void dt_record_search(i64 key, i64 n_deltas) {
    i64 tag = dt_tag_of(key);
    i64 e = dt_by_tag(tag);
    if (e < 0)
        e = dt_allocate(tag);
    i64 counter = ++EC[e];
    i64 base = e * e_per;
    i64 k;
    for (k = 0; k < n_deltas; k++) {
        i64 delta = SCR[k];
        i64 s = dt_by_delta(e, delta);
        if (s >= 0) {
            if (SCV[base + s] < R[R_COV_CAP])
                SCV[base + s]++;
            continue;
        }
        i64 slot;
        if (ES[e] < e_per) {
            slot = ES[e]++;
        } else {
            slot = dt_victim(base);
            if (slot < 0) {
                R[R_DT_DISCARDED]++;
                continue;
            }
        }
        SD[base + slot] = delta;
        SCV[base + slot] = 1;
        SST[base + slot] = 0;
    }
    if (counter >= R[R_COUNTER_MAX])
        dt_close_phase(e);
}

/* prefetch_deltas: two stable passes == sort(key: status != L1D_PREF)
 * + truncate; warmup path selects by coverage threshold. */
static i64 dt_prefetch_deltas(i64 key) {
    i64 tag = dt_tag_of(key);
    i64 e = dt_by_tag(tag);
    if (e < 0)
        return 0;
    i64 base = e * e_per;
    i64 cnt = ES[e];
    i64 maxpf = R[R_MAX_PF_DELTAS];
    i64 n = 0;
    i64 s;
    if (EW[e]) {
        for (s = 0; s < cnt && n < maxpf; s++) {
            if (SST[base + s] == 1) {
                SEL_D[n] = SD[base + s];
                SEL_S[n] = 1;
                n++;
            }
        }
        for (s = 0; s < cnt && n < maxpf; s++) {
            i64 st = SST[base + s];
            if (st != 0 && st != 1) {
                SEL_D[n] = SD[base + s];
                SEL_S[n] = st;
                n++;
            }
        }
        return n;
    }
    if (EC[e] < R[R_WARM_MIN])
        return 0;
    f64 threshold = F[FR_F_WARM_WM] * (f64)EC[e];
    for (s = 0; s < cnt && n < maxpf; s++) {
        if ((f64)SCV[base + s] >= threshold) {
            SEL_D[n] = SD[base + s];
            SEL_S[n] = 1;
            n++;
        }
    }
    return n;
}

/* on_fill_kernel / on_prefetch_hit_kernel tail: callers guard the
 * latency clamp; the record is unconditional. */
static void berti_learn(i64 ip, i64 vline, i64 demand_time, i64 latency) {
    i64 n = hist_search(ip, vline, demand_time, latency);
    dt_record_search(ip, n);
}

/* ------------------------------------------------------------------ */
/* Prefetch issue (Hierarchy._issue_prefetch and its two prologues)    */
/* ------------------------------------------------------------------ */

static i64 m1_reserve;

/* One suggestion after its prologue counted it: translate_prefetch and
 * the presence filter of the fill level's cache, then the issue tail
 * Hierarchy._issue_prefetch (the L1D MSHR dedup, PQ admission, MSHR
 * reservation and the fill walk). */
static void issue_prefetch(i64 target, int fill_l1, i64 ip, i64 now) {
    i64 pline = translate_prefetch(target);
    if (pline < 0) {
        d_D_PF_DTRANS++;
        return;
    }
    CCache *c = fill_l1 ? &CL1 : &CL2;
    i64 s = pline & c->set_mask;
    if (cache_way(c, s, pline) >= 0) {
        d_D_PF_DDUP++;
        return;
    }
    if (fill_l1) {
        mshr_expire(&M1, now);
        if (mshr_find(&M1, pline) >= 0) {
            d_D_PF_DDUP++;
            return;
        }
    }
    i64 issue_time = pq_push(now);
    if (issue_time < 0) {
        d_D_PF_DQ++;
        return;
    }
    i64 ready;
    if (fill_l1) {
        mshr_expire(&M1, issue_time);
        if (M1.count >= m1_reserve) {
            d_D_PF_DM++;
            return;
        }
        ready = access_l2(ip, pline, issue_time, 1);
        mshr_allocate(&M1, pline, issue_time, ready, 1, ip, target);
    } else {
        /* The L2 dedup probe runs after the PQ slot is consumed. */
        mshr_expire(&M2, now);
        if (cache_way(&CL2, s, pline) >= 0
            || mshr_find(&M2, pline) >= 0) {
            d_D_PF_DDUP++;
            return;
        }
        mshr_expire(&M2, issue_time);
        if (M2.count >= M2.size) {
            d_D_PF_DM++;
            return;
        }
        ready = access_llc(pline, issue_time + CL2.lat, 1);
        mshr_allocate(&M2, pline, issue_time, ready, 1, ip, 0);
        d_D_T2L_PF++;
    }
    i64 latency = ready - now;
    /* The prefetch fill's victim is dropped (no writeback chain). */
    cache_fill(c, pline, issue_time, ready, 1, ip, target,
               (0 < latency && latency < LATENCY_CAP) ? latency : 0, 1);
    d_D_T12_PF++;
    d_D_PF_FILLS++;
    d_D_PF_ISSUED++;
}

/* Berti's prologue (_run_l1d_prefetcher_on_access's kernel loop): a
 * delta whose target underflows is skipped uncounted, cross-page
 * suppression precedes the suggested count, and an L1D_PREF delta fills
 * the L1D only while the L1D MSHR is below the watermark. */
static void berti_issue(i64 n_sel, i64 vline, i64 ip, i64 now,
                        int mshr_below) {
    i64 k;
    for (k = 0; k < n_sel; k++) {
        i64 target = vline + SEL_D[k];
        if (target < 0)
            continue;
        if (!R[R_CROSS_OK] && (vline >> LPB) != (target >> LPB)) {
            d_D_CROSS++;
            continue;
        }
        d_D_PF_SUGG++;
        issue_prefetch(target, SEL_S[k] == 1 && mshr_below, ip, now);
    }
}

/* _run_l1d_prefetcher_on_access for Berti at cycle t: on_access_kernel
 * (a miss is recorded in the history table), then the ladder over the
 * delta table's predictions, gated on the L1D MSHR occupancy. */
static void berti_on_access(i64 ip, i64 vline, i64 t, int miss) {
    mshr_expire(&M1, t);
    f64 mshr_occ = M1.size ? (f64)M1.count / (f64)M1.size : 0.0;
    pq_expire(t);
    if (miss)
        hist_insert(ip, vline, t);
    i64 n_sel = dt_prefetch_deltas(ip);
    if (n_sel)
        berti_issue(n_sel, vline, ip, t, mshr_occ < F[FR_F_WATERMARK]);
}

/* ------------------------------------------------------------------ */
/* IPCP (IPCPPrefetcher.on_access over its own columns)                */
/* ------------------------------------------------------------------ */

/* IP table (one row per entry), CSPT (one row per signature slot),
 * region monitor (REGION_ROWS rows) and the clock / live-row scalars. */
static i64 *PV, *PT, *PL, *PS, *PC, *PG;
static i64 *CST, *CCF;
static i64 *GR, *GB, *GL, *GD;
static i64 *PSC;
static i64 p_entries, c_entries, cs_degree, cplx_degree, gs_degree;
static i64 region_lines;

/* ipcp.py's CS_/CPLX_CONF_MAX and CS_/CPLX_THRESHOLD, and its 10-bit
 * signature (SIG_BITS) and IP tag. */
#define IPCP_CONF_MAX 3
#define IPCP_THRESHOLD 2
#define IPCP_MASK 0x3FF
#define IPCP_SIG(sig, stride) ((((sig) << 1) ^ ((stride) & 0x3F)) & IPCP_MASK)

/* IPCPPrefetcher._gs: the GS suggestions land in SEL_D/SEL_S from 0;
 * returns their count (0 when the region is not dense). */
static i64 ipcp_gs(i64 line) {
    i64 region = ifdiv(line, region_lines);
    i64 live = PSC[1];
    i64 row, bitmap, last, k, n = 0;
    for (row = 0; row < live; row++)
        if (GR[row] == region)
            break;
    if (row == live) {
        if (live > 64)
            row = 0; /* epoch reset: every live row is dropped */
        PSC[1] = row + 1;
        GR[row] = region;
        bitmap = 0;
        last = line;
    } else {
        bitmap = GB[row];
        last = GL[row];
    }
    bitmap |= (i64)1 << imod(line, region_lines);
    i64 dir = line >= last ? 1 : -1;
    GB[row] = bitmap;
    GL[row] = line;
    GD[row] = dir;
    if (__builtin_popcountll((u64)bitmap) >= region_lines / 3) {
        for (k = 1; k <= gs_degree; k++) {
            SEL_D[n] = line + dir * k;
            SEL_S[n] = k <= 2 ? 1 : 2;
            n++;
        }
    }
    return n;
}

/* IPCPPrefetcher.on_access: train CS and CPLX, then classify.  The
 * suggestions' target lines land in SEL_D and their fill levels (1 =
 * L1D, 2 = L2) in SEL_S; returns their count. */
static i64 ipcp_on_access(i64 ip, i64 line) {
    PSC[0]++;
    i64 e = imod(ip, p_entries);
    i64 tag = ifdiv(ip, p_entries) & IPCP_MASK;
    i64 last, stride, conf, sig, k, n = 0;
    if (!PV[e] || PT[e] != tag) {
        PV[e] = 1;
        PT[e] = tag;
        PS[e] = PC[e] = PG[e] = 0;
        last = stride = conf = sig = 0;
    } else {
        last = PL[e];
        stride = PS[e];
        conf = PC[e];
        sig = PG[e];
    }
    if (last != 0) {
        i64 step = line - last;
        if (step != 0) {
            /* CS training (2-bit confidence). */
            if (step == stride) {
                if (conf < IPCP_CONF_MAX)
                    conf++;
            } else if (conf > 1) {
                conf--;
            } else {
                conf = 0;
                stride = step;
            }
            /* CPLX training: the old signature predicts this stride. */
            i64 slot = imod(sig, c_entries);
            if (CST[slot] == step) {
                if (CCF[slot] < IPCP_CONF_MAX)
                    CCF[slot]++;
            } else {
                i64 c = CCF[slot] - 1;
                if (c <= 0) {
                    CST[slot] = step;
                    c = 0;
                }
                CCF[slot] = c;
            }
            sig = IPCP_SIG(sig, step);
            PS[e] = stride;
            PC[e] = conf;
            PG[e] = sig;
        }
    }
    PL[e] = line;
    if (conf >= IPCP_THRESHOLD && stride != 0) {
        for (k = 1; k <= cs_degree; k++) {
            SEL_D[n] = line + stride * k;
            SEL_S[n] = 1;
            n++;
        }
        return n;
    }
    i64 target = line;
    for (k = 0; k < cplx_degree; k++) {
        i64 slot = imod(sig, c_entries);
        i64 st = CST[slot];
        if (CCF[slot] < IPCP_THRESHOLD || st == 0)
            break;
        target += st;
        SEL_D[n] = target;
        SEL_S[n] = k < 2 ? 1 : 2;
        n++;
        sig = IPCP_SIG(sig, st);
    }
    if (n)
        return n;
    n = ipcp_gs(line);
    if (n)
        return n;
    SEL_D[0] = line + 1; /* next-line fallback */
    SEL_S[0] = 1;
    return 1;
}

/* _run_l1d_prefetcher_on_access for IPCP at cycle t: the MSHR and PQ
 * sampling, on_access, then issue_l1d_prefetch's prologue -- each
 * suggestion is counted first, a negative target is a dropped
 * translation, and no cross-page check runs. */
static void ipcp_access(i64 ip, i64 vline, i64 t) {
    mshr_expire(&M1, t);
    pq_expire(t);
    i64 n_sel = ipcp_on_access(ip, vline);
    i64 k;
    for (k = 0; k < n_sel; k++) {
        i64 target = SEL_D[k];
        d_D_PF_SUGG++;
        if (target < 0) {
            d_D_PF_DTRANS++;
            continue;
        }
        issue_prefetch(target, SEL_S[k] == 1, ip, t);
    }
}

/* The L1D prefetcher's on_access at cycle t, by kind. */
static void prefetcher_on_access(i64 kind, i64 ip, i64 vline, i64 t,
                                 int miss) {
    if (kind == PF_BERTI)
        berti_on_access(ip, vline, t, miss);
    else
        ipcp_access(ip, vline, t);
}

/* ------------------------------------------------------------------ */
/* Span state load/save                                                */
/* ------------------------------------------------------------------ */

static i64 *T_IPS, *T_ADDRS, *T_WRITES, *T_GAPS, *T_DEPS;
static i64 *T_VLINES, *T_VPAGES;

static void load_all(void) {
    LOAD_CACHE(&CL1, L1);
    LOAD_CACHE(&CL2, L2);
    LOAD_CACHE(&CLL, LL);
    LOAD_MSHR(&M1, M1);
    LOAD_MSHR(&M2, M2);
    LOAD_TLB(&TDT, DT);
    LOAD_TLB(&TST, ST);
    m1_reserve = M1.size - 2;

    HK = (i64 *)B[B_HASH_K];
    HV = (i64 *)B[B_HASH_V];
    HMASK = R[R_HASH_CAP] - 1;
    WVP = (i64 *)B[B_WALK_VP];
    WPP = (i64 *)B[B_WALK_PP];

    DR.banks = R[R_DR_BANKS];
    DR.lpr = R[R_DR_LPR];
    DR.trp = R[R_DR_TRP];
    DR.trcd = R[R_DR_TRCD];
    DR.tcas = R[R_DR_TCAS];
    DR.wq_size = R[R_DR_WQ_SIZE];
    DR.pendw_len = R[R_DR_PENDW_LEN];
    DR.reads = R[R_DR_READS];
    DR.writes = R[R_DR_WRITES];
    DR.rowh = R[R_DR_ROWH];
    DR.rowm = R[R_DR_ROWM];
    DR.rowc = R[R_DR_ROWC];
    DR.lat_total = R[R_DR_LAT_TOTAL];
    DR.bus_free = F[FR_F_BUSFREE];
    DR.burst = F[FR_F_BURST];
    DR.wq_thresh = F[FR_F_WQ_THRESH];
    DR.bank_row = (i64 *)B[B_BANK_ROW];
    DR.bank_busy = (i64 *)B[B_BANK_BUSY];
    DR.pendw = (i64 *)B[B_PENDW];

    PQST = (f64 *)B[B_PQ_ST];
    pq_len = R[R_PQ_LEN];
    pq_size = R[R_PQ_SIZE];
    pq_period = F[FR_F_PERIOD];

    c_instr = R[R_C_INSTR];
    rob_size = R[R_ROB_SIZE];
    dep_window = R[R_DEP_WINDOW];
    c_frontend = F[FR_F_FRONTEND];
    c_retire = F[FR_F_RETIRE];
    c_rob_head = F[FR_F_ROB_HEAD];
    f_issue_incr = F[FR_F_ISSUE_INCR];
    f_retire_incr = F[FR_F_RETIRE_INCR];
    f_issue_w = F[FR_F_ISSUE_W];
    f_retire_w = F[FR_F_RETIRE_W];
    WINK = (i64 *)B[B_WIN_K];
    WINR = (f64 *)B[B_WIN_RET];
    win_head = 0;
    win_len = R[R_WIN_LEN];
    LOADSB = (f64 *)B[B_LOADS];
    loads_pos = R[R_LOADS_POS];
    loads_len = R[R_LOADS_LEN];

    T_IPS = (i64 *)B[B_T_IPS];
    T_ADDRS = (i64 *)B[B_T_ADDRS];
    T_WRITES = (i64 *)B[B_T_WRITES];
    T_GAPS = (i64 *)B[B_T_GAPS];
    T_DEPS = (i64 *)B[B_T_DEPS];
    T_VLINES = (i64 *)B[B_T_VLINES];
    T_VPAGES = (i64 *)B[B_T_VPAGES];

    if (R[R_PF_KIND] == PF_BERTI) {
        HT = (i64 *)B[B_H_TAGS];
        HL = (i64 *)B[B_H_LINES];
        HTS = (i64 *)B[B_H_TSS];
        HO = (i64 *)B[B_H_ORDERS];
        HCLK = (i64 *)B[B_H_CLOCK];
        HPTR = (i64 *)B[B_H_PTR];
        h_sets = R[R_H_SETS];
        h_ways = R[R_H_WAYS];
        ts_mask = R[R_TS_MASK];
        line_mask = R[R_LINE_MASK];
        htag_mask = R[R_HTAG_MASK];
        SCR = (i64 *)B[B_SCRATCH];
        EV = (i64 *)B[B_E_VALID];
        ET = (i64 *)B[B_E_TAG];
        EC = (i64 *)B[B_E_CTR];
        EO = (i64 *)B[B_E_ORDER];
        EW = (i64 *)B[B_E_WARMED];
        ES = (i64 *)B[B_E_SCOUNT];
        SD = (i64 *)B[B_S_DELTA];
        SCV = (i64 *)B[B_S_COV];
        SST = (i64 *)B[B_S_STATUS];
        e_count = R[R_E_COUNT];
        e_per = R[R_E_PER];
    } else if (R[R_PF_KIND] == PF_IPCP) {
        PV = (i64 *)B[B_IPT_VALID];
        PT = (i64 *)B[B_IPT_TAG];
        PL = (i64 *)B[B_IPT_LAST];
        PS = (i64 *)B[B_IPT_STRIDE];
        PC = (i64 *)B[B_IPT_CONF];
        PG = (i64 *)B[B_IPT_SIG];
        CST = (i64 *)B[B_CSPT_STRIDE];
        CCF = (i64 *)B[B_CSPT_CONF];
        GR = (i64 *)B[B_RG_REGION];
        GB = (i64 *)B[B_RG_BITMAP];
        GL = (i64 *)B[B_RG_LAST];
        GD = (i64 *)B[B_RG_DIR];
        PSC = (i64 *)B[B_IPCP_SCALARS];
        p_entries = R[R_IPT_ENTRIES];
        c_entries = R[R_CSPT_ENTRIES];
        cs_degree = R[R_CS_DEGREE];
        cplx_degree = R[R_CPLX_DEGREE];
        gs_degree = R[R_GS_DEGREE];
        region_lines = R[R_REGION_LINES];
    }

#define LOAD_DELTA(n) d_##n = R[R_##n];
    DELTA_LIST(LOAD_DELTA)
#undef LOAD_DELTA
}

static void save_all(void) {
    SAVE_CACHE(&CL1, L1);
    SAVE_CACHE(&CL2, L2);
    SAVE_CACHE(&CLL, LL);
    SAVE_MSHR(&M1, M1);
    SAVE_MSHR(&M2, M2);

    R[R_DR_PENDW_LEN] = DR.pendw_len;
    R[R_DR_READS] = DR.reads;
    R[R_DR_WRITES] = DR.writes;
    R[R_DR_ROWH] = DR.rowh;
    R[R_DR_ROWM] = DR.rowm;
    R[R_DR_ROWC] = DR.rowc;
    R[R_DR_LAT_TOTAL] = DR.lat_total;
    F[FR_F_BUSFREE] = DR.bus_free;

    R[R_PQ_LEN] = pq_len;

    R[R_C_INSTR] = c_instr;
    F[FR_F_FRONTEND] = c_frontend;
    F[FR_F_RETIRE] = c_retire;
    F[FR_F_ROB_HEAD] = c_rob_head;
    if (win_head > 0 && win_len > 0) {
        memmove(WINK, WINK + win_head, (size_t)win_len * sizeof(i64));
        memmove(WINR, WINR + win_head, (size_t)win_len * sizeof(f64));
    }
    R[R_WIN_LEN] = win_len;
    R[R_LOADS_POS] = loads_pos;
    R[R_LOADS_LEN] = loads_len;

#define SAVE_DELTA(n) R[R_##n] = d_##n;
    DELTA_LIST(SAVE_DELTA)
#undef SAVE_DELTA
}

/* ------------------------------------------------------------------ */
/* The record loop (issue_memory + demand_access per record)           */
/* ------------------------------------------------------------------ */

static void run(void) {
    i64 lo = R[R_LO], hi = R[R_HI];
    i64 kind = R[R_PF_KIND];
    i64 lat_mask = kind == PF_BERTI ? R[R_LAT_MASK] : 0;
    i64 r;
    for (r = lo; r < hi; r++) {
        i64 ip = T_IPS[r];
        i64 is_write = T_WRITES[r];
        i64 gap = T_GAPS[r];
        i64 dep = T_DEPS[r];

        /* CoreModel.advance_nonmem */
        if (gap > 0) {
            c_instr += gap;
            c_frontend += (f64)gap / f_issue_w;
            f64 floor_v = (f64)c_instr / f_retire_w;
            if (floor_v > c_retire)
                c_retire = floor_v;
        }
        /* CoreModel.issue_memory (front half) */
        i64 k_i = c_instr;
        c_instr = k_i + 1;
        c_frontend += f_issue_incr;
        f64 frontend = c_frontend;
        i64 horizon = k_i - rob_size;
        while (win_len && WINK[win_head] <= horizon) {
            f64 retired = WINR[win_head];
            if (retired > c_rob_head)
                c_rob_head = retired;
            win_head++;
            win_len--;
        }
        f64 issue_t = frontend > c_rob_head ? frontend : c_rob_head;
        if (dep > 0 && dep <= loads_len) {
            f64 dep_ready =
                LOADSB[imod(loads_pos + loads_len - dep, dep_window)];
            if (dep_ready > issue_t)
                issue_t = dep_ready;
        }
        i64 now = (i64)issue_t;

        /* MMU.translate_demand */
        i64 vline = T_VLINES[r];
        i64 vpage = T_VPAGES[r];
        d_D_DT_ACC++;
        i64 pline;
        i64 trans_latency;
        i64 di = tlb_slot(&TDT, vpage);
        if (di >= 0) {
            tlb_touch(&TDT, di);
            d_D_DT_HIT++;
            pline = (TDT.pp[di] << LPB) | (vline & POM);
            trans_latency = R[R_DT_LAT];
        } else {
            trans_latency = R[R_MISS_TRANS_LAT];
            i64 pp = stlb_lookup(vpage);
            if (pp < 0) {
                pp = physical_page(vpage);
                R[R_MMU_WALKS]++;
                trans_latency += R[R_WALK_LAT];
                tlb_insert(&TST, vpage, pp);
            }
            tlb_insert(&TDT, vpage, pp);
            pline = (pp << LPB) | (vline & POM);
        }
        i64 t = now + trans_latency;

        i64 latency;
        d_D_L1_ACC++;
        i64 s1 = pline & CL1.set_mask;
        i64 way = cache_way(&CL1, s1, pline);
        if (way >= 0) {
            /* ------------------------------ L1D hit */
            d_D_L1_HIT++;
            cache_touch(&CL1, s1, way);
            i64 li = s1 * CL1.ways + way;
            latency = trans_latency + CL1.lat;
            i64 residual = CL1.arr[li] - (t + CL1.lat);
            if (residual < 0)
                residual = 0;
            latency += residual;
            if (CL1.pref[li]) {
                int was_late = residual > 0;
                d_D_L1_USEFUL++;
                if (was_late)
                    d_D_L1_LATE++;
                CL1.pref[li] = 0;
                if (CL1.org[li] != 2) {
                    d_D_PF_USEFUL++;
                    if (was_late)
                        d_D_PF_LATE++;
                } else {
                    R[R_CREDIT2_USEFUL]++;
                    if (was_late)
                        R[R_CREDIT2_LATE]++;
                }
                i64 pf_lat_v = CL1.pflat[li];
                CL1.pflat[li] = 0;
                if (kind) {
                    /* _notify_l1d_prefetch_hit: its MSHR sampling runs
                     * for every prefetcher; only Berti learns. */
                    mshr_expire(&M1, t);
                    if (kind == PF_BERTI) {
                        hist_insert(ip, vline, t);
                        if (0 < pf_lat_v && pf_lat_v <= lat_mask)
                            berti_learn(ip, vline, t, pf_lat_v);
                    }
                }
            }
            if (is_write)
                CL1.dirty[li] = 1;
            if (kind)
                prefetcher_on_access(kind, ip, vline, t, 0);
        } else {
            /* ------------------------------ L1D miss */
            d_D_L1_MISS++;
            if (CL1.pol == POL_DRRIP)
                drrip_record_miss(&CL1, pline & CL1.set_mask);
            mshr_expire(&M1, t);
            i64 mi = mshr_find(&M1, pline);
            if (mi >= 0) {
                /* In-flight fetch of the same line: merge. */
                d_D_M1_MERGES++;
                M1.merged[mi]++;
                i64 wait = M1.ready[mi] - t;
                if (wait < 0)
                    wait = 0;
                if (M1.ispf[mi]) {
                    M1.ispf[mi] = 0;
                    d_D_PF_USEFUL++;
                    d_D_PF_LATE++;
                    d_D_PF_PROMOTED++;
                    if (kind) {
                        i64 pf_lat_v = M1.ready[mi] - M1.alloc[mi];
                        if (pf_lat_v < 1)
                            pf_lat_v = 1;
                        mshr_expire(&M1, t);
                        if (kind == PF_BERTI) {
                            hist_insert(ip, vline, t);
                            if (0 < pf_lat_v && pf_lat_v <= lat_mask)
                                berti_learn(ip, vline, t, pf_lat_v);
                        }
                    }
                }
                if (kind)
                    prefetcher_on_access(kind, ip, vline, t, 1);
                latency = trans_latency + CL1.lat + wait;
            } else {
                /* True miss: fetch from L2 (and below). */
                i64 detect_time = t + CL1.lat;
                i64 miss_time = detect_time;
                mshr_expire(&M1, miss_time);
                if (M1.count >= M1.size) {
                    i64 earliest = M1.count ? M1.min_ready : miss_time;
                    if (earliest > miss_time)
                        miss_time = earliest;
                }
                d_D_T12_DEM++;
                i64 ready = access_l2(ip, pline, miss_time, 0);
                mshr_allocate(&M1, pline, miss_time, ready, 0, ip, vline);
                i64 v1 = cache_fill(&CL1, pline, miss_time, ready,
                                    0, ip, vline, 0, 0);
                if (v1 >= 0)
                    handle_wb(0, v1, ready);
                if (is_write)
                    cache_mark_dirty(&CL1, pline);
                if (kind)
                    prefetcher_on_access(kind, ip, vline, t, 1);
                if (kind == PF_BERTI) {
                    /* on_fill_kernel (demand fill); IPCP's on_fill is
                     * the base no-op. */
                    i64 fl = ready - miss_time;
                    if (0 < fl && fl <= lat_mask)
                        berti_learn(ip, vline, miss_time, fl);
                }
                latency = trans_latency + CL1.lat + (ready - detect_time);
            }
        }

        /* CoreModel.issue_memory (back half) */
        f64 completion;
        if (is_write) {
            completion = issue_t + 1.0;
        } else {
            completion = issue_t + (f64)latency;
            if (loads_len < dep_window) {
                LOADSB[imod(loads_pos + loads_len, dep_window)] = completion;
                loads_len++;
            } else {
                LOADSB[loads_pos] = completion;
                loads_pos = imod(loads_pos + 1, dep_window);
            }
        }
        f64 retire = c_retire + f_retire_incr;
        if (completion > retire)
            retire = completion;
        c_retire = retire;
        WINK[win_head + win_len] = k_i;
        WINR[win_head + win_len] = retire;
        win_len++;
    }
}

/* ------------------------------------------------------------------ */
/* Entry point                                                         */
/* ------------------------------------------------------------------ */

i64 repro_run_span(i64 *R_, f64 *F_, void **B_) {
    R = R_;
    F = F_;
    B = B_;
    if (setjmp(err_jmp)) {
        save_all();
        return R[R_ERR];
    }
    load_all();
    run();
    save_all();
    return 0;
}
