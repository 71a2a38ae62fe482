"""Figure 3 (and §II-B motivation): per-IP local deltas vs. one global
delta on the mcf-like trace.

The paper shows BOP's single global delta (+62 for mcf-1554B) covers ~2 %
of accesses while Berti's per-IP deltas give high coverage.  We reproduce
the comparison: BOP (global) vs. Berti (local) coverage and speedup on
mcf_s-1554B, plus the per-IP deltas Berti actually selected.
"""

from common import SCALE, once, run, save_report, simulate

from repro.analysis.report import format_table
from repro.core.berti import BertiPrefetcher
from repro.core.delta_table import STATUS_NAMES
from repro.prefetchers.bop import BOPPrefetcher
from repro.workloads.spec_like import mcf_s_1554


def test_fig03_local_deltas_beat_global(benchmark):
    def compute():
        trace = mcf_s_1554(SCALE)
        base = run(trace, "ip_stride")
        none = run(trace, "none")
        bop = simulate(trace, l1d_prefetcher=BOPPrefetcher())
        berti_pf = BertiPrefetcher()
        berti = simulate(trace, l1d_prefetcher=berti_pf)

        def coverage(r):
            if none.l1d_demand_misses == 0:
                return 0.0
            covered = none.l1d_demand_misses - r.l1d_demand_misses
            return max(0.0, covered / none.l1d_demand_misses)

        rows = [
            ["bop (global delta)", bop.speedup_over(base), coverage(bop),
             bop.pf_l1d.accuracy],
            ["berti (local deltas)", berti.speedup_over(base),
             coverage(berti), berti.pf_l1d.accuracy],
        ]
        # Dump the per-IP deltas Berti selected (the gray lines of Fig 3).
        deltas = []
        for ip in (0x402DC7, 0x402E10, 0x403112):
            selected = [
                (d, STATUS_NAMES[s])
                for d, s in berti_pf.deltas.prefetch_deltas(ip)
            ]
            deltas.append([hex(ip), str(selected[:6])])
        return rows, deltas

    (rows, deltas) = once(benchmark, compute)
    text = format_table(
        ["prefetcher", "speedup vs ip-stride", "L1D coverage", "accuracy"],
        rows,
        title=(
            "Figure 3 — global (BOP) vs local (Berti) deltas on mcf-1554B\n"
            "(paper: BOP covers ~2%, Berti covers most accesses)"
        ),
    )
    text += "\n\nBerti per-IP selected deltas:\n" + format_table(
        ["IP", "deltas (delta, tier)"], deltas
    )
    save_report("fig03_local_vs_global", text)

    bop_row, berti_row = rows
    assert berti_row[2] > bop_row[2] + 0.2          # far higher coverage
    assert berti_row[1] > bop_row[1]                # and higher speedup
    assert any(d for __, d in deltas)               # per-IP deltas differ
