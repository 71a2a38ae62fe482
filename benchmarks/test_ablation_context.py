"""Context ablation: per-IP Berti vs its per-page DPC-3 ancestor, plus
the §V comparisons (VLDP as an extra L2 baseline; Pythia adds <1 % on
top of Berti).

Paper anchors: §I ("inspired by Berti from DPC-3", which was per-page);
§V "with Berti at the L1D, we find negligible performance improvement
with Pythia (less than 1%)".
"""

from common import SCALE, once, run, save_report, spec_traces

from repro.analysis.metrics import geomean
from repro.analysis.report import format_table
from repro.prefetchers.registry import make_prefetcher


def test_context_and_related_work(benchmark):
    def compute():
        traces = spec_traces()
        rows = []
        base = {t.name: run(t, "ip_stride") for t in traces}

        def geo(l1d, l2="none"):
            return geomean([
                run(t, l1d, l2).speedup_over(base[t.name]) for t in traces
            ])

        rows.append(["berti (per-IP)", geo("berti")])
        rows.append(["berti_page (per-page, DPC-3)", geo("berti_page")])
        rows.append(["streamer", geo("streamer")])
        rows.append(["berti + vldp@L2", geo("berti", "vldp")])
        rows.append(["berti + pythia_lite@L2", geo("berti", "pythia_lite")])
        return rows

    rows = once(benchmark, compute)
    save_report(
        "ablation_context",
        format_table(
            ["configuration", "geomean speedup (SPEC17)"], rows,
            title=(
                "Context ablation + related work\n"
                "(paper: the IP beats the page as the delta context;"
                " Pythia on top of Berti adds <1%)"
            ),
        ),
    )

    by = dict(rows)
    # The MICRO paper's thesis: the IP context beats the page context.
    assert by["berti (per-IP)"] >= by["berti_page (per-page, DPC-3)"] - 0.02
    # Pythia on top of Berti adds little (paper: <1%).
    assert abs(by["berti + pythia_lite@L2"] - by["berti (per-IP)"]) < 0.12
