"""Throttling ablation: does Berti need an external aggressiveness
controller?

The paper (§V) argues no: external throttles (FDP-style) pay off for
low-accuracy prefetchers, while "with Berti ... the implicit confidence
mechanism acts like a prefetch throttler".  We wrap both IPCP (low
accuracy on irregular workloads) and Berti in the classic FDP control
loop and compare.
"""

from common import SCALE, gap_traces, once, run, save_report, simulate

from repro.analysis.metrics import geomean
from repro.analysis.report import format_table
from repro.prefetchers.registry import make_prefetcher
from repro.prefetchers.throttle import FDPThrottle


def test_fdp_throttling(benchmark):
    def compute():
        traces = gap_traces()
        base = {t.name: run(t, "ip_stride") for t in traces}

        def geo(factory):
            return geomean([
                simulate(t, l1d_prefetcher=factory()).speedup_over(
                    base[t.name]
                )
                for t in traces
            ])

        rows = [
            ["ipcp", geo(lambda: make_prefetcher("ipcp"))],
            ["fdp(ipcp)", geo(lambda: FDPThrottle(make_prefetcher("ipcp")))],
            ["berti", geo(lambda: make_prefetcher("berti"))],
            ["fdp(berti)",
             geo(lambda: FDPThrottle(make_prefetcher("berti")))],
        ]
        return rows

    rows = once(benchmark, compute)
    save_report(
        "ablation_throttling",
        format_table(
            ["configuration", "geomean speedup (GAP)"], rows,
            title=(
                "Throttling ablation (paper §V: Berti's confidence gating"
                " already throttles — an external FDP loop adds nothing)"
            ),
        ),
    )

    by = dict(rows)
    # FDP changes Berti very little: the confidence mechanism already
    # suppressed the junk an external throttle would catch.
    assert abs(by["fdp(berti)"] - by["berti"]) <= 0.08
    # The throttle's relative effect on Berti is no larger than on IPCP.
    berti_delta = abs(by["fdp(berti)"] - by["berti"])
    ipcp_delta = abs(by["fdp(ipcp)"] - by["ipcp"])
    assert berti_delta <= ipcp_delta + 0.05
