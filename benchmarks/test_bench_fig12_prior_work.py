"""Fig. 12: MAPLE vs DeSC vs DROPLET vs doall (same machine as Fig. 8).

Paper: MAPLE reaches 1.96x geomean over 2-thread doall (up to 3x on
BFS), 1.72x over DeSC, and 1.82x over DROPLET.  DeSC leads on the
decoupling-friendly SPMV/SDHP (MAPLE stays within the paper's "at least
76%" bound) but has no answer for SPMM's RMWs, and DROPLET's LLC
prefetches still leave the core paying the L1-miss path per element.
"""

from conftest import harness_orchestrator, run_once

from repro.harness.figures import fig12, run


def test_bench_fig12_prior_work(benchmark):
    [result] = run_once(benchmark, run, fig12(), orch=harness_orchestrator())
    print("\n" + result.render())

    maple = result.series_by_label("maple")
    desc = result.series_by_label("desc")
    droplet = result.series_by_label("droplet")

    # Headline geomeans: MAPLE leads both prior hardware techniques.
    assert maple.geomean() > 1.5
    assert maple.geomean() > desc.geomean()
    assert maple.geomean() / droplet.geomean() > 1.3

    # MAPLE is at least 76% of DeSC everywhere (§5.2's bound).
    for app in result.apps:
        assert maple.values[app] / desc.values[app] >= 0.76

    # SPMM: neither decoupling technique applies (RMW) — both at doall.
    assert abs(maple.values["spmm"] - 1.0) < 0.05
    assert abs(desc.values["spmm"] - 1.0) < 0.05

    # DROPLET helps but modestly: above doall, below MAPLE overall.
    assert droplet.geomean() > 1.0
