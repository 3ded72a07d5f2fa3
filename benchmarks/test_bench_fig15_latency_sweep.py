"""Fig. 15: decoupling speedup vs core<->MAPLE round-trip latency.

Paper: speedups are greater with a lower NoC delay — the benefit decays
monotonically as the consume round trip grows, since every queue
operation pays it.
"""

from conftest import harness_orchestrator, run_once

from repro.harness.figures import fig15, run


def test_bench_fig15_latency_sweep(benchmark):
    [result] = run_once(benchmark, run, fig15(), orch=harness_orchestrator())
    print("\n" + result.render())

    geomeans = [s.geomean() for s in result.series]  # ordered by latency
    # Monotone decay with latency.
    for shorter, longer in zip(geomeans, geomeans[1:]):
        assert shorter > longer
    # Still profitable at the default ~25-cycle point.
    assert geomeans[1] > 1.5
    # And sensitive: 4x the latency costs a visible chunk of the win.
    assert geomeans[0] / geomeans[-1] > 1.5
