"""Fig. 13: thread scaling with one shared MAPLE instance.

Paper: the decoupling speedup over doall is *maintained* when scaling
from 2 to 4 and 8 threads all sharing a single MAPLE — the engine's
queues and pipelines have the headroom to supply multiple pairs.
"""

from conftest import harness_orchestrator, run_once

from repro.harness.figures import fig13, run


def test_bench_fig13_scaling(benchmark):
    [result] = run_once(benchmark, run, fig13(), orch=harness_orchestrator())
    print("\n" + result.render())

    geomeans = {s.label: s.geomean() for s in result.series}
    # Speedup over doall holds at every thread count...
    for label, value in geomeans.items():
        assert value > 1.5, f"{label} lost the decoupling win"
    # ...and does not collapse as more pairs share the instance.
    assert min(geomeans.values()) > 0.6 * max(geomeans.values())
