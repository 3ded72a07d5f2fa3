"""Fig. 8: decoupling speedups over 2-thread doall (FPGA config).

Paper numbers: MAPLE decoupling 1.51x geomean over doall and 2.27x over
shared-memory software decoupling — i.e. software decoupling *loses* to
doall on in-order cores without hardware support.  The reproduction
asserts those shape claims.
"""

from conftest import harness_orchestrator, run_once

from repro.harness.figures import fig8, run


def test_bench_fig08_decoupling(benchmark):
    [result] = run_once(benchmark, run, fig8(), orch=harness_orchestrator())
    print("\n" + result.render())

    maple = result.series_by_label("maple-decoupling")
    sw = result.series_by_label("sw-decoupling")

    # MAPLE decoupling beats doall overall; software decoupling loses.
    assert maple.geomean() > 1.2
    assert sw.geomean() < 1.0
    # MAPLE over software decoupling (paper: 2.27x geomean).
    assert maple.geomean() / sw.geomean() > 1.8
    # Per-app: MAPLE never behind software decoupling.
    for app in result.apps:
        assert maple.values[app] >= sw.values[app]
    # SPMM cannot decouple: both fall back to doall (1.0x).
    assert abs(maple.values["spmm"] - 1.0) < 0.05
    # The decoupling-friendly kernels see solid gains.
    assert maple.values["spmv"] > 1.5
    assert maple.values["sdhp"] > 1.5
