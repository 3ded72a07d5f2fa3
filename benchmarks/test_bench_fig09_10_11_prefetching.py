"""Figs. 9/10/11: the single-thread prefetching study.

One simulation pass produces all three figures, exactly as the paper's
FPGA runs did (the same executions feed speedup, load counts, and load
latencies):

- Fig. 9 — LIMA prefetching speeds up every kernel (paper: 1.73x geomean,
  max on SPMV) while software prefetching does not pay off on an
  in-order core with a blocking L1;
- Fig. 10 — software prefetching inflates the load-instruction count
  while MAPLE *reduces* it (packed 4-byte consumes);
- Fig. 11 — LIMA cuts the average load latency (paper: 1.85x geomean).
"""

from conftest import harness_orchestrator, run_once

from repro.harness.figures import prefetch_study, run
from repro.sim.stats import geomean


def test_bench_fig09_10_11_prefetching(benchmark):
    [(fig9, fig10, fig11)] = run_once(benchmark, run, prefetch_study(),
                                      orch=harness_orchestrator())
    print("\n" + fig9.render())
    print("\n" + fig10.render())
    print("\n" + fig11.render())

    lima = fig9.series_by_label("maple-lima")
    swpf = fig9.series_by_label("sw-prefetch")
    # Fig. 9: LIMA wins overall and beats software prefetching soundly.
    assert lima.geomean() > 1.3
    assert lima.geomean() / swpf.geomean() > 1.5
    assert max(lima.values, key=lima.values.get) in ("spmv", "sdhp")
    for app in fig9.apps:
        assert lima.values[app] > 1.0
        assert lima.values[app] >= swpf.values[app]

    # Fig. 10: software prefetching adds load-class instructions; MAPLE
    # reduces them.
    sw_loads = fig10.series_by_label("sw-prefetch")
    lima_loads = fig10.series_by_label("maple-lima")
    assert sw_loads.geomean() > 1.15
    assert lima_loads.geomean() < 1.0

    # Fig. 11: LIMA's prefetches are timely — average load latency drops
    # substantially (paper: 1.85x geomean reduction).
    base_lat = fig11.series_by_label("no-prefetch")
    lima_lat = fig11.series_by_label("maple-lima")
    reduction = geomean([
        base_lat.values[app] / lima_lat.values[app] for app in fig11.apps])
    assert reduction > 1.3
    for app in fig11.apps:
        assert lima_lat.values[app] < base_lat.values[app]
