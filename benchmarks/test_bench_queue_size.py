"""§5.3: queue-size sensitivity.

Paper: performance is stable while the queues can hold enough data to
hide latency — 32 entries per queue (the tapeout configuration) are
sufficient, and smaller queues start costing runahead.
"""

from conftest import harness_orchestrator, run_once

from repro.harness.figures import queue_sweep, run


def test_bench_queue_size(benchmark):
    [result] = run_once(benchmark, run, queue_sweep(),
                        orch=harness_orchestrator())
    print("\n" + result.render())

    by_entries = {s.label: s.geomean() for s in result.series}
    # The tapeout configuration (32) already achieves the plateau.
    assert by_entries["32-entries"] > 0.97 * by_entries["64-entries"]
    # Shrinking below the latency-covering size costs performance.
    assert by_entries["8-entries"] < 0.97 * by_entries["32-entries"]
    # Even tiny queues keep decoupling profitable (no cliff to <1x).
    assert by_entries["8-entries"] > 1.0
