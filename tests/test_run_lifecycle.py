"""Per-run lifecycle audit: back-to-back runs in one process must not
leak state into each other.

Every experiment builds a fresh :class:`~repro.system.Soc`, so the only
legitimate cross-run state is module-level — and there must be none.
These regressions pin that: two identical runs in one process are
bit-identical (cycles, executed events, full stats snapshot, port
telemetry), with the directory and its MEMORY-plane traffic on as well
as off.  They also pin the per-run cleanup contracts: ports quiescent,
directory line locks reaped, the coherence book consistent, and
:meth:`~repro.sim.port.PortRegistry.reset` really zeroing telemetry
between measurement phases on one Soc.
"""

import pytest

from repro.cpu import Load, Store, Thread
from repro.harness.techniques import run_workload
from repro.params import SoCConfig
from repro.sim.port import QuiescenceError
from repro.system import Soc


def _fingerprint(result):
    return (result.cycles, result.soc.sim.events_executed,
            result.soc.stats_snapshot(), result.soc.port_telemetry())


def _run_once(**overrides):
    config = SoCConfig(name="lifecycle", num_cores=2).with_overrides(
        **overrides)
    return run_workload("spmv", "maple-decouple", config=config,
                        threads=2, scale=1, seed=3,
                        check_invariants=True)


def test_back_to_back_runs_are_bit_identical():
    first = _fingerprint(_run_once())
    second = _fingerprint(_run_once())
    assert first == second


def test_back_to_back_directory_runs_are_bit_identical():
    overrides = dict(directory=True, directory_slices=2,
                     directory_mem_traffic=True, l1_size=1024,
                     l2_size=8 * 1024)
    first = _fingerprint(_run_once(**overrides))
    second = _fingerprint(_run_once(**overrides))
    assert first == second


def _sharing_soc():
    soc = Soc(SoCConfig(name="lifecycle-dir", num_cores=2,
                        directory=True, directory_slices=2,
                        directory_mem_traffic=True))
    aspace = soc.new_process()
    arr = soc.array(aspace, [0.0] * 64, name="shared")

    def prog(me):
        for i in range(64):
            yield Store(arr.addr(i), float(me + i))
            yield Load(arr.addr((i * 7) % 64))

    soc.run_threads([(c, Thread(prog(c), aspace, f"t{c}"))
                     for c in range(2)])
    return soc


def test_run_leaves_no_inflight_state():
    soc = _sharing_soc()
    soc.drain()  # every port quiescent, or QuiescenceError names it
    # Home-line serialization locks are created on demand and must be
    # reaped once their transaction completes.
    assert soc.directory._locks == {}
    assert soc.directory.debug_state()["locked_lines"] == []
    # The book's records agree with the tag arrays at quiescence.
    assert soc.memsys.book.check() == []


def test_registry_reset_zeroes_telemetry_between_phases():
    soc = _sharing_soc()
    before = soc.port_telemetry()
    assert any(t["requests"] for t in before.values())
    soc.reset()
    after = soc.port_telemetry()
    for name, tap in after.items():
        assert tap["requests"] == 0 and tap["served"] == 0, name
        assert tap["by_kind"] == {}, name


def test_reset_refuses_a_busy_registry():
    soc = Soc(SoCConfig(name="lifecycle-busy", num_cores=1))
    aspace = soc.new_process()
    arr = soc.array(aspace, [0.0] * 8, name="a")

    def prog():
        yield Load(arr.addr(0))

    proc = soc.cores[0].run(Thread(prog(), aspace, "t"))

    def mid_flight():
        yield 5  # the load's DRAM fill is still outstanding
        with pytest.raises(QuiescenceError):
            soc.reset()
        yield proc

    soc.sim.spawn(mid_flight())
    soc.sim.run()
    soc.drain()  # quiescent again once the run finished
    soc.reset()  # ...and now reset is legal
