"""Fault-fuzz gate: the SoC survives injected faults, provably.

Three layers ride every case (see ``repro.harness.campaign``):

1. a random seeded :class:`FaultPlan` perturbs ports, DRAM, the TLBs,
   and the OS (shootdowns, page eviction, preemption);
2. numerical results are still checked against the numpy reference
   (``run_workload``'s oracle) — latency faults must never corrupt data;
3. queue shadows + the quiescence audit + the liveness watchdog are all
   armed — any protocol violation or hang fails loudly, with a
   diagnosis.

Plus the negative controls: a deliberately wedged pipeline (a CONSUME
nobody PRODUCEs) must be *caught* — the deadlock diagnosis and the
watchdog stall detector both name the stuck port and write a JSON dump —
and a fault-free run with the whole observation layer armed must be
cycle-identical to a bare run (the robustness layer is timing-invisible).
"""

import json

import pytest

from repro.cpu.core import Thread
from repro.harness.campaign import CAMPAIGNS, FUZZ_WATCHDOG, fuzz_specs, run_case
from repro.harness.orchestrator import Orchestrator
from repro.harness.techniques import run_workload
from repro.params import SoCConfig
from repro.sim import FaultPlan, LivenessError, Watchdog
from repro.system.soc import Soc

# -- the sweep ------------------------------------------------------------------


@pytest.mark.parametrize("case", range(CAMPAIGNS["fault"].cases))
def test_faulted_run_is_correct_and_quiescent(case):
    """Random (config, kernel, technique, fault-plan): correct results,
    invariants hold on drain, watchdog silent.  The run raises on any
    violation; the asserts here pin that the layers really ran."""
    result = run_case("fault", case)
    assert result.cycles > 0
    ports, queues = result.invariants_checked
    assert ports > 0 and queues > 0
    assert result.fault_plan is not None


# -- the observation layer is timing-invisible -----------------------------------


def test_armed_but_faultless_run_is_cycle_identical():
    """Invariant shadows + watchdog + an *empty* fault plan change
    nothing: same cycle count and same model stats as a bare run."""
    bare = run_workload("spmv", "maple-decouple", threads=2, seed=7)
    armed = run_workload("spmv", "maple-decouple", threads=2, seed=7,
                         fault_plan=FaultPlan(seed=0),
                         check_invariants=True,
                         watchdog=dict(FUZZ_WATCHDOG))
    assert armed.cycles == bare.cycles
    assert armed.fault_events == 0
    assert armed.invariants_checked[0] > 0
    assert armed.soc.stats_snapshot() == bare.soc.stats_snapshot()


# -- orchestrator integration ----------------------------------------------------


def test_fuzz_specs_parallel_equals_serial():
    specs = fuzz_specs(6)
    serial = Orchestrator(jobs=1).run(specs)
    parallel = Orchestrator(jobs=4, timeout=300).run(specs)
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]
    assert all(r.fault_seed is not None for r in serial)
    assert all(r.invariants_checked for r in serial)


def test_fuzz_specs_are_replayable_cells():
    specs = fuzz_specs(4)
    again = fuzz_specs(4)
    assert specs == again
    assert all(s.check_invariants and s.watchdog for s in specs)


# -- negative controls: a wedged pipeline must be caught -------------------------


def _wedged_soc():
    """A SoC with one thread blocked forever on CONSUME of queue 0."""
    soc = Soc(SoCConfig(name="wedge", num_cores=2, mesh_cols=2, mesh_rows=2))
    aspace = soc.new_process()
    api = soc.driver.attach(aspace)

    def program():
        handle = yield from api.open(0)
        value = yield from handle.consume()  # never produced: wedged
        return value

    return soc, [(0, Thread(program(), aspace, "wedged"))]


def test_deadlock_is_diagnosed_with_stuck_port(tmp_path):
    """Queue drains with the consumer still blocked: the deadlock
    diagnosis names the busy port and writes a dump."""
    soc, assignments = _wedged_soc()
    with pytest.raises(LivenessError) as exc:
        soc.run_threads(assignments,
                        watchdog=Watchdog(soc, dump_dir=str(tmp_path)))
    err = exc.value
    assert "core0.mem" in str(err)
    assert err.diagnosis["reason"] == "deadlock"
    assert any("core0.mem" in p for p in err.diagnosis["busy_ports"])
    assert err.dump_path is not None
    dumped = json.loads((tmp_path / err.dump_path.split("/")[-1]).read_text())
    assert dumped["reason"] == "deadlock"
    assert any("core0.mem" in p for p in dumped["busy_ports"])


def test_watchdog_trips_on_livelock_naming_stuck_port(tmp_path):
    """With unrelated events keeping the simulator alive, the *watchdog*
    (not the post-drain check) must trip on the no-progress window."""
    soc, assignments = _wedged_soc()

    def spinner():
        while True:
            yield 500

    soc.sim.spawn(spinner(), name="noise.spinner")
    monitor = Watchdog(soc, check_interval=1000, stall_window=20_000,
                       dump_dir=str(tmp_path))
    with pytest.raises(LivenessError) as exc:
        soc.run_threads(assignments, watchdog=monitor)
    err = exc.value
    assert err.diagnosis["reason"] == "stall"
    assert any("core0.mem" in p for p in err.diagnosis["busy_ports"])
    assert err.dump_path is not None


def test_watchdog_max_cycles_is_a_hard_ceiling():
    soc, assignments = _wedged_soc()

    def spinner():
        while True:
            yield 500

    soc.sim.spawn(spinner(), name="noise.spinner")
    monitor = Watchdog(soc, check_interval=1000, stall_window=10**9,
                       max_cycles=30_000)
    with pytest.raises(LivenessError) as exc:
        soc.run_threads(assignments, watchdog=monitor)
    assert exc.value.diagnosis["reason"] == "timeout"
