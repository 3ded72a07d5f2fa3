"""Unit tests for the fault-injection layer (``repro.sim.faults``).

The contract under test: plans are pure values (picklable, replayable
from one seed), an empty plan is a guaranteed no-op, installed hooks
actually perturb timing and log every hit, and ``finish`` leaves the
address space fully resident so functional checks still pass.
"""

import pickle

import pytest

from repro.harness.techniques import run_workload
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    PageEvictFault,
    PortDelayFault,
    PreemptFault,
    ShootdownFault,
)


# -- plans are pure values -------------------------------------------------------


def test_random_plan_is_deterministic_and_seed_sensitive():
    assert FaultPlan.random(42) == FaultPlan.random(42)
    assert FaultPlan.random(42) != FaultPlan.random(43)
    assert FaultPlan.random(42).stable_dict() == FaultPlan.random(42).stable_dict()


def test_random_plan_is_never_empty_and_describes_itself():
    for seed in range(20):
        plan = FaultPlan.random(seed)
        assert not plan.is_empty()
        assert f"seed={plan.seed}" in plan.describe()


def test_plan_round_trips_through_pickle():
    """Plans cross the orchestrator's worker-pool boundary."""
    plan = FaultPlan.random(7)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.stable_dict() == plan.stable_dict()


def test_empty_plan_is_empty():
    assert FaultPlan(seed=0).is_empty()
    assert not FaultPlan(seed=0, shootdown=ShootdownFault(cycles=100)).is_empty()


# -- installation ---------------------------------------------------------------


def _delay_plan(rate=1.0, cycles=50):
    return FaultPlan(seed=5, port_delays=(
        PortDelayFault(port_pattern="core*.mem", kind_pattern="load",
                       rate=rate, min_cycles=cycles, max_cycles=cycles),))


def test_empty_plan_installs_nothing():
    result = run_workload("spmv", "doall", threads=1, seed=1,
                          fault_plan=FaultPlan(seed=0))
    assert result.soc.fault_injector is None
    assert result.fault_events == 0


def test_double_install_rejected():
    result = run_workload("spmv", "doall", threads=1, seed=1,
                          fault_plan=_delay_plan())
    injector = result.soc.fault_injector
    with pytest.raises(RuntimeError, match="already installed"):
        injector.install()


# -- the faults actually bite ----------------------------------------------------


def test_port_delay_slows_the_run_and_logs_hits():
    base = run_workload("spmv", "doall", threads=1, seed=1)
    slow = run_workload("spmv", "doall", threads=1, seed=1,
                        fault_plan=_delay_plan(), check_invariants=True)
    assert slow.cycles > base.cycles
    hits = [e for e in slow.soc.fault_injector.events if e[1] == "port_delay"]
    assert hits and len(hits) == slow.fault_events
    assert all("core0.mem" in detail for _, _, detail in hits)


def test_port_delay_respects_kind_and_port_patterns():
    plan = FaultPlan(seed=5, port_delays=(
        PortDelayFault(port_pattern="maple*.mem", kind_pattern="nonexistent_*",
                       rate=1.0, min_cycles=50, max_cycles=50),))
    faulted = run_workload("spmv", "doall", threads=1, seed=1, fault_plan=plan)
    base = run_workload("spmv", "doall", threads=1, seed=1)
    # Hooks were installed on matching ports but no kind ever matched:
    # timing must be untouched.
    assert faulted.cycles == base.cycles
    assert faulted.fault_events == 0


def test_eviction_swaps_pages_back_in_before_the_check():
    plan = FaultPlan(seed=9, evict=PageEvictFault(cycles=700))
    result = run_workload("spmv", "doall", threads=1, seed=1,
                          fault_plan=plan, watchdog=True)
    injector = result.soc.fault_injector
    assert any(kind == "evict" for _, kind, _ in injector.events)
    assert any(kind == "restore" for _, kind, _ in injector.events)
    assert result.soc.os.evicted_pages() == 0
    snapshot = result.soc.stats_snapshot()
    assert snapshot["os.evictions"] > 0
    assert snapshot["os.swap_ins"] > 0


def test_preemption_taxes_the_core():
    plan = FaultPlan(seed=3, preempt=PreemptFault(cycles=500, cost=2000))
    base = run_workload("spmv", "doall", threads=1, seed=1)
    taxed = run_workload("spmv", "doall", threads=1, seed=1, fault_plan=plan)
    assert any(kind == "preempt" for _, kind, _ in
               taxed.soc.fault_injector.events)
    assert taxed.cycles > base.cycles


def test_shootdowns_invalidate_tlbs_without_corrupting_results():
    plan = FaultPlan(seed=4, shootdown=ShootdownFault(cycles=400))
    result = run_workload("spmv", "maple-decouple", threads=2, seed=1,
                          fault_plan=plan, check_invariants=True)
    snapshot = result.soc.stats_snapshot()
    assert snapshot["os.shootdowns"] > 0
    assert any(kind == "shootdown" for _, kind, _ in
               result.soc.fault_injector.events)


# -- replay ---------------------------------------------------------------------


def test_same_plan_replays_the_same_fault_log():
    plan = FaultPlan.random(77)
    first = run_workload("spmv", "maple-decouple", threads=2, seed=2,
                         fault_plan=plan, check_invariants=True)
    second = run_workload("spmv", "maple-decouple", threads=2, seed=2,
                          fault_plan=plan, check_invariants=True)
    assert first.cycles == second.cycles
    assert first.soc.fault_injector.events == second.soc.fault_injector.events


def test_injector_context_manager_uninstalls():
    from repro.system.soc import Soc

    soc = Soc()
    aspace = soc.new_process()
    with FaultInjector(soc, aspace, _delay_plan()) as injector:
        hooked = [p for p in soc.ports.ports if p.inject is not None]
        assert hooked
    assert injector is soc.fault_injector
    assert all(p.inject is None for p in soc.ports.ports)
