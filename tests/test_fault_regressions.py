"""Regression tests for the paper's hairiest OS-interaction corners.

Two scenarios the paper calls out as hardware/OS co-design risks, pinned
here as deterministic fault-plan runs:

- **Page fault mid-LIMA** (§3.5): a page MAPLE's in-memory-accelerator
  chains are actively streaming gets evicted; the MAPLE MMU must trap,
  the driver must resolve via the OS fault path, and the walk must
  retry — including the page being evicted *again* before the retry.
- **TLB shootdown mid-produce** (§3.5): ``munmap``-driven shootdowns
  land while the Produce pipeline holds translations; MAPLE's TLB is
  invalidated through the same Linux callback path as the cores', and
  in-flight fetches must still fill their reserved slots in order.

Both must end with correct numerical results, clean invariants, no
watchdog trip — and deterministically, so they double as replay pins.
"""

from repro.harness.techniques import run_workload
from repro.sim.faults import FaultPlan, PageEvictFault, ShootdownFault

WATCHDOG = {"check_interval": 2000, "stall_window": 100_000,
            "max_cycles": 20_000_000}


def test_page_fault_during_lima_resolves_and_stays_correct():
    plan = FaultPlan(seed=11, evict=PageEvictFault(cycles=600))
    result = run_workload("spmv", "lima", threads=1, seed=3,
                          fault_plan=plan, check_invariants=True,
                          watchdog=dict(WATCHDOG))
    snapshot = result.soc.stats_snapshot()
    # The faults hit the accelerator itself, not just the cores: MAPLE's
    # MMU took page faults mid-chain and the OS swapped the pages back.
    assert snapshot["maple0.page_faults"] > 0
    assert snapshot["os.swap_ins"] > 0
    assert result.soc.os.evicted_pages() == 0
    ports, queues = result.invariants_checked
    assert ports > 0 and queues > 0


def test_page_fault_during_lima_is_deterministic():
    plan = FaultPlan(seed=11, evict=PageEvictFault(cycles=600))
    runs = [run_workload("spmv", "lima", threads=1, seed=3,
                         fault_plan=plan, check_invariants=True,
                         watchdog=dict(WATCHDOG)) for _ in range(2)]
    assert runs[0].cycles == runs[1].cycles
    assert runs[0].fault_events == runs[1].fault_events


def test_tlb_shootdown_during_produce_keeps_queues_coherent():
    plan = FaultPlan(seed=12, shootdown=ShootdownFault(cycles=500))
    result = run_workload("spmv", "maple-decouple", threads=2, seed=3,
                          fault_plan=plan,
                          check_invariants=True, watchdog=dict(WATCHDOG))
    snapshot = result.soc.stats_snapshot()
    # Shootdowns reached the accelerator's TLB (the §3.5 callback path)...
    assert snapshot["maple0.shootdowns"] > 0
    # ...and the decoupled pipeline still filled every slot in order
    # (the invariant shadows would have raised otherwise).
    assert result.invariants_checked[1] > 0
    assert snapshot["maple0.produce_ptrs"] > 0


def test_combined_evict_and_shootdown_under_decoupling():
    """The worst case both at once, across the access/execute pair."""
    plan = FaultPlan(seed=13, evict=PageEvictFault(cycles=900),
                     shootdown=ShootdownFault(cycles=700))
    result = run_workload("sdhp", "maple-decouple", threads=2, seed=5,
                          fault_plan=plan,
                          check_invariants=True, watchdog=dict(WATCHDOG))
    snapshot = result.soc.stats_snapshot()
    assert snapshot["os.evictions"] > 0
    assert snapshot["os.shootdowns"] > 0
    assert result.soc.os.evicted_pages() == 0
