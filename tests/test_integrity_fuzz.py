"""Corruption-fuzz gate: end-to-end data integrity, provably.

Every case runs a random (config, kernel, technique) under a random
seeded corruption plan — lossy links (drops, duplicates, payload bit
flips), DRAM bit flips, scratchpad slot flips — with the full protection
stack armed (reliable ports + SECDED ECC).  Exactly two outcomes are
legal:

1. the run completes, and then the kernel's golden-output oracle (run
   inside ``run_workload``) has already passed — corruption was
   corrected, retransmitted, or re-fetched, never silently consumed;
2. corruption was unrecoverable (a poisoned scratchpad slot whose
   producing pointer is gone, a persistently poisoned line, an exhausted
   retransmit budget) and surfaced as a typed
   :class:`DataIntegrityError` carrying a structured diagnosis.

Anything else — an oracle failure with protection armed, a hang, an
invariant violation — is a model bug and fails the sweep.

The negative controls run the *same* derivation with the stack disarmed
and a corrupt-only plan: now the oracle (or a crash on a mangled
address) must catch what the protections were suppressing.
"""

import json
from dataclasses import replace

import pytest

from repro.harness.campaign import (
    CAMPAIGNS,
    integrity_specs,
    run_case,
    run_negative_control,
)
from repro.harness.orchestrator import Orchestrator, spec_key
from repro.harness.techniques import run_workload
from repro.params import SoCConfig
from repro.sim import DataIntegrityError, FaultPlan

#: Sweep cases verified to hit unrecoverable scratchpad poison (a
#: double-bit flip on a filled slot whose producing pointer is gone).
KNOWN_UNRECOVERABLE = (3, 16, 40)


# -- the sweep ------------------------------------------------------------------


@pytest.mark.parametrize("case", range(CAMPAIGNS["integrity"].cases))
def test_corrupted_run_passes_oracle_or_fails_typed(case):
    outcome, payload = run_case("integrity", case)
    if outcome == "completed":
        # run_workload's oracle already compared against the numpy
        # reference.
        assert payload.cycles > 0
        ports, queues = payload.invariants_checked
        assert ports > 0 and queues > 0
    else:
        assert outcome == "integrity-error"
        assert isinstance(payload, DataIntegrityError)
        assert payload.component is not None
        assert payload.diagnosis is not None
        assert payload.diagnosis["integrity"]["error"] == type(payload).__name__


# -- unrecoverable corruption: typed error + structured dump ----------------------


def test_unrecoverable_corruption_writes_structured_dump(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG_DUMP_DIR", str(tmp_path))
    case = KNOWN_UNRECOVERABLE[0]
    outcome, err = run_case("integrity", case)
    assert outcome == "integrity-error"
    assert err.kind == "scratchpad_poison"
    assert err.dump_path is not None
    dumped = json.loads(
        (tmp_path / err.dump_path.split("/")[-1]).read_text())
    assert dumped["integrity"]["error"] == "DataIntegrityError"
    assert dumped["integrity"]["component"] == err.component
    assert dumped["fault_events"] > 0
    assert "busy_ports" in dumped and "engine" in dumped  # watchdog plumbing


@pytest.mark.parametrize("case", KNOWN_UNRECOVERABLE)
def test_known_unrecoverable_cases_stay_unrecoverable(case):
    outcome, err = run_case("integrity", case)
    assert outcome == "integrity-error"
    assert isinstance(err, DataIntegrityError)
    assert err.component is not None and err.kind is not None


# -- negative controls: disarmed, the oracle must catch it ------------------------


def test_negative_controls_detect_silent_corruption():
    """Stack disarmed + corrupt-only plan over the first ten cases: the
    oracle must catch corruption in most runs (a crash on a mangled
    index also counts as detection); at most a couple may survive on
    inconsequential flips.  Outcomes are seeded, hence exact."""
    outcomes = {"oracle": 0, "crashed": 0, "completed": 0}
    for case in range(10):
        kind, _ = run_negative_control(case)
        outcomes[kind] += 1
    assert outcomes["oracle"] >= 4          # the oracle itself fires
    assert outcomes["oracle"] + outcomes["crashed"] >= 8
    assert outcomes["completed"] <= 2


def test_recoverable_only_plans_never_draw_double_flips():
    for seed in range(50):
        plan = FaultPlan.random_integrity(seed, recoverable_only=True)
        if plan.dram_flips is not None:
            assert plan.dram_flips.double_rate == 0.0
        if plan.queue_flips is not None:
            assert plan.queue_flips.double_rate == 0.0
        assert not plan.is_empty()


# -- the armed stack is timing-invisible ------------------------------------------


def test_armed_stack_without_faults_is_cycle_identical():
    """reliable_ports=True + ecc=True with no plan: same cycle count and
    same model stats as the bare default config (the zero-added-cycles
    contract behind the Fig. 14 and differential-fuzz gates)."""
    bare = run_workload("spmv", "maple-decouple", threads=2, seed=7)
    armed = run_workload(
        "spmv", "maple-decouple", threads=2, seed=7,
        config=SoCConfig().with_overrides(reliable_ports=True, ecc=True))
    assert armed.cycles == bare.cycles
    assert armed.soc.stats_snapshot() == bare.soc.stats_snapshot()


# -- orchestrator integration ----------------------------------------------------


def test_integrity_specs_parallel_equals_serial():
    # Specs 2..7 are the first six cells whose corruption is fully
    # recovered (0 and 1 hit unrecoverable scratchpad poison; see below).
    specs = integrity_specs(8)[2:]
    serial = Orchestrator(jobs=1).run(specs)
    parallel = Orchestrator(jobs=4, timeout=300).run(specs)
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]
    assert all(r.fault_seed is not None for r in serial)
    assert all(r.invariants_checked for r in serial)


def test_unrecoverable_cell_surfaces_with_its_integrity_seed():
    """A cell whose corruption is unrecoverable fails loudly through the
    orchestrator, and the job error names the integrity seed to replay."""
    from repro.harness.orchestrator import OrchestratorError
    spec = integrity_specs(1)[0]
    with pytest.raises(OrchestratorError) as exc:
        Orchestrator(jobs=1, retries=0).run([spec])
    assert exc.value.job_error.fault_seed == spec.fault_plan.seed
    assert "DataIntegrityError" in exc.value.job_error.exc_type


def test_integrity_specs_are_replayable_cells():
    specs = integrity_specs(4)
    again = integrity_specs(4)
    assert specs == again
    assert all(s.fault_plan == FaultPlan.random_integrity(s.fault_plan.seed)
               for s in specs)
    assert all(f"faults#{s.fault_plan.seed}" in s.label() for s in specs)
    # The plan's content keys the cell: the same seed's timing-noise plan
    # is a different cache entry.
    for s in specs:
        timing = replace(s, fault_plan=FaultPlan.random(s.fault_plan.seed))
        assert spec_key(timing) != spec_key(s)
