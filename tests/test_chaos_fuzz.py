"""The chaos gate: >=150 seeded kill/corrupt cases against the harness.

Each case draws one adversity (worker SIGKILL/SIGSTOP/hang, retry
exhaustion, cache/checkpoint truncation or bit-flip, injected ENOSPC)
from the ``chaos`` campaign in ``repro.harness.campaign`` and asserts
the robustness contract: completing runs match the golden serial
baseline bit for bit, failures surface as typed structured errors with
JSON dumps, corrupt files land in quarantine, and no orphan processes
or stray tmp/lock files remain.

Set ``REPRO_CHAOS_DIR`` to keep each case's working directory (watchdog
and orchestrator dumps, quarantined files) for CI artifact upload;
without it everything lands in pytest's tmp_path.
"""

import os
from pathlib import Path

import pytest

from repro.harness.campaign import CAMPAIGNS, FAMILIES, materialize, run_case

N_CASES = CAMPAIGNS["chaos"].cases


def _workdir(tmp_path: Path, case: int) -> Path:
    env = os.environ.get("REPRO_CHAOS_DIR")
    root = Path(env) if env else tmp_path
    return root / f"case-{case:03d}"


def test_gate_is_at_least_150_cases():
    assert N_CASES >= 150


def test_every_family_is_drawn():
    drawn = {materialize("chaos", case).family for case in range(N_CASES)}
    assert drawn == set(FAMILIES)


@pytest.mark.parametrize("case", range(N_CASES))
def test_chaos_case(case, tmp_path):
    outcome = run_case("chaos", case, _workdir(tmp_path, case))
    assert outcome.family == materialize("chaos", case).family
    if outcome.oracle == "typed-error":
        assert outcome.typed_error  # failures are always typed
