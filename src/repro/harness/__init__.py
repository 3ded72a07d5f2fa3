"""Evaluation harness: experiment runner and figure/table regenerators.

:mod:`repro.harness.techniques` runs one (workload, technique) cell —
building a fresh SoC, compiling/slicing the kernel, wiring MAPLE or a
baseline, executing, and validating results against the reference.
:mod:`repro.harness.orchestrator` shards independent cells across worker
processes with an on-disk result cache (every cell is deterministic, so
job count never changes a number).  :mod:`repro.harness.figures`
plans every figure of the paper's evaluation as cells plus a reduction,
and its ``run`` executes any set of plans as one orchestrator batch;
:mod:`repro.harness.tables` renders the three tables.
"""

from repro.harness.orchestrator import (
    DiskCache,
    Orchestrator,
    RunResult,
    RunSpec,
    execute_spec,
    make_orchestrator,
    spec_key,
)
from repro.harness.techniques import (
    ExperimentResult,
    HARNESS_TECHNIQUES,
    run_workload,
)
from repro.harness import figures, tables

__all__ = ["DiskCache", "ExperimentResult", "HARNESS_TECHNIQUES",
           "Orchestrator", "RunResult", "RunSpec", "execute_spec", "figures",
           "make_orchestrator", "run_workload", "spec_key", "tables"]
