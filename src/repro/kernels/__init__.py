"""The paper's evaluation workloads (§4.1).

All four kernels are expressed in the compiler IR and go through the
full slicing/lowering pipeline, and the harness applies one technique
dispatch to all of them.  They differ only in how a thread runs its
slice (``binding.slice_runner``): SDHP, SPMV and SPMM interpret a block
of the outer loop once; BFS runs an outer level driver (also fully
timed) that invokes a per-level IR kernel, swaps frontier buffers, and
synchronizes at epoch barriers, mirroring how the paper's FPGA runs
sliced BFS manually.

Each workload provides seeded datasets, a numpy/pure-Python reference
implementation, array binding into a simulated address space (exposed
as ``binding.arrays``), and a result check that reads the simulated
memory back.
"""

from repro.kernels.base import LoopWorkload, WorkloadBinding
from repro.kernels.bfs import BfsWorkload
from repro.kernels.sdhp import SdhpWorkload
from repro.kernels.spmm import SpmmWorkload
from repro.kernels.spmv import SpmvWorkload

ALL_WORKLOADS = {
    "sdhp": SdhpWorkload,
    "spmm": SpmmWorkload,
    "spmv": SpmvWorkload,
    "bfs": BfsWorkload,
}

__all__ = [
    "ALL_WORKLOADS",
    "BfsWorkload",
    "LoopWorkload",
    "SdhpWorkload",
    "SpmmWorkload",
    "SpmvWorkload",
    "WorkloadBinding",
]
