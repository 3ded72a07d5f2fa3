"""SPMV: sparse matrix - dense vector multiplication (§4.1).

``y[i] = sum_k vals[k] * x[col_idx[k]]`` over CSR rows.  The gather
``x[col_idx[k]]`` is the indirect access: col_idx is uniform-random, so
with the dense vector sized past the LLC every gather goes to DRAM.
The kernel is the paper's best case for both decoupling and LIMA (up to
2.4x prefetch speedup, Fig. 9).
"""

from __future__ import annotations

import numpy as np

from repro.compiler.interp import Runtime
from repro.compiler.ir import (
    Bin,
    ComputeStmt,
    Const,
    ForStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    Var,
)
from repro.datasets.sparse import CsrMatrix, random_csr
from repro.kernels.base import LoopWorkload, WorkloadBinding, assert_close


def build_spmv_kernel() -> Kernel:
    """The CSR SpMV loop nest (parallelized over rows via row_lo/row_hi)."""
    inner = [
        LoadStmt("c", "col_idx", Var("j")),
        LoadStmt("xv", "x", Var("c")),          # the IMA: x[col_idx[j]]
        LoadStmt("v", "vals", Var("j")),
        ComputeStmt("acc", Bin("+", Var("acc"), Bin("*", Var("v"), Var("xv"))),
                    cycles=2),
    ]
    body = [
        ForStmt("i", Var("row_lo"), Var("row_hi"), [
            LoadStmt("lo", "row_ptr", Var("i")),
            LoadStmt("hi", "row_ptr", Bin("+", Var("i"), Const(1))),
            ComputeStmt("acc", Const(0.0)),
            ForStmt("j", Var("lo"), Var("hi"), inner),
            StoreStmt("y", Var("i"), Var("acc")),
        ]),
    ]
    return Kernel(
        name="spmv",
        arrays=["row_ptr", "col_idx", "vals", "x", "y"],
        params=["row_lo", "row_hi"],
        body=body,
    )


class SpmvDataset:
    def __init__(self, matrix: CsrMatrix, x: np.ndarray):
        if len(x) != matrix.cols:
            raise ValueError("vector length must match matrix columns")
        self.matrix = matrix
        self.x = x

    def reference(self) -> np.ndarray:
        m = self.matrix
        y = np.zeros(m.rows)
        for i in range(m.rows):
            for k in range(m.row_ptr[i], m.row_ptr[i + 1]):
                y[i] += m.values[k] * self.x[m.col_idx[k]]
        return y


class SpmvWorkload(LoopWorkload):
    name = "spmv"

    def default_dataset(self, scale: int = 1, seed: int = 0) -> SpmvDataset:
        """~64*scale rows of 8 nnz against a 16K-entry (128 KB) vector."""
        rows = 64 * scale
        cols = 16384
        matrix = random_csr(rows, cols, nnz_per_row=8, seed=7 + seed)
        rng = np.random.default_rng(11 + seed)
        return SpmvDataset(matrix, rng.uniform(1.0, 2.0, size=cols))

    def bind(self, soc, aspace, dataset: SpmvDataset) -> WorkloadBinding:
        m = dataset.matrix
        arrays = {
            "row_ptr": soc.array(aspace, [int(v) for v in m.row_ptr], "row_ptr"),
            "col_idx": soc.array(aspace, [int(v) for v in m.col_idx], "col_idx"),
            "vals": soc.array(aspace, [float(v) for v in m.values], "vals"),
            "x": soc.array(aspace, [float(v) for v in dataset.x], "x"),
            "y": soc.array(aspace, m.rows, "y"),
        }
        expected = dataset.reference()

        def check() -> None:
            got = np.array(arrays["y"].to_list(), dtype=float)
            assert_close(got, expected, rtol=1e-9)

        return WorkloadBinding(
            kernel=build_spmv_kernel(),
            runtime=Runtime(arrays),
            partition_params=("row_lo", "row_hi"),
            total_iterations=m.rows,
            check=check,
            droplet_indirections=(("col_idx", "x"),),
        )
