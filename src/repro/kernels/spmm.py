"""SPMM: layer-wise sparse-sparse matrix multiplication (§4.1).

The Mofrad-style layer kernel for sparse DNN training: ``T += A @ B``
with A and B in CSC and T a dense temporary, parallelized over B's
columns.  The inner update ``T[c*rows + A_row[j]] += A_val[j] * B_val[k]``
is an *indirect read-modify-write*: the compiler cannot decouple it
(stale reads would drop updates), so decoupling plans fall back to doall
— exactly the behaviour the paper reports in Fig. 12.  Prefetching is
still sound through LIMA's speculative LLC mode.
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
from repro.datasets.sparse import CscMatrix, random_csr
from repro.kernels.base import LoopWorkload, WorkloadBinding, assert_close


def build_spmm_kernel() -> Kernel:
    t_index = Bin("+", Var("i"), Bin("*", Var("c"), Var("rows")))
    body = [
        ForStmt("c", Var("col_lo"), Var("col_hi"), [
            LoadStmt("blo", "b_colptr", Var("c")),
            LoadStmt("bhi", "b_colptr", Bin("+", Var("c"), Const(1))),
            ForStmt("k", Var("blo"), Var("bhi"), [
                LoadStmt("r", "b_rowidx", Var("k")),
                LoadStmt("bv", "b_vals", Var("k")),
                LoadStmt("alo", "a_colptr", Var("r")),
                LoadStmt("ahi", "a_colptr", Bin("+", Var("r"), Const(1))),
                ForStmt("j", Var("alo"), Var("ahi"), [
                    LoadStmt("i", "a_rowidx", Var("j")),
                    LoadStmt("av", "a_vals", Var("j")),
                    LoadStmt("told", "t", t_index),      # indirect RMW read
                    ComputeStmt("tnew", Bin("+", Var("told"),
                                            Bin("*", Var("av"), Var("bv"))),
                                cycles=2),
                    StoreStmt("t", t_index, Var("tnew")),  # indirect RMW write
                ]),
            ]),
        ]),
    ]
    return Kernel(
        name="spmm",
        arrays=["b_colptr", "b_rowidx", "b_vals",
                "a_colptr", "a_rowidx", "a_vals", "t"],
        params=["col_lo", "col_hi", "rows"],
        body=body,
    )


class SpmmDataset:
    def __init__(self, a: CscMatrix, b: CscMatrix):
        if a.cols != b.rows:
            raise ValueError("inner dimensions must agree")
        self.a = a
        self.b = b

    def reference(self) -> np.ndarray:
        return self.a.to_dense() @ self.b.to_dense()


class SpmmWorkload(LoopWorkload):
    name = "spmm"

    def default_dataset(self, scale: int = 1, seed: int = 0) -> SpmmDataset:
        """A is tall (16384 x 24) so the dense temp T defeats the caches;
        B is 24 x (4*scale)."""
        # random_csr generates CSR; transpose-interpret as CSC of the
        # transposed shape to get per-column nnz structure.
        a_csr = random_csr(rows=24, cols=16384, nnz_per_row=8, seed=23 + seed)
        a = CscMatrix(16384, 24, a_csr.row_ptr, a_csr.col_idx, a_csr.values)
        b_csr = random_csr(rows=4 * scale, cols=24, nnz_per_row=8, seed=29 + seed)
        b = CscMatrix(24, 4 * scale, b_csr.row_ptr, b_csr.col_idx, b_csr.values)
        return SpmmDataset(a, b)

    def bind(self, soc, aspace, dataset: SpmmDataset) -> WorkloadBinding:
        a, b = dataset.a, dataset.b
        arrays = {
            "b_colptr": soc.array(aspace, [int(v) for v in b.col_ptr], "b_colptr"),
            "b_rowidx": soc.array(aspace, [int(v) for v in b.row_idx], "b_rowidx"),
            "b_vals": soc.array(aspace, [float(v) for v in b.values], "b_vals"),
            "a_colptr": soc.array(aspace, [int(v) for v in a.col_ptr], "a_colptr"),
            "a_rowidx": soc.array(aspace, [int(v) for v in a.row_idx], "a_rowidx"),
            "a_vals": soc.array(aspace, [float(v) for v in a.values], "a_vals"),
            "t": soc.array(aspace, a.rows * b.cols, "t"),
        }
        expected = dataset.reference()

        def check() -> None:
            t = arrays["t"]
            got = np.array(t.to_list(), dtype=float).reshape(b.cols, a.rows).T
            assert_close(got, expected, rtol=1e-9, atol=1e-12)

        return WorkloadBinding(
            kernel=build_spmm_kernel(),
            runtime=Runtime(arrays, params={"rows": a.rows}),
            partition_params=("col_lo", "col_hi"),
            total_iterations=b.cols,
            check=check,
            droplet_indirections=(("a_rowidx", "t"),),
        )
