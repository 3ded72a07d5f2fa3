"""SDHP: Sparse-Dense Hadamard Product (§4.1).

``out[k] = vals[k] * dense[didx[k]]`` over the non-zeros of a sparse
matrix, where ``didx[k] = row(k)*cols + col(k)`` is the flat position of
non-zero k in the dense operand — the elementwise sampling of the dense
matrix at the sparse pattern's coordinates.  A single flat loop with one
cache-averse gather: the cleanest ``A[B[i]]`` instance, and the paper's
SuiteSparse/Kronecker workload.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.interp import Runtime
from repro.compiler.ir import (
    Bin,
    ComputeStmt,
    ForStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    Var,
)
from repro.datasets.kronecker import kronecker_graph
from repro.datasets.sparse import CsrMatrix, random_csr
from repro.kernels.base import LoopWorkload, WorkloadBinding, assert_close


def build_sdhp_kernel() -> Kernel:
    body = [
        ForStmt("k", Var("nz_lo"), Var("nz_hi"), [
            LoadStmt("idx", "didx", Var("k")),
            LoadStmt("dv", "dense", Var("idx")),   # the IMA
            LoadStmt("v", "vals", Var("k")),
            ComputeStmt("r", Bin("*", Var("v"), Var("dv")), cycles=1),
            StoreStmt("out", Var("k"), Var("r")),
        ]),
    ]
    return Kernel(
        name="sdhp",
        arrays=["didx", "dense", "vals", "out"],
        params=["nz_lo", "nz_hi"],
        body=body,
    )


class SdhpDataset:
    """The sparse pattern (flattened), its values, and the sampled dense
    entries.  Only the sampled dense positions are materialized."""

    def __init__(self, matrix: CsrMatrix, dense_values: dict, dense_size: int):
        self.matrix = matrix
        self.dense_values = dense_values  # flat index -> value
        self.dense_size = dense_size
        rows_of = matrix.row_of_nnz()
        self.didx = [int(rows_of[k]) * matrix.cols + int(matrix.col_idx[k])
                     for k in range(matrix.nnz)]

    def reference(self) -> np.ndarray:
        return np.array([
            self.matrix.values[k] * self.dense_values[self.didx[k]]
            for k in range(self.matrix.nnz)
        ])


def _make_dataset(matrix: CsrMatrix, seed: int) -> SdhpDataset:
    rng = np.random.default_rng(seed)
    rows_of = matrix.row_of_nnz()
    dense_values = {}
    for k in range(matrix.nnz):
        flat = int(rows_of[k]) * matrix.cols + int(matrix.col_idx[k])
        dense_values[flat] = float(rng.uniform(0.5, 1.5))
    return SdhpDataset(matrix, dense_values, matrix.rows * matrix.cols)


class SdhpWorkload(LoopWorkload):
    name = "sdhp"

    def default_dataset(self, scale: int = 1, seed: int = 0,
                        kind: str = "suitesparse") -> SdhpDataset:
        """``kind="suitesparse"`` uses a random CSR surrogate;
        ``kind="kronecker"`` samples the paper's Kronecker pattern."""
        if kind == "kronecker":
            graph = kronecker_graph(scale=9, edges_per_vertex=scale,
                                    seed=13 + seed)
            matrix = CsrMatrix(
                graph.num_vertices, graph.num_vertices, graph.row_ptr,
                graph.neighbors, np.ones(graph.num_edges))
        else:
            matrix = random_csr(rows=32 * scale, cols=16384, nnz_per_row=16,
                                seed=17 + seed)
        return _make_dataset(matrix, seed=19 + seed)

    def bind(self, soc, aspace, dataset: SdhpDataset) -> WorkloadBinding:
        m = dataset.matrix
        dense = soc.array(aspace, dataset.dense_size, "dense")
        for flat, value in dataset.dense_values.items():
            dense.write(flat, value)
        arrays = {
            "didx": soc.array(aspace, dataset.didx, "didx"),
            "dense": dense,
            "vals": soc.array(aspace, [float(v) for v in m.values], "vals"),
            "out": soc.array(aspace, m.nnz, "out"),
        }
        expected = dataset.reference()

        def check() -> None:
            got = np.array(arrays["out"].to_list(), dtype=float)
            assert_close(got, expected, rtol=1e-9)

        return WorkloadBinding(
            kernel=build_sdhp_kernel(),
            runtime=Runtime(arrays),
            partition_params=("nz_lo", "nz_hi"),
            total_iterations=m.nnz,
            check=check,
            droplet_indirections=(("didx", "dense"),),
        )
