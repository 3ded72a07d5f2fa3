"""Tests for the workload definitions (datasets, bindings, references)."""

import numpy as np
import pytest

from repro.datasets.graphs import power_law_graph
from repro.datasets.sparse import random_csr
from repro.harness import run_workload
from repro.kernels import ALL_WORKLOADS, BfsWorkload, SpmvWorkload
from repro.kernels.base import assert_close
from repro.kernels.spmv import SpmvDataset
from repro.system import Soc


def test_registry_contains_all_four_paper_workloads():
    assert set(ALL_WORKLOADS) == {"sdhp", "spmm", "spmv", "bfs"}


def test_datasets_are_deterministic():
    for name, cls in ALL_WORKLOADS.items():
        a = cls().default_dataset(seed=3)
        b = cls().default_dataset(seed=3)
        if name == "bfs":
            np.testing.assert_array_equal(a.neighbors, b.neighbors)
        elif name == "spmv":
            np.testing.assert_array_equal(a.matrix.col_idx, b.matrix.col_idx)


def test_spmv_reference_matches_numpy():
    ds = SpmvWorkload().default_dataset()
    dense = ds.matrix.to_dense()
    np.testing.assert_allclose(ds.reference(), dense @ ds.x)


def _accepts(check, got, expected, rtol, atol):
    try:
        check(np.array(got, dtype=float), np.array(expected, dtype=float),
              rtol=rtol, atol=atol)
    except AssertionError:
        return False
    return True


INF, NAN = float("inf"), float("nan")
#: (got, expected, rtol, atol): inside rtol, just outside it, atol only,
#: NaN against NaN and against a number, infinities, empty and 2-D.
CLOSE_CASES = [
    ([1.0, 2.0], [1.0, 2.0], 1e-9, 0.0),
    ([1.0 + 5e-10], [1.0], 1e-9, 0.0),
    ([1.0 + 2e-9], [1.0], 1e-9, 0.0),
    ([1e6 * (1 + 1.01e-9)], [1e6], 1e-9, 0.0),
    ([0.0], [1e-13], 1e-9, 0.0),
    ([0.0], [1e-13], 1e-9, 1e-12),
    ([5e-13], [0.0], 1e-9, 1e-12),
    ([2e-12], [0.0], 1e-9, 1e-12),
    ([1.0, 1.5e-12], [1.0, 0.0], 1e-9, 1e-12),
    ([NAN], [NAN], 1e-9, 0.0),
    ([NAN, 1.0], [NAN, 1.0], 1e-9, 1e-12),
    ([NAN], [1.0], 1e-9, 0.0),
    ([1.0], [NAN], 1e-9, 1e-12),
    ([INF], [INF], 1e-9, 0.0),
    ([-INF], [-INF], 1e-9, 1e-12),
    ([INF], [-INF], 1e-9, 0.0),
    ([INF], [1e308], 1e-9, 1e-12),
    ([1e308], [INF], 1e-9, 0.0),
    ([INF], [NAN], 1e-9, 0.0),
    ([], [], 1e-9, 0.0),
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0 + 1e-6]], 1e-9, 0.0),
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], 1e-9, 1e-12),
]


@pytest.mark.parametrize("got,expected,rtol,atol", CLOSE_CASES)
def test_assert_close_agrees_with_numpy_testing(got, expected, rtol, atol):
    want = _accepts(np.testing.assert_allclose, got, expected, rtol, atol)
    assert _accepts(assert_close, got, expected, rtol, atol) == want


def test_assert_close_grid_covers_both_verdicts():
    verdicts = {_accepts(np.testing.assert_allclose, *case)
                for case in CLOSE_CASES}
    assert verdicts == {True, False}


@pytest.mark.parametrize("got,expected", [
    ([1.0, 2.0], [1.0, 2.0, 3.0]),
    ([1.0, 1.0], [1.0]),
    ([[1.0, 2.0]], [1.0, 2.0]),
    ([1.0], 1.0),
])
def test_assert_close_rejects_shape_mismatch(got, expected):
    with pytest.raises(AssertionError, match="shape"):
        assert_close(got, expected, rtol=1e-9, atol=1e-12)


def test_spmv_dataset_shape_validation():
    matrix = random_csr(4, 10, 2, seed=1)
    with pytest.raises(ValueError):
        SpmvDataset(matrix, np.ones(5))


def test_spmv_slice_params_partition_rows():
    soc = Soc()
    aspace = soc.new_process()
    binding = SpmvWorkload().bind(soc, aspace,
                                  SpmvWorkload().default_dataset())
    parts = [binding.slice_params(t, 4) for t in range(4)]
    # Contiguous, disjoint, covering.
    assert parts[0]["row_lo"] == 0
    assert parts[-1]["row_hi"] == binding.total_iterations
    for left, right in zip(parts, parts[1:]):
        assert left["row_hi"] == right["row_lo"]
    with pytest.raises(ValueError):
        binding.slice_params(4, 4)


def test_small_custom_datasets_run_correctly():
    """Tiny datasets exercise the full stack quickly for every loop kernel."""
    spmv = SpmvDataset(random_csr(6, 64, 3, seed=2),
                       np.linspace(1, 2, 64))
    result = run_workload("spmv", "doall", threads=2, dataset=spmv)
    assert result.cycles > 0  # run_workload validated the result already


def test_bfs_small_graph_all_techniques_correct():
    graph = power_law_graph(96, avg_degree=4, seed=5)
    for technique in ("doall", "maple-decouple", "sw-decouple", "desc",
                      "droplet", "sw-prefetch", "lima"):
        threads = 1 if technique in ("sw-prefetch", "lima") else 2
        run_workload("bfs", technique, threads=threads, dataset=graph)
        # run_workload raises if distances differ from reference_bfs.


def test_bfs_binding_initial_state():
    soc = Soc()
    aspace = soc.new_process()
    graph = power_law_graph(64, avg_degree=3, seed=1)
    binding = BfsWorkload().bind(soc, aspace, graph, root=5)
    assert binding.dist.read(5) == 0
    assert binding.frontier_a.read(0) == 5
    assert binding.count_cur.read(0) == 1
    assert binding.dist.read(0) == -1


def test_bfs_four_thread_doall_matches_reference():
    graph = power_law_graph(128, avg_degree=4, seed=9)
    result = run_workload("bfs", "doall", threads=4, dataset=graph)
    assert result.cycles > 0


def test_spmm_small_dataset_correct_under_lima_llc():
    from repro.kernels.spmm import SpmmDataset
    from repro.datasets.sparse import CscMatrix
    a_csr = random_csr(rows=6, cols=128, nnz_per_row=3, seed=4)
    a = CscMatrix(128, 6, a_csr.row_ptr, a_csr.col_idx, a_csr.values)
    b_csr = random_csr(rows=3, cols=6, nnz_per_row=2, seed=5)
    b = CscMatrix(6, 3, b_csr.row_ptr, b_csr.col_idx, b_csr.values)
    run_workload("spmm", "lima-llc", threads=1, dataset=SpmmDataset(a, b))


def test_sdhp_kronecker_variant():
    from repro.kernels import SdhpWorkload
    ds = SdhpWorkload().default_dataset(scale=2, kind="kronecker")
    assert ds.matrix.nnz > 100
    ref = ds.reference()
    assert len(ref) == ds.matrix.nnz


def test_workload_results_deterministic_across_runs():
    spmv = SpmvDataset(random_csr(6, 64, 3, seed=2), np.linspace(1, 2, 64))
    a = run_workload("spmv", "maple-decouple", threads=2, dataset=spmv)
    b = run_workload("spmv", "maple-decouple", threads=2, dataset=spmv)
    assert a.cycles == b.cycles  # simulation is exactly reproducible
