"""Property-based cross-technique equivalence.

The strongest end-to-end invariant in the system: for randomized inputs,
every latency-tolerance technique must compute bit-identical results to
plain execution — decoupling and prefetching are *performance*
transformations, never semantic ones.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import Technique, analyze, plan_for
from repro.compiler.interp import (
    AccessRole,
    DoallRole,
    ExecuteRole,
    LimaRole,
    MapleBackend,
    PrefetchRole,
    Runtime,
    interpret,
)
from repro.core.api import QueueHandle
from repro.cpu import Thread
from repro.datasets.graphs import power_law_graph
from repro.datasets.sparse import random_csr
from repro.harness import run_workload
from repro.kernels.spmv import SpmvDataset
from repro.system import Soc
from tests.test_compiler_interp import gather_kernel


def run_gather(technique, b_indices, a_values):
    n = len(b_indices)
    soc = Soc()
    aspace = soc.new_process()
    arrays = {
        "b": soc.array(aspace, b_indices, "b"),
        "a": soc.array(aspace, a_values, "a"),
        "out": soc.array(aspace, n, "out"),
    }
    kernel = gather_kernel()
    analysis = analyze(kernel)
    runtime = Runtime(arrays, {"lo": 0, "hi": n})
    if technique == "doall":
        plan = plan_for(analysis, Technique.DOALL)
        threads = [(0, Thread(interpret(kernel, runtime, DoallRole(plan)),
                              aspace, "t"))]
    elif technique == "prefetch":
        plan = plan_for(analysis, Technique.SW_PREFETCH)
        threads = [(0, Thread(
            interpret(kernel, runtime, PrefetchRole(plan)),
            aspace, "t"))]
    elif technique == "lima":
        plan = plan_for(analysis, Technique.LIMA_PREFETCH)
        api = soc.driver.attach(aspace)

        def program():
            handle = yield from api.open(0)
            chain = plan.lima_chains[0]
            role = LimaRole(plan, {chain.ima_load.stmt_id: handle})
            yield from interpret(kernel, runtime, role)

        threads = [(0, Thread(program(), aspace, "t"))]
    else:  # maple decoupling
        plan = plan_for(analysis, Technique.MAPLE_DECOUPLE)
        api = soc.driver.attach(aspace)

        def access():
            handle = yield from api.open(0)
            yield from interpret(kernel, runtime,
                                 AccessRole(plan, MapleBackend(handle)))

        def execute():
            role = ExecuteRole(plan, MapleBackend(QueueHandle(api, 0)))
            yield from interpret(kernel, runtime, role)

        threads = [(0, Thread(access(), aspace, "a")),
                   (1, Thread(execute(), aspace, "e"))]
    soc.run_threads(threads)
    return arrays["out"].to_list()


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_all_techniques_agree_on_random_gathers(data):
    n = data.draw(st.integers(min_value=1, max_value=24))
    b = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=n, max_size=n))
    a = data.draw(st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=n, max_size=n))
    expected = [a[idx] * 2 for idx in b]
    for technique in ("doall", "maple", "prefetch", "lima"):
        assert run_gather(technique, b, a) == expected, technique


@given(st.integers(min_value=16, max_value=80),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=8, deadline=None)
def test_bfs_techniques_correct_on_random_graphs(n, degree, seed):
    graph = power_law_graph(n, avg_degree=degree, seed=seed)
    # run_workload validates distances against the reference internally.
    run_workload("bfs", "maple-decouple", threads=2, dataset=graph)
    run_workload("bfs", "lima", threads=1, dataset=graph)


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=8, deadline=None)
def test_spmv_decoupling_correct_on_random_matrices(rows, nnz, seed):
    matrix = random_csr(rows, 96, nnz_per_row=nnz, seed=seed)
    rng = np.random.default_rng(seed)
    dataset = SpmvDataset(matrix, rng.uniform(1, 2, size=96))
    run_workload("spmv", "maple-decouple", threads=2, dataset=dataset)
    run_workload("spmv", "desc", threads=2, dataset=dataset)
    run_workload("spmv", "sw-decouple", threads=2, dataset=dataset)
