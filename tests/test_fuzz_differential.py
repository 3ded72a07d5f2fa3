"""Differential fuzzing: fast engine vs golden reference, random configs.

``tests/test_determinism.py`` proves the optimized event loop in
:mod:`repro.sim.engine` matches the preserved seed engine
(:class:`repro.sim.reference.ReferenceSimulator`) on one fixed workload.
This suite extends that guarantee across the configuration space the
evaluation sweeps: each case draws a random SoC configuration (mesh
geometry, queue depth, cache/TLB/DRAM parameters, MMIO path and hop
latencies), a random kernel with a small seeded dataset, and a random
execution technique — then runs it on **both** engines and requires
bit-identical cycle counts, executed-event totals, and full statistics
dumps.  Numerical results are additionally validated against the numpy
reference inside ``run_workload`` (its oracle runs on every cell).

Everything is derived from ``MASTER_SEED``, so a failing case number
reproduces exactly; datasets are deliberately tiny so the whole sweep
(100 cases x 2 engines) stays well under a minute.
"""

import random

import numpy as np
import pytest

import repro.system.soc as soc_module
from repro.datasets.graphs import power_law_graph
from repro.datasets.sparse import CscMatrix, random_csr
from repro.harness.techniques import run_workload
from repro.kernels.sdhp import _make_dataset as make_sdhp_dataset
from repro.kernels.spmm import SpmmDataset
from repro.kernels.spmv import SpmvDataset
from repro.params import SoCConfig
from repro.sim.reference import ReferenceSimulator

MASTER_SEED = 20260806
N_CASES = 100

#: Cheap-to-simulate mix; decoupling/prefetching techniques dominate
#: because they exercise MAPLE's queues, MMU, and NoC paths hardest.
TECHNIQUES = ("doall", "maple-decouple", "maple-decouple", "sw-decouple",
              "lima", "lima-llc", "sw-prefetch", "desc", "droplet")
KERNELS = ("spmv", "spmv", "spmv", "sdhp", "sdhp", "sdhp", "spmm", "bfs")


def random_config(rng: random.Random) -> SoCConfig:
    """A valid random SoCConfig spanning the knobs the sweeps touch.

    The mesh axis reaches 8x8 with up to 4 MAPLE instances under every
    placement policy, so the bit-identity gate covers the multi-MAPLE
    binding and placement code paths, not just the 2x2/3x3 seeds.
    """
    num_queues = rng.choice((4, 8))
    entries = rng.choice((4, 8, 16, 32))
    l1_ways = rng.choice((2, 4))
    mesh_side = rng.choice((2, 2, 3, 4, 8))
    maple_instances = rng.choice((1, 1, 2, 4))
    # MESI backend axis: a third of cases turn the home-node directory
    # on (random slicing), half of those also route L2 refill/writeback
    # over the MEMORY plane — so the bit-identity gate covers both
    # coherence backends and the protocol's NoC traffic.
    directory = rng.choice((False, False, True))
    directory_slices = rng.choice((1, 2, 4))
    directory_mem_traffic = directory and rng.random() < 0.5
    return SoCConfig(
        name=f"fuzz-{rng.randrange(1 << 30)}",
        num_cores=rng.choice((2, 4)),
        mesh_cols=mesh_side,
        mesh_rows=rng.choice((2, 3)) if mesh_side <= 3 else mesh_side,
        maple_instances=maple_instances,
        maple_placement=(rng.choice(("legacy", "edge", "center",
                                     "per-quadrant"))
                         if mesh_side >= 3 else "legacy"),
        hop_latency=rng.choice((1, 2)),
        mmio_path_latency=rng.choice((4, 8)),
        l1_size=rng.choice((4, 8)) * 1024,
        l1_ways=l1_ways,
        l1_latency=rng.choice((1, 2)),
        l2_size=rng.choice((32, 64)) * 1024,
        l2_latency=rng.choice((20, 30)),
        core_mshrs=rng.choice((1, 2)),
        store_buffer_entries=rng.choice((4, 8)),
        dram_latency=rng.choice((100, 300)),
        dram_max_inflight=rng.choice((8, 16)),
        maple_num_queues=num_queues,
        scratchpad_bytes=entries * num_queues * 4,
        maple_tlb_entries=rng.choice((8, 16)),
        maple_max_inflight=rng.choice((8, 32)),
        produce_buffer_entries=rng.choice((2, 4)),
        core_tlb_entries=rng.choice((8, 16)),
        directory=directory,
        directory_slices=directory_slices,
        directory_mem_traffic=directory_mem_traffic,
    )


def random_dataset(rng: random.Random, workload: str):
    """A tiny seeded dataset so each simulation stays in the ~10ms range."""
    seed = rng.randrange(10_000)
    if workload == "spmv":
        cols = rng.choice((128, 256))
        matrix = random_csr(rows=rng.randrange(4, 10), cols=cols,
                            nnz_per_row=rng.randrange(2, 6), seed=seed)
        x = np.random.default_rng(seed + 1).uniform(1.0, 2.0, size=cols)
        return SpmvDataset(matrix, x)
    if workload == "sdhp":
        matrix = random_csr(rows=rng.randrange(2, 6),
                            cols=rng.choice((256, 512)),
                            nnz_per_row=rng.randrange(2, 8), seed=seed)
        return make_sdhp_dataset(matrix, seed=seed + 1)
    if workload == "spmm":
        a_csr = random_csr(rows=8, cols=rng.choice((128, 256)),
                           nnz_per_row=rng.randrange(2, 5), seed=seed)
        a = CscMatrix(a_csr.cols, 8, a_csr.row_ptr, a_csr.col_idx,
                      a_csr.values)
        b_csr = random_csr(rows=rng.randrange(1, 3), cols=8,
                           nnz_per_row=rng.randrange(2, 5), seed=seed + 1)
        b = CscMatrix(8, b_csr.rows, b_csr.row_ptr, b_csr.col_idx,
                      b_csr.values)
        return SpmmDataset(a, b)
    if workload == "bfs":
        return power_law_graph(rng.randrange(48, 129),
                               avg_degree=rng.randrange(3, 6), seed=seed)
    raise AssertionError(workload)


def random_case(case: int):
    """(config, workload, technique, threads, dataset, seed) for one case."""
    rng = random.Random(MASTER_SEED + case)
    config = random_config(rng)
    workload = rng.choice(KERNELS)
    technique = rng.choice(TECHNIQUES)
    decoupled = technique in ("maple-decouple", "sw-decouple", "desc")
    if decoupled:
        threads = 2
    elif technique in ("lima", "lima-llc"):
        # LIMA opens (threads x chains) queues; one thread always fits.
        threads = 1
    else:
        threads = rng.choice((1, 2))
    dataset = random_dataset(rng, workload)
    return config, workload, technique, threads, dataset, rng.randrange(100)


def run_case(case: int):
    config, workload, technique, threads, dataset, seed = random_case(case)
    result = run_workload(workload, technique, config=config,
                          threads=threads, dataset=dataset, seed=seed)
    return (result.cycles, result.soc.sim.events_executed,
            result.soc.stats_snapshot())


@pytest.mark.parametrize("case", range(N_CASES))
def test_fuzz_fast_engine_matches_reference(case, monkeypatch):
    cycles_fast, events_fast, stats_fast = run_case(case)

    monkeypatch.setattr(soc_module, "Simulator", ReferenceSimulator)
    cycles_ref, events_ref, stats_ref = run_case(case)

    assert cycles_fast == cycles_ref, f"cycle divergence in case {case}"
    assert events_fast == events_ref, f"event-count divergence in case {case}"
    assert stats_fast == stats_ref, f"stats divergence in case {case}"


@pytest.mark.slow
def test_fuzz_16x16_smoke_matches_reference(monkeypatch):
    """One 16x16, 4-MAPLE differential case (the large-mesh CI job's
    bit-identity gate; too slow for every tier-1 run)."""
    config = SoCConfig(name="fuzz-16x16", num_cores=8,
                       mesh_cols=16, mesh_rows=16, maple_instances=4,
                       maple_placement="per-quadrant")
    dataset = random_dataset(random.Random(MASTER_SEED), "spmv")

    def run(engine=None):
        if engine is not None:
            monkeypatch.setattr(soc_module, "Simulator", engine)
        result = run_workload("spmv", "maple-decouple", config=config,
                              threads=8, dataset=dataset)
        return (result.cycles, result.soc.sim.events_executed,
                result.soc.stats_snapshot())

    fast = run()
    ref = run(ReferenceSimulator)
    assert fast == ref


def test_fuzz_cases_are_reproducible():
    """The case generator itself is deterministic (a failing case number
    must mean the same experiment on every machine)."""
    a = random_case(7)
    b = random_case(7)
    assert a[0] == b[0]  # same SoCConfig (frozen dataclass equality)
    assert a[1:4] == b[1:4]
    assert a[5] == b[5]
