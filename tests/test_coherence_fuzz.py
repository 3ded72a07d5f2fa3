"""Coherence protocol fuzzing: the directory-backed MESI stack under
random workloads with the quiescence audit armed.

Every case runs with ``directory=True`` and ``directory_mem_traffic=True``
on deliberately tiny caches (1 KB L1s, 4-8 KB shared L2), so capacity
evictions, inclusive recalls, dirty writebacks, and DRAM refills all
fire constantly — the protocol paths a comfortable cache never
exercises.  Each case arms the :class:`~repro.sim.invariants.
InvariantChecker` (``check_invariants=True``), whose quiescence audit
now includes :meth:`~repro.mem.coherence.CoherenceBook.check`:
single-writer, book-vs-tag-array agreement, and L1⊆L2 inclusion.

A case passes iff the run completes (no ``CoherenceError`` /
``DirectoryError`` escaped), the functional output matches the numpy
reference, and the audit finds nothing.  The sweep-level test then
asserts the protocol's memory-plane traffic was actually visible:
``dir_refill`` and ``dir_writeback`` messages must appear in the
``mem.slice*`` port taps across the sweep — traffic that taps cannot
see is traffic faults cannot reach.

Everything derives from ``MASTER_SEED`` so a failing case number
reproduces exactly.
"""

import random

import numpy as np
import pytest

from repro.cpu import Load, Store, Thread
from repro.datasets.graphs import Graph, power_law_graph
from repro.datasets.sparse import random_csr
from repro.harness.techniques import run_workload
from repro.kernels.sdhp import _make_dataset as make_sdhp_dataset
from repro.kernels.spmv import SpmvDataset
from repro.params import SoCConfig
from repro.sim.invariants import InvariantChecker
from repro.system import Soc
from repro.system.soc import coherence_stress_config

MASTER_SEED = 20260807
N_CASES = 100

#: Aggregated memory-plane message counts across the parametrized sweep
#: (asserted non-empty by test_sweep_saw_memory_plane_traffic, which
#: runs after the cases in file order).
_SWEEP_TRAFFIC = {"dir_refill": 0, "dir_writeback": 0, "cases": 0}


def random_coherence_config(rng: random.Random) -> SoCConfig:
    """A directory-on config with caches tiny enough to thrash."""
    mesh_side = rng.choice((2, 3, 3, 4))
    return SoCConfig(
        name=f"cohfuzz-{rng.randrange(1 << 30)}",
        num_cores=rng.choice((2, 4)),
        mesh_cols=mesh_side, mesh_rows=mesh_side,
        maple_instances=rng.choice((1, 1, 2)),
        maple_placement=("per-quadrant" if mesh_side >= 3 else "legacy"),
        l1_size=1024, l1_ways=rng.choice((2, 4)),
        l2_size=rng.choice((4, 8)) * 1024,
        l2_latency=rng.choice((20, 30)),
        dram_latency=rng.choice((100, 300)),
        dram_max_inflight=rng.choice((4, 8)),
        store_buffer_entries=rng.choice((4, 8)),
        directory=True,
        directory_slices=rng.choice((1, 2, 4)),
        directory_mem_traffic=True,
        mem_ctrl_tile=rng.randrange(mesh_side * mesh_side),
        reliable_ports=rng.random() < 0.25,
    )


def random_case(case: int):
    rng = random.Random(MASTER_SEED + case)
    config = random_coherence_config(rng)
    workload = rng.choice(("spmv", "spmv", "sdhp"))
    technique = rng.choice(("doall", "doall", "maple-decouple"))
    threads = 2 if technique == "maple-decouple" else rng.choice((1, 2))
    seed = rng.randrange(10_000)
    if workload == "spmv":
        cols = rng.choice((128, 256))
        matrix = random_csr(rows=rng.randrange(4, 10), cols=cols,
                            nnz_per_row=rng.randrange(2, 6), seed=seed)
        x = np.random.default_rng(seed + 1).uniform(1.0, 2.0, size=cols)
        dataset = SpmvDataset(matrix, x)
    else:
        matrix = random_csr(rows=rng.randrange(2, 6),
                            cols=rng.choice((256, 512)),
                            nnz_per_row=rng.randrange(2, 8), seed=seed)
        dataset = make_sdhp_dataset(matrix, seed=seed + 1)
    return config, workload, technique, threads, dataset, seed


def _mem_plane_counts(soc):
    """(refills, writebacks) sent over the ``dir.slice*.mem`` ports and
    served at the memory controller (``by_kind`` counts on the
    requesting side; the ``mem.slice*`` peers count them as served)."""
    refills = writebacks = served = 0
    for name, tap in soc.port_telemetry().items():
        if name.startswith("dir.slice") and name.endswith(".mem"):
            refills += tap["by_kind"].get("dir_refill", 0)
            writebacks += tap["by_kind"].get("dir_writeback", 0)
        elif name.startswith("mem.slice"):
            served += tap["served"]
    assert served == refills + writebacks, (
        f"memory plane lost messages: {refills}+{writebacks} sent, "
        f"{served} served")
    return refills, writebacks


def _run_thrash_case(case, rng, config):
    """A store-heavy false-sharing thrash: cores interleave writes over
    an array bigger than the L2, so MODIFIED lines stream out of both
    cache levels (the workload the read-mostly kernels never produce).
    Returns the quiesced Soc; the functional oracle is exact because
    each core owns a disjoint index partition."""
    soc = Soc(config)
    checker = InvariantChecker(soc).install()
    aspace = soc.new_process()
    words = 1024  # 128 lines: 2x a 4 KB L2, 8x the 1 KB L1s
    arr = soc.array(aspace, [0.0] * words, name="thrash")
    ncores = len(soc.cores)

    def prog(me):
        indices = list(range(me, words, ncores))
        rng_local = random.Random(MASTER_SEED + case * 100 + me)
        rng_local.shuffle(indices)
        for i in indices:
            yield Store(arr.addr(i), float(me * 10_000 + i))
            if rng_local.random() < 0.3:
                yield Load(arr.addr(rng_local.randrange(words)))

    soc.run_threads([(c, Thread(prog(c), aspace, f"thrash{c}"))
                     for c in range(ncores)])
    soc.drain()
    checker.verify()
    for i in range(words):
        expected = float((i % ncores) * 10_000 + i)
        assert arr.read(i) == expected, f"case {case}: thrash[{i}] corrupted"
    return soc


@pytest.mark.parametrize("case", range(N_CASES))
def test_coherence_fuzz_case(case):
    config, workload, technique, threads, dataset, seed = random_case(case)
    # Completing the run IS most of the assertion: any illegal MESI
    # transition raises CoherenceError at the event that caused it, any
    # double-grant raises DirectoryError, and verify() raises
    # InvariantViolation on a bad quiescent state.
    if case % 5 == 0:
        # One case in five swaps the kernel for the store-thrash program
        # (dirty-eviction pressure the kernels' read-heavy sets lack).
        rng = random.Random(MASTER_SEED + case)
        soc = _run_thrash_case(case, rng, random_coherence_config(rng))
    else:
        result = run_workload(workload, technique, config=config,
                              threads=threads, dataset=dataset, seed=seed,
                              check=True, check_invariants=True)
        assert result.invariants_checked is not None, \
            f"case {case}: audit skipped"
        soc = result.soc
    refills, writebacks = _mem_plane_counts(soc)
    snapshot = soc.stats_snapshot()
    # Every refill/writeback the directory counted crossed a real port.
    assert refills == snapshot.get("directory.refills", 0), f"case {case}"
    assert writebacks == snapshot.get("directory.writebacks", 0), f"case {case}"
    # Tiny caches + real traffic must miss the L2 — and with the memory
    # plane armed, every one of those misses is a visible message.
    assert refills > 0, f"case {case}: no dir_refill traffic on the taps"
    _SWEEP_TRAFFIC["dir_refill"] += refills
    _SWEEP_TRAFFIC["dir_writeback"] += writebacks
    _SWEEP_TRAFFIC["cases"] += 1


def test_sweep_saw_memory_plane_traffic():
    """The fuzz sweep exercised both protocol message kinds end to end
    (runs after the parametrized cases in file order)."""
    assert _SWEEP_TRAFFIC["cases"] == N_CASES
    assert _SWEEP_TRAFFIC["dir_refill"] > 0
    assert _SWEEP_TRAFFIC["dir_writeback"] > 0, (
        "no dirty L2 victim ever wrote back across the sweep — the "
        "writeback path is dead or the caches are not small enough")


def test_dirty_l2_victim_writes_back_over_the_noc():
    """Deterministic message-sequence check (no fuzz luck involved):
    store-thrash a 4 KB L2 so MODIFIED victims must stream back to the
    memory controller as ``dir_writeback`` messages."""
    soc = Soc(SoCConfig(
        name="wb-direct", num_cores=1, mesh_cols=2, mesh_rows=2,
        l1_size=1024, l2_size=4096,
        directory=True, directory_slices=2, directory_mem_traffic=True))
    aspace = soc.new_process()
    # 4 KB L2 = 64 lines; 1024 words = 128 lines: every line is filled,
    # dirtied by the store, and later evicted MODIFIED.
    arr = soc.array(aspace, [0.0] * 1024, name="thrash")

    def prog():
        for i in range(1024):
            yield Store(arr.addr(i), float(i))

    soc.run_threads([(0, Thread(prog(), aspace, "thrash"))])
    soc.drain()
    refills, writebacks = _mem_plane_counts(soc)
    snapshot = soc.stats_snapshot()
    assert refills == snapshot["directory.refills"] > 0
    assert writebacks == snapshot["directory.writebacks"] > 0
    # Every MODIFIED L2 victim (l2.writebacks) became a NoC message.
    assert writebacks == snapshot["l2.writebacks"]


def test_refills_ride_the_memory_plane():
    """With the memory plane armed, every L2 miss is a ``dir_refill``
    served at the memory-controller tile; DRAM reads happen server-side."""
    soc = Soc(SoCConfig(
        name="refill-direct", num_cores=1, mesh_cols=2, mesh_rows=2,
        directory=True, directory_mem_traffic=True, mem_ctrl_tile=3))
    aspace = soc.new_process()
    arr = soc.array(aspace, [1.0] * 256, name="seq")

    def prog():
        for i in range(0, 256, 8):  # one load per line
            yield Load(arr.addr(i))

    soc.run_threads([(0, Thread(prog(), aspace, "seq"))])
    soc.drain()
    refills, _ = _mem_plane_counts(soc)
    snapshot = soc.stats_snapshot()
    assert refills == snapshot["directory.refills"]
    assert snapshot["l2.misses"] > 0
    assert refills >= snapshot["l2.misses"]  # page-table fills add more


@pytest.mark.slow
@pytest.mark.parametrize("case", range(10))
def test_coherence_fuzz_16x16(case):
    """The nightly large-mesh variant: 16x16, per-quadrant MAPLEs, four
    home slices, memory plane armed, audit on."""
    rng = random.Random(MASTER_SEED + 7000 + case)
    config = SoCConfig(
        name=f"cohfuzz16-{case}", num_cores=8,
        mesh_cols=16, mesh_rows=16, maple_instances=4,
        maple_placement="per-quadrant",
        l1_size=1024, l2_size=8 * 1024,
        directory=True, directory_slices=4, directory_mem_traffic=True,
        mem_ctrl_tile=rng.randrange(256),
        reliable_ports=case % 2 == 0)
    matrix = random_csr(rows=8, cols=256, nnz_per_row=4,
                        seed=rng.randrange(10_000))
    x = np.random.default_rng(case).uniform(1.0, 2.0, size=256)
    result = run_workload("spmv", "maple-decouple", config=config,
                          threads=8, dataset=SpmvDataset(matrix, x),
                          check=True, check_invariants=True)
    refills, _ = _mem_plane_counts(result.soc)
    assert refills > 0


def _hub_rooted(graph):
    """``graph`` with its highest out-degree vertex relabelled 0, so the
    BFS (which starts at vertex 0) reaches the giant component."""
    degree = np.diff(graph.row_ptr)
    hub = int(np.argmax(degree))
    relabel = np.arange(graph.num_vertices)
    relabel[[0, hub]] = [hub, 0]
    sources = relabel[np.repeat(np.arange(graph.num_vertices), degree)]
    targets = relabel[graph.neighbors]
    order = np.lexsort((targets, sources))
    row_ptr = np.concatenate(([0], np.cumsum(
        np.bincount(sources, minlength=graph.num_vertices))))
    return Graph(graph.name, graph.num_vertices, row_ptr, targets[order])


@pytest.mark.parametrize("seed", (6, 14, 15))
def test_bfs_stores_land_only_under_a_live_grant(seed):
    """Regression: 16-way BFS on the 8x8 directory mesh.  Seeds 6 and 14
    once landed a store after ownership moved while its grant crossed
    the mesh (``CoherenceError`` single-writer violated); seed 15 landed
    a store MODIFIED after a void grant and a refill, without
    invalidating the new sharers (``DirectoryError`` at the next
    grant)."""
    graph = _hub_rooted(power_law_graph(4096, 4, seed))
    result = run_workload("bfs", "doall", threads=16,
                          config=coherence_stress_config(8, 4),
                          dataset=graph, check_invariants=True)
    assert result.invariants_checked
