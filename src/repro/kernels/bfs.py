"""BFS: level-synchronous breadth-first search (§4.1).

The per-level traversal is expressed in the compiler IR (frontier scan,
CSR expansion, the ``dist[neighbor]`` IMA, conditional update, atomic
frontier append).  The level loop itself — reading the frontier count,
epoch barriers, buffer swap, count reset — is a fully timed *driver*
generator each thread runs, mirroring the manual slicing the paper used
for its FPGA runs.

``dist`` is annotated as a benign-race array: the check-and-set update is
idempotent within a level, so stale values read through MAPLE (or by a
racing thread) cause at most duplicate frontier entries, never wrong
distances — the epoch-barrier argument of §3.6.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.compiler.interp import Role, Runtime, interpret
from repro.compiler.ir import (
    Bin,
    Const,
    FetchAddStmt,
    ForStmt,
    IfStmt,
    Kernel,
    LoadStmt,
    StoreStmt,
    Var,
)
from repro.cpu import isa
from repro.datasets.graphs import Graph, reference_bfs
from repro.kernels.base import LoopWorkload

UNVISITED = -1


def build_bfs_level_kernel() -> Kernel:
    """One level: expand frontier[f_lo:f_hi], updating dist and appending
    newly discovered vertices."""
    body = [
        ForStmt("f", Var("f_lo"), Var("f_hi"), [
            LoadStmt("v", "frontier", Var("f")),
            LoadStmt("rlo", "row_ptr", Var("v")),
            LoadStmt("rhi", "row_ptr", Bin("+", Var("v"), Const(1))),
            ForStmt("j", Var("rlo"), Var("rhi"), [
                LoadStmt("u", "neighbors", Var("j")),
                LoadStmt("d", "dist", Var("u")),  # the IMA (benign race)
                IfStmt(Bin("==", Var("d"), Const(UNVISITED)), [
                    StoreStmt("dist", Var("u"), Var("level")),
                    FetchAddStmt("slot", "next_count", Const(0), Const(1)),
                    StoreStmt("next_frontier", Var("slot"), Var("u")),
                ]),
            ]),
        ]),
    ]
    return Kernel(
        name="bfs_level",
        arrays=["frontier", "row_ptr", "neighbors", "dist",
                "next_frontier", "next_count"],
        params=["f_lo", "f_hi", "level"],
        body=body,
        benign_race_arrays=("dist",),
    )


def _block(count: int, index: int, parts: int) -> Tuple[int, int]:
    per = (count + parts - 1) // parts
    lo = min(index * per, count)
    return lo, min(lo + per, count)


class BfsBinding:
    """BFS bound into a simulated address space."""

    MAX_APPEND_FACTOR = 9  # worst-case duplicate appends across 8 threads

    def __init__(self, soc, aspace, graph: Graph, root: int):
        self.soc = soc
        self.aspace = aspace
        self.graph = graph
        self.root = root
        self.kernel = build_bfs_level_kernel()
        n = graph.num_vertices
        cap = n * self.MAX_APPEND_FACTOR
        self.row_ptr = soc.array(aspace, [int(v) for v in graph.row_ptr], "row_ptr")
        self.neighbors = soc.array(aspace, [int(v) for v in graph.neighbors],
                                   "neighbors")
        self.dist = soc.array(aspace, [UNVISITED] * n, "dist")
        self.frontier_a = soc.array(aspace, cap, "frontier_a")
        self.frontier_b = soc.array(aspace, cap, "frontier_b")
        self.count_cur = soc.array(aspace, 1, "count_cur")
        self.next_count = soc.array(aspace, 1, "next_count")
        # Initial state: the root is at distance 0 and forms the frontier.
        self.dist.write(root, 0)
        self.frontier_a.write(0, root)
        self.count_cur.write(0, 1)
        #: The arrays every level shares (the frontiers swap per level).
        self.arrays: Dict[str, object] = {
            "row_ptr": self.row_ptr,
            "neighbors": self.neighbors,
            "dist": self.dist,
            "next_count": self.next_count,
        }
        self.droplet_indirections = (("neighbors", "dist"),)

    def check(self) -> None:
        expected = reference_bfs(self.graph, self.root)
        got = self.dist.to_list()
        if got != expected:
            wrong = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
            raise AssertionError(f"BFS distances wrong at vertices {wrong[:10]}")

    def slice_runner(self, threads: int):
        """How each of ``threads`` threads runs its slice: the level
        :meth:`driver`, against one barrier they all share."""
        return partial(self.driver, self.soc.barrier(threads, name="bfs"))

    def driver(self, barrier, role: Role, slice_index: int, num_slices: int,
               bookkeeper: bool,
               after_level: Optional[Callable[[], object]] = None):
        """The per-thread timed level loop.

        ``after_level`` optionally supplies a generator run after each
        level's kernel slice (software-queue flush, DeSC store drain).
        Only the ``bookkeeper`` publishes the next level's count.
        """
        level = 1
        current, upcoming = self.frontier_a, self.frontier_b
        while True:
            count = yield isa.Load(self.count_cur.addr(0))
            if count == 0:
                break
            lo, hi = _block(count, slice_index, num_slices)
            arrays = dict(self.arrays)
            arrays["frontier"] = current
            arrays["next_frontier"] = upcoming
            runtime = Runtime(arrays, params={"f_lo": lo, "f_hi": hi,
                                              "level": level})
            yield from interpret(self.kernel, runtime, role)
            if after_level is not None:
                yield from after_level()
            yield isa.Sync(barrier)       # all updates of this level done
            ncount = yield isa.Load(self.next_count.addr(0))
            yield isa.Sync(barrier)       # everyone has read the new count
            if bookkeeper:
                yield isa.Store(self.count_cur.addr(0), ncount)
                yield isa.Store(self.next_count.addr(0), 0)
            yield isa.Sync(barrier)       # bookkeeping visible to all
            current, upcoming = upcoming, current
            level += 1


class BfsWorkload(LoopWorkload):
    name = "bfs"

    def default_dataset(self, scale: int = 1, seed: int = 0,
                        which: str = "wikipedia") -> Graph:
        """Graphs sized so the dist array (128 KB at scale 1) exceeds the
        64 KB L2, putting dist[neighbor] in the DRAM-bound regime it
        occupies on the real Wikipedia/YouTube/LiveJournal graphs.  The
        surrogates keep those datasets' *relative* densities but at a
        reduced average degree so full-system simulation stays tractable.
        """
        from repro.datasets.graphs import power_law_graph
        degrees = {"wikipedia": 12, "youtube": 8, "livejournal": 16}
        return power_law_graph(16384 * scale, degrees[which], seed=seed + 1,
                               name=which)

    def bind(self, soc, aspace, dataset: Graph, root: int = 0) -> BfsBinding:
        return BfsBinding(soc, aspace, dataset, root)
