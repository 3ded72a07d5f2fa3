"""Graph datasets for BFS (§4.1).

The paper traverses Wikipedia, YouTube, and LiveJournal.  Those dumps are
multi-GB and not redistributable; the surrogates here are seeded
power-law graphs (preferential-attachment style) scaled so that the
distance array and adjacency lists dwarf the simulated 8 KB L1 / 64 KB L2
— which is the property BFS's indirect `dist[neighbor]` accesses need in
order to be DRAM-bound, as on the real datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class Graph:
    """Directed graph in CSR adjacency form."""

    name: str
    num_vertices: int
    row_ptr: np.ndarray  # len = num_vertices + 1
    neighbors: np.ndarray  # len = num_edges

    def __post_init__(self) -> None:
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.neighbors = np.asarray(self.neighbors, dtype=np.int64)
        if len(self.row_ptr) != self.num_vertices + 1:
            raise ValueError("row_ptr must have num_vertices+1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.neighbors):
            raise ValueError("row_ptr extents are inconsistent")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.neighbors) and (self.neighbors.min() < 0
                                    or self.neighbors.max() >= self.num_vertices):
            raise ValueError("neighbor id out of range")

    @property
    def num_edges(self) -> int:
        return len(self.neighbors)

    def neighbors_of(self, vertex: int) -> np.ndarray:
        return self.neighbors[self.row_ptr[vertex]:self.row_ptr[vertex + 1]]


def _edges_to_graph(name: str, num_vertices: int, sources, targets) -> Graph:
    order = np.lexsort((targets, sources))
    sources = np.asarray(sources)[order]
    targets = np.asarray(targets)[order]
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(row_ptr, sources + 1, 1)
    row_ptr = np.cumsum(row_ptr)
    return Graph(name, num_vertices, row_ptr, targets)


def power_law_graph(num_vertices: int, avg_degree: int, seed: int,
                    name: str = "powerlaw") -> Graph:
    """A seeded scale-free-ish directed graph.

    Targets are drawn with probability proportional to a Zipf-like rank
    weight, producing the skewed degree distribution (hubs) that makes
    real-web BFS frontiers irregular.
    """
    if num_vertices < 2:
        raise ValueError("graph needs at least two vertices")
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * avg_degree
    # Zipf-ish target popularity over a permuted vertex order, so hub ids
    # are scattered (no accidental locality).
    weights = 1.0 / np.arange(1, num_vertices + 1) ** 0.8
    weights /= weights.sum()
    permutation = rng.permutation(num_vertices)
    sources = rng.integers(0, num_vertices, size=num_edges)
    targets = permutation[rng.choice(num_vertices, size=num_edges, p=weights)]
    keep = sources != targets
    return _edges_to_graph(name, num_vertices, sources[keep], targets[keep])


def wikipedia_surrogate(scale: int = 2048, seed: int = 1) -> Graph:
    """Stands in for the Wikipedia link graph (dense hubs, avg degree ~12)."""
    return power_law_graph(scale, avg_degree=12, seed=seed, name="wikipedia")


def youtube_surrogate(scale: int = 2048, seed: int = 2) -> Graph:
    """Stands in for the YouTube social graph (sparser, avg degree ~5)."""
    return power_law_graph(scale, avg_degree=5, seed=seed, name="youtube")


def livejournal_surrogate(scale: int = 2048, seed: int = 3) -> Graph:
    """Stands in for LiveJournal (avg degree ~17)."""
    return power_law_graph(scale, avg_degree=17, seed=seed, name="livejournal")


def reference_bfs(graph: Graph, root: int) -> List[int]:
    """Level-synchronous BFS distances (numpy-free reference oracle)."""
    INF = -1
    dist = [INF] * graph.num_vertices
    dist[root] = 0
    frontier = [root]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for vertex in frontier:
            for neighbor in graph.neighbors_of(vertex):
                if dist[neighbor] == INF:
                    dist[neighbor] = level
                    next_frontier.append(int(neighbor))
        frontier = next_frontier
    return dist
