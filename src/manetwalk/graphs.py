"""Neighbor resolution: dynamic disk graphs over a uniform grid, static oracle families, link churn."""

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


class UnknownNodeError(KeyError):
    """A node id outside the provider's range."""


class SpatialIndex:
    """Uniform grid with cell size = comm_range; each node lives in exactly one cell."""

    def __init__(self, positions: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self.cells: Dict[Tuple[int, int], np.ndarray] = {}
        cx = np.floor(positions[:, 0] / cell_size).astype(np.int64)
        cy = np.floor(positions[:, 1] / cell_size).astype(np.int64)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for i in range(len(positions)):
            buckets.setdefault((int(cx[i]), int(cy[i])), []).append(i)
        for key, ids in buckets.items():
            self.cells[key] = np.asarray(ids, dtype=np.int64)

    def cell_of(self, point) -> Tuple[int, int]:
        return (int(math.floor(point[0] / self.cell_size)),
                int(math.floor(point[1] / self.cell_size)))

    def candidates(self, point) -> np.ndarray:
        """All ids in the 3x3 cell neighborhood of a point."""
        cx, cy = self.cell_of(point)
        found = []
        for mx in (cx - 1, cx, cx + 1):
            for my in (cy - 1, cy, cy + 1):
                ids = self.cells.get((mx, my))
                if ids is not None:
                    found.append(ids)
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(found)


class NeighborProvider:
    """Who a token can hop to. Symmetric and irreflexive in every variant."""

    n_nodes: int

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        raise NotImplementedError

    def neighbors(self, node_id: int) -> Set[int]:
        return set(int(j) for j in self.neighbor_ids(node_id))

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise UnknownNodeError(f"node id {node_id} outside [0, {self.n_nodes})")


class CompleteGraph(NeighborProvider):
    """Every pair connected; the cover-time oracle graph."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("CompleteGraph needs n >= 1")
        self.n_nodes = n
        self._cache: Dict[int, np.ndarray] = {}

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        ids = self._cache.get(node_id)
        if ids is None:
            ids = np.delete(np.arange(self.n_nodes, dtype=np.int64), node_id)
            self._cache[node_id] = ids
        return ids


class CycleGraph(NeighborProvider):
    def __init__(self, n: int):
        if n < 3:
            raise ValueError("CycleGraph needs n >= 3")
        self.n_nodes = n
        ids = np.arange(n, dtype=np.int64)
        table = np.stack([(ids - 1) % n, (ids + 1) % n], axis=1)
        table.sort(axis=1)
        self._table = table

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        return self._table[node_id]


class PathGraph(NeighborProvider):
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("PathGraph needs n >= 1")
        self.n_nodes = n

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        ids = [j for j in (node_id - 1, node_id + 1) if 0 <= j < self.n_nodes]
        return np.asarray(ids, dtype=np.int64)


class TorusLattice(NeighborProvider):
    """Width x height grid with wraparound; 4-neighborhood, no boundary effects."""

    def __init__(self, width: int, height: int):
        if width < 3 or height < 3:
            raise ValueError("TorusLattice needs width, height >= 3")
        self.width = width
        self.height = height
        self.n_nodes = width * height
        ids = np.arange(self.n_nodes, dtype=np.int64)
        r, c = np.divmod(ids, width)
        table = np.stack([
            ((r - 1) % height) * width + c,
            ((r + 1) % height) * width + c,
            r * width + (c - 1) % width,
            r * width + (c + 1) % width,
        ], axis=1)
        table.sort(axis=1)
        self._table = table

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        return self._table[node_id]


class DiskGraph(NeighborProvider):
    """Disk graph over node positions; edges are pairs within comm_range (closed ball)."""

    def __init__(self, positions: np.ndarray, comm_range: float):
        self.positions = positions
        self.comm_range = comm_range
        self._r2 = comm_range * comm_range
        self.n_nodes = len(positions)
        self.index = SpatialIndex(positions, comm_range)

    def refresh(self) -> None:
        """Rebuild the spatial index after positions changed in place."""
        self.index = SpatialIndex(self.positions, self.comm_range)

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        p = self.positions[node_id]
        cand = self.index.candidates(p)
        d = self.positions[cand] - p
        near = cand[(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= self._r2]
        near = near[near != node_id]
        near.sort()
        return near

    def edge_set(self) -> Set[Edge]:
        return disk_edges(self.positions, self.comm_range, index=self.index)


def disk_edges(positions: np.ndarray, comm_range: float,
               index: Optional[SpatialIndex] = None) -> Set[Edge]:
    """All disk-graph edges as canonical (low, high) id pairs.

    Sweeps grid cells with a forward 4-cell stencil so each cell pair is
    visited once; distances are compared on the closed ball.
    """
    if index is None:
        index = SpatialIndex(positions, comm_range)
    r2 = comm_range * comm_range
    edges: Set[Edge] = set()
    for (cx, cy), ids in index.cells.items():
        pts = positions[ids]
        k = ids.size
        if k > 1:
            d = pts[:, None, :] - pts[None, :, :]
            close = (d[:, :, 0] ** 2 + d[:, :, 1] ** 2) <= r2
            ai, bi = np.nonzero(np.triu(close, 1))
            for a, b in zip(ids[ai], ids[bi]):
                edges.add((int(a), int(b)) if a < b else (int(b), int(a)))
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            other = index.cells.get((cx + dx, cy + dy))
            if other is None:
                continue
            d = pts[:, None, :] - positions[other][None, :, :]
            close = (d[:, :, 0] ** 2 + d[:, :, 1] ** 2) <= r2
            ai, bi = np.nonzero(close)
            for a, b in zip(ids[ai], other[bi]):
                edges.add((int(a), int(b)) if a < b else (int(b), int(a)))
    return edges


def is_connected(positions: np.ndarray, comm_range: float) -> bool:
    """True iff the disk graph over the positions has a single component."""
    n = len(positions)
    if n <= 1:
        return True
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n
    for a, b in disk_edges(positions, comm_range):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


class LinkEventCounter:
    """Counts disk-graph edge appearances and disappearances between snapshots."""

    def __init__(self, n_nodes: int, period: float = 1.0):
        self.n_nodes = n_nodes
        self.period = period
        self.previous: Optional[Set[Edge]] = None
        self.events = 0
        self.per_node = np.zeros(n_nodes, dtype=np.int64)
        self.duration = 0.0

    def observe(self, edges: Set[Edge]) -> None:
        """Fold in one snapshot; the first call only establishes the baseline."""
        if self.previous is None:
            self.previous = set(edges)
            return
        changed = self.previous ^ edges
        self.events += len(changed)
        for a, b in changed:
            self.per_node[a] += 1
            self.per_node[b] += 1
        self.previous = set(edges)
        self.duration += self.period
