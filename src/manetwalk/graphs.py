"""Neighbor resolution: disk graphs, static oracle families, link churn.

A disk graph is held as its node positions, read at query time, and its edges
as sorted int64 keys i * N + j (i < j). Churn is the symmetric difference of
two key snapshots.
"""

from typing import Dict, Optional, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


class UnknownNodeError(KeyError):
    """A node id outside the provider's range."""


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
    """Disk graph over positions read at query time; edges lie within comm_range (closed ball)."""

    def __init__(self, positions: np.ndarray, comm_range: float):
        self.positions = positions
        self.comm_range = comm_range
        self._r2 = comm_range * comm_range
        self.n_nodes = len(positions)

    def refresh(self) -> None:
        """No-op: queries read live positions. Kept because perfbench/layers.py wraps this name."""

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        """Sorted ids within comm_range of the node, from one distance row."""
        self._check(node_id)
        d = self.positions - self.positions[node_id]
        near = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= self._r2)
        return near[near != node_id]

    def edge_keys(self) -> np.ndarray:
        """The current edges as sorted keys i * n_nodes + j, i < j (see disk_edges)."""
        return disk_edges(self.positions, self.comm_range)

    def edge_set(self) -> Set[Edge]:
        """The current edges as canonical (low, high) id pairs."""
        return {divmod(int(k), self.n_nodes) for k in self.edge_keys()}


def disk_edges(positions: np.ndarray, comm_range: float) -> np.ndarray:
    """All disk-graph edges as sorted int64 keys i * N + j with i < j.

    Sweeps the nodes in x order: each node is paired with the later nodes
    whose x lies in a band slightly wider than comm_range, and the same
    closed-ball test as DiskGraph.neighbor_ids decides each pair.
    """
    n = len(positions)
    order = np.argsort(positions[:, 0], kind="stable")
    xs = positions[order, 0]
    ys = positions[order, 1]
    # The margin covers rounding, so the band never drops a pair the exact test keeps.
    reach = comm_range + 1e-9 * (comm_range + np.abs(xs).max(initial=0.0))
    first = np.arange(1, n + 1)
    stop = np.searchsorted(xs, xs + reach, side="right")
    counts = stop - first
    starts = np.cumsum(counts) - counts
    a = np.repeat(np.arange(n), counts)
    b = np.arange(int(counts.sum())) + np.repeat(first - starts, counts)
    dx = xs[a] - xs[b]
    dy = ys[a] - ys[b]
    close = dx * dx + dy * dy <= comm_range * comm_range
    a, b = order[a[close]], order[b[close]]
    return np.sort(np.minimum(a, b) * n + np.maximum(a, b))


def is_connected(positions: np.ndarray, comm_range: float) -> bool:
    """True iff the disk graph over the positions has a single component."""
    n = len(positions)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n
    lows, highs = np.divmod(disk_edges(positions, comm_range), n)
    for a, b in zip(lows.tolist(), highs.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components <= 1


class LinkEventCounter:
    """Counts disk-graph edge appearances and disappearances between snapshots."""

    def __init__(self, n_nodes: int, period: float = 1.0):
        self.n_nodes = n_nodes
        self.period = period
        self.previous: Optional[np.ndarray] = None
        self.events = 0
        self.per_node = np.zeros(n_nodes, dtype=np.int64)
        self.duration = 0.0

    def observe(self, keys: np.ndarray) -> None:
        """Fold in one sorted key snapshot; the first call only establishes the baseline."""
        if self.previous is None:
            self.previous = keys
            return
        changed = np.setxor1d(self.previous, keys, assume_unique=True)
        self.events += changed.size
        lows, highs = np.divmod(changed, self.n_nodes)
        self.per_node += np.bincount(lows, minlength=self.n_nodes)
        self.per_node += np.bincount(highs, minlength=self.n_nodes)
        self.previous = keys
        self.duration += self.period
