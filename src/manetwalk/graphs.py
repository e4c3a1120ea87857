"""Neighbor resolution: static neighbor tables, disk graphs, link churn.

A static graph, whether an oracle family or a static deployment, is one table
of sorted int64 neighbor rows, built once. A mobile disk graph is held as its
node positions, read at query time, and its edges as sorted int64 keys
i * N + j (i < j) from a sweep over renumbered y strips (disk_edges). Churn
between two key snapshots is a merge count: both are sorted and unique, so in
their merged order every key they share is one adjacent equal pair, and the
keys in only one of them number |prev| + |cur| − 2 · (equal pairs).
"""

from typing import List, Optional, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


class UnknownNodeError(KeyError):
    """A node id outside the provider's range."""


class NeighborProvider:
    """Who a token can hop to. Symmetric and irreflexive in every variant."""

    n_nodes: int

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        raise NotImplementedError

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise UnknownNodeError(f"node id {node_id} outside [0, {self.n_nodes})")


class StaticGraph(NeighborProvider):
    """A graph that never changes, held as one sorted int64 neighbor row per node."""

    def __init__(self, rows: List[np.ndarray]):
        self._rows = rows  # a list: indexing it beats slicing a numpy CSR table per query
        self.n_nodes = len(rows)

    def __init_subclass__(cls):
        # perfbench/layers.py wraps each provider class's own neighbor_ids.
        cls.neighbor_ids = StaticGraph.neighbor_ids

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        return self._rows[node_id]


def component_size(provider: NeighborProvider, node_id: int) -> int:
    """How many nodes the graph as it stands connects to node_id, the node included."""
    seen = np.zeros(provider.n_nodes, dtype=bool)
    frontier = [node_id]
    while frontier:
        seen[frontier] = True
        reached = np.concatenate([provider.neighbor_ids(u) for u in frontier])
        frontier = np.unique(reached[~seen[reached]]).tolist()
    return int(np.count_nonzero(seen))


def rows_from_keys(keys: np.ndarray, n_nodes: int) -> List[np.ndarray]:
    """The sorted neighbor rows of the graph whose edges are the keys i * N + j, i < j."""
    lows, highs = np.divmod(keys, n_nodes)
    ends, others = np.divmod(np.sort(np.concatenate((keys, highs * n_nodes + lows))), n_nodes)
    return np.split(others, np.searchsorted(ends, np.arange(1, n_nodes)))


class CompleteGraph(StaticGraph):
    """Every pair connected; the cover-time oracle graph."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("CompleteGraph needs n >= 1")
        ids = np.arange(n - 1, dtype=np.int64)
        super().__init__(list(ids + (ids >= np.arange(n)[:, None])))


class CycleGraph(StaticGraph):
    def __init__(self, n: int):
        if n < 3:
            raise ValueError("CycleGraph needs n >= 3")
        ids = np.arange(n, dtype=np.int64)
        super().__init__(list(np.sort(np.stack([(ids - 1) % n, (ids + 1) % n], axis=1))))


class PathGraph(StaticGraph):
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("PathGraph needs n >= 1")
        super().__init__(rows_from_keys(np.arange(n - 1, dtype=np.int64) * (n + 1) + 1, n))


class TorusLattice(StaticGraph):
    """Width x height grid with wraparound; 4-neighborhood, no boundary effects."""

    def __init__(self, width: int, height: int):
        if width < 3 or height < 3:
            raise ValueError("TorusLattice needs width, height >= 3")
        r, c = np.divmod(np.arange(width * height, dtype=np.int64), width)
        table = np.stack([
            ((r - 1) % height) * width + c,
            ((r + 1) % height) * width + c,
            r * width + (c - 1) % width,
            r * width + (c + 1) % width,
        ], axis=1)
        super().__init__(list(np.sort(table)))


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
        d *= d
        d2 = d[:, 0] + d[:, 1]
        d2[node_id] = np.inf  # the node itself, whatever twin shares its position
        return (d2 <= self._r2).nonzero()[0]

    def edge_keys(self) -> np.ndarray:
        """The current edges as sorted keys i * n_nodes + j, i < j (see disk_edges)."""
        return disk_edges(self.positions, self.comm_range)

    def edge_set(self) -> Set[Edge]:
        """The current edges as canonical (low, high) id pairs."""
        return {divmod(int(k), self.n_nodes) for k in self.edge_keys()}


def disk_edges(positions: np.ndarray, comm_range: float) -> np.ndarray:
    """All disk-graph edges as sorted int64 keys i * N + j with i < j.

    Strip sweep: nodes sorted by (strip one reach high, x) pair with later nodes
    of their strip and nodes of the next strip within reach in x, both ranges
    from one searchsorted over rank * span + x. Strips are ranked 1 apart if
    adjacent, else 2, so that key stays below 2N * span and keeps x within the
    margin. The closed-ball test of DiskGraph.neighbor_ids decides each pair.
    """
    n = len(positions)
    extent = np.abs(positions).max(initial=0.0)
    # The margin covers rounding, so the sweep never drops a pair the exact test keeps.
    reach = comm_range + 1e-9 * (comm_range + extent)
    span = 2.0 * extent + 4.0 * reach
    strip = np.floor(positions[:, 1] / reach)
    order = np.lexsort((positions[:, 0], strip))
    xs, ys, strip = positions[order, 0], positions[order, 1], strip[order]
    gaps = np.zeros(n)
    np.subtract(strip[1:], strip[:-1], out=gaps[1:])
    key = np.minimum(gaps, 2.0, out=gaps).cumsum() * span + xs  # rank * span + x
    stops = key.searchsorted(key + np.array([[reach], [span - reach], [span + reach]]))
    ids = np.arange(n)
    starts = np.concatenate((ids + 1, stops[1]))
    counts = np.concatenate((stops[0], stops[2])) - starts
    a = np.concatenate((ids, ids)).repeat(counts)
    b = (starts - counts.cumsum() + counts).repeat(counts)
    b += np.arange(b.size)
    dx, dy = xs[a] - xs[b], ys[a] - ys[b]
    close = (dx * dx + dy * dy <= comm_range * comm_range).nonzero()[0]
    a, b = order[a[close]], order[b[close]]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    keys.sort()
    return keys


class LinkEventCounter:
    """Counts disk-graph edge appearances and disappearances between snapshots."""

    def __init__(self, period: float = 1.0):
        self.period = period
        self.previous: Optional[np.ndarray] = None
        self.events = 0
        self.duration = 0.0

    def observe(self, keys: np.ndarray) -> None:
        """Fold in one sorted key snapshot; the first call only establishes the baseline."""
        if self.previous is None:
            self.previous = keys
            return
        # Both snapshots are sorted and unique, so a key in both is one adjacent equal pair.
        both = np.concatenate((self.previous, keys))
        both.sort(kind="stable")  # a merge of the two sorted runs
        self.events += both.size - 2 * int(np.count_nonzero(both[1:] == both[:-1]))
        self.previous = keys
        self.duration += self.period
