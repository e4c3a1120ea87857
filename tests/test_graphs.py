import numpy as np
import pytest

from manetwalk.core import SimConfig, geometry_for, rng_stream, validate_config
from manetwalk.graphs import (CompleteGraph, CycleGraph, DiskGraph,
                              LinkEventCounter, PathGraph, TorusLattice,
                              UnknownNodeError, disk_edges, is_connected)
from manetwalk.mobility import init_deployment


def brute_force_neighbors(positions, comm_range, i):
    """O(N^2) oracle: closed-ball disk neighbors of node i."""
    d = positions - positions[i]
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2
    return {int(j) for j in np.nonzero(d2 <= comm_range * comm_range)[0] if j != i}


def brute_force_edges(positions, comm_range):
    n = len(positions)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = positions[i] - positions[j]
            if d[0] * d[0] + d[1] * d[1] <= comm_range * comm_range:
                edges.add((i, j))
    return edges


def keys_of(edges, n):
    """Sorted int64 edge keys i * n + j of (i, j) pairs with i < j."""
    return np.array(sorted(i * n + j for i, j in edges), dtype=np.int64)


def assert_matches_brute_force(positions, r):
    graph = DiskGraph(positions, r)
    n = len(positions)
    for i in range(n):
        expected = sorted(brute_force_neighbors(positions, r, i))
        assert graph.neighbor_ids(i).tolist() == expected
    edges = brute_force_edges(positions, r)
    keys = disk_edges(positions, r)
    assert keys.dtype == np.int64
    assert np.array_equal(keys, keys_of(edges, n))
    assert graph.edge_set() == edges


def test_disk_graph_matches_brute_force_on_half_integer_grid():
    # Half-integer coordinates make x values tie and put pairs at exactly R.
    rng = np.random.default_rng(7)
    at_range = 0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        r = float(rng.choice([0.5, 1.0, 1.5, 2.5]))
        positions = rng.integers(0, 16, size=(n, 2)) / 2.0
        assert_matches_brute_force(positions, r)
        d = positions[:, None, :] - positions[None, :, :]
        at_range += int(np.count_nonzero(d[:, :, 0] ** 2 + d[:, :, 1] ** 2 == r * r))
    assert at_range > 0


def test_disk_graph_tiny_sizes():
    for n in (0, 1, 2):
        assert_matches_brute_force(np.zeros((n, 2)), 1.0)
    assert disk_edges(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0).tolist() == [1]
    assert disk_edges(np.array([[0.0, 0.0], [1.5, 0.0]]), 1.0).size == 0


def test_indexed_neighbors_match_brute_force_500():
    rng = np.random.default_rng(1)
    positions = rng.uniform(0, 100.0, size=(500, 2))
    graph = DiskGraph(positions, 7.5)
    for i in range(500):
        assert graph.neighbors(i) == brute_force_neighbors(positions, 7.5, i)


def test_indexed_neighbors_match_brute_force_200_configs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        side = float(rng.uniform(5.0, 40.0))
        r = float(rng.uniform(0.5, side / 2))
        assert_matches_brute_force(rng.uniform(0, side, size=(n, 2)), r)


def test_disk_edges_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 80))
        positions = rng.uniform(0, 25.0, size=(n, 2))
        r = float(rng.uniform(1.0, 10.0))
        assert np.array_equal(disk_edges(positions, r),
                              keys_of(brute_force_edges(positions, r), n))


def test_closed_ball_boundary():
    r = 2.0
    positions = np.array([[0.0, 0.0], [r, 0.0]])
    graph = DiskGraph(positions, r)
    assert graph.neighbors(0) == {1}
    assert graph.neighbors(1) == {0}


def test_static_variants_definitions():
    assert CompleteGraph(4).neighbors(2) == {0, 1, 3}
    assert CycleGraph(5).neighbors(0) == {4, 1}
    assert CycleGraph(5).neighbors(2) == {1, 3}
    assert PathGraph(4).neighbors(0) == {1}
    assert PathGraph(4).neighbors(3) == {2}
    assert PathGraph(4).neighbors(1) == {0, 2}
    assert TorusLattice(3, 3).neighbors(0) == {1, 2, 3, 6}
    assert CompleteGraph(1).neighbors(0) == set()


def test_torus_wraparound_degree():
    lattice = TorusLattice(5, 4)
    for i in range(lattice.n_nodes):
        assert len(lattice.neighbors(i)) == 4


@pytest.mark.parametrize("provider", [
    CompleteGraph(7),
    CycleGraph(9),
    PathGraph(6),
    TorusLattice(4, 5),
])
def test_symmetry_and_irreflexivity_static(provider):
    for i in range(provider.n_nodes):
        nbrs = provider.neighbors(i)
        assert i not in nbrs
        for j in nbrs:
            assert i in provider.neighbors(j)


def test_symmetry_dynamic():
    rng = np.random.default_rng(4)
    positions = rng.uniform(0, 30.0, size=(120, 2))
    graph = DiskGraph(positions, 4.0)
    for i in range(120):
        nbrs = graph.neighbors(i)
        assert i not in nbrs
        for j in nbrs:
            assert i in graph.neighbors(j)


def test_unknown_node_errors():
    for provider in (CompleteGraph(3), CycleGraph(3), PathGraph(3),
                     TorusLattice(3, 3), DiskGraph(np.zeros((3, 2)), 1.0)):
        with pytest.raises(UnknownNodeError):
            provider.neighbors(provider.n_nodes)
        with pytest.raises(UnknownNodeError):
            provider.neighbors(-1)


def test_degenerate_graph_sizes_rejected():
    with pytest.raises(ValueError):
        CycleGraph(2)
    with pytest.raises(ValueError):
        TorusLattice(2, 5)
    with pytest.raises(ValueError):
        CompleteGraph(0)


def test_link_events_identical_snapshots():
    counter = LinkEventCounter(4)
    counter.observe(keys_of({(0, 1)}, 4))
    counter.observe(keys_of({(0, 1)}, 4))
    assert counter.events == 0
    assert counter.per_node.sum() == 0


def test_link_events_appear_and_disappear():
    counter = LinkEventCounter(4)
    counter.observe(keys_of({(2, 3)}, 4))
    counter.observe(keys_of({(0, 1)}, 4))  # (0,1) appeared, (2,3) disappeared
    assert counter.events == 2
    assert list(counter.per_node) == [1, 1, 1, 1]
    assert counter.duration == 1.0


def test_link_events_per_node_sum_invariant():
    rng = np.random.default_rng(5)
    counter = LinkEventCounter(20)
    for _ in range(30):
        k = int(rng.integers(0, 15))
        edges = set()
        while len(edges) < k:
            a, b = sorted(rng.integers(0, 20, size=2))
            if a != b:
                edges.add((int(a), int(b)))
        counter.observe(keys_of(edges, 20))
    assert counter.per_node.sum() == 2 * counter.events
    assert counter.duration == 29.0


def test_link_events_match_set_reference():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        counter = LinkEventCounter(n)
        events = 0
        per_node = np.zeros(n, dtype=np.int64)
        previous = None
        for _ in range(int(rng.integers(1, 12))):
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}
            counter.observe(keys_of(edges, n))
            if previous is not None:
                for a, b in previous ^ edges:
                    events += 1
                    per_node[a] += 1
                    per_node[b] += 1
            previous = edges
        assert counter.events == events
        assert counter.per_node.tolist() == per_node.tolist()


def test_link_events_from_disk_edge_snapshots():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
    counter = LinkEventCounter(3)
    counter.observe(disk_edges(positions, 1.5))
    positions[1] = (5.0, 5.0)  # breaks the only edge
    counter.observe(disk_edges(positions, 1.5))
    assert counter.events == 1
    assert list(counter.per_node) == [1, 1, 0]


def test_is_connected_trivial_cases():
    assert is_connected(np.zeros((1, 2)), 1.0)
    assert is_connected(np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0)
    assert not is_connected(np.array([[0.0, 0.0], [5.0, 0.0]]), 1.0)


def test_connectivity_threshold_monte_carlo():
    # R^2 = ln(N)/rho keeps default-density deployments connected whp
    connected = 0
    for seed in range(100):
        cfg = validate_config(SimConfig(n_nodes=300, seed=seed))
        geom = geometry_for(cfg)
        state = init_deployment(cfg, geom, rng_stream(seed, "deployment"))
        connected += is_connected(state.positions, geom.comm_range)
    assert connected >= 95


def test_queries_see_positions_moved_in_place():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    graph = DiskGraph(positions, 2.0)
    assert graph.neighbors(0) == set()
    assert graph.edge_keys().size == 0
    positions[1] = (1.0, 0.0)
    assert graph.neighbors(0) == {1}
    assert graph.edge_keys().tolist() == [1]
