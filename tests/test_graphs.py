import numpy as np
import pytest

from manetwalk.core import SimConfig, geometry_for, rng_stream, validate_config
from manetwalk.graphs import (CompleteGraph, CycleGraph, DiskGraph,
                              LinkEventCounter, PathGraph, SpatialIndex,
                              TorusLattice, UnknownNodeError, disk_edges,
                              is_connected)
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


def test_spatial_index_empty():
    index = SpatialIndex(np.zeros((0, 2)), 1.0)
    assert index.cells == {}
    assert index.candidates((0.5, 0.5)).size == 0


def test_spatial_index_cell_assignment():
    index = SpatialIndex(np.array([[0.1, 0.1], [0.15, 0.1]]), 1.0)
    assert set(index.cells) == {(0, 0)}
    assert sorted(index.cells[(0, 0)]) == [0, 1]


def test_spatial_index_every_node_once():
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 37.0, size=(400, 2))
    index = SpatialIndex(positions, 3.0)
    seen = np.concatenate(list(index.cells.values()))
    assert sorted(seen) == list(range(400))


def test_indexed_neighbors_match_brute_force_500():
    rng = np.random.default_rng(1)
    positions = rng.uniform(0, 100.0, size=(500, 2))
    graph = DiskGraph(positions, 7.5)
    for i in range(500):
        assert graph.neighbors(i) == brute_force_neighbors(positions, 7.5, i)


def test_indexed_neighbors_match_brute_force_200_configs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        side = float(rng.uniform(5.0, 40.0))
        r = float(rng.uniform(0.5, side / 2))
        positions = rng.uniform(0, side, size=(n, 2))
        graph = DiskGraph(positions, r)
        for i in range(n):
            assert graph.neighbors(i) == brute_force_neighbors(positions, r, i)


def test_disk_edges_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 80))
        positions = rng.uniform(0, 25.0, size=(n, 2))
        r = float(rng.uniform(1.0, 10.0))
        assert disk_edges(positions, r) == brute_force_edges(positions, r)


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
    counter.observe({(0, 1)})
    counter.observe({(0, 1)})
    assert counter.events == 0
    assert counter.per_node.sum() == 0


def test_link_events_appear_and_disappear():
    counter = LinkEventCounter(4)
    counter.observe({(2, 3)})
    counter.observe({(0, 1)})  # (0,1) appeared, (2,3) disappeared
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
        counter.observe(edges)
    assert counter.per_node.sum() == 2 * counter.events
    assert counter.duration == 29.0


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


def test_refresh_tracks_moved_positions():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    graph = DiskGraph(positions, 2.0)
    assert graph.neighbors(0) == set()
    positions[1] = (1.0, 0.0)
    graph.refresh()
    assert graph.neighbors(0) == {1}
