import numpy as np
import pytest

from manetwalk.core import SimConfig, geometry_for, rng_stream
from manetwalk.graphs import (CompleteGraph, CycleGraph, DiskGraph,
                              LinkEventCounter, PathGraph, StaticGraph, TorusLattice,
                              UnknownNodeError, disk_edges)
from manetwalk.harness import build_run
from manetwalk.mobility import init_deployment


def neighbors(provider, node_id):
    """The neighbor ids of a node as a set of ints."""
    return set(provider.neighbor_ids(node_id).tolist())


def is_connected(positions, comm_range):
    """True iff the disk graph over the positions has a single component (union-find)."""
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


def brute_force_keys(positions, comm_range):
    """All-pairs oracle for disk_edges, with the same closed-ball float expression."""
    n = len(positions)
    dx = positions[:, None, 0] - positions[None, :, 0]
    dy = positions[:, None, 1] - positions[None, :, 1]
    i, j = np.nonzero(np.triu(dx * dx + dy * dy <= comm_range * comm_range, k=1))
    return np.sort(i * n + j).astype(np.int64)


def x_band_disk_edges(positions, comm_range):
    """The x-band sweep that the strip sweep replaced, kept as its reference."""
    n = len(positions)
    order = np.argsort(positions[:, 0], kind="stable")
    xs = positions[order, 0]
    ys = positions[order, 1]
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


def assert_edges_match_references(positions, r):
    """disk_edges equals the x-band sweep and the all-pairs oracle: keys, dtype, order."""
    keys = disk_edges(positions, r)
    reference = x_band_disk_edges(positions, r)
    assert keys.dtype == reference.dtype == np.int64
    assert np.array_equal(keys, reference)
    assert np.array_equal(keys, brute_force_keys(positions, r))
    return keys


def assert_matches_brute_force(positions, r):
    graph = DiskGraph(positions, r)
    n = len(positions)
    for i in range(n):
        expected = sorted(brute_force_neighbors(positions, r, i))
        assert graph.neighbor_ids(i).tolist() == expected
    edges = brute_force_edges(positions, r)
    keys = assert_edges_match_references(positions, r)
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


def test_disk_edges_match_x_band_on_uniform_deployments():
    rng = np.random.default_rng(9)
    for n in (100, 300, 1000):
        cfg = SimConfig(n_nodes=n)
        geom = geometry_for(cfg)
        for _ in range(4):
            positions = rng.uniform(0, geom.side, size=(n, 2))
            assert assert_edges_match_references(positions, geom.comm_range).size > n


def test_disk_edges_on_negative_grid_and_strip_boundaries():
    # Half-integer coordinates put y within rounding of the strip edges
    # (multiples of reach, just above R), make x and y tie, and put pairs at
    # exactly R along both axes.
    rng = np.random.default_rng(10)
    at_range = 0
    for _ in range(60):
        n = int(rng.integers(2, 120))
        r = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        positions = rng.integers(-12, 12, size=(n, 2)) / 2.0
        keys = assert_edges_match_references(positions, r)
        lows, highs = np.divmod(keys, n)
        d = positions[lows] - positions[highs]
        at_range += int(np.count_nonzero((d * d).sum(axis=1) == r * r))
    assert at_range > 0
    for _ in range(20):
        assert_edges_match_references(rng.uniform(-50.0, -10.0, size=(200, 2)), 4.0)


def test_disk_edges_range_wider_than_the_square():
    rng = np.random.default_rng(11)
    for n in (2, 30, 200):
        positions = rng.uniform(0, 10.0, size=(n, 2))
        keys = assert_edges_match_references(positions, 25.0)
        assert keys.size == n * (n - 1) // 2


def test_disk_edges_small_range_far_from_origin():
    # Raw strip indices reach 1e8 here; a key built from them loses x.
    rng = np.random.default_rng(12)
    edges = 0
    for _ in range(300):
        r = float(10 ** rng.uniform(-4, -1))
        centers = rng.uniform(-1e4, 1e4, size=(int(rng.integers(1, 5)), 2))
        n = int(rng.integers(2, 80))
        positions = (centers[rng.integers(len(centers), size=n)]
                     + rng.uniform(-3 * r, 3 * r, size=(n, 2)))
        edges += assert_edges_match_references(positions, r).size
    assert edges > 0


def test_disk_graph_tiny_sizes():
    for n in (0, 1, 2):
        assert_matches_brute_force(np.zeros((n, 2)), 1.0)
    assert_matches_brute_force(np.array([[-1e6, 1e6]]), 1.0)
    assert DiskGraph(np.zeros((1, 2)), 1.0).neighbor_ids(0).dtype == np.int64
    assert disk_edges(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0).tolist() == [1]
    assert disk_edges(np.array([[0.0, 0.0], [1.5, 0.0]]), 1.0).size == 0


def test_indexed_neighbors_match_brute_force_500():
    rng = np.random.default_rng(1)
    positions = rng.uniform(0, 100.0, size=(500, 2))
    graph = DiskGraph(positions, 7.5)
    for i in range(500):
        assert neighbors(graph, i) == brute_force_neighbors(positions, 7.5, i)


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
    assert neighbors(graph, 0) == {1}
    assert neighbors(graph, 1) == {0}
    # 3-4-5 triangles: node 1 is exactly 5 from nodes 0 and 2, node 3 a hair beyond both.
    positions = np.array([[0.0, 0.0], [3.0, 4.0], [7.0, 1.0], [3.0, 4.0 + 1e-12]])
    graph = DiskGraph(positions, 5.0)
    assert [graph.neighbor_ids(i).tolist() for i in range(4)] == [[1], [0, 2, 3], [1], [1]]
    assert disk_edges(positions, 5.0).tolist() == [0 * 4 + 1, 1 * 4 + 2, 1 * 4 + 3]


def test_coincident_twin_is_a_neighbor_and_the_node_is_not():
    positions = np.array([[3.0, 3.0], [1.0, 1.0], [3.0, 3.0], [9.0, 9.0]])
    graph = DiskGraph(positions, 1.0)
    assert graph.neighbor_ids(0).tolist() == [2]
    assert graph.neighbor_ids(2).tolist() == [0]
    assert graph.neighbor_ids(3).tolist() == []
    assert disk_edges(positions, 1.0).tolist() == [2]


def test_static_variants_definitions():
    assert neighbors(CompleteGraph(4), 2) == {0, 1, 3}
    assert neighbors(CycleGraph(5), 0) == {4, 1}
    assert neighbors(CycleGraph(5), 2) == {1, 3}
    assert neighbors(PathGraph(4), 0) == {1}
    assert neighbors(PathGraph(4), 3) == {2}
    assert neighbors(PathGraph(4), 1) == {0, 2}
    assert neighbors(TorusLattice(3, 3), 0) == {1, 2, 3, 6}
    assert neighbors(CompleteGraph(1), 0) == set()


def torus_adjacent(width, height):
    def adjacent(i, j):
        (ri, ci), (rj, cj) = divmod(i, width), divmod(j, width)
        return ((rj - ri) % height, (cj - ci) % width) in {
            (1, 0), (height - 1, 0), (0, 1), (0, width - 1)}
    return adjacent


# Each oracle family with its definition as a set predicate on (node, candidate).
STATIC_FAMILIES = (
    [(CompleteGraph(n), lambda i, j: i != j) for n in range(1, 8)]
    + [(PathGraph(n), lambda i, j: abs(i - j) == 1) for n in (1, 2, 6)]
    + [(CycleGraph(n), lambda i, j, n=n: (i - j) % n in (1, n - 1)) for n in (3, 9)]
    + [(TorusLattice(w, h), torus_adjacent(w, h)) for w, h in ((3, 3), (4, 5))]
)


def assert_neighbor_table(provider):
    """Every row sorted int64 without duplicates or its own id, and the rows symmetric."""
    rows = [provider.neighbor_ids(i).tolist() for i in range(provider.n_nodes)]
    for i, row in enumerate(rows):
        assert provider.neighbor_ids(i).dtype == np.int64
        assert row == sorted(set(row))
        assert i not in row
        assert all(i in rows[j] for j in row)
    return rows


@pytest.mark.parametrize("provider, adjacent", STATIC_FAMILIES,
                         ids=[f"{type(p).__name__}-{p.n_nodes}" for p, _ in STATIC_FAMILIES])
def test_static_family_rows_match_their_definition(provider, adjacent):
    n = provider.n_nodes
    assert isinstance(provider, StaticGraph)
    assert assert_neighbor_table(provider) == [
        [j for j in range(n) if adjacent(i, j)] for i in range(n)]


@pytest.mark.parametrize("n_nodes, seed, comm_range", [
    (100, 1, None), (300, 1, None), (1000, 1, None), (100, 26, None), (1, 1, 1.0)])
def test_static_deployment_rows_match_the_distance_rows(n_nodes, seed, comm_range):
    cfg, provider, _, _ = build_run(SimConfig(n_nodes=n_nodes, mobility_model="static",
                                              seed=seed, comm_range=comm_range))
    assert isinstance(provider, StaticGraph)
    geom = geometry_for(cfg)
    state = init_deployment(cfg, geom, rng_stream(seed, "deployment"),
                            motion_rng=rng_stream(seed, "mobility"))
    assert is_connected(state.positions, geom.comm_range) == (seed != 26)
    disk = DiskGraph(state.positions, geom.comm_range)
    assert assert_neighbor_table(provider) == [
        disk.neighbor_ids(i).tolist() for i in range(n_nodes)]


@pytest.mark.parametrize("n_nodes, seed, comm_range", [(100, 1, None), (1000, 1, None),
                                                     (20, 0, 10.0)])
def test_disk_graph_reads_either_layout_to_the_same_arrays(n_nodes, seed, comm_range):
    # Deployments are column-major; a C-ordered copy must give the same keys and rows.
    # The N=20 case is the integer deployment of the exactly-R whole-run test in
    # tests/test_walk.py, with pairs at exactly R.
    cfg = SimConfig(n_nodes=n_nodes, comm_range=comm_range, seed=seed)
    geom = geometry_for(cfg)
    fortran = init_deployment(cfg, geom, rng_stream(seed, "deployment"),
                              motion_rng=rng_stream(seed, "mobility")).positions
    if comm_range is not None:
        fortran[:] = np.round(fortran)
        d = fortran[:, None, :] - fortran[None, :, :]
        assert np.count_nonzero((d * d).sum(axis=2) == comm_range * comm_range) > 0
    c_order = np.ascontiguousarray(fortran)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    keys = disk_edges(fortran, geom.comm_range)
    assert keys.size > 0
    assert keys.dtype == np.int64
    assert keys.tobytes() == disk_edges(c_order, geom.comm_range).tobytes()
    by_column, by_row = DiskGraph(fortran, geom.comm_range), DiskGraph(c_order, geom.comm_range)
    for i in range(n_nodes):
        ours, theirs = by_column.neighbor_ids(i), by_row.neighbor_ids(i)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def test_torus_wraparound_degree():
    lattice = TorusLattice(5, 4)
    for i in range(lattice.n_nodes):
        assert len(neighbors(lattice, i)) == 4


@pytest.mark.parametrize("provider", [
    CompleteGraph(7),
    CycleGraph(9),
    PathGraph(6),
    TorusLattice(4, 5),
])
def test_symmetry_and_irreflexivity_static(provider):
    for i in range(provider.n_nodes):
        nbrs = neighbors(provider, i)
        assert i not in nbrs
        for j in nbrs:
            assert i in neighbors(provider, j)


def test_symmetry_dynamic():
    rng = np.random.default_rng(4)
    positions = rng.uniform(0, 30.0, size=(120, 2))
    graph = DiskGraph(positions, 4.0)
    for i in range(120):
        nbrs = neighbors(graph, i)
        assert i not in nbrs
        for j in nbrs:
            assert i in neighbors(graph, j)


def test_unknown_node_errors():
    for provider in (CompleteGraph(3), CycleGraph(3), PathGraph(3),
                     TorusLattice(3, 3), DiskGraph(np.zeros((3, 2)), 1.0)):
        with pytest.raises(UnknownNodeError):
            neighbors(provider, provider.n_nodes)
        with pytest.raises(UnknownNodeError):
            neighbors(provider, -1)


def test_degenerate_graph_sizes_rejected():
    with pytest.raises(ValueError):
        CycleGraph(2)
    with pytest.raises(ValueError):
        TorusLattice(2, 5)
    with pytest.raises(ValueError):
        CompleteGraph(0)


def test_link_events_identical_snapshots():
    counter = LinkEventCounter()
    counter.observe(keys_of({(0, 1)}, 4))
    counter.observe(keys_of({(0, 1)}, 4))
    assert counter.events == 0


def test_link_events_appear_and_disappear():
    counter = LinkEventCounter()
    counter.observe(keys_of({(2, 3)}, 4))
    counter.observe(keys_of({(0, 1)}, 4))  # (0,1) appeared, (2,3) disappeared
    assert counter.events == 2
    assert counter.duration == 1.0


def test_link_events_match_set_reference():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        counter = LinkEventCounter()
        events = 0
        snapshots = int(rng.integers(1, 12))
        previous = None
        for _ in range(snapshots):
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}
            counter.observe(keys_of(edges, n))
            if previous is not None:
                events += len(previous ^ edges)
            previous = edges
        assert counter.events == events
        assert counter.duration == snapshots - 1


def sorted_unique_keys(rng, universe, size):
    return np.unique(rng.integers(0, universe, size=size)).astype(np.int64)


def test_link_events_merge_count_matches_setxor1d():
    # The merge count against the set difference it replaced, snapshot pair by pair.
    rng = np.random.default_rng(12)
    empty = np.zeros(0, dtype=np.int64)
    some = np.array([0, 3, 4, 10, 2**40], dtype=np.int64)
    pairs = [(empty, empty), (empty, some), (some, empty), (some, some),
             (some, some + 1), (some[:2], some[2:]), (some, some[1:-1])]
    for _ in range(300):
        universe = int(rng.integers(1, 5000))
        prev = sorted_unique_keys(rng, universe, int(rng.integers(0, 400)))
        fresh = sorted_unique_keys(rng, universe, int(rng.integers(0, 400)))
        kept = prev[rng.random(prev.size) < rng.random()]
        pairs.append((prev, np.union1d(kept, fresh)))
    for prev, cur in pairs:
        counter = LinkEventCounter()
        counter.observe(prev)
        counter.observe(cur)
        assert counter.events == np.setxor1d(prev, cur, assume_unique=True).size
    assert counter.previous is cur


def test_link_events_from_disk_edge_snapshots():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
    counter = LinkEventCounter()
    counter.observe(disk_edges(positions, 1.5))
    positions[1] = (5.0, 5.0)  # breaks the only edge
    counter.observe(disk_edges(positions, 1.5))
    assert counter.events == 1


def test_is_connected_trivial_cases():
    assert is_connected(np.zeros((1, 2)), 1.0)
    assert is_connected(np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0)
    assert not is_connected(np.array([[0.0, 0.0], [5.0, 0.0]]), 1.0)


def test_connectivity_threshold_monte_carlo():
    # R^2 = ln(N)/rho keeps default-density deployments connected whp
    connected = 0
    for seed in range(100):
        cfg = SimConfig(n_nodes=300, seed=seed)
        geom = geometry_for(cfg)
        state = init_deployment(cfg, geom, rng_stream(seed, "deployment"),
                                motion_rng=rng_stream(seed, "mobility"))
        connected += is_connected(state.positions, geom.comm_range)
    assert connected >= 95


def test_queries_see_positions_moved_in_place():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    graph = DiskGraph(positions, 2.0)
    assert neighbors(graph, 0) == set()
    assert graph.edge_keys().size == 0
    positions[1] = (1.0, 0.0)
    assert neighbors(graph, 0) == {1}
    assert graph.edge_keys().tolist() == [1]
