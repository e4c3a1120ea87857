import numpy as np
import pytest
from scipy import stats

from manetwalk import harness, walk
from manetwalk.core import (MOBILITY_MODELS, WALK_STRATEGIES, SimConfig, geometry_for,
                            rng_stream, validate_config)
from manetwalk.graphs import (CompleteGraph, CycleGraph, DiskGraph, LinkEventCounter, PathGraph,
                              StaticGraph)
from manetwalk.harness import build_run, run_single
from manetwalk.mobility import MobilityState, init_deployment
from manetwalk.walk import (VisitTable, World, choose_next_pure_random,
                            choose_next_self_repelling, hop_pure_random,
                            hop_self_repelling, introduce_token, run_walk,
                            walk_graph)
from test_mobility import reference_step_all


def test_introduce_requires_nodes_and_clean_table():
    with pytest.raises(ValueError):
        introduce_token(0, VisitTable(0), rng_stream(0, "walk"))
    visits = VisitTable(3)
    visits.counts[1] = 1
    with pytest.raises(ValueError):
        introduce_token(3, visits, rng_stream(0, "walk"))


def test_introduce_single_node_is_full_coverage():
    token, visits = walk_graph(CompleteGraph(1), rng_stream(5, "walk"))
    assert token.current_node == 0
    assert token.hops == 0
    assert token.unique_visited == 1
    assert visits.total() == 1


def test_introduce_counts_one_visit():
    visits = VisitTable(10)
    token = introduce_token(10, visits, rng_stream(7, "walk"))
    assert visits.total() == 1
    assert visits.counts[token.current_node] == 1
    assert token.aggregate.count == 1
    assert token.aggregate.sum == float(token.current_node)


def test_introduce_start_node_uniform():
    n = 1000
    counts = np.zeros(n, dtype=np.int64)
    for seed in range(100000):
        visits = VisitTable(n)
        token = introduce_token(n, visits, rng_stream(seed, "walk"))
        counts[token.current_node] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_tie_break_uniform():
    ids = np.array([1, 2, 3])
    visit_counts = np.array([2, 1, 1])
    rng = rng_stream(3, "walk")
    picks = np.array([choose_next_self_repelling(ids, visit_counts, rng)
                      for _ in range(10000)])
    assert not (picks == 1).any()  # node 1 has strictly more visits
    frac = (picks == 2).mean()
    assert abs(frac - 0.5) < 0.02


def test_complete_graph_cover_is_exact():
    for n in (2, 3, 17, 50):
        for seed in range(10):
            token, _ = walk_graph(CompleteGraph(n), rng_stream(seed, "walk"))
            assert token.hops == n - 1
            assert token.unique_visited == n


def test_cycle_cover_is_exact_and_unidirectional():
    n = 6
    for seed in range(25):
        provider = CycleGraph(n)
        visits = VisitTable(n)
        rng = rng_stream(seed, "walk")
        token = introduce_token(n, visits, rng)
        path = [token.current_node]
        while token.unique_visited < n:
            assert hop_self_repelling(token, provider, visits, rng)
            path.append(token.current_node)
        assert token.hops == n - 1
        # after the first (tie-broken) hop the direction never changes
        steps = {(b - a) % n for a, b in zip(path, path[1:])}
        assert steps == {1} or steps == {n - 1}


def test_pure_random_single_neighbor():
    provider = PathGraph(2)
    visits = VisitTable(2)
    rng = rng_stream(0, "walk")
    token = introduce_token(2, visits, rng)
    assert hop_pure_random(token, provider, visits, rng)
    assert token.unique_visited == 2


def test_pure_random_uniform_over_neighbors():
    ids = np.array([1, 3])
    visit_counts = np.array([50, 0])  # ignored by the pure rule
    rng = rng_stream(11, "walk")
    picks = np.array([choose_next_pure_random(ids, visit_counts, rng)
                      for _ in range(10000)])
    assert abs((picks == 1).mean() - 0.5) < 0.02


def test_pure_random_cycle_transitions_balanced():
    provider = CycleGraph(4)
    visits = VisitTable(4)
    rng = rng_stream(9, "walk")
    token = introduce_token(4, visits, rng)
    forward = 0
    for _ in range(10000):
        prev = token.current_node
        hop_pure_random(token, provider, visits, rng)
        forward += (token.current_node - prev) % 4 == 1
    assert abs(forward / 10000 - 0.5) < 0.02


def test_pure_random_coupon_collector_sanity():
    n = 5
    expected = (n - 1) * sum(1.0 / k for k in range(1, n))
    hops = [walk_graph(CompleteGraph(n), rng_stream(seed, "walk"),
                       strategy="pure_random")[0].hops
            for seed in range(500)]
    assert abs(np.mean(hops) - expected) / expected < 0.10


def test_stranded_changes_nothing():
    positions = np.array([[0.0, 0.0], [100.0, 0.0]])
    provider = DiskGraph(positions, 1.0)
    visits = VisitTable(2)
    rng = rng_stream(1, "walk")
    token = introduce_token(2, visits, rng)
    before = (token.current_node, token.hops, token.unique_visited,
              token.aggregate.count, visits.total())
    for _ in range(5):
        assert not hop_self_repelling(token, provider, visits, rng)
    after = (token.current_node, token.hops, token.unique_visited,
             token.aggregate.count, visits.total())
    assert before == after


def test_run_walk_times_out_when_disconnected():
    cfg = validate_config(SimConfig(
        n_nodes=2, mobility_model="static", comm_range=0.5, density=0.0002,
        max_sim_time=5.0, milestones=(0.5, 1.0), seed=2))
    _, provider, world, rng = build_run(cfg)
    record = run_walk(cfg, provider, world, rng)
    assert record.timed_out
    assert [s.target_coverage for s in record.milestones] == [0.5]
    assert record.waiting_ticks == 50  # every attempt stranded


@pytest.mark.parametrize("n_nodes, seed, timed_out", [(60, 0, False), (100, 26, True)])
def test_static_run_never_snapshots_and_matches_mobile_path(monkeypatch, n_nodes, seed,
                                                              timed_out):
    calls = {"edge_keys": 0}
    edge_keys = DiskGraph.edge_keys

    def counted(self):
        calls["edge_keys"] += 1
        return edge_keys(self)

    monkeypatch.setattr(DiskGraph, "edge_keys", counted)
    cfg = SimConfig(n_nodes=n_nodes, mobility_model="static", max_sim_time=60.0, seed=seed)
    cfg, provider, world, rng = build_run(cfg)
    assert isinstance(provider, StaticGraph)
    assert calls == {"edge_keys": 1}  # the neighbor table, built once
    decisions = []
    choose = walk.choose_next_self_repelling

    def listed(ids, counts, rng):
        decisions.append(ids)
        return choose(ids, counts, rng)

    monkeypatch.setattr(walk, "choose_next_self_repelling", listed)
    static = run_walk(cfg, provider, world, rng)
    assert world.mobility is None
    assert calls == {"edge_keys": 1}  # and no snapshot
    assert static.timed_out == timed_out
    assert static.churn_rate == 0.0
    # No attempt after the last milestone: seed 26 covers its 85-node component at
    # hop 113 and stops there, where the loop to max_sim_time makes 600 attempts.
    assert len(decisions) == static.milestones[-1].hops

    # Reference: the same run on the moving path over the deployed positions, with every
    # node at speed 0 and no epoch ever expiring, so each step adds 0.0 and the positions
    # stay bit-identical.
    geom = geometry_for(cfg)
    positions = init_deployment(cfg, geom, rng_stream(seed, "deployment"),
                                motion_rng=rng_stream(seed, "mobility")).positions
    deployed = positions.copy()
    world = World(visits=VisitTable(n_nodes),
                  mobility=MobilityState("random_direction", geom.side, positions))
    world.mobility.epoch_remaining[:] = np.inf
    moving = DiskGraph(positions, geom.comm_range)
    assert run_walk(cfg, moving, world, rng_stream(seed, "walk")) == static
    assert calls["edge_keys"] > 1
    assert np.array_equal(positions, deployed)


def all_pairs_ball(graph):
    """Every pair's closed-ball test on the graph's current positions, no self-loops."""
    p, r = graph.positions, graph.comm_range
    dx = p[:, None, 0] - p[None, :, 0]
    dy = p[:, None, 1] - p[None, :, 1]
    ball = dx * dx + dy * dy <= r * r
    np.fill_diagonal(ball, False)
    return ball


def all_pairs_edge_keys(graph):
    """Brute-force stand-in for DiskGraph.edge_keys."""
    i, j = np.nonzero(np.triu(all_pairs_ball(graph), k=1))
    return (i * graph.n_nodes + j).astype(np.int64)


def all_pairs_neighbor_ids(graph, node_id):
    """Brute-force stand-in for DiskGraph.neighbor_ids: one row of the all-pairs ball."""
    return np.flatnonzero(all_pairs_ball(graph)[node_id])


def listed_self_repelling(neighbor_ids, visit_counts, rng):
    """List-based least-visited choice, with the production draw on a tie only."""
    counts = visit_counts.tolist()
    least = min(counts)
    ties = [i for i, c in zip(neighbor_ids.tolist(), counts) if c == least]
    return ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]


def listed_pure_random(neighbor_ids, visit_counts, rng):
    """List-based uniform choice, with the production draw when there is a choice."""
    ids = neighbor_ids.tolist()
    return ids[0] if len(ids) == 1 else ids[int(rng.integers(len(ids)))]


def set_observe(counter, keys):
    """Python-set stand-in for LinkEventCounter.observe: symmetric difference of edge sets."""
    edges = set(keys.tolist())
    if counter.previous is None:
        counter.previous = edges
        return
    counter.events += len(counter.previous ^ edges)
    counter.previous = edges
    counter.duration += counter.period


def reference_run(cfg):
    """run_single with all-pairs neighbor queries and edge snapshots, set churn, list decisions.

    Nodes move by the index-array reference kernels of tests/test_mobility.py. A
    static run's neighbor table is built from the all-pairs edge keys. Deployment
    and the RNG streams stay the production ones.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "step_all", reference_step_all)
        patch.setattr(DiskGraph, "edge_keys", all_pairs_edge_keys)
        patch.setattr(DiskGraph, "neighbor_ids", all_pairs_neighbor_ids)
        patch.setattr(LinkEventCounter, "observe", set_observe)
        patch.setattr(walk, "choose_next_self_repelling", listed_self_repelling)
        patch.setattr(walk, "choose_next_pure_random", listed_pure_random)
        return run_single(cfg)


@pytest.mark.parametrize("n_nodes", [20, 40])
@pytest.mark.parametrize("model", ["random_direction", "random_waypoint"])
@pytest.mark.parametrize("strategy", ["self_repelling", "pure_random"])
def test_whole_run_matches_all_pairs_edge_snapshots(n_nodes, model, strategy):
    cfg = SimConfig(n_nodes=n_nodes, mobility_model=model, walk_strategy=strategy,
                    max_sim_time=40.0, seed=n_nodes + 1)
    record = run_single(cfg)
    assert record.churn_rate > 0
    assert record.milestones
    reference = reference_run(cfg)
    assert reference.milestones == record.milestones
    assert reference.churn_rate == record.churn_rate
    assert reference.waiting_ticks == record.waiting_ticks
    assert reference == record


# Sparse N=20 worlds: mobile tokens strand and wait, some runs time out, and static
# runs cover only their component (seed 21) or never leave an isolated start (seed 25).
SPARSE_CASES = [SimConfig(n_nodes=20, comm_range=r, mobility_model=m, walk_strategy=s,
                          max_sim_time=40.0, seed=21)
                for r in (5.0, 7.0) for m in MOBILITY_MODELS for s in WALK_STRATEGIES]
SPARSE_CASES.append(SimConfig(n_nodes=20, comm_range=5.0, mobility_model="static",
                              max_sim_time=40.0, seed=25))


def test_sparse_whole_runs_match_the_reference():
    records = [run_single(cfg) for cfg in SPARSE_CASES]
    for cfg, record in zip(SPARSE_CASES, records):
        assert reference_run(cfg) == record, cfg
    mobile = [r for r in records if r.config.mobility_model != "static"]
    assert any(r.waiting_ticks > 0 for r in mobile)
    assert any(r.timed_out for r in mobile)
    static = [r for r in records if r.config.mobility_model == "static"]
    assert len(static) == 5 and all(r.timed_out for r in static)
    assert static[-1].waiting_ticks == 400  # stranded on every attempt


def test_static_run_with_pairs_at_exactly_r_matches_the_reference(monkeypatch):
    # Integer positions and an integer range put pairs at exactly R, where only the
    # closed ball (<=) of disk_edges keeps the edge.
    deploy = harness.init_deployment

    def on_integers(*args, **kwargs):
        state = deploy(*args, **kwargs)
        state.positions[:] = np.round(state.positions)
        return state

    monkeypatch.setattr(harness, "init_deployment", on_integers)
    cfg = validate_config(SimConfig(n_nodes=20, comm_range=10.0, mobility_model="static",
                                    max_sim_time=40.0, seed=0))
    positions = on_integers(cfg, geometry_for(cfg), rng_stream(0, "deployment"),
                            motion_rng=rng_stream(0, "mobility")).positions
    d = positions[:, None, :] - positions[None, :, :]
    assert np.count_nonzero((d * d).sum(axis=2) == 100.0) > 0
    record = run_single(cfg)
    assert not record.timed_out
    assert reference_run(cfg) == record


def test_run_walk_static_complete_graph():
    cfg = validate_config(SimConfig(n_nodes=100, seed=8))
    provider = CompleteGraph(100)
    world = World(visits=VisitTable(100))
    record = run_walk(cfg, provider, world, rng_stream(8, "walk"))
    final = record.milestones[-1]
    assert final.hops == 99
    assert final.overhead == 1.0
    assert not record.timed_out
    assert record.churn_rate == 0.0
    assert [s.target_coverage for s in record.milestones] == [0.5, 0.75, 0.85, 1.0]


def test_run_walk_single_node():
    cfg = validate_config(SimConfig(n_nodes=1, comm_range=1.0, seed=3))
    provider = CompleteGraph(1)
    world = World(visits=VisitTable(1))
    record = run_walk(cfg, provider, world, rng_stream(3, "walk"))
    assert not record.timed_out
    assert record.milestones[-1].hops == 0
    assert record.milestones[-1].sim_time == 0.0


def test_visit_sum_and_unique_invariants():
    cfg = validate_config(SimConfig(n_nodes=80, seed=21))
    _, provider, world, rng = build_run(cfg)
    record = run_walk(cfg, provider, world, rng)
    token = world.token
    assert world.visits.total() == token.hops + 1
    assert np.count_nonzero(world.visits.counts) == token.unique_visited
    assert token.unique_visited <= token.hops + 1
    hops = [s.hops for s in record.milestones]
    uniques = [s.unique_visited for s in record.milestones]
    assert hops == sorted(hops)
    assert uniques == sorted(uniques)


def test_aggregates_match_brute_force():
    attrs = np.array([17.0, -3.0, 42.0, 8.0, 8.0, 0.5, 99.0, -20.0])
    token, _ = walk_graph(CompleteGraph(8), rng_stream(13, "walk"), attributes=attrs)
    assert token.aggregate.count == 8
    assert token.aggregate.sum == attrs.sum()
    assert token.aggregate.max == attrs.max()


def test_aggregates_default_node_ids():
    cfg = validate_config(SimConfig(n_nodes=60, seed=14))
    _, provider, world, rng = build_run(cfg)
    record = run_walk(cfg, provider, world, rng)
    assert not record.timed_out
    agg = world.token.aggregate
    assert agg.count == 60
    assert agg.sum == 60 * 59 / 2
    assert agg.max == 59


def test_identical_configs_give_identical_records():
    cfg = SimConfig(n_nodes=70, seed=33)
    assert run_single(cfg) == run_single(cfg)


def test_memoryless_decision_replay():
    cfg = SimConfig(n_nodes=50, seed=11)
    trace = []
    run_single(cfg, trace=trace)
    assert any(e.decision != -1 for e in trace)
    # replay: same stream, same neighbor sets and counts => same decisions
    rng = rng_stream(11, "walk")
    int(rng.integers(50))  # the introduction draw
    for entry in trace:
        if entry.decision == -1:
            assert entry.neighbor_ids == ()
            continue
        decision = choose_next_self_repelling(
            np.array(entry.neighbor_ids), np.array(entry.visit_counts), rng)
        assert decision == entry.decision


def test_run_walk_hop_interval_paces_hops():
    cfg = validate_config(SimConfig(n_nodes=10, hop_interval=0.3, tick=0.1, seed=5))
    provider = CompleteGraph(10)
    world = World(visits=VisitTable(10))
    record = run_walk(cfg, provider, world, rng_stream(5, "walk"))
    final = record.milestones[-1]
    assert final.hops == 9
    # 27 ticks: the time is one product of the tick count, never a running float sum.
    assert final.sim_time == 27 * 0.1
    summed = 0.0
    for _ in range(27):
        summed += 0.1
    assert summed == 2.700000000000001 != final.sim_time


def test_default_config_covers_before_timeout():
    # Monte-Carlo check that the connectivity-threshold regime completes
    done = sum(not run_single(SimConfig(n_nodes=100, seed=seed)).timed_out
               for seed in range(50))
    assert done >= 48  # >= 95% of 50 seeds


def test_lattice_walk_variance_desk_scale():
    from manetwalk.graphs import TorusLattice
    from manetwalk.metrics import visit_variance
    lattice = TorusLattice(16, 16)
    n = lattice.n_nodes
    with pytest.raises(ValueError, match="needs max_hops when stop_at_coverage is False"):
        walk_graph(lattice, rng_stream(0, "walk"), stop_at_coverage=False)
    for seed in range(3):
        _, visits = walk_graph(lattice, rng_stream(seed, "walk"),
                               max_hops=10 * n, stop_at_coverage=False)
        assert visit_variance(visits) < 1.0
