"""The token engine: self-repelling and pure random hops over any neighbor provider."""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import SimConfig
from .graphs import LinkEventCounter, NeighborProvider
from .metrics import (MilestoneSnapshot, RunRecord, churn_rate,
                      exploration_overhead, visit_histogram, visit_variance)
from .mobility import MobilityState, step_all


class VisitTable:
    """Per-node visit counts; the nodes, not the token, remember the history."""

    def __init__(self, n_nodes: int):
        self.counts = np.zeros(n_nodes, dtype=np.int64)

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(slots=True)
class Aggregate:
    """Running summary of node attributes seen on first visits."""

    count: int
    sum: float
    max: float


@dataclass(slots=True)
class Token:
    """The walker. Carries aggregates and counters, never other nodes' visit history."""

    current_node: int
    hops: int = 0
    unique_visited: int = 1
    aggregate: Aggregate = field(default_factory=lambda: Aggregate(0, 0.0, -math.inf))


@dataclass(slots=True)
class TraceEntry:
    """One hop attempt: exactly the inputs and output of the decision."""

    tick_index: int
    node: int
    neighbor_ids: Tuple[int, ...]
    visit_counts: Tuple[int, ...]
    decision: int  # -1 when stranded
    moved: bool


def _attr(attributes: Optional[np.ndarray], node_id: int) -> float:
    # Default node attribute is the node id, which makes expected aggregates exact.
    return float(node_id) if attributes is None else float(attributes[node_id])


def introduce_token(n_nodes: int, visits: VisitTable, rng: np.random.Generator,
                    attributes: Optional[np.ndarray] = None) -> Token:
    """Place a fresh token on a uniformly random node; the placement counts as a visit."""
    if n_nodes < 1:
        raise ValueError("cannot introduce a token into an empty network")
    if visits.total() != 0:
        raise ValueError("visit table must be all zeros at introduction")
    start = int(rng.integers(n_nodes))
    visits.counts[start] = 1
    a = _attr(attributes, start)
    return Token(current_node=start, aggregate=Aggregate(1, a, a))


def choose_next_self_repelling(neighbor_ids: np.ndarray, visit_counts: np.ndarray,
                               rng: np.random.Generator) -> int:
    """Pick a least-visited neighbor, ties broken uniformly at random.

    This is the whole decision: it sees only the neighbor ids, their current
    visit counts, and the generator, which is what makes the token memoryless.
    """
    m = visit_counts.min()
    ties = neighbor_ids[visit_counts == m]
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])


def choose_next_pure_random(neighbor_ids: np.ndarray, visit_counts: np.ndarray,
                            rng: np.random.Generator) -> int:
    """Pick uniformly among all neighbors, ignoring visit history."""
    if neighbor_ids.size == 1:
        return int(neighbor_ids[0])
    return int(neighbor_ids[rng.integers(neighbor_ids.size)])


def _hop(token: Token, provider: NeighborProvider, visits: VisitTable,
         rng: np.random.Generator, decide, attributes, trace, tick_index) -> bool:
    ids = provider.neighbor_ids(token.current_node)
    if ids.size == 0:
        # Stranded: the token waits in place and the attempt costs nothing.
        if trace is not None:
            trace.append(TraceEntry(tick_index, token.current_node, (), (), -1, False))
        return False
    counts = visits.counts[ids]
    nxt = decide(ids, counts, rng)
    if trace is not None:
        trace.append(TraceEntry(tick_index, token.current_node,
                                tuple(int(i) for i in ids),
                                tuple(int(c) for c in counts), nxt, True))
    prev = visits.counts[nxt]
    visits.counts[nxt] = prev + 1
    if prev == 0:
        token.unique_visited += 1
        agg = token.aggregate
        a = _attr(attributes, nxt)
        agg.count += 1
        agg.sum += a
        if a > agg.max:
            agg.max = a
    token.hops += 1
    token.current_node = nxt
    return True


def hop_self_repelling(token: Token, provider: NeighborProvider, visits: VisitTable,
                       rng: np.random.Generator, attributes: Optional[np.ndarray] = None,
                       trace: Optional[List[TraceEntry]] = None, tick_index: int = 0) -> bool:
    """Attempt one self-repelling hop; returns False when stranded."""
    return _hop(token, provider, visits, rng, choose_next_self_repelling,
                attributes, trace, tick_index)


def hop_pure_random(token: Token, provider: NeighborProvider, visits: VisitTable,
                    rng: np.random.Generator, attributes: Optional[np.ndarray] = None,
                    trace: Optional[List[TraceEntry]] = None, tick_index: int = 0) -> bool:
    """Attempt one uniformly random hop; visit counts are still recorded for metrics."""
    return _hop(token, provider, visits, rng, choose_next_pure_random,
                attributes, trace, tick_index)


HOP_FUNCS = {
    "self_repelling": hop_self_repelling,
    "pure_random": hop_pure_random,
}


@dataclass
class World:
    """Mutable per-run state: visit counts, kinematics (None for static graphs)."""

    visits: VisitTable
    mobility: Optional[MobilityState] = None
    token: Optional[Token] = None  # the run's walker, set by run_walk


def milestone_thresholds(milestones, n_nodes: int) -> List[Tuple[float, int]]:
    """Each target paired with the smallest unique-visit count that reaches it."""
    out = []
    for target in milestones:
        k = int(math.ceil(target * n_nodes - 1e-9))
        out.append((target, max(1, k)))
    return out


def _snapshot(target: float, token: Token, visits: VisitTable, n_nodes: int,
              now: float) -> MilestoneSnapshot:
    return MilestoneSnapshot(
        target_coverage=target,
        achieved_coverage=token.unique_visited / n_nodes,
        sim_time=now,
        hops=token.hops,
        unique_visited=token.unique_visited,
        overhead=exploration_overhead(token.hops, token.unique_visited),
        histogram=visit_histogram(visits),
        visit_variance=visit_variance(visits),
    )


def run_walk(config: SimConfig, provider: NeighborProvider, world: World,
             rng: np.random.Generator,
             trace: Optional[List[TraceEntry]] = None) -> RunRecord:
    """Run one token to full coverage, interleaving mobility ticks and hop attempts.

    Per tick: count the tick, move the nodes, then (every hop_interval)
    attempt one hop and (every second of simulated time) snapshot the edge keys
    for link-churn accounting. Only a world with mobility state moves and
    snapshots, over a DiskGraph of its positions. A milestone snapshot is taken
    the first time coverage reaches each configured target, at the tick count
    times config.tick (one product, never a float sum). Node attributes are the
    node ids. The run ends at full coverage, or timed_out at max_sim_time.
    """
    n = provider.n_nodes
    visits = world.visits
    token = introduce_token(n, visits, rng)
    world.token = token

    thresholds = milestone_thresholds(config.milestones, n)
    snapshots: List[MilestoneSnapshot] = []
    pending = 0
    hop_every = round(config.hop_interval / config.tick)
    link_every = max(1, round(1.0 / config.tick))
    max_ticks = int(math.floor(config.max_sim_time / config.tick + 1e-9))

    churn: Optional[LinkEventCounter] = None
    if world.mobility is not None:
        churn = LinkEventCounter(period=link_every * config.tick)
        churn.observe(provider.edge_keys())

    tick = waiting_ticks = 0
    while True:
        # Before the tick is counted, so a crossing carries the time of its hop.
        while pending < len(thresholds) and token.unique_visited >= thresholds[pending][1]:
            snapshots.append(_snapshot(thresholds[pending][0], token, visits, n,
                                       tick * config.tick))
            pending += 1
        if pending == len(thresholds) or tick >= max_ticks:
            break
        tick += 1
        hop_due = tick % hop_every == 0
        link_due = churn is not None and tick % link_every == 0
        if world.mobility is not None:
            step_all(world.mobility, config)
        if hop_due and not HOP_FUNCS[config.walk_strategy](
                token, provider, visits, rng, None, trace, tick):
            waiting_ticks += 1
        if link_due:
            churn.observe(provider.edge_keys())

    rate = 0.0
    if churn is not None and churn.duration > 0:
        rate = churn_rate(churn, n)
    return RunRecord(
        config=config,
        milestones=snapshots,
        timed_out=pending < len(thresholds),
        churn_rate=rate,
        waiting_ticks=waiting_ticks,
    )


def walk_graph(provider: NeighborProvider, rng: np.random.Generator,
               strategy: str = "self_repelling", max_hops: Optional[int] = None,
               stop_at_coverage: bool = True,
               attributes: Optional[np.ndarray] = None) -> Tuple[Token, VisitTable]:
    """Drive hop attempts directly on a static graph, with no clock or mobility.

    Stops at full coverage (unless stop_at_coverage is False), after max_hops,
    or when stranded (permanent on a static graph). This is the fast path for
    cover-time oracles and fixed-length uniformity checks.
    """
    if not stop_at_coverage and max_hops is None:
        raise ValueError("walk_graph needs max_hops when stop_at_coverage is False")
    n = provider.n_nodes
    visits = VisitTable(n)
    token = introduce_token(n, visits, rng, attributes)
    hop = HOP_FUNCS[strategy]
    while not (stop_at_coverage and token.unique_visited >= n):
        if max_hops is not None and token.hops >= max_hops:
            break
        if not hop(token, provider, visits, rng, attributes):
            break
    return token, visits
