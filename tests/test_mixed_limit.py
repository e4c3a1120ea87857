"""The fully mixed limit: a graph that changes completely between hops.

Each hop attempt sees D ~ Binomial(N - 1, d / (N - 1)) neighbors drawn uniformly
from the other nodes (Avin, Koucky & Lotker, "How to explore a fast-changing
world", ICALP 2008). A least-visited walk then has a closed-form overhead, which
the walk engine must reach on a provider that draws every neighborhood fresh.
"""

import math

import numpy as np
import pytest

from manetwalk.core import rng_stream
from manetwalk.graphs import NeighborProvider
from manetwalk.metrics import exploration_overhead
from manetwalk.walk import walk_graph


def mixed_overhead(n: int, d: float, coverage: float) -> float:
    """Expected overhead of a self-repelling walk at `coverage` in the fully mixed limit.

    With k nodes visited, the token's own node included, a hop finds only visited
    neighbors with probability p_all = sum over D of P(D) C(k-1, D) / C(N-1, D).
    A hop that sees D = 0 is a wait, not a hop, so a hop reaches a new node with
    q_k = (1 - p_all) / (1 - P(D = 0)). The hops to the m nodes of the milestone
    are the sum of 1 / q_k over k < m, and the overhead is (hops + 1) / m.
    """
    p = d / (n - 1)
    pmf = [math.comb(n - 1, j) * p**j * (1 - p)**(n - 1 - j) for j in range(n)]
    m = next(k for k in range(1, n + 1) if k / n >= coverage)
    hops = 0.0
    for k in range(1, m):
        p_all = sum(pmf[j] * math.comb(k - 1, j) / math.comb(n - 1, j) for j in range(k))
        hops += (1 - pmf[0]) / (1 - p_all)
    return (hops + 1) / m


class FreshNeighborhoods(NeighborProvider):
    """Every query draws a new neighborhood of D >= 1 distinct other nodes.

    D = 0 is redrawn: walk_graph stops at a stranded token, and the closed form
    already conditions its hops on D >= 1.
    """

    def __init__(self, n: int, d: float, rng: np.random.Generator):
        self.n_nodes, self._p, self._rng = n, d / (n - 1), rng

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        size = 0
        while size == 0:
            size = self._rng.binomial(self.n_nodes - 1, self._p)
        others = self._rng.choice(self.n_nodes - 1, size, replace=False)
        return np.sort(others + (others >= node_id))


@pytest.mark.parametrize("n", [2, 10, 100])
def test_mixed_overhead_is_one_on_the_complete_graph(n):
    assert mixed_overhead(n, n - 1, 1.0) == 1.0
    assert mixed_overhead(n, n - 1, 0.5) == 1.0


def test_walk_reaches_the_mixed_limit():
    n, d = 100, 11.9
    expected = mixed_overhead(n, d, 1.0)
    assert expected == pytest.approx(1.208, abs=5e-4)
    overheads = []
    for seed in range(200):
        provider = FreshNeighborhoods(n, d, rng_stream(seed, "graph"))
        token, _ = walk_graph(provider, rng_stream(seed, "walk"))
        assert token.unique_visited == n
        overheads.append(exploration_overhead(token.hops, token.unique_visited))
    assert abs(np.mean(overheads) - expected) <= 0.03
