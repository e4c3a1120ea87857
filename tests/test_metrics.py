import math

import numpy as np
import pytest

from manetwalk.core import SimConfig
from manetwalk.graphs import CompleteGraph, LinkEventCounter
from manetwalk.metrics import (churn_rate, exploration_overhead, visit_histogram,
                               visit_variance)
from manetwalk.walk import VisitTable, walk_graph
from manetwalk.core import rng_stream
from manetwalk.harness import run_single


def _table(counts):
    visits = VisitTable(len(counts))
    visits.counts[:] = counts
    return visits


def test_overhead_examples():
    assert exploration_overhead(99, 100) == 1.0
    assert exploration_overhead(199, 100) == 2.0
    with pytest.raises(ValueError):
        exploration_overhead(10, 0)


def test_variance_examples():
    assert visit_variance(_table([3, 3, 3, 3])) == 0.0
    assert visit_variance(_table([0, 2])) == 1.0


def test_variance_matches_naive_two_pass():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 40, size=int(rng.integers(1, 300)))
        visits = _table(counts)
        mu = sum(int(c) for c in counts) / len(counts)
        naive = sum((int(c) - mu) ** 2 for c in counts) / len(counts)
        got = visit_variance(visits)
        assert math.isclose(got, naive, rel_tol=1e-9, abs_tol=1e-12)


def test_histogram_examples():
    assert visit_histogram(_table([1, 1, 1])) == {1: 3}
    assert visit_histogram(_table([0, 1, 2, 2])) == {0: 1, 1: 1, 2: 2}


def test_histogram_invariants_on_walks():
    for seed in range(5):
        token, visits = walk_graph(CompleteGraph(40), rng_stream(seed, "walk"),
                                   strategy="pure_random")
        hist = visit_histogram(visits)
        assert sum(hist.values()) == 40
        assert sum(c * k for c, k in hist.items()) == token.hops + 1


def test_overhead_one_iff_duplicate_free():
    for seed in range(10):
        token, visits = walk_graph(CompleteGraph(15), rng_stream(seed, "walk"),
                                   strategy="pure_random", max_hops=25)
        overhead = exploration_overhead(token.hops, token.unique_visited)
        assert (overhead == 1.0) == (visits.counts.max() == 1)


def test_churn_rate_zero_events():
    counter = LinkEventCounter()
    counter.observe(np.empty(0, dtype=np.int64))
    counter.observe(np.empty(0, dtype=np.int64))
    assert churn_rate(counter, 10) == 0.0


def test_churn_rate_convention():
    # 100 edge events over 1 s in a 100-node network -> 1.0 per node per second
    counter = LinkEventCounter(period=0.5)
    none = np.empty(0, dtype=np.int64)
    counter.observe(none)
    counter.observe(np.array([2 * i * 100 + 2 * i + 1 for i in range(50)], dtype=np.int64))
    counter.observe(none)
    assert counter.events == 100
    assert counter.duration == 1.0
    assert churn_rate(counter, 100) == 1.0


def test_churn_rate_matches_endpoint_count_form():
    # events / (N*T) gives the same float as the sum of both endpoints' counts,
    # 2*events, over 2*N*T: both sides are exactly doubled.
    rng = np.random.default_rng(12)
    counter = LinkEventCounter()
    for _ in range(20000):
        counter.events = int(rng.integers(0, 10**7))
        n = int(rng.integers(2, 5000))
        duration = float(rng.integers(1, 86400)) * float(rng.choice([0.1, 0.3, 1.0, 1.7]))
        counter.duration = duration
        assert churn_rate(counter, n) == float(2 * counter.events) / (2.0 * n * duration)


def test_churn_rate_rejects_bad_duration():
    with pytest.raises(ValueError):
        churn_rate(LinkEventCounter(), 5)


def test_milestone_overhead_is_monotone_in_runs():
    record = run_single(SimConfig(n_nodes=90, seed=17))
    hops = [s.hops for s in record.milestones]
    assert hops == sorted(hops)
    for snap in record.milestones:
        assert snap.achieved_coverage >= snap.target_coverage
        assert sum(snap.histogram.values()) == 90
        assert sum(c * k for c, k in snap.histogram.items()) == snap.hops + 1
        assert snap.overhead >= 1.0
