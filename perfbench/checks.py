"""Correctness checks computed apart from the program, run outside the timed region.

Each check returns a list of failure messages; an empty list means the output
passed. Expected values come from closed forms, brute force or the
benchmark's own arithmetic over the program's CSV files, never from a stored
copy of earlier output.
"""

import csv
import math
import os
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

# Rows of 128 nodes keep the all-pairs distance test at about 1 MB of scratch.
_BRUTE_FORCE_ROWS = 128


def expected_range(config) -> float:
    """Communication range at the connectivity threshold, R = sqrt(ln N / density)."""
    if config.comm_range is not None:
        return config.comm_range
    return math.sqrt(math.log(config.n_nodes) / config.density)


def brute_force_neighbors(positions: np.ndarray, comm_range: float) -> List[np.ndarray]:
    """Neighbor ids of every node by an all-pairs distance test on the closed ball."""
    n = len(positions)
    r2 = comm_range * comm_range
    x = positions[:, 0]
    y = positions[:, 1]
    out = []
    for lo in range(0, n, _BRUTE_FORCE_ROWS):
        hi = min(n, lo + _BRUTE_FORCE_ROWS)
        dx = x[None, :] - x[lo:hi, None]
        dy = y[None, :] - y[lo:hi, None]
        close = dx * dx + dy * dy <= r2
        close[np.arange(hi - lo), np.arange(lo, hi)] = False
        out.extend(np.nonzero(row)[0] for row in close)
    return out


def check_mobile_run(record, provider, world) -> List[str]:
    """A run_single result at full coverage, against closed forms and brute force."""
    config = record.config
    n = config.n_nodes
    fails = []
    if record.error is not None:
        return [f"run raised: {record.error}"]
    if record.timed_out:
        fails.append("run timed out")
    if not record.milestones or record.milestones[-1].target_coverage != 1.0:
        return fails + ["no 100% milestone"]
    final = record.milestones[-1]
    counts = world.visits.counts
    if np.count_nonzero(counts) != n or final.unique_visited != n:
        fails.append(f"coverage incomplete: {np.count_nonzero(counts)} of {n} nodes visited")

    agg = world.token.aggregate
    if (agg.count, agg.sum, agg.max) != (n, n * (n - 1) / 2, n - 1):
        fails.append(f"aggregate (count, sum, max) = ({agg.count}, {agg.sum}, {agg.max}), "
                     f"expected ({n}, {n * (n - 1) // 2}, {n - 1})")
    if int(counts.sum()) != final.hops + 1:
        fails.append(f"visit counts sum to {int(counts.sum())}, expected hops+1 = {final.hops + 1}")
    attempts = round(final.sim_time / config.hop_interval)
    if final.hops + record.waiting_ticks != attempts:
        fails.append(f"hops {final.hops} + waiting {record.waiting_ticks} != "
                     f"{attempts} attempts in {final.sim_time} s")
    binned = np.bincount(counts)
    expected_hist = {c: int(k) for c, k in enumerate(binned) if k > 0}
    if final.histogram != expected_hist:
        fails.append("100% histogram differs from the bincount of the final visit table")

    truth = brute_force_neighbors(world.mobility.positions, expected_range(config))
    bad = [i for i in range(n) if not np.array_equal(provider.neighbor_ids(i), truth[i])]
    if bad:
        fails.append(f"neighbor_ids differs from brute force at {len(bad)} nodes, first {bad[0]}")
    expected_edges = {(i, int(j)) for i in range(n) for j in truth[i] if i < j}
    if provider.edge_set() != expected_edges:
        fails.append("edge_set differs from brute force")
    return fails


# --- oracle walks ------------------------------------------------------------

def check_cover_walk(token, visits, n) -> List[str]:
    """Self-repelling cover of Complete(n) or Cycle(n): exactly n - 1 hops, no repeats."""
    fails = []
    if token.hops != n - 1:
        fails.append(f"cover took {token.hops} hops, expected {n - 1}")
    if np.count_nonzero(visits.counts) != n or int(visits.counts.sum()) != n:
        fails.append("visit table is not one visit per node")
    return fails


def check_torus_walk(token, visits, hops) -> List[str]:
    counts = visits.counts.astype(np.float64)
    variance = float(((counts - counts.mean()) ** 2).mean())
    fails = []
    if token.hops != hops or int(visits.counts.sum()) != hops + 1:
        fails.append(f"torus walk made {token.hops} hops, expected {hops}")
    if not variance < 1.0:
        fails.append(f"torus visit variance {variance:.3f} after {hops} hops, expected < 1")
    return fails


def coupon_mean(n) -> float:
    """Expected pure-random cover time of Complete(n): (n - 1) * H(n - 1)."""
    return float((n - 1) * sum(Fraction(1, k) for k in range(1, n)))


def check_pure_walk(token, visits, n) -> List[str]:
    if token.unique_visited != n or int(visits.counts.sum()) != token.hops + 1:
        return [f"pure-random walk on Complete({n}) did not cover consistently"]
    return []


def check_pure_mean(hops: List[int], n) -> List[str]:
    mean = sum(hops) / len(hops)
    expected = coupon_mean(n)
    if abs(mean - expected) > 0.05 * expected:
        return [f"pure-random Complete({n}) mean cover {mean:.2f}, "
                f"expected {expected:.2f} within 5%"]
    return []


# --- sweeps ------------------------------------------------------------------

POINT = ("n_nodes", "density", "mobility_model", "speed_avg", "walk_strategy")
RUN = POINT + ("replicate",)


def read_csv(path) -> List[Dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: str, b: float) -> bool:
    # CSV cells carry 9 significant digits. A standard deviation of nearly
    # equal overheads recomputed from rounded cells can be off by ~1e-8
    # absolute, hence the absolute tolerance.
    return a != "" and math.isclose(float(a), b, rel_tol=1e-7, abs_tol=1e-6)


def recompute_summary(runs) -> Dict[Tuple, Dict[str, float]]:
    """Per (point, milestone) counts and means over completed runs, from runs.csv rows."""
    point_runs: Dict[Tuple, Dict[Tuple, Dict[str, str]]] = {}
    groups: Dict[Tuple, List[Dict[str, str]]] = {}
    for row in runs:
        point = tuple(row[c] for c in POINT)
        point_runs.setdefault(point, {})[row["replicate"]] = row
        if row["timed_out"] == "0":
            groups.setdefault(point + (float(row["milestone"]),), []).append(row)
    out: Dict[Tuple, Dict[str, float]] = {}
    for key, rows in groups.items():
        k = len(rows)
        members = point_runs[key[:-1]].values()
        complete = [float(r["churn_rate"]) for r in members if r["timed_out"] == "0"]
        overheads = [float(r["overhead"]) for r in rows]
        mean_ov = sum(overheads) / k
        out[key] = {
            "runs": len(members),
            "completed": len(complete),
            "mean_overhead": mean_ov,
            "std_overhead": math.sqrt(sum((o - mean_ov) ** 2 for o in overheads) / k),
            "mean_hops": sum(float(r["hops"]) for r in rows) / k,
            "mean_sim_time": sum(float(r["sim_time"]) for r in rows) / k,
            "mean_churn_rate": sum(complete) / len(complete),
        }
    return out


def check_summary(summary_rows, expected) -> Dict[Tuple, List[str]]:
    """Summary rows against recomputed means; failures keyed by sweep point."""
    fails: Dict[Tuple, List[str]] = {}
    seen = set()
    for row in summary_rows:
        key = tuple(row[c] for c in POINT) + (float(row["milestone"]),)
        seen.add(key)
        want = expected.get(key)
        if want is None:
            fails.setdefault(key[:-1], []).append(f"summary row without runs at {key}")
            continue
        for col, value in want.items():
            if not _close(row[col], value):
                fails.setdefault(key[:-1], []).append(
                    f"summary {col} {row[col]!r} at {key}, recomputed {value:.9g}")
    for key in set(expected) - seen:
        fails.setdefault(key[:-1], []).append(f"no summary row at {key}")
    return fails


def check_sweep(out_dir, expected_runs, summaries) -> Dict[Tuple, List[str]]:
    """Check a sweep's CSV files; failures keyed by run (point + replicate).

    `expected_runs` maps each run key (as CSV strings) to its n_nodes;
    `summaries` are the summary.csv texts to hold against runs.csv.
    """
    fails: Dict[Tuple, List[str]] = {key: [] for key in expected_runs}
    runs = read_csv(os.path.join(out_dir, "runs.csv"))
    hist = read_csv(os.path.join(out_dir, "histograms.csv"))

    by_run: Dict[Tuple, List[Dict[str, str]]] = {}
    for row in runs:
        by_run.setdefault(tuple(row[c] for c in RUN), []).append(row)
    sums: Dict[Tuple, List[int]] = {}
    for row in hist:
        key = tuple(row[c] for c in RUN) + (row["milestone"],)
        acc = sums.setdefault(key, [0, 0])
        acc[0] += int(row["node_count"])
        acc[1] += int(row["visits"]) * int(row["node_count"])

    for key, n in expected_runs.items():
        rows = by_run.get(key)
        if not rows:
            fails[key].append("no rows in runs.csv")
            continue
        if any(r["timed_out"] != "0" for r in rows) or rows[-1]["milestone"] != "1":
            fails[key].append("run did not reach full coverage")
        churn = float(rows[0]["churn_rate"])
        static = key[2] == "static"
        if (static and churn != 0.0) or (not static and not churn > 0.0):
            fails[key].append(f"churn_rate {churn} for a {key[2]} run")
        for r in rows:
            nodes, placements = sums.get(key + (r["milestone"],), (0, 0))
            if nodes != n:
                fails[key].append(f"histogram at {r['milestone']} counts {nodes} nodes, not {n}")
            if placements != int(r["hops"]) + 1:
                fails[key].append(f"histogram at {r['milestone']} holds {placements} visits, "
                                  f"expected hops+1 = {int(r['hops']) + 1}")

    expected = recompute_summary(runs)
    for text in summaries:
        rows = list(csv.DictReader(text.splitlines()))
        for point, msgs in check_summary(rows, expected).items():
            for key in fails:
                if key[:len(POINT)] == point:
                    fails[key].extend(msgs)
    return fails
