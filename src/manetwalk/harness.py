"""Experiment orchestration: sweeps, replicates, CSV emission, figure-data extraction."""

import csv
import hashlib
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (CONFIG_PARSERS, WALK_STRATEGIES, ConfigError, SimConfig, geometry_for,
                   list_of, read_config_file, rng_stream, validate_config)
from .graphs import DiskGraph, StaticGraph, rows_from_keys
from .metrics import MilestoneSnapshot, RunRecord
from .mobility import init_deployment
from .walk import TraceEntry, VisitTable, World, run_walk

_U64 = (1 << 64) - 1

# The reference experiment grid the default sweep covers.
DEFAULT_N_NODES = (100, 300, 500, 1000)
DEFAULT_SPEEDS = (3.0, 7.0, 11.0, 15.0)


@dataclass
class SweepSpec:
    """A grid of sweep points over a base config, with replicates per point.

    Runs take n_nodes, speed_avg, mobility_model, walk_strategy and seed from the grid, not base.
    A sweep file may not set them (GRID_KEYS); a code-built spec is unchecked: defaults look set.
    """

    base: SimConfig
    n_nodes: Sequence[int] = DEFAULT_N_NODES
    speeds: Sequence[float] = DEFAULT_SPEEDS
    models: Sequence[str] = ("random_direction", "random_waypoint")
    strategies: Sequence[str] = WALK_STRATEGIES
    replicates: int = 10
    seed_base: int = 1


Point = Tuple[int, float, str, str]  # (n_nodes, speed_avg, mobility_model, walk_strategy)


def sweep_points(spec: SweepSpec) -> List[Point]:
    return [(int(n), float(v), m, s)
            for n in spec.n_nodes for v in spec.speeds
            for m in spec.models for s in spec.strategies]


def derive_seed(seed_base: int, point: Point, replicate: int) -> int:
    """Stable per-run seed: seed_base xor a hash of the sweep coordinates."""
    key = f"{point[0]}|{point[1]!r}|{point[2]}|{point[3]}|{replicate}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return (seed_base ^ int.from_bytes(digest[:8], "big")) & _U64


def validate_spec(spec: SweepSpec) -> SweepSpec:
    """Check axes, replicates and every point's config, and that derived seeds never collide."""
    if spec.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {spec.replicates}")
    if not spec.n_nodes or not spec.speeds or not spec.models or not spec.strategies:
        raise ConfigError("every sweep axis needs at least one value")
    points = sweep_points(spec)
    seeds = {derive_seed(spec.seed_base, p, r) for p in points for r in range(spec.replicates)}
    if len(seeds) != len(points) * spec.replicates:
        raise ConfigError("seed derivation collided across the sweep grid")
    for p in points:
        point_config(spec, p, 0)
    return spec


def point_config(spec: SweepSpec, point: Point, replicate: int) -> SimConfig:
    """The validated config of one run, so a failed run's record is normalized too."""
    n, speed, model, strategy = point
    return validate_config(replace(
        spec.base, n_nodes=n, speed_avg=speed, mobility_model=model, walk_strategy=strategy,
        seed=derive_seed(spec.seed_base, point, replicate)))


def build_run(config: SimConfig):
    """Wire up one run: validated config, StaticGraph or DiskGraph, world, walk stream."""
    cfg = validate_config(config)
    geometry = geometry_for(cfg)
    state = init_deployment(cfg, geometry, rng_stream(cfg.seed, "deployment"),
                            motion_rng=rng_stream(cfg.seed, "mobility"))
    provider = DiskGraph(state.positions, geometry.comm_range)
    if cfg.mobility_model == "static":
        # One table of the deployed edges; with no mobility state, run_walk takes no snapshot.
        provider, state = StaticGraph(rows_from_keys(provider.edge_keys(), cfg.n_nodes)), None
    world = World(visits=VisitTable(cfg.n_nodes), mobility=state)
    return cfg, provider, world, rng_stream(cfg.seed, "walk")


def run_single(config: SimConfig, trace: Optional[List[TraceEntry]] = None) -> RunRecord:
    """Build the world for one config and run its walk to completion."""
    cfg, provider, world, walk_rng = build_run(config)
    return run_walk(cfg, provider, world, walk_rng, trace=trace)


def _run_task(args) -> RunRecord:
    config, replicate = args
    try:
        record = run_single(config)
    except Exception as exc:  # a failed run is data, not a sweep abort
        record = RunRecord(config=config, error=str(exc))
    record.replicate = replicate
    return record


def run_sweep(spec: SweepSpec, workers: int = 1) -> List[RunRecord]:
    """One record per (point, replicate), in canonical order whatever the schedule."""
    spec = validate_spec(spec)
    tasks = [(point_config(spec, p, r), r)
             for p in sweep_points(spec) for r in range(spec.replicates)]
    if workers <= 1:
        return [_run_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks, chunksize=1))


# --- summaries ---------------------------------------------------------------

POINT_COLUMNS = ("n_nodes", "density", "mobility_model", "speed_avg", "walk_strategy")

RUNS_COLUMNS = POINT_COLUMNS + (
    "replicate", "seed", "timed_out", "waiting_ticks", "churn_rate",
    "milestone", "achieved_coverage", "sim_time", "hops", "unique_visited",
    "overhead", "visit_variance")

HIST_COLUMNS = POINT_COLUMNS + (
    "replicate", "seed", "milestone", "visits", "node_count", "node_fraction")

SUMMARY_COLUMNS = POINT_COLUMNS + (
    "milestone", "runs", "completed", "timed_out", "failed",
    "mean_overhead", "std_overhead", "mean_hops", "mean_sim_time", "mean_churn_rate")


# Aggregate over the completed replicates of one sweep point at one milestone.
SummaryRow = namedtuple("SummaryRow", SUMMARY_COLUMNS)


def _point_of(config: SimConfig) -> Tuple:
    return tuple(getattr(config, c) for c in POINT_COLUMNS)


def summarize(records: Iterable[RunRecord]) -> List[SummaryRow]:
    """Means and standard deviations per sweep point per milestone.

    Aggregates use completed (non-timed-out, non-failed) runs only; timed-out
    and failed counts are reported alongside. Standard deviations are
    population deviations, so a single run reports 0.
    """
    groups: Dict[Tuple, List[RunRecord]] = {}
    for rec in records:
        groups.setdefault(_point_of(rec.config), []).append(rec)

    rows: List[SummaryRow] = []
    for key, group in groups.items():
        complete = [r for r in group if not r.timed_out and r.error is None]
        timed_out = sum(1 for r in group if r.timed_out)
        failed = sum(1 for r in group if r.error is not None)
        targets = group[0].config.milestones
        for target in targets:
            snaps = [s for r in complete for s in r.milestones
                     if s.target_coverage == target]
            if snaps:
                overheads = np.array([s.overhead for s in snaps])
                mean_ov = float(overheads.mean())
                std_ov = float(overheads.std())
                mean_hops = float(np.mean([s.hops for s in snaps]))
                mean_time = float(np.mean([s.sim_time for s in snaps]))
                mean_churn = float(np.mean([r.churn_rate for r in complete]))
            else:
                mean_ov = std_ov = mean_hops = mean_time = mean_churn = None
            rows.append(SummaryRow(*key, target, len(group), len(complete), timed_out, failed,
                                   mean_ov, std_ov, mean_hops, mean_time, mean_churn))
    return rows


# --- CSV emission ------------------------------------------------------------

def fmt(value) -> str:
    """Canonical cell format: floats at 9 significant digits, bools as 0/1."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _cells(*values) -> List[str]:
    return [fmt(v) for v in values]


def run_rows(records: Iterable[RunRecord]) -> List[List[str]]:
    rows = []
    for rec in records:
        head = _cells(*_point_of(rec.config), rec.replicate, rec.seed, rec.timed_out,
                      rec.waiting_ticks, rec.churn_rate)
        for snap in rec.milestones:
            rows.append(head + _cells(snap.target_coverage, snap.achieved_coverage,
                                      snap.sim_time, snap.hops, snap.unique_visited,
                                      snap.overhead, snap.visit_variance))
    return rows


def histogram_rows(records: Iterable[RunRecord]) -> List[List[str]]:
    rows = []
    for rec in records:
        head = _cells(*_point_of(rec.config), rec.replicate, rec.seed)
        for snap in rec.milestones:
            for visits in sorted(snap.histogram):
                count = snap.histogram[visits]
                rows.append(head + _cells(snap.target_coverage, visits, count,
                                          count / rec.config.n_nodes))
    return rows


def summary_rows(summary: Iterable[SummaryRow]) -> List[List[str]]:
    return [[fmt(v) for v in s] for s in summary]


@contextmanager
def _writing(path, **kwargs):
    """open(path, "w") whose OSError, in opening or in writing, names the path."""
    try:
        with open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_csv(path, header, rows) -> None:
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(records: Sequence[RunRecord], out_dir) -> Dict[str, str]:
    """Write runs.csv, summary.csv and histograms.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "runs": os.path.join(out_dir, "runs.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "histograms": os.path.join(out_dir, "histograms.csv"),
    }
    _write_csv(paths["runs"], RUNS_COLUMNS, run_rows(records))
    _write_csv(paths["summary"], SUMMARY_COLUMNS, summary_rows(summarize(records)))
    _write_csv(paths["histograms"], HIST_COLUMNS, histogram_rows(records))
    return paths


def emit_trace(trace: Sequence[TraceEntry], path, n_nodes: int, seed: int,
               start_node: int) -> None:
    """One line per hop attempt; the header carries what replay needs."""
    with _writing(path) as fh:
        fh.write(f"# n_nodes={n_nodes} seed={seed} start={start_node}\n")
        fh.write("# tick node neighbors(id:visits,...) decision outcome\n")
        for e in trace:
            nbrs = ",".join(f"{i}:{c}" for i, c in zip(e.neighbor_ids, e.visit_counts))
            fh.write(f"{e.tick_index} {e.node} {nbrs or '-'} "
                     f"{e.decision if e.moved else '-'} "
                     f"{'moved' if e.moved else 'stranded'}\n")


def parse_trace(path) -> Tuple[Dict[str, int], List[TraceEntry]]:
    """Read a trace file back into entries (the replay side of emit_trace)."""
    meta: Dict[str, int] = {}
    entries: List[TraceEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for part in line[1:].split():
                    if "=" in part:
                        k, v = part.split("=", 1)
                        meta[k] = int(v)
                continue
            tick, node, nbrs, decision, outcome = line.split()
            if nbrs == "-":
                ids, counts = (), ()
            else:
                pairs = [p.split(":") for p in nbrs.split(",")]
                ids = tuple(int(a) for a, _ in pairs)
                counts = tuple(int(b) for _, b in pairs)
            entries.append(TraceEntry(int(tick), int(node), ids, counts,
                                      -1 if decision == "-" else int(decision),
                                      outcome == "moved"))
    return meta, entries


def _records_from_runs_csv(path) -> List[RunRecord]:
    """Read runs.csv back into just enough of each record for summarize.

    Only the sweep-point fields, the seed, the replicate and the milestone data
    are recovered; every other config field takes its default and histograms
    are empty. Failed runs and runs that reached no milestone are not in the
    file. Each config's milestones are the targets seen at its sweep point.
    """
    records: Dict[Tuple, RunRecord] = {}
    targets: Dict[Tuple, set] = {}
    for row in _read_csv(path):
        point = tuple(row[c] for c in POINT_COLUMNS)
        key = point + (row["replicate"], row["seed"])
        if key not in records:
            config = SimConfig(**{c: CONFIG_PARSERS[c](row[c]) for c in POINT_COLUMNS},
                               seed=int(row["seed"]))
            records[key] = RunRecord(config, timed_out=row["timed_out"] == "1",
                                     churn_rate=float(row["churn_rate"]),
                                     waiting_ticks=int(row["waiting_ticks"]),
                                     replicate=int(row["replicate"]))
        records[key].milestones.append(MilestoneSnapshot(
            float(row["milestone"]), float(row["achieved_coverage"]), float(row["sim_time"]),
            int(row["hops"]), int(row["unique_visited"]), float(row["overhead"]), {},
            float(row["visit_variance"])))
        targets.setdefault(point, set()).add(float(row["milestone"]))
    for key, rec in records.items():
        rec.config.milestones = tuple(sorted(targets[key[:-2]]))
    return list(records.values())


def summarize_runs_csv(out_dir) -> str:
    """Rebuild summary.csv from runs.csv through summarize.

    Failed runs and unreached milestones leave no rows in runs.csv, so `failed`
    reads 0 and those milestones are absent; the sweep command's in-memory
    summary is authoritative for them.
    """
    records = _records_from_runs_csv(os.path.join(out_dir, "runs.csv"))
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, SUMMARY_COLUMNS, summary_rows(summarize(records)))
    return path


# --- sweep spec files --------------------------------------------------------

# Sweep file key -> (SweepSpec field, parser); every other key is a config key.
SWEEP_KEYS = {
    "sweep_n_nodes": ("n_nodes", list_of(int)),
    "sweep_speed_avg": ("speeds", list_of(float)),
    "sweep_mobility_model": ("models", list_of(str)),
    "sweep_walk_strategy": ("strategies", list_of(str)),
    "replicates": ("replicates", int),
    "seed_base": ("seed_base", int),
}
# Config key that every sweep run takes from its grid point -> the sweep key to set instead.
GRID_KEYS = {"n_nodes": "sweep_n_nodes", "speed_avg": "sweep_speed_avg", "seed": "seed_base",
             "mobility_model": "sweep_mobility_model", "walk_strategy": "sweep_walk_strategy"}


def _set_instead(sweep_key: str, text: str):
    raise ValueError(f"a sweep never reads it; set {sweep_key} instead")


def read_sweep_file(path) -> SweepSpec:
    """A sweep file is a flat config file, without GRID_KEYS, plus sweep_* axis keys."""
    parsers = {**CONFIG_PARSERS, **{k: partial(_set_instead, to) for k, to in GRID_KEYS.items()},
               **{key: parse for key, (_, parse) in SWEEP_KEYS.items()}}
    values = read_config_file(path, parsers)
    sweep = {SWEEP_KEYS[k][0]: v for k, v in values.items() if k in SWEEP_KEYS}
    base = {k: v for k, v in values.items() if k not in SWEEP_KEYS}
    return SweepSpec(base=SimConfig(**base), **sweep)


# --- figure data -------------------------------------------------------------

_SELF_REPELLING = {"walk_strategy": "self_repelling"}
_SELF_REPELLING_FULL = {"walk_strategy": "self_repelling", "milestone": fmt(1.0)}

# Figure id -> (source CSV, cells a row must hold, key columns). A summary layout
# prints its key columns per row; a histogram layout averages node_count and
# node_fraction per key.
FIGURE_LAYOUTS = {
    "fig1": ("histograms.csv", _SELF_REPELLING, ("milestone", "n_nodes", "visits")),
    "fig2a": ("summary.csv", _SELF_REPELLING,
              ("n_nodes", "milestone", "mean_overhead", "std_overhead")),
    "fig2b": ("summary.csv", _SELF_REPELLING_FULL, ("n_nodes", "mean_overhead", "std_overhead")),
    "fig3a": ("summary.csv", _SELF_REPELLING_FULL,
              ("mobility_model", "n_nodes", "speed_avg", "mean_overhead")),
    "fig3b": ("summary.csv", _SELF_REPELLING_FULL,
              ("speed_avg", "n_nodes", "mobility_model", "mean_overhead")),
    "fig4": ("histograms.csv", {"milestone": fmt(1.0)}, ("walk_strategy", "n_nodes", "visits")),
    "fig5": ("summary.csv", {}, ("walk_strategy", "n_nodes", "milestone", "mean_overhead")),
}
FIGURES = tuple(FIGURE_LAYOUTS)


def _read_csv(path) -> List[Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _group_mean(rows, keys, value_key):
    groups: Dict[Tuple, List[float]] = {}
    for row in rows:
        if row[value_key] == "":
            continue
        key = tuple(row[k] for k in keys)
        groups.setdefault(key, []).append(float(row[value_key]))
    return {k: sum(v) / len(v) for k, v in groups.items()}


def figdata(fig_id: str, out_dir) -> str:
    """Extract gnuplot-ready plot columns for one named figure layout."""
    if fig_id not in FIGURE_LAYOUTS:
        raise ConfigError(f"unknown figure id {fig_id!r}, expected one of {FIGURES}")
    source, cells, keys = FIGURE_LAYOUTS[fig_id]
    dest = os.path.join(out_dir, f"{fig_id}.dat")
    rows = [r for r in _read_csv(os.path.join(out_dir, source))
            if all(r[c] == v for c, v in cells.items())]
    if source == "histograms.csv":
        rows = [r for r in rows if r["visits"] != "0"]  # zero bin is a plot-layer exclusion
        counts = _group_mean(rows, keys, "node_count")
        fracs = _group_mean(rows, keys, "node_fraction")
        header = keys + ("mean_node_count", "mean_node_fraction")
        out_rows = [list(k) + [fmt(counts[k]), fmt(fracs[k])]
                    for k in sorted(counts, key=_numeric_key)]
    else:
        header = keys
        out_rows = sorted(([r[c] for c in keys] for r in rows if r["mean_overhead"] != ""),
                          key=_numeric_key)
    with _writing(dest) as fh:
        fh.write(f"# {' '.join(header)}\n")
        for row in out_rows:
            fh.write(" ".join(row) + "\n")
    return dest


def _numeric_key(values):
    key = []
    for v in values:
        try:
            key.append((0, float(v), ""))
        except (TypeError, ValueError):
            key.append((1, 0.0, str(v)))
    return key
