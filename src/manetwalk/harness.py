"""Experiment orchestration: sweeps, replicates, CSV emission, figure-data extraction."""

import csv
import hashlib
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from itertools import product, zip_longest
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (_U64, CONFIG_PARSERS, WALK_STRATEGIES, ConfigError, SimConfig,
                   geometry_for, list_of, read_config_file, rng_stream)
from .graphs import DiskGraph, StaticGraph, rows_from_keys
from .metrics import RunRecord, exploration_overhead
from .mobility import init_deployment
from .walk import TraceEntry, VisitTable, World, run_walk

# The config keys a sweep varies: the order of a grid point and of its derive_seed key.
AXES = ("n_nodes", "speed_avg", "mobility_model", "walk_strategy")


@dataclass
class SweepSpec:
    """A grid of sweep points over a base config, with replicates per point.

    Each AXES field lists the values its config key takes; the defaults are the reference grid.
    Runs take the AXES keys from their grid point and seed from seed_base, never from base.
    A sweep file may not set them (GRID_KEYS); a code-built spec is unchecked: defaults look set.
    """

    base: SimConfig
    n_nodes: Sequence[int] = (100, 300, 500, 1000)
    speed_avg: Sequence[float] = (3.0, 7.0, 11.0, 15.0)
    mobility_model: Sequence[str] = ("random_direction", "random_waypoint")
    walk_strategy: Sequence[str] = WALK_STRATEGIES
    replicates: int = 10
    seed_base: int = 1


def _axis_values(spec: SweepSpec) -> List[tuple]:
    return [tuple(map(CONFIG_PARSERS[axis], getattr(spec, axis))) for axis in AXES]


def sweep_points(spec: SweepSpec) -> List[tuple]:
    return list(product(*_axis_values(spec)))


def derive_seed(seed_base: int, point: tuple, replicate: int) -> int:
    """Stable per-run seed: seed_base xor a hash of the sweep coordinates."""
    key = f"{point[0]}|{point[1]!r}|{point[2]}|{point[3]}|{replicate}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return (seed_base ^ int.from_bytes(digest[:8], "big")) & _U64


def validate_spec(spec: SweepSpec) -> SweepSpec:
    """Check replicates, that each axis has values and none twice, and every point's config.

    Distinct points give distinct derive_seed keys, so no two runs share a seed.
    """
    if spec.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {spec.replicates}")
    for axis, values in zip(AXES, _axis_values(spec)):
        if not values:
            raise ConfigError(f"sweep_{axis} needs at least one value")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"sweep_{axis} repeats {value}")
    for p in sweep_points(spec):
        point_config(spec, p, 0)
    return spec


def point_config(spec: SweepSpec, point: tuple, replicate: int) -> SimConfig:
    """The config of one run: the base config at its grid point, with its derived seed."""
    return replace(spec.base, **dict(zip(AXES, point)),
                   seed=derive_seed(spec.seed_base, point, replicate))


def build_run(config: SimConfig):
    """Wire up one run: its config, StaticGraph or DiskGraph, world, walk stream."""
    geometry = geometry_for(config)
    state = init_deployment(config, geometry, rng_stream(config.seed, "deployment"),
                            motion_rng=rng_stream(config.seed, "mobility"))
    provider = DiskGraph(state.positions, geometry.comm_range)
    if config.mobility_model == "static":
        # One table of the deployed edges; with no mobility state, run_walk takes no snapshot.
        provider, state = StaticGraph(rows_from_keys(provider.edge_keys(), config.n_nodes)), None
    world = World(visits=VisitTable(config.n_nodes), mobility=state)
    return config, provider, world, rng_stream(config.seed, "walk")


def run_single(config: SimConfig, trace: Optional[List[TraceEntry]] = None) -> RunRecord:
    """Build the world for one config and run its walk to completion."""
    cfg, provider, world, walk_rng = build_run(config)
    return run_walk(cfg, provider, world, walk_rng, trace=trace)


def _run_task(args) -> RunRecord:
    config, replicate = args
    try:
        record = run_single(config)
    except Exception as exc:  # a failed run is data, not a sweep abort
        record = RunRecord(config=config, error=f"{type(exc).__name__}: {exc}")
    record.replicate = replicate
    return record


def run_sweep(spec: SweepSpec, workers: int = 1) -> List[RunRecord]:
    """One record per (point, replicate), in canonical order whatever the schedule."""
    spec = validate_spec(spec)
    tasks = [(point_config(spec, p, r), r)
             for p in sweep_points(spec) for r in range(spec.replicates)]
    workers = min(workers, len(tasks))  # the pool starts every worker at its first task
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


# One run at one configured milestone. A cell the run did not measure is None: the
# milestone cells of a milestone it fell short of, and every run cell of a failed run.
RunRow = namedtuple("RunRow", RUNS_COLUMNS)

# Aggregate over the completed replicates of one sweep point at one milestone.
SummaryRow = namedtuple("SummaryRow", SUMMARY_COLUMNS)

# One visit-count bin of one run at one milestone it reached.
HistRow = namedtuple("HistRow", HIST_COLUMNS)

# CSV column -> the parser of its non-empty cells; the columns left out are floats.
# timed_out is runs.csv's 0/1 flag; summary.csv counts it, so its reader passes int.
_PARSERS = {**{c: CONFIG_PARSERS[c] for c in POINT_COLUMNS},
            **dict.fromkeys(("replicate", "seed", "waiting_ticks", "hops", "unique_visited",
                             "visits", "node_count", "runs", "completed", "failed"), int),
            "timed_out": lambda cell: bool(("0", "1").index(cell))}


def _point_of(config: SimConfig) -> Tuple:
    return tuple(getattr(config, c) for c in POINT_COLUMNS)


def run_rows(records: Iterable[RunRecord]) -> List[RunRow]:
    """One row per configured milestone per run."""
    rows = []
    for rec in records:
        failed = rec.error is not None
        head = _point_of(rec.config) + (rec.replicate, rec.seed) + ((None,) * 3 if failed else (
            rec.timed_out, rec.waiting_ticks, rec.churn_rate))
        # A run takes its milestones in order, so the ones it reached come first.
        for target, snap in zip_longest(rec.config.milestones, rec.milestones):
            cells = (None,) * 6 if snap is None else (
                snap.achieved_coverage, snap.sim_time, snap.hops,
                snap.unique_visited, snap.overhead, snap.visit_variance)
            rows.append(RunRow(*head, target, *cells))
    return rows


def summarize(rows: Iterable[RunRow]) -> List[SummaryRow]:
    """Means and standard deviations per sweep point per milestone.

    The rows of one (replicate, seed) at a point are one run: timed out if its
    timed_out is True, failed if None, completed if False. A point's milestones
    are its first run's; a run with other milestones, or milestones that do not
    end at 1, is a ConfigError.
    Aggregates use completed runs only, and overhead is recomputed from hops and
    unique_visited, exactly as the records hold it. Standard deviations are
    population deviations, so a single run reports 0.
    """
    points: Dict[Tuple, Dict[Tuple, List[RunRow]]] = {}
    for row in rows:
        by_run = points.setdefault(row[:len(POINT_COLUMNS)], {})
        by_run.setdefault((row.replicate, row.seed), []).append(row)

    out: List[SummaryRow] = []
    for point, by_run in points.items():
        runs = list(by_run.values())
        targets = [row.milestone for row in runs[0]]
        for (replicate, seed), run in by_run.items():
            if [row.milestone for row in run] != targets:
                raise ConfigError(f"run replicate={replicate} seed={seed} has milestones "
                                  f"{','.join(fmt(row.milestone) for row in run)}, "
                                  f"its point's first run {','.join(map(fmt, targets))}")
        if targets[-1] != 1.0:  # configured milestones end at 1, so the rows were cut
            replicate, seed = next(iter(by_run))
            raise ConfigError(f"run replicate={replicate} seed={seed} ends at milestone "
                              f"{fmt(targets[-1])}, not 1")
        status = [run[0].timed_out for run in runs]
        complete = [run for run in runs if run[0].timed_out is False]
        for target in targets:
            snaps = [row for run in complete for row in run if row.milestone == target]
            if snaps:
                overheads = np.array([exploration_overhead(s.hops, s.unique_visited)
                                      for s in snaps])
                mean_ov, std_ov = float(overheads.mean()), float(overheads.std())
                mean_hops = float(np.mean([s.hops for s in snaps]))
                mean_time = float(np.mean([s.sim_time for s in snaps]))
                mean_churn = float(np.mean([run[0].churn_rate for run in complete]))
            else:
                mean_ov = std_ov = mean_hops = mean_time = mean_churn = None
            out.append(SummaryRow(*point, target, len(runs), len(complete), status.count(True),
                                  status.count(None), mean_ov, std_ov, mean_hops, mean_time,
                                  mean_churn))
    return out


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


def histogram_rows(records: Iterable[RunRecord]) -> List[HistRow]:
    rows = []
    for rec in records:
        head = _point_of(rec.config) + (rec.replicate, rec.seed)
        for snap in rec.milestones:
            for visits in sorted(snap.histogram):
                count = snap.histogram[visits]
                rows.append(HistRow(*head, snap.target_coverage, visits, count,
                                    count / rec.config.n_nodes))
    return rows


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
        writer.writerows([fmt(v) for v in row] for row in rows)


def emit_csv(records: Sequence[RunRecord], out_dir) -> Dict[str, str]:
    """Write runs.csv and histograms.csv, then summary.csv from runs.csv as written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "runs": os.path.join(out_dir, "runs.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "histograms": os.path.join(out_dir, "histograms.csv"),
    }
    _write_csv(paths["runs"], RUNS_COLUMNS, run_rows(records))
    _write_csv(paths["histograms"], HIST_COLUMNS, histogram_rows(records))
    summarize_runs_csv(out_dir)
    return paths


def emit_trace(trace: Sequence[TraceEntry], path, n_nodes: int, seed: int,
               start_node: int) -> None:
    """One line per hop attempt; the header carries what replay needs."""
    with _writing(path) as fh:
        fh.write(f"# n_nodes={n_nodes} seed={seed} start={start_node}\n")
        fh.write("# tick node neighbors(id:visits,...) decision outcome\n")
        for e in trace:
            nbrs = ",".join(f"{i}:{c}" for i, c in zip(e.neighbor_ids, e.visit_counts))
            moved = e.decision != -1
            fh.write(f"{e.tick_index} {e.node} {nbrs or '-'} {e.decision if moved else '-'} "
                     f"{'moved' if moved else 'stranded'}\n")


def _read_rows(path, row_type, **parsers) -> list:
    """The row_type rows of a CSV, each cell parsed by parsers or _PARSERS, empty as None.

    A wrong header, cell count or cell, or a file without the final line end that
    _write_csv writes (a write cut short), is a ConfigError naming its line.
    """
    parsers = {**_PARSERS, **parsers}
    columns = row_type._fields
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    if tuple(next(reader, ())) != columns:
        raise ConfigError(f"{path}:1: header is not {','.join(columns)}")
    rows = []
    for cells in reader:
        where = f"{path}:{reader.line_num}"
        if len(cells) != len(columns):
            raise ConfigError(f"{where}: {len(cells)} cells, expected {len(columns)}")
        values = []
        for column, cell in zip(columns, cells):
            try:
                values.append(parsers.get(column, float)(cell) if cell else None)
            except ValueError:
                raise ConfigError(f"{where}: bad {column} cell {cell!r}") from None
        rows.append(row_type(*values))
    if not lines[-1].endswith("\n"):
        raise ConfigError(f"{path}:{reader.line_num}: no line end after the last row; "
                          "the file was cut short")
    return rows


def summarize_runs_csv(out_dir) -> str:
    """Write summary.csv, its one writer, by summarize over runs.csv read by _read_rows.

    A run cut at a row boundary has other milestones than its point's first run,
    or, alone at its point, does not end at milestone 1, so summarize rejects it.
    A run missing altogether is not detected here; resuming a sweep from its
    runs.csv would have to check for it.
    """
    source = os.path.join(out_dir, "runs.csv")
    rows = _read_rows(source, RunRow)
    try:
        summary = summarize(rows)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, SUMMARY_COLUMNS, summary)
    return path


# --- sweep spec files --------------------------------------------------------

# Sweep file key -> its parser; each key sets the SweepSpec field it names without "sweep_".
SWEEP_KEYS = {**{f"sweep_{axis}": list_of(CONFIG_PARSERS[axis]) for axis in AXES},
              "replicates": int, "seed_base": int}
# Config key that every sweep run takes from its grid point -> the sweep key to set instead.
GRID_KEYS = {**{axis: f"sweep_{axis}" for axis in AXES}, "seed": "seed_base"}


def _set_instead(sweep_key: str, text: str):
    raise ValueError(f"a sweep never reads it; set {sweep_key} instead")


def read_sweep_file(path) -> SweepSpec:
    """A sweep file is a flat config file, without GRID_KEYS, plus sweep_* axis keys."""
    parsers = {**CONFIG_PARSERS, **{k: partial(_set_instead, to) for k, to in GRID_KEYS.items()},
               **SWEEP_KEYS}
    values = read_config_file(path, parsers)
    sweep = {k.removeprefix("sweep_"): v for k, v in values.items() if k in SWEEP_KEYS}
    base = {k: v for k, v in values.items() if k not in SWEEP_KEYS}
    # The base takes the first grid point's axis values, so it is valid where the grid is.
    base.update({axis: sweep.get(axis, getattr(SweepSpec, axis))[0] for axis in AXES})
    return SweepSpec(base=SimConfig(**base), **sweep)


# --- figure data -------------------------------------------------------------

_SELF_REPELLING = {"walk_strategy": "self_repelling"}
_SELF_REPELLING_FULL = {"walk_strategy": "self_repelling", "milestone": 1.0}

# Figure id -> (source CSV, cells a row must hold, key columns). A summary layout
# prints its key columns per row; a histogram layout averages node_count and
# node_fraction per key, whose last column is visits.
FIGURE_LAYOUTS = {
    "fig1": ("histograms.csv", _SELF_REPELLING, ("milestone", "n_nodes", "visits")),
    "fig2a": ("summary.csv", _SELF_REPELLING,
              ("n_nodes", "milestone", "mean_overhead", "std_overhead")),
    "fig2b": ("summary.csv", _SELF_REPELLING_FULL, ("n_nodes", "mean_overhead", "std_overhead")),
    "fig3a": ("summary.csv", _SELF_REPELLING_FULL,
              ("mobility_model", "n_nodes", "speed_avg", "mean_overhead")),
    "fig3b": ("summary.csv", _SELF_REPELLING_FULL,
              ("speed_avg", "n_nodes", "mobility_model", "mean_overhead")),
    "fig4": ("histograms.csv", {"milestone": 1.0}, ("walk_strategy", "n_nodes", "visits")),
    "fig5": ("summary.csv", {}, ("walk_strategy", "n_nodes", "milestone", "mean_overhead")),
}
FIGURES = tuple(FIGURE_LAYOUTS)


def figdata(fig_id: str, out_dir) -> str:
    """Extract gnuplot-ready plot columns for one named figure layout."""
    if fig_id not in FIGURE_LAYOUTS:
        raise ConfigError(f"unknown figure id {fig_id!r}, expected one of {FIGURES}")
    source, cells, keys = FIGURE_LAYOUTS[fig_id]
    path, dest = os.path.join(out_dir, source), os.path.join(out_dir, f"{fig_id}.dat")
    histograms = source == "histograms.csv"
    # A row with an empty cell has nothing to plot, as at a point with no completed run.
    rows = [r for r in (_read_rows(path, HistRow) if histograms
                        else _read_rows(path, SummaryRow, timed_out=int))
            if None not in r and all(getattr(r, c) == v for c, v in cells.items())]
    if histograms:
        # A bin's mean is over every run of its group (its key but visits), that is every
        # run that reached the milestone, so a run without the bin counts 0.
        runs: Dict[Tuple, set] = {}
        bins: Dict[Tuple, List[Tuple]] = {}
        for r in rows:
            key = tuple(getattr(r, c) for c in keys)
            runs.setdefault(key[:-1], set()).add(r[:len(POINT_COLUMNS) + 2])
            if r.visits != 0:  # the zero bin is a plot-layer exclusion
                bins.setdefault(key, []).append((r.node_count, r.node_fraction))
        header = keys + ("mean_node_count", "mean_node_fraction")
        out_rows = [key + tuple(sum(v) / len(runs[key[:-1]]) for v in zip(*bin_rows))
                    for key, bin_rows in bins.items()]
    else:
        header, out_rows = keys, [tuple(getattr(r, c) for c in keys) for r in rows]
    with _writing(dest) as fh:
        fh.write(f"# {' '.join(header)}\n")
        for row in sorted(out_rows):
            fh.write(" ".join(map(fmt, row)) + "\n")
    return dest
