import csv
import hashlib
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from manetwalk import harness
from manetwalk.core import ConfigError, SimConfig, rng_stream, validate_config
from manetwalk.graphs import CompleteGraph
from manetwalk.harness import (HIST_COLUMNS, POINT_COLUMNS, RUNS_COLUMNS,
                               SUMMARY_COLUMNS, SweepSpec, derive_seed, emit_csv, emit_trace,
                               figdata, read_sweep_file, run_rows, run_single,
                               run_sweep, summarize, summarize_runs_csv,
                               sweep_points, validate_spec)
from manetwalk.metrics import MilestoneSnapshot, RunRecord
from manetwalk.walk import VisitTable, World, run_walk

FAST_BASE = SimConfig(n_nodes=40, milestones=(0.5, 1.0))


def _spec(**kw):
    defaults = dict(base=FAST_BASE, n_nodes=(30, 40), speed_avg=(7.0,),
                    mobility_model=("random_direction",), walk_strategy=("self_repelling",),
                    replicates=2, seed_base=5)
    defaults.update(kw)
    return SweepSpec(**defaults)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_seed_derivation_stable_and_injective():
    spec = validate_spec(_spec(replicates=4))
    points = sweep_points(spec)
    seeds = [derive_seed(spec.seed_base, p, r) for p in points for r in range(4)]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [derive_seed(spec.seed_base, p, r)
                     for p in points for r in range(4)]


# The default grid's points and seeds as first derived; a change here re-seeds every sweep.
DEFAULT_GRID_SHA256 = "6e19cbb7d4c139ec399f63ffdd95426e1d6936bbb7ca0479524839d61db5c265"


def test_default_grid_seeds_pinned():
    spec = validate_spec(SweepSpec(base=SimConfig()))
    points = sweep_points(spec)
    seeds = [derive_seed(spec.seed_base, p, r) for p in points for r in range(spec.replicates)]
    assert (len(points), len(seeds)) == (64, 640)
    assert points[0] == (100, 3.0, "random_direction", "self_repelling")
    assert seeds[:2] == [17488749180957817603, 2171181579207911508]
    assert hashlib.sha256(repr((points, seeds)).encode()).hexdigest() == DEFAULT_GRID_SHA256


def test_validate_spec_rejects_bad_axes():
    with pytest.raises(ConfigError):
        validate_spec(_spec(replicates=0))
    with pytest.raises(ConfigError, match="^sweep_mobility_model needs at least one value$"):
        validate_spec(_spec(mobility_model=()))
    with pytest.raises(ConfigError):
        validate_spec(_spec(walk_strategy=("hamiltonian",)))
    with pytest.raises(ConfigError):  # 1 m/s minus the 2 m/s half-width
        validate_spec(_spec(speed_avg=(7.0, 1.0)))
    with pytest.raises(ConfigError):  # ln(1) = 0 derives no comm_range
        validate_spec(_spec(n_nodes=(1, 40)))
    # A repeated value is a repeated grid point: its runs would share seeds.
    with pytest.raises(ConfigError, match="^sweep_n_nodes repeats 30$"):
        validate_spec(_spec(n_nodes=(30, 40, 30)))
    with pytest.raises(ConfigError, match=r"^sweep_speed_avg repeats 7\.0$"):
        validate_spec(_spec(speed_avg=(7, 7.0)))
    with pytest.raises(ConfigError, match="^sweep_mobility_model repeats static$"):
        validate_spec(_spec(mobility_model=("static", "random_direction", "static")))


def test_sweep_single_point():
    records = run_sweep(_spec(n_nodes=(40,), replicates=1))
    assert len(records) == 1
    assert records[0].config.n_nodes == 40


def test_sweep_counts_and_canonical_order():
    spec = _spec(n_nodes=(30, 40), walk_strategy=("self_repelling", "pure_random"),
                 replicates=5)
    records = run_sweep(spec)
    assert len(records) == 2 * 2 * 5
    coords = [(r.config.n_nodes, r.config.walk_strategy, r.replicate) for r in records]
    expected = [(n, s, rep) for n in (30, 40)
                for s in ("self_repelling", "pure_random") for rep in range(5)]
    assert coords == expected


@pytest.mark.parametrize("n_nodes, replicates, workers, pool_sizes", [
    ((30, 40), 2, 8, [4]), ((30, 40), 2, 3, [3]), ((40,), 1, 8, [])])
def test_sweep_pool_has_no_more_workers_than_runs(monkeypatch, n_nodes, replicates, workers,
                                                  pool_sizes):
    # Under fork the pool starts all max_workers processes at its first task.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    records = run_sweep(_spec(n_nodes=n_nodes, replicates=replicates), workers=workers)
    assert len(records) == len(n_nodes) * replicates
    assert sizes == pool_sizes


def test_sweep_deterministic_across_workers(tmp_path):
    spec = _spec()
    dirs = []
    for name, workers in (("a", 1), ("b", 2), ("c", 1)):
        d = tmp_path / name
        emit_csv(run_sweep(spec, workers=workers), d)
        dirs.append(d)
    for fname in ("runs.csv", "summary.csv", "histograms.csv"):
        blobs = {_read(d / fname) for d in dirs}
        assert len(blobs) == 1


def test_sweep_records_failures_without_aborting(monkeypatch):
    # The N=30 point fails at deployment while the N=40 point runs.
    deploy = harness.init_deployment

    def failing_deploy(config, *args, **kwargs):
        if config.n_nodes == 30:
            raise RuntimeError("planted deployment failure")
        return deploy(config, *args, **kwargs)

    monkeypatch.setattr(harness, "init_deployment", failing_deploy)
    spec = _spec(n_nodes=(30, 40), replicates=1)
    records = run_sweep(spec)
    assert len(records) == 2
    failed = [r for r in records if r.error is not None]
    assert len(failed) == 1
    assert failed[0].config.n_nodes == 30
    assert failed[0].error == "planted deployment failure"
    assert not records[1].timed_out


@pytest.mark.parametrize("failing", [0, 1])
def test_failed_run_summary_uses_normalized_milestones(monkeypatch, tmp_path, failing):
    # Raw milestones (1.0, 0.5, 0.5) validate to (0.5, 1.0), whichever replicate fails.
    deploy = harness.init_deployment
    spec = _spec(base=replace(FAST_BASE, milestones=(1.0, 0.5, 0.5)), n_nodes=(40,))
    failing_seed = derive_seed(spec.seed_base, sweep_points(spec)[0], failing)

    def failing_deploy(config, *args, **kwargs):
        if config.seed == failing_seed:
            raise RuntimeError("planted deployment failure")
        return deploy(config, *args, **kwargs)

    monkeypatch.setattr(harness, "init_deployment", failing_deploy)
    records = run_sweep(spec)
    assert [r.error is not None for r in records] == [failing == 0, failing == 1]
    assert all(r.config.milestones == (0.5, 1.0) for r in records)
    rows = summarize(run_rows(records))
    assert [r.milestone for r in rows] == [0.5, 1.0]
    assert all((r.runs, r.completed, r.failed) == (2, 1, 1) for r in rows)
    # The failed run writes a row per milestone, its measured cells empty, so the
    # summary rebuilt from runs.csv counts it too.
    paths = emit_csv(records, tmp_path)
    failed = [r for r in _read_csv(paths["runs"]) if r["seed"] == str(failing_seed)]
    assert [r["milestone"] for r in failed] == ["0.5", "1"]
    measured = set(RUNS_COLUMNS[7:]) - {"milestone"}
    assert all(r[c] == "" for r in failed for c in measured)
    summary = _read(paths["summary"])
    summarize_runs_csv(tmp_path)
    assert _read(paths["summary"]) == summary
    assert [r["failed"] for r in _read_csv(paths["summary"])] == ["1", "1"]


def _fake_record(overheads_by_target, timed_out=False, n=40, seed=1, replicate=0):
    # summarize recomputes overhead, so each snapshot takes the hops that give it.
    cfg = validate_config(replace(FAST_BASE, n_nodes=n, seed=seed))
    snaps = [MilestoneSnapshot(t, t, 1.0, round(ov * t * n) - 1, int(t * n), ov, {1: n}, 0.1)
             for t, ov in overheads_by_target.items()]
    return RunRecord(config=cfg, milestones=snaps, timed_out=timed_out,
                     churn_rate=2.0, replicate=replicate)


def test_summarize_single_record_zero_stddev():
    rows = summarize(run_rows([_fake_record({0.5: 1.0, 1.0: 1.4})]))
    row = [r for r in rows if r.milestone == 1.0][0]
    assert row.mean_overhead == 1.4
    assert row.std_overhead == 0.0
    assert row.completed == 1


def test_summarize_mean_of_two():
    records = [_fake_record({0.5: 1.0, 1.0: 1.0}, seed=1, replicate=0),
               _fake_record({0.5: 1.0, 1.0: 2.0}, seed=2, replicate=1)]
    rows = summarize(run_rows(records))
    row = [r for r in rows if r.milestone == 1.0][0]
    assert row.mean_overhead == 1.5
    assert row.runs == 2


def test_summarize_excludes_timed_out():
    records = [_fake_record({0.5: 1.0, 1.0: 1.2}, seed=1),
               _fake_record({0.5: 3.0}, timed_out=True, seed=2, replicate=1)]
    rows = summarize(run_rows(records))
    half = [r for r in rows if r.milestone == 0.5][0]
    assert half.mean_overhead == 1.0  # the timed-out run's 3.0 is not aggregated
    assert half.timed_out == 1
    assert half.completed == 1


def test_summarize_all_timed_out_point():
    records = [_fake_record({0.5: 3.0}, timed_out=True)]
    rows = summarize(run_rows(records))
    assert len(rows) == 2  # one per configured milestone, even unreached 1.0
    for row in rows:
        assert row.mean_overhead is None
        assert row.timed_out == 1


def test_emit_csv_header_only_when_empty(tmp_path):
    paths = emit_csv([], tmp_path)
    assert _read(paths["runs"]).decode().strip() == ",".join(RUNS_COLUMNS)
    assert _read(paths["summary"]).decode().strip() == ",".join(SUMMARY_COLUMNS)
    assert _read(paths["histograms"]).decode().splitlines()[0] == ",".join(HIST_COLUMNS)


def test_emit_csv_one_row_per_milestone(tmp_path):
    record = run_single(replace(FAST_BASE, milestones=(0.25, 0.5, 0.75, 1.0), seed=4))
    paths = emit_csv([record], tmp_path)
    lines = _read(paths["runs"]).decode().splitlines()
    assert len(lines) == 1 + 4


def test_emit_csv_reemission_identical(tmp_path):
    records = run_sweep(_spec(replicates=1))
    emit_csv(records, tmp_path / "x")
    emit_csv(records, tmp_path / "y")
    for fname in ("runs.csv", "summary.csv", "histograms.csv"):
        assert _read(tmp_path / "x" / fname) == _read(tmp_path / "y" / fname)


def test_runs_csv_row_count_matches_milestones(tmp_path):
    records = run_sweep(_spec())
    paths = emit_csv(records, tmp_path)
    lines = _read(paths["runs"]).decode().splitlines()
    assert len(lines) - 1 == sum(len(r.config.milestones) for r in records)


def test_summarize_runs_csv_round_trip(tmp_path):
    # The second grid times out its pure-random runs before full coverage, so
    # some milestones are reached by no run, and it includes static runs.
    short = replace(FAST_BASE, max_sim_time=8.0)
    specs = (_spec(), _spec(base=short, mobility_model=("random_direction", "static"),
                            walk_strategy=("self_repelling", "pure_random")))
    for name, spec in zip("ab", specs):
        records = run_sweep(spec)
        paths = emit_csv(records, tmp_path / name)
        original = _read(paths["summary"])
        os.remove(paths["summary"])
        summarize_runs_csv(tmp_path / name)
        assert _read(paths["summary"]) == original
        orig_rows = [r.split(",") for r in original.decode().splitlines()]
        if name == "b":
            assert any(r.timed_out for r in records)
            assert any(r.config.mobility_model == "static" for r in records)
            assert any(r[SUMMARY_COLUMNS.index("mean_overhead")] == "" for r in orig_rows)


SCHEMA_DOC = Path(__file__).resolve().parent.parent / "docs" / "output-schema.md"


def _documented_columns(section):
    """The columns a table of docs/output-schema.md names, with "point columns" expanded."""
    text = SCHEMA_DOC.read_text(encoding="utf-8")
    lines = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0].splitlines()
    columns = ()
    for line in [line for line in lines if line.startswith("|")][2:]:  # past the header
        cell = line.split("|")[1]
        if cell.strip().startswith("point columns"):
            columns += POINT_COLUMNS
        columns += tuple(re.findall(r"`(\w+)`", cell))
    return columns


def test_output_schema_doc_names_every_column():
    assert _documented_columns("runs.csv") == RUNS_COLUMNS
    assert _documented_columns("summary.csv") == SUMMARY_COLUMNS
    assert _documented_columns("histograms.csv") == HIST_COLUMNS


def _schema_line(entry):
    # docs/output-schema.md: <tick> <node> <id:visits,...|-> <decision|-> <moved|stranded>
    pairs = ",".join(f"{i}:{c}" for i, c in zip(entry.neighbor_ids, entry.visit_counts))
    if entry.decision == -1:
        return f"{entry.tick_index} {entry.node} {pairs or '-'} - stranded"
    return f"{entry.tick_index} {entry.node} {pairs} {entry.decision} moved"


def test_trace_lines_follow_the_schema(tmp_path):
    # A comm_range below the derived 13 m strands the token on some attempts.
    cfg = validate_config(SimConfig(n_nodes=30, seed=1, comm_range=9.0))
    trace = []
    record = run_single(cfg, trace=trace)
    assert not record.timed_out
    assert any(e.decision == -1 for e in trace) and any(e.decision != -1 for e in trace)
    assert all((e.decision == -1) == (e.neighbor_ids == ()) for e in trace)
    path = tmp_path / "trace.txt"
    start = int(rng_stream(1, "walk").integers(30))
    emit_trace(trace, path, 30, 1, start)
    assert path.read_text().splitlines() == [
        f"# n_nodes=30 seed=1 start={start}",
        "# tick node neighbors(id:visits,...) decision outcome",
    ] + [_schema_line(e) for e in trace]


def test_trace_complete3_has_two_hop_lines(tmp_path):
    cfg = validate_config(SimConfig(n_nodes=3, comm_range=1.0, seed=1))
    provider = CompleteGraph(3)
    world = World(visits=VisitTable(3))
    trace = []
    run_walk(cfg, provider, world, rng_stream(1, "walk"), trace=trace)
    assert len(trace) == 2
    path = tmp_path / "t.txt"
    emit_trace(trace, path, 3, 1, trace[0].node)
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 2


def test_empty_trace_file(tmp_path):
    path = tmp_path / "t.txt"
    emit_trace([], path, 1, 0, 0)
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert body == []


def test_read_sweep_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "density = 0.05\n"
        "milestones = 0.5, 1.0\n"
        "sweep_n_nodes = 30, 40\n"
        "sweep_speed_avg = 3, 7\n"
        "sweep_mobility_model = random_direction\n"
        "sweep_walk_strategy = self_repelling pure_random\n"
        "replicates = 3\n"
        "seed_base = 12\n")
    spec = read_sweep_file(path)
    assert spec.base.density == 0.05
    assert spec.n_nodes == (30, 40)
    assert spec.speed_avg == (3.0, 7.0)
    assert spec.mobility_model == ("random_direction",)
    assert spec.walk_strategy == ("self_repelling", "pure_random")
    assert spec.replicates == 3
    assert spec.seed_base == 12
    assert len(sweep_points(spec)) == 8


def test_figdata_outputs(tmp_path):
    spec = _spec(walk_strategy=("self_repelling", "pure_random"))
    emit_csv(run_sweep(spec), tmp_path)
    for fig in ("fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5"):
        path = figdata(fig, tmp_path)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("# ")
        assert len(lines) > 1
    width = len(open(os.path.join(tmp_path, "fig2b.dat")).read().splitlines()[1].split())
    assert width == 3  # n_nodes mean_overhead std_overhead


PINNED_SUMMARY = """\
n_nodes,density,mobility_model,speed_avg,walk_strategy,milestone,runs,completed,timed_out,failed,mean_overhead,std_overhead,mean_hops,mean_sim_time,mean_churn_rate
40,0.02,random_direction,7,self_repelling,0.5,2,2,0,0,1.1,0.1,21,2.1,0.5
40,0.02,random_direction,7,self_repelling,1,2,2,0,0,1.5,0.2,59,5.9,0.5
100,0.02,random_waypoint,3,self_repelling,1,1,1,0,0,1.25,0,124,12.4,0.25
40,0.02,random_direction,7,pure_random,0.5,2,2,0,0,1.3,0.05,25,2.5,0.4
40,0.02,random_direction,7,pure_random,1,2,0,2,0,,,,,
"""

PINNED_HISTOGRAMS = """\
n_nodes,density,mobility_model,speed_avg,walk_strategy,replicate,seed,milestone,visits,node_count,node_fraction
40,0.02,random_direction,7,self_repelling,0,11,0.5,0,20,0.5
40,0.02,random_direction,7,self_repelling,0,11,0.5,1,20,0.5
40,0.02,random_direction,7,self_repelling,1,12,0.5,0,18,0.45
40,0.02,random_direction,7,self_repelling,1,12,0.5,1,21,0.525
40,0.02,random_direction,7,self_repelling,1,12,0.5,2,1,0.025
40,0.02,random_direction,7,self_repelling,0,11,1,1,38,0.95
40,0.02,random_direction,7,self_repelling,0,11,1,2,2,0.05
100,0.02,random_waypoint,3,self_repelling,0,13,1,1,100,1
40,0.02,random_direction,7,pure_random,0,14,0.5,0,20,0.5
40,0.02,random_direction,7,pure_random,0,14,0.5,2,10,0.25
40,0.02,random_direction,7,pure_random,0,14,1,2,30,0.75
40,0.02,random_direction,7,pure_random,0,14,1,10,10,0.25
"""

# Zero bins and the empty-mean pure_random row never reach a .dat file; keys
# sort numerically (40 before 100, 2 before 10); histogram cells average over
# the replicates that have the bin.
PINNED_FIGURES = {
    "fig1": """\
# milestone n_nodes visits mean_node_count mean_node_fraction
0.5 40 1 20.5 0.5125
0.5 40 2 1 0.025
1 40 1 38 0.95
1 40 2 2 0.05
1 100 1 100 1
""",
    "fig2a": """\
# n_nodes milestone mean_overhead std_overhead
40 0.5 1.1 0.1
40 1 1.5 0.2
100 1 1.25 0
""",
    "fig2b": """\
# n_nodes mean_overhead std_overhead
40 1.5 0.2
100 1.25 0
""",
    "fig3a": """\
# mobility_model n_nodes speed_avg mean_overhead
random_direction 40 7 1.5
random_waypoint 100 3 1.25
""",
    "fig3b": """\
# speed_avg n_nodes mobility_model mean_overhead
3 100 random_waypoint 1.25
7 40 random_direction 1.5
""",
    "fig4": """\
# walk_strategy n_nodes visits mean_node_count mean_node_fraction
pure_random 40 2 30 0.75
pure_random 40 10 10 0.25
self_repelling 40 1 38 0.95
self_repelling 40 2 2 0.05
self_repelling 100 1 100 1
""",
    "fig5": """\
# walk_strategy n_nodes milestone mean_overhead
pure_random 40 0.5 1.3
self_repelling 40 0.5 1.1
self_repelling 40 1 1.5
self_repelling 100 1 1.25
""",
}


def test_figdata_layouts_pinned(tmp_path):
    (tmp_path / "summary.csv").write_text(PINNED_SUMMARY)
    (tmp_path / "histograms.csv").write_text(PINNED_HISTOGRAMS)
    assert set(PINNED_FIGURES) == set(harness.FIGURES)
    for fig, expected in PINNED_FIGURES.items():
        with open(figdata(fig, tmp_path), encoding="utf-8") as fh:
            assert fh.read() == expected, fig


def test_figdata_unknown_id(tmp_path):
    with pytest.raises(ConfigError):
        figdata("fig9", tmp_path)
