import math
import os
from dataclasses import replace

import numpy as np
import pytest

from manetwalk import harness
from manetwalk.core import ConfigError, SimConfig, rng_stream, validate_config
from manetwalk.graphs import CompleteGraph
from manetwalk.harness import (HIST_COLUMNS, RUNS_COLUMNS, SUMMARY_COLUMNS,
                               SweepSpec, derive_seed, emit_csv, emit_trace,
                               figdata, parse_trace, read_sweep_file, run_single,
                               run_sweep, summarize, summarize_runs_csv,
                               sweep_points, validate_spec)
from manetwalk.metrics import MilestoneSnapshot, RunRecord
from manetwalk.walk import VisitTable, World, choose_next_self_repelling, run_walk

FAST_BASE = SimConfig(n_nodes=40, milestones=(0.5, 1.0))


def _spec(**kw):
    defaults = dict(base=FAST_BASE, n_nodes=(30, 40), speeds=(7.0,),
                    models=("random_direction",), strategies=("self_repelling",),
                    replicates=2, seed_base=5)
    defaults.update(kw)
    return SweepSpec(**defaults)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_seed_derivation_stable_and_injective():
    spec = validate_spec(_spec(replicates=4))
    points = sweep_points(spec)
    seeds = [derive_seed(spec.seed_base, p, r) for p in points for r in range(4)]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [derive_seed(spec.seed_base, p, r)
                     for p in points for r in range(4)]


def test_validate_spec_rejects_bad_axes(monkeypatch):
    with pytest.raises(ConfigError):
        validate_spec(_spec(replicates=0))
    with pytest.raises(ConfigError):
        validate_spec(_spec(models=()))
    with pytest.raises(ConfigError):
        validate_spec(_spec(strategies=("hamiltonian",)))
    with pytest.raises(ConfigError):  # 1 m/s minus the 2 m/s half-width
        validate_spec(_spec(speeds=(7.0, 1.0)))
    with pytest.raises(ConfigError):  # ln(1) = 0 derives no comm_range
        validate_spec(_spec(n_nodes=(1, 40)))
    monkeypatch.setattr(harness, "derive_seed", lambda seed_base, point, replicate: 7)
    with pytest.raises(ConfigError, match="seed derivation collided"):
        validate_spec(_spec())


def test_sweep_single_point():
    records = run_sweep(_spec(n_nodes=(40,), replicates=1))
    assert len(records) == 1
    assert records[0].config.n_nodes == 40


def test_sweep_counts_and_canonical_order():
    spec = _spec(n_nodes=(30, 40), strategies=("self_repelling", "pure_random"),
                 replicates=5)
    records = run_sweep(spec)
    assert len(records) == 2 * 2 * 5
    coords = [(r.config.n_nodes, r.config.walk_strategy, r.replicate) for r in records]
    expected = [(n, s, rep) for n in (30, 40)
                for s in ("self_repelling", "pure_random") for rep in range(5)]
    assert coords == expected


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
def test_failed_run_summary_uses_normalized_milestones(monkeypatch, failing):
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
    rows = summarize(records)
    assert [r.milestone for r in rows] == [0.5, 1.0]
    assert all((r.runs, r.completed, r.failed) == (2, 1, 1) for r in rows)


def _fake_record(overheads_by_target, timed_out=False, n=40, seed=1, replicate=0):
    cfg = validate_config(replace(FAST_BASE, n_nodes=n, seed=seed))
    snaps = [MilestoneSnapshot(t, t, 1.0, int(t * n), int(t * n), ov, {1: n}, 0.1)
             for t, ov in overheads_by_target.items()]
    return RunRecord(config=cfg, milestones=snaps, timed_out=timed_out,
                     churn_rate=2.0, replicate=replicate)


def test_summarize_single_record_zero_stddev():
    rows = summarize([_fake_record({0.5: 1.0, 1.0: 1.4})])
    row = [r for r in rows if r.milestone == 1.0][0]
    assert row.mean_overhead == 1.4
    assert row.std_overhead == 0.0
    assert row.completed == 1


def test_summarize_mean_of_two():
    records = [_fake_record({0.5: 1.0, 1.0: 1.0}, seed=1, replicate=0),
               _fake_record({0.5: 1.0, 1.0: 2.0}, seed=2, replicate=1)]
    rows = summarize(records)
    row = [r for r in rows if r.milestone == 1.0][0]
    assert row.mean_overhead == 1.5
    assert row.runs == 2


def test_summarize_excludes_timed_out():
    records = [_fake_record({0.5: 1.0, 1.0: 1.2}, seed=1),
               _fake_record({0.5: 3.0}, timed_out=True, seed=2, replicate=1)]
    rows = summarize(records)
    half = [r for r in rows if r.milestone == 0.5][0]
    assert half.mean_overhead == 1.0  # the timed-out run's 3.0 is not aggregated
    assert half.timed_out == 1
    assert half.completed == 1


def test_summarize_all_timed_out_point():
    records = [_fake_record({0.5: 3.0}, timed_out=True)]
    rows = summarize(records)
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
    assert len(lines) - 1 == sum(len(r.milestones) for r in records)


def test_summarize_runs_csv_round_trip(tmp_path):
    # The second grid times out its pure-random runs before full coverage, so
    # some milestones are reached by no run, and it includes static runs.
    short = replace(FAST_BASE, max_sim_time=8.0)
    specs = (_spec(), _spec(base=short, models=("random_direction", "static"),
                            strategies=("self_repelling", "pure_random")))
    for name, spec in zip("ab", specs):
        records = run_sweep(spec)
        paths = emit_csv(records, tmp_path / name)
        original = _read(paths["summary"])
        os.remove(paths["summary"])
        summarize_runs_csv(tmp_path / name)
        rebuilt = _read(paths["summary"])
        run_rows = [r.split(",") for r in _read(paths["runs"]).decode().splitlines()[1:]]
        reached = {tuple(r[:5]) + (r[10],) for r in run_rows}
        orig_rows = original.decode().splitlines()
        new_rows = rebuilt.decode().splitlines()
        assert new_rows[0] == orig_rows[0]
        # milestones no run reached leave no row in runs.csv, so none in the rebuild
        kept = [r for r in orig_rows[1:] if tuple(r.split(",")[:6]) in reached]
        assert len(new_rows) - 1 == len(kept)
        if name == "a":
            # every milestone is reached, so no row may be dropped
            assert kept == orig_rows[1:]
        if name == "b":
            assert len(kept) < len(orig_rows) - 1
            assert any(r.timed_out for r in records)
            assert any(r.config.mobility_model == "static" for r in records)
        # numeric content agrees; failed counts (index 9) are unknowable from the file
        for a, b in zip(kept, new_rows[1:]):
            assert a.split(",")[:9] == b.split(",")[:9]
            for x, y in zip(a.split(",")[10:], b.split(",")[10:]):
                assert x == y or math.isclose(float(x), float(y), rel_tol=1e-7)


def test_trace_round_trip_and_replay(tmp_path):
    cfg = validate_config(SimConfig(n_nodes=30, seed=6))
    trace = []
    record = run_single(cfg, trace=trace)
    assert not record.timed_out
    path = tmp_path / "trace.txt"
    start = int(rng_stream(6, "walk").integers(30))
    emit_trace(trace, path, 30, 6, start)
    meta, entries = parse_trace(path)
    assert meta == {"n_nodes": 30, "seed": 6, "start": start}
    assert entries == trace

    rng = rng_stream(6, "walk")
    assert int(rng.integers(30)) == start
    for entry in entries:
        if not entry.moved:
            continue
        got = choose_next_self_repelling(np.array(entry.neighbor_ids),
                                         np.array(entry.visit_counts), rng)
        assert got == entry.decision


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
    assert spec.speeds == (3.0, 7.0)
    assert spec.strategies == ("self_repelling", "pure_random")
    assert spec.replicates == 3
    assert spec.seed_base == 12
    assert len(sweep_points(spec)) == 8


def test_figdata_outputs(tmp_path):
    spec = _spec(strategies=("self_repelling", "pure_random"))
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
