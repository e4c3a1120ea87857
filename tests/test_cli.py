import argparse
import csv
from dataclasses import fields

import pytest

from manetwalk import harness
from manetwalk.cli import build_parser, main
from manetwalk.core import CONFIG_PARSERS, SimConfig, rng_stream
from manetwalk.harness import FIGURES, RUNS_COLUMNS, SUMMARY_COLUMNS, derive_seed, fmt


def test_run_with_flags(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--n_nodes", "30", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "runs.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "histograms.csv").exists()
    assert "run completed" in capsys.readouterr().out


def test_run_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_nodes = 30\nseed = 1\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--seed", "2", "--out", str(out)])
    assert rc == 0
    rows = (out / "runs.csv").read_text().splitlines()
    seed_col = rows[0].split(",").index("seed")
    assert rows[1].split(",")[seed_col] == str(2)

    # `--comm_range none` overrides the file's range with the derived one.
    cfg.write_text("n_nodes = 30\ncomm_range = 0.001\nmax_sim_time = 60\nseed = 3\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "run timed out: no milestone reached" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--comm_range", "none", "--out", str(out)]) == 0
    assert "run completed" in capsys.readouterr().out


def test_run_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("warp_factor = 9\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_run_invalid_value_exits_1(tmp_path, capsys):
    rc = main(["run", "--hop_interval", "0.15", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "hop_interval" in capsys.readouterr().err


def test_run_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["run", "--n_nodes", "30", "--out", str(blocker / "sub")])
    assert rc == 2
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("blocked, argv", [
    ("runs.csv", ["run", "--n_nodes", "30"]),
    ("trace.txt", ["run", "--n_nodes", "30", "--trace"]),
    ("fig2a.dat", ["figdata", "fig2a"]),
])
def test_write_failure_names_the_path_and_exits_2(tmp_path, capsys, blocked, argv):
    # The output directory exists; a directory in place of the one file fails its write.
    (tmp_path / "summary.csv").write_text(",".join(SUMMARY_COLUMNS) + "\n")
    (tmp_path / blocked).mkdir()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"I/O error: cannot write {tmp_path / blocked}: " in capsys.readouterr().err


def test_run_trace_written(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--n_nodes", "30", "--seed", "3", "--trace", "--out", str(out)])
    assert rc == 0
    lines = (out / "trace.txt").read_text().splitlines()
    assert lines[0].startswith("# n_nodes=30 seed=3 start=")
    assert any(l.endswith("moved") for l in lines)


@pytest.mark.parametrize("max_sim_time, attempted", [("0.05", False), ("86400", True)])
def test_run_trace_start_is_the_placement(tmp_path, max_sim_time, attempted):
    # 0.05 s is less than one tick, so the token is placed but never tries to hop.
    out = tmp_path / "out"
    rc = main(["run", "--n_nodes", "30", "--seed", "3", "--trace",
               "--max_sim_time", max_sim_time, "--out", str(out)])
    assert rc == 0
    lines = (out / "trace.txt").read_text().splitlines()
    start = int(rng_stream(3, "walk").integers(30))  # the placement draw
    assert lines[0] == f"# n_nodes=30 seed=3 start={start}"
    body = [l for l in lines if not l.startswith("#")]
    assert bool(body) == attempted
    if attempted:
        assert body[0].split()[1] == str(start)


def test_every_config_key_has_a_flag_with_help():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run = sub.choices["run"]
    group = next(g for g in run._action_groups if g.title.startswith("config keys"))
    names = [f.name for f in fields(SimConfig)]
    assert [a.option_strings for a in group._group_actions] == [[f"--{n}"] for n in names]
    assert list(CONFIG_PARSERS) == names
    for action in group._group_actions:
        assert action.help and action.help.strip(), action.dest
        assert action.type is CONFIG_PARSERS[action.dest]
        assert action.default is argparse.SUPPRESS  # only flags on the command line are set


def test_bad_flag_exits_1(capsys):
    assert main(["run", "--warp", "9"]) == 1
    assert main(["frobnicate"]) == 1


def test_sweep_summarize_figdata_pipeline(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(
        "milestones = 0.5, 0.85, 1.0\n"
        "sweep_n_nodes = 30, 40\n"
        "sweep_speed_avg = 3, 7\n"
        "sweep_mobility_model = random_direction, random_waypoint\n"
        "sweep_walk_strategy = self_repelling, pure_random\n"
        "replicates = 3\n"
        "seed_base = 3\n")
    out = tmp_path / "out"
    rc = main(["sweep", "--spec", str(spec), "--workers", "2", "--out", str(out)])
    assert rc == 0
    assert "sweep finished: 48/48 runs completed" in capsys.readouterr().out

    def figures():
        for fig in FIGURES:
            assert main(["figdata", fig, "--out", str(out)]) == 0
        return {fig: (out / f"{fig}.dat").read_bytes() for fig in FIGURES}

    # summarize rebuilds the sweep's summary.csv from runs.csv, so every figure reads the same.
    before = figures()
    assert main(["summarize", "--out", str(out)]) == 0
    assert figures() == before


def test_sweep_writes_exactly_the_spec_grid(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(
        "milestones = 1.0\n"
        "max_sim_time = 60\n"
        "sweep_n_nodes = 30\n"
        "sweep_speed_avg = 3, 7\n"
        "sweep_mobility_model = static\n"
        "sweep_walk_strategy = self_repelling, pure_random\n"
        "replicates = 1\n"
        "seed_base = 4\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert "/4 runs completed" in capsys.readouterr().out
    grid = [(v, s) for v in (3.0, 7.0) for s in ("self_repelling", "pure_random")]
    with open(out / "summary.csv") as fh:
        summary = [(r["n_nodes"], r["mobility_model"], r["speed_avg"], r["walk_strategy"],
                    r["milestone"], r["runs"]) for r in csv.DictReader(fh)]
    assert summary == [("30", "static", fmt(v), s, "1", "1") for v, s in grid]
    # One row per run, at its one milestone, reached or not.
    seeds = {(fmt(v), s): str(derive_seed(4, (30, v, "static", s), 0)) for v, s in grid}
    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid)
    for r in rows:
        assert (r["n_nodes"], r["mobility_model"], r["replicate"]) == ("30", "static", "0")
        assert seeds[r["speed_avg"], r["walk_strategy"]] == r["seed"]


def test_sweep_names_each_failed_run_on_stderr(tmp_path, capsys, monkeypatch):
    deploy = harness.init_deployment

    def failing_deploy(config, *args, **kwargs):
        if config.n_nodes == 30:
            raise RuntimeError("planted deployment failure")
        return deploy(config, *args, **kwargs)

    monkeypatch.setattr(harness, "init_deployment", failing_deploy)
    spec = tmp_path / "sweep.cfg"
    spec.write_text(
        "sweep_n_nodes = 30, 40\n"
        "sweep_speed_avg = 7\n"
        "sweep_mobility_model = random_direction\n"
        "sweep_walk_strategy = self_repelling\n"
        "replicates = 1\n"
        "seed_base = 5\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--workers", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    seed = derive_seed(5, (30, 7.0, "random_direction", "self_repelling"), 0)
    assert captured.err == (
        "run failed: n_nodes=30 density=0.02 mobility_model=random_direction speed_avg=7 "
        f"walk_strategy=self_repelling replicate=0 seed={seed}: "
        "RuntimeError: planted deployment failure\n")
    assert "sweep finished: 1/2 runs completed (0 timed out, 1 failed)" in captured.out


def _cut_last_row(rows):
    # What a sweep killed mid-write leaves: the last row ends after its churn_rate cell.
    rows[-1] = rows[-1][:RUNS_COLUMNS.index("churn_rate") + 1]
    return len(rows), f"10 cells, expected {len(RUNS_COLUMNS)}"


def _rename_a_column(rows):
    rows[0][0] = "nodes"
    return 1, f"header is not {','.join(RUNS_COLUMNS)}"


def _bad_flag(rows):
    rows[2][RUNS_COLUMNS.index("timed_out")] = "yes"
    return 3, "bad timed_out cell 'yes'"


def _cut_inside(column):
    def edit(rows):
        # What a write killed inside the last row's `column` cell leaves.
        i = rows[0].index(column)
        assert len(rows[-1][i]) > 1
        rows[-1] = rows[-1][:i] + [rows[-1][i][:-1]]
        if i + 1 < len(rows[0]):
            return len(rows), f"{i + 1} cells, expected {len(rows[0])}"
        # Every cell is there and parses; only the missing line end tells.
        return len(rows), "no line end after the last row; the file was cut short"
    edit.__name__ = f"_cut_inside_{column}"
    return edit


def _rename_the_first_column(rows):
    header = ",".join(rows[0])
    rows[0][0] = "nodes"
    return 1, f"header is not {header}"


def _drop_the_last_row(rows):
    # A sweep killed at a row boundary: the file ends in a line end, but the
    # last run lacks its 100% row. No line is at fault, so the error names the run.
    replicate, seed = (rows[-1][RUNS_COLUMNS.index(c)] for c in ("replicate", "seed"))
    rows[-1] = []
    return None, (f"run replicate={replicate} seed={seed} has milestones 0.5,0.75,0.85, "
                  "its point's first run 0.5,0.75,0.85,1")


# The CSV file each case edits -> the command that reads it back.
_READERS = {"runs.csv": ["summarize"], "summary.csv": ["figdata", "fig2b"],
            "histograms.csv": ["figdata", "fig1"]}
_MALFORMED = [("runs.csv", edit) for edit in (
    _cut_last_row, _rename_a_column, _bad_flag, _cut_inside("visit_variance"),
    _drop_the_last_row)] + [
    (name, edit) for name, middle, last in (("summary.csv", "std_overhead", "mean_churn_rate"),
                                            ("histograms.csv", "seed", "node_fraction"))
    for edit in (_cut_inside(middle), _cut_inside(last), _rename_the_first_column)]


@pytest.mark.parametrize("name, edit", _MALFORMED, ids=[
    edit.__name__ if name == "runs.csv" else f"{name}-{edit.__name__}"
    for name, edit in _MALFORMED])
def test_summarize_rejects_a_malformed_runs_csv(tmp_path, capsys, name, edit):
    """summarize, and figdata on summary.csv and histograms.csv, reject a
    malformed file with exit 1 and its line, and leave every other output as it was."""
    spec = tmp_path / "sweep.cfg"
    spec.write_text("sweep_n_nodes = 30\nsweep_speed_avg = 7\n"
                    "sweep_mobility_model = random_direction\n"
                    "sweep_walk_strategy = self_repelling\nreplicates = 2\nseed_base = 3\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["figdata", "fig1", "--out", str(out)]) == 0
    assert main(["figdata", "fig2b", "--out", str(out)]) == 0
    path = out / name
    outputs = {p: p.read_bytes() for p in [out / "summary.csv", *out.glob("*.dat")] if p != path}
    rows = [line.split(",") for line in path.read_text().splitlines()]
    line, message = edit(rows)
    path.write_text("\n".join(",".join(row) for row in rows))
    capsys.readouterr()
    assert main([*_READERS[name], "--out", str(out)]) == 1
    where = path if line is None else f"{path}:{line}"
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert {p: p.read_bytes() for p in outputs} == outputs


@pytest.mark.parametrize("line, instead", [
    ("n_nodes = 30", "sweep_n_nodes"),
    ("speed_avg = 3", "sweep_speed_avg"),
    ("mobility_model = static", "sweep_mobility_model"),
    ("walk_strategy = pure_random", "sweep_walk_strategy"),
    ("seed = 99", "seed_base"),
])
def test_sweep_rejects_a_key_the_grid_sets(tmp_path, capsys, line, instead):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(f"sweep_n_nodes = 20\n{line}\nreplicates = 1\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
    key = line.split()[0]
    assert (f"error: {spec}:2: bad value for {key!r}: a sweep never reads it; "
            f"set {instead} instead") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("sweep_n_nodes = 30, 30", "sweep_n_nodes repeats 30"),
    ("sweep_speed_avg = 7, 7.0", "sweep_speed_avg repeats 7.0"),
])
def test_sweep_rejects_a_repeated_axis_value(tmp_path, capsys, line, message):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(f"{line}\nreplicates = 1\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key, text", [
    (["run", "--config"], "n_nodes", "n_nodes = 30\nseed = 4\nn_nodes = 50\n"),
    (["sweep", "--spec"], "sweep_n_nodes",
     "sweep_n_nodes = 20\nreplicates = 1\nsweep_n_nodes = 30\n"),
])
def test_repeated_key_exits_1(tmp_path, capsys, command, key, text):
    path = tmp_path / "keys.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(command + [str(path), "--out", str(out)]) == 1
    assert f"error: {path}:3: repeated key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_figdata_missing_dir_exits_2(tmp_path):
    assert main(["figdata", "fig2a", "--out", str(tmp_path / "nope")]) == 2
