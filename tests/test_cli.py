import argparse
from dataclasses import fields

import pytest

from manetwalk.cli import build_parser, main
from manetwalk.core import CONFIG_PARSERS, SimConfig, rng_stream


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
        "n_nodes = 30\n"
        "milestones = 0.5, 1.0\n"
        "sweep_n_nodes = 30, 40\n"
        "sweep_speed_avg = 7\n"
        "sweep_mobility_model = random_direction\n"
        "sweep_walk_strategy = self_repelling\n"
        "replicates = 2\n"
        "seed_base = 3\n")
    out = tmp_path / "out"
    rc = main(["sweep", "--spec", str(spec), "--workers", "2", "--out", str(out)])
    assert rc == 0
    assert "sweep finished: 4/4 runs completed" in capsys.readouterr().out

    summary_before = (out / "summary.csv").read_bytes()
    assert main(["summarize", "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes().splitlines()[0] == \
        summary_before.splitlines()[0]

    assert main(["figdata", "fig2b", "--out", str(out)]) == 0
    assert (out / "fig2b.dat").exists()


def test_sweep_desk_preset_caps_grid(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(
        "n_nodes = 30\n"
        "milestones = 1.0\n"
        "sweep_n_nodes = 30, 1000\n"
        "sweep_speed_avg = 7\n"
        "sweep_mobility_model = static\n"
        "sweep_walk_strategy = self_repelling\n"
        "replicates = 7\n")
    out = tmp_path / "out"
    rc = main(["sweep", "--spec", str(spec), "--desk", "--replicates", "1",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "runs.csv").read_text().splitlines()[1:]
    assert rows  # N=1000 dropped by --desk, N=30 kept
    assert all(row.split(",")[0] == "30" for row in rows)


def test_figdata_missing_dir_exits_2(tmp_path):
    assert main(["figdata", "fig2a", "--out", str(tmp_path / "nope")]) == 2
