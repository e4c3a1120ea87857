import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from manetwalk.core import (ConfigError, SimConfig, config_from, geometry_for,
                            parse_config_lines, read_config_file, rng_stream)


def test_derive_geometry_closed_forms():
    g = geometry_for(SimConfig(n_nodes=3, density=3 / math.e))
    assert math.isclose(g.area, math.e, rel_tol=1e-12)
    assert math.isclose(g.comm_range ** 2, math.log(3) * math.e / 3, rel_tol=1e-12)

    g = geometry_for(SimConfig(n_nodes=2, density=math.log(2)))
    assert g.comm_range == 1.0

    g = geometry_for(SimConfig(n_nodes=100, density=1.0))
    assert math.isclose(g.area, 100.0, rel_tol=1e-12)
    assert math.isclose(g.side, 10.0, rel_tol=1e-12)
    assert math.isclose(g.comm_range, math.sqrt(math.log(100)), rel_tol=1e-12)


def test_derive_geometry_invariants():
    for n, rho in ((2, 0.5), (10, 0.02), (1000, 3.0)):
        g = geometry_for(SimConfig(n_nodes=n, density=rho))
        assert math.isclose(g.area, g.side ** 2, rel_tol=1e-12)
        assert math.isclose(g.comm_range ** 2, math.log(n) / rho, rel_tol=1e-9)
        assert g.comm_range < g.side


def test_derive_geometry_rejects_degenerate():
    # A config that geometry_for could not derive a range or area from is never built.
    with pytest.raises(ConfigError, match="n_nodes"):
        SimConfig(n_nodes=1, density=1.0)
    with pytest.raises(ConfigError, match="density"):
        SimConfig(n_nodes=10, density=0.0)


def test_geometry_scale_consistency():
    n, rho = 137, 0.31
    g1 = geometry_for(SimConfig(n_nodes=n, density=rho))
    g2 = geometry_for(SimConfig(n_nodes=n, density=2 * rho))
    assert math.isclose(g2.area, g1.area / 2, rel_tol=1e-12)
    assert math.isclose(g2.comm_range, g1.comm_range / math.sqrt(2), rel_tol=1e-12)


def test_geometry_override():
    g = geometry_for(SimConfig(n_nodes=50, density=0.5, comm_range=3.25))
    assert g.comm_range == 3.25
    assert math.isclose(g.area, 100.0, rel_tol=1e-12)
    assert geometry_for(SimConfig(n_nodes=1, comm_range=2.0)).comm_range == 2.0
    with pytest.raises(ConfigError, match="density"):
        SimConfig(density=0.0, comm_range=2.0)


def test_simconfig_accepts_default_and_is_frozen():
    cfg = SimConfig()
    assert cfg.milestones == (0.5, 0.75, 0.85, 1.0)
    assert SimConfig(n_nodes=1, comm_range=1.0).n_nodes == 1
    whole = SimConfig(n_nodes=30.0)
    assert whole.n_nodes == 30 and type(whole.n_nodes) is int
    with pytest.raises(FrozenInstanceError):
        cfg.n_nodes = 0
    assert cfg.n_nodes == 100


def test_simconfig_named_errors():
    with pytest.raises(ConfigError, match="hop_interval not a multiple of tick"):
        SimConfig(hop_interval=0.15, tick=0.1)
    with pytest.raises(ConfigError, match="negative minimum speed"):
        SimConfig(speed_avg=3.0, speed_halfwidth=4.0)
    with pytest.raises(ConfigError, match="n_nodes"):
        SimConfig(n_nodes=0)
    with pytest.raises(ConfigError, match="n_nodes must be an integer >= 1, and >= 2 without"):
        SimConfig(n_nodes=1)
    with pytest.raises(ConfigError, match="density"):
        SimConfig(density=-1.0)
    with pytest.raises(ConfigError, match="mobility_model"):
        SimConfig(mobility_model="teleport")
    with pytest.raises(ConfigError, match="walk_strategy"):
        SimConfig(walk_strategy="levy")
    with pytest.raises(ConfigError, match="tick"):
        SimConfig(tick=0.0)
    with pytest.raises(ConfigError, match="milestones must end at 1.0"):
        SimConfig(milestones=(0.5, 0.75))
    with pytest.raises(ConfigError, match="milestones"):
        SimConfig(milestones=(0.5, 1.0, 1.5))
    with pytest.raises(ConfigError, match="comm_range"):
        SimConfig(comm_range=0.0)
    with pytest.raises(ConfigError, match="speed_halfwidth must be >= 0"):
        SimConfig(speed_halfwidth=-0.5)
    with pytest.raises(ConfigError, match="pause_time must be >= 0"):
        SimConfig(pause_time=-1.0)
    with pytest.raises(ConfigError, match="direction_epoch must be positive"):
        SimConfig(direction_epoch=0.0)
    with pytest.raises(ConfigError, match="max_sim_time must be positive"):
        SimConfig(max_sim_time=0.0)
    with pytest.raises(ConfigError, match="milestones must be non-empty"):
        SimConfig(milestones=())
    # replace() builds a new config, so it is checked too.
    with pytest.raises(ConfigError, match="negative minimum speed: speed_avg 1.0"):
        replace(SimConfig(), speed_avg=1.0)


def test_simconfig_normalizes_milestones():
    out = SimConfig(milestones=(1.0, 0.5, 0.75, 0.5))
    assert out.milestones == (0.5, 0.75, 1.0)
    assert SimConfig(milestones=(1.0, 0.5, 0.5)).milestones == (0.5, 1.0)
    assert replace(out, seed=2).milestones == (0.5, 0.75, 1.0)


def test_hop_interval_multiples():
    SimConfig(hop_interval=0.3, tick=0.1)
    SimConfig(hop_interval=0.2, tick=0.1)
    with pytest.raises(ConfigError):
        SimConfig(hop_interval=0.05, tick=0.1)


def test_rng_stream_determinism_and_independence():
    a = rng_stream(42, "walk").integers(1 << 30, size=8)
    b = rng_stream(42, "walk").integers(1 << 30, size=8)
    c = rng_stream(42, "mobility").integers(1 << 30, size=8)
    d = rng_stream(43, "walk").integers(1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_accepts_negative_seed():
    a = rng_stream(-7, "walk").integers(100, size=4)
    b = rng_stream(-7, "walk").integers(100, size=4)
    assert np.array_equal(a, b)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "# comment line\n"
        "n_nodes = 42\n"
        "density = 0.5\n"
        "mobility_model = random_waypoint\n"
        "milestones = 0.5, 0.75, 1.0\n"
        "seed = 99\n"
        "\n")
    cfg = config_from(read_config_file(path))
    assert cfg.n_nodes == 42
    assert cfg.density == 0.5
    assert cfg.mobility_model == "random_waypoint"
    assert cfg.milestones == (0.5, 0.75, 1.0)
    assert cfg.seed == 99
    assert cfg.tick == 0.1  # untouched default


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("n_nodes = 42\nvelocity = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'velocity'"):
        read_config_file(path)


def test_config_file_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_lines(["n_nodes = lots"])
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_lines(["n_nodes 42"])
    with pytest.raises(ConfigError, match="<config>:2: bad value for 'milestones'"):
        parse_config_lines(["n_nodes = 42", "milestones ="])
    with pytest.raises(ConfigError, match="<config>:3: repeated key 'n_nodes'"):
        parse_config_lines(["n_nodes = 30", "seed = 4", "n_nodes = 50"])


def test_flags_win_over_file():
    cfg = config_from({"n_nodes": 10, "seed": 1}, {"seed": 2, "density": None})
    assert cfg.n_nodes == 10
    assert cfg.seed == 2
    assert cfg.density == SimConfig().density
