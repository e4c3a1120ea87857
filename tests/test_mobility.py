import copy
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest
from scipy import stats

from manetwalk.core import SimConfig, geometry_for, rng_stream
from manetwalk.mobility import (_EPOCH_EPS, MobilityState, _set_displacement, init_deployment,
                                step_all)

TWO_PI = 2.0 * math.pi


# --- scalar reference: the vectorized kernels, one node at a time ------------

@dataclass
class NodeKinematics:
    """Kinematic state of one node; only the fields of the active model are meaningful."""

    position: Tuple[float, float]
    heading: float = 0.0
    speed: float = 0.0
    epoch_remaining: float = 0.0
    waypoint: Optional[Tuple[float, float]] = None
    pause_remaining: float = 0.0


def node_of(state, i) -> NodeKinematics:
    """Node i of a MobilityState as a scalar snapshot."""
    wp = tuple(state.waypoints[i]) if state.has_waypoint[i] else None
    return NodeKinematics(
        position=(float(state.positions[i, 0]), float(state.positions[i, 1])),
        heading=float(state.headings[i]),
        speed=float(state.speeds[i]),
        epoch_remaining=float(state.epoch_remaining[i]),
        waypoint=wp,
        pause_remaining=float(state.pause_remaining[i]),
    )


def _reflect(coord, heading, side, axis):
    while coord < 0.0 or coord > side:
        if coord < 0.0:
            coord = -coord
        else:
            coord = 2.0 * side - coord
        heading = math.pi - heading if axis == 0 else -heading
    return coord, heading


def step_random_direction(node, dt, side, speed_range, direction_epoch, rng):
    """One tick of random-direction motion with specular boundary reflection."""
    x, y = node.position
    x += node.speed * dt * math.cos(node.heading)
    y += node.speed * dt * math.sin(node.heading)
    heading = node.heading
    x, heading = _reflect(x, heading, side, axis=0)
    y, heading = _reflect(y, heading, side, axis=1)
    node.position = (x, y)
    node.heading = heading % TWO_PI

    node.epoch_remaining -= dt
    if node.epoch_remaining <= _EPOCH_EPS:
        node.heading = float(rng.uniform(0.0, TWO_PI))
        node.speed = float(rng.uniform(*speed_range))
        node.epoch_remaining = direction_epoch
    return node


def step_random_waypoint(node, dt, side, speed_range, pause_time, rng):
    """One tick of random-waypoint motion: pause, resume, travel, snap on arrival."""
    if node.pause_remaining > 0.0:
        node.pause_remaining -= dt
        return node
    if node.waypoint is None:
        node.waypoint = (float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side)))
        node.speed = float(rng.uniform(*speed_range))
    dx = node.waypoint[0] - node.position[0]
    dy = node.waypoint[1] - node.position[1]
    dist = math.hypot(dx, dy)
    step = node.speed * dt
    if dist <= step:
        node.position = node.waypoint
        node.waypoint = None
        node.pause_remaining = pause_time
    else:
        node.position = (node.position[0] + dx / dist * step,
                         node.position[1] + dy / dist * step)
    return node


# --- index-array reference: step_all through gathers and scatters by node id ---

def reference_step_all(state, config):
    """step_all through index arrays, with a full-array heading mod and no displacement cache."""
    if state.model == "random_direction":
        _reference_direction(state, config)
    elif state.model == "random_waypoint":
        _reference_waypoint(state, config)
    else:
        raise ValueError(f"unknown mobility model {state.model!r}")


def _reference_direction(state, config):
    dt = config.tick
    pos = state.positions
    step = state.speeds * dt
    pos[:, 0] += step * np.cos(state.headings)
    pos[:, 1] += step * np.sin(state.headings)

    for axis in (0, 1):
        comp = pos[:, axis]
        while True:
            low = comp < 0.0
            high = comp > state.side
            if not (low.any() or high.any()):
                break
            comp[low] = -comp[low]
            comp[high] = 2.0 * state.side - comp[high]
            bounced = low | high
            if axis == 0:
                state.headings[bounced] = math.pi - state.headings[bounced]
            else:
                state.headings[bounced] = -state.headings[bounced]
    np.mod(state.headings, TWO_PI, out=state.headings)

    state.epoch_remaining -= dt
    expired = state.epoch_remaining <= _EPOCH_EPS
    k = int(expired.sum())
    if k:
        rng = state.rng
        state.headings[expired] = rng.uniform(0.0, TWO_PI, size=k)
        state.speeds[expired] = rng.uniform(config.speed_min, config.speed_max, size=k)
        state.epoch_remaining[expired] = config.direction_epoch


def _reference_waypoint(state, config):
    dt = config.tick
    paused = state.pause_remaining > 0.0
    if paused.any():
        state.pause_remaining[paused] -= dt

    active = np.nonzero(~paused)[0]
    if active.size == 0:
        return

    need = active[~state.has_waypoint[active]]
    if need.size:
        rng = state.rng
        state.waypoints[need] = rng.uniform(0.0, state.side, size=(need.size, 2))
        state.speeds[need] = rng.uniform(config.speed_min, config.speed_max, size=need.size)
        state.has_waypoint[need] = True

    delta = state.waypoints[active] - state.positions[active]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    step = state.speeds[active] * dt

    arrived = dist <= step
    arr = active[arrived]
    if arr.size:
        state.positions[arr] = state.waypoints[arr]
        state.has_waypoint[arr] = False
        state.pause_remaining[arr] = config.pause_time

    go = active[~arrived]
    if go.size:
        d = dist[~arrived]
        state.positions[go] += delta[~arrived] * (step[~arrived] / d)[:, None]


STATE_ARRAYS = ("positions", "headings", "speeds", "epoch_remaining", "waypoints",
                "has_waypoint", "pause_remaining")


def assert_same_bits(state, reference, config):
    """Every kinematic array and the motion stream are bit-identical to the reference's."""
    for name in STATE_ARRAYS:
        ours, theirs = getattr(state, name), getattr(reference, name)
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert state.rng.bit_generator.state == reference.rng.bit_generator.state
    if state.model == "random_direction":
        step = reference.speeds * config.tick
        assert state.displacement[:, 0].tobytes() == (step * np.cos(reference.headings)).tobytes()
        assert state.displacement[:, 1].tobytes() == (step * np.sin(reference.headings)).tobytes()


def step_both(state, reference, config, ticks, every=1):
    """Step the kernels and the reference side by side, comparing bits every few ticks."""
    with np.errstate(all="raise"):
        for tick in range(1, ticks + 1):
            step_all(state, config)
            reference_step_all(reference, config)
            if tick % every == 0 or tick == ticks:
                assert_same_bits(state, reference, config)


def _state(cfg, seed=0):
    geom = geometry_for(cfg)
    return cfg, geom, init_deployment(cfg, geom, rng_stream(seed, "deployment"),
                                      motion_rng=rng_stream(seed, "mobility"))


def test_deployment_single_node_in_bounds():
    cfg, geom, state = _state(SimConfig(n_nodes=1, comm_range=1.0))
    assert state.positions.shape == (1, 2)
    assert ((state.positions >= 0) & (state.positions <= geom.side)).all()


def test_deployment_uniform_moments():
    cfg, geom, state = _state(SimConfig(n_nodes=10000, density=1.0), seed=3)
    assert math.isclose(geom.side, 100.0)
    # mean of N uniforms on [0, side]: side * (0.5 +- 3 sigma), sigma = 1/(sqrt(12) sqrt(N))
    band = 100.0 * 3.0 / (math.sqrt(12.0) * 100.0)
    for axis in (0, 1):
        assert abs(state.positions[:, axis].mean() - 50.0) < band


def test_deployment_deterministic():
    _, _, a = _state(SimConfig(n_nodes=200), seed=9)
    _, _, b = _state(SimConfig(n_nodes=200), seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.headings, b.headings)


def test_deployment_initial_motion_state():
    cfg, _, rd = _state(SimConfig(n_nodes=300, mobility_model="random_direction"))
    assert ((rd.headings >= 0) & (rd.headings < TWO_PI)).all()
    assert ((rd.speeds >= cfg.speed_min) & (rd.speeds <= cfg.speed_max)).all()
    assert ((rd.epoch_remaining >= 0) & (rd.epoch_remaining <= cfg.direction_epoch)).all()

    cfg, geom, wp = _state(SimConfig(n_nodes=300, mobility_model="random_waypoint"))
    assert wp.has_waypoint.all()
    assert ((wp.waypoints >= 0) & (wp.waypoints <= geom.side)).all()
    assert (wp.pause_remaining == 0).all()

    # A static deployment draws no motion, and step_all has no kernel to run it with.
    cfg, _, st = _state(SimConfig(n_nodes=300, mobility_model="static"))
    assert not st.speeds.any() and not st.has_waypoint.any()
    with pytest.raises(ValueError, match="unknown mobility model 'static'"):
        step_all(st, cfg)


def test_step_direction_straight_line():
    node = NodeKinematics(position=(5.0, 5.0), heading=0.0, speed=2.0, epoch_remaining=10.0)
    rng = rng_stream(0, "unused")
    step_random_direction(node, 0.1, 10.0, (1.0, 3.0), 1.0, rng)
    assert math.isclose(node.position[0], 5.2, rel_tol=1e-12)
    assert math.isclose(node.position[1], 5.0, rel_tol=1e-12)


def test_step_direction_specular_reflection():
    # x would reach 10.1; mirrored about side=10 back to 9.9, heading reversed
    node = NodeKinematics(position=(9.9, 5.0), heading=0.0, speed=2.0, epoch_remaining=10.0)
    step_random_direction(node, 0.1, 10.0, (1.0, 3.0), 1.0, rng_stream(0, "unused"))
    assert math.isclose(node.position[0], 9.9, rel_tol=1e-12)
    assert math.isclose(node.heading, math.pi, rel_tol=1e-12)


def test_step_direction_corner_reflection():
    node = NodeKinematics(position=(9.95, 0.05), heading=-math.pi / 4,
                          speed=2.0, epoch_remaining=10.0)
    step_random_direction(node, 0.1, 10.0, (1.0, 3.0), 1.0, rng_stream(0, "unused"))
    x, y = node.position
    dx = 0.2 / math.sqrt(2)
    assert math.isclose(x, 2 * 10.0 - (9.95 + dx), rel_tol=1e-9)
    assert math.isclose(y, -(0.05 - dx), rel_tol=1e-9)


def test_step_direction_epoch_resample():
    node = NodeKinematics(position=(5.0, 5.0), heading=0.0, speed=2.0, epoch_remaining=0.0)
    step_random_direction(node, 0.1, 10.0, (3.0, 7.0), 1.5, rng_stream(4, "mobility"))
    assert math.isclose(node.position[0], 5.2, rel_tol=1e-12)  # moved on the old heading
    assert 0.0 <= node.heading < TWO_PI
    assert 3.0 <= node.speed <= 7.0
    assert node.epoch_remaining == 1.5


def test_step_waypoint_travel():
    node = NodeKinematics(position=(0.0, 0.0), speed=5.0, waypoint=(3.0, 4.0))
    step_random_waypoint(node, 0.1, 10.0, (3.0, 7.0), 2.0, rng_stream(0, "unused"))
    assert math.isclose(node.position[0], 0.3, rel_tol=1e-12)
    assert math.isclose(node.position[1], 0.4, rel_tol=1e-12)
    assert node.waypoint == (3.0, 4.0)


def test_step_waypoint_arrival_snaps_and_pauses():
    node = NodeKinematics(position=(0.0, 0.0), speed=5.0, waypoint=(0.2, 0.0))
    step_random_waypoint(node, 0.1, 10.0, (3.0, 7.0), 2.0, rng_stream(0, "unused"))
    assert node.position == (0.2, 0.0)
    assert node.waypoint is None
    assert node.pause_remaining == 2.0


def test_step_waypoint_pause_counts_down():
    node = NodeKinematics(position=(1.0, 1.0), speed=5.0, waypoint=(9.0, 9.0),
                          pause_remaining=1.0)
    step_random_waypoint(node, 0.1, 10.0, (3.0, 7.0), 2.0, rng_stream(0, "unused"))
    assert node.position == (1.0, 1.0)
    assert math.isclose(node.pause_remaining, 0.9, rel_tol=1e-12)


def test_step_waypoint_resumes_with_fresh_target():
    node = NodeKinematics(position=(1.0, 1.0), speed=5.0, waypoint=None,
                          pause_remaining=0.0)
    step_random_waypoint(node, 0.1, 10.0, (3.0, 7.0), 2.0, rng_stream(4, "mobility"))
    assert node.position != (1.0, 1.0)  # sampled a waypoint and started moving
    assert 3.0 <= node.speed <= 7.0


@pytest.mark.parametrize("model", ["random_direction", "random_waypoint"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_positions_stay_in_bounds(model, seed):
    cfg, geom, state = _state(
        SimConfig(n_nodes=50, mobility_model=model, speed_avg=13.0,
                  speed_halfwidth=2.0), seed=seed)
    for _ in range(400):
        step_all(state, cfg)
        assert ((state.positions >= 0) & (state.positions <= geom.side)).all()
    assert ((state.speeds >= cfg.speed_min) & (state.speeds <= cfg.speed_max)).all()


def test_random_direction_preserves_uniformity():
    # uniform at t=0 stays uniform; chi-square on a 5x5 grid after 100 s
    cfg, geom, state = _state(SimConfig(n_nodes=2500), seed=42)
    for _ in range(1000):
        step_all(state, cfg)
    edges = np.linspace(0.0, geom.side, 6)
    counts, _, _ = np.histogram2d(state.positions[:, 0], state.positions[:, 1],
                                  bins=[edges, edges])
    chi2 = ((counts - 100.0) ** 2 / 100.0).sum()
    assert chi2 < stats.chi2.ppf(0.99, 24)


def test_vectorized_matches_scalar_random_direction():
    # With epochs that never expire, no draws happen and the physics must agree.
    cfg, geom, state = _state(
        SimConfig(n_nodes=16, speed_avg=10.0, speed_halfwidth=2.0,
                  direction_epoch=1e9), seed=6)
    nodes = [node_of(state, i) for i in range(state.n_nodes)]
    rng = rng_stream(0, "unused")
    for _ in range(300):
        step_all(state, cfg)
        for node in nodes:
            step_random_direction(node, cfg.tick, geom.side,
                                  (cfg.speed_min, cfg.speed_max), 1e9, rng)
    scalar = np.array([n.position for n in nodes])
    assert np.allclose(scalar, state.positions, atol=1e-9)


def test_vectorized_matches_scalar_random_waypoint():
    cfg, geom, state = _state(
        SimConfig(n_nodes=16, mobility_model="random_waypoint"), seed=6)
    nodes = [node_of(state, i) for i in range(state.n_nodes)]
    rng = rng_stream(0, "unused")
    # Any node that arrives pauses for 2 s = 20 ticks, so 15 ticks draw nothing.
    for _ in range(15):
        step_all(state, cfg)
        for node in nodes:
            step_random_waypoint(node, cfg.tick, geom.side,
                                 (cfg.speed_min, cfg.speed_max), cfg.pause_time, rng)
    scalar = np.array([n.position for n in nodes])
    assert np.allclose(scalar, state.positions, atol=1e-9)


# --- the kernels against the index-array reference, bit for bit ----------------

@pytest.mark.parametrize("speed", [3.0, 15.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [100, 1000])
@pytest.mark.parametrize("model", ["random_direction", "random_waypoint"])
def test_step_all_matches_the_index_array_reference(model, n_nodes, seed, speed):
    cfg, _, state = _state(SimConfig(n_nodes=n_nodes, mobility_model=model, speed_avg=speed),
                           seed=seed)
    assert state.positions.flags.f_contiguous and state.waypoints.flags.f_contiguous
    step_both(state, copy.deepcopy(state), cfg, 5000, every=10)


def _direction_state(cfg, positions, headings, speed):
    """A random-direction state built directly, with epochs that never expire."""
    side = geometry_for(cfg).side
    state = MobilityState("random_direction", side, np.asfortranarray(positions, dtype=float),
                          rng_stream(0, "mobility"))
    state.headings[:] = headings
    state.speeds[:] = speed
    state.epoch_remaining[:] = np.inf
    _set_displacement(state, slice(None), cfg.tick)
    return state


def test_planted_heading_of_exactly_two_pi():
    cfg = SimConfig(n_nodes=3, density=0.02)
    # Node 0 holds 2π; node 1 bounces off x = 0 from just past π, to -4.4e-16, which
    # np.mod rounds to exactly 2π. Each moves one tick on cos/sin(2π), then wraps to 0.
    state = _direction_state(cfg, [[5.0, 5.0], [0.01, 5.0], [5.0, 5.0]],
                             [TWO_PI, np.nextafter(math.pi, 4.0), 1.0], 1.0)
    reference = copy.deepcopy(state)
    step_both(state, reference, cfg, 1)
    assert state.headings[0] == 0.0 and state.headings[1] == TWO_PI
    step_both(state, reference, cfg, 1)
    assert state.headings[1] == 0.0
    step_both(state, reference, cfg, 20)


def test_planted_step_longer_than_the_side():
    # Side 1 m and 2.5 m per tick: a coordinate can land past both walls of an axis.
    cfg = SimConfig(n_nodes=4, density=4.0, comm_range=0.5,
                    speed_avg=25.0, speed_halfwidth=0.0)
    _, geom, state = _state(cfg, seed=4)
    reference = copy.deepcopy(state)
    double = 0
    for _ in range(200):
        raw = state.positions + state.displacement
        double += np.count_nonzero((raw < -geom.side) | (raw > 2.0 * geom.side))
        step_both(state, reference, cfg, 1)
        assert ((state.positions >= 0) & (state.positions <= geom.side)).all()
    assert double > 0


@pytest.mark.parametrize("model", ["random_direction", "random_waypoint"])
def test_planted_zero_speed_halfwidth(model):
    cfg, _, state = _state(SimConfig(n_nodes=100, mobility_model=model, speed_halfwidth=0.0),
                           seed=7)
    step_both(state, copy.deepcopy(state), cfg, 1000)
    assert (state.speeds == cfg.speed_avg).all()


def test_planted_zero_pause_time():
    cfg, _, state = _state(SimConfig(n_nodes=50, mobility_model="random_waypoint",
                                     pause_time=0.0, speed_avg=15.0), seed=8)
    reference = copy.deepcopy(state)
    arrivals = 0
    for _ in range(2000):
        step_both(state, reference, cfg, 1)
        arrivals += np.count_nonzero(~state.has_waypoint)
    assert arrivals > 0
    assert (state.pause_remaining == 0.0).all()


def test_planted_every_node_paused():
    cfg, _, state = _state(SimConfig(n_nodes=100, mobility_model="random_waypoint"), seed=9)
    state.pause_remaining[:] = 0.45
    deployed = state.positions.copy()
    reference = copy.deepcopy(state)
    step_both(state, reference, cfg, 4)
    assert np.array_equal(state.positions, deployed)
    step_both(state, reference, cfg, 100)
    assert not np.array_equal(state.positions, deployed)


@pytest.mark.parametrize("model", ["random_direction", "random_waypoint"])
def test_directly_built_state_steps_like_the_reference(model):
    # As a static run's zero-speed reference builds it: C-ordered positions, zero speeds,
    # zero cached displacement. It stands still until its first draws.
    cfg = SimConfig(n_nodes=30, mobility_model=model)
    geom = geometry_for(cfg)
    positions = rng_stream(1, "deployment").uniform(0.0, geom.side, size=(30, 2))
    state = MobilityState(model, geom.side, positions, rng_stream(1, "mobility"))
    assert positions.flags.c_contiguous and not state.displacement.any()
    state.epoch_remaining[:] = 0.35
    deployed = positions.copy()
    reference = copy.deepcopy(state)
    if model == "random_direction":
        step_both(state, reference, cfg, 3)
        assert np.array_equal(positions, deployed)
    step_both(state, reference, cfg, 300)
    assert not np.array_equal(positions, deployed)


# --- the index paths at their extremes ----------------------------------------

@pytest.mark.parametrize("model", ["random_direction", "random_waypoint"])
def test_every_epoch_expiring_each_tick_matches_the_reference(model):
    # direction_epoch == tick: after the first expiry every node redraws every tick (k = N).
    cfg, _, state = _state(SimConfig(n_nodes=100, mobility_model=model, direction_epoch=0.1),
                           seed=5)
    reference = copy.deepcopy(state)
    step_both(state, reference, cfg, 15)
    if model == "random_direction":
        assert (state.epoch_remaining == cfg.direction_epoch).all()
    step_both(state, reference, cfg, 500, every=5)


# 300 ticks of 100 nodes at 150 m a tick on a 70.7 m square: each random-direction
# node bounces at least once a tick, a waypoint node arrives in the tick it draws its
# waypoint, so every tick without a pause and once every 21 ticks with a 2 s pause.
# The direction kernel never reads pause_time, so it runs once.
@pytest.mark.parametrize("model, pause_time, least_events", [("random_direction", 0.0, 30000),
                                                             ("random_waypoint", 2.0, 1400),
                                                             ("random_waypoint", 0.0, 30000)])
def test_1500_m_per_s_matches_the_reference(model, pause_time, least_events):
    cfg, geom, state = _state(SimConfig(n_nodes=100, mobility_model=model, speed_avg=1500.0,
                                        pause_time=pause_time), seed=6)
    reference = copy.deepcopy(state)
    events = 0
    for _ in range(300):
        if model == "random_direction":  # count bouncing coordinates
            raw = state.positions + state.displacement
            events += np.count_nonzero((raw < 0.0) | (raw > geom.side))
        step_both(state, reference, cfg, 1)
        if model == "random_waypoint":  # count arrivals: a pause just set, no waypoint
            arrived = ~state.has_waypoint & (state.pause_remaining == cfg.pause_time)
            events += np.count_nonzero(arrived)
        assert ((state.positions >= 0) & (state.positions <= geom.side)).all()
    assert events >= least_events
