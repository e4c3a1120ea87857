"""Node kinematics: uniform deployment, random direction with reflection, random waypoint."""

import math
from typing import Optional

import numpy as np

from .core import SimConfig, WorldGeometry

_TWO_PI = 2.0 * math.pi
_EPOCH_EPS = 1e-9  # absorbs float dust when epoch timers cross zero


class MobilityState:
    """Kinematics of the whole deployment, stored as arrays for vectorized stepping."""

    def __init__(self, model: str, side: float, positions: np.ndarray,
                 rng: Optional[np.random.Generator] = None):
        n = len(positions)
        self.model = model
        self.side = side
        self.positions = positions
        self.headings = np.zeros(n)
        self.speeds = np.zeros(n)
        self.epoch_remaining = np.zeros(n)
        self.waypoints = np.zeros((n, 2))
        self.has_waypoint = np.zeros(n, dtype=bool)
        self.pause_remaining = np.zeros(n)
        self.rng = rng

    @property
    def n_nodes(self) -> int:
        return len(self.positions)


def init_deployment(config: SimConfig, geometry: WorldGeometry,
                    rng: np.random.Generator,
                    motion_rng: Optional[np.random.Generator] = None) -> MobilityState:
    """Deploy N nodes i.i.d. uniform on the square and sample their initial motion state.

    `rng` drives the deployment draws; `motion_rng` (default: same generator)
    drives all later kinematic resampling.
    """
    n = config.n_nodes
    side = geometry.side
    positions = rng.uniform(0.0, side, size=(n, 2))
    state = MobilityState(config.mobility_model, side, positions,
                          rng if motion_rng is None else motion_rng)
    if config.mobility_model == "random_direction":
        state.headings = rng.uniform(0.0, _TWO_PI, size=n)
        state.speeds = rng.uniform(config.speed_min, config.speed_max, size=n)
        # Stagger initial epochs so per-node resampling is independent.
        state.epoch_remaining = rng.uniform(0.0, config.direction_epoch, size=n)
    elif config.mobility_model == "random_waypoint":
        state.waypoints = rng.uniform(0.0, side, size=(n, 2))
        state.speeds = rng.uniform(config.speed_min, config.speed_max, size=n)
        state.has_waypoint = np.ones(n, dtype=bool)
    return state


def step_all(state: MobilityState, config: SimConfig) -> None:
    """Advance every node by one tick, in place."""
    if state.model == "random_direction":
        _step_direction_all(state, config)
    elif state.model == "random_waypoint":
        _step_waypoint_all(state, config)
    else:
        raise ValueError(f"unknown mobility model {state.model!r}")


def _step_direction_all(state: MobilityState, config: SimConfig) -> None:
    dt = config.tick
    pos = state.positions
    step = state.speeds * dt
    pos[:, 0] += step * np.cos(state.headings)
    pos[:, 1] += step * np.sin(state.headings)

    for axis in (0, 1):
        comp = pos[:, axis]
        # Specular reflection; loop covers displacements past both walls.
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
    np.mod(state.headings, _TWO_PI, out=state.headings)

    state.epoch_remaining -= dt
    expired = state.epoch_remaining <= _EPOCH_EPS
    k = int(expired.sum())
    if k:
        rng = state.rng
        state.headings[expired] = rng.uniform(0.0, _TWO_PI, size=k)
        state.speeds[expired] = rng.uniform(config.speed_min, config.speed_max, size=k)
        state.epoch_remaining[expired] = config.direction_epoch


def _step_waypoint_all(state: MobilityState, config: SimConfig) -> None:
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
