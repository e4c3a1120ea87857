"""Node kinematics: uniform deployment, random direction with reflection, random waypoint.

Positions and waypoints are (N, 2) arrays in column-major order (`init_deployment`
builds them with `np.asfortranarray`), so their x and y columns are contiguous for
the step kernels, for `disk_edges` and for `DiskGraph.neighbor_ids`. Any layout
steps to the same bits; column-major is only faster.

Both kernels work over all nodes with boolean masks, and gather by index only the
few nodes that bounce, turn or draw new motion in a tick. Draws from the motion
stream come in ascending node order, one array per quantity.
"""

import math
from typing import Optional

import numpy as np

from .core import SimConfig, WorldGeometry

_TWO_PI = 2.0 * math.pi
_EPOCH_EPS = 1e-9  # absorbs float dust when epoch timers cross zero


class MobilityState:
    """Kinematics of the whole deployment, stored as arrays for vectorized stepping.

    `displacement` caches each random-direction node's move over one tick,
    `speed * tick * (cos(heading), sin(heading))`, column-major like `positions`.
    The direction kernel recomputes it, with that expression, for every node whose
    heading or speed it changes. Code that sets `headings` or `speeds` itself must
    do the same. A state built here has zero speeds and zero displacement.

    Headings lie in [0, 2π]. The kernel reduces modulo 2π only the headings it
    bounces and any at exactly 2π.
    """

    def __init__(self, model: str, side: float, positions: np.ndarray,
                 rng: Optional[np.random.Generator] = None):
        n = len(positions)
        self.model = model
        self.side = side
        self.positions = positions
        self.headings = np.zeros(n)
        self.speeds = np.zeros(n)
        self.displacement = np.zeros((n, 2), order="F")
        self.epoch_remaining = np.zeros(n)
        self.waypoints = np.zeros((n, 2), order="F")
        self.has_waypoint = np.zeros(n, dtype=bool)
        self.pause_remaining = np.zeros(n)
        self.rng = rng

    @property
    def n_nodes(self) -> int:
        return len(self.positions)


def init_deployment(config: SimConfig, geometry: WorldGeometry, rng: np.random.Generator,
                    motion_rng: np.random.Generator) -> MobilityState:
    """Deploy N nodes i.i.d. uniform on the square and sample their initial motion state.

    `rng` drives the deployment draws; `motion_rng` drives all later kinematic
    resampling.
    """
    n = config.n_nodes
    side = geometry.side
    positions = np.asfortranarray(rng.uniform(0.0, side, size=(n, 2)))
    state = MobilityState(config.mobility_model, side, positions, motion_rng)
    if config.mobility_model == "random_direction":
        state.headings = rng.uniform(0.0, _TWO_PI, size=n)
        state.speeds = rng.uniform(config.speed_min, config.speed_max, size=n)
        # Stagger initial epochs so per-node resampling is independent.
        state.epoch_remaining = rng.uniform(0.0, config.direction_epoch, size=n)
        _set_displacement(state, slice(None), config.tick)
    elif config.mobility_model == "random_waypoint":
        state.waypoints = np.asfortranarray(rng.uniform(0.0, side, size=(n, 2)))
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


def _set_displacement(state: MobilityState, nodes, dt: float) -> None:
    step = state.speeds[nodes] * dt
    headings = state.headings[nodes]
    state.displacement[nodes, 0] = step * np.cos(headings)
    state.displacement[nodes, 1] = step * np.sin(headings)


def _step_direction_all(state: MobilityState, config: SimConfig) -> None:
    dt = config.tick
    side = state.side
    pos = state.positions
    pos += state.displacement

    # A heading changes where its node bounces. A stored heading of exactly 2π (the
    # mod of a bounce to -tiny) changes too: the next tick's mod wraps it to 0.
    outside = (pos < 0.0) | (pos > side)
    changed = outside[:, 0] | outside[:, 1] | (state.headings >= _TWO_PI)
    nodes = np.flatnonzero(changed)
    if nodes.size:
        # A few nodes a tick: plain floats, whose arithmetic and % match numpy's bits.
        xs, ys = pos[nodes, 0].tolist(), pos[nodes, 1].tolist()
        headings = state.headings[nodes].tolist()
        for j, (x, y, h) in enumerate(zip(xs, ys, headings)):
            # Specular reflection; each loop covers displacements past both walls.
            while x < 0.0 or x > side:
                x = -x if x < 0.0 else 2.0 * side - x
                h = math.pi - h
            while y < 0.0 or y > side:
                y = -y if y < 0.0 else 2.0 * side - y
                h = -h
            xs[j], ys[j], headings[j] = x, y, h % _TWO_PI
        pos[nodes, 0] = xs
        pos[nodes, 1] = ys
        state.headings[nodes] = headings

    state.epoch_remaining -= dt
    expired = state.epoch_remaining <= _EPOCH_EPS
    k = int(np.count_nonzero(expired))
    if k:
        rng = state.rng
        state.headings[expired] = rng.uniform(0.0, _TWO_PI, size=k)
        state.speeds[expired] = rng.uniform(config.speed_min, config.speed_max, size=k)
        state.epoch_remaining[expired] = config.direction_epoch
        changed |= expired
        nodes = np.flatnonzero(changed)
    if nodes.size:
        _set_displacement(state, nodes, dt)


def _step_waypoint_all(state: MobilityState, config: SimConfig) -> None:
    dt = config.tick
    pos = state.positions
    paused = state.pause_remaining > 0.0
    np.subtract(state.pause_remaining, dt, out=state.pause_remaining, where=paused)
    moving = ~paused

    need = moving & ~state.has_waypoint
    k = int(np.count_nonzero(need))
    if k:
        rng = state.rng
        state.waypoints[need] = rng.uniform(0.0, state.side, size=(k, 2))
        state.speeds[need] = rng.uniform(config.speed_min, config.speed_max, size=k)
        state.has_waypoint |= need

    delta = state.waypoints - pos
    dist = np.hypot(delta[:, 0], delta[:, 1])
    step = state.speeds * dt
    arrived = moving & (dist <= step)
    np.copyto(pos, state.waypoints, where=arrived[:, None])
    state.has_waypoint &= ~arrived
    np.copyto(state.pause_remaining, config.pause_time, where=arrived)

    go = moving ^ arrived  # arrived is a subset of moving
    # Outside go, step keeps its finite value, so the product below stays finite.
    frac = np.divide(step, dist, out=step, where=go)
    np.add(pos, delta * frac[:, None], out=pos, where=go[:, None])
