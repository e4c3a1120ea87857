"""Node kinematics: uniform deployment, random direction with reflection, random waypoint.

Positions and waypoints are (N, 2) arrays in column-major order (`init_deployment`
builds them with `np.asfortranarray`), so their x and y columns are contiguous for
the step kernels, for `disk_edges` and for `DiskGraph.neighbor_ids`. Any layout
steps to the same bits; column-major is only faster.

Both kernels build their few full-length masks in place, turn each into the
ascending index array of the nodes it selects with one `nonzero()` call, and
gather and scatter by that index only the few nodes that bounce, turn, draw new
motion or arrive in a tick. Draws from the motion stream come in ascending node
order, one array per quantity.
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
    outside = pos < 0.0
    outside |= pos > side
    changed = outside[:, 0] | outside[:, 1]
    changed |= state.headings >= _TWO_PI
    nodes = changed.nonzero()[0]
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
    expired = (state.epoch_remaining <= _EPOCH_EPS).nonzero()[0]
    k = expired.size
    if k:
        rng = state.rng
        state.headings[expired] = rng.uniform(0.0, _TWO_PI, size=k)
        state.speeds[expired] = rng.uniform(config.speed_min, config.speed_max, size=k)
        state.epoch_remaining[expired] = config.direction_epoch
        changed[expired] = True
        nodes = changed.nonzero()[0]
    if nodes.size:
        _set_displacement(state, nodes, dt)


def _step_waypoint_all(state: MobilityState, config: SimConfig) -> None:
    dt = config.tick
    pos = state.positions
    paused = state.pause_remaining > 0.0
    np.subtract(state.pause_remaining, dt, out=state.pause_remaining, where=paused)
    moving = np.logical_not(paused, out=paused)

    need = (moving > state.has_waypoint).nonzero()[0]  # moving and without a waypoint
    k = need.size
    if k:
        rng = state.rng
        state.waypoints[need] = rng.uniform(0.0, state.side, size=(k, 2))
        state.speeds[need] = rng.uniform(config.speed_min, config.speed_max, size=k)
        state.has_waypoint[need] = True

    delta = state.waypoints - pos
    dist = np.hypot(delta[:, 0], delta[:, 1])
    step = state.speeds * dt
    arrived = ((dist <= step) & moving).nonzero()[0]
    if arrived.size:
        pos[arrived] = state.waypoints[arrived]
        state.has_waypoint[arrived] = False
        state.pause_remaining[arrived] = config.pause_time
        moving[arrived] = False

    # Outside moving, step keeps its finite value, so the product below stays finite.
    frac = np.divide(step, dist, out=step, where=moving)
    delta *= frac[:, None]
    np.add(pos, delta, out=pos, where=moving[:, None])
