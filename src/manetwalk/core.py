"""Run configuration, world geometry, deterministic RNG streams, and the tick clock."""

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

MOBILITY_MODELS = ("random_direction", "random_waypoint", "static")
WALK_STRATEGIES = ("self_repelling", "pure_random")

_U64 = (1 << 64) - 1
_REL_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration value violates an invariant."""


def _parse_milestones(text: str) -> Tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty milestone list")
    return tuple(float(p) for p in parts)


def _parse_comm_range(text: str) -> Optional[float]:
    if text.lower() == "none":
        return None
    return float(text)


def _key(default, parse, help_text: str):
    """A config key: its default, the parser of its file value and flag, and its help."""
    return field(default=default, metadata={"parse": parse, "help": help_text})


@dataclass
class SimConfig:
    """All parameters of a single simulation run; each field is a config key."""

    n_nodes: int = _key(100, int, "number of nodes")
    density: float = _key(0.02, float, "nodes per square meter")
    mobility_model: str = _key("random_direction", str, " | ".join(MOBILITY_MODELS))
    speed_avg: float = _key(7.0, float, "average node speed, m/s")
    speed_halfwidth: float = _key(2.0, float, "speeds are uniform in [avg-hw, avg+hw]")
    pause_time: float = _key(2.0, float, "random-waypoint pause, seconds")
    direction_epoch: float = _key(1.0, float, "random-direction heading lifetime, seconds")
    tick: float = _key(0.1, float, "mobility integration step, seconds")
    hop_interval: float = _key(0.1, float, "token hop attempt period, seconds")
    walk_strategy: str = _key("self_repelling", str, " | ".join(WALK_STRATEGIES))
    seed: int = _key(1, int, "run seed (64-bit integer)")
    max_sim_time: float = _key(86400.0, float, "safety cutoff, simulated seconds")
    milestones: Tuple[float, ...] = _key((0.5, 0.75, 0.85, 1.0), _parse_milestones,
                                         "coverage fractions, e.g. '0.5,0.75,0.85,1.0'")
    comm_range: Optional[float] = _key(None, _parse_comm_range,
                                       "override the derived communication range, meters")

    @property
    def speed_min(self) -> float:
        return self.speed_avg - self.speed_halfwidth

    @property
    def speed_max(self) -> float:
        return self.speed_avg + self.speed_halfwidth


@dataclass(frozen=True)
class WorldGeometry:
    """Deployment square and communication range."""

    side: float        # meters
    area: float        # m^2
    comm_range: float  # meters


@dataclass
class Clock:
    """Simulation clock that accumulates whole ticks, never floating sums."""

    tick: float
    tick_index: int = 0

    @property
    def now(self) -> float:
        return self.tick_index * self.tick

    def advance(self) -> None:
        self.tick_index += 1


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Deterministic generator for one named consumer of the run seed.

    The label is folded in through SHA-256 so streams for different
    subsystems (deployment, mobility, walk, harness) never overlap and
    adding a consumer never perturbs the others.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    label_key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed & _U64, label_key]))


def derive_geometry(n_nodes: int, density: float) -> WorldGeometry:
    """Deployment area and communication range at the connectivity threshold.

    Uses area = N / rho and R = sqrt(ln(N) / rho) (natural logarithm), so the
    disk graph over the deployment stays connected with high probability.
    """
    if n_nodes < 2:
        raise ConfigError("n_nodes must be >= 2 to derive a communication range (ln(1) = 0)")
    if density <= 0:
        raise ConfigError(f"density must be positive, got {density}")
    area = n_nodes / density
    side = math.sqrt(area)
    comm_range = math.sqrt(math.log(n_nodes) / density)
    return WorldGeometry(side=side, area=area, comm_range=comm_range)


def geometry_for(config: SimConfig) -> WorldGeometry:
    """Geometry for a run, honoring an explicit comm_range override."""
    if config.comm_range is None:
        return derive_geometry(config.n_nodes, config.density)
    area = config.n_nodes / config.density
    return WorldGeometry(side=math.sqrt(area), area=area, comm_range=config.comm_range)


def _is_tick_multiple(interval: float, tick: float) -> bool:
    ratio = interval / tick
    k = round(ratio)
    return k >= 1 and abs(ratio - k) <= _REL_TOL * max(1.0, k)


def validate_config(config: SimConfig) -> SimConfig:
    """Check every SimConfig invariant; return the config with milestones normalized.

    Each violation raises a distinct ConfigError naming the offending field.
    """
    min_nodes = 2 if config.comm_range is None else 1  # ln(1) = 0 derives no range
    if int(config.n_nodes) != config.n_nodes or config.n_nodes < min_nodes:
        raise ConfigError("n_nodes must be an integer >= 1, and >= 2 without a comm_range "
                          f"override, got {config.n_nodes}")
    if config.density <= 0:
        raise ConfigError(f"density must be positive, got {config.density}")
    if config.mobility_model not in MOBILITY_MODELS:
        raise ConfigError(
            f"unknown mobility_model {config.mobility_model!r}, expected one of {MOBILITY_MODELS}")
    if config.walk_strategy not in WALK_STRATEGIES:
        raise ConfigError(
            f"unknown walk_strategy {config.walk_strategy!r}, expected one of {WALK_STRATEGIES}")
    if config.speed_halfwidth < 0:
        raise ConfigError(f"speed_halfwidth must be >= 0, got {config.speed_halfwidth}")
    if config.speed_avg - config.speed_halfwidth < 0:
        raise ConfigError(
            f"negative minimum speed: speed_avg {config.speed_avg} - "
            f"speed_halfwidth {config.speed_halfwidth} < 0")
    if config.pause_time < 0:
        raise ConfigError(f"pause_time must be >= 0, got {config.pause_time}")
    if config.direction_epoch <= 0:
        raise ConfigError(f"direction_epoch must be positive, got {config.direction_epoch}")
    if config.tick <= 0:
        raise ConfigError(f"tick must be positive, got {config.tick}")
    if not _is_tick_multiple(config.hop_interval, config.tick):
        raise ConfigError(
            f"hop_interval not a multiple of tick ({config.hop_interval} vs {config.tick})")
    if config.max_sim_time <= 0:
        raise ConfigError(f"max_sim_time must be positive, got {config.max_sim_time}")
    if config.comm_range is not None and config.comm_range <= 0:
        raise ConfigError(f"comm_range override must be positive, got {config.comm_range}")

    if not config.milestones:
        raise ConfigError("milestones must be non-empty")
    normalized = tuple(sorted(set(float(m) for m in config.milestones)))
    for m in normalized:
        if not 0.0 < m <= 1.0:
            raise ConfigError(f"milestones must lie in (0, 1], got {m}")
    if normalized[-1] != 1.0:
        raise ConfigError("milestones must end at 1.0")

    return replace(config, n_nodes=int(config.n_nodes), milestones=normalized)


# --- flat key = value config files -----------------------------------------

CONFIG_PARSERS = {f.name: f.metadata["parse"] for f in fields(SimConfig)}


def parse_config_lines(lines, source="<config>", parsers=None) -> Dict[str, object]:
    """Parse flat `key = value` lines; unknown keys are a hard error."""
    parsers = CONFIG_PARSERS if parsers is None else parsers
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in parsers:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def read_config_file(path) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh, source=str(path))


def config_from(file_values=None, flag_values=None) -> SimConfig:
    """Build a SimConfig from defaults, then file values, then CLI flags (flags win)."""
    merged: Dict[str, object] = {}
    for source in (file_values, flag_values):
        if source:
            merged.update({k: v for k, v in source.items() if v is not None})
    unknown = set(merged) - set(CONFIG_PARSERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "milestones" in merged:
        merged["milestones"] = tuple(merged["milestones"])
    return SimConfig(**merged)
