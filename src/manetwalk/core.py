"""Run configuration, world geometry, and deterministic RNG streams."""

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

MOBILITY_MODELS = ("random_direction", "random_waypoint", "static")
WALK_STRATEGIES = ("self_repelling", "pure_random")

_U64 = (1 << 64) - 1
_REL_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration value violates an invariant."""


def list_of(parse):
    """A parser for a non-empty comma- or space-separated list of `parse` values."""
    def parse_list(text: str) -> tuple:
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty list")
        return tuple(parse(p) for p in parts)
    return parse_list


def _parse_comm_range(text: str) -> Optional[float]:
    if text.lower() == "none":
        return None
    return float(text)


def _key(default, parse, help_text: str):
    """A config key: its default, the parser of its file value and flag, and its help."""
    return field(default=default, metadata={"parse": parse, "help": help_text})


def _is_tick_multiple(interval: float, tick: float) -> bool:
    ratio = interval / tick
    k = round(ratio)
    return k >= 1 and abs(ratio - k) <= _REL_TOL * max(1.0, k)


@dataclass(frozen=True)
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
    milestones: Tuple[float, ...] = _key((0.5, 0.75, 0.85, 1.0), list_of(float),
                                         "coverage fractions, e.g. '0.5,0.75,0.85,1.0'")
    comm_range: Optional[float] = _key(None, _parse_comm_range,
                                       "override the derived communication range, meters")

    def __post_init__(self):
        """Check every invariant when built, replace() included, each violation a ConfigError
        naming its field; then normalize n_nodes to an int and milestones to sorted unique."""
        for key in fields(self):
            value = getattr(self, key.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key.name} must be finite, got {value}")
        min_nodes = 2 if self.comm_range is None else 1  # ln(1) = 0 derives no range
        if int(self.n_nodes) != self.n_nodes or self.n_nodes < min_nodes:
            raise ConfigError("n_nodes must be an integer >= 1, and >= 2 without a comm_range "
                              f"override, got {self.n_nodes}")
        if self.density <= 0:
            raise ConfigError(f"density must be positive, got {self.density}")
        if self.mobility_model not in MOBILITY_MODELS:
            raise ConfigError(
                f"unknown mobility_model {self.mobility_model!r}, expected one of {MOBILITY_MODELS}")
        if self.walk_strategy not in WALK_STRATEGIES:
            raise ConfigError(
                f"unknown walk_strategy {self.walk_strategy!r}, expected one of {WALK_STRATEGIES}")
        if self.speed_halfwidth < 0:
            raise ConfigError(f"speed_halfwidth must be >= 0, got {self.speed_halfwidth}")
        if self.speed_avg - self.speed_halfwidth < 0:
            raise ConfigError(
                f"negative minimum speed: speed_avg {self.speed_avg} - "
                f"speed_halfwidth {self.speed_halfwidth} < 0")
        if self.pause_time < 0:
            raise ConfigError(f"pause_time must be >= 0, got {self.pause_time}")
        if self.direction_epoch <= 0:
            raise ConfigError(f"direction_epoch must be positive, got {self.direction_epoch}")
        if self.tick <= 0:
            raise ConfigError(f"tick must be positive, got {self.tick}")
        if not _is_tick_multiple(self.hop_interval, self.tick):
            raise ConfigError(
                f"hop_interval not a multiple of tick ({self.hop_interval} vs {self.tick})")
        if self.max_sim_time <= 0:
            raise ConfigError(f"max_sim_time must be positive, got {self.max_sim_time}")
        if self.comm_range is not None and self.comm_range <= 0:
            raise ConfigError(f"comm_range override must be positive, got {self.comm_range}")
        if not self.milestones:
            raise ConfigError("milestones must be non-empty")
        normalized = tuple(sorted(set(float(m) for m in self.milestones)))
        for m in normalized:
            if not 0.0 < m <= 1.0:
                raise ConfigError(f"milestones must lie in (0, 1], got {m}")
        if normalized[-1] != 1.0:
            raise ConfigError("milestones must end at 1.0")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "milestones", normalized)

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


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Deterministic generator for one named consumer of the run seed.

    The label is folded in through SHA-256 so streams for different
    subsystems (deployment, mobility, walk, harness) never overlap and
    adding a consumer never perturbs the others.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    label_key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed & _U64, label_key]))


def geometry_for(config: SimConfig) -> WorldGeometry:
    """Deployment area and communication range of a run.

    Uses area = N / rho and, unless comm_range overrides it, R = sqrt(ln(N) / rho)
    (natural logarithm), so the disk graph over the deployment stays connected
    with high probability.
    """
    comm_range = config.comm_range
    if comm_range is None:
        comm_range = math.sqrt(math.log(config.n_nodes) / config.density)
    area = config.n_nodes / config.density
    return WorldGeometry(side=math.sqrt(area), area=area, comm_range=comm_range)


# --- flat key = value config files -----------------------------------------

CONFIG_PARSERS = {f.name: f.metadata["parse"] for f in fields(SimConfig)}


def parse_config_lines(lines, source="<config>", parsers=None) -> Dict[str, object]:
    """Parse flat `key = value` lines; an unknown or repeated key is a hard error."""
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
        if key in values:
            raise ConfigError(f"{source}:{lineno}: repeated key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def read_config_file(path, parsers=None) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh, source=str(path), parsers=parsers)


def config_from(file_values=None, flag_values=None) -> SimConfig:
    """Build a SimConfig from defaults, then file values, then CLI flags (flags win).

    A winning None, such as a `--comm_range none` flag, takes the key's default.
    """
    merged = {**(file_values or {}), **(flag_values or {})}
    unknown = set(merged) - set(CONFIG_PARSERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return SimConfig(**{k: v for k, v in merged.items() if v is not None})
