"""Scenario configuration: one JSON document driving a whole run.

Keys starting with "_" are ignored everywhere (comment convention); any other
key the parser does not know is an error. The settings dataclasses are the
one source of the keys, their kinds and their defaults (see SECTIONS). Every
value is type- and range-checked here, so a bad config fails before a run
starts, and every validation error names the offending key path so it is a
one-line fix. The CLI maps ConfigError to its own exit code.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

from .design_space import DesignSpace, default_space, reduced_space
from .device_world import DEFAULT_QUANT_SPEEDUP, QUANT_PENALTY, FleetConfig
from .search import SearchParams
from .surrogate import DEFAULT_HIDDEN, TrainingSettings


class ConfigError(ValueError):
    pass


def _check(ok: bool, path: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{path}: {rule}")


@dataclass(frozen=True)
class OptimizeSettings:
    latency_percentile: float = 40.0
    energy_percentile: float | None = None
    monotonicity_threshold: float = 0.9
    probe_count: int = 20
    mu: float = 1e-4
    optimizer_hidden: tuple[int, ...] = DEFAULT_HIDDEN
    optimizer_epochs: int = 2000

    def __post_init__(self):
        # messages read "field: rule" so a config parser can prefix the section
        for name, ok, rule in (
            ("latency_percentile", 0 < self.latency_percentile < 100, "must be in (0, 100)"),
            ("energy_percentile",
             self.energy_percentile is None or 0 < self.energy_percentile < 100,
             "must be in (0, 100)"),
            # Spearman rho lies in [-1, 1]; a threshold above 1 rejects every proxy
            ("monotonicity_threshold", -1.0 <= self.monotonicity_threshold <= 1.0,
             "must be in [-1, 1]"),
            ("probe_count", self.probe_count >= 10, "must be >= 10"),
            ("mu", self.mu >= 0, "must be >= 0"),
            ("optimizer_epochs", self.optimizer_epochs >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ValueError(f"{name}: {rule}")


@dataclass(frozen=True)
class Scenario:
    seed: int
    approach: str = "proxy"
    space: DesignSpace = field(default_factory=default_space)
    fleet: FleetConfig = FleetConfig()
    samples_per_device: int = 500
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    hyper: TrainingSettings = TrainingSettings()
    search: SearchParams = SearchParams()
    granularity: float = 0.001
    delta_fraction: float = 0.02
    lambda_count: int = 4
    lambda_max: float = 1.0
    optimize: OptimizeSettings = OptimizeSettings()

    def __post_init__(self):
        if self.approach not in ("proxy", "amortized"):
            raise ConfigError(f"approach: must be 'proxy' or 'amortized', got {self.approach!r}")
        # search.stream takes the seed as one 32-bit word; a larger seed would
        # split into several and could name another seed's streams
        _check(0 <= self.seed < 2**32, "seed", "must be in [0, 2**32)")
        # one design makes every rank-gate probe equal, so its correlation is undefined
        _check(self.space.cardinality >= 2, "space", "must hold at least 2 designs")
        _check(self.samples_per_device >= 2, "predictor.samples_per_device", "must be >= 2")
        _check(0 < self.granularity < 1, "bisection.granularity", "must be in (0, 1)")
        _check(0 < self.delta_fraction < 1, "bisection.delta_fraction", "must be in (0, 1)")
        _check(self.lambda_count >= 1, "lambda_grid.count_per_axis", "must be >= 1")
        _check(self.lambda_max > 0, "lambda_grid.max_lambda", "must be positive")
        _check(self.approach == "proxy" or self.fleet.n_training >= 2, "fleet.n_training",
               "amortized approach needs >= 2 training devices")


# What each config section fills: the Scenario field holding its settings
# class, whose fields are the section's keys, then flat Scenario fields by
# config key.
SECTIONS = {
    "fleet": ("fleet", {}),
    "predictor": ("hyper", {"samples_per_device": "samples_per_device", "hidden": "hidden"}),
    "search": ("search", {}),
    "bisection": (None, {"granularity": "granularity", "delta_fraction": "delta_fraction"}),
    "lambda_grid": (None, {"count_per_axis": "lambda_count", "max_lambda": "lambda_max"}),
    "optimize": ("optimize", {}),
}
# every key's default, which also gives its kind; seed 0 only gives the seed its kind
_DEFAULTS = Scenario(seed=0)


def _own_keys(settings) -> dict[str, str]:
    return {f.name: f.name for f in dataclasses.fields(settings)}


def _known(section, keys, path: str) -> dict:
    """section itself, once it is an object whose keys are all in keys or
    start with "_"."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in section:
        _check(key in keys or str(key).startswith("_"), f"{path}.{key}" if path else key,
               "unknown key")
    return section


_KIND_NAMES = {int: "integer", float: "finite number", str: "string"}


def _is_a(value, kind) -> bool:
    """A bool is never a number, an int is also a float, and a float is finite
    (JSON parsing lets NaN and Infinity through)."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    return kind is not float or abs(value) <= sys.float_info.max


def _value(value, default, path: str):
    """value as the kind of default. A tuple default takes a list of positive
    values of its items' kind; a null default takes null or a float."""
    if isinstance(default, tuple):
        kind = type(default[0])
        if not isinstance(value, list) or not all(_is_a(v, kind) and v > 0 for v in value):
            raise ConfigError(f"{path}: expected a list of positive {_KIND_NAMES[kind]}s")
        return tuple(value)
    if value is None and default is None:
        return None
    kind = float if default is None else type(default)
    if not _is_a(value, kind):
        raise ConfigError(f"{path}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _read(section: dict, names: dict[str, str], defaults, path: str) -> dict:
    """{field: value} for each key of section that names maps to a field of
    defaults, read as the kind of that field's default."""
    return {name: _value(section[key], getattr(defaults, name), f"{path}.{key}" if path else key)
            for key, name in names.items() if key in section}


def _build(cls, path: str, **kwargs):
    """cls(**kwargs), its ValueError ("field: rule") turned into a ConfigError
    on the key path."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from None


def _parse_space(raw) -> DesignSpace:
    """"default", "reduced", or an object of DesignSpace fields, each
    defaulting to reduced_space()'s."""
    if raw in (None, "default"):
        return default_space()
    if raw == "reduced":
        return reduced_space()
    if not isinstance(raw, dict):
        raise ConfigError("space: expected 'default', 'reduced' or an object")
    base = reduced_space()
    keys = _own_keys(base)
    choices = _read(_known(raw, keys, "space"), keys, base, "space")
    priced = QUANT_PENALTY.keys() & DEFAULT_QUANT_SPEEDUP.keys()
    _check(set(choices.get("bits_choices", ())) <= priced, "space.bits_choices",
           f"each bit-width must be one of {sorted(priced)}")
    try:
        return dataclasses.replace(base, **choices)
    except ValueError as e:
        raise ConfigError(f"space: {e}") from None


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _known(raw, ("seed", "approach", "space", *SECTIONS), "")
    _check("seed" in raw, "seed", "required")
    kwargs = _read(raw, {"seed": "seed", "approach": "approach"}, _DEFAULTS, "")
    if "space" in raw:
        kwargs["space"] = _parse_space(raw["space"])
    for name, (settings, flat) in SECTIONS.items():
        base = getattr(_DEFAULTS, settings) if settings else None
        own = _own_keys(base) if settings else {}
        section = _known(raw.get(name, {}), (*own, *flat), name)
        if settings:
            kwargs[settings] = _build(type(base), name, **_read(section, own, base, name))
        kwargs.update(_read(section, flat, _DEFAULTS, name))
    return Scenario(**kwargs)


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:  # a directory, no permission
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    return scenario_from_dict(raw)
