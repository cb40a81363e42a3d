"""Scenario configuration: one JSON document driving a whole run.

Keys starting with "_" are ignored everywhere (comment convention); any other
key the parser does not know is an error. Every value is type- and
range-checked here, so a bad config fails before a run starts, and every
validation error names the offending key path so it is a one-line fix. The
CLI maps ConfigError to its own exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .design_space import DesignSpace, default_space, reduced_space
from .device_world import DEFAULT_QUANT_SPEEDUP, QUANT_PENALTY, FleetConfig
from .search import SearchParams
from .surrogate import TrainingSettings


class ConfigError(ValueError):
    pass


SECTION_KEYS = {
    "fleet": ("n_training", "n_synthetic", "n_holdout_monotone", "n_holdout_adversarial"),
    "predictor": ("samples_per_device", "hidden", "epochs", "batch_size", "learning_rate",
                  "momentum"),
    "search": ("population", "generations", "mutation_rate", "elite_fraction"),
    "bisection": ("granularity", "delta_fraction"),
    "lambda_grid": ("count_per_axis", "max_lambda"),
    "optimize": ("latency_percentile", "energy_percentile", "monotonicity_threshold",
                 "probe_count", "mu", "exploration_rounds", "explore_size",
                 "optimizer_hidden", "optimizer_epochs"),
    "space": ("num_stages", "depth_choices", "width_choices", "kernel_choices", "bits_choices"),
}
TOP_KEYS = ("seed", "approach", *SECTION_KEYS)


def _check(ok: bool, path: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{path}: {rule}")


def _known(section, keys: tuple[str, ...], path: str) -> dict:
    """section itself, once it is an object whose keys are all in keys or
    start with "_"."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in section:
        _check(key in keys or str(key).startswith("_"), f"{path}.{key}" if path else key,
               "unknown key")
    return section


def _get(section: dict, key: str, kind, default, path: str):
    """section[key] as kind; null is accepted only where the default is null,
    a bool is never a number, and a float is finite (JSON parsing lets NaN and
    Infinity through)."""
    value = section.get(key, default)
    if value is None and default is None:
        return None
    number = (int, float) if kind is float else kind
    if not isinstance(value, number) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    _check(kind is not float or math.isfinite(value), f"{path}.{key}", "must be finite")
    return float(value) if kind is float else value


def _build(cls, path: str, **kwargs):
    """cls(**kwargs), its ValueError ("field: rule") turned into a ConfigError
    on the key path."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from None


def _layers(section: dict, key: str, path: str) -> tuple[int, ...]:
    value = section.get(key, [64, 64])
    if not isinstance(value, list) or not all(
        isinstance(h, int) and not isinstance(h, bool) and h > 0 for h in value
    ):
        raise ConfigError(f"{path}.{key}: expected a list of positive integers")
    return tuple(value)


@dataclass(frozen=True)
class OptimizeSettings:
    latency_percentile: float = 40.0
    energy_percentile: float | None = None
    monotonicity_threshold: float = 0.9
    probe_count: int = 20
    mu: float = 1e-4
    exploration_rounds: int = 0
    explore_size: int = 0
    optimizer_hidden: tuple[int, ...] = (64, 64)
    optimizer_epochs: int = 2000

    def __post_init__(self):
        _check(0 < self.latency_percentile < 100, "optimize.latency_percentile",
               "must be in (0, 100)")
        _check(self.energy_percentile is None or 0 < self.energy_percentile < 100,
               "optimize.energy_percentile", "must be in (0, 100)")
        # Spearman rho lies in [-1, 1]; a threshold above 1 rejects every proxy
        _check(-1.0 <= self.monotonicity_threshold <= 1.0, "optimize.monotonicity_threshold",
               "must be in [-1, 1]")
        _check(self.probe_count >= 10, "optimize.probe_count", "must be >= 10")
        _check(self.mu >= 0, "optimize.mu", "must be >= 0")
        _check(self.exploration_rounds >= 0, "optimize.exploration_rounds", "must be >= 0")
        _check(self.explore_size >= (1 if self.exploration_rounds else 0),
               "optimize.explore_size", "must be >= 1 with exploration rounds, else >= 0")
        _check(self.optimizer_epochs >= 1, "optimize.optimizer_epochs", "must be >= 1")


@dataclass(frozen=True)
class Scenario:
    seed: int
    approach: str = "proxy"
    space: DesignSpace = field(default_factory=default_space)
    fleet: FleetConfig = FleetConfig()
    samples_per_device: int = 500
    hidden: tuple[int, ...] = (64, 64)
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
        _check(self.seed >= 0, "seed", "must be >= 0")
        _check(self.samples_per_device >= 2, "predictor.samples_per_device", "must be >= 2")
        _check(0 < self.granularity < 1, "bisection.granularity", "must be in (0, 1)")
        _check(0 < self.delta_fraction < 1, "bisection.delta_fraction", "must be in (0, 1)")
        _check(self.lambda_count >= 1, "lambda_grid.count_per_axis", "must be >= 1")
        _check(self.lambda_max > 0, "lambda_grid.max_lambda", "must be positive")
        _check(self.approach == "proxy" or self.fleet.n_training >= 2, "fleet.n_training",
               "amortized approach needs >= 2 training devices")


def _parse_space(raw, path: str) -> DesignSpace:
    if raw is None or raw == "default":
        return default_space()
    if raw == "reduced":
        return reduced_space()
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected 'default', 'reduced' or an object")
    _known(raw, SECTION_KEYS["space"], path)
    choices = {"depth_choices": [1, 2], "width_choices": [0.5, 1.0],
               "kernel_choices": [3, 5], "bits_choices": [8, 32]}
    for key, default in choices.items():
        values = raw.get(key, default)
        kind = (int, float) if key == "width_choices" else int
        if not isinstance(values, list) or not all(
            isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v) for v in values
        ):
            raise ConfigError(f"{path}.{key}: expected a list of finite numbers")
        choices[key] = tuple(values)
    priced = QUANT_PENALTY.keys() & DEFAULT_QUANT_SPEEDUP.keys()
    _check(set(choices["bits_choices"]) <= priced, f"{path}.bits_choices",
           f"each bit-width must be one of {sorted(priced)}")
    num_stages = _get(raw, "num_stages", int, 2, path)
    try:
        return DesignSpace(num_stages=num_stages, **choices)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _known(raw, TOP_KEYS, "")
    if "seed" not in raw:
        raise ConfigError("seed: required")
    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed: expected integer, got {seed!r}")
    fleet_raw, pred, sea, bis, lam, opt = (
        _known(raw.get(name, {}), SECTION_KEYS[name], name)
        for name in ("fleet", "predictor", "search", "bisection", "lambda_grid", "optimize")
    )

    fleet = _build(
        FleetConfig, "fleet",
        n_training=_get(fleet_raw, "n_training", int, 8, "fleet"),
        n_synthetic=_get(fleet_raw, "n_synthetic", int, 16, "fleet"),
        n_holdout_monotone=_get(fleet_raw, "n_holdout_monotone", int, 8, "fleet"),
        n_holdout_adversarial=_get(fleet_raw, "n_holdout_adversarial", int, 4, "fleet"),
    )
    hyper = _build(
        TrainingSettings, "predictor",
        learning_rate=_get(pred, "learning_rate", float, 1e-2, "predictor"),
        momentum=_get(pred, "momentum", float, 0.9, "predictor"),
        epochs=_get(pred, "epochs", int, 2000, "predictor"),
        batch_size=_get(pred, "batch_size", int, 32, "predictor"),
    )
    search = _build(
        SearchParams, "search",
        population=_get(sea, "population", int, 32, "search"),
        generations=_get(sea, "generations", int, 30, "search"),
        mutation_rate=_get(sea, "mutation_rate", float, 0.1, "search"),
        elite_fraction=_get(sea, "elite_fraction", float, 0.25, "search"),
        seed=seed,
    )
    optimize = OptimizeSettings(
        latency_percentile=_get(opt, "latency_percentile", float, 40.0, "optimize"),
        energy_percentile=_get(opt, "energy_percentile", float, None, "optimize"),
        monotonicity_threshold=_get(opt, "monotonicity_threshold", float, 0.9, "optimize"),
        probe_count=_get(opt, "probe_count", int, 20, "optimize"),
        mu=_get(opt, "mu", float, 1e-4, "optimize"),
        exploration_rounds=_get(opt, "exploration_rounds", int, 0, "optimize"),
        explore_size=_get(opt, "explore_size", int, 0, "optimize"),
        optimizer_hidden=_layers(opt, "optimizer_hidden", "optimize"),
        optimizer_epochs=_get(opt, "optimizer_epochs", int, 2000, "optimize"),
    )
    return Scenario(
        seed=seed,
        approach=_get(raw, "approach", str, "proxy", "top level"),
        space=_parse_space(raw.get("space"), "space"),
        fleet=fleet,
        samples_per_device=_get(pred, "samples_per_device", int, 500, "predictor"),
        hidden=_layers(pred, "hidden", "predictor"),
        hyper=hyper,
        search=search,
        granularity=_get(bis, "granularity", float, 0.001, "bisection"),
        delta_fraction=_get(bis, "delta_fraction", float, 0.02, "bisection"),
        lambda_count=_get(lam, "count_per_axis", int, 4, "lambda_grid"),
        lambda_max=_get(lam, "max_lambda", float, 1.0, "lambda_grid"),
        optimize=optimize,
    )


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    return scenario_from_dict(raw)
