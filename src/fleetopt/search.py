"""Minimizers over the design space and the constraint spec they serve.

Every tie anywhere in this module breaks lexicographically on the design's
index tuple, so results are total functions of (objective, generator) and two
runs can be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design_space import DesignSpace, crossover, enumerate_all, mutate, sample_rows


@dataclass(frozen=True)
class SearchParams:
    population: int = 32
    generations: int = 30
    mutation_rate: float = 0.1
    elite_fraction: float = 0.25

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population: must be >= 2")
        if self.generations < 1:
            raise ValueError("generations: must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate: must be in [0, 1]")
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError("elite_fraction: must be in (0, 1)")


FLEET_STREAM, TRAINING_STREAM, PROXY_STREAM, GA_STREAM, CALIBRATION_STREAM = 0, 1, 2, 3, 101


def stream(seed: int, stream_id: int, *key: int) -> np.random.Generator:
    """The random stream stream_id of the run with this scenario seed; key
    picks one member of a keyed family. Every named stream of a run comes from
    here, and child streams are spawned from these (Generator.spawn):

        0    FLEET_STREAM        device fleet
        1    TRAINING_STREAM     predictor and optimizer training
        2    PROXY_STREAM        proxy optimization: rank-gate probes
        3    GA_STREAM           inner GA search, keyed by the t-cache key
        101  CALIBRATION_STREAM  bound calibration

    A keyed stream's words end in the key's length: SeedSequence pads short
    entropy with zeros, so [seed, 3, 5] and [seed, 3, 5, 0] would be one."""
    return np.random.default_rng([seed, stream_id, *key, len(key)] if key else [seed, stream_id])


@dataclass(frozen=True)
class ConstraintSpec:
    """Hard bounds: a latency bound always, an energy bound when present."""

    latency_bound: float
    energy_bound: float | None = None

    def __post_init__(self):
        if self.latency_bound <= 0:
            raise ValueError("latency_bound must be positive")
        if self.energy_bound is not None and self.energy_bound <= 0:
            raise ValueError("energy_bound must be positive when present")


def evolutionary_search(
    objective,
    space: DesignSpace,
    params: SearchParams,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Elitist GA over the discrete space, drawing from rng; returns the best
    design ever seen.

    The population is an (n, w) index matrix, bred a generation at a time.
    objective maps an (m, w) index matrix to m values; each generation's
    designs not seen before are scored in one call, so there are at most
    `generations` calls on at most population * generations rows.
    """
    values: dict[tuple[int, ...], float] = {}
    population = sample_rows(space, rng, params.population)
    elite_count = max(1, int(params.population * params.elite_fraction))
    best: tuple[float, tuple[int, ...]] | None = None
    for gen in range(params.generations):
        rows = list(map(tuple, population.tolist()))
        unseen = list(dict.fromkeys(x for x in rows if x not in values))
        if unseen:
            scores = np.asarray(objective(np.array(unseen)), dtype=float).tolist()
            values.update(zip(unseen, scores, strict=True))
        scored = sorted((values[x], x) for x in rows)
        if best is None or scored[0] < best:
            best = scored[0]
        if gen == params.generations - 1:
            break
        elites = np.array([x for _, x in scored[:elite_count]])
        parents = rng.integers(elite_count, size=(2, params.population - elite_count))
        children = crossover(elites[parents[0]], elites[parents[1]], rng)
        population = np.vstack([elites, mutate(children, params.mutation_rate, space, rng)])
    assert best is not None
    return best[1]


# Rows per objective call in brute_force_argmin: bounds the matrix an exhaustive
# scan hands the objective at once.
BRUTE_FORCE_CHUNK = 4096


def brute_force_argmin(
    objective, space: DesignSpace, limit: int | None = 1_000_000
) -> tuple[int, ...]:
    """Exhaustive scan in lexicographic order with the row objective of
    evolutionary_search, BRUTE_FORCE_CHUNK rows per call; the first minimum
    wins, which is the same tie-break evolutionary_search uses."""
    designs = np.array(enumerate_all(space, limit))
    best_i, best_v = None, np.inf
    for start in range(0, len(designs), BRUTE_FORCE_CHUNK):
        v = np.asarray(objective(designs[start : start + BRUTE_FORCE_CHUNK]), dtype=float)
        i = int(np.argmin(v))
        if v[i] < best_v:
            best_i, best_v = start + i, v[i]
    assert best_i is not None
    return tuple(designs[best_i].tolist())
