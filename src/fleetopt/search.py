"""Minimizers over the design space and the constraint spec they serve.

Every tie anywhere in this module breaks lexicographically on the design's
index tuple, so results are total functions of (objective, seed) and two runs
can be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design_space import DesignSpace, enumerate_all, crossover, mutate, sample_uniform


@dataclass(frozen=True)
class SearchParams:
    population: int = 32
    generations: int = 30
    mutation_rate: float = 0.1
    elite_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population: must be >= 2")
        if self.generations < 1:
            raise ValueError("generations: must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate: must be in [0, 1]")
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError("elite_fraction: must be in (0, 1)")


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
) -> tuple[int, ...]:
    """Elitist GA over the discrete space; returns the best design ever seen.

    Duplicate designs are evaluated once (cached), so objective calls are at
    most population * generations.
    """
    rng = np.random.default_rng(params.seed)
    values: dict[tuple[int, ...], float] = {}

    def value_of(x: tuple[int, ...]) -> float:
        if x not in values:
            values[x] = float(objective(x))
        return values[x]

    population = [sample_uniform(space, rng) for _ in range(params.population)]
    elite_count = max(1, int(params.population * params.elite_fraction))
    best: tuple[float, tuple[int, ...]] | None = None
    for gen in range(params.generations):
        scored = sorted((value_of(x), x) for x in population)
        if best is None or scored[0] < best:
            best = scored[0]
        if gen == params.generations - 1:
            break
        elites = [x for _, x in scored[:elite_count]]
        children = []
        while len(children) < params.population - elite_count:
            pa = elites[int(rng.integers(elite_count))]
            pb = elites[int(rng.integers(elite_count))]
            children.append(mutate(crossover(pa, pb, space, rng), params.mutation_rate, space, rng))
        population = elites + children
    assert best is not None
    return best[1]


def brute_force_argmin(
    objective, space: DesignSpace, limit: int | None = 1_000_000
) -> tuple[int, ...]:
    """Exhaustive scan in lexicographic order; first minimum wins, which is the
    same tie-break evolutionary_search uses."""
    best_x = None
    best_v = np.inf
    for x in enumerate_all(space, limit):
        v = float(objective(x))
        if v < best_v:
            best_v, best_x = v, x
    assert best_x is not None
    return best_x
