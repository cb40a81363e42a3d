import numpy as np
import pytest

from fleetopt.design_space import SpaceTooLargeError, default_space
from fleetopt.device_world import accuracy_value, energy_value, latency_value
from fleetopt.search import (
    ConstraintSpec,
    SearchParams,
    brute_force_argmin,
    evolutionary_search,
)


def all_min(space):
    return (0,) * space.encoding_width


def all_max(space):
    return tuple(len(axis) - 1 for axis in space._axes())


def true_objective(lambda1, lambda2, d, space):
    """-accuracy + lambda1 * energy + lambda2 * latency from the analytic model."""

    def objective(x):
        p = space.design_at(x)
        return (
            -accuracy_value(p, space) + lambda1 * energy_value(p, d) + lambda2 * latency_value(p, d)
        )

    return objective


def true_latency_of(d, space):
    return lambda x: latency_value(space.design_at(x), d)


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(population=1)
    with pytest.raises(ValueError):
        SearchParams(generations=0)
    with pytest.raises(ValueError):
        SearchParams(mutation_rate=1.5)
    with pytest.raises(ValueError):
        SearchParams(elite_fraction=1.0)


def test_constraint_spec_validation_and_active():
    with pytest.raises(TypeError):
        ConstraintSpec()  # the latency bound is required
    with pytest.raises(ValueError):
        ConstraintSpec(latency_bound=0.0)
    with pytest.raises(ValueError):
        ConstraintSpec(latency_bound=1.0, energy_bound=-1.0)


def test_heavier_latency_weight_selects_faster_design(reduced, proxy):
    def argmin_latency_at(lam2):
        x = brute_force_argmin(true_objective(0.0, lam2, proxy, reduced), reduced)
        return latency_value(reduced.design_at(x), proxy)

    assert argmin_latency_at(0.5) < argmin_latency_at(0.05)


def test_scalarization_monotone_in_each_weight(reduced, proxy):
    lat_prev = np.inf
    for lam2 in (0.0, 0.05, 0.2, 1.0, 5.0):
        x = brute_force_argmin(true_objective(0.1, lam2, proxy, reduced), reduced)
        lat = latency_value(reduced.design_at(x), proxy)
        assert lat <= lat_prev
        lat_prev = lat
    en_prev = np.inf
    for lam1 in (0.0, 0.05, 0.2, 1.0, 5.0):
        x = brute_force_argmin(true_objective(lam1, 0.1, proxy, reduced), reduced)
        en = energy_value(reduced.design_at(x), proxy)
        assert en <= en_prev
        en_prev = en


def test_constant_objective_returns_lexicographically_smallest_visited(reduced):
    visited = []

    def objective(x):
        visited.append(x)
        return 1.0

    result = evolutionary_search(objective, reduced, SearchParams(seed=5))
    assert result == min(visited)


def test_objective_evaluations_within_budget(reduced):
    calls = [0]

    def objective(x):
        calls[0] += 1
        return float(sum(x))

    params = SearchParams(population=16, generations=10, seed=3)
    evolutionary_search(objective, reduced, params)
    assert calls[0] <= 16 * 10


def test_evolutionary_search_deterministic(reduced, proxy):
    params = SearchParams(seed=11)
    a = evolutionary_search(true_latency_of(proxy, reduced), reduced, params)
    b = evolutionary_search(true_latency_of(proxy, reduced), reduced, params)
    assert a == b


def test_brute_force_monotone_objective_returns_all_min(reduced, proxy):
    x = brute_force_argmin(true_latency_of(proxy, reduced), reduced)
    assert x == all_min(reduced)


def test_brute_force_negative_accuracy_returns_all_max(reduced):
    x = brute_force_argmin(lambda x: -accuracy_value(reduced.design_at(x), reduced), reduced)
    assert x == all_max(reduced)


def test_brute_force_refuses_oversized_space():
    with pytest.raises(SpaceTooLargeError):
        brute_force_argmin(lambda x: 0.0, default_space(), limit=1000)
