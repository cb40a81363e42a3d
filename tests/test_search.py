import numpy as np
import pytest

from conftest import rows_of
from fleetopt import search
from fleetopt.design_space import DesignSpace, SpaceTooLargeError, default_space, enumerate_all
from fleetopt.device_world import accuracy_value, energy_value, latency_value
from fleetopt.search import (
    ConstraintSpec,
    GA_STREAM,
    SearchParams,
    brute_force_argmin,
    evolutionary_search,
    stream,
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

    return rows_of(objective)


def true_latency_of(d, space):
    return rows_of(lambda x: latency_value(space.design_at(x), d))


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


def test_constant_objective_returns_lexicographically_smallest_visited(reduced, dspace):
    for space in (reduced, dspace):
        visited = []

        def objective(X):
            visited.extend(map(tuple, X.tolist()))
            return np.ones(len(X))

        result = evolutionary_search(objective, space, SearchParams(), np.random.default_rng(5))
        assert result == min(visited)
    assert brute_force_argmin(lambda X: np.ones(len(X)), reduced) == all_min(reduced)


def test_objective_evaluations_within_budget(reduced, dspace):
    params = SearchParams(population=16, generations=10)
    for space in (reduced, dspace):
        calls, rows = [0], set()

        def objective(X):
            calls[0] += 1
            batch = list(map(tuple, X.tolist()))
            assert rows.isdisjoint(batch) and len(set(batch)) == len(batch)  # scored once
            rows.update(batch)
            return X.sum(axis=1).astype(float)

        evolutionary_search(objective, space, params, np.random.default_rng(3))
        assert calls[0] <= 10
        assert len(rows) <= 16 * 10


def test_evolutionary_search_deterministic(reduced, proxy):
    params = SearchParams()
    a = evolutionary_search(true_latency_of(proxy, reduced), reduced, params,
                            np.random.default_rng(11))
    b = evolutionary_search(true_latency_of(proxy, reduced), reduced, params,
                            np.random.default_rng(11))
    assert a == b


def test_brute_force_monotone_objective_returns_all_min(reduced, proxy):
    x = brute_force_argmin(true_latency_of(proxy, reduced), reduced)
    assert x == all_min(reduced)
    # on a space of more than two chunks, a minimum that starts at the last row
    # of the first chunk and runs on through the next wins at that first row
    big = DesignSpace(2, (1, 2, 3, 4), (0.5, 0.75, 1.0, 1.25), (3, 5, 7), (4, 8, 16, 32))
    assert big.cardinality > 2 * search.BRUTE_FORCE_CHUNK
    dims = [len(axis) for axis in big._axes()]
    first = search.BRUTE_FORCE_CHUNK - 1

    def objective(X):
        return (np.ravel_multi_index(X.T, dims) < first).astype(float)

    assert brute_force_argmin(objective, big) == enumerate_all(big)[first]


def test_brute_force_negative_accuracy_returns_all_max(reduced):
    x = brute_force_argmin(rows_of(lambda x: -accuracy_value(reduced.design_at(x), reduced)),
                           reduced)
    assert x == all_max(reduced)


def test_brute_force_refuses_oversized_space():
    with pytest.raises(SpaceTooLargeError):
        brute_force_argmin(lambda X: np.zeros(len(X)), default_space(), limit=1000)


def test_streams_are_named_by_seed_id_and_key():
    def first(rng):
        return rng.integers(2**63, size=4).tolist()

    # an unkeyed stream is [seed, id] as numpy seeds it
    assert first(stream(23, 1)) == first(np.random.default_rng(np.random.SeedSequence([23, 1])))
    # keys differing only by trailing zeros are distinct streams
    for a, b in [((5,), (5, 0)), ((), (0,)), ((), (0, 0)), ((0,), (0, 0))]:
        assert first(stream(23, GA_STREAM, *a)) != first(stream(23, GA_STREAM, *b))
    assert first(stream(23, GA_STREAM, 5, 0)) == first(stream(23, GA_STREAM, 5, 0))
