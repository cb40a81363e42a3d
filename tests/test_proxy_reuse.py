import collections
import itertools

import numpy as np
import pytest

from fleetopt.design_space import DesignSpace, encode_rows, enumerate_all
from fleetopt.device_world import (
    MeasurementLedger,
    Oracle,
    accuracy_value,
    energy_value,
    latency_value,
)
from fleetopt.proxy_reuse import (
    GRID_LEVELS,
    GRID_MEASURE_CAP,
    ProxyEntry,
    ProxySolve,
    TCache,
    bisection_optimize,
    check_monotonicity,
    corrected_entry,
    grid_optimize_2d,
    match_proxy,
    inner_ga,
    scalarized_objective,
    solve_inner,
    spearman,
)
from fleetopt.search import ConstraintSpec, SearchParams, brute_force_argmin, evolutionary_search
from fleetopt.surrogate import MlpRegressor, TrainingSettings, correct, fit


def all_max(space):
    return tuple(len(axis) - 1 for axis in space._axes())


def all_min(space):
    return (0,) * space.encoding_width


def value_views(space):
    """Every design of the space as the DesignPoint the analytic model reads."""
    return [space.design_at(x) for x in enumerate_all(space)]


def brute(space):
    return lambda objective, key: brute_force_argmin(objective, space)


class ConstantModel:
    """A latency predictor that predicts value for every design."""

    metric, objective_scale = "latency", 1.0

    def __init__(self, value):
        self.value = value

    def predict_batch(self, X):
        return np.full(len(X), self.value)


def one_design_per_key(space):
    """A minimizer that gives each t-cache key its own design (keys apart by
    less than the space's size)."""
    designs = enumerate_all(space)
    return lambda objective, key: designs[key[0] % len(designs)]


def entry_of(models, minimize, device=None, granularity=0.001):
    """A pool entry over the accuracy/latency(/energy) models of one dict."""
    return ProxyEntry(device, models["accuracy"], models["latency"], models.get("energy"),
                      TCache(granularity, minimize))


# --- spearman ---------------------------------------------------------------


def test_spearman_identical_orderings():
    assert spearman([1.0, 2.0, 5.0, 9.0], [10.0, 20.0, 21.0, 40.0]) == 1.0


def test_spearman_reversed_orderings():
    assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0


def test_spearman_hand_value():
    # d = (0, 1, -1), sum d^2 = 2: rho = 1 - 12/24 = 0.5
    assert spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_spearman_ties_use_average_ranks():
    # b ranks = (1, 2.5, 2.5, 4), sum d^2 = 0.5: rho = 1 - 3/60 = 0.95
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 3.0]) == pytest.approx(0.95)


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0])
    # rho is undefined for a constant input
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None


# --- iteration cap, validation and cache ------------------------------------


def test_bisection_settings_defaults(exact_models, reduced, fleet):
    # the iteration cap follows the entry cache's granularity; an unreachable
    # bound raises t every iteration, so the cap is what stops the bisection,
    # and a zero latency prediction has every iterate, each its own design,
    # measured
    target = fleet.holdout_monotone[0]
    models = dict(exact_models, latency=ConstantModel(0.0))
    for granularity, cap in ((0.25, 3), (0.001, 10)):  # ceil(log2(1/g + 1))
        result = bisection_optimize(
            target, ConstraintSpec(1e-9), 1e-11,
            entry_of(models, one_design_per_key(reduced), granularity=granularity),
            Oracle(reduced, MeasurementLedger()),
        )
        assert not result.feasible
        assert len(result.trace) == result.measurements == cap


def test_bisection_settings_validation(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    oracle = Oracle(reduced, MeasurementLedger())
    with pytest.raises(ValueError, match="energy bound"):
        bisection_optimize(target, ConstraintSpec(1.0, 1.0), 0.02,
                           entry_of(exact_models, brute(reduced)), oracle)
    assert oracle.ledger.total() == 0


def test_grid_2d_rejects_a_spec_without_an_energy_bound(exact_models, reduced, fleet):
    oracle = Oracle(reduced, MeasurementLedger())
    with pytest.raises(ValueError, match="energy bound"):
        grid_optimize_2d(fleet.holdout_monotone[0], ConstraintSpec(1.0),
                         entry_of(exact_models, brute(reduced)), oracle)
    assert oracle.ledger.total() == 0


def test_tcache_quantizes_keys(reduced):
    keys = []

    def minimize(objective, key):  # the objective here names the design to return
        keys.append(key)
        return objective(None)

    cache = TCache(0.001, minimize)
    x, y = enumerate_all(reduced)[7:9]
    assert cache.argmin((0.1234,), lambda _: x) == x
    assert cache.argmin((0.1230,), lambda _: y) == x  # the same key: no new solve
    assert cache.argmin((0.12351,), lambda _: y) == y
    assert cache.quantize((0.1234,)) == pytest.approx((0.123,))
    assert cache.argmin((0.1234, 0.0004), lambda _: y) == y
    assert cache.argmin((0.1230, 0.0), lambda _: x) == y
    assert cache.argmin((0.1230,), lambda _: y) == x
    assert cache.quantize((0.1234, 0.0006)) == pytest.approx((0.123, 0.001))
    assert keys == [(123,), (124,), (123, 0)]
    assert len(cache._entries) == 3


# --- scalarized objective and inner solve -----------------------------------


def test_scalarized_objective_extremes_and_linearity(exact_models, reduced, proxy):
    designs = enumerate_all(reduced)[5:8]
    X = np.array(designs)
    points = [reduced.design_at(x) for x in designs]
    acc, lat = exact_models["accuracy"], exact_models["latency"]
    f0 = scalarized_objective(X, (0.0,), acc, (lat,), reduced)
    f1 = scalarized_objective(X, (1.0,), acc, (lat,), reduced)
    assert f0.tolist() == [-accuracy_value(p, reduced) for p in points]
    assert f1 == pytest.approx([latency_value(p, proxy) / lat.objective_scale for p in points])
    assert scalarized_objective(X, (0.5,), acc, (lat,), reduced) == pytest.approx((f0 + f1) / 2)


def test_scalarized_objective_one_weight_is_the_bisection_objective(exact_models, reduced, proxy):
    acc, lat = exact_models["accuracy"], exact_models["latency"]
    designs = enumerate_all(reduced)[::9]
    points = [reduced.design_at(x) for x in designs]
    for t in (0.0, 0.001, 0.123, 0.5, 0.999, 1.0):
        expected = [
            -(1.0 - t) * accuracy_value(p, reduced)
            + t * (latency_value(p, proxy) / lat.objective_scale)
            for p in points
        ]
        got = scalarized_objective(np.array(designs), (t,), acc, (lat,), reduced)
        assert got.tolist() == expected


def test_solve_inner_caches_and_skips_objective(exact_models, reduced):
    calls = [0]

    def counting_minimizer(objective, key):
        def counted(X):
            calls[0] += len(X)
            return objective(X)

        return brute_force_argmin(counted, reduced)

    entry = entry_of(exact_models, counting_minimizer)
    a = solve_inner((0.4,), entry, reduced)
    first = calls[0]
    assert first == 128
    b = solve_inner((0.4,), entry, reduced)
    assert calls[0] == first
    assert a == b


def test_solve_inner_extremes_with_exact_predictors(exact_models, reduced):
    x0 = solve_inner((0.0,), entry_of(exact_models, brute(reduced)), reduced)
    assert x0 == all_max(reduced)
    x1 = solve_inner((1.0,), entry_of(exact_models, brute(reduced)), reduced)
    assert x1 == all_min(reduced)


def test_inner_scalarization_is_monotone_over_full_t_grid(exact_models, reduced, proxy):
    # vectorized brute-force inner at every quantized t: latency of the argmin
    # never increases as t grows
    designs = value_views(reduced)
    acc = np.array([accuracy_value(x, reduced) for x in designs])
    lat = np.array([latency_value(x, proxy) for x in designs])
    lat_n = lat / exact_models["latency"].objective_scale
    prev = np.inf
    for k in range(1001):
        t = k * 0.001
        g = -(1.0 - t) * acc + t * lat_n
        winner = int(np.argmin(g))
        assert lat[winner] <= prev + 1e-12
        prev = lat[winner]


# --- bisection --------------------------------------------------------------


def test_bisection_loose_bound_returns_accuracy_argmax(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(1e6), 0.02 * 1e6, entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert result.feasible
    assert result.t[0] <= 0.001 + 1e-12
    assert result.design == all_max(reduced)


def test_bisection_budget_and_ledger_agree(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[1]
    lats = [latency_value(x, target) for x in value_views(reduced)]
    bound = float(np.percentile(lats, 40))
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(bound), 0.02 * bound, entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert result.measurements <= 10
    assert oracle.ledger.count(target.device_id, "latency") == result.measurements
    assert oracle.ledger.accuracy_count == 0


def test_bisection_matches_constrained_optimum(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[2]
    designs = value_views(reduced)
    lats = np.array([latency_value(x, target) for x in designs])
    bound = float(np.percentile(lats, 40))
    best_acc = max(
        accuracy_value(x, reduced) for x, l in zip(designs, lats) if l <= bound
    )
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(bound), 0.02 * bound, entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert result.feasible
    assert result.latency <= bound
    assert accuracy_value(reduced.design_at(result.design), reduced) >= best_acc - 0.01


def test_bisection_infeasible_bound_is_flagged(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    min_lat = min(latency_value(x, target) for x in value_views(reduced))
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(min_lat / 10), 0.02 * min_lat / 10,
        entry_of(exact_models, brute(reduced)), oracle,
    )
    assert not result.feasible
    with pytest.raises(ValueError):
        bisection_optimize(target, ConstraintSpec(-1.0), 0.1,
                           entry_of(exact_models, brute(reduced)), oracle)


def test_bisection_keeps_only_iterates_within_the_bound(reduced, fleet):
    # the band around the bound only stops the bisection: an iterate in the
    # band but over the bound is never the answer, however small its t
    target = fleet.holdout_monotone[0]
    designs = enumerate_all(reduced)
    lats = Oracle(reduced).latency_rows(designs, [target])[:, 0]
    order = np.argsort(lats)
    fast, slow = designs[order[0]], designs[order[len(order) * 3 // 5]]
    bound = float(lats[order[len(order) * 3 // 5]]) / 1.01  # slow is 1% over
    assert lats[order[0]] <= 0.98 * bound

    def solve(*picks):
        picked = iter(picks)  # the inner solve of each new t, in order
        # a zero prediction has each iterate measured; on the 0.25 grid the
        # refinement's t = 0.375 between 0.25 and 0.5 is 0.5 again
        entry = entry_of({"accuracy": None, "latency": ConstantModel(0.0)},
                         lambda objective, key: next(picked), granularity=0.25)
        return bisection_optimize(
            target, ConstraintSpec(bound), 0.02 * bound, entry,
            Oracle(reduced, MeasurementLedger()),
        )

    # t = 0.5 is fast (lower t), t = 0.25 slow but within the band: stop
    result = solve(fast, slow)
    assert [row["verdict"] for row in result.trace] == ["lower_t", "within_band"]
    assert (result.design, result.t, result.feasible) == (fast, (0.5,), True)
    assert result.latency <= bound
    # nothing under the bound: the last iterate, flagged infeasible
    alone = solve(slow)
    assert [row["verdict"] for row in alone.trace] == ["within_band"]
    assert (alone.design, alone.feasible) == (slow, False)


def test_bisection_trace_rows(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[3]
    lats = [latency_value(x, target) for x in value_views(reduced)]
    bound = float(np.percentile(lats, 40))
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(bound), 0.02 * bound, entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert [row["iteration"] for row in result.trace] == list(range(len(result.trace)))
    assert all(list(row) == ["device_id", "iteration", "t", "latency", "measured", "verdict"]
               for row in result.trace)
    assert all(row["verdict"] in ("raise_t", "lower_t", "within_band") for row in result.trace)
    assert result.trace[0]["t"] == pytest.approx(0.5)


def test_bisection_measures_each_distinct_t_once(exact_models, reduced, fleet):
    # on a coarse grid t = 0.625 quantizes back to 0.5: the third iterate is
    # the first one again, and is neither solved nor measured twice
    target = fleet.holdout_monotone[0]
    designs = enumerate_all(reduced)
    lats = Oracle(reduced).latency_rows(designs, [target])[:, 0]
    order = np.argsort(lats)
    fast, slow = designs[order[0]], designs[order[-1]]
    bound = float(lats[order[len(order) // 2]])
    keys = []

    def minimize(objective, key):  # slow at t = 0.5, fast above it
        keys.append(key)
        return slow if key <= (2,) else fast

    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(  # a zero prediction has each iterate measured
        target, ConstraintSpec(bound), 0.02 * bound,
        entry_of({"accuracy": None, "latency": ConstantModel(0.0)}, minimize, granularity=0.25),
        oracle,
    )
    assert [row["t"] for row in result.trace] == [0.5, 0.75, 0.5]
    assert [row["verdict"] for row in result.trace] == ["raise_t", "lower_t", "raise_t"]
    assert keys == [(2,), (3,)]
    assert result.measurements == len({row["t"] for row in result.trace}) == 2
    assert oracle.ledger.count(target.device_id, "latency") == 2
    assert (result.design, result.t, result.feasible) == (fast, (0.75,), True)
    # on the fine grid with exact predictors, each design is measured once
    # however many measured rows show it
    lats = [latency_value(x, target) for x in value_views(reduced)]
    bound = float(np.percentile(lats, 40))
    oracle = Oracle(reduced, MeasurementLedger())
    entry = entry_of(exact_models, brute(reduced))
    result = bisection_optimize(target, ConstraintSpec(bound), 0.02 * bound, entry, oracle)
    assert result.measurements == len(measured_designs(result, entry, reduced))
    assert oracle.ledger.count(target.device_id, "latency") == result.measurements


def test_an_iterate_predicted_far_from_the_bound_is_not_measured(exact_models, reduced, fleet):
    # a prediction ten times the bound raises t unmeasured every iteration;
    # with nothing measured, the last iterate is measured for the answer
    target = fleet.holdout_monotone[0]
    x = enumerate_all(reduced)[5]
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(1.0), 0.02,
        entry_of(dict(exact_models, latency=ConstantModel(10.0)), lambda objective, key: x),
        oracle,
    )
    *path, last = result.trace
    assert len(path) == 10
    assert all((row["measured"], row["latency"], row["verdict"]) == (False, 10.0, "raise_t")
               for row in path)
    assert (last["t"], last["measured"]) == (path[-1]["t"], True)
    assert last["latency"] == result.latency == Oracle(reduced).latency(x, target)
    assert result.measurements == oracle.ledger.count(target.device_id, "latency") == 1


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_an_iterate_with_a_non_positive_prediction_is_always_measured(exact_models, reduced,
                                                                      fleet, value):
    target = fleet.holdout_monotone[0]
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(1e6), 0.02 * 1e6,
        entry_of(dict(exact_models, latency=ConstantModel(value)), one_design_per_key(reduced),
                 granularity=0.25),
        oracle,
    )
    # 1e6 lowers t at every iterate: 0.5, 0.25 and 0.125, which is 0.0 on the 0.25 grid
    assert [row["t"] for row in result.trace] == [0.5, 0.25, 0.0]
    assert all(row["measured"] for row in result.trace)
    assert result.measurements == oracle.ledger.count(target.device_id, "latency") == 3
    assert (result.t, result.feasible) == ((0.0,), True)


def test_with_no_probes_the_calibration_is_one(exact_models, reduced, fleet):
    # est = c * p: 3 times the bound with c = 1, 6 times with probes that
    # measure twice what the entry predicts; neither is measured
    target = fleet.holdout_monotone[0]
    x = enumerate_all(reduced)[5]
    probes = [(enumerate_all(reduced)[:4], np.full(4, 6.0))]
    for given, est in (((), 3.0), (probes, 6.0)):
        oracle = Oracle(reduced, MeasurementLedger())
        result = bisection_optimize(
            target, ConstraintSpec(1.0), 0.02,
            entry_of(dict(exact_models, latency=ConstantModel(3.0)), lambda objective, key: x),
            oracle, given,
        )
        assert (result.trace[0]["latency"], result.trace[0]["measured"]) == (est, False)


def fast_above(reduced, target, t_switch):
    """A minimizer that returns the slowest design for t below t_switch and
    the fastest from t_switch on, and the two designs' latencies."""
    designs = enumerate_all(reduced)
    lats = Oracle(reduced).latency_rows(designs, [target])[:, 0]
    slow, fast = designs[int(np.argmax(lats))], designs[int(np.argmin(lats))]
    switch = round(t_switch / 0.001)
    return (lambda objective, key: fast if key[0] >= switch else slow), lats.max(), lats.min()


def test_a_band_wider_than_the_margin_still_moves_t(exact_models, reduced, fleet):
    # delta half the bound: an estimate 0.2 of the bound under it lies in the
    # band but outside the margin, so it is measured rather than taken as an
    # unmeasured within_band verdict that would hold t at 0.5
    target = fleet.holdout_monotone[1]
    minimize, slow, fast = fast_above(reduced, target, 0.6)  # slow at t = 0.5
    bound = slow / 1.6  # slow measures over the band, predicted inside it
    oracle = Oracle(reduced, MeasurementLedger())
    entry = entry_of(dict(exact_models, latency=ConstantModel(0.8 * bound)), minimize)
    result = bisection_optimize(target, ConstraintSpec(bound), 0.5 * bound, entry, oracle)
    first, second = result.trace[:2]
    assert (first["t"], first["measured"], first["verdict"]) == (0.5, True, "raise_t")
    assert second["t"] == 0.75
    assert not any(row["verdict"] == "within_band" and not row["measured"]
                   for row in result.trace)
    assert oracle.ledger.count(target.device_id, "latency") == result.measurements <= 10
    assert result.feasible == (result.latency <= bound)


@pytest.mark.parametrize("case", ["calibrated", "tight", "infeasible", "nothing-near",
                                  "confirmed"])
def test_the_answer_is_a_measured_design_and_charges_stay_under_the_cap(exact_models, reduced,
                                                                         fleet, case):
    target = fleet.holdout_monotone[1]
    oracle = Oracle(reduced, MeasurementLedger())
    truth = Oracle(reduced)
    probes = []
    lats = Oracle(reduced).latency_rows(enumerate_all(reduced), [target])[:, 0]
    models, minimize = exact_models, brute(reduced)
    if case in ("calibrated", "tight"):
        bound = float(np.percentile(lats, 40 if case == "calibrated" else 5))
        check_monotonicity(exact_models["latency"], target, 12, oracle,
                           np.random.default_rng(3), probes)
    elif case == "infeasible":
        bound = float(lats.min()) / 10
    elif case == "nothing-near":
        bound = float(np.median(lats))
        models = dict(exact_models, latency=ConstantModel(100.0 * bound))
    else:  # predicted within the bound at every t, over it below t = 0.1
        minimize, slow, fast = fast_above(reduced, target, 0.1)
        bound = (slow + fast) / 2
        models = dict(exact_models, latency=ConstantModel(0.5 * bound))
    entry = entry_of(models, minimize)
    result = bisection_optimize(target, ConstraintSpec(bound), 0.02 * bound, entry, oracle,
                                probes)
    charged = oracle.ledger.count(target.device_id, "latency") - sum(len(y) for _, y in probes)
    assert charged == result.measurements <= 10
    designs = measured_designs(result, entry, reduced)
    assert len(designs) == result.measurements
    assert result.design == solve_inner(result.t, entry, reduced) and result.design in designs
    assert result.latency == truth.latency(result.design, target)
    assert result.feasible == (result.latency <= bound)
    for row in result.trace:  # a measured row shows its design's measurement
        if row["measured"]:
            assert row["latency"] == truth.latency(solve_inner((row["t"],), entry, reduced),
                                                   target)
    if result.feasible:  # the smallest measured t within the bound
        assert result.t[0] == min(row["t"] for row in result.trace
                                  if row["measured"] and row["latency"] <= bound)
    if case == "confirmed":
        # the path never measures; the answer step measures the slow design at
        # the smallest t and the fast one at 0.125, then bisects between 0.062
        # and 0.125 on those two measurements down to t = 0.1, where the
        # fast design starts
        assert not any(row["measured"] for row in result.trace[:10])
        assert [row["t"] for row in result.trace[10:12]] == [0.001, 0.125]
        assert (result.measurements, result.t, result.feasible) == (2, (0.1,), True)
    assert case != "infeasible" or not result.feasible


def test_each_design_is_predicted_once_per_entry(exact_models, reduced, fleet):
    rows = []

    class Counted(ConstantModel):
        def predict_batch(self, X):
            rows.append(len(X))
            return super().predict_batch(X)

    designs = enumerate_all(reduced)
    target = fleet.holdout_monotone[0]
    # four designs over ten iterates; the prediction of 0 measures each one
    entry = entry_of(dict(exact_models, latency=Counted(0.0)),
                     lambda objective, key: designs[key[0] % 4])
    first = bisection_optimize(target, ConstraintSpec(1e-9), 1e-11, entry,
                               Oracle(reduced, MeasurementLedger()))
    assert (len(first.trace), first.measurements) == (10, 4)
    assert rows == [1] * len(entry.latency_predictions) == [1] * 4
    bisection_optimize(target, ConstraintSpec(1e-9), 1e-11, entry,
                       Oracle(reduced, MeasurementLedger()))
    assert len(rows) == 4  # a second solve on the entry predicts nothing new


def measured_designs(result, entry, space):
    """The designs of a bisection's measured trace rows: each row's t-cache
    solve, which the entry's cache answers without a new inner solve."""
    return {solve_inner((row["t"],), entry, space) for row in result.trace if row["measured"]}


def test_search_and_bisection_convert_only_what_they_measure(
    monkeypatch, reduced, reduced_models, fleet
):
    # designs travel as index tuples, and the oracle measures them as such:
    # neither the search nor the bisection builds a DesignPoint
    calls = {"indices_of": 0, "design_at": 0}
    for name in calls:
        original = getattr(DesignSpace, name)

        def counted(self, arg, name=name, original=original):
            calls[name] += 1
            return original(self, arg)

        monkeypatch.setattr(DesignSpace, name, counted)

    acc, lat = reduced_models["accuracy"], reduced_models["latency"]
    evolutionary_search(
        lambda X: scalarized_objective(X, (0.3,), acc, (lat,), reduced), reduced, SearchParams(),
        np.random.default_rng(0),
    )
    assert calls == {"indices_of": 0, "design_at": 0}

    target = fleet.holdout_monotone[1]
    lats = [latency_value(x, target) for x in value_views(reduced)]
    bound = float(np.percentile(lats, 40))
    calls.update(indices_of=0, design_at=0)
    oracle = Oracle(reduced, MeasurementLedger())
    result = bisection_optimize(
        target, ConstraintSpec(bound), 0.02 * bound,
        entry_of(reduced_models, inner_ga(reduced, SearchParams(), 0)), oracle,
    )
    charged = oracle.ledger.count(target.device_id, "latency")
    assert charged == result.measurements > 1
    assert calls == {"indices_of": 0, "design_at": 0}


# --- 2-D extension ----------------------------------------------------------


def test_scalarized_objective_two_weights_on_the_simplex(exact_models, reduced, proxy):
    x = enumerate_all(reduced)[9]
    p = reduced.design_at(x)
    acc, lat, en = exact_models["accuracy"], exact_models["latency"], exact_models["energy"]

    def f(t1, t2):
        return scalarized_objective(np.array([x]), (t1, t2), acc, (lat, en), reduced)[0]

    assert f(0.0, 0.0) == -accuracy_value(p, reduced)
    t1, t2 = 0.3, 0.25
    assert f(t1, t2) == (
        -(1.0 - t1 - t2) * accuracy_value(p, reduced)
        + t1 * (latency_value(p, proxy) / lat.objective_scale)
        + t2 * (energy_value(p, proxy) / en.objective_scale)
    )


def test_grid_2d_loose_bounds_hit_accuracy_corner(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    oracle = Oracle(reduced, MeasurementLedger())
    result = grid_optimize_2d(
        target, ConstraintSpec(1e6, 1e6), entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert result.feasible
    assert result.design == all_max(reduced)
    assert result.t == (0.0, 0.0)


def test_grid_2d_dual_bounds_reach_scalarization_ceiling(exact_models, reduced, fleet):
    # The true constrained optimum here is off the scalarization hull (no
    # (t1, t2) selects it), so the sharpest attainable target is the best
    # feasible design any simplex weight can produce; assert we hit it.
    target = fleet.holdout_monotone[1]
    designs = value_views(reduced)
    accs = np.array([accuracy_value(x, reduced) for x in designs])
    lats = np.array([latency_value(x, target) for x in designs])
    ens = np.array([energy_value(x, target) for x in designs])
    lat_bound = float(np.percentile(lats, 50))
    en_bound = float(np.percentile(ens, 50))

    lat_n = lats / exact_models["latency"].objective_scale
    en_n = ens / exact_models["energy"].objective_scale
    feasible = (lats <= lat_bound) & (ens <= en_bound)
    ceiling = -np.inf
    for t1 in np.linspace(0.0, 1.0, 201):
        for t2 in np.linspace(0.0, 1.0 - t1, 201):
            winner = int(np.argmin(-(1.0 - t1 - t2) * accs + t1 * lat_n + t2 * en_n))
            if feasible[winner]:
                ceiling = max(ceiling, accs[winner])

    oracle = Oracle(reduced, MeasurementLedger())
    result = grid_optimize_2d(
        target, ConstraintSpec(lat_bound, en_bound), entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert result.feasible
    assert result.latency <= lat_bound and result.energy <= en_bound
    assert accuracy_value(reduced.design_at(result.design), reduced) >= ceiling - 1e-12
    charged = oracle.ledger.count(target.device_id, "latency") + oracle.ledger.count(
        target.device_id, "energy"
    )
    assert charged == result.measurements


def test_grid_2d_huge_energy_bound_matches_bisection(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[2]
    designs = value_views(reduced)
    lats = np.array([latency_value(x, target) for x in designs])
    bound = float(np.percentile(lats, 50))
    oracle = Oracle(reduced, MeasurementLedger())
    uni = bisection_optimize(
        target, ConstraintSpec(bound), 0.02 * bound, entry_of(exact_models, brute(reduced)),
        oracle,
    )
    two = grid_optimize_2d(
        target, ConstraintSpec(bound, 1e9), entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert two.feasible and uni.feasible
    acc_two = accuracy_value(reduced.design_at(two.design), reduced)
    assert abs(acc_two - accuracy_value(reduced.design_at(uni.design), reduced)) <= 0.01


def test_bisection_and_grid_return_one_proxy_solve_record(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    x = enumerate_all(reduced)[5]
    args = (entry_of(exact_models, lambda objective, key: x), Oracle(reduced, MeasurementLedger()))
    uni = bisection_optimize(target, ConstraintSpec(1e6), 0.02 * 1e6, *args)
    two = grid_optimize_2d(target, ConstraintSpec(1e6, 1e6), *args)
    assert type(uni) is type(two) is ProxySolve
    assert (len(uni.t), uni.energy) == (1, None)
    assert len(two.t) == 2 and isinstance(two.energy, float)
    for result in (uni, two):  # one key order per trace: its file's header
        assert len({tuple(row) for row in result.trace}) == 1


def test_grid_2d_infeasible_bounds_flagged(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    min_lat = min(latency_value(x, target) for x in value_views(reduced))
    oracle = Oracle(reduced, MeasurementLedger())
    result = grid_optimize_2d(
        target, ConstraintSpec(min_lat / 10, 1e9), entry_of(exact_models, brute(reduced)),
        oracle,
    )
    assert not result.feasible


def test_grid_2d_reuses_inner_solves_across_calls_on_one_cache(exact_models, reduced, fleet):
    solved = [0]

    def counting_minimizer(objective, key):
        solved[0] += 1
        return brute_force_argmin(objective, reduced)

    lats = [latency_value(x, fleet.holdout_monotone[0]) for x in value_views(reduced)]
    ens = [energy_value(x, fleet.holdout_monotone[1]) for x in value_views(reduced)]
    first = (fleet.holdout_monotone[0], ConstraintSpec(float(np.percentile(lats, 50)), 1e9))
    second = (fleet.holdout_monotone[1], ConstraintSpec(1e9, float(np.percentile(ens, 40))))

    def run(problem, entry):
        return grid_optimize_2d(*problem, entry, Oracle(reduced, MeasurementLedger()))

    shared = entry_of(exact_models, counting_minimizer)
    run(first, shared)
    assert solved[0] == len(shared.cache._entries)
    solved_first = solved[0]
    reused = run(second, shared)
    assert solved[0] == len(shared.cache._entries)  # no lattice point was solved twice
    assert solved[0] - solved_first < solved_first  # the top-level lattice was reused
    assert reused == run(second, entry_of(exact_models, brute(reduced)))


def test_grid_2d_predicts_and_measures_each_level_as_one_batch(
    monkeypatch, reduced, reduced_models, fleet
):
    # one predict_batch per model and one row call for both metrics per level;
    # no one-row prediction, no one-metric row call and no scalar measurement
    calls = collections.Counter()
    for cls, name in [(MlpRegressor, "predict_batch"), (MlpRegressor, "predict"),
                      (Oracle, "latency"), (Oracle, "energy"),
                      (Oracle, "latency_rows"), (Oracle, "energy_rows"),
                      (Oracle, "latency_energy_rows")]:
        original = getattr(cls, name)

        def counted(self, *args, name=name, original=original):
            calls[name, getattr(self, "metric", "")] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    target = fleet.holdout_monotone[1]
    lats = [latency_value(x, target) for x in value_views(reduced)]
    ens = [energy_value(x, target) for x in value_views(reduced)]
    designs = itertools.cycle(enumerate_all(reduced))  # a new design per inner solve
    oracle = Oracle(reduced, MeasurementLedger())
    result = grid_optimize_2d(
        target, ConstraintSpec(float(np.percentile(lats, 50)), float(np.percentile(ens, 50))),
        entry_of(reduced_models, lambda objective, key: next(designs)), oracle,
    )
    assert result.measurements > 2 * GRID_MEASURE_CAP  # more than one level measured
    assert result.measurements == 2 * len(result.trace) == oracle.ledger.total()
    for metric in ("accuracy", "latency", "energy"):
        assert 1 <= calls["predict_batch", metric] <= GRID_LEVELS
    assert 1 < calls["latency_energy_rows", ""] <= GRID_LEVELS
    assert sum(n for (name, _), n in calls.items()
               if name in ("predict", "latency", "energy", "latency_rows", "energy_rows")) == 0


def test_grid_2d_with_one_design_measures_it_once(exact_models, reduced, fleet):
    target = fleet.holdout_monotone[0]
    x = enumerate_all(reduced)[5]
    oracle = Oracle(reduced, MeasurementLedger())
    result = grid_optimize_2d(
        target, ConstraintSpec(1e6, 1e6), entry_of(exact_models, lambda objective, key: x),
        oracle,
    )
    assert (result.design, result.t, result.measurements) == (x, (0.0, 0.0), 2)
    assert [row["level"] for row in result.trace] == [0]  # levels 1-2 have nothing new
    assert oracle.ledger.snapshot()["devices"] == {target.device_id: {"latency": 1, "energy": 1}}


def test_a_bisection_and_a_grid_on_one_entry_solve_each_key_once(exact_models, reduced, fleet):
    # the entry's t-cache holds its minimizer: one call per distinct key,
    # however many solves of either kind ask for it
    keys = []

    def minimize(objective, key):
        keys.append(key)
        return brute_force_argmin(objective, reduced)

    target = fleet.holdout_monotone[1]
    lats = [latency_value(x, target) for x in value_views(reduced)]
    ens = [energy_value(x, target) for x in value_views(reduced)]
    bound = float(np.percentile(lats, 40))
    one, both = ConstraintSpec(bound), ConstraintSpec(bound, float(np.percentile(ens, 40)))
    entry = entry_of(exact_models, minimize)
    oracle = Oracle(reduced, MeasurementLedger())
    uni = bisection_optimize(target, one, 0.02 * bound, entry, oracle)
    two = grid_optimize_2d(target, both, entry, oracle)
    assert len(keys) == len(set(keys)) == len(entry.cache._entries)
    assert {(round(row["t"] / 0.001),) for row in uni.trace} == {k for k in keys if len(k) == 1}
    assert any(len(k) == 2 for k in keys)
    # a second pass of both asks only for keys the cache holds
    assert bisection_optimize(target, one, 0.02 * bound, entry, oracle) == uni
    assert grid_optimize_2d(target, both, entry, oracle) == two
    assert len(keys) == len(entry.cache._entries)


# --- monotonicity gate and pool ---------------------------------------------


def test_check_monotonicity_against_self(proxy_latency_default, dspace, proxy):
    oracle = Oracle(dspace, MeasurementLedger())
    rho = check_monotonicity(proxy_latency_default, proxy, 40, oracle, np.random.default_rng(3))
    assert rho >= 0.95  # monotone under the 0.9 threshold
    assert oracle.ledger.count(proxy.device_id, "latency") == 40


def test_check_monotonicity_separates_fleet_families(proxy_latency_default, dspace, fleet):
    oracle = Oracle(dspace, MeasurementLedger())
    mono = check_monotonicity(
        proxy_latency_default, fleet.holdout_monotone[0], 40, oracle, np.random.default_rng(4),
    )
    adv = check_monotonicity(
        proxy_latency_default, fleet.holdout_adversarial[0], 40, oracle, np.random.default_rng(4),
    )
    assert mono >= 0.95  # monotone under the 0.9 threshold
    assert adv < 0.9


def test_match_proxy_empty_pool(fleet, dspace):
    oracle = Oracle(dspace, MeasurementLedger())
    assert match_proxy([], fleet.holdout_monotone[0], 0.9, oracle, np.random.default_rng(0),
                       20) is None


def test_match_proxy_reuses_for_monotone_target(fleet, dspace, proxy_latency_default, stage1_bundle):
    entry = ProxyEntry(
        device=fleet.proxy,
        accuracy_model=stage1_bundle.accuracy,
        latency_model=proxy_latency_default,
        energy_model=None,
        cache=TCache(0.001, brute(dspace)),
    )
    pool = [entry]
    target = fleet.holdout_monotone[0]
    oracle = Oracle(dspace, MeasurementLedger())
    trials = []
    got = match_proxy(pool, target, 0.9, oracle, np.random.default_rng(5), 20, trials=trials)
    assert got is entry
    # reuse decision costs exactly the 20 probes, nothing else
    assert oracle.ledger.count(target.device_id, "latency") == 20
    assert oracle.ledger.total() == 20
    assert trials == [(fleet.proxy.device_id, trials[0][1], True)]


def test_match_proxy_rejects_all_for_adversarial_target(fleet, dspace, proxy_latency_default, stage1_bundle):
    entry = ProxyEntry(
        device=fleet.proxy,
        accuracy_model=stage1_bundle.accuracy,
        latency_model=proxy_latency_default,
        energy_model=None,
        cache=TCache(0.001, brute(dspace)),
    )
    pool = [entry]
    target = fleet.holdout_adversarial[0]
    oracle = Oracle(dspace, MeasurementLedger())
    trials = []
    got = match_proxy(pool, target, 0.9, oracle, np.random.default_rng(6), 20, trials=trials)
    assert got is None
    assert len(trials) == 1 and not trials[0][2]


def test_match_proxy_fails_an_undefined_rank_correlation(fleet, dspace, stage1_bundle):
    # a latency model fit to constant labels predicts one value everywhere,
    # so rho is undefined: the gate fails and the trial records no rho
    X = np.random.default_rng(0).random((8, dspace.encoding_width))
    flat = fit(X, np.ones(8), (4,), TrainingSettings(epochs=1), np.random.default_rng(1))
    entry = ProxyEntry(fleet.proxy, stage1_bundle.accuracy, flat, None,
                       TCache(0.001, brute(dspace)))
    target = fleet.holdout_monotone[0]
    oracle = Oracle(dspace, MeasurementLedger())
    trials = []
    assert match_proxy([entry], target, 0.9, oracle, np.random.default_rng(5), 20,
                       trials=trials) is None
    assert trials == [(fleet.proxy.device_id, None, False)]
    assert oracle.ledger.count(target.device_id, "latency") == 20


@pytest.mark.parametrize("metrics", [("latency",), ("latency", "energy")],
                         ids=["latency", "energy"])
def test_a_gate_miss_corrects_the_entry_on_the_probes_it_measured(reduced, reduced_models, fleet,
                                                                   metrics):
    entry = entry_of({name: reduced_models[name] for name in ("accuracy", *metrics)},
                     brute(reduced), device=fleet.proxy)
    target = fleet.holdout_adversarial[0]
    oracle = Oracle(reduced, MeasurementLedger())
    probes = []
    # a threshold no rho meets: the gate misses, with its probes handed back
    assert match_proxy([entry], target, 1.5, oracle, np.random.default_rng(7), 12,
                       probes=probes) is None
    [(designs, latencies)] = probes
    np.testing.assert_array_equal(latencies, Oracle(reduced).latency_rows(designs, [target])[:, 0])
    new = corrected_entry(entry, target, probes, oracle)
    assert new.device is target and new.accuracy_model is entry.accuracy_model
    assert new.cache is not entry.cache and new.cache.granularity == entry.cache.granularity
    want = correct(entry.latency_model, encode_rows(designs, reduced), latencies)
    np.testing.assert_array_equal(new.latency_model.weights, want.weights)
    assert new.latency_model.base is entry.latency_model
    # the correction measures only the probes' energy, and only under an energy model
    energy = 12 if "energy" in metrics else 0
    assert oracle.ledger.snapshot()["devices"] == {
        target.device_id: {"latency": 12, **({"energy": energy} if energy else {})}}
    assert (new.energy_model is None) == (energy == 0)
    if energy:
        assert new.energy_model.base is entry.energy_model
        assert new.energy_model.objective_scale == float(
            np.median(Oracle(reduced).energy_rows(designs, [target])))


def test_a_corrected_entry_starts_an_empty_cache_on_its_base_minimizer(reduced, reduced_models,
                                                                      fleet):
    keys = []

    def minimize(objective, key):
        keys.append(key)
        return brute_force_argmin(objective, reduced)

    base = entry_of(reduced_models, minimize, device=fleet.proxy, granularity=0.01)
    x = solve_inner((0.4,), base, reduced)
    target = fleet.holdout_adversarial[0]
    oracle = Oracle(reduced, MeasurementLedger())
    probes = []
    assert match_proxy([base], target, 1.5, oracle, np.random.default_rng(7), 12,
                       probes=probes) is None
    new = corrected_entry(base, target, probes, oracle)
    assert new.cache is not base.cache and not new.cache._entries
    assert new.cache.granularity == base.cache.granularity
    assert new.cache.minimize is base.cache.minimize
    # the same key reaches the same minimizer, now on the corrected models
    solve_inner((0.4,), new, reduced)
    assert keys == [(40,), (40,)] and len(base.cache._entries) == 1
    assert solve_inner((0.4,), base, reduced) == x and len(keys) == 2
