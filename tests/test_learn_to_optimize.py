import json

import numpy as np
import pytest

from fleetopt import learn_to_optimize
from fleetopt.design_space import decode_rows, encode, encode_rows, enumerate_all
from fleetopt.device_world import MeasurementLedger, Oracle
from fleetopt.learn_to_optimize import (
    SWEEP_BLOCK,
    OptimizerNetwork,
    amortized_batch_gradient,
    build_lambda_grid,
    constraint_sweep,
    infer_design,
    load_optimizer,
    optimizer_input,
    optimizer_inputs,
    train_method2,
)
from fleetopt.nn import DenseNet, l2_penalty, stack, train, unstack
from fleetopt.search import ConstraintSpec, brute_force_argmin
from fleetopt.surrogate import (
    TrainingSettings,
    device_embedding,
    predicted_objective,
    save_model,
    train_stage1,
)

LAM0 = np.array([0.0, 0.0])
LAM_MIX = np.array([0.1, 0.1])


def inputs_of(devices, lams):
    """Optimizer input rows, device-outer, as the amortized run builds them."""
    X = optimizer_inputs(devices, lams)
    return X.reshape(-1, X.shape[-1])


@pytest.fixture(scope="module")
def small_bundle(reduced, fleet):
    return train_stage1(
        list(fleet.training_real[:4]), 120,
        Oracle(reduced, MeasurementLedger()), np.random.default_rng(42),
        hyper=TrainingSettings(epochs=800, batch_size=64), layer_sizes=(48, 48),
    )


def train_small_method2(small_bundle, inputs, seed, epochs=500, batch_size=16):
    return train_method2(
        inputs, small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        (24, 24), TrainingSettings(epochs=epochs, learning_rate=0.02, batch_size=batch_size),
        1e-4, np.random.default_rng(seed), restarts=1,
    )


@pytest.fixture(scope="module")
def method2_small(small_bundle, fleet):
    inputs = inputs_of(fleet.training_real[:4], build_lambda_grid(3, 1.0))
    return train_small_method2(small_bundle, inputs, seed=0)


# --- lambda grid and optimizer inputs ----------------------------------------


def test_lambda_grid_count_one_is_origin():
    grid = build_lambda_grid(1, 1.0)
    assert grid.shape == (1, 2)
    np.testing.assert_array_equal(grid, [LAM0])


def test_lambda_grid_count_four_axes():
    grid = build_lambda_grid(4, 1.0)
    assert grid.shape == (16, 2)
    axis = sorted(set(grid[:, 0].tolist()))
    np.testing.assert_allclose(axis, [0.0, 0.01, 0.1, 1.0])
    np.testing.assert_array_equal(grid[0], LAM0)


def test_lambda_grid_symmetric_under_axis_swap():
    grid = build_lambda_grid(4, 1.0)
    pairs = set(map(tuple, grid.tolist()))
    assert pairs == {(b, a) for a, b in pairs}


@pytest.mark.parametrize("max_lambda", [1.0, 0.3, 2.5, 7.0])
def test_lambda_grid_is_bit_equal_to_the_python_scalar_axis(max_lambda):
    # the axis is Python float ** int; np.power rounds some entries differently
    for count in range(1, 9):
        axis = [0.0] + [max_lambda * 10.0 ** (i - (count - 2)) for i in range(count - 1)]
        want = [[l1, l2] for l1 in axis for l2 in axis]
        grid = build_lambda_grid(count, max_lambda)
        assert grid.dtype == np.float64 and grid.shape == (count * count, 2)
        assert grid.tolist() == want


def test_lambda_grid_validation():
    with pytest.raises(ValueError):
        build_lambda_grid(0, 1.0)
    with pytest.raises(ValueError):
        build_lambda_grid(3, 0.0)


def test_optimizer_input_layout(fleet):
    lams = np.array([[0.25, 4.0], [0.0, 1.0], [3.0, 0.0]])
    X = optimizer_input(fleet.proxy, lams)
    emb = device_embedding(fleet.proxy)
    assert X.shape == (3, emb.size + 2)
    np.testing.assert_array_equal(X[:, :-2], np.tile(emb, (3, 1)))
    np.testing.assert_array_equal(X[:, -2:], lams)


def test_fleet_inputs_are_the_stacked_one_device_rows_bit_for_bit(fleet):
    devices = [fleet.proxy, *fleet.training_real, *fleet.holdout_adversarial]
    lams = np.vstack([build_lambda_grid(4, 1.0), [[0.25, 4.0], [-0.0, 1e-300]]])
    X = optimizer_inputs(devices, lams)
    assert X.shape == (len(devices), len(lams), device_embedding(fleet.proxy).size + 2)
    rows = np.stack([optimizer_input(d, lams) for d in devices])
    # the layout the run stacked before the fleet form
    tiled = np.stack([np.hstack([np.tile(device_embedding(d), (len(lams), 1)), lams])
                      for d in devices])
    assert X.tobytes() == rows.tobytes() == tiled.tobytes()
    with pytest.raises(ValueError, match="non-negative"):
        optimizer_inputs(devices, [[0.0, -1.0]])


def test_tradeoff_weights_validation(fleet):
    d = fleet.proxy
    assert optimizer_input(d, [[0.0, 0.0]]).shape == (1, device_embedding(d).size + 2)
    for bad in ([0.1, 0.1], [[0.1, 0.1, 0.1]], [[[0.1, 0.1]]], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="rows"):
            optimizer_input(d, bad)
    for bad in ([[-0.1, 0.0]], [[0.0, 0.0], [0.5, -1e-12]], [[np.nan, 0.0]]):
        with pytest.raises(ValueError, match="non-negative"):
            optimizer_input(d, bad)


# --- the predicted objective's exact argmins ("labels") ----------------------


def label(d, lam, bundle, space):
    """Exhaustive argmin of f_hat for one (device, lambda) pair."""
    emb = device_embedding(d)
    return brute_force_argmin(
        lambda X: predicted_objective(encode_rows(X, space), emb, lam, *bundle.models()), space)


def test_labels_at_zero_lambda_are_predicted_accuracy_argmax(small_bundle, fleet, reduced):
    designs = enumerate_all(reduced)
    X = np.stack([encode(x, reduced) for x in designs])
    pred_best = designs[int(np.argmax(small_bundle.accuracy.predict_batch(X)))]
    assert label(fleet.training_real[0], LAM0, small_bundle, reduced) == pred_best


def test_heavier_latency_weight_gives_faster_labels(small_bundle, fleet, reduced):
    d = fleet.training_real[1]
    emb = device_embedding(d)

    def predicted_latency(lam):
        enc = encode(label(d, lam, small_bundle, reduced), reduced)
        return small_bundle.latency.predict(np.concatenate([enc, emb]))

    assert predicted_latency(np.array([0.0, 1.0])) < predicted_latency(LAM0)


@pytest.mark.parametrize("aware", [False, True], ids=["device-specific", "device-aware"])
@pytest.mark.parametrize("rows", [False, True], ids=["one-weight-row", "weight-rows"])
def test_predicted_objective_is_the_per_row_formula(small_bundle, reduced_models, fleet,
                                                    reduced, aware, rows):
    designs = enumerate_all(reduced)[::9]
    enc = encode_rows(designs, reduced)
    n = len(enc)
    if aware:
        acc, en, lat = small_bundle.models()
        embs = np.stack([device_embedding(d) for d in fleet.synthetic[:3]])[np.arange(n) % 3]
    else:
        acc, en, lat = (reduced_models[k] for k in ("accuracy", "energy", "latency"))
        embs = None
    lams = (np.random.default_rng(4).uniform(0.0, 2.0, size=(n, 2)) if rows
            else np.array([0.3, 1.7]))
    got = predicted_objective(enc, embs, lams, acc, en, lat)
    assert got.shape == (n,)
    for i in range(n):
        x = enc[i] if embs is None else np.concatenate([enc[i], embs[i]])
        l1, l2 = lams[i] if rows else lams
        want = (-acc.predict(enc[i]) + l1 * (en.predict(x) / en.objective_scale)
                + l2 * (lat.predict(x) / lat.objective_scale))
        # one-row and batched predictions may differ in the last ulp
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)
    if aware:
        # one embedding row serves every encoding
        one = predicted_objective(enc, embs[0], lams, acc, en, lat)
        np.testing.assert_array_equal(one, predicted_objective(
            enc, np.tile(embs[0], (n, 1)), lams, acc, en, lat))


# --- method 2: training through frozen predictors ---------------------------


def test_method2_validation(small_bundle, reduced_models, fleet):
    inputs = optimizer_input(fleet.training_real[0], [LAM0])
    with pytest.raises(ValueError):
        train_method2(
            [], small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
            (8,), TrainingSettings(epochs=10), 0.0, np.random.default_rng(0),
        )
    with pytest.raises(ValueError):
        train_method2(
            inputs, small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
            (8,), TrainingSettings(epochs=10), 0.0, np.random.default_rng(0), restarts=0,
        )
    # device-specific metric predictors are rejected
    with pytest.raises(ValueError):
        train_method2(
            inputs, reduced_models["accuracy"], reduced_models["energy"],
            reduced_models["latency"], (8,), TrainingSettings(epochs=10), 0.0,
            np.random.default_rng(0),
        )


def test_method2_freeze_contract(small_bundle, fleet):
    before = [m.net.parameter_vector().copy() for m in small_bundle.models()]
    inputs = inputs_of(fleet.training_real[:4], build_lambda_grid(2, 1.0))
    train_small_method2(small_bundle, inputs, seed=5, epochs=120)
    for m, v in zip(small_bundle.models(), before):
        np.testing.assert_array_equal(m.net.parameter_vector(), v)


def test_method2_regularizer_shrinks_weights(small_bundle, fleet):
    inputs = inputs_of(fleet.training_real[:4], build_lambda_grid(3, 1.0))
    hyper = TrainingSettings(epochs=100, learning_rate=0.02, batch_size=16)
    norms = []
    for mu in (0.0, 1e-2):
        net = train_method2(
            inputs, small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
            (16,), hyper, mu, np.random.default_rng(3), restarts=1,
        )
        theta = net.net.parameter_vector()
        norms.append(float(theta @ theta))
    assert norms[1] < norms[0]


def test_method2_deterministic(small_bundle, fleet):
    inputs = inputs_of(fleet.training_real[:4], [LAM_MIX])
    a = train_small_method2(small_bundle, inputs, seed=9, epochs=120)
    b = train_small_method2(small_bundle, inputs, seed=9, epochs=120)
    np.testing.assert_array_equal(a.net.parameter_vector(), b.net.parameter_vector())


def test_method2_zero_lambda_converges_to_accuracy_argmax(small_bundle, fleet, reduced):
    designs = enumerate_all(reduced)
    X = np.stack([encode(x, reduced) for x in designs])
    pred_best = designs[int(np.argmax(small_bundle.accuracy.predict_batch(X)))]
    devices = fleet.training_real[:4]
    inputs = inputs_of(devices, [LAM0])
    hits = 0
    for seed in range(10):
        net = train_small_method2(small_bundle, inputs, seed, epochs=600, batch_size=8)
        got = [infer_design(net, d, LAM0, reduced) for d in devices[:2]]
        hits += int(all(x == pred_best for x in got))
    assert hits >= 8


def test_amortized_gradient_matches_finite_differences(small_bundle, fleet, reduced):
    from fleetopt.nn import DenseNet

    X = inputs_of(fleet.training_real[:2], [LAM_MIX])
    mean, scale = X.mean(axis=0), np.where(X.std(axis=0) < 1e-12, 1.0, X.std(axis=0))
    Xn = (X - mean) / scale
    embeddings, lams = X[:, :-2], X[:, -2:]
    net = DenseNet([Xn.shape[1], 6, 7], np.random.default_rng(4), output_activation="logistic")
    models = small_bundle.models()

    def objective(theta):
        probe = net.copy()
        probe.set_parameter_vector(theta)
        f, _, _ = amortized_batch_gradient(probe, Xn, embeddings, lams, *models)
        return f

    f0, wg, bg = amortized_batch_gradient(net, Xn, embeddings, lams, *models)
    analytic = np.concatenate(
        [np.concatenate([W.ravel(), b.ravel()]) for W, b in zip(wg, bg)]
    )
    theta = net.parameter_vector()
    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += 1e-6
        dn[i] -= 1e-6
        numeric[i] = (objective(up) - objective(dn)) / 2e-6
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)


# --- inference and sweep -----------------------------------------------------


def test_infer_design_is_deterministic_and_decodable(method2_small, fleet, reduced):
    for d in (fleet.proxy, fleet.synthetic[0], fleet.holdout_adversarial[0]):
        lams = np.array([LAM0, LAM_MIX, [5.0, 0.0]])
        for lam in lams:
            a = infer_design(method2_small, d, lam, reduced)
            b = infer_design(method2_small, d, lam, reduced)
            assert a == b
        enc = method2_small.infer_encodings(optimizer_input(d, lams))
        assert np.all((0.0 <= enc) & (enc <= 1.0))


def test_optimizer_save_load_roundtrip(tmp_path, method2_small, fleet, reduced):
    path = tmp_path / "optimizer.json"
    save_model(method2_small, path)
    back = load_optimizer(path)
    X = optimizer_input(fleet.proxy, [LAM_MIX])
    np.testing.assert_array_equal(back.infer_encodings(X), method2_small.infer_encodings(X))
    layout = method2_small.to_dict()["input_layout"]
    assert layout == {"device_features": 10, "lambdas": 2}


def test_save_optimizer_writes_the_bytes_of_json_dump(tmp_path, method2_small):
    save_model(method2_small, tmp_path / "saved.json")
    with open(tmp_path / "dumped.json", "w") as f:
        json.dump(method2_small.to_dict(), f)
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_trained_optimizer_and_its_inference_are_float64(method2_small, fleet):
    # trained in float32, handed back in float64 holding float32 values exactly
    net = method2_small.net
    params = net.weights + net.biases
    assert {a.dtype for a in params} == {np.dtype(np.float64)}
    assert all(np.array_equal(a.astype(np.float32), a) for a in params)
    X = optimizer_input(fleet.proxy, [LAM_MIX])
    assert method2_small.infer_encodings(X).dtype == np.float64


def test_sweep_validation_budget_is_two(method2_small, small_bundle, fleet, reduced):
    d = fleet.synthetic[2]
    oracle = Oracle(reduced, MeasurementLedger())
    [result] = constraint_sweep(
        method2_small, [(d, ConstraintSpec(latency_bound=5.0, energy_bound=500.0))],
        small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        build_lambda_grid(3, 1.0), oracle,
    )
    assert oracle.ledger.count(d.device_id, "latency") == 1
    assert oracle.ledger.count(d.device_id, "energy") == 1
    assert oracle.ledger.total() == 2
    assert isinstance(result.latency, float) and isinstance(result.energy, float)
    assert len(result.trace) == 9
    assert sum(row["chosen"] for row in result.trace) == 1


def test_sweep_impossible_bounds_flagged_infeasible(method2_small, small_bundle, fleet, reduced):
    oracle = Oracle(reduced, MeasurementLedger())
    [result] = constraint_sweep(
        method2_small, [(fleet.synthetic[3], ConstraintSpec(latency_bound=1e-9))],
        small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        build_lambda_grid(3, 1.0), oracle,
    )
    assert not result.feasible and not result.predicted_feasible
    assert isinstance(result.latency, float)


def test_sweep_record_carries_the_measured_verdict(method2_small, small_bundle, fleet, reduced):
    # feasible is the verdict on the chosen design's measurements: its latency,
    # and its energy only under an energy bound (energy is None without one)
    d = fleet.synthetic[3]
    models = small_bundle.accuracy, small_bundle.energy, small_bundle.latency
    specs = [ConstraintSpec(latency_bound=1e-9), ConstraintSpec(1e9, energy_bound=1e-9),
             ConstraintSpec(1e9, energy_bound=1e9), ConstraintSpec(latency_bound=1e9)]
    results = constraint_sweep(method2_small, [(d, spec) for spec in specs], *models,
                               build_lambda_grid(3, 1.0), Oracle(reduced, MeasurementLedger()))
    oracle = Oracle(reduced, MeasurementLedger())
    for spec, result in zip(specs, results, strict=True):
        assert result.latency == oracle.latency(result.design, d)
        if spec.energy_bound is None:
            assert result.energy is None
        else:
            assert result.energy == oracle.energy(result.design, d)
    assert [r.feasible for r in results] == [False, False, True, True]
    # under the energy bound nothing meets, the latency alone would pass
    assert results[1].latency <= 1e9 and results[1].energy > 1e-9


def sweep_devices(fleet):
    """More than two blocks of devices, of every family."""
    devices = [*fleet.synthetic, *fleet.holdout_monotone, *fleet.holdout_adversarial,
               *fleet.training_real]
    assert len(devices) >= 2 * SWEEP_BLOCK + 1
    return devices[:2 * SWEEP_BLOCK + 1]


@pytest.mark.parametrize("count", [3, 4])
def test_sweep_scores_the_grid_in_one_batch(method2_small, small_bundle, fleet, reduced,
                                            monkeypatch, count):
    from fleetopt.nn import DenseNet

    calls = []
    original = DenseNet.forward_cached

    def counted(net, X):
        calls.append(np.shape(X))
        return original(net, X)

    monkeypatch.setattr(DenseNet, "forward_cached", counted)
    grid = build_lambda_grid(count, 1.0)
    devices = sweep_devices(fleet)
    spec = ConstraintSpec(latency_bound=5.0, energy_bound=500.0)
    constraint_sweep(
        method2_small, [(d, spec) for d in devices],
        small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        grid, Oracle(reduced, MeasurementLedger()),
    )
    # per block of devices: one optimizer forward, then one per predictor, each
    # over the block's whole grids as one (block, grid, .) stack
    width = reduced.encoding_width
    embedding = device_embedding(fleet.proxy).size
    expected = []
    for block in (SWEEP_BLOCK, SWEEP_BLOCK, 1):
        expected += [(block, len(grid), embedding + 2), (block, len(grid), width),
                     (block, len(grid), width + embedding), (block, len(grid), width + embedding)]
    assert calls == expected


def mixed_targets(fleet, space):
    """sweep_devices under bounds met, bounds with energy, and bounds none meets."""
    designs = enumerate_all(space)
    probe = Oracle(space, MeasurementLedger())
    targets = []
    for i, d in enumerate(sweep_devices(fleet)):
        lat = float(np.median(probe.latency_rows(designs, [d])))
        en = float(np.median(probe.energy_rows(designs, [d])))
        specs = [ConstraintSpec(latency_bound=lat), ConstraintSpec(lat, energy_bound=en),
                 ConstraintSpec(latency_bound=1e-9)]
        targets.append((d, specs[i % 3]))
    return targets


def test_blocked_sweep_equals_one_device_sweeps(method2_small, small_bundle, fleet, reduced):
    # every device's result, validation and charges as if it were swept alone,
    # bit for bit
    grid = build_lambda_grid(4, 1.0)
    targets = mixed_targets(fleet, reduced)
    models = small_bundle.accuracy, small_bundle.energy, small_bundle.latency
    blocked_oracle, alone_oracle = (Oracle(reduced, MeasurementLedger()) for _ in range(2))
    blocked = constraint_sweep(method2_small, targets, *models, grid, blocked_oracle)
    alone = [constraint_sweep(method2_small, [target], *models, grid, alone_oracle)[0]
             for target in targets]
    assert len(blocked) == len(targets)
    assert blocked == alone
    assert repr(blocked) == repr(alone)  # repr tells every float bit, -0.0 too
    assert blocked_oracle.ledger.snapshot() == alone_oracle.ledger.snapshot()
    assert blocked_oracle.ledger.to_csv() == alone_oracle.ledger.to_csv()
    assert {r.predicted_feasible for r in blocked} == {True, False}
    assert {r.energy is None for r in blocked} == {True, False}


def test_block_size_changes_no_value(method2_small, small_bundle, fleet, reduced, monkeypatch):
    # results, trace rows and charges are those of every other block size,
    # from one device a block to the whole fleet in one
    grid = build_lambda_grid(4, 1.0)
    targets = mixed_targets(fleet, reduced)
    models = small_bundle.accuracy, small_bundle.energy, small_bundle.latency
    runs = {}
    for block in (1, 3, 8, 16, 64):
        monkeypatch.setattr(learn_to_optimize, "SWEEP_BLOCK", block)
        oracle = Oracle(reduced, MeasurementLedger())
        results = constraint_sweep(method2_small, targets, *models, grid, oracle)
        runs[block] = (results, repr(results), oracle.ledger.snapshot(), oracle.ledger.to_csv())
    first = runs[1]
    assert len(first[0]) == len(targets) == 2 * SWEEP_BLOCK + 1
    assert all(run == first for run in runs.values())
    assert {r.predicted_feasible for r in first[0]} == {True, False}


def test_sweep_validates_the_fleet_in_one_paired_call_per_metric(method2_small, small_bundle,
                                                                 fleet, reduced, monkeypatch):
    calls = []
    for name in ("latency_pairs", "energy_pairs", "latency", "energy"):
        original = getattr(Oracle, name)

        def counted(oracle, X, devices, name=name, original=original):
            calls.append((name, len(X) if name.endswith("pairs") else 1))
            return original(oracle, X, devices)

        monkeypatch.setattr(Oracle, name, counted)
    devices = sweep_devices(fleet)
    specs = [ConstraintSpec(5.0, energy_bound=500.0) if i % 3 else ConstraintSpec(5.0)
             for i in range(len(devices))]
    results = constraint_sweep(method2_small, list(zip(devices, specs)), small_bundle.accuracy,
                               small_bundle.energy, small_bundle.latency,
                               build_lambda_grid(3, 1.0), Oracle(reduced, MeasurementLedger()))
    bounded = sum(spec.energy_bound is not None for spec in specs)
    assert 0 < bounded < len(devices)
    assert calls == [("latency_pairs", len(devices)), ("energy_pairs", bounded)]
    assert [r.energy is None for r in results] == [s.energy_bound is None for s in specs]


def one_lambda_scores(net, d, bundle, grid, space):
    """Per lambda: the one-row inference and its one-row predictions."""
    emb = device_embedding(d)
    scores = []
    for lam in grid:
        x = infer_design(net, d, lam, space)
        enc = encode(x, space)
        dev_in = np.concatenate([enc, emb])
        scores.append((x, bundle.accuracy.predict(enc), bundle.latency.predict(dev_in),
                       bundle.energy.predict(dev_in)))
    return scores


def reference_choice(scores, spec):
    """Per-row predicted verdicts and the chosen position, one lambda at a time:
    the most accurate feasible row, else the least violating one."""
    verdicts, feasible_keys, violation_keys = [], [], []
    for pos, (_, pa, pl, pe) in enumerate(scores):
        feasible = pl <= spec.latency_bound
        violation = max(0.0, pl / spec.latency_bound - 1.0)
        if spec.energy_bound is not None:
            feasible &= pe <= spec.energy_bound
            violation += max(0.0, pe / spec.energy_bound - 1.0)
        verdicts.append(feasible)
        if feasible:
            feasible_keys.append((-pa, pos))
        violation_keys.append((violation, -pa, pos))
    pos = min(feasible_keys)[-1] if feasible_keys else min(violation_keys)[-1]
    return verdicts, pos


def between_levels(values):
    """A bound near the median of the predicted values but on none of them:
    one-row and batched predictions may differ in the last ulp."""
    levels = sorted(set(values))
    if len(levels) == 1:
        return 1.5 * levels[0]
    return (levels[len(levels) // 2 - 1] + levels[len(levels) // 2]) / 2


def test_sweep_matches_the_one_lambda_path(method2_small, small_bundle, fleet, reduced):
    grid = build_lambda_grid(4, 1.0)
    candidates = [*fleet.synthetic, *fleet.holdout_monotone, *fleet.holdout_adversarial]
    scored = [(d, one_lambda_scores(method2_small, d, small_bundle, grid, reduced))
              for d in candidates]
    # the small predictors go negative on some devices; bounds must be positive
    usable = [(d, scores) for d, scores in scored if min(min(s[2:]) for s in scores) > 0]
    assert len(usable) >= 4
    cases = []
    for d, scores in usable[:4]:
        lat_mid = between_levels([s[2] for s in scores])
        en_mid = between_levels([s[3] for s in scores])
        cases += [(d, scores, spec) for spec in (
            ConstraintSpec(latency_bound=lat_mid),
            ConstraintSpec(latency_bound=lat_mid, energy_bound=en_mid),
            ConstraintSpec(latency_bound=1e-9))]
    models = (small_bundle.accuracy, small_bundle.energy, small_bundle.latency)
    one_at_a_time = [
        constraint_sweep(method2_small, [(d, spec)], *models, grid,
                         Oracle(reduced, MeasurementLedger()))[0]
        for d, _, spec in cases
    ]
    # all 12 targets in one call, whose blocks mix specs with and without an
    # energy bound
    in_one_call = constraint_sweep(method2_small, [(d, spec) for d, _, spec in cases], *models,
                                   grid, Oracle(reduced, MeasurementLedger()))
    outcomes = set()
    for results in (one_at_a_time, in_one_call):
        for (d, scores, spec), result in zip(cases, results, strict=True):
            verdicts, pos = reference_choice(scores, spec)
            assert [row["predicted_feasible"] for row in result.trace] == verdicts
            for row, (_, pa, _, _) in zip(result.trace, scores):
                assert abs(row["predicted_accuracy"] - pa) <= 1e-12
            assert [i for i, row in enumerate(result.trace) if row["chosen"]] == [pos]
            assert result.design == scores[pos][0]
            assert result.lam == tuple(grid[pos].tolist())
            assert result.predicted_feasible == any(verdicts)
            oracle = Oracle(reduced, MeasurementLedger())
            lat = oracle.latency(scores[pos][0], d)
            en = None if spec.energy_bound is None else oracle.energy(scores[pos][0], d)
            assert (result.latency, result.energy) == (lat, en)
            assert result.feasible == (lat <= spec.latency_bound
                                       and (en is None or en <= spec.energy_bound))
            outcomes.add(result.predicted_feasible)
    # the bounds reach both the most-accurate-feasible and the least-violation choice
    assert outcomes == {True, False}


class OneRowAtATime:
    """A predictor that predicts each row alone, so equal rows get equal values
    wherever they sit in a batch (a batched product may round them apart)."""

    def __init__(self, model):
        self.model, self.metric, self.takes_device = model, model.metric, model.takes_device

    def predict_batch(self, X):
        X = np.asarray(X)
        rows = X.reshape(-1, X.shape[-1])
        return np.array([self.model.predict(x) for x in rows]).reshape(X.shape[:-1])


def test_sweep_chooses_the_first_of_positions_with_one_design(method2_small, small_bundle,
                                                              fleet, reduced):
    # the grid twice over: each design sits at two positions with equal
    # predictions, and the sweep must choose the earlier one
    grid = build_lambda_grid(3, 1.0)
    twice = np.vstack([grid, grid])
    d = fleet.synthetic[0]
    designs = decode_rows(method2_small.infer_encodings(optimizer_input(d, twice)), reduced)
    assert np.array_equal(designs[:len(grid)], designs[len(grid):])
    models = [OneRowAtATime(m) for m in small_bundle.models()]
    for spec in (ConstraintSpec(latency_bound=1e9), ConstraintSpec(latency_bound=1e-9)):
        once, doubled = (constraint_sweep(method2_small, [(d, spec)], *models, g,
                                          Oracle(reduced, MeasurementLedger()))[0]
                         for g in (grid, twice))
        chosen = [i for i, row in enumerate(doubled.trace) if row["chosen"]]
        assert chosen == [i for i, row in enumerate(once.trace) if row["chosen"]]
        assert ((doubled.design, doubled.lam, doubled.predicted_feasible)
                == (once.design, once.lam, once.predicted_feasible))
        assert once.predicted_feasible == (spec.latency_bound > 1)


def test_sweep_ties_equal_designs_through_the_batched_predictors(method2_small, small_bundle,
                                                                 fleet, reduced):
    # the grid twice over, through the predictors' own batch: identical rows
    # may predict an ulp apart by where they sit in it, yet every position
    # takes the predictions of the first position of its design, so under a
    # bound no design meets the least violation is the first position
    twice = np.vstack([build_lambda_grid(3, 1.0)] * 2)
    d = fleet.synthetic[0]
    designs = decode_rows(method2_small.infer_encodings(optimizer_input(d, twice)), reduced)
    [result] = constraint_sweep(method2_small, [(d, ConstraintSpec(latency_bound=1e-9))],
                                *small_bundle.models(), twice,
                                Oracle(reduced, MeasurementLedger()))
    assert [i for i, row in enumerate(result.trace) if row["chosen"]] == [0]
    first = {}
    for x, row in zip(map(tuple, designs.tolist()), result.trace):
        assert row["predicted_accuracy"] == first.setdefault(x, row["predicted_accuracy"])


# --- restarts in lockstep ----------------------------------------------------


def sequential_method2(inputs, bundle, layer_sizes, hyper, mu, rng, restarts):
    """train_method2 with its restarts trained one after another, each a stack
    of one in float32 through float32 copies of the predictors, then scored in
    float64: the reference the stacked restarts must reproduce bit for bit."""
    X = inputs
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    Xn = (X - mean) / scale
    embeddings, lams = X[:, :-2], X[:, -2:]
    models = bundle.accuracy, bundle.energy, bundle.latency
    models32 = [m.astype(np.float32) for m in models]
    data32 = [a.astype(np.float32) for a in (Xn, embeddings, lams)]
    best = None
    for start_rng in rng.spawn(restarts):
        alone = stack([DenseNet([Xn.shape[1], *layer_sizes, bundle.accuracy.input_dim],
                                start_rng, output_activation="logistic")]).astype(np.float32)

        def gather(order):
            return [a[order] for a in data32]

        def batch_loss_and_grad(Xb, eb, lb, grads, alone=alone):
            f_mean, _, _ = amortized_batch_gradient(alone, Xb, eb, lb, *models32, out=grads)
            return f_mean * Xb.shape[-2]

        [curve] = train(alone, Xn.shape[0], gather, batch_loss_and_grad, hyper, [start_rng], mu)
        [net] = unstack(alone)
        score = (float(np.mean(predicted_objective(net.forward(Xn), embeddings, lams, *models)))
                 + l2_penalty(net, mu))
        if best is None or score < best[0]:
            best = (score, net, curve)
    _, net, curve = best
    return OptimizerNetwork(net=net, in_mean=mean, in_scale=scale, final_loss=curve[-1],
                            loss_curve=curve)


@pytest.mark.parametrize("restarts", [1, 3])
def test_restarts_in_lockstep_write_the_sequential_bytes(small_bundle, fleet, restarts):
    # 24 rows in batches of 10: a ragged last batch of 4 every epoch
    inputs = inputs_of(fleet.training_real[:2], build_lambda_grid(4, 1.0))[:24]
    hyper = TrainingSettings(epochs=4, learning_rate=0.02, batch_size=10)
    a, b = np.random.default_rng(90), np.random.default_rng(90)
    got = train_method2(inputs, *small_bundle.models(), (12, 12), hyper, 1e-3, a, restarts)
    want = sequential_method2(inputs, small_bundle, (12, 12), hyper, 1e-3, b, restarts)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.loss_curve == want.loss_curve
    assert a.bit_generator.state == b.bit_generator.state


def test_restarts_in_lockstep_make_four_forward_passes_per_step(small_bundle, fleet,
                                                                 monkeypatch):
    # one optimizer forward and one per frozen predictor per lockstep step, then
    # each restart's exact objective: the benchmark's slice clock counts these
    calls = []
    original = DenseNet.forward_cached

    def counted(net, X):
        calls.append(np.shape(X))
        return original(net, X)

    monkeypatch.setattr(DenseNet, "forward_cached", counted)
    inputs = inputs_of(fleet.training_real[:2], build_lambda_grid(3, 1.0))
    hyper = TrainingSettings(epochs=5, batch_size=8)
    train_method2(inputs, *small_bundle.models(), (12,), hyper, 0.0,
                  np.random.default_rng(91), restarts=3)
    steps = hyper.epochs * 3  # 18 rows in batches of 8, 8, 2
    assert len(calls) == 4 * steps + 4 * 3
    assert all(shape[0] == 3 for shape in calls[:4 * steps])
