import json

import numpy as np
import pytest

from fleetopt.design_space import encode, enumerate_all
from fleetopt.device_world import MeasurementLedger, Oracle
from fleetopt.learn_to_optimize import (
    OptimizerNetwork,
    _amortized_objective,
    amortized_batch_gradient,
    build_lambda_grid,
    constraint_sweep,
    infer_design,
    load_optimizer,
    optimizer_input,
    save_optimizer,
    train_method2,
)
from fleetopt.nn import DenseNet, stack, train, unstack
from fleetopt.search import ConstraintSpec, brute_force_argmin
from fleetopt.surrogate import (
    TradeoffWeights,
    TrainingSettings,
    device_embedding,
    predicted_objective,
    train_stage1,
)

LAM0 = TradeoffWeights(0.0, 0.0)
LAM_MIX = TradeoffWeights(0.1, 0.1)


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


def fhat(x, d, lam, bundle, space):
    return predicted_objective(
        encode(x, space), d, lam, bundle.accuracy, bundle.energy, bundle.latency
    )


@pytest.fixture(scope="module")
def method2_small(small_bundle, fleet):
    inputs = [(d, lam) for d in fleet.training_real[:4] for lam in build_lambda_grid(3, 1.0)]
    return train_small_method2(small_bundle, inputs, seed=0)


# --- lambda grid and optimizer inputs ----------------------------------------


def test_lambda_grid_count_one_is_origin():
    assert build_lambda_grid(1, 1.0) == [LAM0]


def test_lambda_grid_count_four_axes():
    grid = build_lambda_grid(4, 1.0)
    assert len(grid) == 16
    axis = sorted({lam.lambda1 for lam in grid})
    np.testing.assert_allclose(axis, [0.0, 0.01, 0.1, 1.0])
    assert grid[0] == LAM0


def test_lambda_grid_symmetric_under_axis_swap():
    grid = build_lambda_grid(4, 1.0)
    pairs = {(lam.lambda1, lam.lambda2) for lam in grid}
    assert pairs == {(b, a) for a, b in pairs}


def test_lambda_grid_validation():
    with pytest.raises(ValueError):
        build_lambda_grid(0, 1.0)
    with pytest.raises(ValueError):
        build_lambda_grid(3, 0.0)


def test_optimizer_input_layout(fleet):
    v = optimizer_input(fleet.proxy, TradeoffWeights(0.25, 4.0))
    emb = device_embedding(fleet.proxy)
    assert v.size == emb.size + 2
    np.testing.assert_array_equal(v[-2:], [0.25, 4.0])


# --- the predicted objective's exact argmins ("labels") ----------------------


def label(d, lam, bundle, space):
    """Exhaustive argmin of f_hat for one (device, lambda) pair."""
    return brute_force_argmin(lambda x: fhat(x, d, lam, bundle, space), space)


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

    assert predicted_latency(TradeoffWeights(0.0, 1.0)) < predicted_latency(LAM0)


# --- method 2: training through frozen predictors ---------------------------


def test_method2_validation(small_bundle, reduced_models, fleet):
    inputs = [(fleet.training_real[0], LAM0)]
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
    before = [m.parameter_vector().copy() for m in small_bundle.models()]
    inputs = [(d, lam) for d in fleet.training_real[:4] for lam in build_lambda_grid(2, 1.0)]
    train_small_method2(small_bundle, inputs, seed=5, epochs=120)
    for m, v in zip(small_bundle.models(), before):
        np.testing.assert_array_equal(m.parameter_vector(), v)


def test_method2_regularizer_shrinks_weights(small_bundle, fleet):
    inputs = [(d, lam) for d in fleet.training_real[:4] for lam in build_lambda_grid(3, 1.0)]
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
    inputs = [(d, LAM_MIX) for d in fleet.training_real[:4]]
    a = train_small_method2(small_bundle, inputs, seed=9, epochs=120)
    b = train_small_method2(small_bundle, inputs, seed=9, epochs=120)
    np.testing.assert_array_equal(a.net.parameter_vector(), b.net.parameter_vector())


def test_method2_zero_lambda_converges_to_accuracy_argmax(small_bundle, fleet, reduced):
    designs = enumerate_all(reduced)
    X = np.stack([encode(x, reduced) for x in designs])
    pred_best = designs[int(np.argmax(small_bundle.accuracy.predict_batch(X)))]
    inputs = [(d, LAM0) for d in fleet.training_real[:4]]
    hits = 0
    for seed in range(10):
        net = train_small_method2(small_bundle, inputs, seed, epochs=600, batch_size=8)
        got = [infer_design(net, d, LAM0, reduced) for d, _ in inputs[:2]]
        hits += int(all(x == pred_best for x in got))
    assert hits >= 8


def test_amortized_gradient_matches_finite_differences(small_bundle, fleet, reduced):
    from fleetopt.nn import DenseNet

    inputs = [(d, LAM_MIX) for d in fleet.training_real[:2]]
    X = np.stack([optimizer_input(d, lam) for d, lam in inputs])
    mean, scale = X.mean(axis=0), np.where(X.std(axis=0) < 1e-12, 1.0, X.std(axis=0))
    Xn = (X - mean) / scale
    embeddings = np.stack([device_embedding(d) for d, _ in inputs])
    lams = np.stack([lam.as_array() for _, lam in inputs])
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
        for lam in (LAM0, LAM_MIX, TradeoffWeights(5.0, 0.0)):
            a = infer_design(method2_small, d, lam, reduced)
            b = infer_design(method2_small, d, lam, reduced)
            assert a == b
            enc = method2_small.infer_encoding(d, lam)
            assert np.all((0.0 <= enc) & (enc <= 1.0))


def test_optimizer_save_load_roundtrip(tmp_path, method2_small, fleet, reduced):
    path = tmp_path / "optimizer.json"
    save_optimizer(method2_small, path)
    back = load_optimizer(path)
    np.testing.assert_array_equal(
        back.infer_encoding(fleet.proxy, LAM_MIX),
        method2_small.infer_encoding(fleet.proxy, LAM_MIX),
    )
    layout = method2_small.to_dict()["input_layout"]
    assert layout == {"device_features": 10, "lambdas": 2}


def test_sweep_validation_budget_is_two(method2_small, small_bundle, fleet, reduced):
    d = fleet.synthetic[2]
    oracle = Oracle(reduced, MeasurementLedger())
    result = constraint_sweep(
        method2_small, d, ConstraintSpec(latency_bound=5.0, energy_bound=500.0),
        small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        build_lambda_grid(3, 1.0), oracle,
    )
    assert oracle.ledger.count(d.device_id, "latency") == 1
    assert oracle.ledger.count(d.device_id, "energy") == 1
    assert oracle.ledger.total() == 2
    assert set(result.validation) == {"latency", "energy"}
    assert len(result.rows) == 9
    assert sum(row["chosen"] for row in result.rows) == 1


def test_sweep_impossible_bounds_flagged_infeasible(method2_small, small_bundle, fleet, reduced):
    oracle = Oracle(reduced, MeasurementLedger())
    result = constraint_sweep(
        method2_small, fleet.synthetic[3], ConstraintSpec(latency_bound=1e-9),
        small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        build_lambda_grid(3, 1.0), oracle,
    )
    assert not result.feasible
    assert "latency" in result.validation


@pytest.mark.parametrize("count", [3, 4])
def test_sweep_scores_the_grid_in_one_batch(method2_small, small_bundle, fleet, reduced,
                                            monkeypatch, count):
    from fleetopt.nn import DenseNet

    calls = []
    original = DenseNet.forward_cached

    def counted(net, X):
        calls.append(np.shape(X)[0])
        return original(net, X)

    monkeypatch.setattr(DenseNet, "forward_cached", counted)
    grid = build_lambda_grid(count, 1.0)
    constraint_sweep(
        method2_small, fleet.synthetic[1], ConstraintSpec(latency_bound=5.0, energy_bound=500.0),
        small_bundle.accuracy, small_bundle.energy, small_bundle.latency,
        grid, Oracle(reduced, MeasurementLedger()),
    )
    # one optimizer forward, then one per predictor, each over the whole grid
    assert calls == [len(grid)] * 4


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
    outcomes = set()
    for d, scores in usable[:4]:
        lat_mid = between_levels([s[2] for s in scores])
        en_mid = between_levels([s[3] for s in scores])
        specs = [ConstraintSpec(latency_bound=lat_mid),
                 ConstraintSpec(latency_bound=lat_mid, energy_bound=en_mid),
                 ConstraintSpec(latency_bound=1e-9)]
        for spec in specs:
            result = constraint_sweep(
                method2_small, d, spec, small_bundle.accuracy, small_bundle.energy,
                small_bundle.latency, grid, Oracle(reduced, MeasurementLedger()),
            )
            verdicts, pos = reference_choice(scores, spec)
            assert [row["predicted_feasible"] for row in result.rows] == verdicts
            for row, (_, pa, _, _) in zip(result.rows, scores):
                assert abs(row["predicted_accuracy"] - pa) <= 1e-12
            assert [i for i, row in enumerate(result.rows) if row["chosen"]] == [pos]
            assert result.design == scores[pos][0]
            assert result.weights == grid[pos]
            assert result.feasible == any(verdicts)
            point = reduced.design_at(scores[pos][0])
            oracle = Oracle(reduced, MeasurementLedger())
            expected = {"latency": oracle.latency(point, d)}
            if spec.energy_bound is not None:
                expected["energy"] = oracle.energy(point, d)
            assert result.validation == expected
            outcomes.add(result.feasible)
    # the bounds reach both the most-accurate-feasible and the least-violation choice
    assert outcomes == {True, False}


# --- restarts in lockstep ----------------------------------------------------


def sequential_method2(inputs, bundle, layer_sizes, hyper, mu, rng, restarts):
    """train_method2 with its restarts trained one after another, each a stack
    of one: the reference the stacked restarts must reproduce bit for bit."""
    X = np.stack([optimizer_input(d, lam) for d, lam in inputs])
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    Xn = (X - mean) / scale
    embeddings = np.stack([device_embedding(d) for d, _ in inputs])
    lams = np.stack([lam.as_array() for _, lam in inputs])
    models = bundle.accuracy, bundle.energy, bundle.latency
    best = None
    for seed in rng.integers(0, 2**63, size=restarts):
        start_rng = np.random.default_rng(int(seed))
        alone = stack([DenseNet([Xn.shape[1], *layer_sizes, bundle.accuracy.input_dim],
                                start_rng, output_activation="logistic")])

        def batch_loss_and_grad(idx, alone=alone):
            f_mean, wg, bg = amortized_batch_gradient(alone, Xn[idx], embeddings[idx],
                                                      lams[idx], *models)
            return f_mean * idx.shape[-1], wg, bg

        [curve] = train(alone, Xn.shape[0], batch_loss_and_grad, hyper, [start_rng], mu)
        [net] = unstack(alone)
        score = _amortized_objective(net, Xn, embeddings, lams, *models, mu)
        if best is None or score < best[0]:
            best = (score, net, curve)
    _, net, curve = best
    return OptimizerNetwork(net=net, in_mean=mean, in_scale=scale, final_loss=curve[-1],
                            loss_curve=curve)


@pytest.mark.parametrize("restarts", [1, 3])
def test_restarts_in_lockstep_write_the_sequential_bytes(small_bundle, fleet, restarts):
    # 24 rows in batches of 10: a ragged last batch of 4 every epoch
    inputs = [(d, lam) for d in fleet.training_real[:2] for lam in build_lambda_grid(4, 1.0)]
    inputs = inputs[:24]
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
    inputs = [(d, lam) for d in fleet.training_real[:2] for lam in build_lambda_grid(3, 1.0)]
    hyper = TrainingSettings(epochs=5, batch_size=8)
    train_method2(inputs, *small_bundle.models(), (12,), hyper, 0.0,
                  np.random.default_rng(91), restarts=3)
    steps = hyper.epochs * 3  # 18 rows in batches of 8, 8, 2
    assert len(calls) == 4 * steps + 4 * 3
    assert all(shape[0] == 3 for shape in calls[:4 * steps])
