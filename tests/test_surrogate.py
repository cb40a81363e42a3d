import dataclasses
import json

import numpy as np
import pytest

from fleetopt.design_space import (
    DimensionMismatchError,
    encode,
    encode_rows,
    enumerate_all,
    sample_uniform,
)
from fleetopt.device_world import (
    NOISE_AMPLITUDE,
    MeasurementLedger,
    Oracle,
    accuracy_value,
    latency_value,
)
from fleetopt import pipeline
from fleetopt.nn import DenseNet, stack, train, unstack
from fleetopt.pipeline import draw_fleet
from fleetopt.scenario import scenario_from_dict
from fleetopt.surrogate import (
    CORRECTION_RIDGE,
    InsufficientDataError,
    MlpRegressor,
    TrainingSettings,
    accuracy_fit,
    correct,
    device_embedding,
    device_specific_fit,
    fit,
    fit_lockstep,
    iterative_fit,
    load_model,
    predicted_objective,
    prepare_fit,
    save_model,
    train_accuracy_predictor,
    train_device_specific_predictor,
    train_stage1,
)

LIGHT = TrainingSettings(epochs=400, batch_size=64)


def linear_regressor(w, b):
    """Zero-hidden-layer model with identity normalizers."""
    w = np.asarray(w, dtype=float)
    net = DenseNet([w.size, 1], np.random.default_rng(0))
    net.weights[0] = w[:, None].copy()
    net.biases[0] = np.array([float(b)])
    return MlpRegressor(
        net=net,
        in_mean=np.zeros(w.size),
        in_scale=np.ones(w.size),
        out_mean=0.0,
        out_scale=1.0,
    )


def test_training_settings_validation():
    with pytest.raises(ValueError):
        TrainingSettings(epochs=0)
    with pytest.raises(ValueError):
        TrainingSettings(batch_size=0)


def test_linear_model_predicts_affine_map():
    m = linear_regressor([2.0, -1.0], 0.5)
    assert m.predict(np.array([3.0, 1.0])) == pytest.approx(5.5, abs=1e-12)
    np.testing.assert_allclose(
        m.predict_batch(np.array([[0.0, 0.0], [1.0, 1.0]])), [0.5, 1.5], rtol=1e-12
    )


def test_predict_is_deterministic(reduced_models, reduced):
    enc = encode(enumerate_all(reduced)[17], reduced)
    m = reduced_models["latency"]
    assert m.predict(enc) == m.predict(enc)


def test_predict_dimension_mismatch(reduced_models):
    with pytest.raises(DimensionMismatchError):
        reduced_models["accuracy"].predict(np.zeros(9))


def test_fit_recovers_linear_function():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(64, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 3.0
    m = fit(X, y, (), TrainingSettings(), np.random.default_rng(2))
    assert m.final_loss < 1e-6
    np.testing.assert_allclose(m.predict_batch(X), y, atol=1e-5)


def test_fit_constant_labels_short_circuits():
    X = np.random.default_rng(0).normal(size=(16, 2))
    m = fit(X, np.full(16, 4.25), (8,), TrainingSettings(), np.random.default_rng(1))
    assert m.constant_warning
    assert m.final_loss == 0.0
    np.testing.assert_allclose(m.predict_batch(np.zeros((3, 2))), 4.25, rtol=1e-12)
    _, grads = m.batch_value_and_input_grad(np.zeros((1, 2)), np.ones(1))
    np.testing.assert_array_equal(grads, np.zeros((1, 2)))


def test_fit_input_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        fit(X, np.zeros(3), (), TrainingSettings(), np.random.default_rng(0))
    with pytest.raises(InsufficientDataError):
        fit(X[:1], np.zeros(1), (), TrainingSettings(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        fit(X, np.array([0, 1, np.nan, 2.0]), (), TrainingSettings(), np.random.default_rng(0))


def test_fit_is_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    a = fit(X, y, (16,), LIGHT, np.random.default_rng(7))
    b = fit(X, y, (16,), LIGHT, np.random.default_rng(7))
    np.testing.assert_array_equal(a.net.parameter_vector(), b.net.parameter_vector())


def test_fit_is_equivariant_to_affine_label_transform():
    # identical normalized problem, identical net init: predictions map affinely
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    a = fit(X, y, (8,), LIGHT, np.random.default_rng(9))
    b = fit(X, 1000.0 + 50.0 * y, (8,), LIGHT, np.random.default_rng(9))
    np.testing.assert_allclose(
        b.predict_batch(X), 1000.0 + 50.0 * a.predict_batch(X), rtol=1e-9
    )


def test_normalizers_refit_on_same_samples_is_identity():
    rng = np.random.default_rng(5)
    X = rng.normal(loc=3.0, scale=2.0, size=(30, 2))
    y = rng.normal(size=30)
    m = fit(X, y, (8,), LIGHT, np.random.default_rng(10))
    refit = dataclasses.replace(
        m,
        in_mean=X.mean(axis=0),
        in_scale=X.std(axis=0),
        out_mean=float(y.mean()),
        out_scale=float(y.std()),
    )
    np.testing.assert_array_equal(refit.predict_batch(X), m.predict_batch(X))


def test_gradient_of_linear_model_is_scaled_weight_vector():
    m = linear_regressor([2.0, -1.0, 0.5], 1.0)
    m = dataclasses.replace(m, in_scale=np.array([1.0, 2.0, 4.0]), out_scale=3.0)
    expected = 3.0 * np.array([2.0, -1.0, 0.5]) / np.array([1.0, 2.0, 4.0])
    _, grads = m.batch_value_and_input_grad(np.stack([np.zeros(3), np.ones(3)]), np.ones(2))
    np.testing.assert_allclose(grads, [expected, expected], rtol=1e-12)


def test_gradient_matches_finite_differences(reduced_models, reduced):
    m = reduced_models["latency"]
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = encode(sample_uniform(reduced, rng), reduced) + rng.normal(0, 0.01, 7)
        g = m.batch_value_and_input_grad(x[None, :], np.ones(1))[1][0]
        for i in range(7):
            up, dn = x.copy(), x.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd = (m.predict(up) - m.predict(dn)) / 2e-6
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_batch_value_and_input_grad_consistency(reduced_models, reduced):
    m = reduced_models["energy"]
    rng = np.random.default_rng(12)
    X = np.stack([encode(sample_uniform(reduced, rng), reduced) for _ in range(4)])
    coeff = np.array([1.0, -2.0, 0.5, 3.0])
    values, grads = m.batch_value_and_input_grad(X, coeff)
    np.testing.assert_allclose(values, m.predict_batch(X), rtol=1e-12)
    # each row's gradient is its own one-row gradient scaled by its coefficient
    for i in range(4):
        _, single = m.batch_value_and_input_grad(X[i : i + 1], np.ones(1))
        np.testing.assert_allclose(grads[i], coeff[i] * single[0], rtol=1e-10)


def test_save_load_roundtrip(tmp_path, reduced_models, reduced):
    m = reduced_models["latency"]
    path = tmp_path / "latency.json"
    save_model(m, path)
    back = load_model(path)
    X = np.stack([encode(x, reduced) for x in enumerate_all(reduced)[:20]])
    np.testing.assert_array_equal(back.predict_batch(X), m.predict_batch(X))
    np.testing.assert_array_equal(back.net.parameter_vector(), m.net.parameter_vector())
    assert back.metric == m.metric
    assert back.objective_scale == m.objective_scale
    assert back.takes_device == m.takes_device


def test_save_model_writes_the_bytes_of_json_dump(tmp_path, reduced_models):
    m = reduced_models["energy"]
    save_model(m, tmp_path / "saved.json")
    with open(tmp_path / "dumped.json", "w") as f:
        json.dump(m.to_dict(), f)
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_trained_models_and_predictions_are_float64(tmp_path, reduced_models, reduced):
    # training runs in float32; what it hands back, saves and predicts with is
    # float64, holding float32 values exactly
    X = np.stack([encode(x, reduced) for x in enumerate_all(reduced)[:20]])
    save_model(reduced_models["latency"], tmp_path / "latency.json")
    for m in (reduced_models["latency"], load_model(tmp_path / "latency.json")):
        params = m.net.weights + m.net.biases
        assert {a.dtype for a in params + [m.in_mean, m.in_scale]} == {np.dtype(np.float64)}
        assert all(np.array_equal(a.astype(np.float32), a) for a in params)
        assert m.predict_batch(X).dtype == np.float64
        values, grads = m.batch_value_and_input_grad(X, np.ones(len(X)))
        assert values.dtype == grads.dtype == np.float64
    np.testing.assert_array_equal(load_model(tmp_path / "latency.json").predict_batch(X),
                                  reduced_models["latency"].predict_batch(X))


def test_accuracy_predictor_input_is_design_only(reduced_models):
    # 2 stages * 3 fields + bits: no device features in the accuracy input
    assert reduced_models["accuracy"].input_dim == 7
    assert not reduced_models["accuracy"].takes_device


def test_accuracy_predictor_rejects_tiny_sample_count(reduced):
    with pytest.raises(InsufficientDataError):
        train_accuracy_predictor(0, Oracle(reduced), np.random.default_rng(0))


def test_accuracy_predictor_charges_ledger(reduced):
    oracle = Oracle(reduced)
    train_accuracy_predictor(50, oracle, np.random.default_rng(0), hyper=LIGHT)
    assert oracle.ledger.accuracy_count == 50
    assert oracle.ledger.total() == 0


def test_exhaustive_accuracy_fit_error_within_noise_and_fit_margin(reduced):
    designs = enumerate_all(reduced)
    X = np.stack([encode(x, reduced) for x in designs])
    y = np.array([accuracy_value(reduced.design_at(x), reduced) for x in designs])
    m = fit(X, y, (64, 64), TrainingSettings(), np.random.default_rng(0), metric="accuracy")
    err = np.abs(m.predict_batch(X) - y)
    assert float(err.max()) <= NOISE_AMPLITUDE + 0.008
    assert float(np.median(err)) <= 0.003


def test_accuracy_argmax_matches_oracle_across_seeds(reduced):
    designs = enumerate_all(reduced)
    X = np.stack([encode(x, reduced) for x in designs])
    true_best = int(np.argmax([accuracy_value(reduced.design_at(x), reduced) for x in designs]))
    hits = 0
    for seed in range(20):
        acc = train_accuracy_predictor(
            300, Oracle(reduced), np.random.default_rng(seed),
            hyper=TrainingSettings(epochs=500, batch_size=64),
        )
        hits += int(np.argmax(acc.predict_batch(X)) == true_best)
    assert hits >= 19


def test_device_specific_predictor_validation(reduced, proxy):
    with pytest.raises(ValueError):
        train_device_specific_predictor("power", proxy, 10, Oracle(reduced), np.random.default_rng(0))
    with pytest.raises(InsufficientDataError):
        train_device_specific_predictor("latency", proxy, 0, Oracle(reduced), np.random.default_rng(0))


def test_proxy_latency_predictor_held_out_error(proxy_latency_default, dspace, proxy):
    rng = np.random.default_rng(999)
    probes = [sample_uniform(dspace, rng) for _ in range(200)]
    pred = proxy_latency_default.predict_batch(np.stack([encode(x, dspace) for x in probes]))
    truth = np.array([latency_value(dspace.design_at(x), proxy) for x in probes])
    rel = np.abs(pred - truth) / np.abs(truth)
    assert float(np.median(rel)) <= 0.10


def test_proxy_predictor_ranks_monotone_device(proxy_latency_default, dspace, fleet):
    from fleetopt.proxy_reuse import spearman

    rng = np.random.default_rng(21)
    probes = [sample_uniform(dspace, rng) for _ in range(40)]
    pred = proxy_latency_default.predict_batch(np.stack([encode(x, dspace) for x in probes]))
    for d in fleet.holdout_monotone[:2]:
        truth = [latency_value(dspace.design_at(x), d) for x in probes]
        assert spearman(list(pred), truth) >= 0.9


def test_device_aware_needs_two_devices(reduced, fleet):
    with pytest.raises(InsufficientDataError):
        train_stage1([fleet.proxy], 10, Oracle(reduced), np.random.default_rng(0))


def test_device_aware_prediction_varies_with_device(reduced, fleet):
    devices = list(fleet.training_real[:2])
    m = train_stage1(
        devices, 60, Oracle(reduced), np.random.default_rng(0),
        hyper=LIGHT, layer_sizes=(32, 32),
    ).latency
    assert m.takes_device
    assert m.input_dim == 7 + device_embedding(fleet.proxy).size
    x = encode(enumerate_all(reduced)[100], reduced)
    fast = dataclasses.replace(devices[0], device_id="fast", throughput=devices[0].throughput * 2)
    a = m.predict(np.concatenate([x, device_embedding(devices[0])]))
    b = m.predict(np.concatenate([x, device_embedding(fast)]))
    assert a != b


def test_predicted_objective_zero_weights_is_negative_accuracy(reduced_models, reduced):
    enc = encode_rows(enumerate_all(reduced)[5:40:7], reduced)
    f = predicted_objective(
        enc, None, np.array([0.0, 0.0]),
        reduced_models["accuracy"], reduced_models["energy"], reduced_models["latency"],
    )
    np.testing.assert_array_equal(f, -reduced_models["accuracy"].predict_batch(enc))


def test_predicted_objective_latency_dominates_at_large_weight(reduced_models, reduced):
    enc = encode_rows(enumerate_all(reduced)[5:6], reduced)
    args = (reduced_models["accuracy"], reduced_models["energy"], reduced_models["latency"])
    lat_term = (reduced_models["latency"].predict_batch(enc)[0]
                / reduced_models["latency"].objective_scale)
    [f] = predicted_objective(enc, None, np.array([0.0, 1e6]), *args)
    assert f == pytest.approx(1e6 * lat_term, rel=1e-4)
    assert f > 0


def test_predicted_objective_linear_in_weights(reduced_models, reduced):
    enc = encode_rows(enumerate_all(reduced)[40:45], reduced)
    args = (reduced_models["accuracy"], reduced_models["energy"], reduced_models["latency"])
    base = predicted_objective(enc, None, np.array([0.3, 0.7]), *args)
    bumped = predicted_objective(enc, None, np.array([0.3 + 0.4, 0.7 + 0.1]), *args)
    en = reduced_models["energy"].predict_batch(enc) / reduced_models["energy"].objective_scale
    lat = reduced_models["latency"].predict_batch(enc) / reduced_models["latency"].objective_scale
    np.testing.assert_allclose(bumped, base + 0.4 * en + 0.1 * lat, rtol=1e-12)


def test_predicted_objective_argmin_is_unique(reduced_models, reduced):
    designs = enumerate_all(reduced)
    args = (reduced_models["accuracy"], reduced_models["energy"], reduced_models["latency"])
    vals = predicted_objective(encode_rows(designs, reduced), None, np.array([0.5, 0.5]), *args)
    assert vals.shape == (len(designs),)
    assert int(np.sum(vals == vals.min())) == 1


def make_small_bundle(fleet, reduced, seed, rounds, explore_rng_seed):
    oracle = Oracle(reduced, MeasurementLedger())
    bundle = train_stage1(
        list(fleet.training_real[:3]), 10, oracle,
        np.random.default_rng(seed), hyper=LIGHT, layer_sizes=(32, 32),
    )
    out = iterative_fit(bundle, rounds, 10, oracle, np.random.default_rng(explore_rng_seed))
    return out, oracle


def test_iterative_fit_zero_rounds_is_identity(fleet, reduced):
    oracle = Oracle(reduced, MeasurementLedger())
    bundle = train_stage1(
        list(fleet.training_real[:3]), 10, oracle,
        np.random.default_rng(0), hyper=LIGHT, layer_sizes=(32, 32),
    )
    before = oracle.ledger.snapshot()
    assert iterative_fit(bundle, 0, 50, oracle, np.random.default_rng(1)) is bundle
    assert oracle.ledger.snapshot() == before
    with pytest.raises(ValueError):
        iterative_fit(bundle, -1, 50, oracle, np.random.default_rng(1))


def test_iterative_fit_ledger_growth_is_exact(fleet, reduced):
    oracle = Oracle(reduced, MeasurementLedger())
    bundle = train_stage1(
        list(fleet.training_real[:3]), 10, oracle,
        np.random.default_rng(0), hyper=LIGHT, layer_sizes=(32, 32),
    )
    before = oracle.ledger.snapshot()
    updated = iterative_fit(bundle, 2, 5, oracle, np.random.default_rng(2))
    after = oracle.ledger.snapshot()
    assert after["accuracy"] - before["accuracy"] == 10
    for d in bundle.devices:
        for metric in ("latency", "energy"):
            assert after["devices"][d.device_id][metric] - before["devices"][d.device_id][metric] == 10
    assert len(updated.designs) == len(bundle.designs) + 10


def test_more_exploration_rounds_reduce_held_out_error(fleet, reduced):
    probe_rng = np.random.default_rng(123)
    probes = [sample_uniform(reduced, probe_rng) for _ in range(40)]
    devices = list(fleet.training_real[:3])

    def held_err(bundle):
        errs = []
        for d in devices:
            P = np.stack([np.concatenate([encode(x, reduced), device_embedding(d)]) for x in probes])
            truth = np.array([latency_value(reduced.design_at(x), d) for x in probes])
            errs.extend(np.abs(bundle.latency.predict_batch(P) - truth) / np.abs(truth))
        return float(np.median(errs))

    one, four = [], []
    for seed in range(10):
        b1, _ = make_small_bundle(fleet, reduced, seed, rounds=1, explore_rng_seed=1000 + seed)
        b4, _ = make_small_bundle(fleet, reduced, seed, rounds=4, explore_rng_seed=1000 + seed)
        one.append(held_err(b1))
        four.append(held_err(b4))
    assert float(np.median(four)) <= float(np.median(one))


# --- lockstep fits: the bytes of fitting one after another -----------------

TINY = TrainingSettings(epochs=6, batch_size=16)


def reference_fit(X, y, layer_sizes, hyper, rng, **tags):
    """fit as one loop over one net (a stack of one) in float32, drawing its
    epoch orders as it trains from a child spawned from rng after the net's
    init: the reference the lockstep paths must reproduce bit for bit."""
    in_mean, in_std = X.mean(axis=0), X.std(axis=0)
    in_scale = np.where(in_std < 1e-12, 1.0, in_std)
    out_mean, out_std = float(y.mean()), float(y.std())
    net = DenseNet([X.shape[1], *layer_sizes, 1], rng)
    constant = out_std < 1e-12
    if constant:
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        out_std, curve = 1.0, [0.0]
    else:
        Xn = ((X - in_mean) / in_scale).astype(np.float32)
        yn = ((y - out_mean) / out_std).astype(np.float32)
        alone = stack([net]).astype(np.float32)

        def gather(order):
            return Xn[order], yn[order]

        def batch_loss_and_grad(Xb, yb, grads):
            pred, cache = alone.forward_cached(Xb)
            err = pred[..., 0] - yb
            alone.backward(cache, (2.0 * err / yb.shape[-1])[..., None], out=grads)
            return [float(e @ e) for e in err]

        [curve] = train(alone, X.shape[0], gather, batch_loss_and_grad, hyper, rng.spawn(1))
        [net] = unstack(alone)
    return MlpRegressor(net=net, in_mean=in_mean, in_scale=in_scale, out_mean=out_mean,
                        out_scale=out_std, constant_warning=constant, final_loss=curve[-1],
                        loss_curve=curve, **tags)


def model_bytes(models) -> list[str]:
    return [json.dumps(m.to_dict()) for m in models]


def test_fit_writes_the_reference_bytes():
    X = np.random.default_rng(80).normal(size=(37, 5))
    for y in (X @ np.arange(5.0), np.full(37, 2.5)):
        a, b = np.random.default_rng(81), np.random.default_rng(81)
        got = fit(X, y, (8, 6), TINY, a, metric="energy", objective_scale=3.0)
        want = reference_fit(X, y, (8, 6), TINY, b, metric="energy", objective_scale=3.0)
        assert model_bytes([got]) == model_bytes([want])
        assert got.loss_curve == want.loss_curve
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("constant", [(), (1,), (0, 2), (0, 1, 2)],
                         ids=["none", "middle", "two", "all"])
def test_lockstep_fits_equal_sequential_fits(constant):
    data = np.random.default_rng(82)
    distinct = [data.normal(size=(37, 5)) for _ in range(3)]
    # members may share one input matrix (as the stage-1 pair shares X_dev);
    # they then train from one standardized copy of it
    for X in (distinct, [distinct[0]] * 3, [distinct[0], distinct[1], distinct[0]]):
        y = [np.full(37, 4.25) if k in constant else X[k] @ data.normal(size=5)
             for k in range(3)]
        a, b = np.random.default_rng(83), np.random.default_rng(83)
        got = fit_lockstep([prepare_fit(X[k], y[k], (8,), TINY, a, metric=str(k))
                            for k in range(3)])
        want = [reference_fit(X[k], y[k], (8,), TINY, b, metric=str(k)) for k in range(3)]
        assert model_bytes(got) == model_bytes(want)
        assert [m.constant_warning for m in got] == [k in constant for k in range(3)]
        assert a.bit_generator.state == b.bit_generator.state


def test_a_fits_designs_do_not_depend_on_the_epochs_of_fits_before_it(reduced, proxy):
    # the epoch orders come from a spawned child, so they take no draws from
    # the generator the next fit samples its designs from
    def latency_designs(epochs):
        rng = np.random.default_rng(88)
        oracle = Oracle(reduced, MeasurementLedger())
        hyper = TrainingSettings(epochs=epochs, batch_size=16)
        accuracy_fit(24, oracle, rng, hyper, (8,))
        return device_specific_fit("latency", proxy, 24, oracle, rng, hyper, (8,)).X

    np.testing.assert_array_equal(latency_designs(5), latency_designs(50))


def test_lockstep_fits_need_one_shape():
    rng = np.random.default_rng(84)
    X = rng.normal(size=(20, 4))
    y = X @ np.ones(4)
    with pytest.raises(ValueError, match="one input shape"):
        fit_lockstep([prepare_fit(X, y, (8,), TINY, rng), prepare_fit(X[:10], y[:10], (8,),
                                                                      TINY, rng)])
    with pytest.raises(ValueError, match="shape"):
        fit_lockstep([prepare_fit(X, y, (8,), TINY, rng), prepare_fit(X, y, (6,), TINY, rng)])


def test_stage1_writes_the_bytes_of_sequential_fits(reduced, fleet):
    devices = list(fleet.training_real[:3])
    a, b = np.random.default_rng(85), np.random.default_rng(85)
    bundle = train_stage1(devices, 24, Oracle(reduced, MeasurementLedger()), a, TINY, (8,))
    again = iterative_fit(bundle, 1, 8, Oracle(reduced, MeasurementLedger()), a)

    def sequential(designs):
        # the archive's labels are exact measurements; only the draws matter here
        X = np.stack([encode(x, reduced) for x in designs])
        emb = [device_embedding(d) for d in devices]
        X_dev = np.stack([np.concatenate([x, e]) for e in emb for x in X])
        ref = Oracle(reduced, MeasurementLedger())
        y_en = ref.energy_rows(designs, devices).T.reshape(-1)
        y_lat = ref.latency_rows(designs, devices).T.reshape(-1)
        return [
            reference_fit(X, ref.accuracy_rows(designs), (8,), TINY, b, metric="accuracy",
                          objective_scale=1.0),
            reference_fit(X_dev, y_en, (8,), TINY, b, metric="energy", device_tag="fleet",
                          takes_device=True, objective_scale=float(np.median(y_en))),
            reference_fit(X_dev, y_lat, (8,), TINY, b, metric="latency", device_tag="fleet",
                          takes_device=True, objective_scale=float(np.median(y_lat))),
        ]

    designs = [sample_uniform(reduced, b) for _ in range(24)]
    assert model_bytes(bundle.models()) == model_bytes(sequential(designs))
    designs += [sample_uniform(reduced, b) for _ in range(8)]
    assert model_bytes(again.models()) == model_bytes(sequential(designs))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("energy_percentile", [None, 40.0], ids=["latency", "energy"])
def test_proxy_training_writes_the_bytes_of_sequential_fits(energy_percentile):
    doc = {"seed": 3, "approach": "proxy", "space": "reduced",
           "predictor": {"samples_per_device": 40, "epochs": 5, "hidden": [8]}}
    if energy_percentile is not None:
        doc["optimize"] = {"energy_percentile": energy_percentile}
    scenario = scenario_from_dict(doc)
    fleet = draw_fleet(scenario)
    oracle = Oracle(scenario.space, MeasurementLedger())
    _, train_proxy, _ = pipeline._proxy_reuse(scenario, fleet, oracle)
    a, b = np.random.default_rng(86), np.random.default_rng(86)
    got = train_proxy(a)
    space, hyper = scenario.space, scenario.hyper
    ref_oracle = Oracle(space, MeasurementLedger())

    def sample():
        designs = [sample_uniform(space, b) for _ in range(40)]
        return designs, np.stack([encode(x, space) for x in designs])

    designs, X = sample()
    want = [reference_fit(X, ref_oracle.accuracy_rows(designs), (8,), hyper, b,
                          metric="accuracy", objective_scale=1.0)]
    for metric in ["latency"] if energy_percentile is None else ["latency", "energy"]:
        designs, X = sample()
        measure = ref_oracle.latency_rows if metric == "latency" else ref_oracle.energy_rows
        y = measure(designs, [fleet.proxy])[:, 0]
        want.append(reference_fit(X, y, (8,), hyper, b, metric=metric,
                                  device_tag=fleet.proxy.device_id,
                                  objective_scale=float(np.median(y))))
    assert model_bytes(got) == model_bytes(want)
    assert a.bit_generator.state == b.bit_generator.state
    assert oracle.ledger.snapshot() == ref_oracle.ledger.snapshot()


def test_lockstep_fit_makes_one_forward_pass_per_step(monkeypatch):
    # the benchmark's slice clock cuts a run at DenseNet.forward_cached calls
    calls = []
    original = DenseNet.forward_cached

    def counted(net, X):
        calls.append(np.shape(X))
        return original(net, X)

    monkeypatch.setattr(DenseNet, "forward_cached", counted)
    rng = np.random.default_rng(87)
    X = rng.normal(size=(37, 5))
    fit_lockstep([prepare_fit(X, X @ rng.normal(size=5), (8,), TINY, rng) for _ in range(2)])
    steps = TINY.epochs * 3  # 37 rows in batches of 16, 16, 5
    assert calls == [(2, 16, 5), (2, 16, 5), (2, 5, 5)] * TINY.epochs
    assert len(calls) == steps


# --- few-shot correction ------------------------------------------------------


def test_correction_is_the_ridge_of_the_stacked_least_squares():
    rng = np.random.default_rng(41)
    X = rng.uniform(size=(20, 5))
    base = linear_regressor([0.5, 1.0, -0.3, 0.2, 0.8], 1.0)
    y = np.exp(X @ [0.4, -0.2, 0.1, 0.3, 0.0] + rng.normal(0.0, 0.05, 20))
    model = correct(base, X, y)
    # the reference: least squares on [Z; sqrt(a) I] against [log y - mean; 0]
    Z = np.column_stack([X, np.log(base.predict_batch(X))])
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    a = CORRECTION_RIDGE
    A = np.vstack([Z, np.sqrt(a) * np.eye(Z.shape[1])])
    r = np.concatenate([np.log(y) - np.log(y).mean(), np.zeros(Z.shape[1])])
    want, *_ = np.linalg.lstsq(A, r, rcond=None)
    np.testing.assert_allclose(model.weights, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(model.predict_batch(X), np.exp(np.log(y).mean() + Z @ want),
                               rtol=1e-12)
    assert model.objective_scale == float(np.median(y))
    assert model.metric == base.metric


@pytest.mark.parametrize("case", ["base_nonpositive", "constant_column", "one_design"])
def test_correction_predicts_positive_finite_values(case):
    rng = np.random.default_rng(43)
    X = rng.uniform(size=(20, 4))
    new = rng.uniform(size=(50, 4))
    base = linear_regressor([1.0, 0.5, 0.2, 0.1], 0.5)
    if case == "base_nonpositive":  # a linear head below 0 on probes and new rows alike
        base = linear_regressor([1.0, 0.5, 0.2, 0.1], -5.0)
        X[:10] = 0.0  # and exactly 0 on half the probes
        assert np.all(base.predict_batch(np.vstack([X, new])) <= 0)
    elif case == "constant_column":  # the probes never vary column 2; new rows do
        X[:, 2] = 0.25
    else:  # every probe the one design
        X[:] = X[0]
    y = rng.uniform(0.5, 3.0, size=20)
    model = correct(base, X, y)
    got = model.predict_batch(new)
    assert np.all(np.isfinite(got)) and np.all(got > 0)
    if case != "base_nonpositive":
        assert model.weights[2] == 0.0  # a constant column standardizes to 0
    if case == "one_design":
        np.testing.assert_allclose(got, np.exp(np.log(y).mean()), rtol=1e-12)
