import json

import numpy as np
import pytest

from fleetopt.nn import (
    DenseNet,
    MomentumSgd,
    fork_orders,
    l2_penalty,
    sigmoid,
    softplus,
    stack,
    train,
    unstack,
)
from fleetopt.surrogate import TrainingSettings


def rng(seed=0):
    return np.random.default_rng(seed)


def _bits(arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def test_softplus_matches_reference():
    z = np.array([-800.0, -2.0, 0.0, 2.0, 800.0])
    expected = np.array([0.0, np.log1p(np.exp(-2.0)), np.log(2.0), 2.0 + np.log1p(np.exp(-2.0)), 800.0])
    np.testing.assert_allclose(softplus(z), expected, rtol=1e-12)


def test_sigmoid_matches_reference_and_is_bounded():
    z = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    out = sigmoid(z)
    np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-z[1:4])), rtol=1e-12)
    assert out[0] == 0.0 and out[4] == 1.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        DenseNet([3], rng())
    with pytest.raises(ValueError):
        DenseNet([3, 0, 1], rng())
    with pytest.raises(ValueError):
        DenseNet([3, 1], rng(), output_activation="relu")


def test_single_layer_linear_net_is_affine_map():
    net = DenseNet([2, 1], rng())
    net.weights[0] = np.array([[2.0], [-3.0]])
    net.biases[0] = np.array([0.5])
    X = np.array([[1.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(net.forward(X), [[-0.5], [-5.5]], rtol=1e-12)


def test_logistic_head_squashes_affine_map():
    net = DenseNet([2, 1], rng(), output_activation="logistic")
    net.weights[0] = np.array([[1.0], [1.0]])
    net.biases[0] = np.array([0.0])
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(net.forward(X), sigmoid(np.array([[0.0], [7.0]])), rtol=1e-12)


def test_forward_shape_validation():
    net = DenseNet([3, 4, 1], rng())
    with pytest.raises(ValueError):
        net.forward(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        net.forward(np.zeros(3))


def test_output_shape():
    net = DenseNet([3, 8, 2], rng())
    assert net.forward(np.zeros((5, 3))).shape == (5, 2)
    assert net.input_dim == 3
    assert net.output_dim == 2


def test_same_seed_same_weights():
    a = DenseNet([4, 8, 1], rng(7))
    b = DenseNet([4, 8, 1], rng(7))
    np.testing.assert_array_equal(a.parameter_vector(), b.parameter_vector())


def central_difference(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


@pytest.mark.parametrize("activation", ["linear", "logistic"])
def test_weight_and_bias_gradients_match_finite_differences(activation):
    net = DenseNet([3, 5, 4, 1], rng(1), output_activation=activation)
    X = rng(2).normal(size=(6, 3))
    target = rng(3).normal(size=(6, 1))

    def loss_at(theta):
        probe = net.copy()
        probe.set_parameter_vector(theta)
        return 0.5 * float(np.sum((probe.forward(X) - target) ** 2))

    out, cache = net.forward_cached(X)
    wg, bg, _ = net.backward(cache, out - target)
    analytic = np.concatenate(
        [np.concatenate([W.ravel(), b.ravel()]) for W, b in zip(wg, bg)]
    )
    numeric = central_difference(loss_at, net.parameter_vector())
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


@pytest.mark.parametrize("activation", ["linear", "logistic"])
def test_input_gradient_matches_finite_differences(activation):
    net = DenseNet([4, 6, 1], rng(4), output_activation=activation)
    x = rng(5).normal(size=4)
    analytic = net.input_gradient(x)
    numeric = central_difference(lambda v: float(net.forward(v[None, :])[0, 0]), x)
    np.testing.assert_allclose(analytic, numeric, atol=1e-7)


def test_input_gradient_requires_scalar_output():
    net = DenseNet([3, 4, 2], rng())
    with pytest.raises(ValueError):
        net.input_gradient(np.zeros(3))


def test_batch_input_gradient_via_backward():
    # dLoss/dInput from backward agrees with per-row input_gradient
    net = DenseNet([3, 5, 1], rng(6))
    X = rng(7).normal(size=(4, 3))
    _, cache = net.forward_cached(X)
    _, _, grad_in = net.backward(cache, np.ones((4, 1)))
    for row in range(4):
        np.testing.assert_allclose(grad_in[row], net.input_gradient(X[row]), rtol=1e-10)


def test_parameter_vector_roundtrip():
    net = DenseNet([3, 7, 2], rng(8))
    theta = net.parameter_vector()
    clone = DenseNet([3, 7, 2], rng(9))
    clone.set_parameter_vector(theta)
    np.testing.assert_array_equal(clone.parameter_vector(), theta)
    with pytest.raises(ValueError):
        clone.set_parameter_vector(theta[:-1])


def test_copy_is_independent():
    net = DenseNet([2, 3, 1], rng(10))
    clone = net.copy()
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]
    assert clone.layer_sizes == net.layer_sizes


def test_momentum_sgd_validation_and_step():
    net = DenseNet([2, 1], rng(11))
    with pytest.raises(ValueError):
        MomentumSgd(net, 0.0, 0.5)
    with pytest.raises(ValueError):
        MomentumSgd(net, 0.1, 1.0)
    net.weights[0] = np.array([[1.0], [1.0]])
    net.biases[0] = np.array([0.0])
    opt = MomentumSgd(net, learning_rate=0.1, momentum=0.5)
    g = [np.array([[1.0], [2.0]])]
    gb = [np.array([3.0])]
    opt.step(g, gb)
    np.testing.assert_allclose(net.weights[0], [[0.9], [0.8]])
    np.testing.assert_allclose(net.biases[0], [-0.3])
    opt.step(g, gb)
    # velocity folds in half the previous gradient
    np.testing.assert_allclose(net.weights[0], [[0.9 - 0.15], [0.8 - 0.3]])
    np.testing.assert_allclose(net.biases[0], [-0.3 - 0.45])


@pytest.mark.parametrize("shape", [[5, 7, 3], [5, 7, 4, 1]])
def test_momentum_step_is_the_per_array_formula_bit_for_bit(shape):
    # the optimizer steps one flat buffer; each array must move as
    # v <- m*v + g; p <- p - lr*v would move it on its own
    net = DenseNet(shape, rng(18))
    params = [p.copy() for p in net.weights + net.biases]
    opt = MomentumSgd(net, 0.05, 0.9)
    velocity = [np.zeros_like(p) for p in params]
    draws = rng(19)
    for _ in range(4):
        grads = [draws.normal(size=p.shape) for p in params]
        opt.step(grads[:len(net.weights)], grads[len(net.weights):])
        for i, g in enumerate(grads):
            velocity[i] = 0.9 * velocity[i] + g
            params[i] -= 0.05 * velocity[i]
        assert _bits(net.weights + net.biases) == _bits(params)


def test_training_shrinks_loss_on_tiny_regression():
    net = DenseNet([1, 8, 1], rng(12))
    X = np.linspace(-1, 1, 32)[:, None]
    Y = X**2
    opt = MomentumSgd(net, learning_rate=0.05, momentum=0.9)
    out, cache = net.forward_cached(X)
    first = float(np.mean((out - Y) ** 2))
    for _ in range(500):
        out, cache = net.forward_cached(X)
        wg, bg, _ = net.backward(cache, (out - Y) / len(X))
        opt.step(wg, bg)
    last = float(np.mean((net.forward(X) - Y) ** 2))
    assert last < first / 10


def test_to_dict_from_dict_roundtrip():
    net = DenseNet([3, 5, 2], rng(13), output_activation="logistic")
    doc = json.loads(json.dumps({**net.to_dict(), "other_key": 1}))
    back = DenseNet.from_dict(doc)
    assert back.layer_sizes == net.layer_sizes
    assert back.output_activation == "logistic"
    np.testing.assert_array_equal(back.parameter_vector(), net.parameter_vector())
    X = rng(14).normal(size=(4, 3))
    np.testing.assert_array_equal(back.forward(X), net.forward(X))


def test_l2_penalty():
    net = DenseNet([2, 3, 1], rng(15))
    theta = net.parameter_vector()
    assert l2_penalty(net, 0.0) == 0.0
    assert l2_penalty(net, 0.5) == pytest.approx(0.5 * float(theta @ theta), rel=1e-12)


@pytest.mark.parametrize("mu", [0.0, 1e-2])
def test_train_is_shuffled_minibatch_momentum_sgd(mu):
    # the contract, written out by hand: one permutation per epoch, a short
    # last batch, the penalty gradient added before each step; a lone net
    # trains as a stack of one
    X = np.linspace(-1, 1, 12)[:, None]
    Y = X**2
    ref = DenseNet([1, 4, 1], rng(16))
    net = stack([ref.copy()])

    def batch_loss_and_grad(idx):
        out, cache = net.forward_cached(X[idx])
        err = out - Y[idx]
        wg, bg, _ = net.backward(cache, 2.0 * err / idx.shape[-1])
        return [float(np.sum(e * e)) for e in err], wg, bg

    hyper = TrainingSettings(learning_rate=0.05, momentum=0.9, epochs=60, batch_size=5)
    [curve] = train(net, 12, batch_loss_and_grad, hyper, [rng(17)], mu)

    opt = MomentumSgd(ref, hyper.learning_rate, hyper.momentum)
    order_rng = rng(17)
    expected = []
    for _ in range(hyper.epochs):
        order = order_rng.permutation(12)
        total = 0.0
        for batch in (order[:5], order[5:10], order[10:]):
            out, cache = ref.forward_cached(X[batch])
            err = out - Y[batch]
            total += float(np.sum(err * err))
            wg, bg, _ = ref.backward(cache, 2.0 * err / batch.size)
            wg = [g + 2.0 * mu * W for g, W in zip(wg, ref.weights)]
            bg = [g + 2.0 * mu * b for g, b in zip(bg, ref.biases)]
            opt.step(wg, bg)
        expected.append(total / 12 + l2_penalty(ref, mu))
    [trained] = unstack(net)
    np.testing.assert_allclose(trained.parameter_vector(), ref.parameter_vector(), rtol=1e-12)
    np.testing.assert_allclose(curve, expected, rtol=1e-12)
    assert curve[-1] < curve[0]


# --- stacks: K nets of one shape stepped as one ----------------------------


@pytest.mark.parametrize("activation", ["linear", "logistic"])
@pytest.mark.parametrize("rows", [32, 20, 1], ids=["full", "ragged", "one-row"])
@pytest.mark.parametrize("mu", [0.0, 1e-2])
def test_stacked_step_equals_member_steps_bit_for_bit(activation, rows, mu):
    members = [DenseNet([9, 16, 12, 3], rng(20 + k), output_activation=activation)
               for k in range(3)]
    net = stack(members)
    X = rng(30).normal(size=(3, rows, 9))
    G = rng(31).normal(size=(3, rows, 3))
    opt = MomentumSgd(net, 0.05, 0.9)
    opts = [MomentumSgd(m, 0.05, 0.9) for m in members]
    for _ in range(3):  # momentum carries over between steps
        out, cache = net.forward_cached(X)
        wg, bg, grad_in = net.backward(cache, G * out)
        for k, m in enumerate(members):
            out_k, cache_k = m.forward_cached(X[k])
            wg_k, bg_k, grad_in_k = m.backward(cache_k, G[k] * out_k)
            assert _bits([out[k], grad_in[k]]) == _bits([out_k, grad_in_k])
            assert _bits([g[k] for g in wg]) == _bits(wg_k)
            assert _bits([g[k, 0] for g in bg]) == _bits(bg_k)
            wg_k = [g + 2.0 * mu * W for g, W in zip(wg_k, m.weights)]
            bg_k = [g + 2.0 * mu * b for g, b in zip(bg_k, m.biases)]
            opts[k].step(wg_k, bg_k)
        for i in range(len(wg)):
            wg[i] += 2.0 * mu * net.weights[i]
            bg[i] += 2.0 * mu * net.biases[i]
        opt.step(wg, bg)
    for got, want in zip(unstack(net), members):
        assert _bits(got.weights + got.biases) == _bits(want.weights + want.biases)
        assert l2_penalty(got, mu) == l2_penalty(want, mu)


def test_frozen_net_takes_a_stack_of_batches():
    net = DenseNet([5, 8, 1], rng(40))
    X = rng(41).normal(size=(3, 7, 5))
    out, cache = net.forward_cached(X)
    w, b, grad_in = net.backward(cache, np.ones_like(out), params=False)
    assert all(g.size == 0 for g in w + b)
    for k in range(3):
        out_k, cache_k = net.forward_cached(X[k])
        _, _, grad_k = net.backward(cache_k, np.ones_like(out_k))
        assert _bits([out[k], grad_in[k]]) == _bits([out_k, grad_k])


def test_backward_can_skip_the_input_gradient():
    net = DenseNet([4, 6, 1], rng(42))
    out, cache = net.forward_cached(rng(43).normal(size=(5, 4)))
    wg, bg, grad_in = net.backward(cache, out)
    wg2, bg2, none = net.backward(cache, out, inputs=False)
    assert none is None
    assert _bits(wg + bg) == _bits(wg2 + bg2)


def test_stack_rejects_mixed_shapes_and_heads():
    with pytest.raises(ValueError):
        stack([DenseNet([3, 4, 1], rng()), DenseNet([3, 5, 1], rng())])
    with pytest.raises(ValueError):
        stack([DenseNet([3, 4, 1], rng()), DenseNet([3, 4, 1], rng(), "logistic")])
    pair = stack([DenseNet([3, 4, 1], rng()), DenseNet([3, 4, 1], rng(1))])
    with pytest.raises(ValueError):
        stack([pair, pair])


def test_fork_orders_replays_the_draws_train_would_make():
    a, b = rng(50), rng(50)
    fork = fork_orders(a, 13, 4)
    for _ in range(4):
        np.testing.assert_array_equal(fork.permutation(13), b.permutation(13))
    assert a.bit_generator.state == b.bit_generator.state
    assert fork.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("mu", [0.0, 1e-2])
@pytest.mark.parametrize("activation", ["linear", "logistic"])
def test_train_on_a_stack_equals_member_trains(mu, activation):
    # 11 rows in batches of 4: a ragged last batch of 3 every epoch
    n, hyper = 11, TrainingSettings(learning_rate=0.05, momentum=0.9, epochs=25, batch_size=4)
    X = rng(60).normal(size=(n, 3))
    Y = rng(61).normal(size=(3, n))
    members = [DenseNet([3, 6, 1], rng(62 + k), output_activation=activation) for k in range(3)]
    net = stack([m.copy() for m in members])

    def stacked_loss_and_grad(idx):
        out, cache = net.forward_cached(X[idx])
        err = out[..., 0] - np.take_along_axis(Y, idx, axis=1)
        wg, bg, _ = net.backward(cache, (2.0 * err / idx.shape[-1])[..., None])
        return [float(e @ e) for e in err], wg, bg

    curves = train(net, n, stacked_loss_and_grad, hyper, [rng(70 + k) for k in range(3)], mu)
    for k, (member, trained) in enumerate(zip(members, unstack(net))):
        alone = stack([member])  # member k trained by itself, a stack of one

        def loss_and_grad(idx, alone=alone, y=Y[k]):
            out, cache = alone.forward_cached(X[idx])
            err = out[..., 0] - y[idx]
            wg, bg, _ = alone.backward(cache, (2.0 * err / idx.shape[-1])[..., None])
            return [float(e @ e) for e in err], wg, bg

        [curve] = train(alone, n, loss_and_grad, hyper, [rng(70 + k)], mu)
        [member] = unstack(alone)
        assert curves[k] == curve
        assert _bits(trained.weights + trained.biases) == _bits(member.weights + member.biases)
