import functools
import json

import numpy as np
import pytest

from fleetopt.nn import (
    DenseNet,
    MomentumSgd,
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
    [g], [gb] = opt.grads
    g[:], gb[:] = [[1.0], [2.0]], [3.0]
    opt.step()
    np.testing.assert_allclose(net.weights[0], [[0.9], [0.8]])
    np.testing.assert_allclose(net.biases[0], [-0.3])
    opt.step()
    # velocity folds in half the previous gradient
    np.testing.assert_allclose(net.weights[0], [[0.9 - 0.15], [0.8 - 0.3]])
    np.testing.assert_allclose(net.biases[0], [-0.3 - 0.45])


@pytest.mark.parametrize("shape", [[5, 7, 3], [5, 7, 4, 1]])
def test_momentum_step_is_the_per_array_formula_bit_for_bit(shape):
    for dtype in (np.float64, np.float32):
        for mu in (0.0, 1e-2):
            _check_momentum_step(shape, dtype, mu)


def _check_momentum_step(shape, dtype, mu):
    # the optimizer steps one flat buffer; each array must move as
    # g += 2 mu p; v <- m*v + g; p <- p - lr*v would move it on its own
    net = DenseNet(shape, rng(18)).astype(dtype)
    params = [p.copy() for p in net.weights + net.biases]
    opt = MomentumSgd(net, 0.05, 0.9, mu)
    velocity = [np.zeros_like(p) for p in params]
    draws = rng(19)
    for _ in range(4):
        grads = [draws.normal(size=p.shape).astype(dtype) for p in params]
        for view, g in zip(opt.grads[0] + opt.grads[1], grads):
            view[...] = g
        opt.step()
        for i, g in enumerate(grads):
            if mu:
                g = g + 2.0 * mu * params[i]
            velocity[i] = 0.9 * velocity[i] + g
            params[i] -= 0.05 * velocity[i]
        assert _bits(net.weights + net.biases) == _bits(params)
        assert all(p.dtype == dtype for p in net.weights + net.biases)


def test_training_shrinks_loss_on_tiny_regression():
    net = DenseNet([1, 8, 1], rng(12))
    X = np.linspace(-1, 1, 32)[:, None]
    Y = X**2
    opt = MomentumSgd(net, learning_rate=0.05, momentum=0.9)
    out, cache = net.forward_cached(X)
    first = float(np.mean((out - Y) ** 2))
    for _ in range(500):
        out, cache = net.forward_cached(X)
        net.backward(cache, (out - Y) / len(X), out=opt.grads)
        opt.step()
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

    def gather(order):
        return X[order], Y[order]

    def batch_loss_and_grad(Xb, Yb, grads):
        out, cache = net.forward_cached(Xb)
        err = out - Yb
        net.backward(cache, 2.0 * err / Xb.shape[-2], out=grads)
        return [float(np.sum(e * e)) for e in err]

    hyper = TrainingSettings(learning_rate=0.05, momentum=0.9, epochs=60, batch_size=5)
    [curve] = train(net, 12, gather, batch_loss_and_grad, hyper, [rng(17)], mu)

    velocity = [np.zeros_like(p) for p in ref.weights + ref.biases]
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
            params = ref.weights + ref.biases
            for i, (p, g) in enumerate(zip(params, wg + bg)):
                velocity[i] = hyper.momentum * velocity[i] + (g + 2.0 * mu * p)
                p -= hyper.learning_rate * velocity[i]
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
    for dtype in (np.float64, np.float32):
        _check_stacked_step(activation, rows, mu, dtype)


def _check_stacked_step(activation, rows, mu, dtype):
    members = [DenseNet([9, 16, 12, 3], rng(20 + k), output_activation=activation).astype(dtype)
               for k in range(3)]
    net = stack(members).astype(dtype)
    X = rng(30).normal(size=(3, rows, 9)).astype(dtype)
    G = rng(31).normal(size=(3, rows, 3)).astype(dtype)
    opt = MomentumSgd(net, 0.05, 0.9, mu)
    opts = [MomentumSgd(m, 0.05, 0.9, mu) for m in members]
    for _ in range(3):  # momentum carries over between steps
        out, cache = net.forward_cached(X)
        wg, bg, grad_in = net.backward(cache, G * out, out=opt.grads)
        for k, m in enumerate(members):
            out_k, cache_k = m.forward_cached(X[k])
            wg_k, bg_k, grad_in_k = m.backward(cache_k, G[k] * out_k, out=opts[k].grads)
            assert _bits([out[k], grad_in[k]]) == _bits([out_k, grad_in_k])
            assert _bits([g[k] for g in wg]) == _bits(wg_k)
            assert _bits([g[k, 0] for g in bg]) == _bits(bg_k)
            opts[k].step()
        opt.step()
    for got, want in zip(unstack(net), members):
        want = want.astype(np.float64)
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


@pytest.mark.parametrize("mu", [0.0, 1e-2])
@pytest.mark.parametrize("activation", ["linear", "logistic"])
def test_train_on_a_stack_equals_member_trains(mu, activation):
    for dtype in (np.float64, np.float32):
        _check_stack_train(mu, activation, dtype)


def _check_stack_train(mu, activation, dtype):
    # 11 rows in batches of 4: a ragged last batch of 3 every epoch
    n, hyper = 11, TrainingSettings(learning_rate=0.05, momentum=0.9, epochs=25, batch_size=4)
    X = rng(60).normal(size=(n, 3)).astype(dtype)
    Y = rng(61).normal(size=(3, n)).astype(dtype)
    members = [DenseNet([3, 6, 1], rng(62 + k), output_activation=activation) for k in range(3)]
    net = stack([m.copy() for m in members]).astype(dtype)

    def gather(order):
        return X[order], np.take_along_axis(Y, order, axis=1)

    def loss_and_grad(net, Xb, yb, grads):
        out, cache = net.forward_cached(Xb)
        err = out[..., 0] - yb
        net.backward(cache, (2.0 * err / yb.shape[-1])[..., None], out=grads)
        return [float(e @ e) for e in err]

    curves = train(net, n, gather, functools.partial(loss_and_grad, net), hyper,
                   [rng(70 + k) for k in range(3)], mu)
    for k, (member, trained) in enumerate(zip(members, unstack(net))):
        alone = stack([member]).astype(dtype)  # member k trained by itself, a stack of one

        def gather_alone(order, y=Y[k]):
            return X[order], y[order]

        [curve] = train(alone, n, gather_alone, functools.partial(loss_and_grad, alone), hyper,
                        [rng(70 + k)], mu)
        [member] = unstack(alone)
        assert curves[k] == curve
        assert _bits(trained.weights + trained.biases) == _bits(member.weights + member.biases)


# --- dtypes: float32 training, float64 everywhere else ------------------------


@pytest.mark.parametrize("stacked", [False, True], ids=["2-D", "stack"])
@pytest.mark.parametrize("activation", ["linear", "logistic"])
def test_forward_and_backward_work_in_the_weights_dtype(activation, stacked):
    net = DenseNet([4, 6, 5, 1], rng(80), output_activation=activation)
    if stacked:
        net = stack([net, DenseNet([4, 6, 5, 1], rng(81), output_activation=activation)])
    X = rng(82).normal(size=(2, 7, 4) if stacked else (7, 4))
    for dtype in (np.float64, np.float32):
        typed = net.astype(dtype)
        # float64 and float32 inputs alike are cast to the weights' dtype
        for given in (X, X.astype(np.float32)):
            out, cache = typed.forward_cached(given)
            wg, bg, grad_in = typed.backward(cache, np.ones_like(out, dtype=np.float64))
            assert {a.dtype for a in [out, grad_in, *cache, *wg, *bg]} == {np.dtype(dtype)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(7, 1), (2, 7, 1)], ids=["2-D", "stack"])
def test_width_one_backprop_broadcast_equals_the_matmul(shape, dtype):
    # a layer of width 1 passes its grad back as grad * W^T, not grad @ W^T
    draws = rng(83)
    grad = draws.normal(size=shape).astype(dtype)
    W_t = draws.normal(size=shape[:-2] + (1, 9)).astype(dtype)
    assert _bits([grad * W_t]) == _bits([grad @ W_t])
    net = DenseNet([3, 9, 1], rng(84))
    if len(shape) == 3:
        net = stack([net, DenseNet([3, 9, 1], rng(85))])
    net = net.astype(dtype)
    _, cache = net.forward_cached(draws.normal(size=shape[:-1] + (3,)))
    _, _, grad_in = net.backward(cache, grad)
    W = net.weights
    g1 = (grad @ W[1].swapaxes(-1, -2)) * (1.0 - np.exp(-cache[1]))
    assert _bits([grad_in]) == _bits([g1 @ W[0].swapaxes(-1, -2)])
