"""Small dense network with hand-written backprop.

Hidden layers use softplus so the map from input to output is smooth: the
amortized optimizer differentiates *through* these nets with respect to their
inputs, and kinked activations would hand it zero or jumpy gradients. The
output head is linear for regression or logistic when outputs must land in
(0, 1). Gradients come in two flavors, weights (for training the net itself)
and inputs (for training whatever feeds it).

Numbers are numpy arrays of the weights' dtype: forward and backward work in
it. Training runs in float32 on a float32 copy (`astype`); models are kept,
saved and used for inference in float64, so a trained net's values are float32
values held in float64.

Training has one shape: a stack of K >= 1 nets of one shape (see `stack`),
weights (K, fan_in, fan_out), batches (K, b, fan_in), stepped by the one
minibatch loop `train`; a single fit is a stack with K = 1. Member k's numbers
are bit for bit those a 2-D net would have alone; only numpy's per-call cost
is shared. Forward and backward also take 2-D nets, which is how trained nets
are used: for inference and as frozen predictors.
"""

from __future__ import annotations

import numpy as np


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) computed from the negative side so large z cannot overflow;
    # max(z, 0) + log1p(exp(-|z|)), worked in one buffer on the SGD hot path
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class DenseNet:
    """Fully connected net; weights[i] has shape (fan_in, fan_out). The head
    is "linear" or "logistic"; from_dict checks a model file's."""

    def __init__(
        self,
        layer_sizes: list[int],
        rng: np.random.Generator,
        output_activation: str = "linear",
    ):
        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, X: np.ndarray) -> np.ndarray:
        Y, _ = self.forward_cached(X)
        return Y

    @property
    def stacked(self) -> bool:
        return self.weights[0].ndim == 3

    def forward_cached(self, X: np.ndarray):
        """Returns (output, cache) where cache holds the per-layer activations
        needed by backward(). X is (n, in) or a stack of batches (K, n, in);
        a stacked net gives batch k to member k, a 2-D net takes every batch.
        X is cast to the weights' dtype."""
        X = np.asarray(X, dtype=self.weights[0].dtype)
        if X.ndim not in (2, 3) or X.shape[-1] != self.input_dim:
            raise ValueError(f"expected shape (n, {self.input_dim}), got {X.shape}")
        activations = [X]
        last = len(self.weights) - 1
        a = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W
            z += b
            if i < last:
                a = softplus(z)
            elif self.output_activation == "logistic":
                a = sigmoid(z)
            else:
                a = z
            activations.append(a)
        return a, activations

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray,
                 params: bool = True, inputs: bool = True, out=None):
        """Backprop dLoss/dOutput to (weight grads, bias grads, dLoss/dInput).

        params=False skips the weight and bias grads (they come back empty),
        inputs=False the input grad (None): a frozen net needs only the one,
        a net being trained only the others. out=(weight grads, bias grads),
        lists of arrays shaped like the weights and biases (MomentumSgd.grads),
        receives the grads instead of new arrays.

        softplus' = sigmoid(z); both it and the logistic derivative a(1-a) are
        reconstructed from stored activations, so no pre-activations are kept.
        A layer of width 1 passes its grad back as a broadcast product: a
        matmul over an inner dimension of 1 makes that one product per entry.
        """
        grad = np.asarray(grad_out, dtype=self.weights[0].dtype)
        weight_grads, bias_grads = out or ([np.empty(0)] * len(self.weights),
                                           [np.empty(0)] * len(self.biases))
        stacked = self.stacked
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a_out = activations[i + 1]
            if i == last:
                if self.output_activation == "logistic":
                    grad = grad * a_out * (1.0 - a_out)
            else:
                # invert softplus: a = log(1+e^z) => sigmoid(z) = 1 - e^(-a)
                d = np.negative(a_out)
                np.exp(d, out=d)
                np.subtract(1.0, d, out=d)
                d *= grad
                grad = d
            if params:
                weight_grads[i] = np.matmul(activations[i].swapaxes(-1, -2), grad,
                                            out=weight_grads[i] if out else None)
                bias_grads[i] = np.add.reduce(grad, axis=-2, keepdims=stacked,
                                              out=bias_grads[i] if out else None)
            if i or inputs:
                W_t = self.weights[i].swapaxes(-1, -2)
                grad = grad * W_t if W_t.shape[-2] == 1 else grad @ W_t
        return weight_grads, bias_grads, grad if inputs else None

    def input_gradient(self, x: np.ndarray) -> np.ndarray:
        """d(scalar output)/d(input) for a single input row; output_dim must be 1."""
        if self.output_dim != 1:
            raise ValueError("input_gradient is defined for scalar-output nets")
        _, cache = self.forward_cached(np.atleast_2d(x))
        _, _, grad_in = self.backward(cache, np.ones((1, 1)), params=False)
        return grad_in[0]

    def parameter_vector(self) -> np.ndarray:
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_parameter_vector(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        pos = 0
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = theta[pos : pos + W.size].reshape(W.shape).copy()
            pos += W.size
            self.biases[i] = theta[pos : pos + b.size].copy()
            pos += b.size
        if pos != theta.size:
            raise ValueError(f"parameter vector has {theta.size} entries, expected {pos}")

    def to_dict(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "output_activation": self.output_activation,
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def _of(cls, layer_sizes, output_activation: str, weights, biases,
            dtype=np.float64) -> "DenseNet":
        net = object.__new__(cls)
        net.layer_sizes = list(layer_sizes)
        net.output_activation = output_activation
        net.weights = [np.array(W, dtype=dtype) for W in weights]
        net.biases = [np.array(b, dtype=dtype) for b in biases]
        return net

    @classmethod
    def from_dict(cls, d: dict) -> "DenseNet":
        """Inverse of to_dict; other keys are ignored, so a whole model file's
        document can be passed. ValueError unless the head is one DenseNet
        knows, layer_sizes holds an input and an output size, and each weight
        is (fan_in, fan_out) and each bias (fan_out,) of layer_sizes."""
        net = cls._of(d["layer_sizes"], d["output_activation"], d["weights"], d["biases"])
        if net.output_activation not in ("linear", "logistic"):
            raise ValueError(f"unknown output activation {net.output_activation!r}")
        sizes = net.layer_sizes
        expected = [*zip(sizes, sizes[1:]), *((n,) for n in sizes[1:])]
        if len(sizes) < 2 or [a.shape for a in net.weights + net.biases] != expected:
            raise ValueError(f"weights and biases do not match layer_sizes {sizes}")
        return net

    def copy(self) -> "DenseNet":
        return self.astype(self.weights[0].dtype)

    def astype(self, dtype) -> "DenseNet":
        """An independent copy whose weights and biases are of dtype."""
        return DenseNet._of(self.layer_sizes, self.output_activation, self.weights, self.biases,
                            dtype)


def normalized_net(d: dict) -> dict:
    """The net, in_mean and in_scale of a model document (a predictor's or an
    optimizer's) as its model's keyword arguments; ValueError unless each
    normalizer holds one entry per input of the net, every weight, bias and
    normalizer entry is finite and every in_scale entry positive."""
    net = DenseNet.from_dict(d)
    out = {"net": net}
    for key in ("in_mean", "in_scale"):
        out[key] = np.array(d[key], dtype=float)
        if out[key].shape != (net.input_dim,):
            raise ValueError(f"{key} must hold {net.input_dim} entries, got {out[key].shape}")
    arrays = [*net.weights, *net.biases, out["in_mean"], out["in_scale"]]
    if not all(np.isfinite(a).all() for a in arrays) or np.any(out["in_scale"] <= 0):
        raise ValueError("weights, biases and normalizers must be finite, in_scale positive")
    return out


def stack(nets: list[DenseNet]) -> DenseNet:
    """K nets of one shape as one net: weights[i] (K, fan_in, fan_out),
    biases[i] (K, 1, fan_out). forward_cached takes (K, b, fan_in) batches,
    batch k for member k, and backward, MomentumSgd and train step every
    member at once; unstack gives the members back as ordinary nets. The
    stack is float64; train a float32 copy of it (astype)."""
    first = nets[0]
    for net in nets:
        if net.stacked or (net.layer_sizes, net.output_activation) != (
                first.layer_sizes, first.output_activation):
            raise ValueError("only 2-D nets of one shape and head can be stacked")
    weights = [np.stack(layer) for layer in zip(*(net.weights for net in nets))]
    biases = [np.stack(layer)[:, None, :] for layer in zip(*(net.biases for net in nets))]
    return DenseNet._of(first.layer_sizes, first.output_activation, weights, biases)


def unstack(net: DenseNet) -> list[DenseNet]:
    """The members of a stacked net, each an independent float64 2-D net (a
    float32 stack's values exactly)."""
    return [
        DenseNet._of(net.layer_sizes, net.output_activation,
                     [W[k] for W in net.weights], [b[k, 0] for b in net.biases])
        for k in range(net.weights[0].shape[0])
    ]


class MomentumSgd:
    """Classic momentum: v <- m*v + g; p <- p - lr*v, where g is the loss
    gradient plus that of mu * ||theta||^2.

    The optimizer holds the net's weights and biases in one flat buffer and
    rebinds net.weights[i] and net.biases[i] to views of it (same values), so
    a step is a few array operations however many layers there are. An array
    put in the net's lists afterwards would not be stepped. The loss gradient
    lives in a second flat buffer: grads holds its (weight grads, bias grads)
    views, which net.backward(..., out=opt.grads) fills before each step.
    """

    def __init__(self, net: DenseNet, learning_rate: float, momentum: float, mu: float = 0.0):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.mu = mu
        params = net.weights + net.biases
        self._theta = np.concatenate([p.ravel() for p in params])
        self._grad = np.zeros_like(self._theta)
        layers = len(net.weights)
        net.weights[:], net.biases[:] = _split(self._theta, params, layers)
        self.grads = _split(self._grad, params, layers)
        self._velocity = np.zeros_like(self._theta)

    def step(self) -> None:
        """One update of the net the optimizer was made for, by grads."""
        if self.mu > 0:
            self._grad += 2.0 * self.mu * self._theta
        self._velocity *= self.momentum
        self._velocity += self._grad
        self._theta -= self.learning_rate * self._velocity


def _split(flat: np.ndarray, like: list[np.ndarray], layers: int):
    """Views of flat shaped as the arrays of like, in order: the first layers
    of them, then the rest."""
    views, pos = [], 0
    for p in like:
        views.append(flat[pos : pos + p.size].reshape(p.shape))
        pos += p.size
    return views[:layers], views[layers:]


def l2_penalty(net: DenseNet, mu: float) -> float:
    """mu * ||theta||^2 over every weight and bias; exactly 0.0 when mu is 0."""
    if mu == 0:
        return 0.0
    return mu * float(sum(np.sum(W * W) for W in net.weights) + sum(b @ b for b in net.biases))


class DivergedError(ArithmeticError):
    """A net's training loss went non-finite: its steps overflowed its dtype."""


def train(net: DenseNet, n: int, gather, batch_loss_and_grad, hyper, rngs, mu: float = 0.0,
          names=None):
    """Minibatch momentum SGD of a stack of K nets over n rows each; returns
    one per-epoch loss curve per member. An epoch whose loss is not finite for
    some member raises DivergedError naming it by names[k] (default "net k").

    hyper carries learning_rate, momentum, epochs and batch_size (a
    surrogate.TrainingSettings). rngs holds one generator per member; each
    epoch, member k visits its rows once in a fresh order drawn from rngs[k].
    gather(order) takes the epoch's orders (K, n) and returns the arrays the
    batches are cut from, each (K, n, ...) with member k's rows in order k.
    batch_loss_and_grad(*batch, grads) takes each array's next b columns,
    writes the weight and bias gradients of each member's mean loss into grads
    (see MomentumSgd.grads) and returns the K summed row losses; with mu > 0
    the gradient of mu * ||theta||^2 is added at each step. A curve entry is
    the epoch's mean row loss plus the penalty at the epoch's end, each what
    training that member alone would give.
    """
    opt = MomentumSgd(net, hyper.learning_rate, hyper.momentum, mu)
    batch = min(hyper.batch_size, n)
    curves: list[list[float]] = [[] for _ in rngs]
    # a diverging epoch overflows before its loss is checked; the check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            rows = gather(np.stack([r.permutation(n) for r in rngs]))
            loss_sum = np.zeros(len(rngs))
            for start in range(0, n, batch):
                loss_sum += batch_loss_and_grad(*(a[:, start : start + batch] for a in rows),
                                                opt.grads)
                opt.step()
            if not np.isfinite(loss_sum).all():
                k = int(np.isfinite(loss_sum).argmin())
                name = f"net {k}" if names is None else names[k]
                raise DivergedError(
                    f"{name} diverged: non-finite training loss in epoch {epoch + 1}")
            # the penalty is exactly 0.0 without mu, so the members are not copied out
            penalties = [l2_penalty(m, mu) for m in unstack(net)] if mu else [0.0] * len(rngs)
            for curve, s, penalty in zip(curves, loss_sum, penalties):
                curve.append(float(s) / n + penalty)
    return curves
