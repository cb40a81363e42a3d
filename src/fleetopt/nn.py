"""Small dense network with hand-written backprop.

Hidden layers use softplus so the map from input to output is smooth: the
amortized optimizer differentiates *through* these nets with respect to their
inputs, and kinked activations would hand it zero or jumpy gradients. The
output head is linear for regression or logistic when outputs must land in
(0, 1). Everything is float64 numpy; gradients come in two flavors, weights
(for training the net itself) and inputs (for training whatever feeds it).
Every network in the package is trained by the one minibatch loop `train`.
"""

from __future__ import annotations

import numpy as np


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) computed from the negative side so large z cannot overflow
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class DenseNet:
    """Fully connected net; weights[i] has shape (fan_in, fan_out)."""

    def __init__(
        self,
        layer_sizes: list[int],
        rng: np.random.Generator,
        output_activation: str = "linear",
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(n < 1 for n in layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        if output_activation not in ("linear", "logistic"):
            raise ValueError(f"unknown output activation {output_activation!r}")
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

    def forward_cached(self, X: np.ndarray):
        """Returns (output, cache) where cache holds the per-layer activations
        needed by backward()."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected shape (n, {self.input_dim}), got {X.shape}")
        activations = [X]
        last = len(self.weights) - 1
        a = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            if i < last:
                a = softplus(z)
            elif self.output_activation == "logistic":
                a = sigmoid(z)
            else:
                a = z
            activations.append(a)
        return a, activations

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray):
        """Backprop dLoss/dOutput to (weight grads, bias grads, dLoss/dInput).

        softplus' = sigmoid(z); both it and the logistic derivative a(1-a) are
        reconstructed from stored activations, so no pre-activations are kept.
        """
        grad = np.asarray(grad_out, dtype=float)
        weight_grads = [np.empty(0)] * len(self.weights)
        bias_grads = [np.empty(0)] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a_out = activations[i + 1]
            if i == last:
                if self.output_activation == "logistic":
                    grad = grad * a_out * (1.0 - a_out)
            else:
                # invert softplus: a = log(1+e^z) => sigmoid(z) = 1 - e^(-a)
                grad = grad * (1.0 - np.exp(-a_out))
            a_in = activations[i]
            weight_grads[i] = a_in.T @ grad
            bias_grads[i] = grad.sum(axis=0)
            grad = grad @ self.weights[i].T
        return weight_grads, bias_grads, grad

    def input_gradient(self, x: np.ndarray) -> np.ndarray:
        """d(scalar output)/d(input) for a single input row; output_dim must be 1."""
        if self.output_dim != 1:
            raise ValueError("input_gradient is defined for scalar-output nets")
        _, cache = self.forward_cached(np.atleast_2d(x))
        _, _, grad_in = self.backward(cache, np.ones((1, 1)))
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
    def from_dict(cls, d: dict) -> "DenseNet":
        """Inverse of to_dict; other keys are ignored, so a whole model file's
        document can be passed."""
        net = object.__new__(cls)
        net.layer_sizes = list(d["layer_sizes"])
        net.output_activation = d["output_activation"]
        net.weights = [np.array(W, dtype=float) for W in d["weights"]]
        net.biases = [np.array(b, dtype=float) for b in d["biases"]]
        return net

    def copy(self) -> "DenseNet":
        clone = object.__new__(DenseNet)
        clone.layer_sizes = list(self.layer_sizes)
        clone.output_activation = self.output_activation
        clone.weights = [W.copy() for W in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone


class MomentumSgd:
    """Classic momentum: v <- m*v + g; p <- p - lr*v."""

    def __init__(self, net: DenseNet, learning_rate: float, momentum: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._vw = [np.zeros_like(W) for W in net.weights]
        self._vb = [np.zeros_like(b) for b in net.biases]

    def step(self, net: DenseNet, weight_grads, bias_grads) -> None:
        for i in range(len(net.weights)):
            self._vw[i] = self.momentum * self._vw[i] + weight_grads[i]
            self._vb[i] = self.momentum * self._vb[i] + bias_grads[i]
            net.weights[i] -= self.learning_rate * self._vw[i]
            net.biases[i] -= self.learning_rate * self._vb[i]


def l2_penalty(net: DenseNet, mu: float) -> float:
    """mu * ||theta||^2 over every weight and bias; exactly 0.0 when mu is 0."""
    if mu == 0:
        return 0.0
    return mu * float(sum(np.sum(W * W) for W in net.weights) + sum(b @ b for b in net.biases))


def train(net: DenseNet, n: int, batch_loss_and_grad, hyper, rng: np.random.Generator,
          mu: float = 0.0) -> list[float]:
    """Minibatch momentum SGD over n rows; returns the per-epoch loss curve.

    hyper carries learning_rate, momentum, epochs and batch_size (a
    surrogate.TrainingSettings). Each epoch visits the rows once, in a fresh
    order drawn from rng. batch_loss_and_grad(idx) returns the summed loss of
    rows idx and the weight and bias gradients of their mean loss; with mu > 0
    the gradient of mu * ||theta||^2 is added before each step. A curve entry
    is the epoch's mean row loss plus the penalty at the epoch's end.
    """
    opt = MomentumSgd(net, hyper.learning_rate, hyper.momentum)
    batch = min(hyper.batch_size, n)
    curve: list[float] = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, wg, bg = batch_loss_and_grad(idx)
            loss_sum += loss
            if mu > 0:
                for i in range(len(wg)):
                    wg[i] += 2.0 * mu * net.weights[i]
                    bg[i] += 2.0 * mu * net.biases[i]
            opt.step(net, wg, bg)
        curve.append(loss_sum / n + l2_penalty(net, mu))
    return curve
