"""Amortized design optimization: a network from (device, weights) to a design.

The optimizer network (the paper's Method 2) never sees labels: it minimizes
the predicted objective directly, backpropagating through the frozen
device-aware performance predictors into its own weights. Training happens on
the continuous encoding relaxation (the predictors accept any point of the
unit cube); decoding to a discrete design happens only at inference. The output
layer is logistic, so every inference is decodable by construction. A
constraint sweep over a lambda grid turns the network into a solver for each
device's hard-constrained problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .design_space import DesignSpace, decode, decode_rows, design_codes, encode_rows
from .device_world import DeviceFeatures, Oracle
from .nn import DenseNet, l2_penalty, normalized_net, stack, train, unstack
from .search import ConstraintSpec
from .surrogate import (MlpRegressor, TrainingSettings, device_embedding, predicted_objective,
                        standardizer)


def build_lambda_grid(count_per_axis: int, max_lambda: float) -> np.ndarray:
    """(count_per_axis**2, 2) weight rows (lambda1, lambda2): per-axis {0} plus
    count-1 decade-spaced values ending at max_lambda, crossed over both axes;
    (0, 0) always comes first. count 1 gives just (0, 0)."""
    if count_per_axis < 1:
        raise ValueError("count_per_axis must be >= 1")
    if max_lambda <= 0:
        raise ValueError("max_lambda must be positive")
    axis = [0.0] + [
        max_lambda * 10.0 ** (i - (count_per_axis - 2)) for i in range(count_per_axis - 1)
    ]
    return np.array([(l1, l2) for l1 in axis for l2 in axis])


def optimizer_inputs(devices, lams) -> np.ndarray:
    """(D, n, e + 2) optimizer inputs: for each device, one row per weight row of
    lams (n, 2), the device embedding then (lambda1, lambda2). lambda1 scales
    energy, lambda2 latency."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != 2:
        raise ValueError(f"weights must be (n, 2) rows, got shape {lams.shape}")
    if not np.all(lams >= 0):
        raise ValueError("weights must be non-negative")
    embeddings = np.stack([device_embedding(d) for d in devices])
    X = np.empty((len(embeddings), len(lams), embeddings.shape[1] + 2))
    X[..., :-2] = embeddings[:, None]
    X[..., -2:] = lams
    return X


@dataclass
class OptimizerNetwork:
    """x_hat(d, lambda): normalized (device embedding, lambda) in, encoding out."""

    net: DenseNet
    in_mean: np.ndarray
    in_scale: np.ndarray
    final_loss: float = float("nan")
    loss_curve: list[float] = field(default_factory=list, repr=False)

    def infer_encodings(self, X: np.ndarray) -> np.ndarray:
        """One forward pass over rows of optimizer inputs (see optimizer_inputs),
        (n, in) or a stack (B, n, in); each stacked batch is a product of its own."""
        return self.net.forward((X - self.in_mean) / self.in_scale)

    def to_dict(self) -> dict:
        net = self.net.to_dict()
        # input_layout sits after the head, as in optimizer files already written
        head = {key: net.pop(key) for key in ("layer_sizes", "output_activation")}
        return {
            "kind": "optimizer",
            **head,
            "input_layout": {"device_features": int(self.in_mean.size - 2), "lambdas": 2},
            **net,
            "in_mean": self.in_mean.tolist(),
            "in_scale": self.in_scale.tolist(),
            "final_loss": self.final_loss,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerNetwork":
        return cls(**normalized_net(d), final_loss=float(d["final_loss"]))


def load_optimizer(path) -> OptimizerNetwork:
    with open(path) as f:
        return OptimizerNetwork.from_dict(json.load(f))


def _require_device_aware(energy_model: MlpRegressor, latency_model: MlpRegressor) -> None:
    for m in (energy_model, latency_model):
        if not m.takes_device:
            raise ValueError(
                f"method 2 needs device-aware {m.metric or 'metric'} predictors"
            )


def amortized_batch_gradient(
    net: DenseNet,
    Xn: np.ndarray,
    embeddings: np.ndarray,
    lams: np.ndarray,
    acc_model: MlpRegressor,
    energy_model: MlpRegressor,
    latency_model: MlpRegressor,
    out=None,
):
    """Mean predicted objective of the batch and its gradient w.r.t. the
    optimizer's parameters, with predictor weights held fixed.

    The chain: optimizer forward gives x_hat per row; each predictor yields its
    value and d(value)/d(x_hat); the combined upstream gradient runs back
    through the optimizer. Returns (mean f_hat, weight grads, bias grads); the
    grads are written into out if given (see DenseNet.backward). For a stacked
    optimizer the inputs are (K, b, .) stacks and the mean comes back per
    member. It computes in the nets' dtype, which the optimizer and the
    predictors must share.
    """
    b = Xn.shape[-2]
    xhat, cache = net.forward_cached(Xn)
    acc_vals, d_acc = acc_model.batch_value_and_input_grad(
        xhat, -np.ones(Xn.shape[:-1], dtype=Xn.dtype) / b)
    dev_inputs = np.concatenate([xhat, embeddings], axis=-1)
    s_e = energy_model.objective_scale
    s_l = latency_model.objective_scale
    en_vals, d_en = energy_model.batch_value_and_input_grad(
        dev_inputs, lams[..., 0] / (s_e * b))
    lat_vals, d_lat = latency_model.batch_value_and_input_grad(
        dev_inputs, lams[..., 1] / (s_l * b))
    width = xhat.shape[-1]
    grad_xhat = d_acc + d_en[..., :width] + d_lat[..., :width]
    f = -acc_vals + lams[..., 0] * en_vals / s_e + lams[..., 1] * lat_vals / s_l
    f_mean = f.mean(axis=-1)
    wg, bg, _ = net.backward(cache, grad_xhat, inputs=False, out=out)
    return f_mean, wg, bg


def train_method2(
    inputs: np.ndarray,
    acc_model: MlpRegressor,
    energy_model: MlpRegressor,
    latency_model: MlpRegressor,
    layer_sizes: tuple[int, ...],
    hyper: TrainingSettings,
    mu: float,
    rng: np.random.Generator,
    restarts: int = 3,
) -> OptimizerNetwork:
    """Unsupervised: minimize mean f_hat(x_hat(d, lambda); d, lambda) + mu*||theta||^2
    through the frozen predictors. Predictor parameters are never written.
    inputs holds one optimizer input row per training (device, lambda) pair.

    The logistic output head can saturate from a bad init and freeze part of
    the encoding, so `restarts` independent inits are trained and the one with
    the lowest exact training objective is kept (single net, no ensembling).
    Training runs in float32, through float32 working copies of the
    predictors; the restarts are scored, and the network returned, in float64.
    """
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2 or not len(X):
        raise ValueError("inputs must be a non-empty matrix of optimizer input rows")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _require_device_aware(energy_model, latency_model)
    mean, scale = standardizer(X)
    Xn = (X - mean) / scale
    embeddings, lams = X[:, :-2], X[:, -2:]
    # The restarts share one shape, so they train as one stack (K = restarts),
    # each member drawing its init and epoch orders from its own child of rng.
    start_rngs = rng.spawn(restarts)
    net = stack([DenseNet([Xn.shape[1], *layer_sizes, acc_model.input_dim], r,
                          output_activation="logistic") for r in start_rngs]).astype(np.float32)
    frozen = [m.astype(np.float32) for m in (acc_model, energy_model, latency_model)]
    with np.errstate(over="ignore"):  # a weight past float32 is inf, and training diverges
        data = [a.astype(np.float32) for a in (Xn, embeddings, lams)]

    def gather(order):
        return [a[order] for a in data]

    def batch_loss_and_grad(Xb, eb, lb, grads):
        f_mean, _, _ = amortized_batch_gradient(net, Xb, eb, lb, *frozen, out=grads)
        return f_mean * Xb.shape[-2]

    curves = train(net, Xn.shape[0], gather, batch_loss_and_grad, hyper, start_rngs, mu,
                   names=["optimizer network"] * restarts)
    nets = unstack(net)
    scores = [float(np.mean(predicted_objective(m.forward(Xn), embeddings, lams, acc_model,
                                                energy_model, latency_model)))
              + l2_penalty(m, mu) for m in nets]
    best = min(range(restarts), key=scores.__getitem__)  # the first of equal scores
    return OptimizerNetwork(net=nets[best], in_mean=mean, in_scale=scale,
                            final_loss=curves[best][-1], loss_curve=curves[best])


def infer_design(
    net: OptimizerNetwork,
    d: DeviceFeatures,
    lam: np.ndarray,
    space: DesignSpace,
) -> tuple[int, ...]:
    """One forward pass plus decode for one weight row lam (2,); no
    measurements, no search."""
    return decode(net.infer_encodings(optimizer_inputs([d], [lam])[0])[0], space)


@dataclass(frozen=True)
class SweepResult:
    design: tuple[int, ...]
    lam: tuple[float, float]
    predicted_feasible: bool  # what the design was chosen on
    predicted_accuracy: float
    feasible: bool  # measured: latency, and energy under an energy bound, within bounds
    latency: float
    energy: float | None  # None without an energy bound
    measurements: int  # the validation's: 1, plus 1 under an energy bound
    trace: tuple[dict, ...]  # one row per grid position


# Devices per stacked pass of the sweep. Each device's grid stays a product of
# its own, so the block size changes no value, only time and memory: on a
# 2-vCPU box, the 256 targets of amortized-fleet swept in 21.2 ms (best of 48)
# in blocks of 8, 18.8 ms in blocks of 16, 17.2-18.3 ms in blocks of 24 to 64
# and 28.8 ms in one block of all 256, which holds every device's grid and
# activations at once. 16 is the smallest block within 2 ms of the best.
SWEEP_BLOCK = 16


def constraint_sweep(
    net: OptimizerNetwork,
    targets: list[tuple[DeviceFeatures, ConstraintSpec]],
    acc_model: MlpRegressor,
    energy_model: MlpRegressor,
    latency_model: MlpRegressor,
    lambda_grid: np.ndarray,
    oracle: Oracle,
) -> list[SweepResult]:
    """Pick lambda for each (device, constraints) target by sweeping inferences;
    one result per target, in order, its trace rows headed by the device_id.

    The fleet's optimizer inputs are built once, every device's grid (n, 2) is
    scored as one batch, and the devices go through in blocks of SWEEP_BLOCK:
    one optimizer forward, one prediction per model and one choice over a
    (devices, n, .) stack. Feasibility along a device's grid is judged by the
    device-aware predictors alone (a missing energy bound is +inf): the most
    accurate feasible row wins, else the least violating one (then the most
    accurate), the first position of equals. Every position takes the
    predictions of the first position that decodes to its design (the first
    equal design code), so equal designs tie exactly however the batch rounds.
    The oracle only validates the final choices, one measurement per bound
    (<= 2 per target) in one paired call per metric for the whole sweep, and
    each result's feasible is its measured verdict.
    """
    _require_device_aware(energy_model, latency_model)
    if not targets:
        return []
    lams = np.asarray(lambda_grid, dtype=float).tolist()
    devices = [d for d, _ in targets]
    inputs = optimizer_inputs(devices, lambda_grid)
    choices = []
    for start in range(0, len(targets), SWEEP_BLOCK):
        block = targets[start:start + SWEEP_BLOCK]
        designs, accs, lats, ens = _score_block(net, inputs[start:start + SWEEP_BLOCK], acc_model,
                                                energy_model, latency_model, oracle.space)
        codes = design_codes(designs, oracle.space)
        lead = (codes[:, :, None] == codes[:, None, :]).argmax(axis=-1)
        accs, lats, ens = (np.take_along_axis(v, lead, axis=-1) for v in (accs, lats, ens))
        lat_bound, en_bound = np.array(
            [[spec.latency_bound, np.inf if spec.energy_bound is None else spec.energy_bound]
             for _, spec in block]).T[..., None]
        feasible = (lats <= lat_bound) & (ens <= en_bound)
        violation = (np.maximum(0.0, lats / lat_bound - 1.0)
                     + np.maximum(0.0, ens / en_bound - 1.0))
        # a feasible row's violation is 0, and lexsort is stable
        pos = np.lexsort((-accs, violation, ~feasible), axis=-1)[:, 0]
        chosen = map(tuple, designs[np.arange(len(block)), pos].tolist())
        for (d, _), p, x, ok, pa in zip(block, pos.tolist(), chosen, feasible.tolist(),
                                        accs.tolist()):
            trace = tuple(
                {"device_id": d.device_id, "lambda1": l1, "lambda2": l2,
                 "predicted_feasible": f, "predicted_accuracy": a, "chosen": i == p}
                for i, ((l1, l2), f, a) in enumerate(zip(lams, ok, pa))
            )
            choices.append((x, tuple(lams[p]), ok[p], pa[p], trace))
    # the oracle validates every choice at once: one latency per target, one
    # energy per target with an energy bound
    lats = oracle.latency_pairs([c[0] for c in choices], devices).tolist()
    ens = [None] * len(targets)
    if bounded := [i for i, (_, spec) in enumerate(targets) if spec.energy_bound is not None]:
        values = oracle.energy_pairs([choices[i][0] for i in bounded],
                                     [devices[i] for i in bounded])
        for i, en in zip(bounded, values.tolist()):
            ens[i] = en
    results = []
    for (x, lam, ok, pa, trace), (_, spec), lat, en in zip(choices, targets, lats, ens):
        met = lat <= spec.latency_bound and (en is None or en <= spec.energy_bound)
        results.append(SweepResult(x, lam, ok, pa, met, lat, en, 1 + (en is not None), trace))
    return results


def _score_block(net, X, acc_model, energy_model, latency_model, space):
    """Decoded designs (B, n, S+1) and predicted accuracy, latency and energy
    (B, n) of a (B, n, .) stack of optimizer inputs."""
    flat = decode_rows(net.infer_encodings(X).reshape(-1, space.encoding_width), space)
    designs = flat.reshape(*X.shape[:2], -1)
    enc = encode_rows(flat, space).reshape(designs.shape)
    dev_in = np.concatenate([enc, X[..., :-2]], axis=-1)
    return (designs, acc_model.predict_batch(enc), latency_model.predict_batch(dev_in),
            energy_model.predict_batch(dev_in))
