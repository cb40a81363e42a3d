"""Amortized design optimization: a network from (device, weights) to a design.

The optimizer network (the paper's Method 2) never sees labels: it minimizes
the predicted objective directly, backpropagating through the frozen
device-aware performance predictors into its own weights. Training happens on
the continuous encoding relaxation (the predictors accept any point of the
unit cube); decoding to a discrete design happens only at inference. The output
layer is logistic, so every inference is decodable by construction. A
constraint sweep over a lambda grid turns the network into a solver for one
device's hard-constrained problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .design_space import DesignSpace, decode, decode_rows, encode_rows
from .device_world import DeviceFeatures, Oracle
from .nn import DenseNet, l2_penalty, normalized_net, stack, train, unstack
from .search import ConstraintSpec
from .surrogate import MlpRegressor, TradeoffWeights, TrainingSettings, device_embedding


def build_lambda_grid(count_per_axis: int, max_lambda: float) -> list[TradeoffWeights]:
    """Per-axis {0} plus count-1 decade-spaced values ending at max_lambda,
    crossed over both axes; (0, 0) always comes first. count 1 gives just (0, 0)."""
    if count_per_axis < 1:
        raise ValueError("count_per_axis must be >= 1")
    if max_lambda <= 0:
        raise ValueError("max_lambda must be positive")
    if count_per_axis == 1:
        axis = [0.0]
    else:
        axis = [0.0] + [
            max_lambda * 10.0 ** (i - (count_per_axis - 2)) for i in range(count_per_axis - 1)
        ]
    return [TradeoffWeights(l1, l2) for l1 in axis for l2 in axis]


def optimizer_input(d: DeviceFeatures, lam: TradeoffWeights) -> np.ndarray:
    return np.concatenate([device_embedding(d), lam.as_array()])


@dataclass
class OptimizerNetwork:
    """x_hat(d, lambda): normalized (device embedding, lambda) in, encoding out."""

    net: DenseNet
    in_mean: np.ndarray
    in_scale: np.ndarray
    final_loss: float = float("nan")
    loss_curve: list[float] = field(default_factory=list, repr=False)

    def infer_encodings(self, X: np.ndarray) -> np.ndarray:
        """One forward pass over rows of optimizer inputs (see optimizer_input)."""
        return self.net.forward((X - self.in_mean) / self.in_scale)

    def infer_encoding(self, d: DeviceFeatures, lam: TradeoffWeights) -> np.ndarray:
        return self.infer_encodings(optimizer_input(d, lam)[None, :])[0]

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


def _amortized_objective(net, Xn, embeddings, lams, acc_model, energy_model,
                         latency_model, mu: float) -> float:
    """Exact training objective of a candidate net over the full input set."""
    xhat = net.forward(Xn)
    acc = acc_model.predict_batch(xhat)
    dev_inputs = np.hstack([xhat, embeddings])
    en = energy_model.predict_batch(dev_inputs) / energy_model.objective_scale
    lat = latency_model.predict_batch(dev_inputs) / latency_model.objective_scale
    f = float(np.mean(-acc + lams[:, 0] * en + lams[:, 1] * lat))
    return f + l2_penalty(net, mu)


def train_method2(
    inputs: list[tuple[DeviceFeatures, TradeoffWeights]],
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

    The logistic output head can saturate from a bad init and freeze part of
    the encoding, so `restarts` independent inits are trained and the one with
    the lowest exact training objective is kept (single net, no ensembling).
    Training runs in float32, through float32 working copies of the
    predictors; the restarts are scored, and the network returned, in float64.
    """
    if not inputs:
        raise ValueError("empty training set")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _require_device_aware(energy_model, latency_model)
    X = np.stack([optimizer_input(d, lam) for d, lam in inputs])
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    Xn = (X - mean) / scale
    embeddings = np.stack([device_embedding(d) for d, _ in inputs])
    lams = np.stack([lam.as_array() for _, lam in inputs])
    # The restarts share one shape, so they train as one stack (K = restarts),
    # each member drawing its init and epoch orders from its own child of rng.
    start_rngs = rng.spawn(restarts)
    net = stack([DenseNet([Xn.shape[1], *layer_sizes, acc_model.input_dim], r,
                          output_activation="logistic") for r in start_rngs]).astype(np.float32)
    frozen = [m.astype(np.float32) for m in (acc_model, energy_model, latency_model)]
    data = [a.astype(np.float32) for a in (Xn, embeddings, lams)]

    def gather(order):
        return [a[order] for a in data]

    def batch_loss_and_grad(Xb, eb, lb, grads):
        f_mean, _, _ = amortized_batch_gradient(net, Xb, eb, lb, *frozen, out=grads)
        return f_mean * Xb.shape[-2]

    curves = train(net, Xn.shape[0], gather, batch_loss_and_grad, hyper, start_rngs, mu)
    nets = unstack(net)
    scores = [_amortized_objective(m, Xn, embeddings, lams, acc_model, energy_model,
                                   latency_model, mu) for m in nets]
    best = min(range(restarts), key=scores.__getitem__)  # the first of equal scores
    return OptimizerNetwork(net=nets[best], in_mean=mean, in_scale=scale,
                            final_loss=curves[best][-1], loss_curve=curves[best])


def infer_design(
    net: OptimizerNetwork,
    d: DeviceFeatures,
    lam: TradeoffWeights,
    space: DesignSpace,
) -> tuple[int, ...]:
    """One forward pass plus decode; no measurements, no search."""
    return decode(net.infer_encoding(d, lam), space)


@dataclass(frozen=True)
class SweepResult:
    design: tuple[int, ...]
    weights: TradeoffWeights
    feasible: bool  # under *predicted* metrics
    predicted_accuracy: float
    validation: dict[str, float]  # oracle measurements of the chosen design
    rows: tuple[dict, ...]


def constraint_sweep(
    net: OptimizerNetwork,
    d: DeviceFeatures,
    constraints: ConstraintSpec,
    acc_model: MlpRegressor,
    energy_model: MlpRegressor,
    latency_model: MlpRegressor,
    lambda_grid: list[TradeoffWeights],
    oracle: Oracle,
) -> SweepResult:
    """Pick lambda for a hard-constrained problem by sweeping inferences.

    The grid is one batch (one optimizer forward, one prediction per model);
    feasibility along it is judged by the device-aware predictors alone. The
    oracle only validates the final choice, one measurement per bound (<= 2).
    """
    _require_device_aware(energy_model, latency_model)
    space = oracle.space
    embeddings = np.tile(device_embedding(d), (len(lambda_grid), 1))
    lams = np.array([lam.as_array() for lam in lambda_grid])
    designs = decode_rows(net.infer_encodings(np.hstack([embeddings, lams])), space)
    enc = encode_rows(designs, space)
    dev_in = np.hstack([enc, embeddings])
    accs = acc_model.predict_batch(enc).tolist()
    lats = latency_model.predict_batch(dev_in).tolist()
    ens = energy_model.predict_batch(dev_in).tolist()

    rows: list[dict] = []
    best = None  # (-pred_acc, position)
    worst = None  # (violation, -pred_acc, position)
    for pos, (lam, pa, pl, pe) in enumerate(zip(lambda_grid, accs, lats, ens)):
        feasible = pl <= constraints.latency_bound
        violation = max(0.0, pl / constraints.latency_bound - 1.0)
        if constraints.energy_bound is not None:
            feasible &= pe <= constraints.energy_bound
            violation += max(0.0, pe / constraints.energy_bound - 1.0)
        rows.append({"lambda1": lam.lambda1, "lambda2": lam.lambda2, "predicted_feasible": feasible,
                     "predicted_accuracy": pa, "chosen": False})
        if feasible and (best is None or (-pa, pos) < best[0]):
            best = ((-pa, pos), pos)
        if worst is None or (violation, -pa, pos) < worst[0]:
            worst = ((violation, -pa, pos), pos)

    feasible_found = best is not None
    pos = best[1] if feasible_found else worst[1]
    x = tuple(designs[pos].tolist())
    rows[pos]["chosen"] = True
    point = space.design_at(x)
    validation = {"latency": oracle.latency(point, d)}
    if constraints.energy_bound is not None:
        validation["energy"] = oracle.energy(point, d)
    return SweepResult(design=x, weights=lambda_grid[pos], feasible=feasible_found,
                       predicted_accuracy=accs[pos], validation=validation, rows=tuple(rows))
