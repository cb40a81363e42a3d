"""Performance predictors and the predicted objective.

Three regressor roles share one MLP type: an accuracy predictor over encoded
designs, device-specific latency/energy predictors (proxy workflows), and
device-aware predictors whose input is the encoded design concatenated with a
log-scaled device feature vector. The predicted objective combines them as

    f_hat(x; d, lambda) = -acc(x) + lambda1 * energy / s_E + lambda2 * latency / s_L

where s_E, s_L are the medians of each predictor's training labels, so lambda
components are dimensionless and a single lambda grid serves every device.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .design_space import DimensionMismatchError, encode_rows, sample_rows
from .device_world import DeviceFeatures, Oracle
from .nn import DenseNet, normalized_net, stack, train, unstack

class InsufficientDataError(ValueError):
    """Too few samples to fit a predictor."""


@dataclass(frozen=True)
class TrainingSettings:
    learning_rate: float = 1e-2
    momentum: float = 0.9
    epochs: int = 2000
    batch_size: int = 32

    def __post_init__(self):
        # messages read "field: rule" so a config parser can prefix the section
        for name, ok, rule in (
            ("learning_rate", self.learning_rate > 0, "must be positive"),
            ("momentum", 0.0 <= self.momentum < 1.0, "must be in [0, 1)"),
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ValueError(f"{name}: {rule}")


DEFAULT_HIDDEN = (64, 64)


def standardizer(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations of X, a deviation under 1e-12
    taken as 1: the (X - mean) / scale a net's inputs are normalized by."""
    std = X.std(axis=0)
    return X.mean(axis=0), np.where(std < 1e-12, 1.0, std)


def device_embedding(d: DeviceFeatures) -> np.ndarray:
    """Log-scaled device coefficients; the generator draws them log-uniformly,
    so this is the space where distances and normalization behave."""
    return np.log(d.feature_vector())


@dataclass
class MlpRegressor:
    """A trained scalar regressor with affine input/output normalizers.

    takes_device marks device-aware models (input = design encoding + device
    embedding); objective_scale is the label median used to normalize this
    metric's term inside the predicted objective.
    """

    net: DenseNet
    in_mean: np.ndarray
    in_scale: np.ndarray
    out_mean: float
    out_scale: float
    metric: str = ""
    device_tag: str = ""
    takes_device: bool = False
    objective_scale: float = 1.0
    constant_warning: bool = False
    final_loss: float = float("nan")
    loss_curve: list[float] = field(default_factory=list, repr=False)

    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.in_mean) / self.in_scale

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Predictions of the rows X (n, in), or of a stack (B, n, in) as (B, n);
        each stacked batch is a product of its own."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.input_dim:
            raise DimensionMismatchError(
                f"{self.metric or 'model'}: expected {self.input_dim} features, got {X.shape[-1]}"
            )
        raw = self.net.forward(self._normalize(X))[..., 0]
        return self.out_mean + self.out_scale * raw

    def predict(self, x: np.ndarray) -> float:
        return float(self.predict_batch(np.atleast_2d(x))[0])

    def batch_value_and_input_grad(self, X: np.ndarray, out_coeff: np.ndarray):
        """Predictions plus d(sum_i out_coeff[i] * predict_i)/dX in one pass.

        The workhorse for training through a frozen predictor: out_coeff folds
        whatever weight the outer loss puts on each row's prediction. X may be
        a stack of batches (K, b, in) with out_coeff (K, b). The work is done
        in the net's dtype (see astype).
        """
        dtype = self.net.weights[0].dtype
        X = np.asarray(X, dtype=dtype)
        out_coeff = np.asarray(out_coeff, dtype=dtype)[..., None]
        Xn = self._normalize(X)
        raw, cache = self.net.forward_cached(Xn)
        values = self.out_mean + self.out_scale * raw[..., 0]
        _, _, grad_in = self.net.backward(cache, out_coeff * self.out_scale, params=False)
        return values, grad_in / self.in_scale

    def astype(self, dtype) -> "MlpRegressor":
        """A copy whose net and input normalizers are of dtype: a float32
        working copy to train another net through."""
        return dataclasses.replace(self, net=self.net.astype(dtype),
                                   in_mean=self.in_mean.astype(dtype),
                                   in_scale=self.in_scale.astype(dtype))

    def to_dict(self) -> dict:
        return {
            **self.net.to_dict(),
            "in_mean": self.in_mean.tolist(),
            "in_scale": self.in_scale.tolist(),
            "out_mean": self.out_mean,
            "out_scale": self.out_scale,
            "metric": self.metric,
            "device_tag": self.device_tag,
            "takes_device": self.takes_device,
            "objective_scale": self.objective_scale,
            "constant_warning": self.constant_warning,
            "final_loss": self.final_loss,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpRegressor":
        """Inverse of to_dict; ValueError unless out_mean is finite and the
        output and objective scales finite and positive (see normalized_net)."""
        model = cls(
            **normalized_net(d),
            out_mean=float(d["out_mean"]),
            out_scale=float(d["out_scale"]),
            metric=d["metric"],
            device_tag=d["device_tag"],
            takes_device=d["takes_device"],
            objective_scale=float(d["objective_scale"]),
            constant_warning=d["constant_warning"],
            final_loss=float(d["final_loss"]),
        )
        if not (np.isfinite(model.out_mean) and 0 < model.out_scale < np.inf
                and 0 < model.objective_scale < np.inf):
            raise ValueError("out_mean must be finite, out_scale and objective_scale finite "
                             "and positive")
        return model


# The correction's ridge penalty on its standardized features. Chosen on seeds
# 1 and 2 of the proxy-latency benchmark scenario at latency percentiles 5, 15
# and 40 against the 500-sample retrain it replaced: the 4 adversarial targets'
# mean true accuracy moved by at worst -0.0018, -0.0073, -0.0038, -0.0028,
# -0.0025 and -0.0016 for a = 0.01, 0.1, 0.3, 1, 3 and 10 (hash noise is
# +-0.002 per design). Every a >= 1 stays within 0.003; below 1 a tenfold
# change of a moves the worst cell by up to 0.0055. 1 is the least shrinkage
# of that plateau (held-out rank rho of the corrected latency on 3000 designs,
# median over 40 fits: 0.931, against 0.915 at 3 and 0.882 at 10), and at 10
# probes its largest weight stays at most 0.45 (1.40 at a = 0.01). Confirmed
# on seeds 23 and 57: at worst -0.0024, no design over its bound.
CORRECTION_RIDGE = 1.0
# A base prediction is floored here before its log is taken: a linear head can
# predict a latency or energy <= 0.
CORRECTION_FLOOR = 1e-6


@dataclass(frozen=True)
class CorrectedPredictor:
    """A base predictor corrected to one device from a few of its measurements:
    log(value) is a ridge regression on the design encoding and the log of the
    base's prediction (floored at CORRECTION_FLOOR), both standardized, so its
    predictions are exp(...) and always positive. It answers predict_batch,
    objective_scale and metric as an MlpRegressor does; `correct` fits it."""

    base: MlpRegressor | CorrectedPredictor
    in_mean: np.ndarray
    in_scale: np.ndarray
    weights: np.ndarray
    log_mean: float
    objective_scale: float
    metric: str

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        Z = (_correction_features(self.base, X) - self.in_mean) / self.in_scale
        return np.exp(self.log_mean + Z @ self.weights)


def _correction_features(base, X) -> np.ndarray:
    """The encodings X (n, w) with the log of base's floored prediction appended, (n, w + 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([X, np.log(np.maximum(base.predict_batch(X), CORRECTION_FLOOR))])


def correct(base, X: np.ndarray, y: np.ndarray) -> CorrectedPredictor:
    """base corrected to the measurements y (n,) of the encoded designs X
    (n, w): the closed-form ridge solve(Z'Z + a*I, Z'(log y - mean)) on the
    standardized features Z, a = CORRECTION_RIDGE; objective_scale is the
    median of y, the metric base's. A constant feature column standardizes to
    0 and gets weight 0, so one repeated design predicts exp(mean log y)."""
    y = np.asarray(y, dtype=float)
    Z = _correction_features(base, X)
    mean, scale = standardizer(Z)
    Z = (Z - mean) / scale
    log_y = np.log(y)
    log_mean = float(log_y.mean())
    weights = np.linalg.solve(Z.T @ Z + CORRECTION_RIDGE * np.eye(Z.shape[1]),
                              Z.T @ (log_y - log_mean))
    return CorrectedPredictor(base, mean, scale, weights, log_mean, float(np.median(y)),
                              base.metric)


def save_model(model, path) -> None:
    """Write any model's to_dict() (a predictor's or an optimizer's) as JSON."""
    # json.dumps encodes in C; json.dump streams through the Python encoder
    with open(path, "w") as f:
        f.write(json.dumps(model.to_dict()))


def load_model(path) -> MlpRegressor:
    with open(path) as f:
        return MlpRegressor.from_dict(json.load(f))


@dataclass
class PendingFit:
    """A fit whose random draws are all made but whose SGD steps are not:
    the model with its normalizers, tags and initialized net, the inputs as
    given (fit_lockstep standardizes them), the standardized labels, and the
    generator its epoch orders come from. fit_lockstep trains it."""

    model: MlpRegressor
    X: np.ndarray
    yn: np.ndarray
    hyper: TrainingSettings
    orders: np.random.Generator | None  # None: constant labels, no steps


def prepare_fit(
    inputs: np.ndarray,
    labels: np.ndarray,
    layer_sizes: tuple[int, ...],
    hyper: TrainingSettings,
    rng: np.random.Generator,
    *,
    metric: str = "",
    device_tag: str = "",
    takes_device: bool = False,
    objective_scale: float | None = None,
) -> PendingFit:
    """Everything fit does before its SGD steps, with the same draws from rng:
    the net's init, then a child of rng (rng.spawn) for the epoch orders, so
    rng draws next what it would after the fit, whatever the epochs."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(labels, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs vs {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {X.shape[0]}")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("non-finite training data")

    in_mean, in_scale = standardizer(X)
    out_mean = float(y.mean())
    out_std = float(y.std())

    net = DenseNet([X.shape[1], *layer_sizes, 1], rng)
    constant = out_std < 1e-12
    if constant:
        # Nothing to learn; zero the output layer so the head is exactly the mean.
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        out_std, orders = 1.0, None
    else:
        orders = rng.spawn(1)[0]
    model = MlpRegressor(
        net=net,
        in_mean=in_mean,
        in_scale=in_scale,
        out_mean=out_mean,
        out_scale=out_std,
        metric=metric,
        device_tag=device_tag,
        takes_device=takes_device,
        objective_scale=1.0 if objective_scale is None else float(objective_scale),
        constant_warning=constant,
        final_loss=0.0,
        loss_curve=[0.0],
    )
    return PendingFit(model, X, (y - out_mean) / out_std, hyper, orders)


def fit_lockstep(pending: list[PendingFit]) -> list[MlpRegressor]:
    """Train prepared fits of one input shape and hyper as one stacked net,
    K = 1 included; the models are those of fitting each alone. Constant-label
    fits take no steps and stay out of the stack; each live fit's standardized
    inputs are stacked, also where two fits share one input matrix.
    Training runs in float32: the net, the standardized inputs (standardized
    in float64, then rounded) and labels; the models come back float64."""
    live = [p for p in pending if p.orders is not None]
    if not live:
        return [p.model for p in pending]
    first = live[0]
    if any(p.X.shape != first.X.shape or p.hyper != first.hyper for p in live):
        raise ValueError("lockstep fits need one input shape and one TrainingSettings")
    n = first.X.shape[0]
    net = stack([p.model.net for p in live]).astype(np.float32)
    # member k's standardized inputs are rows k * n to (k + 1) * n
    X = np.concatenate([p.model._normalize(p.X) for p in live], dtype=np.float32)
    x_offsets = n * np.arange(len(live))[:, None]
    y = np.stack([p.yn for p in live]).astype(np.float32)

    def gather(order):
        return X[order + x_offsets], np.take_along_axis(y, order, axis=1)

    def batch_loss_and_grad(Xb, yb, grads):
        pred, cache = net.forward_cached(Xb)
        err = pred[..., 0] - yb
        net.backward(cache, (2.0 * err / yb.shape[-1])[..., None], inputs=False, out=grads)
        return [float(e @ e) for e in err]

    names = [f"{p.model.metric} predictor ({p.model.device_tag or 'any device'})" for p in live]
    curves = train(net, n, gather, batch_loss_and_grad, first.hyper, [p.orders for p in live],
                   names=names)
    for p, trained, curve in zip(live, unstack(net), curves):
        p.model.net, p.model.loss_curve, p.model.final_loss = trained, curve, curve[-1]
    return [p.model for p in pending]


def fit(
    inputs: np.ndarray,
    labels: np.ndarray,
    layer_sizes: tuple[int, ...],
    hyper: TrainingSettings,
    rng: np.random.Generator,
    *,
    metric: str = "",
    device_tag: str = "",
    takes_device: bool = False,
    objective_scale: float | None = None,
) -> MlpRegressor:
    """Mini-batch SGD with momentum on standardized data, fixed epoch budget.

    layer_sizes are the hidden widths. Zero-variance labels short-circuit to a
    constant predictor with constant_warning set (loss is exactly 0 there).
    """
    return fit_lockstep([prepare_fit(
        inputs, labels, layer_sizes, hyper, rng, metric=metric, device_tag=device_tag,
        takes_device=takes_device, objective_scale=objective_scale,
    )])[0]


def accuracy_fit(n_samples: int, oracle: Oracle, rng: np.random.Generator,
                 hyper: TrainingSettings, layer_sizes: tuple[int, ...]) -> PendingFit:
    """An accuracy predictor up to its SGD steps (see prepare_fit), on
    n_samples uniform designs measured for accuracy."""
    space = oracle.space
    designs = sample_rows(space, rng, n_samples)
    return prepare_fit(encode_rows(designs, space), oracle.accuracy_rows(designs), layer_sizes,
                       hyper, rng, metric="accuracy", objective_scale=1.0)


def device_specific_fit(metric: str, d0: DeviceFeatures, n_samples: int, oracle: Oracle,
                        rng: np.random.Generator, hyper: TrainingSettings,
                        layer_sizes: tuple[int, ...]) -> PendingFit:
    """One metric's predictor on device d0 up to its SGD steps (see
    prepare_fit), on n_samples uniform designs measured on d0."""
    measure = oracle.latency_rows if metric == "latency" else oracle.energy_rows
    space = oracle.space
    designs = sample_rows(space, rng, n_samples)
    y = measure(designs, [d0])[:, 0]
    return prepare_fit(encode_rows(designs, space), y, layer_sizes, hyper, rng, metric=metric,
                       device_tag=d0.device_id, objective_scale=float(np.median(y)))


def train_accuracy_predictor(
    n_samples: int,
    oracle: Oracle,
    rng: np.random.Generator,
    hyper: TrainingSettings = TrainingSettings(),
    layer_sizes: tuple[int, ...] = DEFAULT_HIDDEN,
) -> MlpRegressor:
    """Accuracy over encoded designs only; accuracy is device-independent so the
    input never includes device features."""
    return fit_lockstep([accuracy_fit(n_samples, oracle, rng, hyper, layer_sizes)])[0]


def train_device_specific_predictor(
    metric: str,
    d0: DeviceFeatures,
    n_samples: int,
    oracle: Oracle,
    rng: np.random.Generator,
    hyper: TrainingSettings = TrainingSettings(),
    layer_sizes: tuple[int, ...] = DEFAULT_HIDDEN,
) -> MlpRegressor:
    """Latency or energy on one fixed device (the proxy workflow)."""
    return fit_lockstep([device_specific_fit(metric, d0, n_samples, oracle, rng, hyper,
                                             layer_sizes)])[0]


def predicted_objective(
    enc: np.ndarray,
    embeddings: np.ndarray | None,
    lams: np.ndarray,
    acc_model: MlpRegressor,
    energy_model: MlpRegressor,
    latency_model: MlpRegressor,
) -> np.ndarray:
    """f_hat per row of the encodings enc (n, w), as an (n,) array. embeddings
    (n, e) or one row (e,) are the device rows the device-aware metric
    predictors take, None with device-specific ones; lams are the weight rows
    (lambda1, lambda2), (n, 2) or one row (2,)."""
    enc = np.asarray(enc, dtype=float)
    metric_in = enc if embeddings is None else np.hstack(
        [enc, np.broadcast_to(embeddings, (len(enc), np.shape(embeddings)[-1]))])
    lams = np.asarray(lams, dtype=float)
    a = acc_model.predict_batch(enc)
    e = energy_model.predict_batch(metric_in)
    l = latency_model.predict_batch(metric_in)
    return (
        -a
        + lams[..., 0] * (e / energy_model.objective_scale)
        + lams[..., 1] * (l / latency_model.objective_scale)
    )


class PredictorBundle(NamedTuple):
    """Stage-1 output: the accuracy predictor and the device-aware energy and
    latency predictors."""

    accuracy: MlpRegressor
    energy: MlpRegressor
    latency: MlpRegressor


def train_stage1(
    devices: list[DeviceFeatures],
    designs_per_device: int,
    oracle: Oracle,
    rng: np.random.Generator,
    hyper: TrainingSettings = TrainingSettings(),
    layer_sizes: tuple[int, ...] = DEFAULT_HIDDEN,
) -> PredictorBundle:
    """Initial predictor training: one shared design set, measured for accuracy
    once and for both metrics on every real training device, then the accuracy
    fit and the energy and latency fits as one lockstep fit."""
    designs = sample_rows(oracle.space, rng, designs_per_device)
    latency_labels, energy_labels = oracle.latency_energy_rows(designs, devices)
    X_acc = encode_rows(designs, oracle.space)
    acc = fit(X_acc, oracle.accuracy_rows(designs), layer_sizes, hyper, rng,
              metric="accuracy", objective_scale=1.0)
    # one row per (device, design), device outer: the design encoding, then
    # the device embedding; a column-major flatten of the (n, devices) labels
    # matches that order
    embeddings = np.stack([device_embedding(d) for d in devices])
    X_dev = np.hstack([np.tile(X_acc, (len(devices), 1)),
                       np.repeat(embeddings, len(X_acc), axis=0)])
    energy, latency = fit_lockstep([
        prepare_fit(X_dev, y, layer_sizes, hyper, rng, metric=metric, device_tag="fleet",
                    takes_device=True, objective_scale=float(np.median(y)))
        for metric, y in (("energy", energy_labels.T.reshape(-1)),
                          ("latency", latency_labels.T.reshape(-1)))
    ])
    return PredictorBundle(acc, energy, latency)


def iterative_fit(devices: list[DeviceFeatures], designs_per_device: int, exploration_rounds: int,
                  explore_size: int, oracle: Oracle, rng: np.random.Generator,
                  hyper: TrainingSettings = TrainingSettings(),
                  layer_sizes: tuple[int, ...] = DEFAULT_HIDDEN) -> PredictorBundle:
    """Stage 1 with exploration_rounds rounds of explore_size more uniform
    designs each. A uniform round reads no model and a refit from scratch
    keeps nothing of the fit before it, so this is train_stage1 on
    designs_per_device + exploration_rounds * explore_size designs."""
    if exploration_rounds < 0:
        raise ValueError("exploration_rounds must be >= 0")
    return train_stage1(devices, designs_per_device + exploration_rounds * explore_size,
                        oracle, rng, hyper, layer_sizes)
