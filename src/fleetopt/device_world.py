"""Simulated measurement ground truth.

Analytic per-device cost models stand in for real latency/energy measurements,
and a fixed deterministic function stands in for trained-network accuracy. A
MeasurementLedger counts every measurement; measurement counts are the currency
every scalability claim in this package is stated in.

Latency model (ms), stage index i from 0:
    work_i = depth_i * width_i^2 * kernel_i^2 * 16 * 2^(-i)      [Mwork]
    mem_i  = depth_i * width_i                                   [Munit]
    latency = sum_i [ (work_i / (throughput * qs(bits)))^gamma + mem_i / bandwidth ]
              + overhead * sum_i depth_i
Energy (mJ):
    energy = power_dynamic * sum_i work_i / qs(bits) + power_static * latency
Accuracy (device-independent):
    capacity = sum_i depth_i * width_i * ln(kernel_i)
    accuracy = 0.95 - 0.35 * exp(-0.35 * capacity) - qpen(bits) + noise(x)
where noise(x) is a keyed 64-bit hash of the design's index list mapped to
[-0.002, +0.002]: deterministic, but rough enough that nothing can invert it.

The value functions (`latency_value`, `energy_value`, `accuracy_value`) read a
`DesignPoint` and are the reference; the Oracle measures index tuples from a
per-space stage table, bit-equal to them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design_space import DesignPoint, DesignSpace, index_rows

ACCURACY_MAX = 0.95
ACCURACY_DROP = 0.35
CAPACITY_DECAY = 0.35
QUANT_PENALTY = {4: 0.04, 8: 0.01, 16: 0.002, 32: 0.0}
NOISE_AMPLITUDE = 0.002
_NOISE_KEY = b"fleetopt-accuracy-v1"

DEFAULT_QUANT_SPEEDUP = {4: 2.5, 8: 2.0, 16: 1.4, 32: 1.0}

# Heterogeneous devices are drawn log-uniformly from these ranges (proxy-centered,
# roughly 2.5x each way); gamma is drawn uniformly.
HETERO_RANGES = {
    "throughput": (40.0, 250.0),
    "bandwidth": (20.0, 125.0),
    "overhead": (0.02, 0.125),
    "power_dynamic": (0.2, 1.25),
    "power_static": (0.8, 5.0),
}
HETERO_GAMMA = (0.85, 1.2)
QS_JITTER = 0.2


@dataclass(frozen=True)
class DeviceFeatures:
    """Coefficients of one device's cost model. All positive; gamma in [0.8, 1.25]."""

    device_id: str
    throughput: float  # work-units / ms
    bandwidth: float  # mem-units / ms
    overhead: float  # ms / layer
    quant_speedup: dict[int, float]
    power_dynamic: float  # mJ / work-unit
    power_static: float  # mJ / ms
    gamma: float

    def __post_init__(self):
        for name in ("throughput", "bandwidth", "overhead", "power_dynamic", "power_static"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{self.device_id}: {name} must be positive")
        if not 0.8 <= self.gamma <= 1.25:
            raise ValueError(f"{self.device_id}: gamma {self.gamma} outside [0.8, 1.25]")
        if not self.quant_speedup or any(v <= 0 for v in self.quant_speedup.values()):
            raise ValueError(f"{self.device_id}: quant_speedup factors must be positive")

    def speedup_for(self, bits: int) -> float:
        try:
            return self.quant_speedup[bits]
        except KeyError:
            raise ValueError(
                f"{self.device_id}: no quantization speedup for {bits}-bit"
            ) from None

    def feature_vector(self) -> np.ndarray:
        """Numeric descriptor consumed by device-aware models: scalar coefficients
        followed by speedup factors in ascending bit order."""
        qs = [self.quant_speedup[b] for b in sorted(self.quant_speedup)]
        return np.array(
            [
                self.throughput,
                self.bandwidth,
                self.overhead,
                self.power_dynamic,
                self.power_static,
                self.gamma,
                *qs,
            ]
        )

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "throughput": self.throughput,
            "bandwidth": self.bandwidth,
            "overhead": self.overhead,
            "quant_speedup": {str(b): f for b, f in sorted(self.quant_speedup.items())},
            "power_dynamic": self.power_dynamic,
            "power_static": self.power_static,
            "gamma": self.gamma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceFeatures":
        return cls(
            device_id=d["device_id"],
            throughput=d["throughput"],
            bandwidth=d["bandwidth"],
            overhead=d["overhead"],
            quant_speedup={int(b): float(f) for b, f in d["quant_speedup"].items()},
            power_dynamic=d["power_dynamic"],
            power_static=d["power_static"],
            gamma=d["gamma"],
        )


def default_proxy() -> DeviceFeatures:
    return DeviceFeatures(
        device_id="proxy",
        throughput=100.0,
        bandwidth=50.0,
        overhead=0.05,
        quant_speedup=dict(DEFAULT_QUANT_SPEEDUP),
        power_dynamic=0.5,
        power_static=2.0,
        gamma=1.0,
    )


@dataclass(frozen=True)
class FleetConfig:
    n_training: int = 8
    n_synthetic: int = 16
    n_holdout_monotone: int = 8
    n_holdout_adversarial: int = 4

    def __post_init__(self):
        for name in ("n_training", "n_synthetic", "n_holdout_monotone", "n_holdout_adversarial"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")


@dataclass(frozen=True)
class Fleet:
    proxy: DeviceFeatures
    training_real: tuple[DeviceFeatures, ...]
    synthetic: tuple[DeviceFeatures, ...]
    holdout_monotone: tuple[DeviceFeatures, ...]
    holdout_adversarial: tuple[DeviceFeatures, ...]

    def __post_init__(self):
        for name in ("training_real", "synthetic", "holdout_monotone", "holdout_adversarial"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        ids = [d.device_id for d in self.all_devices()]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids in fleet: {sorted(ids)}")

    def all_devices(self) -> list[DeviceFeatures]:
        return [
            self.proxy,
            *self.training_real,
            *self.synthetic,
            *self.holdout_monotone,
            *self.holdout_adversarial,
        ]

    def to_dict(self) -> dict:
        return {
            "proxy": self.proxy.to_dict(),
            "training_real": [d.to_dict() for d in self.training_real],
            "synthetic": [d.to_dict() for d in self.synthetic],
            "holdout_monotone": [d.to_dict() for d in self.holdout_monotone],
            "holdout_adversarial": [d.to_dict() for d in self.holdout_adversarial],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Fleet":
        return cls(
            proxy=DeviceFeatures.from_dict(d["proxy"]),
            training_real=tuple(DeviceFeatures.from_dict(x) for x in d["training_real"]),
            synthetic=tuple(DeviceFeatures.from_dict(x) for x in d["synthetic"]),
            holdout_monotone=tuple(DeviceFeatures.from_dict(x) for x in d["holdout_monotone"]),
            holdout_adversarial=tuple(DeviceFeatures.from_dict(x) for x in d["holdout_adversarial"]),
        )


class MeasurementLedger:
    """Counts oracle calls per (device, metric), plus a global accuracy counter.

    Counts only ever increase; there is deliberately no reset or decrement.
    """

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}
        self._accuracy = 0

    def charge(self, device_id: str, metric: str) -> None:
        key = (device_id, metric)
        self._counts[key] = self._counts.get(key, 0) + 1

    def charge_accuracy(self) -> None:
        self._accuracy += 1

    def count(self, device_id: str, metric: str) -> int:
        return self._counts.get((device_id, metric), 0)

    @property
    def accuracy_count(self) -> int:
        return self._accuracy

    def total(self, metric: str | None = None) -> int:
        return sum(n for (_, m), n in self._counts.items() if metric is None or m == metric)

    def snapshot(self) -> dict:
        devices: dict[str, dict[str, int]] = {}
        for (dev, metric), n in sorted(self._counts.items()):
            devices.setdefault(dev, {})[metric] = n
        return {"accuracy": self._accuracy, "devices": devices}

    def to_csv(self) -> str:
        """Rows (device_id, metric, count), sorted; accuracy under device_id '*'."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["device_id", "metric", "count"])
        writer.writerow(["*", "accuracy", self._accuracy])
        for (dev, metric), n in sorted(self._counts.items()):
            writer.writerow([dev, metric, n])
        return buf.getvalue()


def _stage_term(i: int, depth: int, width: float, kernel: int) -> tuple[float, float, int, float]:
    """(work, mem, depth, capacity) of stage i; work halves per stage down the net."""
    return (depth * width**2 * kernel**2 * 16.0 * 2.0**-i, depth * width, depth,
            depth * width * math.log(kernel))


def _stage_terms(x: DesignPoint) -> list[tuple[float, float, int, float]]:
    return [_stage_term(i, *s) for i, s in enumerate(x.stages)]


def latency_value(x: DesignPoint, d: DeviceFeatures) -> float:
    """Latency in ms, no ledger charge: the reference the oracle's rows equal."""
    qs = d.speedup_for(x.bits)
    total = 0.0
    layers = 0
    for work, mem, depth, _ in _stage_terms(x):
        total += (work / (d.throughput * qs)) ** d.gamma + mem / d.bandwidth
        layers += depth
    return total + d.overhead * layers


def energy_value(x: DesignPoint, d: DeviceFeatures) -> float:
    qs = d.speedup_for(x.bits)
    work_total = sum(w for w, _, _, _ in _stage_terms(x))
    return d.power_dynamic * work_total / qs + d.power_static * latency_value(x, d)


def _hash_noise(indices: tuple[int, ...]) -> float:
    payload = ",".join(str(i) for i in indices).encode()
    digest = hashlib.blake2b(payload, digest_size=8, key=_NOISE_KEY).digest()
    u = int.from_bytes(digest, "big") / 2.0**64  # [0, 1)
    return (2.0 * u - 1.0) * NOISE_AMPLITUDE


def _accuracy(capacity: float, bits: int, indices: tuple[int, ...]) -> float:
    if bits not in QUANT_PENALTY:
        raise ValueError(f"no accuracy penalty defined for {bits}-bit")
    base = ACCURACY_MAX - ACCURACY_DROP * math.exp(-CAPACITY_DECAY * capacity) - QUANT_PENALTY[bits]
    return base + _hash_noise(indices)


def accuracy_value(x: DesignPoint, space: DesignSpace) -> float:
    """Deterministic accuracy stand-in; the space fixes the index list the noise
    hash is keyed on."""
    capacity = sum(c for _, _, _, c in _stage_terms(x))
    return _accuracy(capacity, x.bits, space.indices_of(x))


@functools.cache
def _stage_table(space: DesignSpace) -> np.ndarray:
    """_stage_term of each (depth, width, kernel) cell in index order at each
    stage, (cells, S, 4); built once per space and read-only, as oracles share it."""
    cells = itertools.product(space.depth_choices, space.width_choices, space.kernel_choices)
    table = np.array([[_stage_term(i, *c) for i in range(space.num_stages)] for c in cells])
    table.flags.writeable = False
    return table


def _stage_sum(terms: np.ndarray) -> np.ndarray:
    """Sums over the last (stage) axis in stage order, like sum(); accumulate never pairs."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _coefficients(devices) -> np.ndarray:
    """Each device's cost-model coefficients as a row, (D, 6): throughput,
    bandwidth, overhead, power_dynamic, power_static, gamma."""
    return np.array([(d.throughput, d.bandwidth, d.overhead, d.power_dynamic, d.power_static,
                      d.gamma) for d in devices]).reshape(-1, 6)


def _latency(parts: tuple, qs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """latency_value of n rows, (n,), from their `Oracle._row_parts`, their
    speedups (n,) and their devices' coefficient rows, (n, 6) or one (1, 6) for
    all. The power runs once per work term, which takes its speedup and
    coefficients from the row it comes from, and is gathered back to each
    (row, stage). numpy's + - * / round like Python's; its SIMD power does not,
    so the power stays Python's pow."""
    work, term_row, term, mem, layers, _ = parts
    on_term = coeffs if len(coeffs) == 1 else coeffs[term_row]
    ratio = work / (on_term[:, 0] * qs[term_row])
    gammas = (itertools.repeat(coeffs[0, 5].item()) if len(coeffs) == 1
              else on_term[:, 5].tolist())
    powed = np.fromiter(map(pow, ratio.tolist(), gammas), float, ratio.size)
    return _stage_sum(powed[term] + mem / coeffs[:, 1:2]) + coeffs[:, 2] * layers


def _metrics(parts: tuple, qs: np.ndarray, coeffs: np.ndarray,
             metrics: tuple[str, ...]) -> list[np.ndarray]:
    """The values (n,) of n rows, as `_latency` takes them, for each of metrics
    in order: latency_value's, and energy_value's from that one latency pass."""
    latency = _latency(parts, qs, coeffs)
    energy = (coeffs[:, 3] * parts[5] / qs + coeffs[:, 4] * latency
              if "energy" in metrics else None)
    return [latency if m == "latency" else energy for m in metrics]


class Oracle:
    """The measurement interface handed to everything downstream: one space, one
    ledger, charged truth. A design is its index tuple. The pair forms measure
    row i on device i, the row forms every row on every device (one device at a
    time, through the same arithmetic, pricing each distinct stage term once
    per device; `latency_energy_rows` gives both metrics from one such pass),
    and the single measurements (`latency`, `energy`, `accuracy`) are the
    one-row case; every form charges the ledger once per value, after its rows
    are checked and its values computed."""

    def __init__(self, space: DesignSpace, ledger: MeasurementLedger | None = None):
        self.space = space
        self.ledger = ledger if ledger is not None else MeasurementLedger()

    def latency(self, x: tuple[int, ...], d: DeviceFeatures) -> float:
        """One latency measurement: the one-pair case of `latency_pairs`."""
        return float(self.latency_pairs([x], [d])[0])

    def energy(self, x: tuple[int, ...], d: DeviceFeatures) -> float:
        """One energy measurement, the one-pair case of `energy_pairs`; the
        latency term inside is not charged separately."""
        return float(self.energy_pairs([x], [d])[0])

    def accuracy(self, x: tuple[int, ...]) -> float:
        """One accuracy measurement: the one-row case of `accuracy_rows`."""
        return float(self.accuracy_rows([x])[0])

    def latency_pairs(self, X, devices) -> np.ndarray:
        """(n,) latencies of index row i of X on devices[i]."""
        return self._measure_pairs(X, devices, ("latency",))[0]

    def energy_pairs(self, X, devices) -> np.ndarray:
        """(n,) energies of index row i of X on devices[i]."""
        return self._measure_pairs(X, devices, ("energy",))[0]

    def latency_rows(self, X, devices) -> np.ndarray:
        """(n, D) latencies of the index rows X on each device."""
        return self._measure_rows(X, devices, ("latency",))[0]

    def energy_rows(self, X, devices) -> np.ndarray:
        """(n, D) energies of the index rows X on each device."""
        return self._measure_rows(X, devices, ("energy",))[0]

    def latency_energy_rows(self, X, devices) -> tuple[np.ndarray, np.ndarray]:
        """(n, D) latencies and (n, D) energies of the index rows X on each
        device, both from one latency pass: `latency_rows` and `energy_rows`
        in one call, charged as those two calls are."""
        return tuple(self._measure_rows(X, devices, ("latency", "energy")))

    def accuracy_rows(self, X) -> np.ndarray:
        """(n,) accuracies of the index rows X, keyed on the rows themselves."""
        X = index_rows(X, self.space)
        capacity = _stage_sum(self._row_terms(X)[..., 3]).tolist()
        for _ in capacity:
            self.ledger.charge_accuracy()
        return np.array([_accuracy(c, self.space.bits_choices[row[-1]], tuple(row))
                         for row, c in zip(X.tolist(), capacity)])

    def _cells(self, X: np.ndarray) -> np.ndarray:
        """The (n, S) stage-table cell of each stage of a checked index matrix."""
        sp = self.space
        cell = (X[:, 0:-1:3] * len(sp.width_choices) + X[:, 1:-1:3]) * len(sp.kernel_choices)
        return cell + X[:, 2:-1:3]

    def _row_terms(self, X: np.ndarray) -> np.ndarray:
        """The (n, S, 4) stage terms of a checked index matrix, from its stage table."""
        return _stage_table(self.space)[self._cells(X), np.arange(self.space.num_stages)]

    def _row_parts(self, X: np.ndarray, distinct: bool) -> tuple:
        """(work, term_row, term, mem, layers, work_sum) of a checked index
        matrix, as the kernels take them: each work term's work and the row it
        comes from (T,), each (row, stage)'s term (n, S), the per-stage mem
        (n, S), and the layer counts and exact work sums over the stages (n,).
        With distinct, a term is a distinct (stage, cell, bit-width) of the
        rows, so one device prices it once; else each (row, stage) is its own."""
        terms = self._row_terms(X)
        work, S = terms[..., 0], self.space.num_stages
        first = np.arange(work.size)
        if distinct:
            key = (self._cells(X) * len(self.space.bits_choices) + X[:, -1:]) * S + np.arange(S)
            _, first, term = np.unique(key.ravel(), return_index=True, return_inverse=True)
            term = term.reshape(work.shape)
        else:
            term = first.reshape(work.shape)
        return (work.ravel()[first], first // S, term, terms[..., 1], terms[..., 2].sum(axis=1),
                _stage_sum(work))

    def _measure_pairs(self, X, devices, metrics: tuple[str, ...]) -> list[np.ndarray]:
        X = index_rows(X, self.space)
        if len(X) != len(devices):
            raise ValueError(f"{len(X)} design rows for {len(devices)} devices")
        bits = self.space.bits_choices
        qs = np.array([d.speedup_for(bits[b]) for d, b in zip(devices, X[:, -1].tolist())])
        values = _metrics(self._row_parts(X, distinct=False), qs, _coefficients(devices), metrics)
        for metric in metrics:
            for d in devices:
                self.ledger.charge(d.device_id, metric)
        return values

    def _measure_rows(self, X, devices, metrics: tuple[str, ...]) -> list[np.ndarray]:
        X = index_rows(X, self.space)
        used, which = np.unique(X[:, -1], return_inverse=True)  # unused bits need no speedup
        qs = np.array([[d.speedup_for(self.space.bits_choices[b]) for b in used.tolist()]
                       for d in devices]).reshape(len(devices), len(used))[:, which]
        parts, coeffs = self._row_parts(X, distinct=True), _coefficients(devices)
        values = np.empty((len(metrics), len(devices), len(X)))
        for j in range(len(devices)):
            values[:, j] = _metrics(parts, qs[j], coeffs[j:j + 1], metrics)
        for metric in metrics:
            for d in devices:
                for _ in range(len(X)):
                    self.ledger.charge(d.device_id, metric)
        return [v.T for v in values]


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _hetero_device(device_id: str, proxy: DeviceFeatures, rng: np.random.Generator) -> DeviceFeatures:
    coeffs = {k: _log_uniform(rng, lo, hi) for k, (lo, hi) in HETERO_RANGES.items()}
    gamma = float(rng.uniform(*HETERO_GAMMA))
    # Jitter the speedup table but keep it a plausible one: factors stay
    # descending in precision and 32-bit stays the reference point 1.0.
    bits = sorted(proxy.quant_speedup)
    jittered = [
        proxy.quant_speedup[b] * _log_uniform(rng, 1 - QS_JITTER, 1 + QS_JITTER) for b in bits
    ]
    jittered = sorted(jittered, reverse=True)
    ref = jittered[-1]
    qs = {b: f / ref for b, f in zip(bits, jittered)}
    return DeviceFeatures(device_id=device_id, gamma=gamma, quant_speedup=qs, **coeffs)


def _monotone_device(device_id: str, proxy: DeviceFeatures, rng: np.random.Generator) -> DeviceFeatures:
    # A uniformly faster/slower sibling: time-like coefficients all scale with
    # one speed factor, so at equal gamma latencies are an exact rescaling.
    s = _log_uniform(rng, 0.5, 2.0)
    gamma = float(np.clip(proxy.gamma + rng.uniform(-0.05, 0.05), 0.8, 1.25))
    return DeviceFeatures(
        device_id=device_id,
        throughput=proxy.throughput * s,
        bandwidth=proxy.bandwidth * s,
        overhead=proxy.overhead / s,
        quant_speedup=dict(proxy.quant_speedup),
        power_dynamic=proxy.power_dynamic,
        power_static=proxy.power_static,
        gamma=gamma,
    )


def _adversarial_device(device_id: str, proxy: DeviceFeatures, rng: np.random.Generator) -> DeviceFeatures:
    # Inverted quantization table (low-bit kernels run *slower*) plus 10x
    # dispatch overhead: built to break the proxy's latency rank order.
    s = _log_uniform(rng, 0.5, 2.0)
    bits = sorted(proxy.quant_speedup)
    inverted = {b: 1.0 / proxy.quant_speedup[b] for b in bits}
    ref = inverted[max(bits)]
    qs = {b: f / ref for b, f in inverted.items()}
    return DeviceFeatures(
        device_id=device_id,
        throughput=proxy.throughput * s,
        bandwidth=proxy.bandwidth * s,
        overhead=proxy.overhead * 10.0,
        quant_speedup=qs,
        power_dynamic=proxy.power_dynamic,
        power_static=proxy.power_static,
        gamma=proxy.gamma,
    )


def generate_fleet(config: FleetConfig, rng: np.random.Generator) -> Fleet:
    """Draw a fleet around the default proxy. Categories are drawn in a fixed
    order (training, synthetic, monotone, adversarial) so a given config and
    seed always produce the same devices."""
    proxy = default_proxy()
    training = tuple(
        _hetero_device(f"train-{i:02d}", proxy, rng) for i in range(config.n_training)
    )
    synthetic = tuple(
        _hetero_device(f"synth-{i:02d}", proxy, rng) for i in range(config.n_synthetic)
    )
    mono = tuple(
        _monotone_device(f"mono-{i:02d}", proxy, rng) for i in range(config.n_holdout_monotone)
    )
    adv = tuple(
        _adversarial_device(f"adv-{i:02d}", proxy, rng)
        for i in range(config.n_holdout_adversarial)
    )
    return Fleet(
        proxy=proxy,
        training_real=training,
        synthetic=synthetic,
        holdout_monotone=mono,
        holdout_adversarial=adv,
    )
