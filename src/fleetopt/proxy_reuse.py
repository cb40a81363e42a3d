"""Reusing a proxy device's predictors on new devices.

The core move: a constrained problem on a new device d is solved through the
*proxy's* latency predictor by bisecting a single weight t in

    g(x; t) = -(1 - t) * acc(x) + t * latency_proxy(x) / s_L

against true measurements of the current candidate on d; under an energy
bound the same bisection runs along the ray (t/2, t/2) of the (latency,
energy) simplex, on the larger of the two metrics' shares of their bounds.
Inner solves touch only predictors, and each entry's t-cache memoizes them
with the run's inner minimizer (inner_ga). The bisection calibrates the
latency predictor on the probes the gate measured and measures only iterates
predicted near the bound, at most ceil(log2(1/granularity + 1)) designs on
the target. A rank correlation check decides whether a proxy is usable for a
given target at all; it stops at half its probes when they already clear the
threshold, like a sequential test. A pool of proxies turns that check into a
reuse-or-correct policy: a target that no entry passes gets the nearest
entry's predictors corrected on the probes its checks measured, every probe
of every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design_space import DesignSpace, encode_rows, sample_rows
from .device_world import DeviceFeatures, Oracle
from .search import GA_STREAM, ConstraintSpec, SearchParams, evolutionary_search, stream
from .surrogate import CorrectedPredictor, MlpRegressor, correct, device_embedding, standardizer


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; a run of equal values shares the mean of its ranks."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(a, b) -> float | None:
    """1 - 6*sum(d^2)/(n(n^2-1)) over average ranks; ties get averaged ranks.
    None where rho is undefined: either input is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"inputs must be equal-length vectors, got {a.shape} and {b.shape}")
    n = len(a)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return None
    d = _average_ranks(a) - _average_ranks(b)
    return float(1.0 - 6.0 * (d @ d) / (n * (n * n - 1.0)))


class TCache:
    """An entry's memoized inner argmin, keyed on the weight tuple, each weight
    quantized to the granularity: (t,) for a latency bound, (t1, t2) on the
    ray of an energy bound. A miss calls minimize(objective, key), the key
    the weights' integer multiples of the granularity."""

    def __init__(self, granularity: float, minimize):
        self.granularity = granularity
        self.minimize = minimize
        self._entries: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _key(self, ts: tuple[float, ...]) -> tuple[int, ...]:
        return tuple(int(round(t / self.granularity)) for t in ts)

    def quantize(self, ts: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(k * self.granularity for k in self._key(ts))

    def argmin(self, ts: tuple[float, ...], objective) -> tuple[int, ...]:
        """The minimizer of objective at ts's key, found once per key."""
        key = self._key(ts)
        if key not in self._entries:
            self._entries[key] = self.minimize(objective, key)
        return self._entries[key]


def inner_ga(space: DesignSpace, params: SearchParams, seed: int):
    """The run's inner minimizer: the GA on the scenario seed's GA stream keyed
    by the t-cache key."""
    return lambda objective, key: evolutionary_search(objective, space, params,
                                                      stream(seed, GA_STREAM, *key))


@dataclass
class ProxyEntry:
    device: DeviceFeatures
    accuracy_model: MlpRegressor
    latency_model: MlpRegressor | CorrectedPredictor
    energy_model: MlpRegressor | CorrectedPredictor | None
    cache: TCache
    # design -> the raw predictions of its metric models, latency first
    # (bisection_optimize's memo)
    predictions: dict[tuple[int, ...], tuple[float, ...]] = field(default_factory=dict)


def corrected_entry(entry: ProxyEntry, target: DeviceFeatures, probes: list,
                    oracle: Oracle) -> ProxyEntry:
    """The target's own entry when no pool entry passes its rank gate: entry's
    accuracy model, its latency model corrected (`surrogate.correct`) on every
    probe the gate measured, probes a list of (designs, latencies) as
    check_monotonicity appends them, and its energy model, if any, corrected
    on the same designs measured for energy (one charge per probe); a fresh
    t-cache of entry's granularity and minimizer. No predictor is trained."""
    designs = np.concatenate([x for x, _ in probes])
    enc = encode_rows(designs, oracle.space)
    energy_model = None
    if entry.energy_model is not None:
        energy_model = correct(entry.energy_model, enc, oracle.energy_rows(designs, [target])[:, 0])
    latency_model = correct(entry.latency_model, enc, np.concatenate([y for _, y in probes]))
    return ProxyEntry(target, entry.accuracy_model, latency_model, energy_model,
                      TCache(entry.cache.granularity, entry.cache.minimize))


def scalarized_objective(
    X: np.ndarray,
    ts: tuple[float, ...],
    acc_model: MlpRegressor,
    metric_models: tuple[MlpRegressor | CorrectedPredictor, ...],
    space: DesignSpace,
) -> np.ndarray:
    """-(1 - sum t_i)*acc + sum t_i*m_i/s_i on the proxy's predictors for each
    row of the index matrix X, one weight per metric model, the weights on the
    simplex: (t,) weighs latency, (t1, t2) latency and energy."""
    enc = encode_rows(X, space)
    w = 1.0
    for t in ts:
        w -= t
    f = -w * acc_model.predict_batch(enc)
    for t, model in zip(ts, metric_models, strict=True):
        f += t * (model.predict_batch(enc) / model.objective_scale)
    return f


def solve_inner(ts: tuple[float, ...], entry: ProxyEntry, space: DesignSpace) -> tuple[int, ...]:
    """The entry's t-cache argmin of the scalarized objective at the quantized
    weights ts on its accuracy model and its first len(ts) metric models
    (latency, then energy); predictor-only, so repeated calls cost nothing and
    never touch any device."""
    tq = entry.cache.quantize(ts)
    metric_models = (entry.latency_model, entry.energy_model)[:len(ts)]

    def objective(X: np.ndarray) -> np.ndarray:
        return scalarized_objective(X, tq, entry.accuracy_model, metric_models, space)

    return entry.cache.argmin(ts, objective)


@dataclass(frozen=True)
class ProxySolve:
    """What the proxy's bisection returns. t is the chosen weights, (t,)
    without an energy bound, (t1, t2) with one; energy is None without an
    energy bound; every trace row has the same keys, in order, the first of
    them the target's device_id: the solver's columns of the run's trace
    table."""

    design: tuple[int, ...]
    t: tuple[float, ...]
    measurements: int
    feasible: bool
    latency: float
    energy: float | None
    trace: tuple[dict, ...]


# A bisection iterate is measured only when its calibrated latency lies within
# this fraction of the bound, and an answer more than this fraction under the
# bound is refined. Chosen on proxy-latency, seeds 1 and 2 at percentiles 40
# and 5: the largest of 0.05, 0.1, 0.15, 0.2 and 0.3 at which no cell lost mean
# true accuracy (0.15: +0.0049, +0.0001, +0.0021, +0.0013; 0.2 lost 0.0008 at
# seed 1, p5), target measurements 31.0 -> 27.1 a target over the four cells.
# Confirmed at seeds 23 and 57: at p40 30.0 -> 23.6 and 31.3 -> 25.9, accuracy
# not lower; over p5, p15 and p40 of proxy-latency and the proxy defaults no
# cell lost more than 0.0004, none broke its bound and none was infeasible.
BISECTION_MARGIN = 0.15


def bisection_optimize(
    target: DeviceFeatures,
    spec: ConstraintSpec,
    delta: float,
    entry: ProxyEntry,
    oracle: Oracle,
    probes: list | tuple = (),
) -> ProxySolve:
    """Bisection on t against the spec's bounds at the inner solution on the
    entry's predictors; delta is the absolute latency half-band around the
    latency bound L whose measured hit stops the bisection.

    Without an energy bound the weights are (t,) on latency and a design's
    value is its latency. With an energy bound E they are (t/2, t/2) on
    latency and energy, one ray of the simplex, and a design's value is
    max(latency, energy * L / E). Either way the value is compared with
    L +- delta, and a design is within the bounds when each measured metric
    is within its own.

    An iterate (solved once per quantized t) has its design's raw
    predictions p on the entry, made once per design and entry, one per
    weight, and the calibrated estimates c * p, one factor per metric. The
    latency factor starts as the median measured / predicted latency of
    probes, a list of (designs, measured latencies) as check_monotonicity
    appends them (1 without a usable probe), the energy factor at 1, and
    each becomes measured / p at every design the path measures. The path
    measures an iterate's design on the target only when the estimated value
    lies within BISECTION_MARGIN of L (or within delta of it, where delta is
    wider) or a prediction is <= 0, and each design at most once, one charge
    per metric; the verdict is the measurement's if there is one, else the
    estimate's, so an unmeasured iterate always moves t. It takes at most
    ceil(log2(1/granularity + 1)) iterations, the halvings that exhaust the
    entry cache's t grid, and it measures at most that many designs.
    Raising t when the candidate is too slow trades accuracy for speed.

    The reported design is the one of the smallest t whose design measured
    within the bounds, i.e. maximum accuracy weight. Before it is chosen, the
    unmeasured iterates of smaller t whose estimated value is within L are
    measured, smallest t first, until one measures within the bounds (with
    nothing measured, the last iterate is); while none is within the bounds
    and the cap is not spent, the unmeasured iterates above the largest
    measured t are measured, smallest t first, and then the t halfway between
    that t and 1 is tried. While the answer's value measures more than
    BISECTION_MARGIN under L, the t halfway to the largest measured t below
    it is tried. If no design met the bounds, the last one measured
    comes back flagged infeasible. The trace has a row per iterate visited
    and per iterate tried after the path, t its weights' sum; latency (and
    energy) is its design's measurement, or the estimate where measured is
    False.
    """
    space, cache, bound = oracle.space, entry.cache, spec.latency_bound
    bounds = (bound,) if spec.energy_bound is None else (bound, spec.energy_bound)
    cap = math.ceil(math.log2(1.0 / cache.granularity + 1.0))
    calibration = [1.0] * len(bounds)
    if probes:
        designs = np.concatenate([x for x, _ in probes])
        p = entry.latency_model.predict_batch(encode_rows(designs, space))
        y = np.concatenate([y for _, y in probes])
        if np.any(p > 0):
            calibration[0] = float(np.median(y[p > 0] / p[p > 0]))
    # measure an estimate that could be within the band: an unmeasured
    # verdict is never within_band, so every unmeasured iterate moves t
    reach = max(BISECTION_MARGIN * bound, delta)
    record: dict[float, tuple[int, ...]] = {}  # quantized t -> design
    # design -> its measured (latency,) or (latency, energy), in order
    measured: dict[tuple[int, ...], tuple[float, ...]] = {}
    trace: list[dict] = []

    def weights(t: float) -> tuple[float, ...]:
        return (t,) if len(bounds) == 1 else (t / 2.0, t / 2.0)

    def predicted(tq: float) -> tuple[float, ...]:
        return _predictions(entry, record[tq], len(bounds), space)

    def estimate(tq: float) -> tuple[float, ...]:
        return tuple(k * p for k, p in zip(calibration, predicted(tq)))

    def value(metrics: tuple[float, ...]) -> float:
        """Latency, or on the ray the larger of latency and energy scaled to L."""
        return metrics[0] if len(metrics) == 1 else max(metrics[0], metrics[1] * bound / bounds[1])

    def within(x: tuple[int, ...]) -> bool:
        return x in measured and all(m <= b for m, b in zip(measured[x], bounds))

    def measure(x: tuple[int, ...]) -> tuple[float, ...]:
        if len(bounds) == 1:
            measured[x] = (oracle.latency(x, target),)
        else:
            measured[x] = tuple(float(m[0, 0]) for m in oracle.latency_energy_rows([x], [target]))
        return measured[x]

    def step(tq: float, metrics: tuple[float, ...] | None) -> str:
        shown = estimate(tq) if metrics is None else metrics
        v = value(shown)
        if v >= bound + delta:
            verdict = "raise_t"
        elif v <= bound - delta:
            verdict = "lower_t"
        else:
            verdict = "within_band"
        trace.append({"device_id": target.device_id, "iteration": len(trace), "t": tq,
                      **dict(zip(("latency", "energy"), shown)),
                      "measured": metrics is not None, "verdict": verdict})
        return verdict

    def visit(t: float) -> float:
        """t's weights quantized, summed; its record made on the first visit."""
        tq = sum(cache.quantize(weights(t)))
        if tq not in record:
            record[tq] = solve_inner(weights(t), entry, space)
        return tq

    def best() -> float:
        """The smallest t whose design measured within the bounds, inf if none."""
        return min((t for t, x in record.items() if within(x)), default=math.inf)

    t_min, t_max = 0.0, 1.0
    for _ in range(cap):
        t = (t_min + t_max) / 2.0
        tq = visit(t)
        x, p = record[tq], predicted(tq)
        metrics = measured.get(x)
        if metrics is None and (min(p) <= 0 or abs(value(estimate(tq)) - bound) <= reach):
            metrics = measure(x)
            calibration = [m / q if q > 0 else k for k, m, q in zip(calibration, metrics, p)]
        verdict = step(tq, metrics)
        if verdict == "raise_t":
            t_min = t
        elif verdict == "lower_t":
            t_max = t
        elif metrics is not None:
            break

    # confirm the unmeasured iterates of smaller t than the best whose
    # estimated value, on the loop's last calibration, is within L, smallest
    # t first
    for t in sorted(record):
        if t >= best() or len(measured) >= cap:
            break
        x = record[t]
        if x not in measured and value(estimate(t)) <= bound:
            step(t, measure(x))
    if not measured:  # nothing measured: the last iterate
        step(tq, measure(record[tq]))
    # nothing within the bounds: measure upward in t, the recorded iterates
    # above the largest measured t first (their designs are all unmeasured)
    while best() == math.inf and len(measured) < cap:
        top = max(t for t, x in record.items() if x in measured)
        tq = min((t for t in record if t > top), default=None) or visit((top + 1.0) / 2.0)
        if tq <= top:
            break
        if record[tq] not in measured:
            step(tq, measure(record[tq]))
    # an answer more than the margin under the bound is refined by bisection
    # between it and the largest t below it whose design was measured
    while best() < math.inf and len(measured) < cap and (
            value(measured[record[best()]]) < (1.0 - BISECTION_MARGIN) * bound):
        hi = best()
        lo = max((t for t, x in record.items() if t < hi and x in measured), default=0.0)
        tq = visit((lo + hi) / 2.0)
        if not lo < tq < hi:
            break
        x = record[tq]
        step(tq, measured[x] if x in measured else measure(x))
    chosen = best()
    if chosen == math.inf:  # none within the bounds: the last design measured
        last = next(reversed(measured))
        chosen = min(t for t, x in record.items() if x == last)
    x = record[chosen]
    metrics = measured[x]
    return ProxySolve(design=x, t=cache.quantize(weights(chosen)),
                      measurements=len(bounds) * len(measured), feasible=within(x),
                      latency=metrics[0], energy=metrics[1] if len(metrics) > 1 else None,
                      trace=tuple(trace))


def _predictions(entry: ProxyEntry, x: tuple[int, ...], n: int,
                 space: DesignSpace) -> tuple[float, ...]:
    """The entry's raw predictions of design x by its first n metric models
    (latency, then energy), each predicted once per entry."""
    got = entry.predictions.get(x, ())
    if len(got) < n:
        enc = encode_rows([x], space)
        models = (entry.latency_model, entry.energy_model)[len(got):n]
        got = entry.predictions[x] = got + tuple(float(m.predict_batch(enc)[0]) for m in models)
    return got[:n]


def check_monotonicity(
    proxy_pred: MlpRegressor | CorrectedPredictor,
    target: DeviceFeatures,
    probe_count: int,
    oracle: Oracle,
    rng: np.random.Generator,
    probes: list | None = None,
    threshold: float | None = None,
) -> float | None:
    """Spearman rho between the proxy's latency predictor and the target's
    measured latencies on probe_count random designs: how well the proxy ranks
    designs the way the target does; None where rho is undefined (the
    predictions or the measurements are constant). The designs are drawn in
    one sample_rows call and predicted in one batch; predictor calls are free.

    Without threshold it measures all probe_count designs. With one, the trial
    is two-stage: it measures the first probe_count // 2 and stops there with
    their rho if that rho is at least threshold; otherwise it measures the
    rest and returns the rho of all of them, the value the one-stage check
    gives. So it costs probe_count // 2 true latency measurements on the
    target on a pass at the half, probe_count otherwise, and the generator
    ends in the same state either way. With probes a list, (designs, measured
    latencies) of the designs it measured is appended to it.
    """
    space = oracle.space
    designs = sample_rows(space, rng, probe_count)
    predicted_lat = proxy_pred.predict_batch(encode_rows(designs, space))
    n = probe_count if threshold is None else probe_count // 2
    actual = oracle.latency_rows(designs[:n], [target])[:, 0]
    rho = spearman(predicted_lat[:n], actual)
    if n < probe_count and (rho is None or rho < threshold):
        rest = oracle.latency_rows(designs[n:], [target])[:, 0]
        n, actual = probe_count, np.concatenate([actual, rest])
        rho = spearman(predicted_lat, actual)
    if probes is not None:
        probes.append((designs[:n], actual))
    return rho


def match_proxy(
    pool: list[ProxyEntry],
    target: DeviceFeatures,
    threshold: float,
    oracle: Oracle,
    rng: np.random.Generator,
    probe_count: int,
    trials: list | None = None,
    probes: list | None = None,
) -> ProxyEntry | None:
    """Nearest-first scan of the pool; a candidate is accepted only if its
    latency predictor's rank correlation with the target is at least threshold
    (an undefined rho, None, fails), each trial check_monotonicity's two-stage
    one: a pass on the first half of its probe_count probes stops there, any
    other trial measures all of them. Returns None when nothing passes, after
    every trial measured all its probes; the caller then corrects the nearest
    entry (corrected_entry). With trials a list, (proxy id, rho, verdict) is
    appended per candidate; with probes a list, each candidate's (probe
    designs, measured latencies), one tuple per trial in trial order.
    """
    if not pool:
        return None
    rows = np.stack([device_embedding(e.device) for e in pool] + [device_embedding(target)])
    mean, scale = standardizer(rows)
    normed = (rows - mean) / scale
    target_row = normed[-1]
    dists = np.linalg.norm(normed[:-1] - target_row, axis=1)
    order = sorted(range(len(pool)), key=lambda i: (dists[i], i))
    for i in order:
        entry = pool[i]
        rho = check_monotonicity(entry.latency_model, target, probe_count, oracle, rng, probes,
                                 threshold)
        passed = rho is not None and rho >= threshold
        if trials is not None:
            trials.append((entry.device.device_id, rho, passed))
        if passed:
            return entry
    return None
