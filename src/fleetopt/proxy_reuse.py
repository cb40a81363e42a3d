"""Reusing a proxy device's predictors on new devices.

The core move: a constrained problem on a new device d is solved through the
*proxy's* latency predictor by bisecting a single weight t in

    g(x; t) = -(1 - t) * acc(x) + t * latency_proxy(x) / s_L

against true measurements of the current candidate on d. Inner solves touch
only predictors, and each entry's t-cache memoizes them with the run's inner
minimizer (inner_ga); the target device is charged one latency measurement per
bisection iteration, at most ceil(log2(1/granularity + 1)) total. A rank
correlation check decides whether a proxy is usable for a given target at all,
and a pool of proxies turns that check into a reuse-or-correct policy: a
target that no entry passes gets the nearest entry's predictors corrected on
the probes its checks measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    quantized to the granularity: (t,) for the bisection, (t1, t2) for the 2-D
    grid. A miss calls minimize(objective, key), the key the weights' integer
    multiples of the granularity."""

    def __init__(self, granularity: float, minimize):
        if not 0.0 < granularity < 1.0:
            raise ValueError("granularity must be in (0, 1)")
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
    simplex: (t,) weighs latency for the bisection, (t1, t2) latency and
    energy for the 2-D grid."""
    if min(ts) < 0 or sum(ts) > 1.0 + 1e-12:
        raise ValueError(f"weights must lie in the simplex, got {ts}")
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
    """What a proxy solver returns. t is (t,) from the bisection, (t1, t2)
    from the 2-D grid; energy is None without an energy bound; every trace
    row has the same keys, in order, the first of them the target's
    device_id: the solver's columns of the run's trace table."""

    design: tuple[int, ...]
    t: tuple[float, ...]
    measurements: int
    feasible: bool
    latency: float
    energy: float | None
    trace: tuple[dict, ...]


def bisection_optimize(
    target: DeviceFeatures,
    spec: ConstraintSpec,
    delta: float,
    entry: ProxyEntry,
    oracle: Oracle,
) -> ProxySolve:
    """Bisection on t against true target latency of the inner solution on the
    entry's predictors; delta is the absolute latency half-band around the
    spec's latency bound whose hit stops the bisection (a spec with an energy
    bound, the 2-D grid's problem, raises ValueError).

    Each iteration measures the current candidate once on the target (memoized
    per quantized t), for at most ceil(log2(1/granularity + 1)) iterations, the
    halvings that exhaust the entry cache's t grid. Raising t when the
    candidate is too slow trades accuracy for speed; the reported design is
    the iterate within the bound with the smallest t, i.e. maximum accuracy
    weight. If no iterate met the bound the last one comes back flagged
    infeasible.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spec.energy_bound is not None:
        raise ValueError("the bisection takes no energy bound; the 2-D grid does")
    space, cache, bound = oracle.space, entry.cache, spec.latency_bound
    t_min, t_max = 0.0, 1.0
    measured: dict[float, tuple[tuple[int, ...], float]] = {}  # quantized t -> (design, latency)
    trace: list[dict] = []
    for iteration in range(math.ceil(math.log2(1.0 / cache.granularity + 1.0))):
        t = (t_min + t_max) / 2.0
        (tq,) = cache.quantize((t,))
        if tq not in measured:
            x = solve_inner((t,), entry, space)
            measured[tq] = (x, oracle.latency(x, target))
        lat = measured[tq][1]
        if lat >= bound + delta:
            verdict = "raise_t"
            t_min = t
        elif lat <= bound - delta:
            verdict = "lower_t"
            t_max = t
        else:
            verdict = "within_band"
        trace.append(
            {"device_id": target.device_id, "iteration": iteration, "t": tq,
             "measured_latency": lat, "verdict": verdict}
        )
        if verdict == "within_band":
            break
    within = [t for t, (_, lat) in measured.items() if lat <= bound]
    chosen = min(within, default=tq)  # none within the bound: the last iterate
    x, lat = measured[chosen]
    return ProxySolve(design=x, t=(chosen,), measurements=len(measured), feasible=bool(within),
                      latency=lat, energy=None, trace=tuple(trace))


GRID_LEVELS = 3
GRID_N = 8
GRID_MEASURE_CAP = 6


def _lattice(center: tuple[float, float], spacing: float,
             cache: TCache) -> list[tuple[float, float]]:
    """Sorted quantized points of the GRID_N-division lattice around center that
    lie in the simplex before and after quantizing (each weight rounds alone)."""
    ks = range(-(GRID_N // 2), GRID_N - GRID_N // 2 + 1)
    pts = set()
    for k1 in ks:
        for k2 in ks:
            t1, t2 = center[0] + k1 * spacing, center[1] + k2 * spacing
            tq = cache.quantize((t1, t2))
            if t1 >= 0 and t2 >= 0 and t1 + t2 <= 1.0 and sum(tq) <= 1.0 + 1e-12:
                pts.add(tq)
    return sorted(pts)


def _calibration(measured: np.ndarray, predicted: np.ndarray) -> tuple[float, ...]:
    """Per column, the median of measured / predicted over the positive
    predictions, else 1: the factors that calibrate each predicted metric."""
    return tuple(float(np.median(m[p > 0] / p[p > 0])) if np.any(p > 0) else 1.0
                 for m, p in zip(measured.T, predicted.T))


def grid_optimize_2d(
    target: DeviceFeatures,
    spec: ConstraintSpec,
    entry: ProxyEntry,
    oracle: Oracle,
) -> ProxySolve:
    """Coarse-to-fine sweep of the (t1, t2) simplex for the spec's two bounds,
    latency and energy (a spec without an energy bound raises ValueError).

    Each of GRID_LEVELS levels solves the inner problem on a lattice (GRID_N
    divisions at the top, refined 4x around the incumbent), predicts its new
    designs in one batch per model, measures up to GRID_MEASURE_CAP new
    candidates on the target (both metrics, in one row call), and calibrates
    predicted metrics against the measurements to rank the next level's.
    Returns the measured feasible design with maximum predicted accuracy, else
    the least-violating measured design flagged infeasible. Inner solves go
    through solve_inner on the entry, so calls on one entry share them.
    """
    latency_bound, energy_bound = spec.latency_bound, spec.energy_bound
    if energy_bound is None:
        raise ValueError("the 2-D grid needs an energy bound")
    if entry.energy_model is None:
        raise ValueError(f"proxy {entry.device.device_id} has no energy model")
    space, cache = oracle.space, entry.cache
    models = (entry.accuracy_model, entry.latency_model, entry.energy_model)
    predicted: dict[tuple[int, ...], tuple[float, float, float]] = {}  # design -> (acc, lat, en)
    measured: dict[tuple[int, ...], tuple[float, float]] = {}  # design -> (lat, en)
    design_pt: dict[tuple[int, ...], tuple[float, float]] = {}  # design -> first grid point
    trace: list[dict] = []
    s_lat, s_en = 1.0, 1.0

    def standing(x) -> tuple[int, float]:
        """(0, -predicted accuracy) for a feasible measured design, else (1, violation)."""
        lat, en = measured[x]
        if lat <= latency_bound and en <= energy_bound:
            return (0, -predicted[x][0])
        return (1, max(lat / latency_bound, en / energy_bound))

    def boundary_score(x):
        _, pl, pe = predicted[x]
        return (abs(max(pl * s_lat / latency_bound, pe * s_en / energy_bound) - 1.0), x)

    def level_rank(pair):
        pt, x = pair
        return (*standing(x), pt[0] + pt[1], pt, x) if x in measured else (2, 0.0, 0.0, pt, x)

    spacing = 1.0 / GRID_N
    center = ((GRID_N // 2) * spacing,) * 2  # the top lattice spans the whole simplex
    for level in range(GRID_LEVELS):
        if level:  # refine around the best measured point of the level before
            center, spacing = min(pairs, key=level_rank)[0], spacing / 4.0
        pairs = [(pt, solve_inner(pt, entry, space)) for pt in _lattice(center, spacing, cache)]
        for pt, x in pairs:
            design_pt.setdefault(x, pt)
        designs = list(dict.fromkeys(x for _, x in pairs))
        if new := [x for x in designs if x not in predicted]:
            enc = encode_rows(new, space)
            predicted.update(zip(new, zip(*(m.predict_batch(enc).tolist() for m in models))))
        # rank unmeasured candidates by calibrated distance to the feasibility
        # boundary and spend the level's measurement budget there
        chosen = sorted((x for x in designs if x not in measured), key=boundary_score)
        if chosen := chosen[:GRID_MEASURE_CAP]:
            values = np.hstack(oracle.latency_energy_rows(chosen, [target])).tolist()
            for x, (lat, en) in zip(chosen, values):
                measured[x] = (lat, en)
                trace.append({"device_id": target.device_id, "level": level,
                              "t1": design_pt[x][0], "t2": design_pt[x][1], "latency": lat,
                              "energy": en})
            s_lat, s_en = _calibration(np.array(list(measured.values())),
                                       np.array([predicted[x][1:] for x in measured]))

    x = min(measured, key=lambda x: (*standing(x), -predicted[x][0], x))
    lat, en = measured[x]
    return ProxySolve(design=x, t=design_pt[x], measurements=2 * len(measured),
                      feasible=standing(x)[0] == 0, latency=lat, energy=en,
                      trace=tuple(trace))


def check_monotonicity(
    proxy_pred: MlpRegressor | CorrectedPredictor,
    target: DeviceFeatures,
    probe_count: int,
    oracle: Oracle,
    rng: np.random.Generator,
    probes: list | None = None,
) -> float | None:
    """Spearman rho between the proxy's latency predictor and the target's
    measured latencies on probe_count random designs: how well the proxy ranks
    designs the way the target does; None where rho is undefined (the
    predictions or the measurements are constant). Costs probe_count true
    latency measurements on the target; predictor calls are free. With probes
    a list, (designs, measured latencies) is appended to it.
    """
    if probe_count < 10:
        raise ValueError(f"probe_count must be >= 10, got {probe_count}")
    space = oracle.space
    designs = sample_rows(space, rng, probe_count)
    predicted_lat = proxy_pred.predict_batch(encode_rows(designs, space))
    actual = oracle.latency_rows(designs, [target])[:, 0]
    if probes is not None:
        probes.append((designs, actual))
    return spearman(predicted_lat, actual)


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
    (an undefined rho, None, fails). Returns None when nothing passes; the
    caller then corrects the nearest entry (corrected_entry). With trials a
    list, (proxy id, rho, verdict) is appended per candidate; with probes a
    list, each candidate's (probe designs, measured latencies).
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
        rho = check_monotonicity(entry.latency_model, target, probe_count, oracle, rng, probes)
        passed = rho is not None and rho >= threshold
        if trials is not None:
            trials.append((entry.device.device_id, rho, passed))
        if passed:
            return entry
    return None
