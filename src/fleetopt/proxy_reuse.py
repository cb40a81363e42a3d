"""Reusing a proxy device's predictors on new devices.

The core move: a constrained problem on a new device d is solved through the
*proxy's* latency predictor by bisecting a single weight t in

    g(x; t) = -(1 - t) * acc(x) + t * latency_proxy(x) / s_L

against true measurements of the current candidate on d. Inner solves touch
only predictors, and each entry's t-cache memoizes them with the run's inner
minimizer (inner_ga). The bisection calibrates the latency predictor on the
probes the gate measured and measures only iterates predicted near the bound,
at most ceil(log2(1/granularity + 1)) of them on the target. A rank
correlation check decides whether a proxy is usable for a given target at all;
it stops at half its probes when they already clear the threshold, like a
sequential test. A pool of proxies turns that check into a reuse-or-correct
policy: a target that no entry passes gets the nearest entry's predictors
corrected on the probes its checks measured, every probe of every trial.
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
    quantized to the granularity: (t,) for the bisection, (t1, t2) for the 2-D
    grid. A miss calls minimize(objective, key), the key the weights' integer
    multiples of the granularity."""

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
    # design -> the latency model's raw prediction (bisection_optimize's memo)
    latency_predictions: dict[tuple[int, ...], float] = field(default_factory=dict)


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


def _calibration(measured: np.ndarray, predicted: np.ndarray) -> tuple[float, ...]:
    """Per column, the median of measured / predicted over the positive
    predictions, else 1: the factors that calibrate each predicted metric."""
    return tuple(float(np.median(m[p > 0] / p[p > 0])) if np.any(p > 0) else 1.0
                 for m, p in zip(measured.T, predicted.T))


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
    """Bisection on t against the target latency of the inner solution on the
    entry's predictors; delta is the absolute latency half-band around the
    spec's latency bound whose measured hit stops the bisection (a spec with
    an energy bound, the 2-D grid's problem, raises ValueError).

    An iterate (solved once per quantized t) has its design's raw latency
    prediction p on the entry, made once per design and entry, and the
    calibrated estimate est = c * p. c starts as the median measured /
    predicted latency of probes, a list of (designs, measured latencies) as
    check_monotonicity appends them (1 without a usable probe), and becomes
    measured / p at each design the path measures. The path measures an
    iterate's design on the target only when est lies within BISECTION_MARGIN
    of the bound (or within delta of it, where delta is wider) or p <= 0, and
    each design at most once; the verdict is the measurement's if there is
    one, else est's, so an unmeasured iterate always moves t. It takes at
    most ceil(log2(1/granularity + 1)) iterations, the halvings that exhaust
    the entry cache's t grid, and all measurements stay under that cap.
    Raising t when the candidate is too slow trades accuracy for speed.

    The reported design is the one of the smallest t whose design measured
    within the bound, i.e. maximum accuracy weight. Before it is chosen, the
    unmeasured iterates of smaller t whose est is within the bound are
    measured, smallest t first, until one measures within it; then, while
    the answer measures more than BISECTION_MARGIN under the bound, the t
    halfway to the largest measured t below it is tried. If no design met the
    bound, the last one measured (the last iterate's, if none was) comes back
    flagged infeasible. The trace has a row per iterate visited and per
    iterate tried after the path; latency is its design's measurement, or est
    where measured is False.
    """
    if spec.energy_bound is not None:
        raise ValueError("the bisection takes no energy bound; the 2-D grid does")
    space, cache, bound = oracle.space, entry.cache, spec.latency_bound
    cap = math.ceil(math.log2(1.0 / cache.granularity + 1.0))
    c = 1.0
    if probes:
        designs = np.concatenate([x for x, _ in probes])
        probe_p = entry.latency_model.predict_batch(encode_rows(designs, space))
        (c,) = _calibration(np.concatenate([y for _, y in probes])[:, None], probe_p[:, None])
    # measure an estimate that could be within the band: an unmeasured
    # verdict is never within_band, so every unmeasured iterate moves t
    reach = max(BISECTION_MARGIN * bound, delta)
    record: dict[float, tuple[int, ...]] = {}  # quantized t -> design
    measured: dict[tuple[int, ...], float] = {}  # design -> measured latency, in order
    trace: list[dict] = []

    def predicted(tq: float) -> float:
        return _latency_prediction(entry, record[tq], space)

    def measure(x: tuple[int, ...]) -> float:
        measured[x] = oracle.latency(x, target)
        return measured[x]

    def step(tq: float, lat: float | None) -> str:
        value = c * predicted(tq) if lat is None else lat
        if value >= bound + delta:
            verdict = "raise_t"
        elif value <= bound - delta:
            verdict = "lower_t"
        else:
            verdict = "within_band"
        trace.append({"device_id": target.device_id, "iteration": len(trace), "t": tq,
                      "latency": value, "measured": lat is not None, "verdict": verdict})
        return verdict

    def visit(t: float) -> float:
        """t quantized, its record made on the first visit."""
        (tq,) = cache.quantize((t,))
        if tq not in record:
            record[tq] = solve_inner((t,), entry, space)
        return tq

    def best() -> float:
        """The smallest t whose design measured within the bound, inf if none."""
        return min((t for t, x in record.items() if measured.get(x, math.inf) <= bound),
                   default=math.inf)

    t_min, t_max = 0.0, 1.0
    for _ in range(cap):
        t = (t_min + t_max) / 2.0
        tq = visit(t)
        x, p = record[tq], predicted(tq)
        lat = measured.get(x)
        if lat is None and (p <= 0 or abs(c * p - bound) <= reach):
            lat = measure(x)
            if p > 0:
                c = lat / p
        verdict = step(tq, lat)
        if verdict == "raise_t":
            t_min = t
        elif verdict == "lower_t":
            t_max = t
        elif lat is not None:
            break

    # confirm the unmeasured iterates of smaller t than the best whose est,
    # on the loop's last c, is within the bound, smallest t first
    for t in sorted(record):
        if t >= best() or len(measured) >= cap:
            break
        x = record[t]
        if x not in measured and c * predicted(t) <= bound:
            step(t, measure(x))
    if not measured:  # nothing measured: the last iterate
        step(tq, measure(record[tq]))
    # an answer more than the margin under the bound is refined by bisection
    # between it and the largest t below it whose design was measured
    while best() < math.inf and len(measured) < cap and (
            measured[record[best()]] < (1.0 - BISECTION_MARGIN) * bound):
        hi = best()
        lo = max((t for t, x in record.items() if t < hi and x in measured), default=0.0)
        tq = visit((lo + hi) / 2.0)
        if not lo < tq < hi:
            break
        x = record[tq]
        step(tq, measured[x] if x in measured else measure(x))
    chosen = best()
    if chosen == math.inf:  # none within the bound: the last design measured
        last = next(reversed(measured))
        chosen = min(t for t, x in record.items() if x == last)
    x = record[chosen]
    return ProxySolve(design=x, t=(chosen,), measurements=len(measured),
                      feasible=bool(measured[x] <= bound), latency=measured[x], energy=None,
                      trace=tuple(trace))


def _latency_prediction(entry: ProxyEntry, x: tuple[int, ...], space: DesignSpace) -> float:
    """The entry's raw latency prediction of design x, predicted once per entry."""
    if x not in entry.latency_predictions:
        enc = encode_rows([x], space)
        entry.latency_predictions[x] = float(entry.latency_model.predict_batch(enc)[0])
    return entry.latency_predictions[x]


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
