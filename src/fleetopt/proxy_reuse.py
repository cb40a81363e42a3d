"""Reusing a proxy device's predictors on new devices.

The core move: a constrained problem on a new device d is solved through the
*proxy's* latency predictor by bisecting a single weight t in

    g(x; t) = -(1 - t) * acc(x) + t * latency_proxy(x) / s_L

against true measurements of the current candidate on d. Inner solves touch
only predictors; the target device is charged one latency measurement per
bisection iteration, at most ceil(log2(1/granularity + 1)) total. A rank
correlation check decides whether a proxy is usable for a given target at all,
and a pool of proxies turns that check into a reuse-or-train-new policy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .design_space import DesignSpace, encode, sample_uniform
from .device_world import DeviceFeatures, Oracle
from .search import SearchParams, evolutionary_search
from .surrogate import MlpRegressor, device_embedding


class UndefinedCorrelationError(ValueError):
    """Rank correlation is undefined when either input is constant."""


def _average_ranks(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)) over average ranks; ties get averaged ranks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"inputs must be equal-length vectors, got {a.shape} and {b.shape}")
    n = len(a)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise UndefinedCorrelationError("rank correlation undefined for constant input")
    d = _average_ranks(a) - _average_ranks(b)
    return float(1.0 - 6.0 * (d @ d) / (n * (n * n - 1.0)))


class TCache:
    """Inner-solution cache keyed on the weight tuple, each weight quantized to
    the granularity: (t,) for the bisection, (t1, t2) for the 2-D grid."""

    def __init__(self, granularity: float = 0.001):
        if not 0.0 < granularity < 1.0:
            raise ValueError("granularity must be in (0, 1)")
        self.granularity = granularity
        self._entries: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _key(self, ts: tuple[float, ...]) -> tuple[int, ...]:
        return tuple(int(round(t / self.granularity)) for t in ts)

    def quantize(self, ts: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(k * self.granularity for k in self._key(ts))

    def get(self, ts: tuple[float, ...]) -> tuple[int, ...] | None:
        return self._entries.get(self._key(ts))

    def put(self, ts: tuple[float, ...], x: tuple[int, ...]) -> None:
        self._entries[self._key(ts)] = x

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class ProxyEntry:
    device: DeviceFeatures
    accuracy_model: MlpRegressor
    latency_model: MlpRegressor
    energy_model: MlpRegressor | None
    cache: TCache


def scalarized_objective(
    x: tuple[int, ...],
    ts: tuple[float, ...],
    acc_model: MlpRegressor,
    metric_models: tuple[MlpRegressor, ...],
    space: DesignSpace,
) -> float:
    """-(1 - sum t_i)*acc + sum t_i*m_i/s_i on the proxy's predictors, one
    weight per metric model, the weights on the simplex: (t,) weighs latency
    for the bisection, (t1, t2) latency and energy for the 2-D grid."""
    if min(ts) < 0 or sum(ts) > 1.0 + 1e-12:
        raise ValueError(f"weights must lie in the simplex, got {ts}")
    enc = encode(x, space)
    w = 1.0
    for t in ts:
        w -= t
    f = -w * acc_model.predict(enc)
    for t, model in zip(ts, metric_models, strict=True):
        f += t * (model.predict(enc) / model.objective_scale)
    return f


def _derived_seed(base_seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([base_seed, *salt]).generate_state(1, np.uint64)[0])


def solve_inner(
    ts: tuple[float, ...],
    entry: ProxyEntry,
    space: DesignSpace,
    params: SearchParams,
    minimizer=None,
) -> tuple[int, ...]:
    """Cached argmin of the scalarized objective at the quantized weights ts on
    the entry's accuracy model and its first len(ts) metric models (latency,
    then energy); predictor-only, so repeated calls cost nothing and never
    touch any device."""
    cache = entry.cache
    hit = cache.get(ts)
    if hit is not None:
        return hit
    tq = cache.quantize(ts)
    metric_models = (entry.latency_model, entry.energy_model)[:len(ts)]

    def objective(x: tuple[int, ...]) -> float:
        return scalarized_objective(x, tq, entry.accuracy_model, metric_models, space)

    if minimizer is not None:
        x = minimizer(objective)
    else:
        seeded = dataclasses.replace(params, seed=_derived_seed(params.seed, *cache._key(ts)))
        x = evolutionary_search(objective, space, seeded)
    cache.put(ts, x)
    return x


@dataclass(frozen=True)
class BisectionResult:
    design: tuple[int, ...]
    t_star: float
    measurements: int
    feasible: bool
    latency: float
    trace: tuple[dict, ...]


def bisection_optimize(
    target: DeviceFeatures,
    bound: float,
    delta: float,
    entry: ProxyEntry,
    oracle: Oracle,
    params: SearchParams,
    minimizer=None,
) -> BisectionResult:
    """Bisection on t against true target latency of the inner solution on the
    entry's predictors; delta is the absolute latency half-band around bound.

    Each iteration measures the current candidate once on the target (memoized
    per quantized t), for at most ceil(log2(1/granularity + 1)) iterations, the
    halvings that exhaust the entry cache's t grid. Raising t when the
    candidate is too slow trades accuracy for speed; the reported design is
    the fastest-feasible iterate with the smallest t, i.e. maximum accuracy
    weight among iterates within the band. If nothing satisfied the bound the
    last iterate comes back flagged infeasible.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    space, cache = oracle.space, entry.cache
    t_min, t_max = 0.0, 1.0
    measured: dict[tuple[int], tuple[tuple[int, ...], float]] = {}
    trace: list[dict] = []
    best: tuple[float, tuple[int, ...], float] | None = None  # (t, design, latency)
    last: tuple[float, tuple[int, ...], float] | None = None
    measurements = 0
    for iteration in range(math.ceil(math.log2(1.0 / cache.granularity + 1.0))):
        t = (t_min + t_max) / 2.0
        key = cache._key((t,))
        if key in measured:
            x, lat = measured[key]
        else:
            x = solve_inner((t,), entry, space, params, minimizer)
            lat = oracle.latency(space.design_at(x), target)
            measurements += 1
            measured[key] = (x, lat)
        (tq,) = cache.quantize((t,))
        last = (tq, x, lat)
        if lat >= bound + delta:
            verdict = "raise_t"
            t_min = t
        elif lat <= bound - delta:
            verdict = "lower_t"
            t_max = t
        else:
            verdict = "within_band"
        if lat <= bound + delta and (best is None or tq < best[0]):
            best = (tq, x, lat)
        trace.append(
            {"iteration": iteration, "t": tq, "measured_latency": lat,
             "bound": bound, "verdict": verdict}
        )
        if verdict == "within_band":
            break
    assert last is not None
    chosen = best if best is not None else last
    return BisectionResult(
        design=chosen[1],
        t_star=chosen[0],
        measurements=measurements,
        feasible=best is not None,
        latency=chosen[2],
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class Grid2dResult:
    design: tuple[int, ...]
    t: tuple[float, float]
    measurements: int
    feasible: bool
    latency: float
    energy: float
    trace: tuple[dict, ...]


GRID_LEVELS = 3
GRID_N = 8
GRID_MEASURE_CAP = 6


def grid_optimize_2d(
    target: DeviceFeatures,
    latency_bound: float,
    energy_bound: float,
    entry: ProxyEntry,
    oracle: Oracle,
    params: SearchParams,
    minimizer=None,
) -> Grid2dResult:
    """Coarse-to-fine sweep of the (t1, t2) simplex for two simultaneous bounds.

    Each of GRID_LEVELS levels solves the inner problem on a lattice (GRID_N
    divisions at the top, refined 4x around the incumbent), measures up to
    GRID_MEASURE_CAP new candidate designs on the target (both metrics), and
    calibrates predicted metrics against those measurements to rank the rest.
    Returns the measured feasible design with maximum predicted accuracy, else
    the least-violating measured design flagged infeasible. Inner solves go
    through solve_inner on the entry, so calls on one entry share them.
    """
    if latency_bound <= 0 or energy_bound <= 0:
        raise ValueError("bounds must be positive")
    if entry.energy_model is None:
        raise ValueError(f"proxy {entry.device.device_id} has no energy model")
    space, cache = oracle.space, entry.cache
    models = (entry.accuracy_model, entry.latency_model, entry.energy_model)
    measured: dict[tuple[int, ...], tuple[float, float]] = {}  # design -> (lat, en)
    design_pt: dict[tuple[int, ...], tuple[float, float]] = {}  # design -> first grid point
    pred_cache: dict[tuple[int, ...], tuple[float, float, float]] = {}
    measurements = 0
    trace: list[dict] = []

    def predicted(x: tuple[int, ...]) -> tuple[float, float, float]:
        if x not in pred_cache:
            enc = encode(x, space)
            pred_cache[x] = tuple(model.predict(enc) for model in models)
        return pred_cache[x]

    s_lat, s_en = 1.0, 1.0

    def recalibrate() -> tuple[float, float]:
        if not measured:
            return 1.0, 1.0
        ratios_l, ratios_e = [], []
        for x, (lat, en) in measured.items():
            _, pl, pe = pred_cache[x]
            if pl > 0:
                ratios_l.append(lat / pl)
            if pe > 0:
                ratios_e.append(en / pe)
        return (
            float(np.median(ratios_l)) if ratios_l else 1.0,
            float(np.median(ratios_e)) if ratios_e else 1.0,
        )

    spacing = 1.0 / GRID_N
    center = (0.0, 0.0)
    lattice = [
        cache.quantize((i * spacing, j * spacing))
        for i in range(GRID_N + 1)
        for j in range(GRID_N + 1)
        if i + j <= GRID_N
    ]
    for level in range(GRID_LEVELS):
        level_pairs: list[tuple[tuple[float, float], tuple[int, ...]]] = []
        for pt in lattice:
            x = solve_inner(pt, entry, space, params, minimizer)
            design_pt.setdefault(x, pt)
            level_pairs.append((pt, x))
        # rank unmeasured candidates by calibrated distance to the feasibility
        # boundary and spend the level's measurement budget there
        candidates = dict.fromkeys(x for _, x in level_pairs if x not in measured)

        def boundary_score(x):
            _, pl, pe = predicted(x)
            ratio = max(pl * s_lat / latency_bound, pe * s_en / energy_bound)
            return (abs(ratio - 1.0), x)

        for x in sorted(candidates, key=boundary_score)[:GRID_MEASURE_CAP]:
            point = space.design_at(x)
            lat = oracle.latency(point, target)
            en = oracle.energy(point, target)
            measurements += 2
            measured[x] = (lat, en)
            s_lat, s_en = recalibrate()
            trace.append(
                {"level": level, "t1": design_pt[x][0], "t2": design_pt[x][1],
                 "latency": lat, "energy": en,
                 "feasible": lat <= latency_bound and en <= energy_bound}
            )
        if level == GRID_LEVELS - 1:
            break
        # refine around the best measured point of this level
        def level_rank(pair):
            pt, x = pair
            if x not in measured:
                return (2, 0.0, 0.0, pt, x)
            lat, en = measured[x]
            feasible = lat <= latency_bound and en <= energy_bound
            pa = predicted(x)[0]
            return (0 if feasible else 1,
                    -pa if feasible else max(lat / latency_bound, en / energy_bound),
                    pt[0] + pt[1], pt, x)

        ranked = sorted(level_pairs, key=level_rank)
        center = ranked[0][0]
        spacing /= 4.0
        pts = set()
        for i in range(GRID_N + 1):
            for j in range(GRID_N + 1):
                t1 = center[0] + (i - GRID_N // 2) * spacing
                t2 = center[1] + (j - GRID_N // 2) * spacing
                if t1 < 0 or t2 < 0 or t1 + t2 > 1.0:
                    continue
                pts.add(cache.quantize((t1, t2)))
        lattice = sorted(pts)

    best = None  # (-pred_acc, design)
    worst = None  # (violation, -pred_acc, design)
    for x, (lat, en) in measured.items():
        pa = pred_cache[x][0]
        if lat <= latency_bound and en <= energy_bound:
            rank = (-pa, x)
            if best is None or rank < best[0]:
                best = (rank, x, lat, en)
        violation = max(lat / latency_bound, en / energy_bound)
        rank_v = (violation, -pa, x)
        if worst is None or rank_v < worst[0]:
            worst = (rank_v, x, lat, en)
    feasible = best is not None
    _, x, lat, en = best if feasible else worst
    return Grid2dResult(
        design=x,
        t=design_pt[x],
        measurements=measurements,
        feasible=feasible,
        latency=lat,
        energy=en,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class MonotonicityReport:
    rho: float
    monotone: bool
    probe_count: int


def check_monotonicity(
    proxy_pred: MlpRegressor,
    target: DeviceFeatures,
    probe_count: int,
    threshold: float,
    oracle: Oracle,
    rng: np.random.Generator,
) -> MonotonicityReport:
    """Does the proxy's latency predictor rank designs the way the target does?

    Costs probe_count true latency measurements on the target; predictor calls
    are free. Monotone verdict iff Spearman rho >= threshold.
    """
    if probe_count < 10:
        raise ValueError(f"probe_count must be >= 10, got {probe_count}")
    space = oracle.space
    designs = [sample_uniform(space, rng) for _ in range(probe_count)]
    enc = np.stack([encode(x, space) for x in designs])
    predicted_lat = proxy_pred.predict_batch(enc)
    actual = np.array([oracle.latency(space.design_at(x), target) for x in designs])
    rho = spearman(predicted_lat, actual)
    return MonotonicityReport(rho=rho, monotone=rho >= threshold, probe_count=probe_count)


@dataclass
class ProxyPool:
    entries: list[ProxyEntry] = field(default_factory=list)

    def add(self, entry: ProxyEntry) -> None:
        if any(e.device.device_id == entry.device.device_id for e in self.entries):
            raise ValueError(f"pool already has proxy {entry.device.device_id}")
        self.entries.append(entry)


def match_proxy(
    pool: ProxyPool,
    target: DeviceFeatures,
    threshold: float,
    oracle: Oracle,
    rng: np.random.Generator,
    probe_count: int = 20,
    trials: list | None = None,
) -> ProxyEntry | None:
    """Nearest-first scan of the pool; a candidate is accepted only if its
    latency predictor passes the rank-correlation gate against the target.
    Returns None when nothing passes; the caller then trains a fresh proxy.
    With trials a list, (proxy id, rho, verdict) is appended per candidate.
    """
    if not pool.entries:
        return None
    rows = np.stack([device_embedding(e.device) for e in pool.entries] + [device_embedding(target)])
    std = rows.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    normed = (rows - rows.mean(axis=0)) / scale
    target_row = normed[-1]
    dists = np.linalg.norm(normed[:-1] - target_row, axis=1)
    order = sorted(range(len(pool.entries)), key=lambda i: (dists[i], i))
    for i in order:
        entry = pool.entries[i]
        report = check_monotonicity(
            entry.latency_model, target, probe_count, threshold, oracle, rng
        )
        if trials is not None:
            trials.append((entry.device.device_id, report.rho, report.monotone))
        if report.monotone:
            return entry
    return None
