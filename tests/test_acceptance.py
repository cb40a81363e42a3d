"""Acceptance suite: ten numbered criteria, each asserting one end-to-end
property at a stated tolerance and runtime budget. Every criterion records a
single pass/fail line; the collected lines are printed after the run.

Trained session fixtures are shared with the module tests; their build time is
charged to the first criterion that needs them, so the per-criterion budgets
account for the full cost of what they exercise.
"""

import time

import numpy as np
import pytest

from conftest import BUILD_SECONDS, record_criterion, seeded
from fleetopt.cli import cost_accounting
from fleetopt.design_space import encode, encode_rows, enumerate_all, sample_uniform
from fleetopt.device_world import (
    FleetConfig,
    MeasurementLedger,
    Oracle,
    accuracy_value,
    energy_value,
    generate_fleet,
    latency_value,
)
from fleetopt.learn_to_optimize import (
    amortized_batch_gradient,
    build_lambda_grid,
    constraint_sweep,
    infer_design,
)
from fleetopt.nn import DenseNet
from fleetopt.pipeline import run_scenario
from fleetopt.proxy_reuse import (
    ProxyEntry,
    TCache,
    bisection_optimize,
    check_monotonicity,
    inner_ga,
    match_proxy,
)
from fleetopt.scenario import scenario_from_dict
from fleetopt.search import (
    ConstraintSpec,
    SearchParams,
    brute_force_argmin,
    evolutionary_search,
)
from fleetopt.surrogate import (
    MlpRegressor,
    device_embedding,
    predicted_objective,
)

MODULE_T0 = time.monotonic()

BUDGET_S = {1: 60, 2: 60, 3: 120, 4: 60, 5: 60, 6: 180, 7: 60, 8: 300, 9: 120, 10: 600}


class Timed:
    """Wall clock for one criterion plus the builds it is first to consume."""

    def __init__(self, *builds: str):
        self.charged = sum(BUILD_SECONDS.pop(name, 0.0) for name in builds)

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0 + self.charged
        return False


def within(t: Timed, num: int) -> bool:
    return t.seconds < BUDGET_S[num]


@pytest.fixture(scope="module")
def held_synthetic():
    return generate_fleet(FleetConfig(0, 16, 0, 0), seeded(0, 11)).synthetic


@pytest.fixture(scope="module")
def monotone_bisections(reduced, fleet, reduced_models):
    """One constrained run per monotone holdout at its 40th-percentile bound,
    calibrated on the target's 20 gate probes as a run measures them;
    criteria 1 and 3 read different properties off the same eight runs."""
    t0 = time.monotonic()
    designs = [reduced.design_at(x) for x in enumerate_all(reduced)]
    accs = np.array([accuracy_value(x, reduced) for x in designs])
    runs = []
    for i, dev in enumerate(fleet.holdout_monotone):
        lats = np.array([latency_value(x, dev) for x in designs])
        bound = float(np.percentile(lats, 40.0))
        ledger = MeasurementLedger()
        oracle = Oracle(reduced, ledger)
        probes = []
        check_monotonicity(reduced_models["latency"], dev, 20, oracle, seeded(8, i), probes)
        entry = ProxyEntry(dev, reduced_models["accuracy"], reduced_models["latency"], None,
                           TCache(0.001, inner_ga(reduced, SearchParams(), 7)))
        result = bisection_optimize(dev, ConstraintSpec(bound), 0.02 * bound, entry, oracle,
                                    probes)
        runs.append(
            {
                "device": dev,
                "bound": bound,
                "result": result,
                # the bisection's own charges: the run ledger less the probes
                "charges": ledger.count(dev.device_id, "latency") - 20,
                "best_feasible_accuracy": float(accs[lats <= bound].max()),
            }
        )
    BUILD_SECONDS["monotone_bisections"] = time.monotonic() - t0
    return runs


def test_criterion_1_measurement_budget(monotone_bisections):
    with Timed("reduced_models", "monotone_bisections") as t:
        charges = [run["charges"] for run in monotone_bisections]
        ok = all(c <= 10 for c in charges)
        ok &= all(run["charges"] == run["result"].measurements for run in monotone_bisections)
    ok &= within(t, 1)
    assert record_criterion(
        1, "measurement budget", ok,
        f"bisection latency charges per device {charges} (cap 10, = ceil(log2(1001)); "
        f"each device's 20 gate probes apart); "
        f"{t.seconds:.1f}s of {BUDGET_S[1]}s",
    )


def test_criterion_2_cost_arithmetic():
    with Timed() as t:
        table = cost_accounting(5000, 30, 1)
        hours = table["baseline_hours_per_device"]
        ok = hours == 5000 * 30 / 3600 and hours >= 40.0
        ok &= table["baseline_hours_total"] == hours
    ok &= within(t, 2)
    assert record_criterion(
        2, "cost arithmetic", ok,
        f"5000 samples x 30 s = {hours:.2f} h per device (>= 40, exact); "
        f"{t.seconds:.1f}s of {BUDGET_S[2]}s",
    )


def test_criterion_3_oracle_equivalence(monotone_bisections, reduced):
    with Timed("reduced_models", "monotone_bisections") as t:
        hits = 0
        worst_gap = 0.0
        for run in monotone_bisections:
            res = run["result"]
            got = accuracy_value(reduced.design_at(res.design), reduced)
            gap = run["best_feasible_accuracy"] - got
            worst_gap = max(worst_gap, gap)
            hit = (
                res.feasible
                and res.latency <= run["bound"] * 1.02 + 1e-12
                and gap <= 0.01
            )
            hits += int(hit)
        ok = hits >= 7
    ok &= within(t, 3)
    assert record_criterion(
        3, "oracle equivalence", ok,
        f"{hits}/8 devices feasible within the 2% band and 0.01 of the exhaustive "
        f"optimum (worst accuracy gap {worst_gap:.4f}); {t.seconds:.1f}s of {BUDGET_S[3]}s",
    )


def test_criterion_4_scalarization_monotonicity(reduced, proxy):
    with Timed() as t:
        designs = [reduced.design_at(x) for x in enumerate_all(reduced)]
        accs = np.array([accuracy_value(x, reduced) for x in designs])
        lats = np.array([latency_value(x, proxy) for x in designs])
        ens = np.array([energy_value(x, proxy) for x in designs])
        s_l, s_e = float(np.median(lats)), float(np.median(ens))
        grid = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        lat_path = [float(lats[int(np.argmin(-accs + lam * lats / s_l))]) for lam in grid]
        en_path = [float(ens[int(np.argmin(-accs + lam * ens / s_e))]) for lam in grid]
        v_lat = sum(b > a + 1e-12 for a, b in zip(lat_path, lat_path[1:]))
        v_en = sum(b > a + 1e-12 for a, b in zip(en_path, en_path[1:]))
        ok = v_lat == 0 and v_en == 0
    ok &= within(t, 4)
    assert record_criterion(
        4, "scalarization monotonicity", ok,
        f"argmin latency/energy non-increasing over 10-point weight grids "
        f"({v_lat} + {v_en} violations); {t.seconds:.1f}s of {BUDGET_S[4]}s",
    )


def test_criterion_5_detector_separation(dspace, fleet, proxy, reduced_models,
                                          proxy_latency_default):
    with Timed("proxy_latency_default") as t:
        rhos_m, rhos_a = [], []
        for dev in fleet.holdout_monotone:
            rhos_m.append(check_monotonicity(
                proxy_latency_default, dev, 40, Oracle(dspace, MeasurementLedger()), seeded(5, 0),
            ))
        for dev in fleet.holdout_adversarial:
            rhos_a.append(check_monotonicity(
                proxy_latency_default, dev, 40, Oracle(dspace, MeasurementLedger()), seeded(5, 0),
            ))
        ok = min(rhos_m) >= 0.95 and max(rhos_a) <= 0.80

        def fresh_pool():
            return [ProxyEntry(proxy, reduced_models["accuracy"], proxy_latency_default, None,
                               TCache(0.001, inner_ga(dspace, SearchParams(), 0)))]

        match_ok = 0
        for s in range(10):
            good = all(
                match_proxy(fresh_pool(), dev, 0.9, Oracle(dspace, MeasurementLedger()),
                            seeded(6, s), 40) is not None
                for dev in fleet.holdout_monotone
            ) and all(
                match_proxy(fresh_pool(), dev, 0.9, Oracle(dspace, MeasurementLedger()),
                            seeded(6, s), 40) is None
                for dev in fleet.holdout_adversarial
            )
            match_ok += int(good)
        ok &= match_ok == 10
    ok &= within(t, 5)
    assert record_criterion(
        5, "detector separation", ok,
        f"rho >= {min(rhos_m):.3f} on monotone, <= {max(rhos_a):.3f} on adversarial "
        f"(40 probes); reuse-or-correct verdicts right in {match_ok}/10 seeded runs; "
        f"{t.seconds:.1f}s of {BUDGET_S[5]}s",
    )


def test_criterion_6_predictor_fidelity(dspace, proxy, proxy_latency_default,
                                        stage1_bundle, held_synthetic):
    with Timed("proxy_latency_default", "stage1_bundle") as t:
        rng = seeded(0, 12)
        probes = [sample_uniform(dspace, rng) for _ in range(200)]
        errs_specific = [
            abs(proxy_latency_default.predict(encode(x, dspace))
                - latency_value(dspace.design_at(x), proxy))
            / latency_value(dspace.design_at(x), proxy)
            for x in probes
        ]
        med_specific = float(np.median(errs_specific))

        rng = seeded(0, 13)
        probes_aware = [sample_uniform(dspace, rng) for _ in range(25)]
        pooled = []
        for dev in held_synthetic:
            emb = device_embedding(dev)
            for x in probes_aware:
                pred = stage1_bundle.latency.predict(np.concatenate([encode(x, dspace), emb]))
                true = latency_value(dspace.design_at(x), dev)
                pooled.append(abs(pred - true) / true)
        med_aware = float(np.median(pooled))
        ok = med_specific <= 0.10 and med_aware <= 0.15
    ok &= within(t, 6)
    assert record_criterion(
        6, "predictor fidelity", ok,
        f"median relative error {med_specific:.3f} on held-out designs (cap 0.10), "
        f"{med_aware:.3f} on 16 held-out devices (cap 0.15); "
        f"{t.seconds:.1f}s of {BUDGET_S[6]}s",
    )


def _rel_gap(analytic, numeric):
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))


def _flat(wg, bg):
    return np.concatenate([np.concatenate([W.ravel(), b.ravel()]) for W, b in zip(wg, bg)])


def _fd_theta(fn, net, h=1e-6):
    theta = net.parameter_vector()
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fn(up) - fn(dn)) / (2 * h)
    return out


def _random_regressor(rng, in_dim, takes_device):
    return MlpRegressor(
        net=DenseNet([in_dim, int(rng.integers(3, 7)), 1], rng),
        in_mean=rng.normal(size=in_dim),
        in_scale=rng.uniform(0.5, 2.0, size=in_dim),
        out_mean=float(rng.normal()),
        out_scale=float(rng.uniform(0.5, 2.0)),
        takes_device=takes_device,
        objective_scale=float(rng.uniform(0.5, 2.0)),
    )


def test_criterion_7_gradient_correctness():
    with Timed() as t:
        worst_weight = worst_input = 0.0
        for k in range(50):
            rng = np.random.default_rng(100 + k)
            sizes = [int(rng.integers(2, 6)), int(rng.integers(3, 8)), int(rng.integers(2, 6)), 1]
            net = DenseNet(sizes, rng)
            X = rng.normal(size=(int(rng.integers(2, 6)), sizes[0]))

            def loss_at(theta, net=net, X=X):
                probe = net.copy()
                probe.set_parameter_vector(theta)
                return float(probe.forward(X).sum())

            out, cache = net.forward_cached(X)
            wg, bg, _ = net.backward(cache, np.ones_like(out))
            worst_weight = max(worst_weight, _rel_gap(_flat(wg, bg), _fd_theta(loss_at, net)))

            x0 = X[0]
            numeric = np.zeros_like(x0)
            for i in range(x0.size):
                up, dn = x0.copy(), x0.copy()
                up[i] += 1e-6
                dn[i] -= 1e-6
                numeric[i] = (
                    float(net.forward(up[None])[0, 0]) - float(net.forward(dn[None])[0, 0])
                ) / 2e-6
            worst_input = max(worst_input, _rel_gap(net.input_gradient(x0), numeric))

        worst_composed = 0.0
        for k in range(50):
            rng = np.random.default_rng(200 + k)
            width, emb_dim, batch = 5, 4, 3
            acc = _random_regressor(rng, width, False)
            en = _random_regressor(rng, width + emb_dim, True)
            lat = _random_regressor(rng, width + emb_dim, True)
            net = DenseNet([6, int(rng.integers(4, 9)), width], rng,
                           output_activation="logistic")
            Xn = rng.normal(size=(batch, 6))
            embeddings = rng.normal(size=(batch, emb_dim))
            lams = rng.uniform(0, 1, size=(batch, 2))

            def f_at(theta, net=net):
                probe = net.copy()
                probe.set_parameter_vector(theta)
                f, _, _ = amortized_batch_gradient(probe, Xn, embeddings, lams, acc, en, lat)
                return f

            _, wg, bg = amortized_batch_gradient(net, Xn, embeddings, lams, acc, en, lat)
            worst_composed = max(worst_composed, _rel_gap(_flat(wg, bg), _fd_theta(f_at, net)))

        ok = worst_weight <= 1e-5 and worst_input <= 1e-5 and worst_composed <= 1e-4
    ok &= within(t, 7)
    assert record_criterion(
        7, "gradient correctness", ok,
        f"worst relative gap vs central differences: weights {worst_weight:.1e}, "
        f"inputs {worst_input:.1e} (cap 1e-5), composed {worst_composed:.1e} (cap 1e-4), "
        f"50 instances each; {t.seconds:.1f}s of {BUDGET_S[7]}s",
    )


def test_criterion_8_amortization_quality(dspace, stage1_bundle, method2_net,
                                          held_synthetic):
    with Timed("stage1_bundle", "method2_net") as t:
        lams = build_lambda_grid(2, 1.0)
        ledger = MeasurementLedger()
        oracle = Oracle(dspace, ledger)
        regrets = []
        for di, dev in enumerate(held_synthetic):
            emb = device_embedding(dev)
            for li, lam in enumerate(lams):
                def f_hat(X, emb=emb, lam=lam):
                    return predicted_objective(
                        encode_rows(X, dspace), emb, lam, *stage1_bundle.models())

                inferred = infer_design(method2_net, dev, lam, dspace)
                searched = evolutionary_search(
                    f_hat, dspace, SearchParams(), np.random.default_rng(1000 + 7 * di + li),
                )
                f_inferred, f_searched = f_hat([inferred, searched]).tolist()
                regrets.append(max(0.0, f_inferred - f_searched) / abs(f_searched))
        median_regret = float(np.median(regrets))
        inference_charges = ledger.total()

        spec = ConstraintSpec(latency_bound=5.0, energy_bound=500.0)
        [sweep] = constraint_sweep(
            method2_net, [(held_synthetic[0], spec)],
            stage1_bundle.accuracy, stage1_bundle.energy, stage1_bundle.latency,
            build_lambda_grid(3, 1.0), oracle,
        )
        validation_charges = ledger.total()
        params = SearchParams()
        ratio = params.population * params.generations / 1
        ok = (
            median_regret <= 0.05
            and inference_charges == 0
            and validation_charges <= 2
            and None not in (sweep.latency, sweep.energy)
            and ratio >= 100
        )
    ok &= within(t, 8)
    assert record_criterion(
        8, "amortization quality", ok,
        f"median objective regret {median_regret:.3f} vs search over 16 devices x 4 "
        f"weights (cap 0.05); {inference_charges} oracle charges at inference, "
        f"{validation_charges} to validate (cap 2); {ratio:.0f}x fewer objective "
        f"evaluations; {t.seconds:.1f}s of {BUDGET_S[8]}s",
    )


def test_criterion_9_search_soundness(reduced, reduced_models):
    with Timed("reduced_models") as t:
        lam = np.array([0.2, 0.2])

        def objective(X):
            return predicted_objective(
                encode_rows(X, reduced), None, lam,
                reduced_models["accuracy"], reduced_models["energy"],
                reduced_models["latency"],
            )

        best = brute_force_argmin(objective, reduced)
        hits = sum(
            evolutionary_search(objective, reduced, SearchParams(),
                                np.random.default_rng(s)) == best
            for s in range(100)
        )
        ok = hits >= 95
    ok &= within(t, 9)
    assert record_criterion(
        9, "search soundness", ok,
        f"evolutionary search (32 x 30) matched the brute-force argmin in {hits}/100 "
        f"seeds; {t.seconds:.1f}s of {BUDGET_S[9]}s",
    )


def test_criterion_10_determinism():
    with Timed() as t:
        proxy_cfg = {
            "seed": 23,
            "approach": "proxy",
            "space": "reduced",
            "fleet": {"n_training": 2, "n_synthetic": 2,
                      "n_holdout_monotone": 2, "n_holdout_adversarial": 1},
            "predictor": {"samples_per_device": 96, "epochs": 300,
                          "batch_size": 32, "hidden": [32]},
            "search": {"population": 24, "generations": 20},
        }
        amortized_cfg = dict(
            proxy_cfg, seed=29, approach="amortized",
            lambda_grid={"count_per_axis": 2, "max_lambda": 1.0},
            optimize={"optimizer_hidden": [24, 24], "optimizer_epochs": 300},
        )
        identical = []
        for cfg in (proxy_cfg, amortized_cfg):
            scenario = scenario_from_dict(cfg)
            first, second = run_scenario(scenario), run_scenario(scenario)
            identical.append(
                first.decision_dict() == second.decision_dict()
                and first.ledger_csv == second.ledger_csv
            )
        ok = all(identical)
    total = time.monotonic() - MODULE_T0
    ok &= total < BUDGET_S[10]
    assert record_criterion(
        10, "determinism", ok,
        f"same-seed reruns bit-identical on both recorded scenarios "
        f"(decisions and ledgers, {identical}); acceptance total {total:.0f}s "
        f"of {BUDGET_S[10]}s",
    )
