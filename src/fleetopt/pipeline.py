"""End-to-end runs: fleet, predictors, per-device optimization, reporting.

Phases draw from independently spawned random streams, so skipping one phase
(e.g. loading persisted predictors instead of training) cannot shift the
decisions of another. Everything the run decides lands in a RunReport whose
decision_dict() is bit-stable for a given (scenario, seed); wall time is kept
out of it on purpose.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .design_space import enumerate_all, sample_uniform
from .device_world import (
    Fleet,
    MeasurementLedger,
    Oracle,
    generate_fleet,
)
from .learn_to_optimize import (
    OptimizerNetwork,
    build_lambda_grid,
    constraint_sweep,
    load_optimizer,
    save_optimizer,
    train_method2,
)
from .proxy_reuse import (
    ProxyEntry,
    ProxyPool,
    TCache,
    bisection_optimize,
    grid_optimize_2d,
    match_proxy,
)
from .scenario import ConfigError, Scenario
from .search import ConstraintSpec
from .surrogate import (
    MlpRegressor,
    load_model,
    save_model,
    train_accuracy_predictor,
    train_device_specific_predictor,
    train_stage1,
    iterative_fit,
)


@dataclass
class RunReport:
    scenario: dict
    fleet: dict
    bounds: dict
    rows: list[dict]
    stage_counts: dict
    ledger: dict
    calibration_ledger: dict
    cost_table: dict
    infeasible_count: int
    ledger_csv: str
    wall_time_s: float = 0.0

    def decision_dict(self) -> dict:
        """Everything except timing; two same-seed runs must agree on this."""
        return {
            "scenario": self.scenario,
            "fleet": self.fleet,
            "bounds": self.bounds,
            "rows": self.rows,
            "stage_counts": self.stage_counts,
            "ledger": self.ledger,
            "calibration_ledger": self.calibration_ledger,
            "cost_table": self.cost_table,
            "infeasible_count": self.infeasible_count,
        }

    def to_dict(self) -> dict:
        out = self.decision_dict()
        out["wall_time_s"] = self.wall_time_s
        return out


def cost_accounting(
    samples_per_device: int,
    seconds_per_measurement: float,
    device_count: int,
    per_device_counts: dict[str, int] | None = None,
) -> dict:
    """Hours of measurement time: the per-device predictor-training baseline
    versus what the ledger says this run actually spent per device."""
    if samples_per_device <= 0 or seconds_per_measurement <= 0:
        raise ValueError("samples and seconds must be positive")
    if device_count < 0:
        raise ValueError("device_count must be >= 0")
    per_device_hours = samples_per_device * seconds_per_measurement / 3600.0
    table = {
        "baseline_samples_per_device": samples_per_device,
        "seconds_per_measurement": seconds_per_measurement,
        "device_count": device_count,
        "baseline_hours_per_device": per_device_hours,
        "baseline_hours_total": per_device_hours * device_count,
        "devices": [],
    }
    if device_count == 0:
        return table
    if per_device_counts:
        for device_id in sorted(per_device_counts):
            count = per_device_counts[device_id]
            hours = count * seconds_per_measurement / 3600.0
            table["devices"].append(
                {
                    "device_id": device_id,
                    "measurements": count,
                    "hours": hours,
                    "speedup_vs_baseline": (samples_per_device / count) if count else None,
                }
            )
    return table


def _percentile_bounds(scenario: Scenario, fleet: Fleet) -> tuple[dict, MeasurementLedger]:
    """Per-target constraint bounds from metric percentiles, measured against a
    calibration ledger kept separate from the optimization ledger: the bound is
    part of the problem statement, not of the solving cost."""
    cal_ledger = MeasurementLedger()
    cal_oracle = Oracle(scenario.space, cal_ledger)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 101]))
    if scenario.space.cardinality <= 256:
        probes = enumerate_all(scenario.space)
    else:
        probes = [sample_uniform(scenario.space, rng) for _ in range(128)]
    bounds: dict[str, ConstraintSpec] = {}
    targets = list(fleet.holdout_monotone) + list(fleet.holdout_adversarial)
    for dev in targets:
        lats = [cal_oracle.latency(x, dev) for x in probes]
        lat_bound = float(np.percentile(lats, scenario.optimize.latency_percentile))
        en_bound = None
        if scenario.optimize.energy_percentile is not None:
            ens = [cal_oracle.energy(x, dev) for x in probes]
            en_bound = float(np.percentile(ens, scenario.optimize.energy_percentile))
        bounds[dev.device_id] = ConstraintSpec(latency_bound=lat_bound, energy_bound=en_bound)
    return bounds, cal_ledger


def _bounds_dict(bounds: dict) -> dict:
    return {
        dev_id: {"latency": spec.latency_bound, "energy": spec.energy_bound}
        for dev_id, spec in sorted(bounds.items())
    }


def _design_row(space, x) -> list[int]:
    return [int(i) for i in space.indices_of(x)]


def _load_models(models_dir: str | None, names: list[str]) -> list:
    """The models a training run persisted under models_dir, in names order."""
    if models_dir is None:
        raise ConfigError("skip-training needs an output directory with saved models")
    try:
        return [
            (load_optimizer if name == "optimizer.json" else load_model)(
                os.path.join(models_dir, name))
            for name in names
        ]
    except FileNotFoundError as e:
        raise ConfigError(f"skip-training: missing model file ({e.filename})") from None


def _run_proxy(scenario: Scenario, fleet: Fleet, targets: list, oracle: Oracle, bounds: dict,
               models_dir: str | None, skip_training: bool, artifacts: dict):
    space = scenario.space
    need_energy = scenario.optimize.energy_percentile is not None
    metrics = ["latency", "energy"] if need_energy else ["latency"]
    names = ["accuracy.json"] + [f"{metric}_proxy.json" for metric in metrics]
    rng_train = np.random.default_rng(np.random.SeedSequence([scenario.seed, 1]))
    if skip_training:
        models = _load_models(models_dir, names)
    else:
        models = [train_accuracy_predictor(
            space, scenario.samples_per_device, oracle, rng_train,
            scenario.hyper, scenario.hidden,
        )] + [
            train_device_specific_predictor(
                metric, fleet.proxy, scenario.samples_per_device, oracle, rng_train,
                scenario.hyper, scenario.hidden,
            )
            for metric in metrics
        ]
    artifacts["models"] = dict(zip(names, models))
    acc_model, lat_model = models[:2]
    en_model = models[2] if need_energy else None

    pool = ProxyPool()
    pool.add(ProxyEntry(fleet.proxy, acc_model, lat_model, en_model, TCache(scenario.granularity)))
    rng_opt = np.random.default_rng(np.random.SeedSequence([scenario.seed, 2]))
    rows = []
    traces = {}
    for family, target in targets:
        lat_before = oracle.ledger.count(target.device_id, "latency")
        trials: list = []
        entry = match_proxy(
            pool, target, scenario.optimize.monotonicity_threshold, oracle, rng_opt,
            scenario.optimize.probe_count, trials=trials,
        )
        probes_charged = oracle.ledger.count(target.device_id, "latency") - lat_before
        reused = entry is not None
        if entry is None:
            new_lat = train_device_specific_predictor(
                "latency", target, scenario.samples_per_device, oracle, rng_opt,
                scenario.hyper, scenario.hidden,
            )
            new_en = None
            if need_energy:
                new_en = train_device_specific_predictor(
                    "energy", target, scenario.samples_per_device, oracle, rng_opt,
                    scenario.hyper, scenario.hidden,
                )
            entry = ProxyEntry(target, acc_model, new_lat, new_en, TCache(scenario.granularity))
            pool.add(entry)
        spec = bounds[target.device_id]
        before = oracle.ledger.count(target.device_id, "latency")
        if spec.energy_bound is not None and entry.energy_model is not None:
            result = grid_optimize_2d(
                target, spec.latency_bound, spec.energy_bound,
                scenario.bisection_settings(spec.latency_bound),
                entry.accuracy_model, entry.latency_model, entry.energy_model,
                oracle, space, scenario.search,
            )
            t_report = list(result.t)
            energy = result.energy
        else:
            result = bisection_optimize(
                target, spec.latency_bound,
                scenario.bisection_settings(spec.latency_bound),
                entry.cache, entry.accuracy_model, entry.latency_model,
                oracle, space, scenario.search,
            )
            t_report = result.t_star
            energy = None
        rows.append(
            {
                "device_id": target.device_id,
                "family": family,
                "proxy_used": entry.device.device_id,
                "proxy_reused": reused,
                "match_trials": [
                    {"proxy": pid, "rho": float(r), "monotone": bool(m)} for pid, r, m in trials
                ],
                "probe_measurements": probes_charged,
                "optimize_measurements": result.measurements,
                "latency_bound": spec.latency_bound,
                "energy_bound": spec.energy_bound,
                "design": _design_row(space, result.design),
                "t": t_report,
                "feasible": bool(result.feasible),
                "measured_latency": float(result.latency),
                "measured_energy": None if energy is None else float(energy),
                "target_latency_charges": oracle.ledger.count(target.device_id, "latency") - before,
            }
        )
        traces[f"trace_{target.device_id}.csv"] = result.trace
    artifacts["traces"] = traces
    return rows


def _run_amortized(scenario: Scenario, fleet: Fleet, targets: list, oracle: Oracle,
                   bounds: dict, models_dir: str | None, skip_training: bool, artifacts: dict):
    space = scenario.space
    names = ["accuracy.json", "energy_fleet.json", "latency_fleet.json", "optimizer.json"]
    lambda_grid = build_lambda_grid(scenario.lambda_count, scenario.lambda_max)
    rng_train = np.random.default_rng(np.random.SeedSequence([scenario.seed, 1]))
    if skip_training:
        acc_model, en_model, lat_model, optnet = _load_models(models_dir, names)
    else:
        bundle = train_stage1(
            space, list(fleet.training_real), scenario.samples_per_device, oracle, rng_train,
            scenario.hyper, scenario.hidden,
        )
        if scenario.optimize.exploration_rounds > 0:
            bundle = iterative_fit(
                bundle, scenario.optimize.exploration_rounds,
                scenario.optimize.explore_size, oracle, rng_train,
            )
        acc_model, en_model, lat_model = bundle.accuracy, bundle.energy, bundle.latency
        train_devices = list(fleet.training_real) + list(fleet.synthetic)
        inputs = [(d, lam) for d in train_devices for lam in lambda_grid]
        opt_hyper = dataclasses.replace(scenario.hyper, epochs=scenario.optimize.optimizer_epochs)
        optnet = train_method2(
            inputs, acc_model, en_model, lat_model,
            scenario.optimize.optimizer_hidden, opt_hyper, scenario.optimize.mu, rng_train,
        )
    artifacts["models"] = dict(zip(names, (acc_model, en_model, lat_model, optnet)))
    rows = []
    sweeps = {}
    for family, target in targets:
        spec = bounds[target.device_id]
        before_lat = oracle.ledger.count(target.device_id, "latency")
        before_en = oracle.ledger.count(target.device_id, "energy")
        sweep = constraint_sweep(
            optnet, target, spec, acc_model, en_model, lat_model,
            lambda_grid, space, oracle,
        )
        charges = (
            oracle.ledger.count(target.device_id, "latency") - before_lat
            + oracle.ledger.count(target.device_id, "energy") - before_en
        )
        oracle_feasible = True
        if spec.latency_bound is not None:
            oracle_feasible &= sweep.validation["latency"] <= spec.latency_bound
        if spec.energy_bound is not None:
            oracle_feasible &= sweep.validation["energy"] <= spec.energy_bound
        rows.append(
            {
                "device_id": target.device_id,
                "family": family,
                "latency_bound": spec.latency_bound,
                "energy_bound": spec.energy_bound,
                "design": _design_row(space, sweep.design),
                "lambda": [sweep.weights.lambda1, sweep.weights.lambda2],
                "feasible": bool(sweep.feasible),
                "oracle_feasible": bool(oracle_feasible),
                "predicted_accuracy": float(sweep.predicted_accuracy),
                "validation": {k: float(v) for k, v in sorted(sweep.validation.items())},
                "validation_measurements": charges,
            }
        )
        sweeps[f"sweep_{target.device_id}.csv"] = sweep.rows
    artifacts["sweeps"] = sweeps
    return rows


def run_scenario(
    scenario: Scenario,
    out_dir: str | None = None,
    skip_training: bool = False,
) -> RunReport:
    """Execute a scenario end to end; write artifacts when out_dir is given.

    On failure any files already written under out_dir are removed, so a
    directory never holds a half-report.
    """
    started = time.monotonic()
    rng_fleet = np.random.default_rng(np.random.SeedSequence([scenario.seed, 0]))
    fleet = generate_fleet(scenario.fleet, rng_fleet)
    ledger = MeasurementLedger()
    oracle = Oracle(scenario.space, ledger)
    bounds, cal_ledger = _percentile_bounds(scenario, fleet)
    models_dir = os.path.join(out_dir, "models") if out_dir else None

    targets = [("monotone", d) for d in fleet.holdout_monotone] + [
        ("adversarial", d) for d in fleet.holdout_adversarial
    ]
    artifacts: dict = {}
    run = _run_proxy if scenario.approach == "proxy" else _run_amortized
    rows = run(scenario, fleet, targets, oracle, bounds, models_dir, skip_training, artifacts)

    target_ids = [d.device_id for _, d in targets]
    per_target = {
        dev_id: ledger.count(dev_id, "latency") + ledger.count(dev_id, "energy")
        for dev_id in target_ids
    }
    cost = cost_accounting(5000, 30.0, len(target_ids), per_target)
    stage_counts = {
        "total_latency": ledger.total("latency"),
        "total_energy": ledger.total("energy"),
        "total_accuracy": ledger.accuracy_count,
        "per_target": {k: per_target[k] for k in sorted(per_target)},
    }
    infeasible = sum(1 for r in rows if not r["feasible"])
    report = RunReport(
        scenario={
            "seed": scenario.seed,
            "approach": scenario.approach,
            "space_cardinality": scenario.space.cardinality,
            "samples_per_device": scenario.samples_per_device,
            "latency_percentile": scenario.optimize.latency_percentile,
            "energy_percentile": scenario.optimize.energy_percentile,
        },
        fleet=fleet.to_dict(),
        bounds=_bounds_dict(bounds),
        rows=rows,
        stage_counts=stage_counts,
        ledger=ledger.snapshot(),
        calibration_ledger=cal_ledger.snapshot(),
        cost_table=cost,
        infeasible_count=infeasible,
        ledger_csv=ledger.to_csv(),
        wall_time_s=time.monotonic() - started,
    )
    if out_dir is not None:
        export_report(report, out_dir, artifacts, persist_models=not skip_training)
    return report


def _rows_to_csv(rows, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buf.getvalue()


def export_report(report: RunReport, out_dir: str, artifacts: dict | None = None,
                  persist_models: bool = True) -> list[str]:
    """Write report.json plus CSV/JSON side files; returns written paths.

    Any exception rolls back every file this call created.
    """
    written: list[str] = []
    artifacts = artifacts or {}
    try:
        os.makedirs(out_dir, exist_ok=True)

        def emit(rel: str, content: str) -> None:
            path = os.path.join(out_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(content)
            written.append(path)

        emit("report.json", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        emit("ledger.csv", report.ledger_csv)
        emit("fleet.json", json.dumps(report.fleet, indent=2, sort_keys=True) + "\n")
        if persist_models:
            for name, model in artifacts.get("models", {}).items():
                path = os.path.join(out_dir, "models", name)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                if isinstance(model, (MlpRegressor,)):
                    save_model(model, path)
                elif isinstance(model, OptimizerNetwork):
                    save_optimizer(model, path)
                written.append(path)
        for name, trace in artifacts.get("traces", {}).items():
            emit(
                os.path.join("traces", name),
                _rows_to_csv(trace, ["iteration", "t", "measured_latency", "bound", "verdict"])
                if trace and "iteration" in trace[0]
                else _rows_to_csv(trace, ["level", "t1", "t2", "latency", "energy", "feasible"]),
            )
        for name, rows in artifacts.get("sweeps", {}).items():
            emit(
                os.path.join("traces", name),
                _rows_to_csv(
                    rows,
                    ["lambda1", "lambda2", "predicted_feasible", "predicted_accuracy", "chosen"],
                ),
            )
        return written
    except Exception:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
