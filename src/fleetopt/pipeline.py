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
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

from .design_space import enumerate_all, sample_rows
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
    optimizer_inputs,
    train_method2,
)
from .proxy_reuse import (
    ProxyEntry,
    TCache,
    bisection_optimize,
    corrected_entry,
    grid_optimize_2d,
    inner_ga,
    match_proxy,
)
from .scenario import ConfigError, Scenario
from .search import (
    CALIBRATION_STREAM,
    FLEET_STREAM,
    PROXY_STREAM,
    TRAINING_STREAM,
    ConstraintSpec,
    stream,
)
from .surrogate import (
    accuracy_fit,
    device_embedding,
    device_specific_fit,
    fit_lockstep,
    load_model,
    save_model,
    # bench/tracer.py wraps these three bindings; pipeline does not call them
    iterative_fit,  # noqa: F401
    train_accuracy_predictor,  # noqa: F401
    train_device_specific_predictor,  # noqa: F401
    train_stage1,
)


@dataclass
class RunReport:
    scenario: dict
    fleet: dict
    rows: list[dict]
    stage_counts: dict
    ledger: dict
    calibration_ledger: dict
    infeasible_count: int
    ledger_csv: str
    wall_time_s: float = 0.0

    def decision_dict(self) -> dict:
        """Everything except timing; two same-seed runs must agree on this."""
        return {
            "scenario": self.scenario,
            "fleet": self.fleet,
            "rows": self.rows,
            "stage_counts": self.stage_counts,
            "ledger": self.ledger,
            "calibration_ledger": self.calibration_ledger,
            "infeasible_count": self.infeasible_count,
        }

    def to_dict(self) -> dict:
        out = self.decision_dict()
        out["wall_time_s"] = self.wall_time_s
        return out


def _percentile_bounds(scenario: Scenario, fleet: Fleet) -> tuple[dict, MeasurementLedger]:
    """Per-target constraint bounds from metric percentiles, measured against a
    calibration ledger kept separate from the optimization ledger: the bound is
    part of the problem statement, not of the solving cost."""
    space = scenario.space
    cal_ledger = MeasurementLedger()
    cal_oracle = Oracle(space, cal_ledger)
    rng = stream(scenario.seed, CALIBRATION_STREAM)
    if space.cardinality <= 256:
        probes = enumerate_all(space)
    else:
        probes = sample_rows(space, rng, 128)
    targets = list(fleet.holdout_monotone) + list(fleet.holdout_adversarial)
    opt = scenario.optimize
    if opt.energy_percentile is None:
        lat, en = cal_oracle.latency_rows(probes, targets), [None] * len(targets)
    else:
        lat, en = cal_oracle.latency_energy_rows(probes, targets)
        en = np.percentile(en, opt.energy_percentile, axis=0).tolist()
    lat = np.percentile(lat, opt.latency_percentile, axis=0).tolist()
    bounds = {d.device_id: ConstraintSpec(b, e) for d, b, e in zip(targets, lat, en)}
    return bounds, cal_ledger


def _load_models(models_dir: str | None, names: list[str], scenario: Scenario,
                 fleet: Fleet) -> list:
    """The models a training run persisted under models_dir, in names order,
    each checked to fit its slot and the scenario's space: a predictor's metric
    and takes_device are its file name's, its inputs the design encoding (plus
    the device embedding if device-aware), an optimizer's outputs the encoding."""
    if models_dir is None:
        raise ConfigError("skip-training needs an output directory with saved models")
    encoding = scenario.space.encoding_width
    embedding = device_embedding(fleet.proxy).size
    models = []
    for name in names:
        path = os.path.join(models_dir, name)
        try:
            model = (load_optimizer if name == "optimizer.json" else load_model)(path)
        except FileNotFoundError:
            raise ConfigError(f"skip-training: missing model file ({path})") from None
        except OSError as e:  # a directory, no permission
            raise ConfigError(f"skip-training: cannot read {path}: {e.strerror}") from None
        except (ValueError, KeyError, TypeError) as e:  # bad JSON, key, value or shape
            raise ConfigError(f"skip-training: corrupt model file ({path}): {e!r}") from None
        if isinstance(model, OptimizerNetwork):
            width, expected, side = model.net.output_dim, encoding, "outputs"
        else:
            # the slot is accuracy.json, <metric>_proxy.json or <metric>_fleet.json
            metric, _, kind = name.removesuffix(".json").partition("_")
            if (model.metric, model.takes_device) != (metric, kind == "fleet"):
                raise ConfigError(
                    f"skip-training: model file ({path}) holds the predictor of metric "
                    f"{model.metric!r} with takes_device {model.takes_device}; its slot needs "
                    f"{metric!r} with takes_device {kind == 'fleet'}"
                )
            width, side = model.input_dim, "inputs"
            expected = encoding + (embedding if model.takes_device else 0)
        if width != expected:
            raise ConfigError(
                f"skip-training: model file ({path}) has {width} {side}, this scenario's "
                f"space needs {expected}; it was trained for another space"
            )
        models.append(model)
    return models


def _proxy_reuse(scenario: Scenario, fleet: Fleet, oracle: Oracle):
    """Model file names, train and solver of proxy reuse: predictors trained on
    the proxy, a rank gate per target that reuses a pool entry or corrects the
    nearest one on the gate's probes, then bisection on t calibrated on the
    same probes (the 2-D grid under an energy bound)."""
    metrics = ["latency"] if scenario.optimize.energy_percentile is None else ["latency", "energy"]
    names = ["accuracy.json"] + [f"{metric}_proxy.json" for metric in metrics]

    n, hyper, hidden = scenario.samples_per_device, scenario.hyper, scenario.hidden

    def train(rng) -> list:
        # one shape for every fit, so they train as one stack
        return fit_lockstep([accuracy_fit(n, oracle, rng, hyper, hidden)] + [
            device_specific_fit(metric, fleet.proxy, n, oracle, rng, hyper, hidden)
            for metric in metrics])

    def solver(acc_model, latency_model, energy_model=None):
        minimize = inner_ga(scenario.space, scenario.search, scenario.seed)
        pool = [ProxyEntry(fleet.proxy, acc_model, latency_model, energy_model,
                           TCache(scenario.granularity, minimize))]
        rng_opt = stream(scenario.seed, PROXY_STREAM)

        def solve_one(target, spec: ConstraintSpec):
            trials, probes = [], []
            entry = match_proxy(
                pool, target, scenario.optimize.monotonicity_threshold, oracle, rng_opt,
                scenario.optimize.probe_count, trials=trials, probes=probes,
            )
            reused = entry is not None
            if entry is None:  # the first entry tried is the nearest
                nearest = next(e for e in pool if e.device.device_id == trials[0][0])
                entry = corrected_entry(nearest, target, probes, oracle)
                pool.append(entry)
            delta = scenario.delta_fraction * spec.latency_bound
            result = (bisection_optimize(target, spec, delta, entry, oracle, probes)
                      if spec.energy_bound is None
                      else grid_optimize_2d(target, spec, entry, oracle))
            return result, {
                "proxy_used": entry.device.device_id,
                "proxy_reused": reused,
                "match_trials": [
                    {"proxy": pid, "rho": r, "monotone": m, "probes": len(y)}
                    for (pid, r, m), (_, y) in zip(trials, probes, strict=True)
                ],
                "probe_measurements": sum(len(y) for _, y in probes),
                "optimize_measurements": result.measurements,
                "t": list(result.t),
            }

        def solve(targets):
            return [solve_one(target, spec) for target, spec in targets]

        return solve

    return names, train, solver


def _amortized(scenario: Scenario, fleet: Fleet, oracle: Oracle):
    """Model file names, train and solver of the amortized optimizer: device-aware
    predictors and a Method-2 network trained once, then one lambda sweep of
    inferences over all targets, each target's chosen design measured once per
    bound."""
    names = ["accuracy.json", "energy_fleet.json", "latency_fleet.json", "optimizer.json"]
    lambda_grid = build_lambda_grid(scenario.lambda_count, scenario.lambda_max)

    def train(rng) -> list:
        bundle = train_stage1(
            list(fleet.training_real), scenario.samples_per_device, oracle, rng,
            scenario.hyper, scenario.hidden,
        )
        train_devices = list(fleet.training_real) + list(fleet.synthetic)
        inputs = optimizer_inputs(train_devices, lambda_grid)
        opt_hyper = dataclasses.replace(scenario.hyper, epochs=scenario.optimize.optimizer_epochs)
        optnet = train_method2(
            inputs.reshape(-1, inputs.shape[-1]), *bundle,
            scenario.optimize.optimizer_hidden, opt_hyper, scenario.optimize.mu, rng,
        )
        return [*bundle, optnet]

    def solver(acc_model, en_model, lat_model, optnet):
        def solve(targets):
            sweeps = constraint_sweep(
                optnet, targets, acc_model, en_model, lat_model, lambda_grid, oracle,
            )
            return [(sweep, {
                "lambda": list(sweep.lam),
                "predicted_feasible": sweep.predicted_feasible,
                "predicted_accuracy": sweep.predicted_accuracy,
                "validation_measurements": sweep.measurements,
            }) for sweep in sweeps]

        return solve

    return names, train, solver


def draw_fleet(scenario: Scenario) -> Fleet:
    """The scenario's device fleet, as every run of it draws it."""
    return generate_fleet(scenario.fleet, stream(scenario.seed, FLEET_STREAM))


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
    fleet = draw_fleet(scenario)
    ledger = MeasurementLedger()
    oracle = Oracle(scenario.space, ledger)
    bounds, cal_ledger = _percentile_bounds(scenario, fleet)

    approach = _proxy_reuse if scenario.approach == "proxy" else _amortized
    names, train, solver = approach(scenario, fleet, oracle)
    if skip_training:
        models_dir = os.path.join(out_dir, "models") if out_dir else None
        models = _load_models(models_dir, names, scenario, fleet)
    else:
        models = train(stream(scenario.seed, TRAINING_STREAM))
    solve = solver(*models)
    targets = [("monotone", d) for d in fleet.holdout_monotone] + [
        ("adversarial", d) for d in fleet.holdout_adversarial
    ]
    # per target: its solver's record and the approach's own row fields
    solved = solve([(target, bounds[target.device_id]) for _, target in targets])
    rows, trace = [], []
    for (family, target), (record, fields) in zip(targets, solved):
        spec = bounds[target.device_id]
        rows.append({
            "device_id": target.device_id,
            "family": family,
            "latency_bound": spec.latency_bound,
            "energy_bound": spec.energy_bound,
            "design": list(record.design),
            "feasible": record.feasible,
            "measured_latency": record.latency,
            "measured_energy": record.energy,
            **fields,
        })
        trace += record.trace

    stage_counts = {
        "total_latency": ledger.total("latency"),
        "total_energy": ledger.total("energy"),
        "total_accuracy": ledger.accuracy_count,
        "per_target": {d: ledger.count(d, "latency") + ledger.count(d, "energy")
                       for d in sorted(bounds)},
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
        rows=rows,
        stage_counts=stage_counts,
        ledger=ledger.snapshot(),
        calibration_ledger=cal_ledger.snapshot(),
        infeasible_count=infeasible,
        ledger_csv=ledger.to_csv(),
        wall_time_s=time.monotonic() - started,
    )
    if out_dir is not None:
        # a deploy run persists no models: they are the files it loaded
        export_report(report, out_dir, trace, {} if skip_training else dict(zip(names, models)))
    return report


def _rows_to_csv(rows) -> str:
    """Trace rows as CSV under a header of the first row's keys; every row of a
    trace has the same keys (a row with another key, or without one, raises
    ValueError)."""
    keys = rows[0].keys()
    if any(row.keys() != keys for row in rows):
        raise ValueError(f"trace rows must all have the keys {list(keys)}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows(map(operator.itemgetter(*keys), rows))  # >= 2 keys: a tuple per row
    return buf.getvalue()


def export_report(report: RunReport, out_dir: str, trace: list[dict],
                  models: dict) -> list[str]:
    """Write report.json, ledger.csv, each model as models/<name>, and the
    run's trace rows, if any, as traces/solve.csv; returns the written paths.

    Any exception rolls back every file this call created.
    """
    written: list[str] = []

    def place(rel: str) -> str:
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        written.append(path)  # before it is opened, so a half-written file goes too
        return path

    def emit(rel: str, content: str) -> None:
        with open(place(rel), "w") as f:
            f.write(content)

    try:
        # one compact line: the indenting encoder is pure Python, three times slower
        emit("report.json", json.dumps(report.to_dict(), sort_keys=True) + "\n")
        emit("ledger.csv", report.ledger_csv)
        for name, model in models.items():
            save_model(model, place(os.path.join("models", name)))
        if trace:
            emit(os.path.join("traces", "solve.csv"), _rows_to_csv(trace))
        return written
    except Exception:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
