"""Correctness gates and true decision quality for one client iteration.

An iteration is a training run (``fleetopt train-predictors``) and the
deploy run (``fleetopt optimize --skip-training``) that used its models, in
the same directory. Truth comes from the analytic model in
``fleetopt.device_world`` and is computed here, outside any run's ledger.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

BISECTION_CAP = 10  # ceil(log2(1001)) target measurements per device
GRID2D_CAP = 2 * 6 * 3  # two metrics x measure_cap 6 x 3 levels
AMORTIZED_CAP = 2  # one validation measurement per active bound


@dataclass
class Run:
    """One CLI invocation: exit code, wall time and the files it left."""

    code: int
    seconds: float
    stdout: str
    report: dict | None = None
    ledger_csv: str | None = None
    sample: object = None  # clock.Sample: the run cut into slices


@dataclass
class Iteration:
    """A training run and the deploy run that used its models."""

    train: Run
    deploy: Run
    traced: bool = False
    ref: object = None  # clock.Sample of the reference loop run after deploy
    problems: list[str] = field(default_factory=list)
    # filled by check_iteration from the reports, which are then released
    hashes: dict[str, str] = field(default_factory=dict)
    accuracy: list[float] = field(default_factory=list)
    violations: int = 0
    target_measurements: float = float("nan")
    setup_measurements: int = 0


def decision_hash(report: dict) -> str:
    """sha256 of ``RunReport.decision_dict()``: report.json minus wall time."""
    doc = {k: v for k, v in report.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def ledger_total(report: dict) -> int:
    """Every charge of a run's ledger: accuracy plus all device metrics."""
    ledger = report["ledger"]
    return ledger["accuracy"] + sum(
        n for metrics in ledger["devices"].values() for n in metrics.values()
    )


def _ledger_problems(label: str, report: dict, ledger_csv: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(ledger_csv)))
    counts = {(r["device_id"], r["metric"]): int(r["count"]) for r in rows}
    problems = []
    stage = report["stage_counts"]
    for dev_id, n in stage["per_target"].items():
        from_csv = counts.get((dev_id, "latency"), 0) + counts.get((dev_id, "energy"), 0)
        if from_csv != n:
            problems.append(f"{label}: per_target[{dev_id}]={n} but ledger.csv has {from_csv}")
    for metric in ("latency", "energy"):
        from_csv = sum(n for (dev, m), n in counts.items() if m == metric and dev != "*")
        if from_csv != stage[f"total_{metric}"]:
            problems.append(f"{label}: total_{metric}={stage[f'total_{metric}']} "
                            f"but ledger.csv has {from_csv}")
    if counts.get(("*", "accuracy"), 0) != stage["total_accuracy"]:
        problems.append(f"{label}: total_accuracy disagrees with ledger.csv")
    return problems


def _cap_problems(report: dict) -> list[str]:
    problems = []
    for row in report["rows"]:
        dev = row["device_id"]
        if report["scenario"]["approach"] == "amortized":
            if row["validation_measurements"] > AMORTIZED_CAP:
                problems.append(f"{dev}: {row['validation_measurements']} validation "
                                f"measurements > {AMORTIZED_CAP}")
        else:
            cap = BISECTION_CAP if row["energy_bound"] is None else GRID2D_CAP
            if row["optimize_measurements"] > cap:
                problems.append(f"{dev}: {row['optimize_measurements']} optimize "
                                f"measurements > {cap}")
    return problems


def check_iteration(it: Iteration, space, delta_fraction: float) -> None:
    """Fill ``it.problems`` (empty when every gate passes) and, when both
    reports exist, the decision hashes, measurement counts, and the true
    accuracy and bound violations of the deployed designs."""
    # imported here: the benchmark sets thread limits before numpy loads
    from fleetopt.device_world import Fleet, accuracy_value, energy_value, latency_value

    train, deploy = it.train, it.deploy
    if train.code != 0:
        it.problems.append(f"train-predictors exited {train.code}")
    if deploy.code not in (0, 3):
        it.problems.append(f"optimize exited {deploy.code}")
    if train.report is None or deploy.report is None:
        it.problems.append("a run left no report.json")
        return
    rows = deploy.report["rows"]
    printed = deploy.stdout.splitlines()
    if len(printed) != len(rows) + 1:
        it.problems.append(f"optimize printed {len(printed)} lines for {len(rows)} targets")
    if train.report["rows"] != rows:
        it.problems.append("deploy decision rows differ from the training run's rows")
    it.problems += _ledger_problems("train", train.report, train.ledger_csv)
    it.problems += _ledger_problems("deploy", deploy.report, deploy.ledger_csv)
    it.problems += _cap_problems(deploy.report)

    it.hashes["train"] = decision_hash(train.report)
    it.hashes["deploy"] = decision_hash(deploy.report)
    per_target = deploy.report["stage_counts"]["per_target"]
    if per_target:
        it.target_measurements = sum(per_target.values()) / len(per_target)
    it.setup_measurements = ledger_total(train.report) - ledger_total(deploy.report)

    fleet = Fleet.from_dict(deploy.report["fleet"])
    devices = {d.device_id: d for d in fleet.all_devices()}
    slack = 1.0 + delta_fraction
    for row in rows:
        dev = devices[row["device_id"]]
        x = space.design_at(row["design"])
        it.accuracy.append(accuracy_value(x, space))
        violated = latency_value(x, dev) > row["latency_bound"] * slack
        if row["energy_bound"] is not None:
            violated |= energy_value(x, dev) > row["energy_bound"] * slack
        it.violations += bool(violated)
