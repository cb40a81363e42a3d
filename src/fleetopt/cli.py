"""Command-line entry point.

Subcommands: gen-fleet, train-predictors, optimize, report, cost-table,
selftest. Exit codes: 0 success, 2 config error (a bad key, a model file in
the wrong slot, a diverged fit, an --out that is a file or an unwritable
output), 3 the measured design of a target broke its bound. Everything is a
batch run; outputs are JSON and CSV files under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys

import numpy as np

from .design_space import enumerate_all, reduced_space, StageChoice, DesignPoint
from .device_world import (
    FleetConfig,
    MeasurementLedger,
    Oracle,
    default_proxy,
    generate_fleet,
    latency_value,
    energy_value,
)
from .nn import DivergedError
from .pipeline import draw_fleet, run_scenario
from .proxy_reuse import ProxyEntry, TCache, bisection_optimize, inner_ga, spearman
from .scenario import ConfigError, Scenario, load_scenario
from .search import FLEET_STREAM, TRAINING_STREAM, ConstraintSpec, SearchParams, stream
from .surrogate import TrainingSettings, train_accuracy_predictor, train_device_specific_predictor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# the per-device predictor-training baseline: this many measurements per
# device, at this many seconds each
BASELINE_SAMPLES, BASELINE_SECONDS = 5000, 30.0


def _say(text: str) -> None:
    """print() for command output: a reader gone early (`| head`) drops the rest."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        sys.stdout = None  # print() and the exit flush skip it; the exit code stands


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario JSON file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory")


def _load(args) -> Scenario:
    if args.config:
        return load_scenario(args.config, seed_override=args.seed)
    if args.seed is None:
        raise ConfigError("either --config or --seed is required")
    return Scenario(seed=args.seed)


def _emit_json(doc: dict, out: str | None, name: str) -> None:
    """Write doc as out/name and print the path, or print doc without --out."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as f:
            f.write(text + "\n")
        _say(path)
    else:
        _say(text)


def _cmd_gen_fleet(args) -> int:
    _emit_json(draw_fleet(_load(args)).to_dict(), args.out, "fleet.json")
    return EXIT_OK


def _cmd_train_predictors(args) -> int:
    scenario = _load(args)
    if not args.out:
        raise ConfigError("train-predictors needs --out for the model files")
    run_scenario(scenario, out_dir=args.out, skip_training=False)
    _say(os.path.join(args.out, "models"))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scenario = _load(args)
    if args.approach:
        scenario = dataclasses.replace(scenario, approach=args.approach)
    report = run_scenario(scenario, out_dir=args.out, skip_training=args.skip_training)
    for row in report.rows:
        flag = "ok" if row["feasible"] else "INFEASIBLE"
        _say(f"{row['device_id']}: design={row['design']} [{flag}]")
    if args.out:
        _say(os.path.join(args.out, "report.json"))
    return EXIT_INFEASIBLE if report.infeasible_count else EXIT_OK


def _report_lines(report: dict) -> list[str]:
    lines = [f"approach: {report['scenario']['approach']}  seed: {report['scenario']['seed']}",
             f"targets: {len(report['rows'])}  infeasible: {report['infeasible_count']}"]
    for row in report["rows"]:
        verdict = "feasible" if row["feasible"] else "INFEASIBLE"
        energy = ("" if row["energy_bound"] is None else
                  f"energy={row['measured_energy']:.4f}/{row['energy_bound']:.4f}  ")
        lines.append(f"  {row['device_id']}  design={row['design']}  latency="
                     f"{row['measured_latency']:.4f}/{row['latency_bound']:.4f}  {energy}{verdict}")
    per_target = report["stage_counts"]["per_target"]
    if per_target:
        lines.append(f"max per-target measurements: {max(per_target.values())}  "
                     f"mean: {statistics.fmean(per_target.values()):.2f}")
    return lines


def _cmd_report(args) -> int:
    if not args.out:
        raise ConfigError("report needs --out pointing at a finished run")
    path = os.path.join(args.out, "report.json")
    try:
        with open(path) as f:
            report = json.load(f)
        lines = _report_lines(report)
    except FileNotFoundError:
        raise ConfigError(f"no report at {path}") from None
    except OSError as e:  # a directory, no permission
        raise ConfigError(f"cannot read report ({path}): {e.strerror}") from None
    except (ValueError, KeyError, TypeError) as e:  # truncated JSON, missing key, bad value
        raise ConfigError(f"corrupt report ({path}): {e!r}") from None
    _say("\n".join(lines))
    return EXIT_INFEASIBLE if report["infeasible_count"] else EXIT_OK


def cost_accounting(samples_per_device: int, seconds_per_measurement: float,
                    device_count: int) -> dict:
    """Hours of measurement time the per-device predictor-training baseline
    spends on each device and on device_count devices."""
    per_device_hours = samples_per_device * seconds_per_measurement / 3600.0
    return {
        "baseline_samples_per_device": samples_per_device,
        "seconds_per_measurement": seconds_per_measurement,
        "device_count": device_count,
        "baseline_hours_per_device": per_device_hours,
        "baseline_hours_total": per_device_hours * device_count,
    }


def _cmd_cost_table(args) -> int:
    for flag, ok, rule in (
        ("--samples", args.samples > 0, "must be positive"),
        ("--seconds", 0 < args.seconds < math.inf, "must be positive and finite"),
        ("--devices", args.devices >= 0, "must be >= 0"),
    ):
        if not ok:
            raise ConfigError(f"{flag}: {rule}")
    _emit_json(cost_accounting(args.samples, args.seconds, args.devices), args.out,
               "cost_table.json")
    return EXIT_OK


def _selftest_checks():
    space = reduced_space()
    ledger = MeasurementLedger()
    oracle = Oracle(space, ledger)
    proxy = default_proxy()

    x = DesignPoint(stages=(StageChoice(1, 0.5, 3), StageChoice(1, 0.5, 3)), bits=32)
    yield ("proxy latency of the reference design = 0.66 ms",
           abs(latency_value(x, proxy) - 0.66) < 1e-12)
    yield ("proxy energy of the reference design = 28.32 mJ",
           abs(energy_value(x, proxy) - 28.32) < 1e-12)
    yield ("reduced space enumerates 128 designs", len(enumerate_all(space)) == 128)
    yield ("spearman hand value (1,2,3) vs (1,3,2) = 0.5",
           abs(spearman([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12)

    designs = enumerate_all(space)
    best = designs[int(np.argmax(oracle.accuracy_rows(designs)))]
    yield ("accuracy argmax is the all-max design", best == (1,) * space.encoding_width)

    rng = stream(7, TRAINING_STREAM)
    quick = TrainingSettings(epochs=200, batch_size=16)
    t_oracle = Oracle(space, MeasurementLedger())
    acc_m = train_accuracy_predictor(96, t_oracle, rng, quick, (32,))
    lat_m = train_device_specific_predictor("latency", proxy, 96, t_oracle, rng, quick, (32,))
    fleet = generate_fleet(FleetConfig(0, 0, 1, 1), stream(3, FLEET_STREAM))
    target = fleet.holdout_monotone[0]
    devices = [proxy, fleet.holdout_adversarial[0], target]  # target: gamma != 1
    points = [space.design_at(x) for x in designs]
    lat_ref = [[latency_value(x, d) for d in devices] for x in points]
    en_ref = [[energy_value(x, d) for d in devices] for x in points]
    yield ("row measurements equal the reference values on every design and device family",
           np.array_equal(oracle.latency_rows(designs, devices), lat_ref)
           and np.array_equal(oracle.energy_rows(designs, devices), en_ref))
    yield ("one-row measurements equal the reference values too",
           [[oracle.latency(x, d) for d in devices] for x in designs] == lat_ref
           and [[oracle.energy(x, d) for d in devices] for x in designs] == en_ref)
    paired = [devices[i % len(devices)] for i in range(len(designs))]
    yield ("paired measurements equal the reference values",
           oracle.latency_pairs(designs, paired).tolist()
           == [latency_value(x, d) for x, d in zip(points, paired)]
           and oracle.energy_pairs(designs, paired).tolist()
           == [energy_value(x, d) for x, d in zip(points, paired)])
    lats = sorted(Oracle(space).latency_rows(designs, [target])[:, 0])
    bound = lats[len(lats) * 2 // 5]
    run_ledger = MeasurementLedger()
    entry = ProxyEntry(proxy, acc_m, lat_m, None,
                       TCache(Scenario.granularity, inner_ga(space, SearchParams(), 5)))
    result = bisection_optimize(target, ConstraintSpec(bound), 0.02 * bound, entry,
                                Oracle(space, run_ledger))
    charges = run_ledger.count(target.device_id, "latency")
    yield ("bisection charges the target at most 10 latency measurements", charges <= 10)
    yield ("bisection result is feasible: within its latency bound",
           result.feasible and result.latency <= bound)

    two = [
        generate_fleet(FleetConfig(2, 2, 1, 1), stream(11, FLEET_STREAM)).to_dict()
        for _ in range(2)
    ]
    yield ("fleet generation is seed-deterministic", two[0] == two[1])


def _cmd_selftest(_args) -> int:
    failures = 0
    for label, ok in _selftest_checks():
        _say(f"[{'PASS' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1
    _say(f"{failures} failures")
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetopt",
        description="Device-aware DNN design optimization against a simulated fleet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fleet", help="generate and print/write the device fleet")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_fleet)

    p = sub.add_parser("train-predictors", help="run stage-1 training and save model files")
    _add_common(p)
    p.set_defaults(func=_cmd_train_predictors)

    p = sub.add_parser("optimize", help="optimize designs for every holdout device")
    _add_common(p)
    p.add_argument("--approach", help="proxy or amortized (overrides config)")
    p.add_argument("--skip-training", action="store_true",
                   help="reuse model files already in --out/models")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("report", help="summarize a finished run directory")
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cost-table", help="baseline measurement-cost arithmetic")
    p.add_argument("--samples", type=int, default=BASELINE_SAMPLES)
    p.add_argument("--seconds", type=float, default=BASELINE_SECONDS)
    p.add_argument("--devices", type=int, default=1)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_cost_table)

    p = sub.add_parser("selftest", help="fast reduced-space oracle checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out and os.path.exists(out) and not os.path.isdir(out):
            raise ConfigError(f"--out {out} is an existing file, not a directory")
        return args.func(args)
    except OSError as e:  # each read maps its own OSError: this is a write, rolled back
        print(f"config error: cannot write {e.filename or out}: {e.strerror or e}",
              file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergedError as e:
        print(f"config error: {e}; lower predictor.learning_rate (or, for the optimizer "
              "network, lambda_grid.max_lambda)", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
