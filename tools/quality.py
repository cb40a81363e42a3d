"""Per-target decision quality of a fleetopt run directory.

    python3 tools/quality.py CONFIG RUN_DIR [BASE_RUN_DIR]

CONFIG is the scenario file the run was made from: it gives the design space,
which report.json does not hold, and delta_fraction. Per target it prints the
family, the true accuracy of the chosen design (``accuracy_value``), its true
latency / bound (and energy / bound under an energy bound), and whether the
design truly violates bound * (1 + delta_fraction). With a base run of the
same scenario it also prints each target's true-accuracy difference (run
minus base) and each family's difference in mean true accuracy.

It is evaluation only: it reads the reference value functions, charges no
ledger and writes nothing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fleetopt.device_world import (  # noqa: E402
    DeviceFeatures,
    accuracy_value,
    energy_value,
    latency_value,
)
from fleetopt.scenario import ConfigError, Scenario, load_scenario  # noqa: E402


def target_quality(scenario: Scenario, report: dict) -> list[dict]:
    """One dict per report row: device_id, family, accuracy (true), latency_ratio,
    energy_ratio (None without an energy bound) and violates."""
    space = scenario.space
    fleet = report["fleet"]
    devices = {d["device_id"]: DeviceFeatures.from_dict(d)
               for d in fleet["holdout_monotone"] + fleet["holdout_adversarial"]}
    out = []
    for row in report["rows"]:
        x, device = space.design_at(row["design"]), devices[row["device_id"]]
        lat = latency_value(x, device) / row["latency_bound"]
        en = (None if row["energy_bound"] is None
              else energy_value(x, device) / row["energy_bound"])
        out.append({
            "device_id": row["device_id"], "family": row["family"],
            "accuracy": accuracy_value(x, space), "latency_ratio": lat, "energy_ratio": en,
            "violates": max(lat, en or 0.0) > 1.0 + scenario.delta_fraction,
        })
    return out


def family_means(rows: list[dict]) -> dict[str, float]:
    """Mean true accuracy per family, plus "all"."""
    families = sorted({r["family"] for r in rows})
    means = {f: statistics.fmean(r["accuracy"] for r in rows if r["family"] == f)
             for f in families}
    means["all"] = statistics.fmean(r["accuracy"] for r in rows) if rows else float("nan")
    return means


def differences(rows: list[dict], base: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per target and per family (and "all"): true accuracy of rows minus base's.
    Both runs must hold the same targets."""
    by_id = {r["device_id"]: r for r in base}
    if sorted(by_id) != sorted(r["device_id"] for r in rows):
        raise ValueError("the two runs hold different targets")
    per_target = {r["device_id"]: r["accuracy"] - by_id[r["device_id"]]["accuracy"]
                  for r in rows}
    ours, theirs = family_means(rows), family_means(base)
    return per_target, {f: ours[f] - theirs[f] for f in ours}


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: quality.py CONFIG RUN_DIR [BASE_RUN_DIR]", file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(argv[0])
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    runs = [Path(a) for a in argv[1:]]
    for run in runs:
        if not (run / "report.json").is_file():
            print(f"no report.json in {run}", file=sys.stderr)
            return 2
    reports = [json.loads((run / "report.json").read_text()) for run in runs]
    rows = target_quality(scenario, reports[0])
    base = target_quality(scenario, reports[1]) if len(reports) > 1 else None
    per_target, per_family = differences(rows, base) if base is not None else ({}, {})
    for r in rows:
        energy = "" if r["energy_ratio"] is None else f"  energy/bound {r['energy_ratio']:.4f}"
        diff = (f"  vs base {per_target[r['device_id']]:+.4f}"
                if r["device_id"] in per_target else "")
        print(f"{r['device_id']:<10} {r['family']:<12} accuracy {r['accuracy']:.4f}  "
              f"latency/bound {r['latency_ratio']:.4f}{energy}  "
              f"{'VIOLATES' if r['violates'] else 'within'}{diff}")
    means = family_means(rows)
    for family, mean in means.items():
        diff = f"  vs base {per_family[family]:+.4f}" if per_family else ""
        print(f"mean accuracy {family:<12} {mean:.4f}{diff}")
    print(f"violations {sum(r['violates'] for r in rows)}; infeasible_count "
          f"{reports[0]['infeasible_count']}"
          + (f" (base {reports[1]['infeasible_count']})" if base is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
