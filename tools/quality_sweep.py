"""Decision quality of two fleetopt checkouts over a grid of seeds and bounds.

    python3 tools/quality_sweep.py PARENT_DIR CHANGE_DIR [--scenario proxy proxy-latency] \\
        [--seeds 23 57] [--percentiles 5 15 40] [--toy]

A cell is one scenario, seed and latency percentile. ``proxy`` is the README
defaults with ``{"approach": "proxy"}``; any other scenario name is a
workload of bench/workloads.py (imported, never edited). ``--toy`` shrinks
either to the workload's toy size (``proxy`` to ``proxy-latency``'s). In
each checkout the cell's scenario file is run once with ``fleetopt
optimize``, a child process on that checkout's own src/, the way
tools/parity.py runs it. Per cell it prints each side's mean true accuracy
(tools/quality.py's target_quality), mean target measurements (the report's
stage_counts.per_target) and their two shares, the gate's probes and the
solve's measurements (the rows' probe_measurements and
optimize_measurements), violations (designs truly over bound * (1 +
delta_fraction)) and infeasible targets, with the change's difference.

It is evaluation only: it reads the reference value functions and writes
nothing outside a temporary directory. It exits 0, or 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import bench/workloads.py without writing under bench/
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]

from parity import _fleetopt  # noqa: E402
from quality import target_quality  # noqa: E402
from workloads import TOY, TOY_TARGETS, _merge, scenario_doc  # noqa: E402

from fleetopt.scenario import scenario_from_dict  # noqa: E402


def cell_doc(scenario: str, seed: int, percentile: float, toy: bool = False) -> dict:
    """The scenario file of one cell."""
    if scenario != "proxy":
        doc = scenario_doc(scenario, seed, toy)
    elif toy:  # the defaults at proxy-latency's toy size
        doc = _merge({"seed": seed, "approach": "proxy", **TOY},
                     {"fleet": TOY_TARGETS["proxy-latency"]})
    else:
        doc = {"seed": seed, "approach": "proxy"}
    doc["optimize"] = {**doc.get("optimize", {}), "latency_percentile": float(percentile)}
    return doc


def cell_quality(doc: dict, report: dict) -> dict:
    """Mean true accuracy, mean target measurements and their gate-probe and
    solve shares, violations and infeasible targets of one run's report."""
    rows = target_quality(scenario_from_dict(doc), report)
    per_target = report["stage_counts"]["per_target"]
    return {
        "accuracy": statistics.fmean(r["accuracy"] for r in rows),
        "measurements": statistics.fmean(per_target.values()),
        "probes": statistics.fmean(r["probe_measurements"] for r in report["rows"]),
        "solve": statistics.fmean(r["optimize_measurements"] for r in report["rows"]),
        "violations": sum(r["violates"] for r in rows),
        "infeasible": report["infeasible_count"],
    }


def run_quality(checkout: Path, doc: dict, work: Path) -> dict:
    """cell_quality of one `fleetopt optimize` run of doc in checkout."""
    work.mkdir(parents=True, exist_ok=True)
    config, out = work / "scenario.json", work / "run"
    config.write_text(json.dumps(doc))
    # exit 3: a target's measured design broke its bound, a decision like any other
    _fleetopt(checkout, ["optimize", "--config", str(config), "--out", str(out)], (0, 3))
    return cell_quality(doc, json.loads((out / "report.json").read_text()))


def format_cell(name: str, parent: dict, change: dict) -> str:
    counts = "  ".join(
        f"{label} {parent[key]:.2f} -> {change[key]:.2f} ({change[key] - parent[key]:+.2f})"
        for label, key in (("meas/target", "measurements"), ("probes/target", "probes"),
                           ("solve/target", "solve")))
    return (f"{name:<32} accuracy {parent['accuracy']:.5f} -> {change['accuracy']:.5f} "
            f"({change['accuracy'] - parent['accuracy']:+.5f})  {counts}  "
            f"violations {parent['violations']} -> {change['violations']}  "
            f"infeasible {parent['infeasible']} -> {change['infeasible']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--scenario", nargs="+", default=["proxy", "proxy-latency"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 57])
    parser.add_argument("--percentiles", type=float, nargs="+", default=[5.0, 15.0, 40.0])
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="quality-sweep-") as tmp:
        for scenario in args.scenario:
            for seed in args.seeds:
                for percentile in args.percentiles:
                    name = f"{scenario} seed {seed} p{percentile:g}{' toy' if args.toy else ''}"
                    doc = cell_doc(scenario, seed, percentile, args.toy)
                    try:
                        parent, change = (run_quality(checkout, doc, Path(tmp) / side)
                                          for side, checkout in (("parent", args.parent),
                                                                 ("change", args.change)))
                    except RuntimeError as e:
                        print(f"{name}: {e}", file=sys.stderr)
                        return 2
                    print(format_cell(name, parent, change), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
