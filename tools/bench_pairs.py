"""Paired benchmark runs of a parent and a change checkout, one run at a time.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S \\
        --pairs N --seconds T --out FILE [--trace 1] [--round NAME]

Each pair runs ``bench/run.py`` once in each checkout, never two at once:
pair 0 runs the parent first, and later pairs alternate which side goes
first. Every result line is kept. For each metric of the result lines it
prints each side's median and quartiles and the change's wins, by ``better``
from the change's BENCHMARK.json; ties count for neither side. It also prints
whether the gain rule holds: the change wins at least 9 of every 10 pairs (of
at least 10), and the medians differ in its favour by more than the parent's
interquartile range. For a metric with a ``bound`` it prints whether the
change's median is within that relative bound of the parent's.

The round (every run's result line, decision hashes and gates, and the
summary) is appended to the ``rounds`` of the JSON record FILE, which is made
if missing. Nothing under either checkout's bench/ is edited; each run leaves
its record in that checkout's .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ORDER = "pair 0 parent first, then alternating"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[dict], change: list[dict], spec: dict[str, dict]) -> dict:
    """Per metric of the result lines (pair i is parent[i] against change[i]):
    both sides' values, medians and quartiles, the change's wins and the ties,
    the relative median change, and the gain rule. spec maps a metric name to
    its BENCHMARK.json entry (``better``, and ``bound`` if it has one)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of result lines a side")
    out = {}
    for name in parent[0]["metrics"]:
        p = [line["metrics"][name]["value"] for line in parent]
        c = [line["metrics"][name]["value"] for line in change]
        sign = 1.0 if spec[name]["better"] == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        gain = sign * (p_med - c_med)  # > 0 when the change's median is better
        row = {
            "parent": p, "change": c,
            "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "parent_iqr": p_q3 - p_q1,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "change_iqr": c_q3 - c_q1,
            "change_wins": wins, "ties": ties,
            "median_change_rel": (c_med - p_med) / abs(p_med) if p_med else None,
            "gain_rule": len(p) >= 10 and 10 * wins >= 9 * len(p) and gain > p_q3 - p_q1,
        }
        if "bound" in spec[name]:
            row["bound"] = spec[name]["bound"]
            row["within_bound"] = -gain <= spec[name]["bound"] * abs(p_med)
        out[name] = row
    return out


def format_summary(summary: dict) -> list[str]:
    lines = []
    for name, s in summary.items():
        rel = "" if s["median_change_rel"] is None else f"  {100 * s['median_change_rel']:+.1f}%"
        bound = ("" if "within_bound" not in s
                 else "  within bound" if s["within_bound"] else "  OUTSIDE BOUND")
        lines.append(
            f"{name}: parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, "
            f"{s['parent_q3']:.6g}]  change {s['change_median']:.6g} [{s['change_q1']:.6g}, "
            f"{s['change_q3']:.6g}]{rel}  wins {s['change_wins']}/{len(s['parent'])}, "
            f"ties {s['ties']}  gain rule {'holds' if s['gain_rule'] else 'not met'}{bound}")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in checkout: its result line, decision hashes and gates."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    record = json.loads(
        (checkout / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(done.stdout.strip().splitlines()[-1]),
            "decision_hash": record["decision_hash"], "problems": record["problems"],
            "iterations": record["iterations"], "machine": record["machine"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", help="the round's name in the record")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            run = run_once(sides[side], args.workload, args.seed, args.seconds, args.trace)
            runs.append({"pair": pair, "side": side, "first": position == 0, **run})
            print(f"pair {pair} {side}: " + json.dumps(run["result"]), flush=True)
    by_side = {side: [r for r in runs if r["side"] == side] for side in sides}
    summary = summarize(*([r["result"] for r in by_side[side]] for side in sides), spec)
    hashes_equal = all(p["decision_hash"] == c["decision_hash"]
                       for p, c in zip(by_side["parent"], by_side["change"]))
    gates = not any(r["problems"] or not r["result"]["correct"] for r in runs)
    for line in format_summary(summary):
        print(line)
    print(f"decision hashes equal in every pair: {hashes_equal}; all gates passed: {gates}")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("command", "python3 bench/run.py --workload <workload> --seed <seed> "
                                 "--seconds <seconds> --trace <0|1>")
    record.setdefault("rounds", []).append({
        "round": args.round or f"{args.workload} seed {args.seed}",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pairs": args.pairs, "order": ORDER,
        "all_gates_passed": gates, "decision_hashes_equal_in_every_pair": hashes_equal,
        "attempted": {side: [r["result"]["attempted"] for r in by_side[side]] for side in sides},
        "failed": {side: [r["result"]["failed"] for r in by_side[side]] for side in sides},
        "summary": summary,
        "runs": runs,
    })
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
