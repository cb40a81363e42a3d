"""Fleet-run benchmark: set-up and deploy time, measurement cost and decision
quality of fleetopt on one workload.

    python3 bench/run.py --workload proxy-latency --seed 23 --seconds 50 --trace 0

One client process runs a closed loop of iterations: a training run
(``fleetopt train-predictors``), then a deploy run over the whole holdout
fleet (``fleetopt optimize --skip-training``) with the models it wrote. It
repeats them until ``--seconds`` have passed and there are at least
``clock.WINDOW`` of them. Every run goes through ``fleetopt.cli.main`` in this
process and is timed by ``clock.SliceClock``; each iteration ends with the
reference loop ``clock.reference()``, which the times are normalized by.
Every iteration is checked by the gates in ``checks.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations for ``--seconds`` and prints the per-layer
metrics of the traced ones, plus the tracing overhead (traced minus untraced
times); spans go to ``.bench_runs/``. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The metric
names and units are those of ``BENCHMARK.json``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock as timing
import tracer as tracing
from checks import Iteration, Run, check_iteration
from workloads import WORKLOADS, scenario_doc

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 23
CONFIRM_SEED = 57  # second seed for confirming a later claim
# Printed but not in the result line: it is 0 when nothing fails, so the line
# carries it as failed/attempted instead.
PRINTED_ONLY = {"target_failure_rate": "fraction"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(RuntimeError):
    pass


def _import_fleetopt():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fleetopt" / "__init__.py").is_file():
        raise BenchError(f"no fleetopt package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fleetopt
    import fleetopt.cli

    if Path(fleetopt.__file__).resolve().parent != (src / "fleetopt").resolve():
        raise BenchError(f"imported fleetopt from {fleetopt.__file__}, not {src}")
    return fleetopt


def machine_record() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
        "client": "one closed-loop process, one workload at a time",
    }


def _invoke(fleetopt, argv: list[str], out_dir: Path, clock, tracer, run_id: str) -> Run:
    if tracer is not None:
        tracer.run_id = run_id
    stdout = io.StringIO()
    clock.start()
    with contextlib.redirect_stdout(stdout):
        code = fleetopt.cli.main(argv)
    sample = clock.stop()
    run = Run(code=code, seconds=sample.wall, stdout=stdout.getvalue(), sample=sample)
    report, ledger = out_dir / "report.json", out_dir / "ledger.csv"
    if report.is_file() and ledger.is_file():
        run.report = json.loads(report.read_text())
        run.ledger_csv = ledger.read_text()
        report.unlink()
        ledger.unlink()
    return run


def run_iteration(fleetopt, config: Path, out_dir: Path, run_id: str, clock, tracer=None):
    """One client iteration: a training run, then a deploy run with its
    models. A run that raises fails the iteration; the loop goes on."""
    common = ["--config", str(config), "--out", str(out_dir)]
    not_run = Run(code=-1, seconds=float("nan"), stdout="")
    it = Iteration(train=not_run, deploy=not_run, traced=tracer is not None)
    try:
        shutil.rmtree(out_dir, ignore_errors=True)
        it.train = _invoke(fleetopt, ["train-predictors", *common], out_dir, clock, tracer,
                           f"train-{run_id}")
        it.deploy = _invoke(fleetopt, ["optimize", *common, "--skip-training"], out_dir, clock,
                            tracer, f"deploy-{run_id}")
        it.ref = timing.reference()
    except Exception as e:
        it.problems.append(f"run raised {type(e).__name__}: {e}")
    return it


def _span_ledger(tracer, it, run_id: str) -> dict:
    """Per run: run-ledger charges summed over its spans, next to the run's
    own ledger totals. The two must be equal."""
    out = {}
    for phase, run in (("train", it.train), ("deploy", it.deploy)):
        if run.report is not None:
            stage = run.report["stage_counts"]
            summed = tracer.run_charges(f"{phase}-{run_id}")
            out[f"{phase}-{run_id}"] = {
                "spans": {m: summed[m] for m in ("latency", "energy", "accuracy")},
                "ledger": {"latency": stage["total_latency"], "energy": stage["total_energy"],
                           "accuracy": stage["total_accuracy"]},
            }
    return out


def _next_traced(its: list, trace: bool, seconds: float, started: float):
    """Whether the next iteration is traced, or None when the run is over.

    Untraced: iterations until ``seconds`` have passed since the start and
    there are ``clock.WINDOW`` of them. Traced: untraced and traced iterations
    alternate for ``seconds``, at least one of each.
    """
    over = time.perf_counter() - started >= seconds
    n_traced = sum(it.traced for it in its)
    n_plain = len(its) - n_traced
    if not trace:
        return None if over and n_plain >= timing.WINDOW else False
    if over and n_plain and n_traced:
        return None
    return n_traced < n_plain


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False) -> dict:
    """Run the closed loop and return the result record (metrics, gates,
    hashes, machine record)."""
    fleetopt = _import_fleetopt()
    doc = scenario_doc(workload, seed, toy)
    work = RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "scenario.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    scenario = fleetopt.scenario.load_scenario(config)
    n_targets = scenario.fleet.n_holdout_monotone + scenario.fleet.n_holdout_adversarial

    tracer = tracing.Tracer() if trace else None
    clock = timing.SliceClock()
    its: list = []
    span_ledger: dict = {}
    clock.install(fleetopt)
    started = time.perf_counter()
    try:
        while (traced := _next_traced(its, trace, seconds, started)) is not None:
            if traced:
                tracing.install(tracer, fleetopt)
            try:
                it = run_iteration(fleetopt, config, work / "run", str(len(its)), clock,
                                   tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            check_iteration(it, scenario.space, scenario.delta_fraction)
            if traced:
                for run_id, sums in _span_ledger(tracer, it, str(len(its))).items():
                    span_ledger[run_id] = sums
                    if sums["spans"] != sums["ledger"]:
                        it.problems.append(f"{run_id}: span ledger deltas {sums['spans']} "
                                           f"!= run ledger totals {sums['ledger']}")
            # keep no report longer than needed: peak RSS is a metric
            for run in (it.train, it.deploy):
                run.report = run.ledger_csv = None
            its.append(it)
        if tracer is not None:
            tracer.write(RUNS_DIR / f"{workload}-seed{seed}-spans.jsonl")
    finally:
        clock.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for it in its for p in it.problems]
    hashes = {phase: sorted({it.hashes[phase] for it in its if phase in it.hashes})
              for phase in ("train", "deploy")}
    for phase, found in hashes.items():
        if len(found) > 1:
            problems.append(f"{phase} decision hash differs between repetitions")
    attempted = n_targets * len(its)
    failed = sum(n_targets if it.problems else it.violations for it in its)
    if any(len(h) > 1 for h in hashes.values()):
        failed = attempted

    def samples(phase: str, traced: bool) -> list:
        """Timing samples of the good iterations; phase train, deploy or ref."""
        return [it.ref if phase == "ref" else getattr(it, phase).sample for it in its
                if not it.problems and it.traced == traced]

    def normalized(phase: str, traced: bool) -> float:
        return timing.normalized_time(samples(phase, traced), samples("ref", traced))

    good = [it for it in its if not it.problems]
    first = good[0] if good else None
    metrics = {
        "setup_s": normalized("train", False),
        "deploy_s": normalized("deploy", False),
        "target_measurements": first.target_measurements if first else float("nan"),
        "setup_measurements": first.setup_measurements if first else float("nan"),
        "true_accuracy": statistics.fmean(first.accuracy) if first and n_targets else float("nan"),
        "target_failure_rate": failed / attempted if attempted else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace, "toy": toy, "scenario": doc,
        "iterations": len(its),
        "traced": sum(it.traced for it in its),
        "setup_wall_s": [it.train.seconds for it in its if not it.traced],
        "deploy_wall_s": [it.deploy.seconds for it in its if not it.traced],
        "setup_window_s": timing.window_times(samples("train", False)),
        "deploy_window_s": timing.window_times(samples("deploy", False)),
        "ref_window_s": timing.window_times(samples("ref", False)),
        "forward_calls": {"setup": sorted({s.calls for s in samples("train", False)}),
                          "deploy": sorted({s.calls for s in samples("deploy", False)})},
        "decision_hash": {phase: h[0] if len(h) == 1 else h for phase, h in hashes.items()},
        "problems": problems,
        "correct": not problems and bool(good),
        "attempted": attempted, "failed": failed,
        "end_to_end": metrics,
        "machine": machine_record(),
    }
    if trace:
        layers = tracing.layer_metrics(tracer, max(1, record["traced"]))
        layers["trace.overhead.setup_s"] = normalized("train", True) - metrics["setup_s"]
        layers["trace.overhead.deploy_s"] = normalized("deploy", True) - metrics["deploy_s"]
        record["per_layer"] = layers
        record["span_ledger"] = span_ledger
    return record


def _print_record(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  iterations "
          f"{record['iterations']} (traced {record['traced']})  client: {m['client']}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"threads={m['threads']} commit={m['commit']}")
    print(f"decision hash: train={record['decision_hash']['train']} "
          f"deploy={record['decision_hash']['deploy']}")
    for name, unit in {**metric_units("end_to_end"), **PRINTED_ONLY}.items():
        print(f"{name} {record['end_to_end'][name]:.6g} {unit}")
    if record["trace"]:
        for name, unit in metric_units("per_layer").items():
            print(f"{name} {record['per_layer'][name]:.6g} {unit}")
    print("gates: " + ("all passed" if not record["problems"] else "; ".join(record["problems"])))


def result_line(record: dict) -> dict:
    kind, values = (("per_layer", record["per_layer"]) if record["trace"]
                    else ("end_to_end", record["end_to_end"]))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in metric_units(kind).items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; confirm a claim at "
                             f"{CONFIRM_SEED} as well)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS_DIR / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    _print_record(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
