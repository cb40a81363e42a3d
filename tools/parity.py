"""Decision parity of two fleetopt checkouts on the benchmark's workloads.

    python3 tools/parity.py PARENT_DIR CHANGE_DIR [--seeds 23 57] [--toy] [--workloads W ...]

For each workload of bench/workloads.py (imported, never edited), or each
one named by --workloads, and each seed, at full size or with --toy at the
workload's toy size, it writes the workload's scenario file and, in each
checkout, runs ``fleetopt train-predictors`` into one directory, then
``fleetopt optimize --skip-training`` into another that holds a copy of the
trained models. Each run is a child process on that checkout's own src/. The
two checkouts' training directories, then their deploy directories, are
compared with compare_runs.first_difference: models/, ledger.csv and
traces/solve.csv byte for byte, report.json without wall_time_s.

It prints one line per cell and exits 0 when every cell agrees; at the first
difference it prints it and exits 1; it exits 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import bench/workloads.py without writing under bench/
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]

from compare_runs import first_difference  # noqa: E402
from workloads import WORKLOADS, scenario_doc  # noqa: E402


def _fleetopt(checkout: Path, argv: list[str], codes: tuple[int, ...]) -> None:
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run([sys.executable, "-m", "fleetopt", *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode not in codes:
        raise RuntimeError(f"{checkout}: fleetopt {argv[0]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")


def run_cell(checkout: Path, config: Path, work: Path) -> tuple[Path, Path]:
    """The training and deploy directories of one scenario in one checkout."""
    shutil.rmtree(work, ignore_errors=True)
    train, deploy = work / "train", work / "deploy"
    _fleetopt(checkout, ["train-predictors", "--config", str(config), "--out", str(train)], (0,))
    shutil.copytree(train / "models", deploy / "models")
    # exit 3: a target's measured design broke its bound, a decision like any other
    _fleetopt(checkout, ["optimize", "--config", str(config), "--out", str(deploy),
                         "--skip-training"], (0, 3))
    return train, deploy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 57])
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        config = Path(tmp) / "scenario.json"
        for workload in args.workloads:
            for seed in args.seeds:
                cell = f"{workload} seed {seed}{' toy' if args.toy else ''}"
                config.write_text(json.dumps(scenario_doc(workload, seed, args.toy)))
                try:
                    runs = [run_cell(checkout, config, Path(tmp) / side)
                            for side, checkout in (("parent", args.parent),
                                                   ("change", args.change))]
                except RuntimeError as e:
                    print(f"{cell}: {e}", file=sys.stderr)
                    return 2
                for kind, a, b in zip(("train", "deploy"), *runs):
                    if found := first_difference(a, b):
                        print(f"{cell} {kind}: {found}")
                        return 1
                print(f"{cell}: agree", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
