"""Compare the outputs of two fleetopt run directories.

    python3 tools/compare_runs.py RUN_A RUN_B

Exits 0 when the two runs decided the same: every file under models/, and
ledger.csv and traces/solve.csv, byte-identical (a file missing from both
counts as equal), and report.json, the fleet included, equal once wall_time_s
is dropped.
Otherwise it prints the first difference and exits 1; it exits 2 when a run
directory or its report.json is missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BYTE_FILES = ("ledger.csv", "traces/solve.csv")


def _byte_files(run: Path) -> set[str]:
    models = {p.relative_to(run).as_posix() for p in (run / "models").rglob("*") if p.is_file()}
    return models | {name for name in BYTE_FILES if (run / name).is_file()}


def _first_json_difference(a, b, path: str) -> str | None:
    """The path of the first value where a and b differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: only in {'B' if key not in a else 'A'}"
            if found := _first_json_difference(a[key], b[key], f"{path}.{key}"):
                return found
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if found := _first_json_difference(x, y, f"{path}[{i}]"):
                return found
        return None
    # compared as JSON text, so 1 and 1.0 differ and NaN equals NaN
    if json.dumps(a) != json.dumps(b):
        return f"{path}: {json.dumps(a)} vs {json.dumps(b)}"
    return None


def first_difference(a: Path, b: Path) -> str | None:
    """The first difference between runs a and b, or None when they agree."""
    files_a, files_b = _byte_files(a), _byte_files(b)
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            return f"{name}: only in {'A' if name in files_a else 'B'}"
        if (a / name).read_bytes() != (b / name).read_bytes():
            return f"{name}: bytes differ"
    reports = []
    for run in (a, b):
        report = json.loads((run / "report.json").read_text())
        report.pop("wall_time_s", None)
        reports.append(report)
    return _first_json_difference(*reports, "report.json")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_runs.py RUN_A RUN_B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    for run in (a, b):
        if not (run / "report.json").is_file():
            print(f"no report.json in {run}", file=sys.stderr)
            return 2
    found = first_difference(a, b)
    print("runs agree" if found is None else f"runs differ: {found}")
    return 0 if found is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
