"""Benchmark workloads: scenario overrides on top of the README defaults.

Each workload is a scenario JSON that differs from the README defaults only
in the keys given here; the benchmark adds the seed. ``TOY`` shrinks any
workload to a few seconds for the benchmark's own test.
"""

from __future__ import annotations

import copy

WORKLOADS: dict[str, dict] = {
    "proxy-latency": {
        "approach": "proxy",
        "predictor": {"epochs": 150},
        "search": {"population": 16, "generations": 15},
    },
    "proxy-energy": {
        "approach": "proxy",
        "optimize": {"energy_percentile": 40.0},
        "predictor": {"epochs": 50},
        "search": {"population": 16, "generations": 10},
        "fleet": {"n_holdout_monotone": 1, "n_holdout_adversarial": 0},
    },
    "amortized-fleet": {
        "approach": "amortized",
        "predictor": {"samples_per_device": 200, "epochs": 100},
        "optimize": {"optimizer_epochs": 50},
        "fleet": {"n_holdout_monotone": 192, "n_holdout_adversarial": 64},
    },
}

# Reduced space, few epochs, few targets: every code path of the workload in
# seconds. Merged over the workload's own overrides.
TOY = {
    "space": "reduced",
    "predictor": {"samples_per_device": 48, "epochs": 5, "hidden": [8]},
    "search": {"population": 8, "generations": 4},
    "optimize": {"optimizer_epochs": 5, "optimizer_hidden": [8], "probe_count": 10},
    "fleet": {"n_training": 2, "n_synthetic": 2},
}
TOY_TARGETS = {
    "proxy-latency": {"n_holdout_monotone": 2, "n_holdout_adversarial": 2},
    "proxy-energy": {"n_holdout_monotone": 1, "n_holdout_adversarial": 0},
    "amortized-fleet": {"n_holdout_monotone": 3, "n_holdout_adversarial": 1},
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def scenario_doc(workload: str, seed: int, toy: bool = False) -> dict:
    """The scenario JSON the program is given for one workload and seed."""
    doc = {"seed": seed, **copy.deepcopy(WORKLOADS[workload])}
    if toy:
        doc = _merge(doc, TOY)
        doc = _merge(doc, {"fleet": TOY_TARGETS[workload]})
    return doc
