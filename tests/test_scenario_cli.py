import copy
import csv
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

from fleetopt import device_world, learn_to_optimize, nn, pipeline, proxy_reuse, surrogate
from fleetopt.cli import cost_accounting, main
from fleetopt.design_space import DesignSpace, default_space, enumerate_all
from fleetopt.pipeline import (
    RunReport,
    _percentile_bounds,
    draw_fleet,
    export_report,
    run_scenario,
)
from fleetopt.scenario import ConfigError, Scenario, load_scenario, scenario_from_dict
from fleetopt.search import GA_STREAM, ConstraintSpec, stream

SMALL_PROXY = {
    "seed": 11,
    "approach": "proxy",
    "space": "reduced",
    "fleet": {"n_training": 2, "n_synthetic": 2,
              "n_holdout_monotone": 1, "n_holdout_adversarial": 1},
    "predictor": {"samples_per_device": 96, "epochs": 300, "batch_size": 32, "hidden": [32]},
    "search": {"population": 24, "generations": 20},
    "optimize": {"latency_percentile": 40.0, "probe_count": 20},
}

SMALL_AMORTIZED = dict(
    SMALL_PROXY,
    approach="amortized",
    lambda_grid={"count_per_axis": 2, "max_lambda": 1.0},
    optimize={"latency_percentile": 40.0, "optimizer_hidden": [24, 24],
              "optimizer_epochs": 300, "mu": 1e-4},
)


def read_trace(out):
    """The run's one trace table, traces/solve.csv, as (header, rows)."""
    with open(os.path.join(out, "traces", "solve.csv")) as f:
        reader = csv.DictReader(f)
        return reader.fieldnames, list(reader)


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def proxy_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("proxy_run"))
    scenario = scenario_from_dict(SMALL_PROXY)
    report = run_scenario(scenario, out_dir=out)
    return scenario, report, out


# --- scenario parsing --------------------------------------------------------


def test_minimal_config_defaults():
    s = scenario_from_dict({"seed": 7})
    assert s.seed == 7
    assert s.approach == "proxy"
    assert s.space == default_space()
    assert s.samples_per_device == 500
    assert s.fleet.n_training == 8
    assert s.lambda_count == 4
    # `--seed 7` without --config runs Scenario(seed=7): the same scenario, so
    # the same designs, as this config
    assert s == Scenario(seed=7)


def test_comment_keys_are_ignored():
    noisy = copy.deepcopy(SMALL_PROXY)
    noisy["_comment"] = "tuned for the shakedown run"
    noisy["predictor"]["_note"] = "small on purpose"
    assert scenario_from_dict(noisy) == scenario_from_dict(SMALL_PROXY)


def test_seed_is_required_and_typed():
    with pytest.raises(ConfigError, match="seed"):
        scenario_from_dict({})
    with pytest.raises(ConfigError, match="seed"):
        scenario_from_dict({"seed": "7"})
    with pytest.raises(ConfigError, match="seed"):
        scenario_from_dict({"seed": True})


def test_errors_name_the_key_path():
    with pytest.raises(ConfigError, match=r"predictor\.epochs"):
        scenario_from_dict({"seed": 1, "predictor": {"epochs": "many"}})
    with pytest.raises(ConfigError, match="latency_percentile"):
        scenario_from_dict({"seed": 1, "optimize": {"latency_percentile": 0}})
    with pytest.raises(ConfigError, match="approach"):
        scenario_from_dict({"seed": 1, "approach": "magic"})
    # a top-level key is named by its own path, with no section before it
    with pytest.raises(ConfigError, match="^approach: expected str"):
        scenario_from_dict({"seed": 1, "approach": None})
    with pytest.raises(ConfigError, match="top level"):
        scenario_from_dict([1, 2])
    with pytest.raises(ConfigError, match=r"predictor\.hidden"):
        scenario_from_dict({"seed": 1, "predictor": {"hidden": [0]}})
    with pytest.raises(ConfigError, match=r"optimize\.optimizer_hidden"):
        scenario_from_dict({"seed": 1, "optimize": {"optimizer_hidden": "big"}})


def with_key(doc, path, value):
    """A deep copy of doc with the dotted key path set to value."""
    out = copy.deepcopy(doc)
    *sections, key = path.split(".")
    node = out
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return out


BAD_CONFIGS = [
    # (base, key path set, value, key path the error must name)
    (SMALL_PROXY, "predictor.learning_rate", True, "predictor.learning_rate"),
    (SMALL_PROXY, "predictor.learning_rate", 0.0, "predictor.learning_rate"),
    (SMALL_PROXY, "predictor.momentum", 1.0, "predictor.momentum"),
    (SMALL_PROXY, "predictor.epochs", None, "predictor.epochs"),
    (SMALL_PROXY, "predictor.batch_size", 0, "predictor.batch_size"),
    (SMALL_PROXY, "predictor.hidden", [True], "predictor.hidden"),
    (SMALL_PROXY, "predicter", {"epochs": 5}, "predicter"),
    (SMALL_PROXY, "search.populaton", 8, "search.populaton"),
    (SMALL_PROXY, "search.population", 1, "search.population"),
    (SMALL_PROXY, "fleet.n_synthetic", -1, "fleet.n_synthetic"),
    (SMALL_PROXY, "seed", -1, "seed"),
    # search.stream would split a seed this large into two words
    (SMALL_PROXY, "seed", 2**32, "seed"),
    (SMALL_PROXY, "space", {"num_stages": "two"}, "space.num_stages"),
    (SMALL_PROXY, "space", {"kernel_choices": ["3"]}, "space.kernel_choices"),
    (SMALL_PROXY, "space", {"stages": 2}, "space.stages"),
    (SMALL_PROXY, "space", {"num_stages": 2, "bits_choices": [2, 8]}, "space.bits_choices"),
    (SMALL_PROXY, "bisection.granularity", 2.0, "bisection.granularity"),
    (SMALL_PROXY, "bisection.delta_fraction", 0.0, "bisection.delta_fraction"),
    (SMALL_PROXY, "lambda_grid.count_per_axis", 0, "lambda_grid.count_per_axis"),
    (SMALL_PROXY, "lambda_grid.max_lambda", -1.0, "lambda_grid.max_lambda"),
    (SMALL_PROXY, "optimize.probe_count", 3, "optimize.probe_count"),
    (SMALL_PROXY, "optimize.monotonicity_threshold", 7.0, "optimize.monotonicity_threshold"),
    (SMALL_PROXY, "optimize.energy_percentile", 100.0, "optimize.energy_percentile"),
    (SMALL_PROXY, "optimize.mu", -1e-4, "optimize.mu"),
    (SMALL_PROXY, "optimize.exploration_rounds", 1, "optimize.exploration_rounds"),
    (SMALL_PROXY, "optimize.explore_size", 8, "optimize.explore_size"),
    (SMALL_AMORTIZED, "optimize.optimizer_epochs", 0, "optimize.optimizer_epochs"),
    (SMALL_AMORTIZED, "fleet.n_training", 1, "fleet.n_training"),
    # the only checks on these values: no fit or mutation re-checks them
    (SMALL_PROXY, "predictor.samples_per_device", 1, "predictor.samples_per_device"),
    (SMALL_PROXY, "search.mutation_rate", 1.5, "search.mutation_rate"),
    # JSON parsing lets NaN and Infinity through; the parser must not
    (SMALL_PROXY, "predictor.learning_rate", float("inf"), "predictor.learning_rate"),
    (SMALL_PROXY, "lambda_grid.max_lambda", float("inf"), "lambda_grid.max_lambda"),
    (SMALL_AMORTIZED, "optimize.mu", float("inf"), "optimize.mu"),
    (SMALL_PROXY, "space", {"width_choices": [0.5, float("inf")]}, "space.width_choices"),
    (SMALL_PROXY, "space", {"width_choices": [0.5, float("nan")]}, "space.width_choices"),
    (SMALL_PROXY, "space", {"num_stages": 1, "depth_choices": [1], "width_choices": [1.0],
                            "kernel_choices": [3], "bits_choices": [8]},
     "space: must hold at least 2 designs"),
    # a design's code is one int64
    (SMALL_PROXY, "space", {"num_stages": 12, "depth_choices": [1, 2, 3, 4],
                            "width_choices": [0.5, 0.75, 1.0, 1.25], "kernel_choices": [3, 5, 7],
                            "bits_choices": [4, 8, 16, 32]},
     "space: must hold fewer than 2**63 designs"),
]


@pytest.mark.parametrize(
    "base, path, value, named", BAD_CONFIGS,
    ids=[f"{path}={value!r}" for _, path, value, _ in BAD_CONFIGS],
)
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, base, path, value, named):
    cfg = write_config(tmp_path, with_key(base, path, value))
    assert main(["optimize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert named in err


TINY = {"predictor.samples_per_device": 16, "predictor.epochs": 3, "predictor.batch_size": 8,
        "predictor.hidden": [4], "search.population": 4, "search.generations": 2,
        "optimize.optimizer_hidden": [4], "optimize.optimizer_epochs": 3}
NO_TARGETS = {"fleet.n_holdout_monotone": 0, "fleet.n_holdout_adversarial": 0}
# Each case sits at the edge of one entry check that the code downstream relies
# on, as no solver, fit or optimizer checks the value again.
BOUNDARY_CONFIGS = {
    "granularity=0.5": (SMALL_PROXY, {"bisection.granularity": 0.5}),
    "granularity=0.3-energy": (SMALL_PROXY, {"bisection.granularity": 0.3,
                                             "optimize.energy_percentile": 40.0}),
    "probe_count=10": (SMALL_PROXY, {"optimize.probe_count": 10}),
    "samples_per_device=2-proxy": (SMALL_PROXY, {"predictor.samples_per_device": 2}),
    "samples_per_device=2-amortized": (SMALL_AMORTIZED, {"predictor.samples_per_device": 2}),
    "count_per_axis=1": (SMALL_AMORTIZED, {"lambda_grid.count_per_axis": 1}),
    "no-hidden-layers": (SMALL_AMORTIZED, {"predictor.hidden": [],
                                           "optimize.optimizer_hidden": []}),
    "n_training=2-no-synthetic": (SMALL_AMORTIZED, {"fleet.n_training": 2,
                                                    "fleet.n_synthetic": 0}),
    "population=2": (SMALL_PROXY, {"search.population": 2}),
    "mutation_rate=0": (SMALL_PROXY, {"search.mutation_rate": 0.0}),
    "mutation_rate=1": (SMALL_PROXY, {"search.mutation_rate": 1.0}),
    "no-targets-proxy": (SMALL_PROXY, NO_TARGETS),
    "no-targets-amortized": (SMALL_AMORTIZED, NO_TARGETS),
}


@pytest.mark.parametrize("case", list(BOUNDARY_CONFIGS))
def test_a_config_at_the_edge_of_each_entry_check_runs(tmp_path, capsys, case):
    doc, keys = BOUNDARY_CONFIGS[case]
    for path, value in {**TINY, **keys}.items():
        doc = with_key(doc, path, value)
    cfg, out = write_config(tmp_path, doc), str(tmp_path / "run")
    assert main(["train-predictors", "--config", cfg, "--out", out]) == 0
    # exit 3: a target's measured design broke its bound, a verdict like any other
    assert main(["optimize", "--config", cfg, "--out", out, "--skip-training"]) in (0, 3)
    assert capsys.readouterr().err == ""


def test_readme_example_is_the_default_scenario():
    # the README's "Scenario files" block lists the defaults; they must not
    # drift from the settings dataclasses
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = re.search(r"## Scenario files\n.*?```json\n(.*?)```", readme, re.S).group(1)
    assert scenario_from_dict(json.loads(block)) == Scenario(seed=23)


def test_space_forms():
    assert scenario_from_dict({"seed": 1, "space": "reduced"}).space.cardinality == 128
    assert scenario_from_dict({"seed": 1, "space": "default"}).space == default_space()
    custom = scenario_from_dict(
        {"seed": 1, "space": {"num_stages": 1, "depth_choices": [1, 3],
                              "width_choices": [1.0], "kernel_choices": [3],
                              "bits_choices": [8, 32]}}
    )
    assert custom.space.cardinality == 4
    with pytest.raises(ConfigError, match="space"):
        scenario_from_dict({"seed": 1, "space": "tiny"})
    with pytest.raises(ConfigError, match="space"):
        scenario_from_dict({"seed": 1, "space": {"depth_choices": []}})
    # every rank-gate probe of a one-design space is the same design
    one = {"num_stages": 1, "depth_choices": [1], "width_choices": [1.0],
           "kernel_choices": [3], "bits_choices": [8]}
    with pytest.raises(ConfigError, match="^space: must hold at least 2 designs$"):
        scenario_from_dict({"seed": 1, "approach": "proxy", "space": one})


def test_load_scenario_file_handling(tmp_path):
    path = write_config(tmp_path, {"seed": 5})
    assert load_scenario(path).seed == 5
    assert load_scenario(path, seed_override=99).seed == 99
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{seed: 5")
    with pytest.raises(ConfigError, match="JSON"):
        load_scenario(str(bad))


def test_every_training_run_steps_a_stack(tmp_path, monkeypatch):
    # one training shape: a lone fit is a stack of one, never a 2-D net
    seen = []

    def spy(module):
        def train(net, *args, **kwargs):
            seen.append((module.__name__, net.weights[0].ndim))
            return nn.train(net, *args, **kwargs)
        return train

    for module in (surrogate, learn_to_optimize):
        monkeypatch.setattr(module, "train", spy(module))
    for base in (SMALL_PROXY, SMALL_AMORTIZED):
        doc = with_key(with_key(base, "predictor.epochs", 5), "optimize.optimizer_epochs", 5)
        run_scenario(scenario_from_dict(doc), out_dir=str(tmp_path / base["approach"]))
    assert {module for module, _ in seen} == {"fleetopt.surrogate", "fleetopt.learn_to_optimize"}
    assert all(ndim == 3 for _, ndim in seen)


def test_bisection_settings_come_from_config(tmp_path):
    # granularity 0.25 caps the bisection at ceil(log2(5)) = 3 measurements;
    # delta_fraction 0.5 makes the band half the bound on either side
    doc = dict(SMALL_PROXY, bisection={"delta_fraction": 0.5, "granularity": 0.25})
    report = run_scenario(scenario_from_dict(doc), out_dir=str(tmp_path))
    _, table = read_trace(tmp_path)
    for row in report.rows:
        assert row["optimize_measurements"] <= 3
        trace = [step for step in table if step["device_id"] == row["device_id"]]
        # a design is measured once, and the rows of each t whose design it
        # is repeat that one measurement: no more designs than measured t, no
        # fewer than measured values
        measured = [step for step in trace if step["measured"] == "True"]
        assert (len({float(step["latency"]) for step in measured})
                <= row["optimize_measurements"] <= len({step["t"] for step in measured}))
        bound = row["latency_bound"]
        for step in trace:
            if step["verdict"] == "within_band":
                # only a measurement stops the bisection in the band
                assert step["measured"] == "True"
                assert abs(float(step["latency"]) - bound) <= 0.5 * bound


def test_coarse_granularity_keeps_the_grid_in_the_simplex(tmp_path):
    # at granularity 0.07 a refined lattice point inside the simplex can
    # quantize out of it, each weight rounded on its own
    doc = {"seed": 11, "space": "reduced", "bisection": {"granularity": 0.07},
           "predictor": {"samples_per_device": 60, "epochs": 20, "hidden": [8]},
           "search": {"population": 8, "generations": 4},
           "optimize": {"energy_percentile": 40.0}}
    assert main(["optimize", "--config", write_config(tmp_path, doc)]) in (0, 3)


def test_every_stream_a_seed_names_is_distinct(monkeypatch):
    # numpy pads short entropy with zeros, so a bare [seed, id, *key] would make
    # the ray's GA key (0, 0) one stream with the one-weight key (0,): each key
    # of either length, here (250,) and (250, 250) among them, is its own stream
    made = {}

    def recorded(seed, stream_id, *key):
        rng = stream(seed, stream_id, *key)
        made[(stream_id, *key)] = tuple(rng.bit_generator.seed_seq.generate_state(4))
        return rng

    for module in (pipeline, proxy_reuse):
        monkeypatch.setattr(module, "stream", recorded)
    doc = with_key(SMALL_PROXY, "predictor.epochs", 5)
    for energy_percentile in (None, 40.0):  # one weight, then the ray
        run_scenario(scenario_from_dict(
            with_key(doc, "optimize.energy_percentile", energy_percentile)))
    assert {0, 1, 2, 101} < {path[0] for path in made}
    assert {(GA_STREAM, 500), (GA_STREAM, 250), (GA_STREAM, 250, 250)} <= made.keys()
    assert len(set(made.values())) == len(made)


# --- measurement-cost arithmetic ---------------------------------------------


def test_cost_accounting_baseline_arithmetic():
    table = cost_accounting(5000, 30.0, 1)
    assert table["baseline_hours_per_device"] == 5000 * 30.0 / 3600.0
    assert table["baseline_hours_total"] == table["baseline_hours_per_device"]
    assert cost_accounting(100, 1.0, 0)["baseline_hours_total"] == 0.0


# --- end-to-end runs ---------------------------------------------------------


def test_proxy_run_rows_and_artifacts(proxy_run):
    _, report, out = proxy_run
    assert [r["family"] for r in report.rows] == ["monotone", "adversarial"]
    assert all(r["feasible"] for r in report.rows)
    mono, adv = report.rows
    assert mono["proxy_reused"] and mono["proxy_used"] == "proxy"
    assert not adv["proxy_reused"] and adv["proxy_used"] == adv["device_id"]
    # per-target accounting: probes + optimization, a gate miss included (its
    # correction is fitted on the probes, so it measures nothing more)
    per_target = report.stage_counts["per_target"]
    for row in (mono, adv):
        assert per_target[row["device_id"]] == (
            row["probe_measurements"] + row["optimize_measurements"])
        assert "target_latency_charges" not in row
    # a gate miss measured every pool entry's probes
    assert adv["probe_measurements"] == (
        SMALL_PROXY["optimize"]["probe_count"] * len(adv["match_trials"]))
    with open(os.path.join(out, "report.json")) as f:
        doc = json.load(f)
    assert doc["rows"] == report.rows
    # each count is stated once: per target in stage_counts, no cost table
    assert "cost_table" not in doc
    assert "wall_time_s" in doc and "wall_time_s" not in report.decision_dict()


def test_each_trial_records_the_probes_it_measured(proxy_run):
    _, report, _ = proxy_run
    count = SMALL_PROXY["optimize"]["probe_count"]
    for row in report.rows:
        trials = row["match_trials"]
        assert row["probe_measurements"] == sum(trial["probes"] for trial in trials)
        # a trial stops at half its probes only on a pass
        for trial in trials:
            assert trial["probes"] in ((count // 2, count) if trial["monotone"] else (count,))
    mono, _ = report.rows
    assert mono["match_trials"][0]["probes"] == count // 2


@pytest.mark.parametrize("energy_percentile", [None, 40.0], ids=["latency", "energy"])
def test_a_gate_miss_charges_its_probes_and_its_solve_only(energy_percentile):
    # the correction is fitted on the gate's probes: a miss measures nothing
    # more under a latency bound, and each probe's energy under an energy bound
    doc = with_key(SMALL_PROXY, "predictor.epochs", 5)
    doc = with_key(doc, "optimize.energy_percentile", energy_percentile)
    report = run_scenario(scenario_from_dict(doc))
    assert any(not row["proxy_reused"] for row in report.rows)
    for row in report.rows:
        probes, solve = row["probe_measurements"], row["optimize_measurements"]
        charged = report.ledger["devices"][row["device_id"]]
        if energy_percentile is None:
            assert charged == {"latency": probes + solve}
        else:  # the ray measures both metrics of each design it measures
            probe_energy = 0 if row["proxy_reused"] else probes
            assert charged == {"latency": probes + solve // 2,
                               "energy": probe_energy + solve // 2}


@pytest.mark.parametrize("energy_percentile", [None, 40.0], ids=["latency", "energy"])
def test_the_sweep_counts_its_own_validation(energy_percentile):
    # one latency measurement per target, one energy measurement more under an
    # energy bound: the sweep's own count is the ledger's
    doc = with_key(SMALL_AMORTIZED, "predictor.epochs", 2)
    doc = with_key(doc, "optimize.energy_percentile", energy_percentile)
    doc["optimize"]["optimizer_epochs"] = 2
    report = run_scenario(scenario_from_dict(doc))
    assert report.rows
    per_target = report.stage_counts["per_target"]
    for row in report.rows:
        assert (row["validation_measurements"] == per_target[row["device_id"]]
                == 1 + (row["energy_bound"] is not None))


def test_a_corrected_entry_joins_the_pool_for_later_targets():
    doc = with_key(SMALL_PROXY, "predictor.epochs", 5)
    doc["fleet"] = dict(doc["fleet"], n_holdout_monotone=0, n_holdout_adversarial=4)
    first, *later = run_scenario(scenario_from_dict(doc)).rows
    assert not first["proxy_reused"] and first["proxy_used"] == first["device_id"]
    assert any(trial["proxy"] == first["device_id"]
               for row in later for trial in row["match_trials"])


@pytest.mark.parametrize("doc, header, weights", [
    (SMALL_PROXY, ["iteration", "t", "latency", "measured", "verdict"], 1),
    (with_key(SMALL_PROXY, "optimize.energy_percentile", 40.0),
     ["iteration", "t", "latency", "energy", "measured", "verdict"], 2),
    (SMALL_AMORTIZED,
     ["lambda1", "lambda2", "predicted_feasible", "predicted_accuracy", "chosen"], None),
], ids=["bisection", "ray", "sweep"])
def test_one_trace_table_per_run(tmp_path, doc, header, weights):
    doc = with_key(doc, "predictor.epochs", 5)
    doc["optimize"]["optimizer_epochs"] = 5
    doc["fleet"] = dict(doc["fleet"], n_holdout_monotone=2, n_holdout_adversarial=2)
    report = run_scenario(scenario_from_dict(doc), out_dir=str(tmp_path))
    assert os.listdir(tmp_path / "traces") == ["solve.csv"]
    columns, table = read_trace(tmp_path)
    assert columns == ["device_id", *header]
    # each target's rows in one run, the runs in report-row order
    runs = [device for i, device in enumerate(r["device_id"] for r in table)
            if i == 0 or table[i - 1]["device_id"] != device]
    assert runs == [row["device_id"] for row in report.rows]
    if weights:  # a proxy row's t: the solve's weights, [t] or [t1, t2]
        assert all(isinstance(row["t"], list) and len(row["t"]) == weights
                   for row in report.rows)


@pytest.mark.parametrize("doc, models", [
    (SMALL_PROXY, ["accuracy.json", "latency_proxy.json"]),
    (with_key(SMALL_PROXY, "optimize.energy_percentile", 40.0),
     ["accuracy.json", "energy_proxy.json", "latency_proxy.json"]),
    (SMALL_AMORTIZED,
     ["accuracy.json", "energy_fleet.json", "latency_fleet.json", "optimizer.json"]),
], ids=["proxy-latency", "proxy-energy", "amortized"])
def test_a_run_directory_states_each_output_once(tmp_path, doc, models):
    doc = with_key(doc, "predictor.epochs", 5)
    doc["optimize"]["optimizer_epochs"] = 5
    cfg = write_config(tmp_path, doc)
    expected = {"report.json", "ledger.csv", "traces/solve.csv",
                *(f"models/{name}" for name in models)}

    def files(run):
        return {p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()}

    train, deploy = tmp_path / "train", tmp_path / "deploy"
    assert main(["train-predictors", "--config", cfg, "--out", str(train)]) == 0
    assert files(train) == expected
    # a deploy writes no model file: its directory holds only the copies it loads
    shutil.copytree(train / "models", deploy / "models")
    assert main(["optimize", "--config", cfg, "--out", str(deploy), "--skip-training"]) in (0, 3)
    assert files(deploy) == expected
    for run in (train, deploy):
        report = json.loads((run / "report.json").read_text())
        assert "bounds" not in report  # every row carries its target's bounds
        assert report["fleet"] == draw_fleet(scenario_from_dict(doc)).to_dict()
        assert all({"latency_bound", "energy_bound"} <= row.keys() for row in report["rows"])


def test_bisection_rows_reported_feasible_meet_their_bound():
    # seed 57 of the default space: every monotone target's bisection meets
    # the band first at an iterate just over its bound, with an earlier
    # iterate under it
    doc = {"seed": 57, "approach": "proxy", "predictor": {"epochs": 150},
           "search": {"population": 16, "generations": 15}}
    report = run_scenario(scenario_from_dict(doc))
    assert report.infeasible_count == sum(not row["feasible"] for row in report.rows)
    feasible = [row for row in report.rows if row["feasible"]]
    assert feasible
    assert all(row["measured_latency"] <= row["latency_bound"] for row in feasible)


def test_same_seed_runs_are_bit_identical(proxy_run):
    scenario, report, _ = proxy_run
    again = run_scenario(scenario)
    assert again.decision_dict() == report.decision_dict()



def test_compare_runs_tells_equal_runs_from_a_tampered_one(proxy_run, tmp_path):
    scenario, _, out = proxy_run
    again = tmp_path / "again"
    run_scenario(scenario, out_dir=str(again))  # its wall_time_s differs

    def compare(a, b):
        tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_runs.py")
        return subprocess.run([sys.executable, tool, str(a), str(b)], capture_output=True,
                              text=True)

    same = compare(out, again)
    assert (same.returncode, same.stdout) == (0, "runs agree\n")
    doc = json.loads((again / "report.json").read_text())
    doc["rows"][0]["measured_latency"] *= 1.5
    (again / "report.json").write_text(json.dumps(doc))
    tampered = compare(out, again)
    assert tampered.returncode == 1
    assert tampered.stdout.startswith("runs differ: report.json.rows[0].measured_latency: ")
    # the report's fleet is the run's one copy of it
    with open(os.path.join(out, "report.json")) as f:
        doc = json.load(f)
    doc["fleet"]["proxy"]["device_id"] = "moved"
    (again / "report.json").write_text(json.dumps(doc))
    tampered = compare(out, again)
    assert tampered.returncode == 1
    assert tampered.stdout.startswith("runs differ: report.json.fleet.proxy.device_id: ")
    assert compare(out, tmp_path / "nothing").returncode == 2

def test_skip_training_repeats_decisions_without_training_cost(proxy_run):
    scenario, report, out = proxy_run
    skipped = run_scenario(scenario, out_dir=out, skip_training=True)
    assert skipped.rows == report.rows  # each row holds its target's bounds
    assert skipped.ledger["accuracy"] == 0
    assert report.ledger["accuracy"] == scenario.samples_per_device
    with pytest.raises(ConfigError, match="skip-training"):
        run_scenario(scenario, out_dir=None, skip_training=True)


@pytest.mark.parametrize("energy_percentile", [None, 40.0], ids=["latency", "energy"])
def test_calibration_measures_through_the_row_form(monkeypatch, energy_percentile):
    doc = with_key(SMALL_PROXY, "fleet.n_holdout_monotone", 2)
    doc["fleet"]["n_holdout_adversarial"] = 2
    if energy_percentile is not None:
        doc["optimize"]["energy_percentile"] = energy_percentile
    scenario = scenario_from_dict(doc)
    fleet = draw_fleet(scenario)
    scalar_calls = []
    latency_value = device_world.latency_value
    monkeypatch.setattr(device_world, "latency_value",
                        lambda x, d: scalar_calls.append(d) or latency_value(x, d))
    bounds, cal_ledger = _percentile_bounds(scenario, fleet)
    assert scalar_calls == []

    # the scalar loop the row form replaced: 4 targets x 128 designs per metric,
    # each charged once
    space = scenario.space
    points = [space.design_at(x) for x in enumerate_all(space)]
    metrics = ["latency"] if energy_percentile is None else ["latency", "energy"]
    charged = {}
    for dev in fleet.holdout_monotone + fleet.holdout_adversarial:
        lat = float(np.percentile([device_world.latency_value(x, dev) for x in points],
                                  scenario.optimize.latency_percentile))
        en = None if energy_percentile is None else float(np.percentile(
            [device_world.energy_value(x, dev) for x in points], energy_percentile))
        assert bounds[dev.device_id] == ConstraintSpec(lat, en)
        charged[dev.device_id] = {metric: len(points) for metric in metrics}
    assert len(scalar_calls) == (512 if energy_percentile is None else 1024)
    assert cal_ledger.snapshot() == {"accuracy": 0, "devices": charged}


def refuse(*args, **kwargs):
    raise AssertionError("a run built a DesignPoint or called a reference value function")


@pytest.mark.parametrize(
    "doc", [SMALL_PROXY, with_key(SMALL_PROXY, "optimize.energy_percentile", 40.0),
            SMALL_AMORTIZED], ids=["proxy", "proxy-energy", "amortized"])
def test_runs_measure_index_tuples_only(monkeypatch, doc):
    # the oracle measures index tuples: the DesignPoint value view and the
    # value functions read by it are the reference, never a run's path
    scenario = scenario_from_dict(doc)
    expected = run_scenario(scenario).decision_dict()
    monkeypatch.setattr(DesignSpace, "design_at", refuse)
    for name in ("latency_value", "energy_value", "accuracy_value"):
        monkeypatch.setattr(device_world, name, refuse)
    assert run_scenario(scenario).decision_dict() == expected


@pytest.mark.parametrize("doc", [SMALL_PROXY, SMALL_AMORTIZED], ids=["proxy", "amortized"])
def test_skip_training_with_empty_dir_names_missing_file(tmp_path, doc):
    with pytest.raises(ConfigError, match=r"missing model file \(.*accuracy\.json\)"):
        run_scenario(scenario_from_dict(doc), out_dir=str(tmp_path), skip_training=True)


@pytest.fixture(scope="module")
def amortized_run(tmp_path_factory):
    """The output directory of a quick SMALL_AMORTIZED training run."""
    doc = with_key(SMALL_AMORTIZED, "predictor.epochs", 2)
    doc["optimize"]["optimizer_epochs"] = 2
    out = str(tmp_path_factory.mktemp("amortized_run"))
    run_scenario(scenario_from_dict(doc), out_dir=out)
    return out


def every(value):
    """A damage that sets every entry of a vector to value."""
    return lambda v: [value] * len(v)


@pytest.mark.parametrize("name, damage", [
    ("latency_proxy.json", '{"layer_sizes": ['),
    ("latency_proxy.json", '{"layer_sizes": [7, 32, 1]}'),
    ("accuracy.json", "[]"),
    ("latency_proxy.json", ("weights", lambda w: [w[0][:3], *w[1:]])),
    ("latency_proxy.json", ("in_mean", lambda v: v[:3])),
    ("accuracy.json", ("layer_sizes", lambda _: [7, 8, 8, 1])),
    ("latency_proxy.json", ("output_activation", lambda _: "relu")),
    ("accuracy.json", (None, lambda d: {**d, "layer_sizes": d["layer_sizes"][:1],
                                        "weights": [], "biases": []})),
    ("latency_proxy.json", ("in_scale", every(float("nan")))),
    ("latency_proxy.json", ("in_scale", every(0.0))),
    ("accuracy.json", ("in_mean", every(float("inf")))),
    ("latency_proxy.json", ("weights", lambda w: [*w[:-1], [[float("nan")]] * len(w[-1])])),
    ("accuracy.json", ("biases", lambda b: [*b[:-1], [float("-inf")]])),
    ("accuracy.json", ("out_mean", lambda _: float("nan"))),
    ("accuracy.json", ("out_scale", lambda _: float("nan"))),
    ("latency_proxy.json", ("out_scale", lambda _: 0.0)),
    ("latency_proxy.json", ("objective_scale", lambda _: -1.0)),
    ("latency_proxy.json", ("objective_scale", lambda _: float("inf"))),
    ("optimizer.json", ("in_scale", every(float("nan")))),
    ("optimizer.json", ("in_scale", every(0.0))),
], ids=["truncated", "missing-key", "not-an-object", "weight-rows-cut", "in-mean-cut",
        "layer-sizes-not-the-weights", "unknown-head", "no-layers", "in-scale-nan", "in-scale-zero",
        "in-mean-inf", "weight-nan", "bias-inf", "out-mean-nan", "out-scale-nan",
        "out-scale-zero", "objective-scale-negative", "objective-scale-inf",
        "optimizer-in-scale-nan", "optimizer-in-scale-zero"])
def test_skip_training_with_corrupt_model_file_exits_2(proxy_run, request, tmp_path, capsys,
                                                       name, damage):
    config, out = SMALL_PROXY, proxy_run[2]
    if name == "optimizer.json":  # the amortized approach's model file
        config, out = SMALL_AMORTIZED, request.getfixturevalue("amortized_run")
    shutil.copytree(os.path.join(out, "models"), tmp_path / "models")
    path = tmp_path / "models" / name
    if isinstance(damage, tuple):  # one key of the saved document rewritten (None: all)
        key, change = damage
        doc = json.loads(path.read_text())
        if key is None:
            doc = change(doc)
        else:
            doc[key] = change(doc[key])
        damage = json.dumps(doc)
    path.write_text(damage)
    cfg = write_config(tmp_path, config)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path), "--skip-training"]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"corrupt model file \(.*{re.escape(name)}\)", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [SMALL_PROXY, SMALL_AMORTIZED], ids=["proxy", "amortized"])
def test_skip_training_with_models_of_another_space_exits_2(tmp_path, capsys, doc):
    doc = with_key(doc, "predictor.epochs", 2)
    doc["optimize"]["optimizer_epochs"] = 2
    out = str(tmp_path / "run")
    assert main(["train-predictors", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    other = write_config(tmp_path, dict(doc, space="default"), "default.json")
    capsys.readouterr()
    assert main(["optimize", "--config", other, "--out", out, "--skip-training"]) == 2
    err = capsys.readouterr().err
    # the first file is the accuracy predictor: 7 encoded inputs, 13 in the default space
    assert re.search(r"model file \(.*accuracy\.json\) has 7 inputs.* needs 13", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, field, side", [
    ("latency_fleet.json", "layer_sizes", "inputs"),
    ("optimizer.json", "layer_sizes", "outputs"),
])
def test_skip_training_checks_device_aware_and_optimizer_widths(tmp_path, capsys, name, field,
                                                                side):
    doc = with_key(SMALL_AMORTIZED, "predictor.epochs", 2)
    doc["optimize"]["optimizer_epochs"] = 2
    out = tmp_path / "run"
    cfg = write_config(tmp_path, doc)
    assert main(["train-predictors", "--config", cfg, "--out", str(out)]) == 0
    path = out / "models" / name
    model = json.loads(path.read_text())
    end = 0 if side == "inputs" else -1
    model[field][end] -= 1  # a net one column short of this scenario's width
    if side == "inputs":  # whose weights and normalizers agree with its layer sizes
        model["weights"][0] = model["weights"][0][:-1]
        model["in_mean"], model["in_scale"] = model["in_mean"][:-1], model["in_scale"][:-1]
    else:
        model["weights"][-1] = [row[:-1] for row in model["weights"][-1]]
        model["biases"][-1] = model["biases"][-1][:-1]
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert main(["optimize", "--config", cfg, "--out", str(out), "--skip-training"]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"model file \(.*{re.escape(name)}\) has \d+ {side}", err), err



@pytest.mark.parametrize("source, stray, into, slot", [
    ("amortized", "latency_fleet.json", "proxy", "latency_proxy.json"),
    ("proxy", "accuracy.json", "proxy", "latency_proxy.json"),
    ("proxy", "latency_proxy.json", "amortized", "latency_fleet.json"),
], ids=["device-aware-latency", "accuracy", "device-specific-latency"])
def test_skip_training_refuses_a_model_file_of_another_slot(tmp_path, capsys, source, stray,
                                                            into, slot):
    # a predictor whose metric or takes_device is not its slot's: the first
    # swap used to end in a traceback, the second to run on the wrong model;
    # the third is the one check that Method 2 gets device-aware predictors
    proxy_doc = with_key(SMALL_PROXY, "predictor.epochs", 2)
    runs = {"proxy": proxy_doc,
            "amortized": with_key(with_key(SMALL_AMORTIZED, "predictor.epochs", 2),
                                  "optimize.optimizer_epochs", 2)}
    for name, doc in runs.items():
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert main(["train-predictors", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    shutil.copyfile(tmp_path / source / "models" / stray, tmp_path / into / "models" / slot)
    capsys.readouterr()
    assert main(["optimize", "--config", str(tmp_path / f"{into}.json"), "--out",
                 str(tmp_path / into), "--skip-training"]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"model file \(.*{re.escape(slot)}\) holds the predictor of metric",
                     err), err
    assert "Traceback" not in err

def test_export_rolls_back_on_failure(tmp_path):
    report = RunReport(
        scenario={}, fleet={}, rows=[], stage_counts={"per_target": {}},
        ledger={}, calibration_ledger={}, infeasible_count=0,
        ledger_csv="device_id,metric,count\n",
    )
    out = tmp_path / "run"
    out.mkdir()
    (out / "traces").write_text("in the way")
    trace = [{"device_id": "x", "iteration": 0, "t": 0.5, "measured_latency": 1.0,
              "verdict": "ok"}]
    with pytest.raises(FileExistsError):
        export_report(report, str(out), trace, {})
    assert not os.path.exists(out / "report.json")
    assert not os.path.exists(out / "ledger.csv")


def test_export_rolls_back_a_half_written_file(tmp_path, monkeypatch):
    def broken_save(model, path):
        with open(path, "w") as f:
            f.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "save_model", broken_save)
    doc = with_key(SMALL_PROXY, "predictor.epochs", 2)
    with pytest.raises(OSError, match="disk full"):
        run_scenario(scenario_from_dict(doc), out_dir=str(tmp_path))
    assert [name for _, _, names in os.walk(tmp_path) for name in names] == []


@pytest.mark.parametrize("doc", [SMALL_PROXY, SMALL_AMORTIZED], ids=["proxy", "amortized"])
def test_a_run_without_targets_writes_no_trace_table(tmp_path, doc):
    doc = with_key(doc, "predictor.epochs", 2)
    doc["optimize"]["optimizer_epochs"] = 2
    doc["fleet"] = dict(doc["fleet"], n_holdout_monotone=0, n_holdout_adversarial=0)
    out = tmp_path / "run"
    assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["rows"] == []
    assert not os.path.exists(out / "traces")


def test_a_gate_whose_probes_are_one_design_fails_without_a_traceback(tmp_path):
    # two designs: every probe of a target can draw the same one, so the
    # measured latencies are constant and the rank correlation is undefined
    doc = {"seed": 63,
           "space": {"depth_choices": [1], "width_choices": [1.0], "kernel_choices": [3],
                     "bits_choices": [8, 32]},
           "predictor": {"samples_per_device": 20, "epochs": 1, "hidden": [4]},
           "search": {"population": 2, "generations": 1}, "optimize": {"probe_count": 10},
           "fleet": {"n_training": 0, "n_synthetic": 0, "n_holdout_monotone": 8,
                     "n_holdout_adversarial": 0}}
    out = tmp_path / "run"
    assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", str(out)]) in (0, 3)
    trials = [t for row in json.loads((out / "report.json").read_text())["rows"]
              for t in row["match_trials"]]
    undefined = [t for t in trials if t["rho"] is None]
    assert undefined and not any(t["monotone"] for t in undefined)


def test_rows_to_csv_writes_what_dictwriter_writes():
    rows = [
        {"t": 0.1, "ok": True, "energy": None, "tiny": 1e-300, "note": "a,b"},
        {"t": -0.0, "ok": False, "energy": 3, "tiny": float("inf"), "note": 'say "hi"'},
        {"note": "", "tiny": 2.5e17, "energy": None, "ok": True, "t": 1 / 3},  # other order
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert pipeline._rows_to_csv(rows) == buf.getvalue()
    extra = {**rows[0], "chosen": False}
    missing = {k: v for k, v in rows[0].items() if k != "energy"}
    for bad in (extra, missing):
        with pytest.raises(ValueError):
            pipeline._rows_to_csv([rows[0], bad])
        with pytest.raises(ValueError):
            pipeline._rows_to_csv([bad, rows[0]])


# --- command line ------------------------------------------------------------


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "0 failures" in out


def test_cli_needs_config_or_seed(capsys):
    assert main(["gen-fleet"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bare_seed_is_bounded(capsys):
    assert main(["gen-fleet", "--seed", str(2**32)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")


def test_cli_gen_fleet(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_PROXY)
    assert main(["gen-fleet", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("fleet.json")
    with open(printed) as f:
        doc = json.load(f)
    assert len(doc["training_real"]) == 2
    assert len(doc["holdout_adversarial"]) == 1

    assert main(["gen-fleet", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["synthetic"]) == 16
    assert doc["proxy"]["device_id"] == "proxy"


def test_cli_cost_table(tmp_path, capsys):
    assert main(["cost-table", "--samples", "1000", "--seconds", "36", "--devices", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline_hours_per_device"] == 10.0
    assert doc["baseline_hours_total"] == 20.0
    assert main(["cost-table", "--out", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "cost_table.json")


@pytest.mark.parametrize("flag, value", [
    ("--samples", "0"), ("--samples", "-5"), ("--seconds", "0"), ("--seconds", "-1"),
    ("--seconds", "nan"), ("--seconds", "inf"), ("--devices", "-1"),
])
def test_cli_cost_table_rejects_bad_flags(capsys, flag, value):
    assert main(["cost-table", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert flag in captured.err
    assert captured.out == ""


def test_cli_optimize_config_errors(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err
    cfg = write_config(tmp_path, SMALL_PROXY)
    assert main(["optimize", "--config", cfg, "--approach", "bogus"]) == 2
    assert "approach" in capsys.readouterr().err



@pytest.mark.parametrize("argv, blocked, message", [
    (["optimize", "--config", "{d}/in-the-way"], "in-the-way", "cannot read config file"),
    (["report", "--out", "{d}"], "report.json", r"cannot read report \(.*report\.json\)"),
    (["optimize", "--config", "{d}/scenario.json", "--out", "{d}", "--skip-training"],
     "models/accuracy.json", r"cannot read .*accuracy\.json"),
], ids=["config", "report", "model"])
def test_an_unreadable_input_file_exits_2(tmp_path, capsys, argv, blocked, message):
    # each input path is a directory: read as a file it raises IsADirectoryError
    write_config(tmp_path, SMALL_PROXY)
    (tmp_path / blocked).mkdir(parents=True)
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, blocked", [
    (["cost-table"], "cost_table.json"),
    (["gen-fleet", "--config", "{d}/scenario.json"], "fleet.json"),
    (["train-predictors", "--config", "{d}/scenario.json"], "report.json"),
], ids=["cost-table", "gen-fleet", "train-predictors"])
def test_an_unwritable_output_file_exits_2(tmp_path, capsys, argv, blocked):
    # the output file's path is a directory: written as a file it raises
    # IsADirectoryError, and a run rolls back what it wrote before it
    write_config(tmp_path, with_key(SMALL_PROXY, "predictor.epochs", 2))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    before = sorted(os.walk(tmp_path))
    assert main([arg.format(d=tmp_path) for arg in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out / blocked}: Is a directory\n"
    assert sorted(os.walk(tmp_path)) == before


def test_cli_refuses_an_out_that_is_a_file_before_any_work(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SMALL_PROXY)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    def started(*args):
        raise AssertionError("a command started its work")

    for name in ("_load", "cost_accounting"):
        monkeypatch.setattr(f"fleetopt.cli.{name}", started)
    before = sorted(os.listdir(tmp_path))
    for argv in (["gen-fleet", "--config", cfg], ["cost-table"],
                 ["optimize", "--config", cfg], ["train-predictors", "--config", cfg]):
        assert main([*argv, "--out", str(taken)]) == 2, argv
        err = capsys.readouterr().err
        assert err == f"config error: --out {taken} is an existing file, not a directory\n"
    assert sorted(os.listdir(tmp_path)) == before
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("doc, key, value, model", [
    (SMALL_PROXY, "predictor.learning_rate", 1e6, "predictor"),
    (SMALL_AMORTIZED, "predictor.learning_rate", 1e6, "predictor"),
    (SMALL_AMORTIZED, "lambda_grid.max_lambda", 1e39, "optimizer network"),
], ids=["proxy", "amortized", "amortized-huge-lambda"])
def test_a_diverged_fit_exits_2_naming_the_model(tmp_path, doc, key, value, model):
    # in a child process, so its stderr is all the run prints: the one error
    # line, no RuntimeWarning of the overflowing steps before it
    doc = with_key(with_key(doc, key, value), "predictor.epochs", 5)
    doc["optimize"]["optimizer_epochs"] = 5
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "fleetopt", "optimize", "--config",
         write_config(tmp_path, doc), "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pipeline.__file__))},
    )
    assert proc.returncode == 2, proc.stderr
    assert re.search(rf"^config error: .*{model}.* diverged: non-finite training loss in "
                     r"epoch \d+; lower predictor\.learning_rate", proc.stderr, re.M), proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert not out.exists()

def test_cli_train_then_optimize_skip_training(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_PROXY)
    out = str(tmp_path / "run")
    assert main(["train-predictors", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().out.strip().endswith("models")
    assert os.path.exists(os.path.join(out, "models", "latency_proxy.json"))

    assert main(["optimize", "--config", cfg, "--out", out, "--skip-training"]) == 0
    stdout = capsys.readouterr().out
    assert "mono-00: design=" in stdout
    assert "[ok]" in stdout
    assert os.path.exists(os.path.join(out, "report.json"))


def test_cli_optimize_infeasible_exit_code(tmp_path, capsys):
    # mono-00's design is predicted to break its bound but measures under it;
    # the measurement decides, so nothing is flagged
    cfg = write_config(tmp_path, SMALL_AMORTIZED)
    assert main(["optimize", "--config", cfg]) == 0
    assert "INFEASIBLE" not in capsys.readouterr().out


def test_amortized_verdict_follows_measurement(tmp_path, capsys):
    doc = with_key(with_key(SMALL_AMORTIZED, "optimize.latency_percentile", 5.0), "seed", 3)
    out = str(tmp_path / "run")
    assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    stdout = capsys.readouterr().out
    assert re.search(r"^adv-00: design=.* \[INFEASIBLE\]$", stdout, re.M)
    assert re.search(r"^mono-00: design=.* \[ok\]$", stdout, re.M)
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    mono, adv = report["rows"]
    # predicted to break its bound, measured under it
    assert not mono["predicted_feasible"] and mono["feasible"]
    assert mono["measured_latency"] <= mono["latency_bound"]
    # predicted to meet its bound, measured over it
    assert adv["predicted_feasible"] and not adv["feasible"]
    assert adv["measured_latency"] > adv["latency_bound"]
    assert report["infeasible_count"] == 1


def test_cli_report(proxy_run, tmp_path, capsys):
    _, report, out = proxy_run
    code = main(["report", "--out", out])
    assert code == (3 if report.infeasible_count else 0)
    stdout = capsys.readouterr().out
    assert "approach: proxy" in stdout
    assert "targets: 2" in stdout
    assert main(["report", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("content", ['{"scenario": {', '{"scenario": {"approach": "proxy", "seed": 1}}'],
                         ids=["truncated", "missing-key"])
def test_cli_report_on_corrupt_report_exits_2(tmp_path, capsys, content):
    (tmp_path / "report.json").write_text(content)
    assert main(["report", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert re.search(r"corrupt report \(.*report\.json\)", captured.err), captured.err
    assert captured.out == ""


def test_cli_report_shows_what_each_verdict_rested_on(proxy_run, tmp_path, capsys):
    _, report, out = proxy_run
    with open(os.path.join(out, "report.json")) as f:
        doc = json.load(f)
    mono, adv = doc["rows"]
    # a row judged on both bounds: its energy measurement broke the energy bound
    adv.update(energy_bound=38.5, measured_energy=140.5, feasible=False)
    doc["infeasible_count"] = 1
    (tmp_path / "report.json").write_text(json.dumps(doc))
    assert main(["report", "--out", str(tmp_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    mono_line = next(line for line in lines if "mono-00" in line)
    adv_line = next(line for line in lines if "adv-00" in line)
    assert (f"latency={mono['measured_latency']:.4f}/{mono['latency_bound']:.4f}  feasible"
            in mono_line)
    assert "energy=" not in mono_line
    assert (f"latency={adv['measured_latency']:.4f}/{adv['latency_bound']:.4f}  "
            "energy=140.5000/38.5000  INFEASIBLE") in adv_line


def test_cli_report_prints_the_mean_per_target_measurements_beside_the_max(tmp_path, capsys):
    doc = {"scenario": {"approach": "proxy", "seed": 1}, "infeasible_count": 0, "rows": [],
           "stage_counts": {"per_target": {"a": 20, "b": 23, "c": 30}}}
    (tmp_path / "report.json").write_text(json.dumps(doc))
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "max per-target measurements: 30  mean: 24.33")


def test_cli_report_prints_a_proxy_runs_gate_and_solve_means(proxy_run, capsys):
    _, report, out = proxy_run
    assert main(["report", "--out", out]) == 0
    probes = statistics.fmean(row["probe_measurements"] for row in report.rows)
    solve = statistics.fmean(row["optimize_measurements"] for row in report.rows)
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        f"  gate probes: {probes:.2f}  solve: {solve:.2f}")


class ClosedPipe:
    """A stdout whose reader has gone, as under `fleetopt report ... | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_ends_quietly_with_the_command_exit_code(
        proxy_run, tmp_path, capsys, monkeypatch):
    _, report, out = proxy_run
    with open(os.path.join(out, "report.json")) as f:
        doc = json.load(f)
    doc["infeasible_count"] = 1
    (tmp_path / "report.json").write_text(json.dumps(doc))
    for argv, code in [(["report", "--out", out], 3 if report.infeasible_count else 0),
                       (["report", "--out", str(tmp_path)], 3),
                       (["gen-fleet", "--seed", "3"], 0)]:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == code
    assert capsys.readouterr().err == ""


def test_module_entry_point():
    proc = subprocess.run(
        ["python3", "-m", "fleetopt", "cost-table", "--samples", "360",
         "--seconds", "10", "--devices", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["baseline_hours_per_device"] == 1.0
