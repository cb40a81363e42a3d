import importlib.util
import json
import os

from fleetopt.device_world import accuracy_value
from fleetopt.pipeline import run_scenario
from fleetopt.scenario import load_scenario

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "quality.py")
spec = importlib.util.spec_from_file_location("quality", TOOL)
quality = importlib.util.module_from_spec(spec)
spec.loader.exec_module(quality)

TOY = {"seed": 5, "approach": "proxy", "space": "reduced",
       "predictor": {"samples_per_device": 40, "epochs": 5, "hidden": [8]},
       "search": {"population": 8, "generations": 4},
       "optimize": {"latency_percentile": 15.0, "probe_count": 10},
       "fleet": {"n_training": 0, "n_synthetic": 0,
                 "n_holdout_monotone": 2, "n_holdout_adversarial": 2}}


def test_quality_reads_true_accuracy_and_a_run_against_itself_differs_by_zero(tmp_path,
                                                                              capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(TOY))
    scenario = load_scenario(str(config))
    run = tmp_path / "run"
    run_scenario(scenario, out_dir=str(run))
    report = json.loads((run / "report.json").read_text())
    rows = quality.target_quality(scenario, report)
    space = scenario.space
    assert [r["device_id"] for r in rows] == [r["device_id"] for r in report["rows"]]
    for got, row in zip(rows, report["rows"]):
        assert got["accuracy"] == accuracy_value(space.design_at(row["design"]), space)
        # the simulator's measurement is the truth the tool recomputes
        assert got["latency_ratio"] == row["measured_latency"] / row["latency_bound"]
        assert got["energy_ratio"] is None
        assert got["violates"] == (got["latency_ratio"] > 1.0 + scenario.delta_fraction)
    per_target, per_family = quality.differences(rows, rows)
    assert set(per_target.values()) == {0.0}
    assert per_family == {"adversarial": 0.0, "monotone": 0.0, "all": 0.0}
    assert quality.main([str(config), str(run), str(run)]) == 0
    out = capsys.readouterr().out
    assert "mean accuracy all" in out and "vs base +0.0000" in out
