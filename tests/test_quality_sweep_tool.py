import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = importlib.util.spec_from_file_location(
    "quality_sweep", os.path.join(ROOT, "tools", "quality_sweep.py"))
quality_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(quality_sweep)


def test_a_checkout_compared_with_itself_differs_by_zero(capsys):
    assert quality_sweep.main([ROOT, ROOT, "--scenario", "proxy", "proxy-latency",
                               "--seeds", "23", "--percentiles", "40", "--toy"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" accuracy ")[0].rstrip() for line in lines] == [
        "proxy seed 23 p40 toy", "proxy-latency seed 23 p40 toy"]
    for line in lines:
        assert "(+0.00000)" in line and "(+0.00)" in line
        assert "violations 0 -> 0" in line


def test_a_cell_sets_the_latency_percentile_over_its_scenario():
    doc = quality_sweep.cell_doc("proxy-latency", 57, 5)
    assert doc["seed"] == 57 and doc["approach"] == "proxy"
    assert doc["optimize"] == {"latency_percentile": 5.0}
    assert doc["predictor"] == {"epochs": 150}  # the workload's own overrides stay
    assert quality_sweep.cell_doc("proxy", 23, 15) == {
        "seed": 23, "approach": "proxy", "optimize": {"latency_percentile": 15.0}}
    toy = quality_sweep.cell_doc("proxy", 23, 40, toy=True)
    assert toy["space"] == "reduced" and toy["fleet"]["n_holdout_monotone"] == 2
