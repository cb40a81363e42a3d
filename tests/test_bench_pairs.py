import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"deploy_s": {"better": "lower", "bound": 0.25},
        "true_accuracy": {"better": "higher", "bound": 0.1},
        "trace.spans": {"better": "lower"}}


def lines(**metrics):
    """Result lines, one per pair, from per-metric value lists."""
    n = len(next(iter(metrics.values())))
    return [{"correct": True, "attempted": 256, "failed": 0,
             "metrics": {name: {"value": values[i], "unit": "-"}
                         for name, values in metrics.items()}} for i in range(n)]


def test_summary_counts_wins_quartiles_and_the_gain_rule():
    parent = [0.100, 0.104, 0.098, 0.102, 0.101, 0.099, 0.103, 0.097, 0.105, 0.100]
    # nine pairs faster, one tie
    change = [0.090, 0.093, 0.088, 0.091, 0.089, 0.092, 0.090, 0.094, 0.090, 0.100]
    acc = [0.867] * 10
    s = bench_pairs.summarize(lines(deploy_s=parent, true_accuracy=acc, **{"trace.spans": acc}),
                              lines(deploy_s=change, true_accuracy=acc, **{"trace.spans": acc}),
                              SPEC)
    d = s["deploy_s"]
    assert (d["change_wins"], d["ties"]) == (9, 1)
    # inclusive quartiles of the ten parent values, sorted:
    # 0.097 0.098 0.099 0.100 0.100 0.101 0.102 0.103 0.104 0.105
    assert d["parent_median"] == pytest.approx(0.1005)
    assert d["parent_q1"] == pytest.approx(0.09925)
    assert d["parent_q3"] == pytest.approx(0.10275)
    assert d["parent_iqr"] == pytest.approx(0.0035)
    assert d["change_median"] == pytest.approx(0.0905)
    assert d["median_change_rel"] == pytest.approx(-0.01 / 0.1005)
    assert d["gain_rule"] and d["within_bound"]
    a = s["true_accuracy"]
    assert (a["change_wins"], a["ties"], a["gain_rule"], a["within_bound"]) == (0, 10, False, True)
    assert "bound" not in s["trace.spans"]
    text = bench_pairs.format_summary(s)
    assert text[0].startswith("deploy_s: parent 0.1005 [0.09925, 0.10275]  change 0.0905")
    assert "wins 9/10, ties 1  gain rule holds  within bound" in text[0]


def test_gain_rule_needs_nine_tenths_of_ten_pairs_and_a_gap_past_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]

    def rule(change, better="lower", n=10):
        spec = {"deploy_s": {"better": better}}
        return bench_pairs.summarize(lines(deploy_s=parent[:n]), lines(deploy_s=change[:n]),
                                     spec)["deploy_s"]

    # every pair won by 0.05, but the parent's IQR is 0.45
    assert not rule([v - 0.05 for v in parent])["gain_rule"]
    assert rule([v - 0.5 for v in parent])["gain_rule"]
    # 8 of 10 wins is too few, whatever the gap
    eight = [v - 1.0 for v in parent[:8]] + [v + 1.0 for v in parent[8:]]
    assert rule(eight)["change_wins"] == 8 and not rule(eight)["gain_rule"]
    # higher is better: the same values are all losses
    assert rule([v - 0.5 for v in parent], better="higher")["change_wins"] == 0
    # fewer than ten pairs never claim a gain
    assert not rule([v - 0.5 for v in parent], n=9)["gain_rule"]


def test_a_worse_median_past_the_bound_is_flagged():
    s = bench_pairs.summarize(lines(deploy_s=[0.10, 0.10]), lines(deploy_s=[0.13, 0.12]),
                              {"deploy_s": {"better": "lower", "bound": 0.2}})["deploy_s"]
    assert s["median_change_rel"] == pytest.approx(0.25) and not s["within_bound"]
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        bench_pairs.summarize(lines(deploy_s=[0.1]), [], {"deploy_s": {"better": "lower"}})
