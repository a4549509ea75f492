"""`tools/ab_pairs.py` reads a benchmark result off its last stdout line and
applies the gain rule: at least nine tenths of the pairs won, and a gap in
medians wider than the parent's quartile spread."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab_pairs.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_pairs_tool", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(**metrics):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    return "workload grid-focal: ...\n  query_s_p50 = 0.02 s\n" + json.dumps(result) + "\n"


def test_reads_the_last_line():
    tool = _load_tool()
    assert tool.read_result(_stdout(query_s_p50=0.0187))["metrics"] == \
        {"query_s_p50": {"value": 0.0187, "unit": "s"}}
    with pytest.raises(ValueError):
        tool.read_result("\n\n")
    assert tool.parse_seeds("401-404") == [401, 402, 403, 404]
    assert tool.parse_seeds("7,9") == [7, 9]


def test_quartiles_and_verdicts():
    tool = _load_tool()
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([2.5]) == (2.5, 2.5, 2.5)
    spec = {"query_s_p50": ("lower", 0.25), "success_rate": ("higher", 0.05)}
    old = [0.0190, 0.0186, 0.0188, 0.0187, 0.0189, 0.0186, 0.0190, 0.0187, 0.0188, 0.0189]
    new = [0.0160, 0.0158, 0.0157, 0.0156, 0.0159, 0.0157, 0.0191, 0.0155, 0.0156, 0.0157]
    pairs = [({"query_s_p50": a, "success_rate": 0.95},
              {"query_s_p50": b, "success_rate": 0.95}) for a, b in zip(old, new)]
    p50, success = tool.summarize(pairs, spec)
    # 9 of 10 pairs won (the seventh is lost), and the gap in medians
    # (0.01880 - 0.01570) exceeds the parent's spread (0.01890 - 0.01870)
    assert (p50["wins"], p50["losses"], p50["ties"]) == (9, 1, 0)
    assert p50["parent"] == pytest.approx((0.0187, 0.0188, 0.0189))
    assert p50["change"][1] == pytest.approx(0.0157)
    assert p50["gain"] and p50["worse"] == "within bound"
    assert (success["wins"], success["ties"], success["gain"]) == (0, 10, False)
    # one more lost pair: 8 of 10 is below nine tenths
    pairs[0][1]["query_s_p50"] = 0.0200
    assert not tool.summarize(pairs, spec)[0]["gain"]


def test_worse_and_unresolved():
    tool = _load_tool()
    spec = {"solved_per_s": ("higher", 0.1)}

    def rows(old, new):
        return tool.summarize([({"solved_per_s": a}, {"solved_per_s": b})
                               for a, b in zip(old, new)], spec)[0]
    assert rows([6.0, 6.1, 6.0, 5.9], [5.0, 5.1, 5.2, 5.0])["worse"] == "worse"
    assert rows([6.0, 6.1, 6.0, 5.9], [5.9, 6.0, 6.1, 5.8])["worse"] == "within bound"
    # the parent's spread (5.0 .. 9.0 quartiles) exceeds the 10% bound
    noisy = [4.0, 5.0, 9.0, 10.0, 5.0, 9.0]
    assert rows(noisy, [5.0] * 6)["worse"] == "unresolved"
    assert rows(noisy, [11.0] * 6)["worse"] == "within bound"  # all runs better
