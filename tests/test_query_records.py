"""`tools/query_records.py --diff` compares two record files: fields of the
queries that finished on both sides, then the queries that finished on one
side only."""

import importlib.util
import json
import os

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "query_records.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("query_records_tool", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_diff_reports_fields_sums_and_one_sided_queries(tmp_path, capsys):
    tool = _load_tool()
    old = _write(tmp_path / "old.jsonl", [
        {"key": "1:ecbs", "status": "success", "collision_checks": 10, "paths": "a"},
        {"key": "2:ecbs", "status": "success", "collision_checks": 7, "paths": "b"},
        {"key": "3:ecbs", "status": "success", "collision_checks": 5, "paths": "c"},
        {"key": "4:ecbs", "status": "timeout", "collision_checks": 9}])
    new = _write(tmp_path / "new.jsonl", [
        {"key": "1:ecbs", "status": "success", "collision_checks": 4, "paths": "a"},
        {"key": "2:ecbs", "status": "success", "collision_checks": 7, "paths": "b"},
        {"key": "3:ecbs", "status": "timeout", "collision_checks": 8},
        {"key": "4:ecbs", "status": "exhausted", "collision_checks": 3}])
    assert tool.main(["--diff", old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "1:ecbs collision_checks: 10 -> 4",
        "2 queries finished on both sides, 1 equal in every field",
        "collision_checks differs on 1; summed 17 -> 11",
        "3:ecbs finished on the old side only",
        "4:ecbs finished on the new side only"]
    assert tool.main(["--diff", old, old]) == 0
