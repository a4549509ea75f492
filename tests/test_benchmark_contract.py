"""The benchmark (perfbench/run.py) refuses to report, exiting 3, when a
workload's fingerprint differs from the one recorded in
perfbench/design.json. The fingerprint covers the generated scenes, the
root filter's verdicts and the planner configs, so a change to a
`PlannerConfig` field or to a scene generator would silently disable the
benchmark; this test catches it."""

import importlib.util
import json
import os
import sys

_PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(_PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


def test_workload_fingerprints_match_design():
    workloads = _load_workloads()
    with open(os.path.join(_PERFBENCH, "design.json")) as fh:
        design = json.load(fh)["workloads"]
    assert sorted(design) == sorted(workloads.WORKLOADS)
    got = {name: workloads.build_workload(name).fingerprint() for name in design}
    want = {name: w["recorded"]["fingerprint"] for name, w in design.items()}
    assert got == want
