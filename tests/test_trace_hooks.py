"""The benchmark's per-layer tracer patches program names from outside the
program. A refactor that renames or bypasses one of them would silently
zero a layer's metrics, so every hook must resolve and fire on a small
constraint-tree query and a prioritized query, and the pair narrow phase
must fire on an arm query."""

import importlib.util
import os

from mamp import GridDomain, PlannerConfig, run_planner

from corpus import two_link_arm_pair

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_and_fires():
    tracing = _load_tracing()
    tr = tracing.Tracer()
    shortcut_scans = 0
    with tr.installed():  # raises AttributeError if a patched name is gone
        for variant in ("ecbs", "pp"):
            domain = GridDomain(3, 2)
            tr.instrument(domain)
            res = run_planner(domain, [(0, 0), (2, 0)], [(2, 0), (0, 0)],
                              PlannerConfig.make(variant, w1L=2.0, timeout=10.0))
            assert res.success
            before = tr.calls["detect_conflicts"]
            tr.shortcut(res.solution, domain)
            shortcut_scans += tr.calls["detect_conflicts"] - before
    names = ("plan", "plan_prioritized", "expand_ct_node", "detect_conflicts",
             "conflicts_with_agent", "solve", "get_successors", "CTQueue.pop",
             "shortcut_solution") + tracing.DOMAIN_METHODS
    assert [n for n in names if tr.calls[n] == 0] == []
    assert shortcut_scans == 2  # postprocess.detect_conflicts, once per query
    assert tr.events["replans"] > 0


def test_arm_pair_narrow_phase_fires():
    tracing = _load_tracing()
    tr = tracing.Tracer()
    with tr.installed():
        domain = two_link_arm_pair()
        tr.instrument(domain)
        res = run_planner(domain, [(16, 0), (0, 0)], [(4, 0), (12, 0)],
                          PlannerConfig.make("ecbs", w1L=2.0, timeout=10.0))
    assert res.success
    assert tr.calls["_check_pairwise"] > 0  # feeds domains.narrow_s
