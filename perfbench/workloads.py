"""Workload definitions and set-up: the seeded scene streams, the root
filter and the workload fingerprint.

A workload is a fixed stream of generator seeds for one scene kind, the
planners run on every kept scene, and one per-query timeout. A scene is kept
only if the independently optimal per-agent paths conflict at the root, so
every kept query exercises the constraint tree (or, for pp, the pairwise
hard filter). The benchmark's ``--seed`` never changes which scenes are
kept; it orders the queries of each pass.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass

import mamp
from mamp.lowlevel import LLParams

# Generator seeds are explicit ranges so the stream is visible in the
# fingerprint; the two arm workloads share one stream on purpose (read side
# and fill side of the domain caches on the same scenes).
WORKLOADS = {
    "grid-focal": dict(kind="corridor-grid", params=dict(n=10, width=12, height=12),
                       seeds=range(1000, 1016), planners=("ecbs", "xecbs", "pp"),
                       timeout=2.0),
    "arm-optimal": dict(kind="circle-arms", params=dict(n=3),
                        seeds=range(2000, 2013), planners=("cbs", "xcbs"),
                        timeout=1.0),
    "arm-focal": dict(kind="circle-arms", params=dict(n=3),
                      seeds=range(2000, 2013), planners=("ecbs", "xecbs"),
                      timeout=1.0),
}

# PlannerConfig fields that decide a query's behaviour. Listing them (rather
# than hashing the whole dataclass) keeps the fingerprint stable when a
# field that changes nothing is added.
CONFIG_FIELDS = ("variant", "w1L", "w2L", "wH", "use_experience",
                 "experience_source", "timeout", "termination", "cache",
                 "horizon", "tmax")


@dataclass(frozen=True)
class KeptScene:
    seed: int
    doc: str
    scene: "mamp.Scene"
    sic: int                 # sum of optimal single-agent costs (A*)
    root_conflicts: int      # conflicts among the unit-weight root paths


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: dict
    planners: dict           # name -> PlannerConfig
    timeout: float
    scenes: tuple            # KeptScene, in seed order
    skipped: tuple           # seeds whose root paths do not conflict
    defects: tuple           # root-filter disagreements with the A* oracle

    @property
    def queries(self) -> list[tuple[KeptScene, str]]:
        return [(s, p) for s in self.scenes for p in self.planners]

    def fingerprint(self) -> str:
        """Hash of everything that defines the inputs: scene documents,
        kept and skipped seeds, planner configs and the timeout."""
        doc = {
            "kind": self.kind, "params": self.params, "timeout": self.timeout,
            "kept": {str(s.seed): s.doc for s in self.scenes},
            "skipped": list(self.skipped),
            "planners": {name: {f: getattr(cfg, f) for f in CONFIG_FIELDS}
                         for name, cfg in self.planners.items()},
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def optimal_cost(domain, agent: int, start, goal) -> int | None:
    """Optimal single-agent cost by A* over unit lattice moves (one
    coordinate by +-1) that pass the domain's static state and edge checks,
    guided by the L1 distance, which no unit move can shrink by more than 1.
    Independent of the planner's own search code."""
    start, goal = tuple(start), tuple(goal)

    def h(q):
        return sum(abs(a - b) for a, b in zip(q, goal))
    dist = {start: 0}
    heap = [(h(start), 0, start)]
    while heap:
        _, g, q = heapq.heappop(heap)
        if q == goal:
            return g
        if g > dist[q]:
            continue
        for k in range(len(q)):
            for d in (1, -1):
                q2 = q[:k] + (q[k] + d,) + q[k + 1:]
                if g + 1 >= dist.get(q2, g + 2):
                    continue
                if domain.is_state_valid(agent, q2) and domain.is_edge_valid(agent, q, q2):
                    dist[q2] = g + 1
                    heapq.heappush(heap, (g + 1 + h(q2), g + 1, q2))
    return None


def build_workload(name: str, generate=None, parse=None) -> Workload:
    """Generate the workload's scene stream and apply the root filter.

    ``generate`` and ``parse`` default to ``mamp.generate_scene`` and
    ``mamp.parse_scene``; the traced run passes timed wrappers."""
    spec = WORKLOADS[name]
    generate = generate or mamp.generate_scene
    parse = parse or mamp.parse_scene
    stock = mamp.default_paper_params(timeout=spec["timeout"])
    planners = {p: stock[p] for p in spec["planners"]}
    kept, skipped, defects = [], [], []
    for seed in spec["seeds"]:
        doc = generate(spec["kind"], seed=seed, **spec["params"])
        scene = parse(doc, name=f"{spec['kind']}-{seed}")
        domain = scene.build_domain()
        paths, sic = [], 0
        for i, (s, g) in enumerate(zip(scene.starts, scene.goals)):
            res = mamp.solve(domain, i, s, g, params=LLParams())
            best = optimal_cost(domain, i, s, g)
            if not res.success or best is None or res.cost != best:
                defects.append(f"seed {seed} agent {i}: solve {res.status} cost "
                               f"{res.cost}, A* cost {best}")
                best = best if best is not None else 0
            paths.append(res.path if res.success else mamp.Path((tuple(s),)))
            sic += best
        root = len(mamp.detect_conflicts(paths, domain))
        if root:
            kept.append(KeptScene(seed, doc, scene, sic, root))
        else:
            skipped.append(seed)
    return Workload(name, spec["kind"], dict(spec["params"]), planners,
                    spec["timeout"], tuple(kept), tuple(skipped), tuple(defects))
