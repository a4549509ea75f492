"""Constraint-tree search over per-agent paths, plus the baselines.

One parameterized best-first/focal search covers the whole family:

* cbs    -- best-first on cost, unit weights everywhere; optimal.
* ecbs   -- focal: OPEN by the per-node lower bound LB, membership
            cost <= wH*min LB, FOCAL by conflict count; bounded sub-optimal.
* xcbs   -- cbs + experience: each replan is warm-started with the path
            it replaces, the replanned agent's path in the parent node.
* xecbs  -- ecbs + experience; as the low level is given the other agents'
            paths, the experience walk also stops at a step that hits one.

Both levels run the same focal search: CT nodes go through
`lowlevel.FocalQueue`, with `CTQueue` supplying the keys of either shape.

`plan_prioritized` is the sequential baseline (incomplete by design) and
`plan_coupled_oracle` searches the composite space exhaustively; it is exact
and only meant for desk-scale cross-checking.

`plan`, `plan_prioritized` and `plan_coupled_oracle` share one query frame
(`_Query`). A query whose starts or goals put two agents' bodies in contact
ends `infeasible` before any search: agents park at their goals for good,
so colliding goals are never reached.

A planning query runs single-threaded over its own queues; domains are
read-only during a query apart from their counters and memo tables.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from .core import (EDGE, Conflict, Constraint, ConstraintIndex, Path, Solution,
                   conflict_to_constraints, conflicts_with_agent,
                   detect_conflicts, first_change, path_cost, step_collides,
                   violates)
from .domains.base import ConflictTable, LatticeDomain
from . import lowlevel
from .lowlevel import LLParams

VARIANTS = ("cbs", "ecbs", "xcbs", "xecbs", "pp")
EPS = 1e-6  # tolerance of the certificate's bound check
BRANCHING_LIMIT = 4096  # largest composite branching factor the oracle takes


class OracleGuardError(RuntimeError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    variant: str
    w1L: float = 1.0
    w2L: float = 1.0
    wH: float = 1.0
    timeout: float = 60.0
    horizon: int | None = None

    # Constants, readable for config fingerprints: replans are warm-started
    # with the path they replace, the experience walk's stop rule follows
    # from `focal` (see `solve`), and caching is the domain's argument.
    experience_source = "parent-path"
    termination = None
    cache = True
    tmax = lowlevel.TMAX  # caps the default low-level horizon

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown planner variant {self.variant!r}")
        if not all(1.0 <= w < math.inf for w in (self.w1L, self.w2L, self.wH)):
            raise ValueError("suboptimality factors must be >= 1 and finite")
        if not self.timeout >= 0:
            raise ValueError("timeout must be >= 0")
        fixed_unit = {
            "cbs": ("w1L", "w2L", "wH"),
            "xcbs": ("w2L", "wH"),
            "pp": ("w2L", "wH"),
        }.get(self.variant, ())
        for name in fixed_unit:
            if getattr(self, name) != 1.0:
                raise ValueError(f"{self.variant} requires {name} = 1")

    @staticmethod
    def make(variant: str, **kw) -> "PlannerConfig":
        return PlannerConfig(variant.lower(), **kw)

    # derived search-shape switches
    @property
    def use_experience(self) -> bool:
        return self.variant in ("xcbs", "xecbs")

    @property
    def focal(self) -> bool:
        return self.variant in ("ecbs", "xecbs")

    @property
    def bound_factor(self) -> float:
        return self.w1L * self.w2L * self.wH


@dataclass(eq=False)
class CTNode:
    index: int
    constraints: frozenset[Constraint]
    paths: tuple[Path, ...]
    cost: int
    conflicts: tuple[Conflict, ...]
    lbs: tuple[float, ...]
    in_open: bool = field(default=False, repr=False)

    @property
    def lb_total(self) -> float:
        return sum(self.lbs)


@dataclass
class PlanResult:
    status: str                 # success | infeasible | exhausted | timeout
    solution: Solution | None = None
    cost: int | None = None
    lb: float | None = None     # min LB (focal) or cost over CT OPEN at acceptance
    ct_expansions: int = 0
    ll_expansions: int = 0
    collision_checks: int = 0
    wall_time: float = 0.0
    constraints: frozenset[Constraint] | None = None

    @property
    def success(self) -> bool:
        return self.status == "success"


class CTQueue(lowlevel.FocalQueue):
    """The shared OPEN/FOCAL queue keyed for CT nodes. Focal: OPEN by LB,
    membership by cost <= wH * min LB, FOCAL by conflict count, then cost.
    When no node is within the bound (cost can exceed LB), the bound drops
    to the cheapest open cost if wH > 1; at wH = 1 the min-LB node is
    selected. Otherwise all three keys are the cost: plain best-first on
    cost. Ties go to the earlier-created node."""

    def __init__(self, wH: float, focal: bool):
        super().__init__(w2=wH)
        self.focal = focal

    def _keys(self, n: CTNode):
        cost = float(n.cost)
        if self.focal:
            return (n.lb_total, n.index), cost, (len(n.conflicts), cost, n.index)
        key = (cost, n.index)
        return key, cost, key


class _Query:
    """Frame of one planning query, whichever planner runs it: the
    normalised instance, the clock and deadline, the geometry-counter
    snapshot and the low-level tally."""

    def __init__(self, domain: LatticeDomain, starts, goals,
                 deadline: float | None):
        self.starts = [tuple(s) for s in starts]
        self.goals = [tuple(g) for g in goals]
        self.n = len(self.starts)
        if len(self.goals) != self.n or getattr(domain, "num_agents", self.n) != self.n:
            raise ValueError("mismatched agent counts")
        self.domain, self.deadline = domain, deadline
        self.ll_expansions = 0
        self.t0 = time.perf_counter()
        self.checks0 = domain.stats.geometry_checks

    def clash(self) -> bool:
        """Two agents' bodies touch at the starts or at the goals."""
        return any(map(self.domain.configs_collide, (self.starts, self.goals)))

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def end(self, status: str, **kw) -> PlanResult:
        checks = self.domain.stats.geometry_checks - self.checks0
        return PlanResult(status, ll_expansions=self.ll_expansions,
                          collision_checks=checks,
                          wall_time=time.perf_counter() - self.t0, **kw)


def _arrival(c: Conflict) -> int:
    """The timestep a conflict ends at: its own for a vertex conflict, the
    next one for an edge conflict."""
    return c.time + (c.kind == EDGE)


def expand_ct_node(domain: LatticeDomain, node: CTNode, starts, goals,
                   config: PlannerConfig, llp: LLParams, deadline: float | None,
                   indexer, table: ConflictTable | None = None
                   ) -> tuple[list[CTNode], int, bool]:
    """Branch on the first conflict: one child per derived constraint, with
    only the affected agent replanned, warm-started (with experience on)
    from the path it replaces. A focal replan counts conflicts against
    ``table`` (empty if not given) less its agent, after each `Path` of
    ``node`` that the table does not hold as the same object is swapped in.
    A failed replan makes no child. Returns (children, LL expansions, timed_out)."""
    if config.focal:
        table = domain.Table() if table is None else table
        for j, path in enumerate(node.paths):
            if table.path(j) is not path:
                table.set(j, path)
    children: list[CTNode] = []
    ll_total = 0
    for c in conflict_to_constraints(node.conflicts[0]):
        agent = c.agent
        new_constraints = node.constraints | {c}
        cidx = ConstraintIndex(new_constraints, agent)
        child_llp = llp
        if llp.horizon is not None and llp.horizon < cidx.max_time + 1:
            child_llp = replace(llp, horizon=cidx.max_time + 1)
        others = table.derive(agent) if config.focal else None
        experience = node.paths[agent].waypoints if config.use_experience else ()
        res = lowlevel.solve(domain, agent, starts[agent], goals[agent], cidx,
                             experience, child_llp, other_paths=others,
                             deadline=deadline)
        ll_total += res.expansions
        if res.status == "timeout":
            return children, ll_total, True
        if not res.success:
            continue
        new_paths = node.paths[:agent] + (res.path,) + node.paths[agent + 1:]
        new_lbs = node.lbs[:agent] + (max(node.lbs[agent], res.lower_bound),) \
            + node.lbs[agent + 1:]
        # The replanned agent's pairs keep the conflicts that arrive before
        # its path's first change and are rescanned from there. The new
        # constraint forbids the old path's vertex or move at the branched
        # conflict, so first_change (capped at the shorter path's end) is at
        # most its arrival; the slice drops it on a hand-built node, too.
        since = first_change(node.paths[agent], res.path)
        kept = [cf for cf in node.conflicts[1:]
                if agent not in cf.agents or _arrival(cf) < since]
        kept.extend(conflicts_with_agent(new_paths, domain, agent, since))
        kept.sort(key=Conflict.sort_key)
        child = CTNode(next(indexer), new_constraints, new_paths,
                       node.cost - path_cost(node.paths[agent]) + res.cost,
                       tuple(kept), new_lbs)
        children.append(child)
    return children, ll_total, False


def plan(domain: LatticeDomain, starts, goals, config: PlannerConfig) -> PlanResult:
    """Constraint-tree search; returns a conflict-free solution whose cost is
    within w1L*w2L*wH of the optimal sum of costs, or a failure result on
    colliding starts or goals, timeout or exhaustion."""
    query = _Query(domain, starts, goals, time.monotonic() + config.timeout)
    if query.clash():
        return query.end("infeasible")
    starts, goals, deadline = query.starts, query.goals, query.deadline
    llp = LLParams(w1=config.w1L, w2=config.w2L,
                   f2="conflicts" if config.focal else "f1", horizon=config.horizon)
    paths, lbs = [], []
    for i in range(query.n):
        res = lowlevel.solve(domain, i, starts[i], goals[i], (), (), llp,
                             deadline=deadline)
        query.ll_expansions += res.expansions
        if res.status == "timeout":
            return query.end("timeout")
        if not res.success:
            return query.end("infeasible")
        paths.append(res.path)
        lbs.append(res.lower_bound)

    root = CTNode(0, frozenset(), tuple(paths),
                  sum(path_cost(p) for p in paths),
                  tuple(detect_conflicts(paths, domain)), tuple(lbs))
    queue = CTQueue(config.wH, config.focal)
    queue.insert(root)
    indexer = itertools.count(1)
    ct_expansions = 0
    # the paths of the node last expanded, kept current one agent at a time
    table = domain.Table()

    while True:
        if query.expired():
            return query.end("timeout", ct_expansions=ct_expansions)
        node = queue.pop()
        if node is None:
            return query.end("exhausted", ct_expansions=ct_expansions)
        if not node.conflicts:
            return query.end("success", solution=Solution(node.paths),
                             cost=node.cost, lb=queue.base,
                             ct_expansions=ct_expansions,
                             constraints=node.constraints)
        ct_expansions += 1
        children, ll_exp, timed_out = expand_ct_node(
            domain, node, starts, goals, config, llp, deadline, indexer, table)
        query.ll_expansions += ll_exp
        if timed_out:
            return query.end("timeout", ct_expansions=ct_expansions)
        for child in children:
            queue.insert(child)


def plan_prioritized(domain: LatticeDomain, starts, goals,
                     config: PlannerConfig | None = None,
                     order: Sequence[int] | None = None) -> PlanResult:
    """Sequential baseline: agents plan in priority order and treat earlier
    agents' paths as hard moving obstacles. Colliding starts or goals, or
    failure of any agent, fail the whole query (incomplete by design)."""
    if config is None:
        config = PlannerConfig.make("pp")
    query = _Query(domain, starts, goals, time.monotonic() + config.timeout)
    order = tuple(order) if order is not None else tuple(range(query.n))
    if sorted(order) != list(range(query.n)):
        raise ValueError("order must be a permutation of the agents")
    if query.clash():
        return query.end("infeasible")
    starts, goals, deadline = query.starts, query.goals, query.deadline
    fixed = domain.Table()  # the agents planned so far, in planning order
    for agent in order:
        base = config.horizon if config.horizon is not None \
            else min(domain.num_vertices(agent), lowlevel.TMAX)
        llp = LLParams(w1=config.w1L, w2=1.0, f2="f1", horizon=base + fixed.last)
        res = lowlevel.solve(domain, agent, starts[agent], goals[agent], (), (),
                             llp, other_paths=fixed, hard_paths=True,
                             deadline=deadline)
        query.ll_expansions += res.expansions
        if not res.success:
            return query.end("timeout" if res.status == "timeout" else "infeasible")
        fixed = fixed.derive(agent, res.path)
    solution = Solution(tuple(fixed.path(i) for i in range(query.n)))
    return query.end("success", solution=solution,
                     cost=solution.sum_of_costs, constraints=frozenset())


def plan_coupled_oracle(domain: LatticeDomain, starts, goals,
                        horizon: int | None = None,
                        deadline: float | None = None) -> PlanResult:
    """Exact minimum sum-of-costs solution by uniform-cost search over the
    composite timed lattice, ``horizon`` steps deep (None: 64). Guarded
    against composite branching factors above ``BRANCHING_LIMIT``.

    The search state is (per-agent configs, per-agent parked-at-goal streak);
    waits at the goal are free until the agent leaves, at which point the
    streak is charged retroactively, which makes g the exact sum of costs.
    """
    query = _Query(domain, starts, goals, deadline)
    starts, goals, n = query.starts, query.goals, query.n
    for i in range(n):
        if not domain.is_state_valid(i, starts[i]) or not domain.is_state_valid(i, goals[i]):
            raise ValueError("invalid endpoint")
    branching = 1
    for i in range(n):
        branching *= domain.max_degree(i)
    if branching > BRANCHING_LIMIT:
        raise OracleGuardError("oracle guard exceeded")
    if query.clash():
        return query.end("infeasible")
    horizon = 64 if horizon is None else horizon

    def composite_ok(frm, to) -> bool:
        return not any(step_collides(domain, i, frm[i], to[i], j, frm[j], to[j])
                       for i, j in itertools.combinations(range(n), 2))

    goal_cfg = tuple(goals)
    start_state = (tuple(starts), (0,) * n)
    dist = {start_state: 0}
    parent: dict = {start_state: None}
    heap = [(0, start_state, 0)]
    while heap:
        g, state, depth = heapq.heappop(heap)
        if g > dist.get(state, math.inf):
            continue
        configs, waited = state
        if configs == goal_cfg:
            composites = []
            cur = state
            while cur is not None:
                composites.append(cur[0])
                cur = parent[cur]
            composites.reverse()
            sol = Solution(tuple(Path(tuple(c[i] for c in composites))
                                 for i in range(n)))
            assert sol.sum_of_costs == g
            return query.end("success", solution=sol, cost=g, lb=float(g))
        if query.expired():
            return query.end("timeout")
        if depth >= horizon:
            continue
        options = [domain.successor_configs(i, configs[i]) for i in range(n)]
        for combo in itertools.product(*options):
            if not composite_ok(configs, combo):
                continue
            step = 0
            new_waited = []
            for i in range(n):
                q, q2, w = configs[i], combo[i], waited[i]
                if q2 == q:
                    if q == goals[i]:
                        new_waited.append(w + 1)
                    else:
                        step += 1
                        new_waited.append(0)
                else:
                    step += 1 + (w if q == goals[i] else 0)
                    new_waited.append(0)
            ns = (combo, tuple(new_waited))
            g2 = g + step
            if g2 < dist.get(ns, math.inf):
                dist[ns] = g2
                parent[ns] = state
                heapq.heappush(heap, (g2, ns, depth + 1))
    return query.end("exhausted")


def run_planner(domain: LatticeDomain, starts, goals,
                config: PlannerConfig) -> PlanResult:
    """Dispatch a query to the configured planner variant."""
    if config.variant == "pp":
        return plan_prioritized(domain, starts, goals, config)
    return plan(domain, starts, goals, config)


def certify(domain: LatticeDomain, starts, goals, solution: Solution,
            constraints: Sequence[Constraint] = (), cost: int | None = None,
            bound: float | None = None) -> tuple[bool, str]:
    """Full certificate of a lattice solution: one path per agent, from its
    start to its goal by waits and statically valid lattice moves; no
    conflicts; every constraint held; the recomputed sum of costs equal to
    ``cost`` and within ``bound`` (when given). Returns (True, "ok") or
    (False, reason). Not for shortcut output (multi-joint arm steps)."""
    paths = solution.paths
    if len(paths) != len(starts) or len(paths) != len(goals):
        return False, "agent count mismatch"
    for i, (path, start, goal) in enumerate(zip(paths, starts, goals)):
        wps = path.waypoints
        if not wps or wps[0] != tuple(start) or wps[-1] != tuple(goal):
            return False, f"agent {i}: path does not run from {start} to {goal}"
        for t, q in enumerate(wps):
            if not domain.is_state_valid(i, q):
                return False, f"agent {i}: invalid state {q} at t={t}"
        for t, (q, q2) in enumerate(zip(wps, wps[1:])):
            if not (domain.is_lattice_edge(i, q, q2)
                    and domain.step_valid(i, q, q2)):
                return False, f"agent {i}: invalid move {q} -> {q2} at t={t}"
    if detect_conflicts(paths, domain):
        return False, "solution has conflicts"
    for c in constraints:
        if violates(paths[c.agent], c):
            return False, f"constraint violated: {c}"
    total = solution.sum_of_costs
    if cost is not None and total != cost:
        return False, f"cost mismatch: recomputed {total}, stored {cost}"
    if bound is not None and not total <= bound + EPS:  # NaN fails too
        return False, f"suboptimality bound violated: {total} > {bound}"
    return True, "ok"
