import copy
import itertools
import math
import random
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mamp import (Conflict, Constraint, GridDomain, Path, PlannerConfig,
                  Solution, certify, detect_conflicts, generate_scene,
                  parse_scene, plan, plan_coupled_oracle, plan_prioritized,
                  solve, violates)
from mamp.core import VERTEX, first_change
from mamp.domains.base import LatticeDomain
from mamp.highlevel import (VARIANTS, CTNode, CTQueue, OracleGuardError,
                            expand_ct_node)
from mamp.lowlevel import LLParams
import mamp.highlevel as hl

from corpus import facing_arms, grid_corpus, random_grid_instance, two_link_arm_pair
from oracles import select_ct_node, timed_optimal_cost


def cfg(variant, **kw):
    kw.setdefault("timeout", 20.0)
    return PlannerConfig.make(variant, **kw)


SWAP = dict(domain=lambda: GridDomain(3, 2),
            starts=[(0, 0), (2, 0)], goals=[(2, 0), (0, 0)])


def _context(domain, starts, goals, config, deadline=None, first=1):
    """A fresh context of one query, with its own table and memo, whose CT
    node indexer starts at ``first``."""
    query = hl._Query(domain, starts, goals, deadline, config)
    query.indexer = itertools.count(first)
    return query


class TestPlanExamples:
    def test_single_agent_returns_root(self):
        r = plan(GridDomain(4, 4), [(0, 0)], [(3, 3)], cfg("cbs"))
        assert r.success and r.ct_expansions == 0 and r.cost == 6

    def test_swap_corridor_matches_oracle(self):
        r = plan(SWAP["domain"](), SWAP["starts"], SWAP["goals"], cfg("cbs"))
        o = plan_coupled_oracle(SWAP["domain"](), SWAP["starts"], SWAP["goals"],
                                horizon=12)
        assert r.success and o.success
        assert r.cost == o.cost == 6
        assert detect_conflicts(r.solution.paths, SWAP["domain"]()) == []

    def test_walled_off_goal_fails(self):
        g = GridDomain(3, 2, blocked=[(1, 0), (1, 1)])
        r = plan(g, [(0, 0), (2, 0)], [(2, 1), (2, 0)], cfg("cbs"))
        assert not r.success and r.status == "infeasible"

    def test_mismatched_agent_counts(self):
        with pytest.raises(ValueError, match="mismatched agent counts"):
            plan(GridDomain(3, 3), [(0, 0)], [(1, 1), (2, 2)], cfg("cbs"))

    def test_overlapping_starts_are_infeasible(self):
        g = GridDomain(2, 1)
        r = plan(g, [(0, 0), (0, 0)], [(1, 0), (0, 0)], cfg("cbs"))
        assert not r.success and r.status == "infeasible"

    def test_timeout_is_reported(self):
        r = plan(SWAP["domain"](), SWAP["starts"], SWAP["goals"],
                 cfg("cbs", timeout=0.0))
        assert not r.success and r.status == "timeout"

    def test_solution_respects_returned_constraints(self):
        r = plan(SWAP["domain"](), SWAP["starts"], SWAP["goals"], cfg("cbs"))
        assert r.constraints  # the swap cannot be solved without branching
        for c in r.constraints:
            assert not violates(r.solution.paths[c.agent], c)


class TestCertify:
    def test_accepts_waits_and_lattice_moves(self):
        sol = Solution((Path(((0, 0), (1, 0), (1, 0))), Path(((2, 0), (2, 0)))))
        assert certify(GridDomain(3, 1), [(0, 0), (2, 0)], [(1, 0), (2, 0)],
                       sol, cost=1, bound=1.0) == (True, "ok")

    def test_rejects_teleport(self):
        ok, reason = certify(GridDomain(3, 1), [(0, 0)], [(2, 0)],
                             Solution((Path(((0, 0), (2, 0))),)))
        assert not ok and "invalid move" in reason

    def test_rejects_step_through_wall(self):
        domain = GridDomain(3, 3, blocked=[(1, 1)])
        sol = Solution((Path(((1, 0), (1, 1), (1, 2))),))
        ok, reason = certify(domain, [(1, 0)], [(1, 2)], sol)
        assert not ok and "invalid state" in reason

    @pytest.mark.parametrize("starts,goals,kw,fragment", [
        ([(0, 0)], [(1, 0)], {}, "agent count"),
        ([(1, 0), (2, 0)], [(1, 0), (2, 0)], {}, "does not run from"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)],
         dict(constraints=[Constraint.vertex(0, (1, 0), 1)]), "constraint"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)],
         dict(constraints=[Constraint.vertex(5, (0, 0), 0)]), "constraint"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)],
         dict(constraints=[Constraint.vertex(-1, (0, 0), 0)]), "constraint"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)],
         dict(constraints=[Constraint.vertex(0, (0, 0), -1)]), "constraint"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)], dict(cost=2), "cost"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)], dict(bound=0.5), "bound"),
        ([(0, 0), (2, 0)], [(1, 0), (2, 0)], dict(bound=math.nan), "bound"),
    ], ids=["agents", "endpoints", "constraint", "constraint-agent-past-end",
            "constraint-agent-negative", "constraint-time-negative", "cost",
            "bound", "bound-nan"])
    def test_each_check_is_live(self, starts, goals, kw, fragment):
        sol = Solution((Path(((0, 0), (1, 0), (1, 0))), Path(((2, 0), (2, 0)))))
        ok, reason = certify(GridDomain(3, 1), starts, goals, sol, **kw)
        assert not ok and fragment in reason

    def test_rejects_conflicts(self):
        sol = Solution((Path(((0, 0), (1, 0))), Path(((1, 0), (0, 0)))))
        ok, reason = certify(GridDomain(2, 1), [(0, 0), (1, 0)],
                             [(1, 0), (0, 0)], sol)
        assert not ok and "conflicts" in reason


class TestExpandCTNode:
    def _root(self, domain, starts, goals):
        paths = []
        for i, (s, g) in enumerate(zip(starts, goals)):
            res = solve(domain, i, s, g)
            paths.append(res.path)
        return CTNode(0, frozenset(), tuple(paths),
                      sum(len(p) - 1 for p in paths),
                      tuple(detect_conflicts(paths, domain)),
                      (0.0,) * len(paths))

    def test_two_children_each_one_new_constraint(self):
        domain = SWAP["domain"]()
        root = self._root(domain, SWAP["starts"], SWAP["goals"])
        assert root.conflicts
        children, timed = expand_ct_node(
            _context(domain, SWAP["starts"], SWAP["goals"], cfg("cbs")), root)
        assert not timed and len(children) == 2
        agents = set()
        for child in children:
            new = child.constraints - root.constraints
            assert len(new) == 1
            c = next(iter(new))
            agents.add(c.agent)
            for j in range(2):
                same = child.paths[j].waypoints == root.paths[j].waypoints
                assert same == (j != c.agent)
            assert child.conflicts == tuple(detect_conflicts(child.paths, domain))
        assert agents == {0, 1}

    def test_infeasible_child_discarded_sibling_survives(self):
        # parked agent 0 cannot vacate its start at t=0; the synthetic
        # conflict's other constraint leaves agent 1 a free replan
        domain = GridDomain(3, 2)
        starts = [(0, 0), (2, 0)]
        goals = [(0, 0), (2, 1)]
        root = self._root(domain, starts, goals)
        conflict = Conflict(VERTEX, (0, 1), 0, (((0, 0), (0, 0)), ((1, 0), (1, 0))))
        node = CTNode(0, frozenset(), root.paths, root.cost, (conflict,),
                      (0.0, 0.0))
        children, _ = expand_ct_node(
            _context(domain, starts, goals, cfg("cbs")), node)
        assert len(children) == 1
        new = next(iter(children[0].constraints))
        assert new.agent == 1
        assert children[0].conflicts == ()  # the survivor is already a solution

    def test_xcbs_replan_reuses_experience(self):
        domain = GridDomain(9, 9)
        starts = [(0, 4), (8, 4)]
        goals = [(8, 4), (0, 4)]
        pc = cfg("xcbs", w1L=50.0)
        llp = LLParams(w1=50.0)
        paths = [solve(domain, i, starts[i], goals[i], (), (), llp).path
                 for i in range(2)]
        root = CTNode(0, frozenset(), tuple(paths), 16,
                      tuple(detect_conflicts(paths, domain)), (0.0, 0.0))
        warm_query = _context(GridDomain(9, 9), starts, goals, pc)
        warm, _ = expand_ct_node(warm_query, root)
        cold_query = _context(GridDomain(9, 9), starts, goals,
                              cfg("ecbs", w1L=50.0))
        cold_query.llp = llp
        cold, _ = expand_ct_node(cold_query, root)
        assert [c.cost for c in warm] == [c.cost for c in cold]
        assert warm_query.ll_expansions < cold_query.ll_expansions


class TestConflictTableFollowsTheTree:
    """`plan` keeps one conflict table that follows the expanded node; its
    plans, counts and expansions are those of a fresh table built from each
    node's paths."""

    def _runs(self, build, starts, goals, config, monkeypatch):
        fresh = hl.expand_ct_node
        given = []
        solve = hl.lowlevel.solve

        def spy(domain, agent, *args, **kw):
            others = kw.get("other_paths")
            if others is not None:
                given.append(others)
            return solve(domain, agent, *args, **kw)
        monkeypatch.setattr(hl.lowlevel, "solve", spy)
        kept = plan(build(), starts, goals, config)
        assert not any(isinstance(v, LatticeDomain) for others in given
                       for v in vars(others).values())

        def per_node(query, node):  # a fresh table and memo per node
            query.table, query.memo = query.domain.Table(), {}
            return fresh(query, node)
        monkeypatch.setattr(hl, "expand_ct_node", per_node)
        rebuilt = plan(build(), starts, goals, config)
        assert (kept.status, kept.solution, kept.cost, kept.lb) == \
            (rebuilt.status, rebuilt.solution, rebuilt.cost, rebuilt.lb)
        assert (kept.ct_expansions, kept.ll_expansions, kept.collision_checks) == \
            (rebuilt.ct_expansions, rebuilt.ll_expansions, rebuilt.collision_checks)
        return kept

    @pytest.mark.parametrize("variant", ["ecbs", "xecbs"])
    def test_grid(self, variant, monkeypatch):
        config = cfg(variant, w1L=2.0, w2L=1.3, wH=1.3)
        expanded = 0
        for seed in range(1, 6):
            scene = parse_scene(generate_scene("corridor-grid", n=10, width=12,
                                               height=12, seed=seed))
            r = self._runs(scene.build_domain, scene.starts, scene.goals, config,
                           monkeypatch)
            expanded += r.ct_expansions
        assert expanded >= 15

    @pytest.mark.parametrize("variant", ["ecbs", "xecbs"])
    def test_arm(self, variant, monkeypatch):
        # circle-arms scenes whose constraint trees grow to 11-25 nodes
        config = cfg(variant, w1L=50.0, w2L=1.3, wH=1.3)
        for seed in (2001, 2002):
            scene = parse_scene(generate_scene("circle-arms", n=3, seed=seed))
            r = self._runs(scene.build_domain, scene.starts, scene.goals, config,
                           monkeypatch)
            assert r.success and r.ct_expansions >= 10


class TestOneSyncPath:
    """`expand_ct_node` brings any table of the same tree to the node's
    paths. Given a table last synced to a sibling, an ancestor or a node
    that held a longer path, it expands the node exactly as from no table,
    and leaves the table holding the node's pairs in id order."""

    @staticmethod
    def _root(domain, starts, goals, llp):
        paths, lbs = [], []
        for i, (s, g) in enumerate(zip(starts, goals)):
            res = solve(domain, i, s, g, params=llp)
            paths.append(res.path)
            lbs.append(res.lower_bound)
        return CTNode(0, frozenset(), tuple(paths), sum(p.duration for p in paths),
                      tuple(detect_conflicts(paths, domain)), tuple(lbs))

    @staticmethod
    def _expand(domain, node, starts, goals, config, table=None):
        query = _context(domain, starts, goals, config, first=100)
        if table is not None:
            query.table = table
        checks = domain.stats.geometry_checks
        children, timed_out = expand_ct_node(query, node)
        return ([(c.index, c.constraints, c.paths, c.cost, c.conflicts, c.lbs)
                 for c in children], query.ll_expansions, timed_out,
                domain.stats.geometry_checks - checks)

    LLP = LLParams(w1=1.5, w2=1.3, f2="conflicts")

    def _conflicting(self, rng, draw):
        # the first drawn instance whose root has a conflict to branch on
        while True:
            domain, starts, goals = draw(rng)
            root = self._root(domain, starts, goals, self.LLP)
            if root.conflicts:
                return domain, starts, goals, root

    def _check(self, data, instance):
        domain, starts, goals, root = instance
        config = cfg(data.draw(st.sampled_from(["ecbs", "xecbs"])),
                     w1L=self.LLP.w1, w2L=self.LLP.w2, wH=1.3)
        # grow a tree through one table, expanding nodes in a drawn order
        nodes, grow = [root], _context(domain, starts, goals, config)
        table = grow.table
        for _ in range(data.draw(st.integers(1, 4))):
            node = data.draw(st.sampled_from([n for n in nodes if n.conflicts]))
            children, _ = expand_ct_node(grow, node)
            nodes.extend(children)
            if not any(n.conflicts for n in nodes):
                break
        node = data.draw(st.sampled_from([n for n in nodes if n.conflicts]))
        fresh = domain.Table(enumerate(node.paths))
        if getattr(table, "span", 0) > getattr(fresh, "span", 0):
            event("the table's span exceeds a fresh table's")
        cold = copy.deepcopy(domain)
        assert self._expand(domain, node, starts, goals, config, table) == \
            self._expand(cold, node, starts, goals, config)
        assert list(table) == list(enumerate(node.paths))
        assert table.last == fresh.last

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_grid(self, data, seed):
        def draw(rng):
            inst = random_grid_instance(rng, feasible=False)
            return inst.domain(), inst.starts, inst.goals
        self._check(data, self._conflicting(random.Random(seed), draw))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_arm(self, data, seed):
        # two facing one-link arms, at endpoints where they stand clear
        def draw(rng):
            domain = facing_arms()
            while True:
                starts, goals = ([(rng.randint(-4, 4),) for _ in range(2)]
                                 for _ in range(2))
                if not (domain.configs_collide(starts) or domain.configs_collide(goals)):
                    return domain, starts, goals
        self._check(data, self._conflicting(random.Random(seed), draw))

    def test_longer_path_widens_the_span(self):
        # a child delays an agent; back at the root, the grid table's span
        # exceeds a fresh table's, and the root expands as from no table
        domain = GridDomain(3, 2)
        starts, goals = SWAP["starts"], SWAP["goals"]
        config = cfg("ecbs", w1L=self.LLP.w1, w2L=self.LLP.w2, wH=1.3)
        root = self._root(domain, starts, goals, self.LLP)
        grow = _context(domain, starts, goals, config)
        children, _ = expand_ct_node(grow, root)
        expand_ct_node(grow, children[0])
        table = grow.table
        fresh = domain.Table(enumerate(root.paths))
        assert table.span > fresh.span
        cold = copy.deepcopy(domain)
        assert self._expand(domain, root, starts, goals, config, table) == \
            self._expand(cold, root, starts, goals, config)
        assert list(table) == list(enumerate(root.paths))
        assert table.last == fresh.last


class TestRescanFromFirstChange:
    """In a tree grown from real conflicts, each child's replanned path
    first differs from its parent's no later than the branched conflict's
    arrival, so rescanning that agent's pairs from the first change alone
    leaves the child's conflicts equal to a full scan of its paths."""

    WEIGHTS = {"cbs": {}, "xcbs": dict(w1L=1.5),
               "ecbs": dict(w1L=1.5, w2L=1.3, wH=1.3),
               "xecbs": dict(w1L=1.5, w2L=1.3, wH=1.3)}

    def _check(self, data, rng, draw):
        variant = data.draw(st.sampled_from(sorted(self.WEIGHTS)))
        config = cfg(variant, **self.WEIGHTS[variant])
        llp = LLParams(w1=config.w1L, w2=config.w2L,
                       f2="conflicts" if config.focal else "f1")
        while True:  # the first drawn instance with a conflict to branch on
            domain, starts, goals = draw(rng)
            root = TestOneSyncPath._root(domain, starts, goals, llp)
            if root.conflicts:
                break
        nodes, grow = [root], _context(domain, starts, goals, config)
        for _ in range(data.draw(st.integers(1, 6))):
            branchable = [n for n in nodes if n.conflicts]
            if not branchable:
                break
            node = data.draw(st.sampled_from(branchable))
            children, _ = expand_ct_node(grow, node)
            for child in children:
                (c,) = child.constraints - node.constraints
                assert first_change(node.paths[c.agent], child.paths[c.agent]) \
                    <= hl._arrival(node.conflicts[0])
                assert child.conflicts == tuple(detect_conflicts(child.paths, domain))
            nodes.extend(children)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_grid(self, data, seed):
        def draw(rng):
            inst = random_grid_instance(rng, feasible=False)
            return inst.domain(), inst.starts, inst.goals
        self._check(data, random.Random(seed), draw)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_arm(self, data, seed):
        # two facing one-link arms, at endpoints where they stand clear
        def draw(rng):
            domain = facing_arms()
            while True:
                starts, goals = ([(rng.randint(-4, 4),) for _ in range(2)]
                                 for _ in range(2))
                if not (domain.configs_collide(starts) or domain.configs_collide(goals)):
                    return domain, starts, goals
        self._check(data, random.Random(seed), draw)


class _LoggedMemo(dict):
    """A replan memo that logs what each lookup returned (None on a miss);
    `expand_ct_node` looks up each of a conflict's constraints once, in
    order."""

    def __init__(self):
        super().__init__()
        self.lookups = []

    def get(self, key, default=None):
        res = super().get(key, default)
        self.lookups.append(res)
        return res


def _summary(children):
    return [(c.index, c.constraints, c.paths, c.cost, c.conflicts, c.lbs)
            for c in children]


class TestReplanMemo:
    """`plan` keeps one memo of replans per query. A hit returns what a
    fresh `solve` of the same input returns, so a tree grown through one
    memo is the tree grown without it, expansion counts included."""

    WEIGHTS = TestRescanFromFirstChange.WEIGHTS

    @staticmethod
    def _llp(config):
        return LLParams(w1=config.w1L, w2=config.w2L,
                        f2="conflicts" if config.focal else "f1")

    @staticmethod
    def _fresh(domain, node, c, query):
        """A fresh solve of the replan that constraint ``c`` of ``node``
        asks for in ``query``, from the node itself."""
        agent, config = c.agent, query.config
        others = [(j, p) for j, p in enumerate(node.paths) if j != agent] \
            if config.focal else None
        experience = node.paths[agent].waypoints if config.use_experience else ()
        return solve(domain, agent, query.starts[agent], query.goals[agent],
                     node.constraints | {c}, experience, query.llp,
                     other_paths=others)

    def _expand(self, query, cold, node):
        """Expand ``node`` through ``query``, whose memo is a `_LoggedMemo`,
        checking each hit against a fresh solve on ``cold``, a copy of the
        domain; returns (children, LL expansions, hits)."""
        memo, ll_before = query.memo, query.ll_expansions
        memo.lookups.clear()
        children, timed_out = expand_ct_node(query, node)
        assert not timed_out
        constraints = hl.conflict_to_constraints(node.conflicts[0])
        assert len(memo.lookups) == len(constraints)
        hits = 0
        for c, hit in zip(constraints, memo.lookups):
            if hit is None:
                continue
            hits += 1
            fresh = self._fresh(cold, node, c, query)
            assert (hit.path, hit.cost, hit.lower_bound, hit.expansions,
                    hit.status) == (fresh.path, fresh.cost, fresh.lower_bound,
                                    fresh.expansions, fresh.status)
        return children, query.ll_expansions - ll_before, hits

    def _check(self, data, rng, draw):
        variant = data.draw(st.sampled_from(sorted(self.WEIGHTS)))
        config = cfg(variant, **self.WEIGHTS[variant])
        llp = self._llp(config)
        while True:  # the first drawn instance with a conflict to branch on
            domain, starts, goals = draw(rng)
            cold = copy.deepcopy(domain)  # taken before any search
            root = TestOneSyncPath._root(domain, starts, goals, llp)
            if root.conflicts:
                break
        # grow a tree through one memo and one table, in a drawn order
        query, nodes, grown = _context(domain, starts, goals, config), [root], []
        query.memo = _LoggedMemo()
        for _ in range(data.draw(st.integers(1, 8))):
            branchable = [n for n in nodes if n.conflicts]
            if not branchable:
                break
            node = data.draw(st.sampled_from(branchable))
            children, ll, hits = self._expand(query, cold, node)
            if hits:
                event("memo hit")
            # the indexer is drawn from only for a child
            grown.append((node, children[0].index if children else 1, children, ll))
            nodes.extend(children)
        # tree parity: each node expanded again in a fresh context per call
        for node, first, children, ll in grown:
            again_query = _context(cold, starts, goals, config, first=first)
            again, timed_out = expand_ct_node(again_query, node)
            assert not timed_out
            assert (_summary(again), again_query.ll_expansions) == \
                (_summary(children), ll)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_grid(self, data, seed):
        def draw(rng):
            inst = random_grid_instance(rng, feasible=False)
            return inst.domain(), inst.starts, inst.goals
        self._check(data, random.Random(seed), draw)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 10**6))
    def test_arm(self, data, seed):
        # two facing one-link arms, at endpoints where they stand clear
        def draw(rng):
            domain = facing_arms()
            while True:
                starts, goals = ([(rng.randint(-4, 4),) for _ in range(2)]
                                 for _ in range(2))
                if not (domain.configs_collide(starts) or domain.configs_collide(goals)):
                    return domain, starts, goals
        self._check(data, random.Random(seed), draw)

    @pytest.mark.parametrize("variant", ["xcbs", "xecbs"])
    def test_experience_is_part_of_the_key(self, variant):
        # two nodes alike but for agent 0's path, the experience of its replan
        domain = GridDomain(9, 9)
        starts, goals = [(0, 4), (8, 4)], [(8, 4), (0, 4)]
        config = cfg(variant, **self.WEIGHTS[variant])
        llp = self._llp(config)
        straight = TestOneSyncPath._root(domain, starts, goals, llp)
        detour = Path(((0, 4), (0, 3)) + tuple((x, 2) for x in range(9))
                      + ((8, 3), (8, 4)))
        bent = CTNode(1, frozenset(), (detour, straight.paths[1]),
                      detour.duration + straight.paths[1].duration,
                      straight.conflicts[:1], straight.lbs)
        query = _context(domain, starts, goals, config, first=2)
        query.memo = _LoggedMemo()
        hits = [self._expand(query, copy.deepcopy(domain), node)[2]
                for node in (straight, bent)]
        # agent 1's replan repeats unless its input holds agent 0's path
        assert hits == [0, 0 if config.focal else 1]

    @pytest.mark.parametrize("variant", sorted(WEIGHTS))
    def test_timeout_is_not_stored(self, variant):
        config = cfg(variant, **self.WEIGHTS[variant])
        llp = self._llp(config)
        domain, starts, goals = SWAP["domain"](), SWAP["starts"], SWAP["goals"]
        root = TestOneSyncPath._root(domain, starts, goals, llp)
        query = _context(domain, starts, goals, config, time.monotonic() - 1.0)
        children, timed_out = expand_ct_node(query, root)
        assert timed_out and children == [] and query.memo == {}
        query.deadline = None
        children, timed_out = expand_ct_node(query, root)
        assert not timed_out and len(children) == 2 and len(query.memo) == 2

    def test_repeated_replans_are_not_solved_again(self, monkeypatch):
        # a cbs tree in which two replans repeat earlier ones
        scene = parse_scene(generate_scene("corridor-grid", n=4, width=6,
                                           height=6, seed=3))
        solves = []
        real = hl.lowlevel.solve

        def spy(*args, **kw):
            res = real(*args, **kw)
            solves.append(res)
            return res
        monkeypatch.setattr(hl.lowlevel, "solve", spy)
        r = plan(scene.build_domain(), scene.starts, scene.goals, cfg("cbs"))
        assert r.success and r.ct_expansions > 0
        replans = 2 * r.ct_expansions  # one per constraint of a branched conflict
        assert len(solves) - len(scene.starts) < replans
        # a hit counts its expansions as if it had run
        assert r.ll_expansions > sum(res.expansions for res in solves)


class TestQueryTallies:
    """The context's tallies make the result: `plan` reports one CT
    expansion per `expand_ct_node` call however the query ends, and the
    other planners expand no CT node."""

    @staticmethod
    def _counted(monkeypatch, expire_at=None):
        """Count `expand_ct_node` calls; at call ``expire_at``, the deadline
        passes before the node is expanded, or right after it when
        ``expire_at`` is negative."""
        calls, real = [], hl.expand_ct_node

        def counted(query, node):
            calls.append(node)
            if expire_at == len(calls):
                query.deadline = time.monotonic() - 1.0
            out = real(query, node)
            if expire_at == -len(calls):
                query.deadline = time.monotonic() - 1.0
            return out
        monkeypatch.setattr(hl, "expand_ct_node", counted)
        return calls

    @pytest.mark.parametrize("variant", ["cbs", "ecbs"])
    @pytest.mark.parametrize("status,expire_at,horizon", [
        ("success", None, None), ("timeout", 2, None), ("timeout", -1, None),
        ("exhausted", None, 3)],
        ids=["success", "timeout-in-expansion", "timeout-after-expansion",
             "exhausted"])
    def test_ct_expansions_count_the_calls(self, monkeypatch, variant, status,
                                           expire_at, horizon):
        calls = self._counted(monkeypatch, expire_at)
        weights = dict(w2L=1.3, wH=1.3) if variant == "ecbs" else {}
        r = plan(SWAP["domain"](), SWAP["starts"], SWAP["goals"],
                 cfg(variant, horizon=horizon, **weights))
        assert r.status == status
        assert r.ct_expansions == len(calls) > 0
        assert r.ll_expansions > 0

    def test_other_planners_expand_no_ct_node(self, monkeypatch):
        calls = self._counted(monkeypatch)
        args = (SWAP["domain"](), SWAP["starts"], SWAP["goals"])
        pp = plan_prioritized(*args)
        oracle = plan_coupled_oracle(*args, horizon=12)
        assert pp.success and oracle.success
        assert pp.ct_expansions == oracle.ct_expansions == 0 and calls == []
        assert pp.ll_expansions > 0


def _fake_node(index, cost, lb, n_conflicts):
    conflict = Conflict(VERTEX, (0, 1), 0, (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    return CTNode(index, frozenset(), (Path(((0, 0),)),), cost,
                  (conflict,) * n_conflicts, (float(lb),))


class TestSelectCTNode:
    def test_focal_prefers_fewer_conflicts(self):
        q = CTQueue(1.3, focal=True)
        a = _fake_node(0, cost=13, lb=10, n_conflicts=4)
        b = _fake_node(1, cost=11, lb=11, n_conflicts=1)
        q.insert(a)
        q.insert(b)
        # bound = 1.3 * 10 = 13: both qualify, b has fewer conflicts
        assert q.pop() is b

    def test_unit_wh_degenerates_to_min_lb(self):
        q = CTQueue(1.0, focal=True)
        a = _fake_node(0, cost=13, lb=10, n_conflicts=4)
        b = _fake_node(1, cost=11, lb=11, n_conflicts=1)
        q.insert(a)
        q.insert(b)
        assert q.pop() is a

    def test_f2_tie_broken_by_cost_then_fifo(self):
        q = CTQueue(2.0, focal=True)
        a = _fake_node(0, cost=12, lb=10, n_conflicts=2)
        b = _fake_node(1, cost=11, lb=10, n_conflicts=2)
        c = _fake_node(2, cost=11, lb=10, n_conflicts=2)
        for n in (a, b, c):
            q.insert(n)
        assert q.pop() is b
        assert q.pop() is c
        assert q.pop() is a

    def test_cbs_selection_is_min_cost_fifo(self):
        q = CTQueue(1.0, focal=False)
        a = _fake_node(0, cost=12, lb=0, n_conflicts=0)
        b = _fake_node(1, cost=11, lb=0, n_conflicts=5)
        c = _fake_node(2, cost=11, lb=0, n_conflicts=0)
        for n in (a, b, c):
            q.insert(n)
        assert q.pop() is b  # cost then insertion order


CT_OPS = st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 12),
                                                 st.integers(0, 24),
                                                 st.integers(0, 3))),
                  max_size=30)


class TestCTSelectionProperty:
    # the ids name the oracle's (f2H, f1H) modes of each queue shape
    @pytest.mark.parametrize("wH", [1.0, 1.3, 2.0])
    @pytest.mark.parametrize("focal", [True, False], ids=["conflicts-lb", "cost-cost"])
    @given(ops=CT_OPS)
    @settings(max_examples=60, deadline=None)
    def test_pop_matches_brute_force(self, wH, focal, ops):
        # an op is a pop (None) or an insert of (cost, 2*lb, conflicts);
        # the queue is drained at the end
        q = CTQueue(wH, focal)
        f1H, f2H = ("lb", "conflicts") if focal else ("cost", "cost")
        live = []
        for index, op in enumerate(ops + [None] * len(ops)):
            if op is None:
                want = select_ct_node(live, wH, f1H, f2H)
                assert q.pop() is want
                if want is not None:
                    live.remove(want)
            else:
                cost, half_lb, n_conflicts = op
                node = _fake_node(index, cost, half_lb / 2, n_conflicts)
                q.insert(node)
                live.append(node)


class TestPrioritized:
    def test_disjoint_agents_match_independent_planning(self):
        g = GridDomain(7, 7)
        starts = [(0, 0), (6, 6)]
        goals = [(0, 3), (6, 3)]
        r = plan_prioritized(GridDomain(7, 7), starts, goals)
        solo = [solve(GridDomain(7, 7), i, starts[i], goals[i]).cost
                for i in range(2)]
        assert r.success and r.cost == sum(solo)

    def test_order_dependence(self):
        blocked = [(2, 1)]
        starts = [(0, 0), (2, 0)]
        goals = [(2, 0), (0, 0)]
        bad = plan_prioritized(GridDomain(3, 2, blocked), starts, goals,
                               order=(0, 1))
        good = plan_prioritized(GridDomain(3, 2, blocked), starts, goals,
                                order=(1, 0))
        assert not bad.success and bad.status == "infeasible"
        assert good.success
        assert detect_conflicts(good.solution.paths, GridDomain(3, 2, blocked)) == []
        # CBS is complete and solves the same instance
        assert plan(GridDomain(3, 2, blocked), starts, goals, cfg("cbs")).success

    def test_single_agent_equals_low_level(self):
        g = GridDomain(4, 4, blocked=[(1, 1)])
        r = plan_prioritized(GridDomain(4, 4, blocked=[(1, 1)]), [(0, 0)], [(3, 3)])
        assert r.success
        assert r.cost == solve(g, 0, (0, 0), (3, 3)).cost

    def test_colliding_starts_are_infeasible(self):
        # both agents start on the same cell
        r = plan_prioritized(GridDomain(3, 1), [(0, 0), (0, 0)],
                             [(0, 0), (2, 0)])
        assert r.status == "infeasible"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_entry_runs_only_its_own_variants(self, variant):
        # pp under `plan` would grow a constraint tree with pp's weights, a
        # planner the library does not define; `plan_prioritized` would run
        # pp whatever the config named
        starts, goals = [(0, 0), (2, 0)], [(2, 0), (0, 0)]
        config = PlannerConfig.make(variant)
        wrong, right = (plan, plan_prioritized) if variant == "pp" \
            else (plan_prioritized, plan)
        with pytest.raises(ValueError, match="'pp'"):
            wrong(GridDomain(3, 2), starts, goals, config)
        assert right(GridDomain(3, 2), starts, goals, config).success

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            plan_prioritized(GridDomain(3, 3), [(0, 0), (1, 1)],
                             [(2, 2), (0, 0)], order=(0, 0))


class TestCoupledOracle:
    def test_single_agent(self):
        r = plan_coupled_oracle(GridDomain(3, 3), [(0, 0)], [(2, 2)], horizon=10)
        assert r.success and r.cost == 4

    def test_infeasible_swap_on_a_path_graph(self):
        r = plan_coupled_oracle(GridDomain(2, 1), [(0, 0), (1, 0)],
                                [(1, 0), (0, 0)], horizon=8)
        assert not r.success and r.status == "exhausted"

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            plan_coupled_oracle(GridDomain(3, 2), [(0, 0), (2, 0)],
                                [(2, 0), (0, 1)], horizon=-3)

    def test_guard_rejects_large_instances(self):
        g = GridDomain(8, 8)
        many = [(x, 0) for x in range(6)]
        targets = [(x, 7) for x in range(6)]
        with pytest.raises(OracleGuardError, match="oracle guard exceeded"):
            plan_coupled_oracle(g, many, targets)

    def test_parked_waits_are_free_until_leaving(self):
        # one agent must step aside and return; sum of costs is exact
        g = GridDomain(3, 2)
        r = plan_coupled_oracle(g, [(0, 0), (2, 0)], [(2, 0), (0, 0)], horizon=10)
        assert r.success
        assert r.cost == r.solution.sum_of_costs == 6


# Two agents' bodies touch at the goals (no solution exists, since agents
# park at their goals for good) or at the starts.
ARM_GOAL_CLASH = dict(domain=two_link_arm_pair, starts=[(8, 0), (8, 0)],
                      goals=[(0, 0), (16, 0)])
GRID_GOAL_CLASH = dict(domain=lambda: GridDomain(4, 4),
                       starts=[(0, 0), (3, 3)], goals=[(1, 2), (1, 2)])
GRID_START_CLASH = dict(domain=lambda: GridDomain(4, 4),
                        starts=[(1, 1), (1, 1)], goals=[(0, 0), (3, 3)])
CLASHES = pytest.mark.parametrize(
    "inst", [ARM_GOAL_CLASH, GRID_GOAL_CLASH, GRID_START_CLASH],
    ids=["arm-goals", "grid-goals", "grid-starts"])


def _run(variant, inst, timeout):
    planner = plan_prioritized if variant == "pp" else plan
    return planner(inst["domain"](), inst["starts"], inst["goals"],
                   cfg(variant, timeout=timeout))


class TestIllPosedInstances:
    """Colliding starts or goals end `infeasible` before any search."""

    @pytest.mark.parametrize("variant", ["cbs", "xcbs", "ecbs", "xecbs", "pp"])
    @CLASHES
    def test_planners_end_infeasible_at_once(self, variant, inst):
        assert inst["domain"]().configs_collide(inst["goals"]) \
            or inst["domain"]().configs_collide(inst["starts"])
        r = _run(variant, inst, timeout=5.0)
        assert r.status == "infeasible" and r.solution is None
        assert r.ct_expansions == 0 and r.ll_expansions == 0
        assert r.wall_time < 0.5

    @CLASHES
    def test_oracle_ends_infeasible_at_once(self, inst):
        t0 = time.perf_counter()
        r = plan_coupled_oracle(inst["domain"](), inst["starts"], inst["goals"],
                                horizon=20, deadline=time.monotonic() + 5.0)
        assert r.status == "infeasible"
        assert time.perf_counter() - t0 < 0.5

    def test_clash_tests_count_as_collision_checks(self):
        # one static pair test for the starts, one for the goals
        r = _run("cbs", GRID_GOAL_CLASH, timeout=5.0)
        assert r.collision_checks == 2


class TestCorpusProperties:
    def setup_method(self):
        self.instances = grid_corpus(seed=23, count=15)

    def test_cbs_matches_oracle_exactly(self):
        for inst in self.instances:
            o = plan_coupled_oracle(inst.domain(), inst.starts, inst.goals,
                                    horizon=10)
            r = plan(inst.domain(), inst.starts, inst.goals,
                     cfg("cbs", horizon=10))
            assert r.success == o.success
            if r.success:
                assert r.cost == o.cost

    def test_bound_satisfaction_weighted_variants(self):
        combos = [("ecbs", 1.3, 1.3, 1.3), ("ecbs", 2.0, 1.0, 2.0),
                  ("xecbs", 2.0, 1.3, 1.3), ("xcbs", 2.0, 1.0, 1.0),
                  ("ecbs", 1.3, 2.0, 1.3)]
        for k, inst in enumerate(self.instances):
            o = plan_coupled_oracle(inst.domain(), inst.starts, inst.goals,
                                    horizon=10)
            if not o.success:
                continue
            variant, w1, w2, wh = combos[k % len(combos)]
            r = plan(inst.domain(), inst.starts, inst.goals,
                     cfg(variant, w1L=w1, w2L=w2, wH=wh, horizon=10))
            assert r.success
            assert r.cost <= w1 * w2 * wh * o.cost + 1e-9

    def test_all_variants_return_valid_solutions(self):
        inst = self.instances[0]
        for variant in ("cbs", "ecbs", "xcbs", "xecbs"):
            kw = {} if variant in ("cbs",) else {"w1L": 2.0}
            if variant in ("ecbs", "xecbs"):
                kw.update(w2L=1.3, wH=1.3)
            r = plan(inst.domain(), inst.starts, inst.goals,
                     cfg(variant, **kw, horizon=10))
            if r.success:
                assert certify(inst.domain(), inst.starts, inst.goals, r.solution,
                               r.constraints, r.cost) == (True, "ok")
        r = plan_prioritized(inst.domain(), inst.starts, inst.goals)
        if r.success:
            assert certify(inst.domain(), inst.starts, inst.goals, r.solution,
                           cost=r.cost) == (True, "ok")

    def test_xcbs_with_unit_weights_stays_optimal(self):
        for inst in self.instances[:8]:
            a = plan(inst.domain(), inst.starts, inst.goals, cfg("cbs", horizon=10))
            b = plan(inst.domain(), inst.starts, inst.goals,
                     cfg("xcbs", w1L=1.0, horizon=10))
            assert a.success == b.success
            if a.success:
                assert a.cost == b.cost

    def test_min_lb_monotone_for_ecbs(self):
        orig = CTQueue.pop
        bases = []

        def spy(queue):
            node = orig(queue)
            if node is not None:
                bases.append(queue.base)
            return node
        CTQueue.pop = spy
        try:
            for inst in self.instances[:6]:
                bases.clear()
                plan(inst.domain(), inst.starts, inst.goals,
                     cfg("ecbs", w1L=2.0, w2L=1.3, wH=1.3, horizon=10))
                assert all(a <= b + 1e-9 for a, b in zip(bases, bases[1:]))
        finally:
            CTQueue.pop = orig

    def test_incremental_conflicts_equal_full_recompute(self):
        orig = CTQueue.insert
        seen = []

        def spy(queue, node):
            seen.append(node)
            return orig(queue, node)
        CTQueue.insert = spy
        try:
            for inst in self.instances[:5]:
                seen.clear()
                domain = inst.domain()
                plan(domain, inst.starts, inst.goals, cfg("cbs", horizon=10))
                for node in seen:
                    assert node.conflicts == tuple(detect_conflicts(node.paths, domain))
        finally:
            CTQueue.insert = orig


class TestPlannerConfig:
    def test_variant_invariants_enforced(self):
        with pytest.raises(ValueError, match="requires w2L = 1"):
            PlannerConfig("xcbs", w2L=1.3)
        with pytest.raises(ValueError, match=">= 1"):
            PlannerConfig("ecbs", w1L=0.5)
        with pytest.raises(ValueError, match=">= 1"):
            PlannerConfig.make("ecbs", w1L=math.nan, w2L=1.3, wH=1.3)
        with pytest.raises(ValueError, match="timeout"):
            PlannerConfig.make("cbs", timeout=math.nan)
        with pytest.raises(ValueError, match="unknown planner"):
            PlannerConfig("a-star")
        # rejected when built, not by the low level's constraint-range check
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            PlannerConfig("cbs", horizon=-1)
        assert PlannerConfig("cbs", horizon=0).horizon == 0

    @pytest.mark.parametrize("name", ["w1L", "w2L", "wH"])
    def test_infinite_weights_rejected(self, name):
        # an infinite factor makes the suboptimality bound vacuous
        with pytest.raises(ValueError, match="finite"):
            PlannerConfig.make("ecbs", **{"w1L": 1.0, "w2L": 1.3, "wH": 1.3, name: math.inf})

    def test_make_fills_fixed_factors(self):
        c = PlannerConfig.make("xcbs", w1L=50.0)
        assert (c.w1L, c.w2L, c.wH, c.use_experience) == (50.0, 1.0, 1.0, True)
        assert not c.focal
        x = PlannerConfig.make("xecbs", w1L=50.0, w2L=1.3, wH=1.3)
        assert x.focal
