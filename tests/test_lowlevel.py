import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mamp import (ArmDomain, ArmSpec, Constraint, GridDomain, Path,
                  generate_scene, parse_scene)
from mamp.core import ConstraintIndex
from mamp.domains.base import ConflictTable
from mamp.domains.grid import AvoidanceTable
from mamp.lowlevel import (FocalQueue, LLParams, SearchNode,
                           push_partial_experience, solve, suffix,
                           try_insert_or_update)

from corpus import facing_arms, grid_corpus, one_joint_arm
from oracles import (EagerFocalQueue, grid_bfs_cost, plain_focal_wastar,
                     timed_optimal_cost)

A, B, C = (0, 0), (1, 0), (2, 0)
RES = math.pi / 16


def path_is_valid(domain, agent, path, start, goal, constraints=()):
    cidx = ConstraintIndex(constraints, agent)
    wps = path.waypoints
    if wps[0] != start or wps[-1] != goal:
        return False
    if not cidx.no_future_constraints(goal, len(wps) - 1):
        return False
    for t, (q, q2) in enumerate(zip(wps, wps[1:])):
        if not domain.is_lattice_edge(agent, q, q2):
            return False
        if not (domain.is_state_valid(agent, q2) and domain.is_edge_valid(agent, q, q2)):
            return False
        if not cidx.allows_move(q, t, q2):
            return False
    return cidx.allows_state(wps[0], 0)


class TestSolveExamples:
    def test_empty_grid_matches_bfs(self):
        g = GridDomain(3, 3)
        r = solve(g, 0, (0, 0), (2, 2))
        assert r.success
        assert r.cost == grid_bfs_cost(g, (0, 0), (2, 2)) == 4

    def test_goal_constraint_delays_arrival(self):
        g = GridDomain(3, 3)
        cons = [Constraint.vertex(0, (2, 2), 4)]
        r = solve(g, 0, (0, 0), (2, 2), cons)
        expect = timed_optimal_cost(g, 0, (0, 0), (2, 2), cons, horizon=12)
        assert expect == 5
        assert r.success and r.cost == expect
        assert path_is_valid(g, 0, r.path, (0, 0), (2, 2), cons)

    def test_experience_cuts_expansions_on_replan(self):
        g = GridDomain(9, 9)
        params = LLParams(w1=50.0)
        first = solve(g, 0, (0, 4), (8, 4), (), (), params)
        blocked = [Constraint.vertex(0, first.path.waypoints[4], 4)]
        cold = solve(GridDomain(9, 9), 0, (0, 4), (8, 4), blocked, (), params)
        warm = solve(GridDomain(9, 9), 0, (0, 4), (8, 4), blocked,
                     first.path.waypoints, params)
        oracle = timed_optimal_cost(GridDomain(9, 9), 0, (0, 4), (8, 4),
                                    blocked, horizon=20)
        assert cold.success and warm.success
        assert warm.cost == oracle  # w1 inflation cannot hurt this instance
        assert path_is_valid(GridDomain(9, 9), 0, warm.path, (0, 4), (8, 4), blocked)
        assert warm.expansions < cold.expansions

    def test_unreachable_goal_is_a_result_not_an_exception(self):
        g = GridDomain(3, 1, blocked=[(1, 0)])
        r = solve(g, 0, (0, 0), (2, 0))
        assert not r.success and r.status == "exhausted"

    def test_invalid_endpoint_raises(self):
        g = GridDomain(3, 3, blocked=[(2, 2)])
        with pytest.raises(ValueError, match="invalid endpoint"):
            solve(g, 0, (0, 0), (2, 2))

    def test_start_constrained_at_zero_fails(self):
        g = GridDomain(3, 3)
        r = solve(g, 0, (0, 0), (2, 2), [Constraint.vertex(0, (0, 0), 0)])
        assert not r.success and r.status == "start-constrained"

    def test_explicit_horizon_below_constraints_raises(self):
        g = GridDomain(3, 3)
        with pytest.raises(ValueError, match="horizon"):
            solve(g, 0, (0, 0), (2, 2), [Constraint.vertex(0, (1, 1), 9)],
                  params=LLParams(horizon=5))

    def test_weights_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            LLParams(w2=0.5)
        with pytest.raises(ValueError, match=">= 1"):
            LLParams(w1=math.nan)

    @pytest.mark.parametrize("kw", [dict(w1=math.inf), dict(w2=math.inf)],
                             ids=["w1", "w2"])
    def test_infinite_weights_rejected(self, kw):
        # f1 = g + inf * h is nan at the goal, so OPEN would hold nan keys
        with pytest.raises(ValueError, match="finite"):
            LLParams(**kw)

    def test_unknown_f2_rejected(self):
        with pytest.raises(ValueError, match="'conflict'"):
            LLParams(f2="conflict")

    def test_start_equals_goal(self):
        g = GridDomain(3, 3)
        r = solve(g, 0, (1, 1), (1, 1))
        assert r.success and r.cost == 0 and len(r.path) == 1

    def test_other_paths_naming_the_agent_rejected(self):
        # the agent would count conflicts against its own old path
        g = GridDomain(3, 3)
        others = [(1, Path(((2, 2),))), (0, Path(((0, 0), (1, 0))))]
        with pytest.raises(ValueError, match="agent 0 itself"):
            solve(g, 0, (0, 0), (2, 0), params=LLParams(f2="conflicts"),
                  other_paths=others)

    @pytest.mark.parametrize("kind", [ConflictTable, AvoidanceTable])
    def test_held_agent_is_not_counted(self, kind):
        # a table may hold the planned agent, as the constraint tree's does:
        # its old path, the longest held, is neither counted nor read for
        # the time from which agent 1, parked on the goal, stays there
        others = [(1, Path(((2, 1), (2, 0))))]
        held = kind([(0, Path(((0, 0), (1, 0), (1, 1), (1, 0), (1, 1), (1, 0))))]
                    + others)
        for params, hard in ((LLParams(w2=2.0, f2="conflicts", horizon=12), False),
                             (LLParams(horizon=12), True)):
            got, want = (solve(GridDomain(3, 3), 0, (0, 0), (2, 0), params=params,
                               other_paths=table, hard_paths=hard, record_trace=True)
                         for table in (held, others))
            assert (got.path, got.cost, got.lower_bound, got.expansions,
                    got.trace, got.status) == \
                (want.path, want.cost, want.lower_bound, want.expansions,
                 want.trace, want.status)

    def test_other_paths_naming_an_agent_twice_rejected(self):
        # counted twice, or collapsed to one by a table keyed by agent
        g = GridDomain(3, 3)
        p = Path(((1, 1),))
        with pytest.raises(ValueError, match="agent 1 has two paths"):
            solve(g, 0, (0, 0), (2, 0), params=LLParams(f2="conflicts"),
                  other_paths=[(1, p), (2, p), (1, p)])

    @pytest.mark.parametrize("f2, hard", [("f1", False), ("conflicts", False),
                                          ("f1", True)])
    @pytest.mark.parametrize("build, start, goal", [
        (lambda: GridDomain(3, 3), (0, 0), (2, 2)),
        (facing_arms, (-2,), (2,)),
    ], ids=["grid", "arm"])
    def test_empty_other_path_rejected(self, build, start, goal, f2, hard):
        # its rows, or the base counter's step list, would be read past its end
        with pytest.raises(ValueError, match="agent 1 has an empty path"):
            solve(build(), 0, start, goal, params=LLParams(f2=f2),
                  other_paths=[(1, Path(()))], hard_paths=hard)


class TestPlainPop:
    """With f1 as f2, FOCAL's least key is OPEN's at any w2, and the queue
    pops OPEN directly, in the order that the OPEN/FOCAL path gives."""

    class _Split(FocalQueue):
        def _keys(self, n):  # an equal FOCAL key, but not OPEN's own
            key, value, _ = super()._keys(n)
            return key, value, (*key,)

    @pytest.mark.parametrize("w2", [1.0, 1.3, 2.0])
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0, 4))),
                    max_size=40))
    def test_pops_match_the_open_focal_path(self, w2, ops):
        # an op is a pop (None) or an insert of (g, h); drained at the end
        queues = [FocalQueue(w2=w2), self._Split(w2=w2)]
        for index, op in enumerate(ops + [None] * len(ops)):
            if op is None:
                plain, split = (q.pop() for q in queues)
                assert (plain and plain.state) == (split and split.state)
                assert queues[0].base == queues[1].base
            else:
                g, h = op
                for q in queues:
                    q.insert(SearchNode(((index,), g), h, g, g + h))
        if any(op is not None for op in ops):
            assert queues[0]._plain and not queues[1]._plain

    @pytest.mark.parametrize("w2, f2, plain", [(1.0, "f1", True), (1.3, "f1", True),
                                               (1.0, "conflicts", False)])
    def test_chosen_by_w2_and_key_shape(self, w2, f2, plain):
        q = FocalQueue(w2=w2, f2=f2)
        q.push_root(((0, 0), 0))
        assert q._plain is plain


class TestTryInsertOrUpdate:
    def _queue(self):
        q = FocalQueue(h_fn=lambda s: 0.0)
        root = q.push_root((A, 0))
        return q, root

    def test_unseen_state_initialized_and_relaxed(self):
        q, root = self._queue()
        root.g = 3
        assert try_insert_or_update(q, root, (B, 1))
        node = q.nodes[(B, 1)]
        assert node.g == 4 and node.parent is root and node.in_open

    def test_equal_g_is_not_an_improvement(self):
        q, root = self._queue()
        try_insert_or_update(q, root, (B, 1))
        other = q.push_root((C, 0))
        assert not try_insert_or_update(q, other, (B, 1))
        assert q.nodes[(B, 1)].parent is root

    H = {A: 1.0, B: 0.0, C: 5.0}

    def _pops(self, close_first: bool, regenerate: bool) -> list:
        """Pop sequence of a queue holding roots (A, 0) and (C, 0) and A's
        child (B, 1), popping (B, 1) first if ``close_first``, then
        generating (B, 1) again from C if ``regenerate``."""
        q = FocalQueue(h_fn=lambda s: self.H[s[0]])
        a, c = q.push_root((A, 0)), q.push_root((C, 0))
        assert try_insert_or_update(q, a, (B, 1))
        node = q.nodes[(B, 1)]
        pops = [q.pop().state] if close_first else []
        if regenerate:
            assert not try_insert_or_update(q, c, (B, 1))
        assert q.nodes[(B, 1)] is node
        assert (node.g, node.parent, node.in_open) == (1, a, not close_first)
        while (n := q.pop()) is not None:
            pops.append(n.state)
        return pops

    def test_known_open_state_is_left_alone(self):
        # (B, 1) ties A's f1 = 1 and wins on the larger g
        assert self._pops(False, True) == self._pops(False, False) \
            == [(B, 1), (A, 0), (C, 0)]

    def test_known_closed_state_is_not_reopened(self):
        assert self._pops(True, True) == self._pops(True, False) \
            == [(B, 1), (A, 0), (C, 0)]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8)), max_size=40))
    @settings(max_examples=60)
    def test_g_never_increases(self, ops):
        q = FocalQueue(h_fn=lambda s: 0.0)
        roots = [q.push_root(((i, 9), 0)) for i in range(6)]
        for i, r in enumerate(roots):
            r.g = i * 2
        seen: dict = {}
        for parent_idx, state_x in ops:
            state = ((state_x, 0), 1)
            try_insert_or_update(q, roots[parent_idx], state)
            g = q.nodes[state].g
            assert g <= seen.get(state, math.inf)
            seen[state] = g


class TestSuffix:
    def test_after_first(self):
        assert suffix((A, B, C), A) == (B, C)

    def test_earliest_occurrence(self):
        assert suffix((A, B, A, C), A) == (B, A, C)

    def test_absent_or_last(self):
        assert suffix((A, B), (9, 9)) == ()
        assert suffix((A, B), B) == ()


class TestPushPartialExperience:
    def _setup(self, constraints=()):
        g = GridDomain(3, 1)
        cidx = ConstraintIndex(constraints, 0)
        q = FocalQueue(h_fn=lambda s: 0.0)
        root = q.push_root((A, 0))

        def move_ok(q0, t, q2):
            return cidx.allows_move(q0, t, q2) and \
                g.is_lattice_edge(0, q0, q2) and \
                g.is_state_valid(0, q2) and g.is_edge_valid(0, q0, q2)
        return q, root, move_ok

    def test_walks_whole_suffix(self):
        q, root, move_ok = self._setup()
        push_partial_experience(q, (A, B, C), root, move_ok)
        assert q.nodes[(B, 1)].g == 1
        assert q.nodes[(C, 2)].g == 2

    def test_constraint_stops_the_walk(self):
        q, root, move_ok = self._setup([Constraint.edge(0, B, C, 1)])
        push_partial_experience(q, (A, B, C), root, move_ok)
        assert (B, 1) in q.nodes
        assert (C, 2) not in q.nodes

    def test_non_adjacent_experience_step_stops(self):
        q, root, move_ok = self._setup()
        push_partial_experience(q, (A, C, B), root, move_ok)  # A->C jumps
        assert (C, 1) not in q.nodes and (B, 2) not in q.nodes

    @pytest.mark.parametrize("make,start,goal,bad", [
        (lambda: GridDomain(3, 3), (0, 0), (2, 2), (1,)),
        (one_joint_arm, (0,), (3,), (1, 0)),
    ], ids=["grid", "arm"])
    def test_config_of_wrong_length_stops_the_walk(self, make, start, goal, bad):
        # the grid's unrolled lattice-edge test indexes both coordinates
        plain = solve(make(), 0, start, goal, record_trace=True)
        for exp in ((start, bad), (start, bad, start)):
            r = solve(make(), 0, start, goal, experience=exp, record_trace=True)
            assert r.success and r.trace == plain.trace

    # the second arm parks where the experience's second transition arrives
    TWO_ARMS = [ArmSpec((0.0, 0.0), (1.0,), RES, ((-16, 16),)),
                ArmSpec((0.0, 1.55), (0.5,), RES, ((-16, 16),))]

    def test_path_aware_stops_at_other_agent_collision(self):
        d = ArmDomain(self.TWO_ARMS, thickness=0.04)
        other = Path(((-8,),))  # hangs straight down to (0, 1.05)
        exp = ((6,), (7,), (8,))
        assert d.pairwise_collision(0, (8,), (8,), 1, (-8,), (-8,))
        assert not d.pairwise_collision(0, (7,), (7,), 1, (-8,), (-8,))
        for aware, present in ((False, True), (True, False)):
            q = FocalQueue(h_fn=lambda s: 0.0)
            root = q.push_root(((6,), 0))

            def move_ok(q0, t, q2, aware=aware):
                if not (d.is_state_valid(0, q2) and d.is_edge_valid(0, q0, q2)):
                    return False
                if aware:
                    a, b = other.at(t), other.at(t + 1)
                    if d.pairwise_collision(0, q2, q2, 1, b, b) or \
                            d.pairwise_collision(0, q0, q2, 1, a, b):
                        return False
                return True
            push_partial_experience(q, exp, root, move_ok)
            assert ((7,), 1) in q.nodes
            assert (((8,), 2) in q.nodes) == present

    def test_solve_walk_stops_at_other_agents_iff_given_them(self):
        # Given the other arm's path, the walk stops before (8,) and the
        # search expands its way there; without it, the whole experience is
        # walked and the goal is the first expansion.
        exp = ((6,), (7,), (8,), (9,), (10,))
        for others, expansions in (([(1, Path(((-8,),)))], 4), (None, 1)):
            d = ArmDomain(self.TWO_ARMS, thickness=0.04)
            r = solve(d, 0, (6,), (10,), (), exp, LLParams(w1=50.0),
                      other_paths=others)
            assert r.success and r.expansions == expansions


class TestHeuristic:
    def test_grid_manhattan(self):
        g = GridDomain(3, 3)
        assert g.heuristic(0, (0, 0), (2, 2)) == 4

    def test_arm_zero_at_goal(self):
        d = one_joint_arm()
        assert d.heuristic(0, (5,), (5,)) == 0.0

    def test_arm_steps_normalization(self):
        d = one_joint_arm()
        assert d.heuristic(0, (2,), (5,)) == pytest.approx(3.0)

    def test_arm_admissible_vs_timed_oracle(self):
        d = one_joint_arm()
        rng = random.Random(7)
        for _ in range(20):
            a, b = rng.randint(-16, 16), rng.randint(-16, 16)
            h = d.heuristic(0, (a,), (b,))
            true = timed_optimal_cost(d, 0, (a,), (b,), horizon=40)
            assert h <= true + 1e-9

    def test_multi_joint_l2_below_l1(self):
        arm = ArmSpec((0.0, 0.0), (0.4, 0.4), RES, ((-16, 16),) * 2)
        d = ArmDomain([arm])
        h = d.heuristic(0, (0, 0), (3, 4))
        assert h == pytest.approx(5.0)  # sqrt(9+16)
        assert h <= 7  # true cost is the L1 distance here


WEIGHTS = [(w1, w2) for w1 in (1.0, 1.3, 2.0, 50.0) for w2 in (1.0, 1.3, 2.0)]


class TestGuarantees:
    def setup_method(self):
        self.instances = grid_corpus(seed=11, count=12)

    def _random_constraints(self, rng, inst, agent=0):
        cells = [(x, y) for x in range(inst.width) for y in range(inst.height)]
        cons = []
        for _ in range(rng.randint(0, 4)):
            q = rng.choice(cells)
            t = rng.randint(1, 6)
            if rng.random() < 0.5:
                cons.append(Constraint.vertex(agent, q, t))
            else:
                q2 = rng.choice([(q[0] + 1, q[1]), (q[0], q[1] + 1), q])
                cons.append(Constraint.edge(agent, q, q2, t))
        return cons

    def test_bounded_suboptimality_under_constraints(self):
        rng = random.Random(5)
        for inst in self.instances:
            cons = self._random_constraints(rng, inst)
            start, goal = inst.starts[0], inst.goals[0]
            opt = timed_optimal_cost(inst.domain(), 0, start, goal, cons, horizon=12)
            for w1, w2 in WEIGHTS:
                r = solve(inst.domain(), 0, start, goal, cons,
                          params=LLParams(w1=w1, w2=w2, horizon=12))
                assert r.success == (opt is not None)
                if r.success:
                    assert r.cost <= w1 * w2 * opt + 1e-9
                    assert path_is_valid(inst.domain(), 0, r.path, start, goal, cons)

    def test_experience_neutrality_with_adversarial_sequences(self):
        rng = random.Random(9)
        for inst in self.instances:
            start, goal = inst.starts[0], inst.goals[0]
            cons = self._random_constraints(rng, inst)
            opt = timed_optimal_cost(inst.domain(), 0, start, goal, cons, horizon=12)
            cells = [(x, y) for x in range(inst.width) for y in range(inst.height)]
            adversarial = [
                tuple(rng.choice(cells) for _ in range(8)),
                tuple(reversed([goal, start, goal, start])),
                (start,) * 3 + (goal,) * 3,
            ]
            for exp in adversarial:
                for w1, w2 in ((1.0, 1.0), (2.0, 1.3)):
                    r = solve(inst.domain(), 0, start, goal, cons, exp,
                              LLParams(w1=w1, w2=w2, horizon=12))
                    assert r.success == (opt is not None)
                    if r.success:
                        assert r.cost <= w1 * w2 * opt + 1e-9
                        assert path_is_valid(inst.domain(), 0, r.path, start,
                                             goal, cons)

    def test_empty_experience_trace_equals_plain_search(self):
        for inst in self.instances[:8]:
            start, goal = inst.starts[0], inst.goals[0]
            other = solve(inst.domain(), 1, inst.starts[1], inst.goals[1],
                          params=LLParams(horizon=12))
            others = [(1, other.path)] if other.success else None
            for w1, w2, f2 in ((1.0, 1.0, "f1"), (1.3, 1.0, "f1"),
                               (50.0, 1.3, "conflicts"), (2.0, 2.0, "conflicts")):
                r = solve(inst.domain(), 0, start, goal, (), (),
                          LLParams(w1=w1, w2=w2, f2=f2, horizon=10),
                          other_paths=others, record_trace=True)
                _cost, ref_trace = plain_focal_wastar(
                    inst.domain(), 0, start, goal, (), w1, w2, f2, others,
                    horizon=10)
                assert r.trace == ref_trace

    def test_lower_bound_below_constrained_optimum(self):
        rng = random.Random(3)
        for _ in range(25):
            w, h = rng.randint(3, 5), rng.randint(3, 5)
            blocked = [(x, y) for x in range(w) for y in range(h)
                       if rng.random() < 0.1]
            g = GridDomain(w, h, blocked)
            free = [(x, y) for x in range(w) for y in range(h)
                    if (x, y) not in blocked]
            start, goal = rng.choice(free), rng.choice(free)
            if not (g.is_state_valid(0, start) and g.is_state_valid(0, goal)):
                continue
            inst = GridDomain(w, h, blocked)
            cons = []
            for _ in range(rng.randint(0, 3)):
                cons.append(Constraint.vertex(0, rng.choice(free), rng.randint(1, 5)))
            opt = timed_optimal_cost(inst, 0, start, goal, cons, horizon=12)
            if opt is None:
                continue
            for w1, w2 in ((1.0, 1.0), (50.0, 1.3)):
                r = solve(GridDomain(w, h, blocked), 0, start, goal, cons,
                          params=LLParams(w1=w1, w2=w2, horizon=12))
                assert r.success
                assert r.lower_bound <= opt + 1e-9

    def test_focal_membership_exact_at_every_pop(self):
        inst = self.instances[0]
        w2 = 1.3
        orig_pop = FocalQueue.pop
        violations = []

        def checked_pop(queue):
            live = [n.f1 for n in queue.nodes.values() if n.in_open]
            node = orig_pop(queue)
            if node is not None and live:
                if node.f1 > w2 * min(live) + 1e-9:
                    violations.append((node.f1, min(live)))
            return node
        FocalQueue.pop = checked_pop
        try:
            solve(inst.domain(), 0, inst.starts[0], inst.goals[0], (),
                  params=LLParams(w1=2.0, w2=w2, horizon=12))
        finally:
            FocalQueue.pop = orig_pop
        assert not violations


class TestLazyConflictCounts:
    """A state's conflict count is settled only when the state enters
    FOCAL, yet FOCAL pops in the eager order with the eager counts."""

    T = 6  # timesteps of the random timed lattice

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 4), st.sampled_from([1.0, 1.5, 50.0]),
           st.sampled_from([1.0, 1.3, 2.0]))
    def test_pops_match_eager_reference(self, data, n, w1, w2):
        h = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        steps = data.draw(st.lists(st.integers(0, 2), min_size=n * n * self.T,
                                   max_size=n * n * self.T))
        calls = {"lazy": 0, "eager": 0}

        def counter(side):
            def cc_fn(s1, s2):
                calls[side] += 1
                return steps[(s1[0][0] * n + s2[0][0]) * self.T + s1[1]]
            return cc_fn

        def h_fn(s):
            return h[s[0][0]]
        queue = FocalQueue(w1, w2, "conflicts", h_fn=h_fn, cc_fn=counter("lazy"))
        ref = EagerFocalQueue(w1, w2, h_fn, counter("eager"))
        root = ((0,), 0)
        queue.push_root(root)
        ref.push_root(root)

        def relax(parent, q2):
            s2 = (q2, parent.state[1] + 1)
            if s2[1] < self.T:
                try_insert_or_update(queue, parent, s2)
                ref.relax(parent.state, s2)
            return queue.nodes.get(s2)

        configs = st.integers(0, n - 1).map(lambda k: (k,))
        for _ in range(data.draw(st.integers(0, 25))):
            if data.draw(st.booleans()):
                # an experience-style walk from any known state: the cursor
                # follows the walked states, popped or not
                cur = queue.nodes[data.draw(st.sampled_from(sorted(queue.nodes)))]
                for q2 in data.draw(st.lists(configs, max_size=4)):
                    cur = relax(cur, q2)
                    if cur is None:
                        break
                continue
            node, want = queue.pop(), ref.pop()
            assert (None if node is None else (node.state, node.cc)) == want
            if node is None:
                break
            for q2 in data.draw(st.sets(configs)):
                relax(node, q2)
        while True:
            node, want = queue.pop(), ref.pop()
            assert (None if node is None else (node.state, node.cc)) == want
            if node is None:
                break
        assert calls["lazy"] <= calls["eager"]

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 2), st.sampled_from([(50.0, 1.3), (1.0, 2.0)]))
    def test_grid_trace_matches_plain_focal(self, data, n_others, weights):
        # random walkers cross and park on the goal, so the counts charged
        # to goal arrivals for the parked time steer the search
        domain = GridDomain(3, 3)
        cells = st.tuples(st.integers(0, 2), st.integers(0, 2))
        others = []
        for j in range(1, n_others + 1):
            wps = [data.draw(cells)]
            for _ in range(data.draw(st.integers(0, 8))):
                wps.append(data.draw(st.sampled_from(domain.successor_configs(j, wps[-1]))))
            others.append((j, Path(tuple(wps))))
        start, goal = data.draw(cells), data.draw(cells)
        w1, w2 = weights
        r = solve(GridDomain(3, 3), 0, start, goal, params=LLParams(
            w1=w1, w2=w2, f2="conflicts", horizon=10), other_paths=others,
            record_trace=True)
        _cost, ref_trace = plain_focal_wastar(domain, 0, start, goal, (), w1, w2,
                                              "conflicts", others, horizon=10)
        assert r.trace == ref_trace

    @pytest.mark.parametrize("n", [2, 3])
    def test_arm_trace_matches_plain_focal(self, n):
        horizon = 16
        compared = 0
        for seed in range(6):
            scene = parse_scene(generate_scene("circle-arms", n=n, seed=seed,
                                               links=2, walk=6))
            domain = scene.build_domain()
            # the other arms run their queries in reverse, across agent 0's
            others = []
            for j in range(1, n):
                res = solve(domain, j, scene.goals[j], scene.starts[j],
                            params=LLParams(horizon=horizon))
                if res.success:
                    others.append((j, res.path))
            if not others:
                continue
            params = LLParams(w1=50.0, w2=1.3, f2="conflicts", horizon=horizon)
            r = solve(scene.build_domain(), 0, scene.starts[0], scene.goals[0],
                      params=params, other_paths=others, record_trace=True)
            _cost, ref_trace = plain_focal_wastar(
                scene.build_domain(), 0, scene.starts[0], scene.goals[0], (),
                50.0, 1.3, "conflicts", others, horizon=horizon)
            assert r.trace == ref_trace, seed
            compared += 1
        assert compared >= 4


class TestConflictTableParity:
    def test_grid_table_plans_like_pair_tests(self):
        # the grid's conflict table must steer every search exactly as the
        # base class's pair tests do: same paths, costs and expansions
        from mamp import PlannerConfig, generate_scene, parse_scene, run_planner
        from mamp.domains.base import ConflictTable
        cases = [(inst.domain, inst.starts, inst.goals)
                 for inst in grid_corpus(seed=61, count=10)]
        for seed in (3, 4):
            scene = parse_scene(generate_scene("corridor-grid", n=6, width=7,
                                               height=7, seed=seed))
            cases.append((scene.build_domain, scene.starts, scene.goals))
        configs = [PlannerConfig.make(v, w1L=2.0, w2L=1.3, wH=1.3, timeout=60.0)
                   for v in ("ecbs", "xecbs")] + [PlannerConfig.make("pp")]
        for build, s, g in cases:
            for config in configs:
                table = run_planner(build(), s, g, config)
                pairs_domain = build()
                pairs_domain.Table = ConflictTable  # the base kind's pair tests
                pairs = run_planner(pairs_domain, s, g, config)
                assert table.status == pairs.status
                assert (table.cost, table.ll_expansions, table.ct_expansions) == \
                    (pairs.cost, pairs.ll_expansions, pairs.ct_expansions)
                if table.success:
                    assert table.solution == pairs.solution
                assert table.collision_checks <= pairs.collision_checks


class TestHardPathsOracle:
    """The prioritized-planning low level (a hard collision filter on every
    step and a parked check at the goal) finds the oracle's optimal cost
    against fixed other agents that walk through and park on the goal."""

    H = 10

    def _check(self, data, domain, configs, others_ids):
        def walk(jid):
            q = data.draw(st.sampled_from(configs(jid)))
            wps = [q]
            for _ in range(data.draw(st.integers(0, 6))):
                q = data.draw(st.sampled_from(domain.successor_configs(jid, q)))
                wps.append(q)
            return Path(tuple(wps))
        others = [(j, walk(j)) for j in others_ids]
        start = data.draw(st.sampled_from(configs(0)))
        goal = data.draw(st.sampled_from(configs(0)))
        assume(not any(domain.pairwise_collision(0, start, start, j, p.at(0), p.at(0))
                       for j, p in others))
        want = timed_optimal_cost(domain, 0, start, goal, horizon=self.H,
                                  other_paths=others, hard=True)
        got = solve(domain, 0, start, goal, other_paths=others, hard_paths=True,
                    params=LLParams(horizon=self.H))
        assert got.cost == want, (start, goal, others)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(2, 3),
           st.sets(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=2),
           st.integers(1, 3))
    def test_grid(self, data, width, height, blocked, n_others):
        domain = GridDomain(width, height, blocked)
        free = [(x, y) for x in range(width) for y in range(height)
                if domain.is_state_valid(0, (x, y))]
        assume(free)
        self._check(data, domain, lambda _: free, range(1, n_others + 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_arm(self, data):
        domain = facing_arms()
        self._check(data, domain,
                    lambda j: [(k,) for k in range(-4, 5)
                               if domain.is_state_valid(j, (k,))], [1])


class TestGenerateOnce:
    """A solve inserts each state it generates into its queue exactly once,
    with g equal to the state's time, whatever the constraints, experience
    (adversarial included), other agents and focal priority."""

    H = 8

    def _check(self, data, domain, configs, others_ids, junk):
        def walk(j, q, steps):
            wps = [q]
            for _ in range(steps):
                wps.append(data.draw(st.sampled_from(domain.successor_configs(j, wps[-1]))))
            return wps
        start = data.draw(st.sampled_from(configs))
        goal = data.draw(st.sampled_from(configs))
        constraints = []
        for _ in range(data.draw(st.integers(0, 4))):
            q = data.draw(st.sampled_from(configs))
            q2 = data.draw(st.sampled_from(domain.successor_configs(0, q)))
            t = data.draw(st.integers(1, self.H - 2))
            constraints.append(Constraint.vertex(0, q2, t) if data.draw(st.booleans())
                               else Constraint.edge(0, q, q2, t))
        kind = data.draw(st.sampled_from(["none", "walk", "adversarial"]))
        if kind == "walk":
            experience = walk(0, start, data.draw(st.integers(0, 6)))
        elif kind == "adversarial":
            experience = [start] + data.draw(st.lists(st.sampled_from(configs + junk),
                                                      max_size=8))
        else:
            experience = ()
        others = [(j, Path(tuple(walk(j, data.draw(st.sampled_from(configs)),
                                      data.draw(st.integers(0, 6))))))
                  for j in data.draw(st.sets(st.sampled_from(others_ids)))]
        params = LLParams(w1=data.draw(st.sampled_from([1.0, 2.0, 50.0])),
                          w2=data.draw(st.sampled_from([1.0, 1.3])),
                          f2=data.draw(st.sampled_from(["f1", "conflicts"])),
                          horizon=self.H)
        inserted = []
        insert = FocalQueue.insert

        def spy(queue, node):
            inserted.append((queue, node))
            insert(queue, node)
        with mock.patch.object(FocalQueue, "insert", spy):
            r = solve(domain, 0, start, goal, constraints, experience, params,
                      other_paths=others, hard_paths=data.draw(st.booleans()),
                      record_trace=True)
        nodes = [n for _, n in inserted]
        assert len({q for q, _ in inserted}) <= 1
        assert len({n.state for n in nodes}) == len(nodes)
        if inserted:
            assert sorted(inserted[0][0].nodes) == sorted(n.state for n in nodes)
        assert all(n.g == n.state[1] for n in nodes)
        assert len(set(r.trace)) == len(r.trace)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(2, 3),
           st.sets(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=2))
    def test_grid(self, data, width, height, blocked):
        domain = GridDomain(width, height, blocked)
        free = [(x, y) for x in range(width) for y in range(height)
                if domain.is_state_valid(0, (x, y))]
        assume(free)
        self._check(data, domain, free, [1, 2], [(width, 0), (0, -1), (1,)])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_arm(self, data):
        domain = facing_arms()
        configs = [(k,) for k in range(-4, 5) if domain.is_state_valid(0, (k,))]
        self._check(data, domain, configs, [1], [(5,), (-6,), (0, 0)])
