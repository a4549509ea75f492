import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mamp import (ArmDomain, ArmSpec, Constraint, Disc, GridDomain, Path,
                  Segment, forward_kinematics, get_successors)
from mamp.core import ConstraintIndex
from mamp.domains.arm import MAX_COORD, _CONTACT, _chain, _seg_seg_dist2
from mamp.domains.base import ConflictTable, LatticeDomain
from mamp.domains.grid import AvoidanceTable
from mamp.lowlevel import LLParams, solve

from corpus import facing_arms, one_joint_arm, two_link_arm_pair
from oracles import (_pt_seg_dist2, dense_edge_valid, exact_seg_seg_dist2,
                     sampled_edge_valid, sampled_pair_collision, step_conflicts)

RES = math.pi / 16


def N(*cons, agent=0):
    return ConstraintIndex(cons, agent)


class TestGridSuccessors:
    def test_center_cell_has_five(self):
        g = GridDomain(3, 3)
        succ = get_successors(g, 0, ((1, 1), 0), N())
        assert len(succ) == 5
        assert all(t == 1 for _, t in succ)
        assert ((1, 1), 1) in succ  # wait

    def test_vertex_constraint_blocks_north(self):
        g = GridDomain(3, 3)
        succ = get_successors(g, 0, ((1, 1), 0), N(Constraint.vertex(0, (1, 2), 1)))
        assert len(succ) == 4
        assert ((1, 2), 1) not in succ

    def test_constraint_at_other_time_ignored(self):
        g = GridDomain(3, 3)
        succ = get_successors(g, 0, ((1, 1), 0), N(Constraint.vertex(0, (1, 2), 5)))
        assert len(succ) == 5

    def test_blocked_and_border_cells(self):
        g = GridDomain(3, 3, blocked=[(1, 0)])
        succ = get_successors(g, 0, ((0, 0), 0), N())
        assert succ == [((0, 0), 1), ((0, 1), 1)]

    def test_horizon_cuts_generation(self):
        g = GridDomain(3, 3)
        assert get_successors(g, 0, ((1, 1), 4), N(), horizon=4) == []

    def test_wrong_arity_is_invalid(self):
        g = GridDomain(3, 3)
        assert not g.is_state_valid(0, (0, 0, 5))
        assert not g.is_state_valid(0, (0,))
        assert g.stats.geometry_checks == 2
        assert g.is_state_valid(0, (0, 0)) and g.is_state_valid(0, (0, 0))
        assert g.stats.geometry_checks == 3  # the repeat is a cache hit
        assert g.stats.cache_hits == 1


def _walks(size=3, dims=2, lo=0):
    """Lattice paths of 1-8 waypoints made of waits and unit moves, every
    coordinate in lo .. lo + size - 1 (by default, on a 3x3 grid)."""
    units = [tuple(s if k == d else 0 for k in range(dims))
             for d in range(dims) for s in (1, -1)]
    steps = st.sampled_from([(0,) * dims] + units)
    cell = st.tuples(*[st.integers(lo, lo + size - 1)] * dims)

    def walk(args):
        q, moves = args
        wps = [q]
        for m in moves:
            q2 = tuple(v + dv for v, dv in zip(q, m))
            if all(lo <= v < lo + size for v in q2):
                q = q2
            wps.append(q)
        return Path(tuple(wps))
    return st.tuples(cell, st.lists(steps, max_size=7)).map(walk)


class TestStepConflicts:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_walks(), min_size=1, max_size=4))
    def test_grid_table_matches_pair_tests(self, paths):
        # every move of a 3x3 grid at every departure time before, at and
        # after the last path end, against 1-4 others of unequal lengths
        # that wait, swap and stack on one cell
        others = [(j + 1, p) for j, p in enumerate(paths)]
        last = max(p.duration for p in paths)
        grid = GridDomain(3, 3)
        counters = [AvoidanceTable(others).step_conflicts(grid, 0),
                    ConflictTable(others).step_conflicts(grid, 0)]
        ref = GridDomain(3, 3)
        for q in [(x, y) for x in range(3) for y in range(3)]:
            for q2 in ref.successor_configs(0, q):
                for t in range(last + 3):
                    for first in (False, True):
                        want = step_conflicts(ref, 0, others, q, t, q2, first)
                        assert [c(q, t, q2, first) for c in counters] == [want] * 2, \
                            (q, t, q2, first)

    def test_grid_table_runs_no_pair_test(self):
        g = GridDomain(3, 1)
        count = AvoidanceTable([(1, Path(((2, 0), (1, 0), (0, 0))))]).step_conflicts(g, 0)
        assert count((0, 0), 0, (1, 0)) == 1   # both arrive at (1, 0)
        assert count((0, 0), 1, (1, 0)) == 1   # swap (0,0) <-> (1,0)
        assert count((1, 0), 1, (1, 0)) == 0   # waits as the other leaves
        assert count((1, 0), 5, (0, 0)) == 1   # onto the parked end
        assert g.stats.pair_queries == 0 and g.stats.geometry_checks == 0


class TestConflictTable:
    """A table reached by any sequence of in-place sets holds the model's
    pairs in the model's order, reports the largest held duration as
    ``last``, and counts every move at every time before and past its span
    exactly as one pair test per held path."""

    @staticmethod
    def _ops(paths, agents):
        # (agent, its new path), set in place
        return st.lists(st.tuples(st.sampled_from(agents), paths), max_size=8)

    def _check(self, build, configs, ops):
        domain, ref = build(), build()
        table, model = domain.Table(), {}
        for agent, path in ops:
            table.set(agent, path)
            model[agent] = path
        pairs = list(model.items())
        assert list(table) == pairs
        assert table.last == max((p.duration for _, p in pairs), default=0)
        count = table.step_conflicts(domain, 0)
        span = max(getattr(table, "span", 0), table.last)
        for q in configs:
            for q2 in ref.successor_configs(0, q):
                for t in range(span + 3):
                    for first in (False, True):
                        want = step_conflicts(ref, 0, pairs, q, t, q2, first)
                        assert count(q, t, q2, first) == want, (q, t, q2, first)
        return table, pairs

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_grid(self, data):
        cells = list(itertools.product(range(3), range(3)))
        table, pairs = self._check(lambda: GridDomain(3, 3), cells,
                                   data.draw(self._ops(_walks(), [1, 2, 3, 4])))
        # solve reads the table as it reads the same pairs: the parked sums
        # and the parked check use `last`, not the span
        start, goal = data.draw(st.sampled_from(cells)), data.draw(st.sampled_from(cells))
        for params, hard in ((LLParams(w2=1.5, f2="conflicts", horizon=12), False),
                             (LLParams(horizon=12), True)):
            got, want = (solve(GridDomain(3, 3), 0, start, goal, params=params,
                               other_paths=others, hard_paths=hard, record_trace=True)
                         for others in (table, pairs))
            assert (got.path, got.trace, got.status) == (want.path, want.trace, want.status)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_arm(self, data):
        self._check(facing_arms, [(k,) for k in range(-4, 5)],
                    data.draw(self._ops(_walks(9, 1, -4), [1])))


class TestCounterSkipsItsAgent:
    """A table that holds agent 0 counts agent 0's moves as a fresh table of
    the other pairs does, at every move and every time up to 2 past its
    span, and `solve` for agent 0 given it plans as given the other pairs,
    to the trace: agent 0's own path is never counted, nor read for the
    time from which the others are parked, also when it is strictly the
    longest held."""

    def _check(self, data, build, kinds, configs, walks, others):
        ops = data.draw(TestConflictTable._ops(walks, [0] + others))
        own = data.draw(walks)
        last = max((p.duration for j, p in ops if j != 0), default=0)
        if data.draw(st.booleans()):  # agent 0's path strictly the longest
            own = Path(own.waypoints + own.waypoints[-1:]
                       * (last + data.draw(st.integers(1, 6)) - own.duration))
        ops.append((0, own))
        start, goal = (data.draw(st.sampled_from(configs)) for _ in range(2))
        ref = build()
        for kind in kinds:
            held = kind()
            for agent, path in ops:
                held.set(agent, path)
            pairs = [(j, p) for j, p in held if j != 0]
            count = held.step_conflicts(build(), 0)
            want = kind(pairs).step_conflicts(ref, 0)
            span = max(getattr(held, "span", 0), held.last)
            for q in configs:
                for q2 in ref.successor_configs(0, q):
                    for t in range(span + 3):
                        for first in (False, True):
                            assert count(q, t, q2, first) == want(q, t, q2, first), \
                                (kind, q, t, q2, first)
            for params, hard in ((LLParams(w2=2.0, f2="conflicts", horizon=12), False),
                                 (LLParams(horizon=12), True)):
                got, exp = (solve(build(), 0, start, goal, params=params,
                                  other_paths=others, hard_paths=hard,
                                  record_trace=True)
                            for others in (held, pairs))
                assert (got.path, got.cost, got.lower_bound, got.expansions,
                        got.trace, got.status) == \
                    (exp.path, exp.cost, exp.lower_bound, exp.expansions,
                     exp.trace, exp.status), (kind, params, hard)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_grid(self, data):
        self._check(data, lambda: GridDomain(3, 3), (ConflictTable, AvoidanceTable),
                    list(itertools.product(range(3), range(3))), _walks(), [1, 2, 3])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_arm(self, data):
        self._check(data, facing_arms, (ConflictTable,),
                    [(k,) for k in range(-4, 5)], _walks(9, 1, -4), [1])


class TestConflictTableRejects:
    """An empty path is a ValueError naming the agent, and the table is
    left as it was."""

    HELD = [(1, Path(((0, 0), (1, 0), (1, 1)))), (2, Path(((2, 2),)))]

    @staticmethod
    def _state(table):
        return {k: dict(v) if isinstance(v, dict) else v
                for k, v in vars(table).items()}

    @pytest.mark.parametrize("kind", [ConflictTable, AvoidanceTable])
    @pytest.mark.parametrize("call, message", [
        (lambda t: t.set(1, Path(())), "agent 1 has an empty path"),
        (lambda t: t.set(3, Path(())), "agent 3 has an empty path"),
    ], ids=["set-held-empty", "set-new-empty"])
    def test_rejected_call_leaves_the_table(self, kind, call, message):
        table = kind(self.HELD)
        before = self._state(table)
        with pytest.raises(ValueError, match=message):
            call(table)
        assert self._state(table) == before
        assert list(table) == self.HELD and table.last == 2

    @pytest.mark.parametrize("kind", [ConflictTable, AvoidanceTable])
    def test_built_with_an_empty_path(self, kind):
        with pytest.raises(ValueError, match="agent 1 has an empty path"):
            kind([(1, Path(()))])


class TestArmKinematics:
    def _arm(self, *lengths):
        return ArmSpec((0.0, 0.0), tuple(lengths), RES, ((-16, 16),) * len(lengths))

    def test_straight_chain(self):
        pts = forward_kinematics(self._arm(1.0, 1.0), (0, 0))
        assert pts[0] == pytest.approx((1.0, 0.0))
        assert pts[1] == pytest.approx((2.0, 0.0))

    def test_first_joint_rotates_whole_arm(self):
        pts = forward_kinematics(self._arm(1.0, 1.0), (8, 0))  # pi/2
        assert pts[0] == pytest.approx((0.0, 1.0), abs=1e-9)
        assert pts[1] == pytest.approx((0.0, 2.0), abs=1e-9)

    def test_angles_are_cumulative(self):
        pts = forward_kinematics(self._arm(1.0, 1.0), (8, -8))  # pi/2, -pi/2
        assert pts[0] == pytest.approx((0.0, 1.0), abs=1e-9)
        assert pts[1] == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_out_of_limit_raises(self):
        with pytest.raises(ValueError, match="limits"):
            forward_kinematics(self._arm(1.0), (17,))

    @given(st.data())
    @settings(max_examples=80)
    def test_matches_the_planning_chain(self, data):
        arms = [ArmSpec((0.5, -0.25), (0.4, 0.3, 0.2), RES, ((-16, 16),) * 3),
                ArmSpec((-1.0, 0.7), (0.6,), RES, ((-8, 8),))]
        domain = ArmDomain(arms)
        for i, arm in enumerate(arms):
            q = tuple(data.draw(st.integers(lo, hi)) for lo, hi in arm.limits)
            assert forward_kinematics(arm, q) == list(domain.chain(i, q)[1:])

    @given(st.lists(st.integers(-16, 16), min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_reach_never_exceeds_total_length(self, q):
        lengths = tuple(0.3 + 0.1 * i for i in range(len(q)))
        arm = ArmSpec((0.5, -0.25), lengths, RES, ((-16, 16),) * len(q))
        tip = forward_kinematics(arm, tuple(q))[-1]
        dist = math.dist(tip, arm.base)
        assert dist <= sum(lengths) + 1e-9
        if all(v == 0 for v in q[1:]):
            assert dist == pytest.approx(sum(lengths))
        else:
            assert dist < sum(lengths) - 1e-12


class TestArmInputs:
    @pytest.mark.parametrize("lengths,res", [
        ((-0.5,), RES), ((0.0,), RES), ((0.5, math.inf), RES), ((math.nan,), RES),
        ((0.5,), 0.0), ((0.5,), -RES), ((0.5,), math.nan), ((0.5,), math.inf),
    ])
    def test_bad_spec_raises(self, lengths, res):
        with pytest.raises(ValueError):
            ArmSpec((0.0, 0.0), lengths, res, ((-16, 16),) * len(lengths))

    @pytest.mark.parametrize("kw", [
        dict(thickness=-0.01), dict(thickness=math.nan), dict(thickness=math.inf),
        dict(substeps=0), dict(substeps=-8),
    ])
    def test_bad_domain_raises(self, kw):
        arm = ArmSpec((0.0, 0.0), (1.0,), RES, ((-16, 16),))
        with pytest.raises(ValueError):
            ArmDomain([arm], **kw)

    @pytest.mark.parametrize("build", [
        lambda: Disc(0.5, 0.5, -1.0),
        lambda: Disc(0.5, 0.5, math.inf),
        lambda: Disc(0.5, 0.5, math.nan),
        lambda: Disc(math.nan, 0.5, 0.1),
        lambda: Segment(0.0, 0.0, math.inf, 1.0),
        lambda: Segment(math.nan, 0.0, 1.0, 1.0),
        lambda: ArmSpec((0.0, 0.0), (1.0,), RES, ((5, -5),)),
        lambda: ArmSpec((0.0, 0.0), (1.0, 0.5), RES, ((-16, 16),)),
        lambda: ArmSpec((0.0, 0.0), (1.0,), 1e300, ((-16, 16),)),
        lambda: ArmSpec((0.0, 0.0), (1.0, 1.0), 3.5e152, ((-16, 16), (0, 32))),
        lambda: ArmSpec((0.0, 0.0), (1.0,), RES, ((-10 ** 400, 10 ** 400),)),
        lambda: ArmSpec((0.0, 0.0), (), RES, ()),
        lambda: ArmSpec((math.nan, 0.0), (0.5,), RES, ((-16, 16),)),
        lambda: ArmSpec((0.0, math.inf), (0.5,), RES, ((-16, 16),)),
        lambda: ArmSpec((0.0, 0.0), (1.0,), RES, ((10 ** 400, 10 ** 400),)),
        lambda: Segment(-1e100, 0.2, 1e100, 0.2),
        lambda: Disc(0.0, -1.5 * MAX_COORD, 0.1),
        lambda: Disc(0.0, 0.0, 1.5 * MAX_COORD),
        lambda: ArmSpec((1.5 * MAX_COORD, 0.0), (1.0,), RES, ((-16, 16),)),
        lambda: ArmSpec((0.0, 0.0), (1.0, 1.5 * MAX_COORD), RES, ((-16, 16),) * 2),
    ], ids=["negative-radius", "infinite-radius", "nan-radius", "nan-disc-centre",
            "infinite-segment-end", "nan-segment-end", "inverted-limits",
            "limit-pairs-per-link", "squared-span-overflows", "summed-span-overflows",
            "limit-past-float-range", "no-links", "nan-base", "infinite-base",
            "angle-past-float-range", "segment-past-max-coord", "disc-past-max-coord",
            "radius-past-max-coord", "base-past-max-coord", "link-past-max-coord"])
    def test_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_max_coord_is_accepted(self):
        Segment(-MAX_COORD, MAX_COORD, MAX_COORD, -MAX_COORD)
        Disc(MAX_COORD, -MAX_COORD, MAX_COORD)
        ArmSpec((MAX_COORD, -MAX_COORD), (MAX_COORD,), RES, ((-16, 16),))


class TestDistanceKernel:
    """`_seg_seg_dist2` against exact rational arithmetic, anywhere within
    the scene magnitude bound."""

    coord = st.floats(-MAX_COORD, MAX_COORD)
    point = st.tuples(coord, coord)

    @settings(max_examples=1000, deadline=None)
    @given(point, point, point, point)
    def test_matches_exact_distance(self, p1, q1, p2, q2):
        exact = math.sqrt(exact_seg_seg_dist2(p1, q1, p2, q2))
        assert abs(math.sqrt(_seg_seg_dist2(p1, q1, p2, q2)) - exact) <= 1e-10

    @pytest.mark.parametrize("segs", [
        ((0.0, 1.25), (674.0, 0.0), (5934.0, 0.0), (1.5, 0.0)),
        ((-3234.91648237625, -2549.416050814336), (-5659.582359947728, 4965.3033413311205),
         (-3969.6717410245624, -272.20349063446383), (-4689.727782522389, 1959.4518820919607)),
        ((3.1049797748225885, -1.9676511047433394), (3.1163307008290344, -1.9652430058327683),
         (3.097081589964729, -1.9429910721095722), (3.1181262505281593, -1.938526526590356)),
    ], ids=["touching-at-an-end", "nearly-parallel-long", "nearly-parallel-links"])
    def test_nearly_parallel_segments(self, segs):
        # a closest-pair solve divides by the squared sine of the angle
        # between the segments, which puts it off by 3.6e-10, 5.9e-5 and
        # 4.2e-8 on these three
        exact = math.sqrt(exact_seg_seg_dist2(*segs))
        assert abs(math.sqrt(_seg_seg_dist2(*segs)) - exact) <= 1e-12


class TestObstacleCapsules:
    """Obstacles are capsules of the one link distance kernel: a disc is a
    zero-length capsule of radius thickness + r, a segment one of radius
    thickness."""

    coord = st.floats(-3.0, 3.0)

    @settings(max_examples=300, deadline=None)
    @given(base=st.tuples(coord, coord), length=st.floats(1e-9, 1.0),
           angle=st.floats(-math.pi, math.pi), centre=st.tuples(coord, coord),
           r=st.floats(0.0, 0.5), seg=st.tuples(coord, coord, coord, coord),
           t=st.sampled_from([0.0, 0.01, 0.04]))
    def test_one_link_gap_matches_reference(self, base, length, angle, centre, r, seg, t):
        arm = ArmSpec(base, (length,), RES, ((-16, 16),))
        chain = _chain(arm, [angle])
        assume(all(abs(v) <= 3.0 for v in chain[1]))
        # disc: the point-segment reference, up to rounding near tangency
        ref = math.sqrt(_pt_seg_dist2(centre, *chain)) - (t + r)
        gap = ArmDomain([arm], [Disc(*centre, r)], thickness=t)._body_gap(chain)
        if abs(ref) > 1e-9:
            assert (gap < 0.0) == (ref < 0.0)
        if gap >= 0.0:
            assert abs(gap - max(ref, 0.0)) <= 1e-9
        # segment: exactly the kernel's clearance
        d2 = _seg_seg_dist2(*chain, seg[:2], seg[2:])
        gap = ArmDomain([arm], [Segment(*seg)], thickness=t)._body_gap(chain)
        assert gap == (_CONTACT if d2 <= t * t else max(math.sqrt(d2) - t, 0.0))


class TestArmValidity:
    def test_free_space_is_valid(self):
        d = one_joint_arm()
        assert d.is_state_valid(0, (0,))

    def test_limits_are_invalid(self):
        d = one_joint_arm()
        assert not d.is_state_valid(0, (17,))

    def test_self_collision_three_links(self):
        # third link folded back onto the first
        arm = ArmSpec((0.0, 0.0), (0.5, 0.5, 0.5), RES, ((-16, 16),) * 3)
        d = ArmDomain([arm], thickness=0.04)
        assert d.is_state_valid(0, (0, 0, 0))
        assert not d.is_state_valid(0, (0, 15, 15))  # doubles back onto link 1

    def test_obstacle_contact_is_invalid(self):
        d = one_joint_arm(obstacles=[Segment(0.5, -0.02, 0.5, 0.02)])
        assert not d.is_state_valid(0, (0,))   # arm lies across the segment
        assert d.is_state_valid(0, (8,))       # rotated away

    def test_mid_sweep_wall_invalidates_edge_only(self):
        # thin wall across the swept wedge; both endpoint states are valid
        mid = RES / 2
        wall = Segment(0.95 * math.cos(mid), 0.95 * math.sin(mid),
                       1.05 * math.cos(mid), 1.05 * math.sin(mid))
        d = one_joint_arm(obstacles=[wall])
        assert d.is_state_valid(0, (0,))
        assert d.is_state_valid(0, (1,))
        assert not d.is_edge_valid(0, (0,), (1,))
        assert not dense_edge_valid(d, 0, (0,), (1,))

    def test_edge_validity_symmetric(self):
        mid = RES / 2
        wall = Segment(0.95 * math.cos(mid), 0.95 * math.sin(mid),
                       1.05 * math.cos(mid), 1.05 * math.sin(mid))
        a = one_joint_arm(obstacles=[wall])
        b = one_joint_arm(obstacles=[wall])
        assert a.is_edge_valid(0, (0,), (1,)) == b.is_edge_valid(0, (1,), (0,))
        assert a.is_edge_valid(0, (2,), (3,)) == b.is_edge_valid(0, (3,), (2,))

    def test_cache_contract(self):
        d = one_joint_arm()
        assert d.is_edge_valid(0, (0,), (1,))
        before = d.stats.geometry_checks
        assert d.is_edge_valid(0, (0,), (1,))
        assert d.stats.geometry_checks == before
        hits = d.stats.cache_hits
        assert d.is_edge_valid(0, (1,), (0,))  # one verdict per unordered edge
        assert d.stats.cache_hits == hits + 1
        assert d.stats.geometry_checks == before

    def test_cache_disabled_recomputes(self):
        d = one_joint_arm(cache=False)
        d.is_edge_valid(0, (0,), (1,))
        before = d.stats.geometry_checks
        d.is_edge_valid(0, (0,), (1,))
        assert d.stats.geometry_checks > before

    def test_clear_edge_skips_sub_steps(self):
        arm = ArmSpec((0.0, 0.0), (0.5, 0.5), RES, ((-16, 16),) * 2)
        d = ArmDomain([arm], [Disc(-3.0, 0.0, 0.1)], thickness=0.04)
        assert d.is_state_valid(0, (0, 0)) and d.is_state_valid(0, (0, 1))
        before = d.stats.geometry_checks
        assert d.is_edge_valid(0, (0, 0), (0, 1))
        assert d.stats.geometry_checks - before < d.substeps - 1

    def test_edge_closes_at_the_travel_bound(self):
        # The tip sweeps RES past a disc on the bisector. Each end pose is
        # 0.133 clear, 5.4 sub-steps of travel at RES / 8 per sub-step, so
        # the two ends cover all 7 interior sub-steps; at twice that bound
        # they would cover only 2 + 2.
        mid = RES / 2
        d = one_joint_arm(obstacles=[Disc(1.25 * math.cos(mid), 1.25 * math.sin(mid), 0.1)])
        assert d.is_state_valid(0, (0,)) and d.is_state_valid(0, (1,))
        before = d.stats.geometry_checks
        assert d.is_edge_valid(0, (0,), (1,))
        assert d.stats.geometry_checks == before

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sampler(self, data):
        lengths = data.draw(st.lists(st.floats(0.2, 0.6), min_size=1, max_size=4))
        coord = st.floats(-1.5, 1.5)
        obstacles = []
        for _ in range(data.draw(st.integers(0, 2))):
            x, y = data.draw(coord), data.draw(coord)
            if data.draw(st.booleans()):
                obstacles.append(Segment(x, y, data.draw(coord), data.draw(coord)))
            else:
                obstacles.append(Disc(x, y, data.draw(st.floats(0.0, 0.3))))
        arm = ArmSpec((0.0, 0.0), tuple(lengths), RES, ((-16, 16),) * len(lengths))
        d = ArmDomain([arm], obstacles,
                      thickness=data.draw(st.sampled_from((0.0, 0.01, 0.04, 0.08))),
                      substeps=data.draw(st.integers(1, 8)))
        rng = data.draw(st.randoms(use_true_random=True))
        for _ in range(20):
            q = [rng.randint(-12, 12) for _ in lengths]
            if rng.random() < 0.5:
                q2 = list(q)
                q2[rng.randrange(len(q))] += rng.randint(-8, 8)
            else:
                q2 = [v + rng.randint(-8, 8) for v in q]
            q, q2 = tuple(q), tuple(q2)
            assert d._check_edge(0, q, q2) == sampled_edge_valid(d, 0, q, q2), (q, q2)


class TestSuccessorTable:
    @pytest.mark.parametrize("build,q", [
        (lambda cache: GridDomain(3, 3, blocked=[(1, 0)], cache=cache), (1, 1)),
        (lambda cache: one_joint_arm(cache=cache), (0,)),
    ], ids=["grid", "arm"])
    def test_repeat_makes_no_queries(self, build, q):
        d = build(True)
        first = d.successor_configs(0, q)
        queries = (d.stats.state_queries, d.stats.edge_queries, d.stats.cache_hits)
        again = d.successor_configs(0, q)
        assert again == first == build(False).successor_configs(0, q)
        assert isinstance(again, tuple)
        assert (d.stats.state_queries, d.stats.edge_queries,
                d.stats.cache_hits) == queries

    @pytest.mark.parametrize("build,q", [
        (lambda: GridDomain(3, 3, blocked=[(1, 0)], cache=False), (1, 1)),
        (lambda: one_joint_arm(cache=False), (0,)),
    ], ids=["grid", "arm"])
    def test_cache_off_requeries(self, build, q):
        d = build()
        first = d.successor_configs(0, q)
        once = (d.stats.state_queries, d.stats.edge_queries, d.stats.geometry_checks)
        assert d.successor_configs(0, q) == first
        assert (d.stats.state_queries, d.stats.edge_queries,
                d.stats.geometry_checks) == tuple(2 * v for v in once)


def _lattice_domain(data):
    """A random grid, with blocked cells in and out of bounds, or an
    obstacle-free arm of 1-3 joints; and the blocked cells given."""
    if data.draw(st.booleans()):
        w, h = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        cell = st.tuples(st.integers(-2, w + 1), st.integers(-2, h + 1))
        blocked = data.draw(st.lists(cell, max_size=12))
        return GridDomain(w, h, blocked), set(blocked)
    n = data.draw(st.integers(1, 3))
    limits = data.draw(st.lists(st.tuples(st.integers(-4, 0), st.integers(0, 4)),
                                min_size=n, max_size=n))
    return ArmDomain([ArmSpec((0.0, 0.0), (0.3,) * n, RES, tuple(limits))]), set()


class TestLattice:
    """The base class states the lattice from `bounds` alone: unit moves,
    the lattice-edge test, the bounds test, the vertex count, the degree."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lattice_matches_brute_force(self, data):
        d, blocked = _lattice_domain(data)
        bounds = d.bounds(0)
        near = st.tuples(*[st.integers(lo - 2, hi + 2) for lo, hi in bounds])
        inside = st.tuples(*[st.integers(lo, hi) for lo, hi in bounds])
        cells = list(itertools.product(*[range(lo, hi + 1) for lo, hi in bounds]))
        q = data.draw(inside)
        brute = {q}
        for k in range(len(q)):
            for step in (1, -1):
                q2 = q[:k] + (q[k] + step,) + q[k + 1:]
                if q2 in cells and d.step_valid(0, q, q2):
                    brute.add(q2)
        succ = d.successor_configs(0, q)
        assert succ == tuple(sorted(brute))
        assert len(succ) <= d.max_degree(0) == 2 * len(bounds) + 1
        for _ in range(10):
            a, b = data.draw(near), data.draw(near)
            l1 = sum(abs(u - v) for u, v in zip(a, b))
            assert d.is_lattice_edge(0, a, b) == LatticeDomain.is_lattice_edge(d, 0, a, b) \
                == (l1 <= 1)
            assert d.in_bounds(0, a) == (a in cells)
        assert not d.in_bounds(0, q + (0,))
        assert d.num_vertices(0) == len(set(cells) - blocked)

    @pytest.mark.parametrize("make,q,q2", [
        (one_joint_arm, (1,), (1, 7)),
        (one_joint_arm, (1, 7), (1,)),
        (two_link_arm_pair, (0, 0), (0,)),
        (lambda: GridDomain(3, 3), (0, 0), (0,)),
        (lambda: GridDomain(3, 3), (0,), (0, 0)),
        (lambda: GridDomain(3, 3), (0, 0), (0, 0, 1)),
    ], ids=["arm-1-2", "arm-2-1", "arm2-2-1", "grid-2-1", "grid-1-2", "grid-2-3"])
    def test_configs_of_different_lengths_are_no_edge(self, make, q, q2):
        d = make()
        assert not d.is_lattice_edge(0, q, q2)
        assert not LatticeDomain.is_lattice_edge(d, 0, q, q2)


class TestArmSuccessors:
    def test_lower_limit_clamps(self):
        d = one_joint_arm()
        succ = get_successors(d, 0, ((-16,), 0), N())
        assert succ == [((-16,), 1), ((-15,), 1)]

    def test_interior_has_wait_plus_two(self):
        d = one_joint_arm()
        succ = get_successors(d, 0, ((3,), 0), N())
        assert succ == [((2,), 1), ((3,), 1), ((4,), 1)]


class TestPairwise:
    def test_disjoint_reaches_never_collide(self):
        d = two_link_arm_pair(gap=5.0)
        assert not d.pairwise_collision(0, (0, 0), (0, 0), 1, (16, 0), (16, 0))

    def test_facing_extended_arms_collide(self):
        d = two_link_arm_pair(gap=1.7)
        assert d.pairwise_collision(0, (0, 0), (0, 0), 1, (16, 0), (16, 0))

    def test_crossing_sweeps_collide_despite_clear_endpoints(self):
        # one arm sweeps through another's posture between two clear poses
        arms = [ArmSpec((0.0, 0.0), (1.0,), RES, ((-20, 20),)),
                ArmSpec((0.9, 0.5), (0.85,), RES, ((-20, 20),))]
        d = ArmDomain(arms, thickness=0.04)
        q0 = (8,)           # vertical, x = 0
        a, b = (14,), (18,)  # sweep passing through pointing-left (index 16)
        assert not d.pairwise_collision(0, q0, q0, 1, a, a)
        assert not d.pairwise_collision(0, q0, q0, 1, b, b)
        assert d.pairwise_collision(0, q0, q0, 1, a, b)

    def test_far_apart_moving_pair_costs_one_check(self):
        d = two_link_arm_pair(gap=1.7)  # reach discs overlap; arms point apart
        before = d.stats.geometry_checks
        assert not d.pairwise_collision(0, (16, 0), (15, 2), 1, (0, 0), (1, 0))
        assert d.stats.geometry_checks - before == 1

    def test_shared_departure_costs_nothing(self):
        d = two_link_arm_pair(gap=1.7)  # arms point apart, bases 1.62 clear
        assert not d.pairwise_collision(0, (16, 0), (15, 2), 1, (0, 0), (1, 0))
        before = d.stats.geometry_checks
        assert not d.pairwise_collision(0, (16, 0), (16, 1), 1, (0, 0), (0, 1))
        assert d.stats.geometry_checks == before

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sampler(self, data):
        arms = []
        for base in ((0.0, 0.0), (data.draw(st.floats(0.0, 1.5)),
                                  data.draw(st.floats(-0.8, 0.8)))):
            lengths = data.draw(st.lists(st.floats(0.2, 0.8), min_size=1, max_size=3))
            arms.append(ArmSpec(base, tuple(lengths), RES, ((-16, 16),) * len(lengths)))
        d = ArmDomain(arms, thickness=data.draw(st.sampled_from((0.0, 0.01, 0.02, 0.04))),
                      substeps=data.draw(st.integers(1, 8)))
        rng = data.draw(st.randoms(use_true_random=True))
        for _ in range(20):
            move = []
            for arm in arms:
                q = [rng.randint(-12, 12) for _ in arm.link_lengths]
                q2 = list(q)
                kind = rng.choice(("wait", "single-joint", "multi-joint"))
                if kind == "single-joint":
                    q2[rng.randrange(len(q))] += rng.randint(-8, 8)
                elif kind == "multi-joint":
                    q2 = [v + rng.randint(-8, 8) for v in q]
                move += [tuple(q), tuple(q2)]
            assert d._check_pairwise(0, *move[:2], 1, *move[2:]) == \
                sampled_pair_collision(d, 0, *move[:2], 1, *move[2:]), move

    def test_grid_same_cell_and_swap(self):
        g = GridDomain(3, 1)
        assert g.pairwise_collision(0, (1, 0), (1, 0), 1, (1, 0), (1, 0))
        assert g.pairwise_collision(0, (0, 0), (1, 0), 1, (1, 0), (0, 0))
        assert not g.pairwise_collision(0, (0, 0), (1, 0), 1, (2, 0), (1, 0))
        assert not g.pairwise_collision(0, (0, 0), (1, 0), 1, (1, 0), (2, 0))



def _posed_arm_pair(data):
    """Two arms of 1-4 links with bases up to 2.6 apart, both translated by
    up to the largest scene coordinate, and a chain of each at random float
    angles (as the walk's interpolated poses are)."""
    far = MAX_COORD - 2.6
    dx, dy = data.draw(st.floats(-far, far)), data.draw(st.floats(-far, far))
    dist, heading = data.draw(st.floats(0.0, 2.6)), data.draw(st.floats(-math.pi, math.pi))
    arms, chains = [], []
    for base in ((dx, dy), (dx + dist * math.cos(heading), dy + dist * math.sin(heading))):
        lengths = data.draw(st.lists(st.floats(0.2, 0.8), min_size=1, max_size=4))
        arms.append(ArmSpec(base, tuple(lengths), RES, ((-16, 16),) * len(lengths)))
        angles = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=len(lengths),
                                    max_size=len(lengths)))
        chains.append(_chain(arms[-1], angles))
    d = ArmDomain(arms, thickness=data.draw(st.sampled_from((0.0, 0.01, 0.04))))
    return d, chains


def _least_link_gap(d, chain_a, chain_b, pairs):
    """The clearance over every listed link pair, written out in full."""
    d2 = min((_seg_seg_dist2(chain_a[a], chain_a[a + 1], chain_b[b], chain_b[b + 1])
              for a, b in pairs), default=math.inf)
    r = 2.0 * d.thickness
    return _CONTACT if d2 <= r * r else max(math.sqrt(d2) - r, 0.0)


class TestReachTable:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_walk_equals_every_link_pair(self, data):
        d, (ca, cb) = _posed_arm_pair(data)
        every = [(a, b) for a in range(len(ca) - 1) for b in range(len(cb) - 1)]
        want = _least_link_gap(d, ca, cb, every)
        rows = d._rows.get((0, 1))
        if rows is None:  # reach discs apart: no table, and no contact
            assert want != _CONTACT
        else:
            assert d._chains_gap(ca, cb, rows) == want
        apart = [(a, b) for a in range(len(ca) - 1) for b in range(a + 2, len(ca) - 1)]
        assert d._chains_gap(ca, ca, d._self_rows[len(ca)]) == \
            _least_link_gap(d, ca, ca, apart)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_bound_their_link_pair(self, data):
        d, (ca, cb) = _posed_arm_pair(data)
        for a, b, lo2 in d._rows.get((0, 1), ()):
            assert math.sqrt(lo2) <= math.sqrt(
                _seg_seg_dist2(ca[a], ca[a + 1], cb[b], cb[b + 1])), (a, b)

    def test_near_distal_links_skip_six_of_nine_pairs(self, monkeypatch):
        limits = ((-16, 16),) * 3
        arms = [ArmSpec((0.0, 0.0), (0.4,) * 3, RES, limits),
                ArmSpec((1.819, 0.0), (0.4,) * 3, RES, limits)]
        d = ArmDomain(arms, thickness=0.04)
        q0, q1 = (0, 0, 0), (14, 2, 0)
        ca, cb = d.chain(0, q0), d.chain(1, q1)
        assert 0.1 < math.sqrt(_seg_seg_dist2(ca[2], ca[3], cb[2], cb[3])) < 0.2
        calls = []
        monkeypatch.setattr("mamp.domains.arm._seg_seg_dist2",
                            lambda *seg: calls.append(seg) or _seg_seg_dist2(*seg))
        before = d.stats.geometry_checks
        assert not d.pairwise_collision(0, q0, q0, 1, q1, q1)
        assert len(calls) == 3
        assert d.stats.geometry_checks - before == 1

class TestCacheTransparency:
    def test_planners_identical_with_and_without_cache(self):
        from mamp import PlannerConfig, plan
        from corpus import grid_corpus
        for inst in grid_corpus(seed=47, count=6):
            for variant, kw in (("cbs", {}), ("xecbs", dict(w1L=50.0, w2L=1.3,
                                                            wH=1.3))):
                cfg = PlannerConfig.make(variant, timeout=10.0, horizon=10, **kw)
                on = plan(inst.domain(cache=True), inst.starts, inst.goals, cfg)
                off = plan(inst.domain(cache=False), inst.starts, inst.goals, cfg)
                assert on.success == off.success
                if on.success:
                    assert on.cost == off.cost
                    assert [p.waypoints for p in on.solution.paths] == \
                        [p.waypoints for p in off.solution.paths]
                assert on.collision_checks <= off.collision_checks


class TestMotionCost:
    def test_grid_moves_only(self):
        g = GridDomain(3, 3)
        wps = ((0, 0), (1, 0), (1, 0), (1, 1))
        assert g.motion_cost_path(0, wps) == 2.0

    def test_arm_radians(self):
        d = one_joint_arm()
        wps = ((0,), (1,), (1,), (0,))
        assert d.motion_cost_path(0, wps) == pytest.approx(2 * RES)
