import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mamp
from mamp import (Conflict, Constraint, GridDomain, Path,
                  conflict_to_constraints, detect_conflicts, path_cost,
                  violates)
from mamp.core import (EDGE, VERTEX, ConstraintIndex, conflicts_with_agent,
                       first_change)

from corpus import two_link_arm_pair
from oracles import enumerate_timed_paths, scan_conflicts

A, B, C = (0, 0), (1, 0), (2, 0)


def P(*wps):
    return Path(tuple(wps))


class TestPathCost:
    def test_single_waypoint_is_free(self):
        assert path_cost(P(A)) == 0

    def test_counts_transitions(self):
        assert path_cost(P(A, B, C, (3, 0))) == 3

    def test_trailing_goal_waits_excluded(self):
        assert path_cost(P(A, B, B, B)) == 1

    def test_intermediate_waits_count(self):
        assert path_cost(P(A, A, B, C)) == 3

    def test_leaving_goal_and_returning_counts(self):
        assert path_cost(P(A, B, A, B)) == 3

    def test_empty_path_is_an_error(self):
        with pytest.raises(ValueError, match="empty path"):
            path_cost(P())

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    max_size=6))
    def test_additive_when_prefix_has_no_trailing_waits(self, wp1, wp2):
        # The wait-cost rule zeroes trailing waits, so additivity is stated
        # for prefixes that end with a move (or are a single waypoint).
        if len(wp1) > 1 and wp1[-1] == wp1[-2]:
            wp1 = wp1 + [(wp1[-1][0] + 1, wp1[-1][1])]
        p1 = P(*wp1)
        p2 = P(*([wp1[-1]] + wp2))
        assert path_cost(P(*(wp1 + wp2))) == path_cost(p1) + path_cost(p2)


class TestDetectConflicts:
    def test_swap_is_an_edge_conflict(self):
        g = GridDomain(2, 1)
        paths = [P((0, 0), (1, 0)), P((1, 0), (0, 0))]
        confs = detect_conflicts(paths, g)
        assert len(confs) == 1
        assert confs[0].kind == EDGE
        assert confs[0].time == 0
        assert confs[0].agents == (0, 1)

    def test_identical_cells_vertex_conflict(self):
        g = GridDomain(2, 1)
        confs = detect_conflicts([P((0, 0)), P((0, 0))], g)
        assert confs[0].kind == VERTEX and confs[0].time == 0

    def test_disjoint_arms_never_conflict(self):
        d = two_link_arm_pair(gap=5.0)  # reaches cannot meet
        paths = [P((0, 0), (1, 0), (2, 0)), P((16, 0), (15, 0), (14, 0))]
        assert detect_conflicts(paths, d) == []

    def test_shorter_path_parks_at_goal(self):
        g = GridDomain(3, 1)
        # agent 1 finished at (1,0); agent 0 drives into it at t=2
        paths = [P((0, 0), (0, 0), (1, 0)), P((1, 0))]
        confs = detect_conflicts(paths, g)
        assert any(c.kind == VERTEX and c.time == 2 for c in confs)

    def test_order_is_time_pair_kind(self):
        g = GridDomain(4, 2)
        paths = [P((0, 0), (1, 0), (1, 0)), P((1, 0), (1, 0), (1, 0)),
                 P((1, 1), (1, 0), (1, 1))]
        confs = detect_conflicts(paths, g)
        keys = [c.sort_key() for c in confs]
        assert keys == sorted(keys)

    def test_empty_path_rejected(self):
        g = GridDomain(2, 1)
        with pytest.raises(ValueError, match="empty path"):
            detect_conflicts([P()], g)

    def test_matches_composite_collision_scan(self):
        # emptiness of the conflict list == composite-path validity
        g = GridDomain(3, 3, blocked=[(1, 1)])
        cases = [
            [P((0, 0), (1, 0), (2, 0)), P((2, 2), (2, 1), (2, 0))],
            [P((0, 0), (1, 0), (2, 0)), P((2, 0), (2, 1), (2, 2))],
            [P((0, 0), (0, 1)), P((0, 1), (0, 0))],
        ]
        for paths in cases:
            horizon = max(p.duration for p in paths)
            clean = True
            for t in range(horizon + 1):
                for i, j in itertools.combinations(range(len(paths)), 2):
                    qi, qj = paths[i].at(t), paths[j].at(t)
                    if qi == qj:
                        clean = False
                    if t < horizon and paths[i].at(t + 1) == qj \
                            and paths[j].at(t + 1) == qi and qi != paths[i].at(t + 1):
                        clean = False
            assert (detect_conflicts(paths, g) == []) == clean


class TestIncrementalConflicts:
    """A replan keeps the replanned agent's conflicts that arrive before
    its path's first change and rescans its pairs from there."""

    DOMAINS = {"grid": GridDomain(3, 3), "arms": two_link_arm_pair()}
    CONFIGS = {"grid": st.tuples(st.integers(0, 2), st.integers(0, 2)),
               "arms": st.tuples(st.integers(-2, 2), st.integers(-2, 2))}

    def test_first_change_is_capped_at_the_shorter_end(self):
        assert first_change(P(A, B, C), P(A, C, C)) == 1
        assert first_change(P(A, B), P(A, B, C)) == 1
        assert first_change(P(A, B, C), P(A, B)) == 1
        assert first_change(P(A), P(B, C)) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rescan_from_first_change_matches_full_scan(self, data):
        kind = data.draw(st.sampled_from(sorted(self.DOMAINS)))
        domain, config = self.DOMAINS[kind], self.CONFIGS[kind]
        n = data.draw(st.integers(2, 3))
        paths = [Path(tuple(data.draw(st.lists(config, min_size=1, max_size=6))))
                 for _ in range(n)]
        agent = data.draw(st.integers(0, n - 1))
        old = paths[agent].waypoints
        keep = data.draw(st.integers(0, len(old)))
        # the new path shares a prefix, then goes on freely or parks at its
        # last kept waypoint, also past the old path's end
        tail = tuple(data.draw(st.lists(config, max_size=6)))
        if keep and data.draw(st.booleans()):
            tail = old[keep - 1:keep] * data.draw(st.integers(0, 8))
        assume(keep or tail)
        new_paths = list(paths)
        new_paths[agent] = Path(old[:keep] + tail)
        since = data.draw(st.integers(0, first_change(paths[agent], new_paths[agent])))
        kept = [c for c in detect_conflicts(paths, domain)
                if agent not in c.agents or c.time + (c.kind == EDGE) < since]
        rescanned = conflicts_with_agent(new_paths, domain, agent, since)
        full = scan_conflicts(new_paths, domain)
        assert detect_conflicts(new_paths, domain) == full
        assert sorted(kept + rescanned, key=Conflict.sort_key) == full


class TestConflictToConstraints:
    def test_edge_conflict_maps_to_own_edges(self):
        c = Conflict(EDGE, (0, 1), 2, ((A, B), (B, A)))
        c1, c2 = conflict_to_constraints(c)
        assert c1 == Constraint.edge(0, A, B, 2)
        assert c2 == Constraint.edge(1, B, A, 2)

    def test_vertex_conflict_maps_to_own_cells(self):
        c = Conflict(VERTEX, (0, 1), 5, ((A, A), (B, B)))
        c1, c2 = conflict_to_constraints(c)
        assert c1 == Constraint.vertex(0, A, 5)
        assert c2 == Constraint.vertex(1, B, 5)

    def test_soundness_by_enumeration(self):
        # On tiny instances: no conflict-free solution violates both derived
        # constraints, for every conflict observed across candidate pairs.
        g = GridDomain(3, 2)
        horizon = 3
        starts = [(0, 0), (2, 0)]
        all_paths = [enumerate_timed_paths(g, 0, starts[0], horizon),
                     enumerate_timed_paths(g, 1, starts[1], horizon)]
        solutions = []
        conflicts_seen = []
        for p0 in all_paths[0]:
            for p1 in all_paths[1]:
                pair = [Path(p0), Path(p1)]
                confs = detect_conflicts(pair, g)
                if confs:
                    conflicts_seen.extend(confs[:1])
                else:
                    solutions.append(pair)
        assert solutions and conflicts_seen
        for conf in conflicts_seen[:200]:
            c1, c2 = conflict_to_constraints(conf)
            for sol in solutions:
                assert not (violates(sol[c1.agent], c1) and violates(sol[c2.agent], c2))


class TestConstraintIndex:
    def test_vertex_and_edge_lookup(self):
        cons = [Constraint.vertex(0, A, 3), Constraint.edge(0, A, B, 1)]
        idx = ConstraintIndex(cons, agent=0)
        assert not idx.allows_state(A, 3)
        assert idx.allows_state(A, 2)
        assert not idx.allows_move(A, 1, B)
        assert idx.allows_move(A, 0, B)
        assert idx.allows_move(B, 1, A)  # directed
        assert idx.max_time == 3

    def test_filters_other_agents(self):
        idx = ConstraintIndex([Constraint.vertex(1, A, 3)], agent=0)
        assert idx.allows_state(A, 3)

    def test_no_future_constraints(self):
        idx = ConstraintIndex([Constraint.vertex(0, A, 5),
                               Constraint.edge(0, B, B, 4)], agent=0)
        assert not idx.no_future_constraints(A, 4)
        assert idx.no_future_constraints(A, 5)
        assert not idx.no_future_constraints(B, 4)  # parked wait hits t=4
        assert idx.no_future_constraints(B, 5)


def test_every_public_name_resolves():
    assert [name for name in mamp.__all__ if not hasattr(mamp, name)] == []
