import math
import random

import pytest

from mamp import (GridDomain, Path, PlannerConfig, Solution, detect_conflicts,
                  generate_scene, parse_scene, path_cost, plan, run_planner,
                  shortcut_solution)

from corpus import grid_corpus, one_joint_arm, two_link_arm_pair
from oracles import shortcut_reference

RES = math.pi / 16


class TestShortcutExamples:
    def test_backtracking_detour_straightened(self):
        d = one_joint_arm()
        sol = Solution((Path(((0,), (1,), (2,), (3,), (2,))),))
        out, report = shortcut_solution(sol, d)
        entry = report.agents[0]
        assert entry.motion_after < entry.motion_before
        assert entry.motion_after == pytest.approx(2 * RES)
        assert len(out.paths[0]) == len(sol.paths[0])  # duration preserved
        assert out.paths[0].waypoints[0] == (0,)
        assert out.paths[0].end == (2,)

    def test_already_straight_path_unchanged(self):
        d = one_joint_arm()
        sol = Solution((Path(((0,), (1,), (2,))),))
        out, report = shortcut_solution(sol, d)
        assert out.paths[0] == sol.paths[0]
        assert report.accepted == 0

    def test_blocked_by_crossing_agent(self):
        g = GridDomain(3, 2)
        slow = Path(((0, 0), (0, 0), (1, 0)))        # waits, then moves
        crosser = Path(((1, 1), (1, 0), (2, 0)))     # occupies (1,0) at t=1
        sol = Solution((slow, crosser))
        assert detect_conflicts(sol.paths, g) == []
        out, _ = shortcut_solution(sol, g)
        assert out.paths[0] == slow  # retiming would collide, so rejected
        solo, _ = shortcut_solution(Solution((slow,)), GridDomain(3, 2))
        assert solo.paths[0] != slow  # without the crosser it is accepted

    def test_conflicted_input_rejected(self):
        g = GridDomain(2, 1)
        sol = Solution((Path(((0, 0),)), Path(((0, 0),))))
        with pytest.raises(ValueError, match="invalid input solution"):
            shortcut_solution(sol, g)

    def test_obstacle_blocks_arm_shortcut(self):
        from mamp import Segment
        mid = 2 * RES / 2
        wall = Segment(0.95 * math.cos(mid), 0.95 * math.sin(mid),
                       1.05 * math.cos(mid), 1.05 * math.sin(mid))
        d = one_joint_arm(obstacles=[wall])
        # detour over the top of the wall between 0 and 2 is the only way
        sol = Solution((Path(((4,), (3,), (2,), (3,), (4,))),))
        out, report = shortcut_solution(sol, d)
        assert report.agents[0].motion_after <= report.agents[0].motion_before


class TestShortcutProperties:
    def setup_method(self):
        self.instances = grid_corpus(seed=31, count=40)

    def _solved(self, inst):
        domain = inst.domain()
        r = plan(domain, inst.starts, inst.goals,
                 PlannerConfig.make("cbs", timeout=10.0, horizon=10))
        return (domain, r.solution) if r.success else (domain, None)

    def test_conflict_preservation_and_monotone_cost(self):
        for inst in self.instances:
            domain, sol = self._solved(inst)
            if sol is None:
                continue
            out, report = shortcut_solution(sol, domain)
            assert detect_conflicts(out.paths, domain) == []
            for i, (before, after) in enumerate(zip(sol.paths, out.paths)):
                assert len(after) == len(before)
                assert path_cost(after) <= path_cost(before)
                entry = report.agents[i]
                assert entry.motion_after <= entry.motion_before + 1e-12

    def test_idempotent_at_fixpoint(self):
        for inst in self.instances[:15]:
            domain, sol = self._solved(inst)
            if sol is None:
                continue
            once, _ = shortcut_solution(sol, domain)
            twice, _ = shortcut_solution(once, inst.domain())
            assert twice.paths == once.paths

    def test_arm_solution_roundtrip(self):
        d = two_link_arm_pair()
        starts = [(4, 0), (12, 0)]
        goals = [(8, -4), (8, 4)]
        r = plan(d, starts, goals,
                 PlannerConfig.make("xecbs", w1L=50.0, w2L=1.3, wH=1.3,
                                    timeout=20.0))
        assert r.success
        out, report = shortcut_solution(r.solution, d)
        assert detect_conflicts(out.paths, d) == []
        for i in range(2):
            assert report.agents[i].motion_after <= report.agents[i].motion_before + 1e-12
        again, _ = shortcut_solution(out, d)
        assert again.paths == out.paths


class TestLazyWalk:
    """The shortcutter walks each span lazily and skips the tests of the
    path's own steps, yet keeps the paths and the counts of the plain
    candidate-then-check scan (``oracles.shortcut_reference``)."""

    def _check(self, build, paths):
        out, report = shortcut_solution(Solution(tuple(paths)), build())
        want, attempted, accepted = shortcut_reference(paths, build())
        assert list(out.paths) == want
        assert (report.attempted, report.accepted) == (attempted, accepted)
        return out

    def test_grid_planner_solutions(self):
        configs = [PlannerConfig.make(v, w1L=2.0, w2L=1.3, wH=1.3, timeout=10.0,
                                      horizon=10) for v in ("ecbs", "xecbs")]
        configs += [PlannerConfig.make(v, timeout=10.0, horizon=10) for v in ("cbs", "pp")]
        checked = 0
        for inst in grid_corpus(seed=53, count=30, agents=(2, 3)):
            for config in configs:
                r = run_planner(inst.domain(), inst.starts, inst.goals, config)
                if r.success:
                    self._check(inst.domain, r.solution.paths)
                    checked += 1
        assert checked >= 50

    def test_grid_random_walks(self):
        # detours, waits and uneven lengths that no planner returns
        rng = random.Random(97)
        checked = 0
        while checked < 300:
            blocked = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 3))}
            domain = GridDomain(4, 4, blocked)
            free = [(x, y) for x in range(4) for y in range(4) if (x, y) not in blocked]
            paths = []
            for _ in range(rng.randint(1, 3)):
                wps = [rng.choice(free)]
                for _ in range(rng.randint(0, 9)):
                    q = rng.choice(domain.successor_configs(0, wps[-1]))
                    wps.append(q)
                paths.append(Path(tuple(wps)))
            if detect_conflicts(paths, domain):
                continue
            self._check(lambda: GridDomain(4, 4, blocked), paths)
            checked += 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_arm_planner_solutions(self, n):
        checked = 0
        for seed in range(6):
            scene = parse_scene(generate_scene("circle-arms", n=n, seed=seed, links=2,
                                               walk=6))
            r = run_planner(scene.build_domain(), scene.starts, scene.goals,
                            PlannerConfig.make("ecbs", w1L=50.0, w2L=1.3, wH=1.3,
                                               timeout=10.0))
            if r.success:
                once = self._check(scene.build_domain, r.solution.paths)
                self._check(scene.build_domain, once.paths)  # multi-joint steps
                checked += 1
        assert checked >= 3
