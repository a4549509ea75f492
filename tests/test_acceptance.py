"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them live).
The three long-running checks are marked slow; the full suite runs them.
"""

import itertools
import math
import random
import statistics
import time

import pytest

import mamp.lowlevel
from mamp import (Constraint, GridDomain, PlannerConfig, certify,
                  detect_conflicts, generate_scene, parse_scene, path_cost,
                  plan, plan_coupled_oracle, plan_prioritized,
                  shortcut_solution, solve)
from mamp.lowlevel import LLParams

from corpus import grid_corpus, random_grid_instance
from oracles import dense_edge_valid, plain_focal_wastar, timed_optimal_cost


def report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    # >= 200 jointly feasible instances on <= 4x4 grids with 2-3 agents,
    # solvable within horizon 10 (oracle-verified at generation)
    return grid_corpus(seed=1001, count=200)


def test_oracle_optimality(corpus):
    t0 = time.perf_counter()
    exact = 0
    for inst in corpus:
        r = plan(inst.domain(), inst.starts, inst.goals,
                 PlannerConfig.make("cbs", timeout=30.0, horizon=10))
        assert r.success, f"CBS failed on feasible instance {inst}"
        if r.cost == inst.optimal:
            exact += 1
        else:
            report("oracle-optimality", False,
                   f"CBS cost {r.cost} != oracle {inst.optimal} on {inst}")
    elapsed = time.perf_counter() - t0
    report("oracle-optimality", exact == len(corpus),
           f"{exact}/{len(corpus)} instances exact, {elapsed:.1f}s")


WEIGHT_GRID = [1.0, 1.3, 2.0]


def test_bound_satisfaction(corpus):
    ecbs_combos = list(itertools.product(WEIGHT_GRID, WEIGHT_GRID, WEIGHT_GRID))
    solved = checked = 0
    for k, inst in enumerate(corpus):
        w1, w2, wh = ecbs_combos[k % len(ecbs_combos)]
        runs = [("ecbs", dict(w1L=w1, w2L=w2, wH=wh)),
                ("xecbs", dict(w1L=w2, w2L=wh, wH=w1)),  # rotate the draw
                ("xcbs", dict(w1L=WEIGHT_GRID[k % 3]))]
        for variant, kw in runs:
            cfg = PlannerConfig.make(variant, timeout=30.0, horizon=10, **kw)
            r = plan(inst.domain(), inst.starts, inst.goals, cfg)
            checked += 1
            if not r.success:
                continue
            solved += 1
            bound = cfg.bound_factor * inst.optimal + 1e-9
            if r.cost > bound:
                report("bound-satisfaction", False,
                       f"{variant}{kw}: cost {r.cost} > {bound} on {inst}")
    ok = solved >= 0.9 * checked
    report("bound-satisfaction", ok,
           f"{solved}/{checked} runs solved, 0 bound violations")


def test_experience_neutrality(corpus):
    rng = random.Random(77)
    solved = total = 0
    for inst in corpus[:120]:
        start, goal = inst.starts[0], inst.goals[0]
        cells = [(x, y) for x in range(inst.width) for y in range(inst.height)]
        cons = []
        for _ in range(rng.randint(0, 3)):
            cons.append(Constraint.vertex(0, rng.choice(cells), rng.randint(1, 5)))
        opt = timed_optimal_cost(inst.domain(), 0, start, goal, cons, horizon=12)
        experiences = [tuple(rng.choice(cells) for _ in range(10)),
                       (goal, start) * 3,
                       tuple(rng.choice(cells) for _ in range(3))]
        for exp in experiences:
            for w1, w2 in ((1.0, 1.0), (2.0, 1.3), (50.0, 2.0)):
                total += 1
                r = solve(inst.domain(), 0, start, goal, cons, exp,
                          LLParams(w1=w1, w2=w2, horizon=12))
                assert r.success == (opt is not None), \
                    f"solvability changed under experience {exp}"
                if r.success:
                    solved += 1
                    assert r.cost <= w1 * w2 * opt + 1e-9, \
                        f"bound violated with adversarial experience on {inst}"
    # empty experience: expansion trace bitwise-identical to plain search
    traced = 0
    for inst in corpus[:40]:
        start, goal = inst.starts[0], inst.goals[0]
        other = solve(inst.domain(), 1, inst.starts[1], inst.goals[1],
                      params=LLParams(horizon=10))
        others = [(1, other.path)] if other.success else None
        for w1, w2, f2 in ((1.0, 1.0, "f1"), (1.3, 1.0, "f1"),
                           (50.0, 1.3, "conflicts")):
            r = solve(inst.domain(), 0, start, goal, (), (),
                      LLParams(w1=w1, w2=w2, f2=f2, horizon=10),
                      other_paths=others, record_trace=True)
            _, ref = plain_focal_wastar(inst.domain(), 0, start, goal, (),
                                        w1, w2, f2, others, horizon=10)
            assert r.trace == ref, f"trace diverged on {inst} ({w1},{w2},{f2})"
            traced += 1
    report("experience-neutrality", True,
           f"{solved}/{total} adversarial runs solved within bound, "
           f"{traced} traces bitwise-identical")


def _harvest_replans(min_count=55):
    """Capture (instance, replan inputs) for CT-child replans that carried
    an experience, from xCBS runs over grid and arm instances."""
    records = []
    active = {}
    orig = mamp.lowlevel.solve

    def spy(domain, agent, start, goal, constraints=(), experience=(),
            params=LLParams(), **kw):
        if experience:
            records.append(dict(build=active["build"], agent=agent,
                                start=start, goal=goal, cidx=constraints,
                                experience=experience, params=params,
                                others=kw.get("other_paths")))
        return orig(domain, agent, start, goal, constraints, experience,
                    params, **kw)

    mamp.lowlevel.solve = spy
    try:
        rng = random.Random(4242)
        k = 0
        while len(records) < min_count - 10 and k < 200:
            inst = random_grid_instance(rng, max_size=6, agents=(2, 3),
                                        max_dist=7, obstacle_p=0.15,
                                        horizon=14)
            active["build"] = inst.domain
            plan(inst.domain(), inst.starts, inst.goals,
                 PlannerConfig.make("xcbs", w1L=50.0, timeout=5.0, horizon=14))
            k += 1
        arm_seed = 0
        while len(records) < min_count and arm_seed < 40:
            text = generate_scene("circle-arms", n=2, seed=arm_seed, links=2,
                                  walk=8)
            scene = parse_scene(text)
            active["build"] = scene.build_domain
            plan(scene.build_domain(), scene.starts, scene.goals,
                 PlannerConfig.make("xecbs", w1L=50.0, w2L=1.3, wH=1.3,
                                    timeout=5.0))
            arm_seed += 1
    finally:
        mamp.lowlevel.solve = orig
    return records


@pytest.mark.slow
def test_acceleration_trend():
    records = _harvest_replans()
    assert len(records) >= 50, f"only harvested {len(records)} replans"
    records = records[:400]
    ratios = []
    cache_pairs = 0
    for rec in records:
        warm = solve(rec["build"](), rec["agent"], rec["start"], rec["goal"],
                     rec["cidx"], rec["experience"], rec["params"],
                     other_paths=rec["others"])
        cold = solve(rec["build"](), rec["agent"], rec["start"], rec["goal"],
                     rec["cidx"], (), rec["params"], other_paths=rec["others"])
        if warm.success and cold.success and cold.expansions > 0:
            ratios.append(warm.expansions / cold.expansions)
        cached_domain = rec["build"]()
        cached = solve(cached_domain, rec["agent"], rec["start"], rec["goal"],
                       rec["cidx"], rec["experience"], rec["params"],
                       other_paths=rec["others"])
        uncached_domain = rec["build"](cache=False)
        uncached = solve(uncached_domain, rec["agent"], rec["start"],
                         rec["goal"], rec["cidx"], rec["experience"],
                         rec["params"], other_paths=rec["others"])
        assert (cached.path is None) == (uncached.path is None)
        if cached.path is not None:
            assert cached.path == uncached.path  # caching is behavior-free
        if cached_domain.stats.cache_hits > 0:  # an edge or state was revisited
            cache_pairs += 1
            assert cached.collision_checks < uncached.collision_checks, \
                "cache did not reduce geometric tests despite revisits"
    med = statistics.median(ratios)
    ok = med <= 0.8 and len(ratios) >= 50
    report("acceleration-trend", ok,
           f"median expansion ratio {med:.3f} over {len(ratios)} replans, "
           f"cache strictly cheaper on {cache_pairs} revisiting replays")


def test_validity_suite():
    rng = random.Random(31337)
    focal = dict(w1L=50.0, w2L=1.3, wH=1.3)
    variants = [("cbs", {}), ("ecbs", dict(w1L=2.0, w2L=1.3, wH=1.3)),
                ("ecbs", focal), ("xcbs", dict(w1L=50.0)), ("xecbs", focal),
                ("pp", dict(w1L=50.0))]
    cases = solved = 0
    arm_scenes = [parse_scene(generate_scene("circle-arms", n=2, seed=s,
                                             links=2, walk=6))
                  for s in range(40)]
    while cases < 1000:
        variant, weights = variants[cases % len(variants)]
        cfg = PlannerConfig.make(variant, timeout=3.0, **weights)
        if cases % 16 == 15:
            scene = arm_scenes[(cases // 16) % len(arm_scenes)]
            domain, starts, goals = scene.build_domain(), scene.starts, scene.goals
        else:
            inst = random_grid_instance(rng)
            domain, starts, goals = inst.domain(), inst.starts, inst.goals
        cases += 1
        if variant == "pp":
            r = plan_prioritized(domain, starts, goals, cfg)
        else:
            r = plan(domain, starts, goals, cfg)
        if not r.success:
            continue
        solved += 1
        bound = None if r.lb is None else cfg.bound_factor * r.lb
        ok, reason = certify(domain, starts, goals, r.solution,
                             r.constraints or (), r.cost, bound)
        assert ok, f"{variant} on {starts}->{goals}: {reason}"
        out, rep = shortcut_solution(r.solution, domain)
        assert detect_conflicts(out.paths, domain) == [], \
            f"shortcut introduced conflicts ({variant})"
        for i, (a, b) in enumerate(zip(r.solution.paths, out.paths)):
            assert path_cost(b) <= path_cost(a)
            assert rep.agents[i].motion_after <= rep.agents[i].motion_before + 1e-12
    report("validity-suite", True,
           f"0 violations over {cases} fuzzed cases ({solved} solved)")


@pytest.mark.slow
def test_scalability_trend():
    t0 = time.perf_counter()
    outcome = {}
    for n in (2, 3):
        results = {"ecbs": [], "xecbs": []}
        for trial in range(20):
            text = generate_scene("circle-arms", n=n, seed=1700 + trial, walk=10)
            scene = parse_scene(text)
            for name in ("ecbs", "xecbs"):
                domain = scene.build_domain()
                r = plan(domain, scene.starts, scene.goals,
                         PlannerConfig.make(name, w1L=50.0, w2L=1.3, wH=1.3,
                                            timeout=10.0))
                results[name].append(r)
        succ = {k: sum(1 for r in v if r.success) for k, v in results.items()}
        mutual = [t for t in range(20)
                  if results["ecbs"][t].success and results["xecbs"][t].success]
        checks = {k: statistics.mean([results[k][t].collision_checks
                                      for t in mutual]) if mutual else 0.0
                  for k in results}
        outcome[n] = (succ, checks, len(mutual))
    elapsed = time.perf_counter() - t0
    ok = all(outcome[n][0]["xecbs"] >= outcome[n][0]["ecbs"] and
             outcome[n][1]["xecbs"] <= outcome[n][1]["ecbs"]
             for n in (2, 3))
    detail = "; ".join(
        f"n={n}: success x/e {outcome[n][0]['xecbs']}/{outcome[n][0]['ecbs']}"
        f" of 20, mean checks {outcome[n][1]['xecbs']:.0f}/{outcome[n][1]['ecbs']:.0f}"
        f" on {outcome[n][2]} mutual" for n in (2, 3))
    report("scalability-trend", ok, f"{detail}; {elapsed:.0f}s")


@pytest.mark.slow
def test_collision_checker_exactness():
    from mamp import ArmDomain, ArmSpec, Disc, Segment
    rng = random.Random(90210)
    total = 10_000
    disagreements = 0
    one_sided = True
    checked = 0
    while checked < total:
        links = rng.choice((2, 3))
        lengths = tuple(round(rng.uniform(0.3, 0.6), 3) for _ in range(links))
        obstacles = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                ang = rng.uniform(0, 2 * math.pi)
                r0 = rng.uniform(0.3, sum(lengths))
                obstacles.append(Segment(r0 * math.cos(ang), r0 * math.sin(ang),
                                         (r0 + 0.3) * math.cos(ang),
                                         (r0 + 0.3) * math.sin(ang)))
            else:
                obstacles.append(Disc(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                      rng.uniform(0.05, 0.2)))
        arm = ArmSpec((0.0, 0.0), lengths, math.pi / 16, ((-16, 16),) * links)
        domain = ArmDomain([arm], obstacles, thickness=0.04)
        for _ in range(40):
            if checked >= total:
                break
            q = tuple(rng.randint(-16, 16) for _ in range(links))
            j = rng.randrange(links)
            d = rng.choice((-1, 1))
            if not -16 <= q[j] + d <= 16:
                continue
            q2 = q[:j] + (q[j] + d,) + q[j + 1:]
            fast = domain.is_edge_valid(0, q, q2)
            exact = dense_edge_valid(domain, 0, q, q2, factor=100)
            checked += 1
            if fast != exact:
                disagreements += 1
                if not fast and exact:
                    one_sided = False  # checker must never be the permissive one
    rate = 1.0 - disagreements / checked
    ok = rate >= 0.999 and one_sided
    report("collision-checker-exactness", ok,
           f"{checked} edges, agreement {100 * rate:.3f}%, "
           f"{disagreements} sub-resolution grazes, one-sided={one_sided}")
