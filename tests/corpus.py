"""Deterministic small-instance corpora shared across test modules."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mamp import ArmDomain, ArmSpec, GridDomain, plan_coupled_oracle

from oracles import grid_bfs_cost


@dataclass(frozen=True)
class GridInstance:
    width: int
    height: int
    blocked: tuple
    starts: tuple
    goals: tuple
    optimal: int | None = None  # coupled-oracle sum of costs, if prefiltered

    def domain(self, cache: bool = True) -> GridDomain:
        return GridDomain(self.width, self.height, self.blocked, cache=cache)


def random_grid_instance(rng: random.Random, max_size=4, agents=(2, 3),
                         max_dist=4, obstacle_p=0.12, feasible=True,
                         horizon=10) -> GridInstance:
    while True:
        w = rng.randint(3, max_size)
        h = rng.randint(2, max_size)
        blocked = tuple((x, y) for x in range(w) for y in range(h)
                        if rng.random() < obstacle_p)
        n = rng.choice(agents)
        free = [(x, y) for x in range(w) for y in range(h)
                if (x, y) not in blocked]
        if len(free) < 2 * n + 1:
            continue
        domain = GridDomain(w, h, blocked)
        starts = rng.sample(free, n)
        goals = rng.sample(free, n)
        dists = [grid_bfs_cost(domain, s, g) for s, g in zip(starts, goals)]
        if not all(d is not None and d <= max_dist for d in dists):
            continue
        inst = GridInstance(w, h, blocked, tuple(starts), tuple(goals))
        if not feasible:
            return inst
        # keep only jointly solvable instances; CBS-family planners cannot
        # prove interaction-infeasibility in finite time
        oracle = plan_coupled_oracle(inst.domain(), inst.starts, inst.goals,
                                     horizon=horizon)
        if oracle.success:
            return GridInstance(w, h, blocked, tuple(starts), tuple(goals),
                                optimal=oracle.cost)


def grid_corpus(seed: int, count: int, **kw) -> list[GridInstance]:
    rng = random.Random(seed)
    return [random_grid_instance(rng, **kw) for _ in range(count)]


def two_link_arm_pair(gap=1.7, link=0.5, thickness=0.04,
                      resolution=math.pi / 16, cache=True) -> ArmDomain:
    """Two face-to-face 2-link arms whose workspaces overlap in the middle."""
    limits = ((-16, 16), (-16, 16))
    arms = [ArmSpec((-gap / 2, 0.0), (link, link), resolution, limits),
            ArmSpec((gap / 2, 0.0), (link, link), resolution, limits)]
    return ArmDomain(arms, thickness=thickness, cache=cache)


def one_joint_arm(link=1.0, resolution=math.pi / 16, obstacles=(),
                  thickness=0.04, cache=True) -> ArmDomain:
    return ArmDomain([ArmSpec((0.0, 0.0), (link,), resolution, ((-16, 16),))],
                     list(obstacles), thickness=thickness, cache=cache)


def facing_arms() -> ArmDomain:
    """Two 1-link arms whose full-circle sweeps overlap."""
    res = math.pi / 4
    return ArmDomain([ArmSpec((-0.5, 0.0), (0.7,), res, ((-4, 4),)),
                      ArmSpec((0.5, 0.0), (0.7,), res, ((-4, 4),))])
