"""Incremental shortcutting of multi-agent solutions.

Agents are processed one by one; for each agent the scan walks from the
start of its path and greedily tries the longest span [a, b] whose
re-parameterized straight interpolation (same duration, so downstream
conflict timing is untouched) is statically valid and collision-free
against all other agents' current, possibly already-shortcut, paths.

The straight interpolation is rounded back onto the lattice and is monotone
per coordinate, so its motion cost is the minimum achievable between the
span endpoints: replacements can never increase either cost metric. On
grids every replacement step must remain a unit move or wait; on arms a
step may rotate several joints at once (these appear only in post-processed
solutions and are validated by interpolated collision checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Config, Path, Solution, detect_conflicts, path_cost
from .domains.base import LatticeDomain


@dataclass
class AgentShortcut:
    steps_before: int
    steps_after: int
    motion_before: float
    motion_after: float


@dataclass
class ShortcutReport:
    agents: list[AgentShortcut]
    attempted: int = 0
    accepted: int = 0


def _interpolate_span(a: Config, b: Config, duration: int) -> list[Config]:
    """Straight lattice interpolation from a to b over ``duration`` steps,
    rounded half-up per coordinate (monotone in each coordinate)."""
    out = [a]
    for k in range(1, duration):
        s = k / duration
        out.append(tuple(int(math.floor(x + (y - x) * s + 0.5))
                         for x, y in zip(a, b)))
    out.append(b)
    return out


def _span_ok(domain: LatticeDomain, agent: int, candidate: list[Config],
             start_t: int, hits) -> bool:
    """Every step of ``candidate`` is statically valid and hits none of the
    other agents (``hits`` is their ``step_conflicts`` counter)."""
    return all(domain.step_valid(agent, q, q2) and not hits(q, t, q2, first=True)
               for t, (q, q2) in enumerate(zip(candidate, candidate[1:]), start_t))


def shortcut_solution(solution: Solution,
                      domain: LatticeDomain) -> tuple[Solution, ShortcutReport]:
    """Shorten each agent's motion without changing durations or creating
    new conflicts. Input must be conflict-free."""
    if detect_conflicts(solution.paths, domain):
        raise ValueError("invalid input solution")
    n = len(solution.paths)
    paths = list(solution.paths)
    report = ShortcutReport(agents=[None] * n)  # indexed by agent
    for agent in range(n):
        waypoints = list(paths[agent].waypoints)
        before_steps = path_cost(paths[agent])
        before_motion = domain.motion_cost_path(agent, waypoints)
        hits = domain.step_conflicts(
            agent, [(j, paths[j]) for j in range(n) if j != agent])
        a = 0
        while a < len(waypoints) - 2:
            replaced = False
            for b in range(len(waypoints) - 1, a + 1, -1):
                candidate = _interpolate_span(waypoints[a], waypoints[b], b - a)
                if candidate == waypoints[a:b + 1]:
                    a = b  # already straight
                    replaced = True
                    break
                report.attempted += 1
                if _span_ok(domain, agent, candidate, a, hits):
                    waypoints[a:b + 1] = candidate
                    report.accepted += 1
                    a = b
                    replaced = True
                    break
            if not replaced:
                a += 1
        paths[agent] = Path(tuple(waypoints))
        report.agents[agent] = AgentShortcut(
            before_steps, path_cost(paths[agent]),
            before_motion, domain.motion_cost_path(agent, waypoints))
    return Solution(tuple(paths)), report
