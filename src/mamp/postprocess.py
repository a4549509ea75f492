"""Incremental shortcutting of multi-agent solutions.

Agents are processed one by one; for each agent the scan walks from the
start of its path and greedily tries the longest span [a, b] whose
re-parameterized straight interpolation (same duration, so downstream
conflict timing is untouched) is statically valid and collision-free
against all other agents' current, possibly already-shortcut, paths. The
interpolation is walked one step at a time and abandoned at its first
failing step; the current paths are one conflict table, into which each
agent's shortened path is swapped; its counter skips the agent's own.

The straight interpolation is rounded back onto the lattice and is monotone
per coordinate, so its motion cost is the minimum achievable between the
span endpoints: replacements can never increase either cost metric. On
grids every replacement step must remain a unit move or wait; on arms a
step may rotate several joints at once (these appear only in post-processed
solutions and are validated by interpolated collision checks). The report
counts spans only; a cost before or after is read off the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Config, Path, Solution, detect_conflicts
from .domains.base import LatticeDomain


@dataclass
class ShortcutReport:
    attempted: int = 0  # spans tried: rejected, or accepted and changed
    accepted: int = 0   # spans replaced by their straight interpolation


def _walk_span(domain: LatticeDomain, agent: int, waypoints: list[Config],
               a: int, b: int, hits) -> list[Config] | None:
    """The straight lattice interpolation from ``waypoints[a]`` to
    ``waypoints[b]`` over b - a steps, rounded half-up per coordinate
    (monotone in each coordinate), generated one step at a time. The walk
    stops, returning None, at the first step that is not statically valid
    or hits another agent (``hits`` is their conflict table's counter).
    A step equal to the path's own step at the same time is not tested:
    the current solution is conflict-free."""
    qa, qb = waypoints[a], waypoints[b]
    duration = b - a
    out = [qa]
    q = qa
    for k in range(1, duration + 1):
        if k < duration:
            s = k / duration
            q2 = tuple([math.floor(x + (y - x) * s + 0.5) for x, y in zip(qa, qb)])
        else:
            q2 = qb
        t = a + k - 1
        if (q != waypoints[t] or q2 != waypoints[t + 1]) and not (
                domain.step_valid(agent, q, q2) and not hits(q, t, q2, first=True)):
            return None
        out.append(q2)
        q = q2
    return out


def shortcut_solution(solution: Solution,
                      domain: LatticeDomain) -> tuple[Solution, ShortcutReport]:
    """Shorten each agent's motion without changing durations or creating
    new conflicts; return the result and its span counts. Input must be
    conflict-free (else ``ValueError``) and made of statically valid steps,
    as every planner here returns: a retraced step of the input is not
    tested again."""
    if detect_conflicts(solution.paths, domain):
        raise ValueError("invalid input solution")
    paths = list(solution.paths)
    report = ShortcutReport()
    table = domain.Table(enumerate(paths))  # the current paths, id order
    for agent in range(len(paths)):
        waypoints = list(paths[agent].waypoints)
        hits = table.step_conflicts(domain, agent)
        a = 0
        while a < len(waypoints) - 2:
            for b in range(len(waypoints) - 1, a + 1, -1):
                walk = _walk_span(domain, agent, waypoints, a, b, hits)
                if walk is None:
                    report.attempted += 1
                    continue
                if walk != waypoints[a:b + 1]:  # else already straight
                    report.attempted += 1
                    report.accepted += 1
                    waypoints[a:b + 1] = walk
                a = b
                break
            else:
                a += 1
        if tuple(waypoints) != paths[agent].waypoints:
            paths[agent] = Path(tuple(waypoints))
            table.set(agent, paths[agent])
    return Solution(tuple(paths)), report
