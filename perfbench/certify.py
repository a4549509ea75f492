"""Independent certificate for a planning query's output.

Checked against a fresh domain built from the scene, using only the
domain's static state/edge checks and pairwise collision test as ground
truth; the planner's own validators are not used (they accept teleports).
Every function returns a list of human-readable defects; empty means
certified.
"""

from __future__ import annotations

import mamp

EPS = 1e-9


def steps_cost(waypoints) -> int:
    """Moves and waits up to the final arrival at the last waypoint."""
    t = len(waypoints) - 1
    while t > 0 and waypoints[t - 1] == waypoints[-1]:
        t -= 1
    return t


def _path_defects(domain, agent: int, waypoints, start, goal,
                  unit_moves: bool) -> list[str]:
    out = []
    if not waypoints:
        return [f"agent {agent}: empty path"]
    if tuple(waypoints[0]) != tuple(start):
        out.append(f"agent {agent}: starts at {waypoints[0]}, not {start}")
    if tuple(waypoints[-1]) != tuple(goal):
        out.append(f"agent {agent}: ends at {waypoints[-1]}, not {goal}")
    for t, q in enumerate(waypoints):
        if len(q) != len(start) or not domain.is_state_valid(agent, q):
            out.append(f"agent {agent}: invalid state {q} at t={t}")
            return out
    for t, (q, q2) in enumerate(zip(waypoints, waypoints[1:])):
        if q == q2:
            continue
        if unit_moves and sum(abs(a - b) for a, b in zip(q, q2)) != 1:
            out.append(f"agent {agent}: {q}->{q2} at t={t} is not a lattice move")
        elif not domain.is_edge_valid(agent, q, q2):
            out.append(f"agent {agent}: {q}->{q2} at t={t} fails the edge check")
    return out


def certify_query(scene, config, result, shortcut) -> list[str]:
    """Defects of a successful planning result and of its shortcut.

    The planner output must: start and end at the scene's start and goal;
    take lattice moves or waits that are statically valid; be conflict-free
    and satisfy its own constraints; have the reported cost; and stay
    within ``w1L*w2L*wH`` of the planner's lower bound. The shortcut must
    keep endpoints, durations and validity (grids: unit moves; arms:
    interpolated edge checks), stay conflict-free and cost no more.
    """
    domain = scene.build_domain()
    paths = result.solution.paths
    defects = []
    if len(paths) != len(scene.starts):
        return [f"{len(paths)} paths for {len(scene.starts)} agents"]
    for i, p in enumerate(paths):
        defects += _path_defects(domain, i, p.waypoints, scene.starts[i],
                                 scene.goals[i], unit_moves=True)
    if defects:
        return defects
    if mamp.detect_conflicts(paths, domain):
        defects.append("planner output has conflicts")
    for c in result.constraints or ():
        if mamp.violates(paths[c.agent], c):
            defects.append(f"planner output violates {c}")
    cost = sum(steps_cost(p.waypoints) for p in paths)
    if cost != result.cost:
        defects.append(f"reported cost {result.cost}, recomputed {cost}")
    if result.lb is not None and cost > config.bound_factor * result.lb + EPS:
        defects.append(f"cost {cost} above {config.bound_factor} x lb {result.lb}")

    post = shortcut.paths
    if len(post) != len(paths):
        return defects + ["shortcut changed the agent count"]
    for i, (p, q) in enumerate(zip(paths, post)):
        if len(p.waypoints) != len(q.waypoints):
            defects.append(f"agent {i}: shortcut changed the duration")
        defects += _path_defects(domain, i, q.waypoints, scene.starts[i],
                                 scene.goals[i], unit_moves=scene.kind == "grid")
        if steps_cost(q.waypoints) > steps_cost(p.waypoints):
            defects.append(f"agent {i}: shortcut raised the step cost")
        if domain.motion_cost_path(i, q.waypoints) > \
                domain.motion_cost_path(i, p.waypoints) + EPS:
            defects.append(f"agent {i}: shortcut raised the motion cost")
    if not defects and mamp.detect_conflicts(post, domain):
        defects.append("shortcut output has conflicts")
    return defects
