"""Brute-force reference implementations used only by the tests.

These are deliberately simple (layered BFS, O(n^2) scans, dense sampling)
and independent of the search code they check; they share only the domain
geometry predicates, which are the common ground truth.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

from mamp.core import EDGE, VERTEX, Conflict, ConstraintIndex, Path, step_collides
from mamp.domains.arm import Segment, _chain, _seg_seg_dist2


def _pt_seg_dist2(p, a, b):
    """Squared distance from point p to segment [a, b]."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return apx * apx + apy * apy
    t = min(max((apx * abx + apy * aby) / denom, 0.0), 1.0)
    dx = apx - abx * t
    dy = apy - aby * t
    return dx * dx + dy * dy


def exact_seg_seg_dist2(p1, q1, p2, q2) -> Fraction:
    """Squared distance between segments [p1,q1] and [p2,q2] in exact
    rational arithmetic: zero if they intersect, else the least distance
    from an endpoint of one to the other segment."""
    p1, q1, p2, q2 = (tuple(map(Fraction, v)) for v in (p1, q1, p2, q2))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on(a, b, c):  # c on segment [a, b], given that the three are collinear
        return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and \
            min(a[1], b[1]) <= c[1] <= max(a[1], b[1])

    def pt_seg(c, a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        den = dx * dx + dy * dy
        t = min(max(((c[0] - a[0]) * dx + (c[1] - a[1]) * dy) / den, 0), 1) if den else 0
        ex, ey = a[0] + dx * t - c[0], a[1] + dy * t - c[1]
        return ex * ex + ey * ey

    d1, d2 = cross(p2, q2, p1), cross(p2, q2, q1)
    d3, d4 = cross(p1, q1, p2), cross(p1, q1, q2)
    if ((d1 > 0 > d2 or d1 < 0 < d2) and (d3 > 0 > d4 or d3 < 0 < d4)) or \
            (d1 == 0 and on(p2, q2, p1)) or (d2 == 0 and on(p2, q2, q1)) or \
            (d3 == 0 and on(p1, q1, p2)) or (d4 == 0 and on(p1, q1, q2)):
        return Fraction(0)
    return min(pt_seg(p1, p2, q2), pt_seg(q1, p2, q2), pt_seg(p2, p1, q1), pt_seg(q2, p1, q1))


def grid_bfs_cost(domain, start, goal):
    """Untimed shortest path length on the grid, None if unreachable."""
    if start == goal:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        q, d = frontier.popleft()
        for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nq = (q[0] + x, q[1] + y)
            if nq in seen or not domain.is_state_valid(0, nq):
                continue
            if nq == goal:
                return d + 1
            seen.add(nq)
            frontier.append((nq, d + 1))
    return None


def step_conflicts(domain, agent, others, q, t, q2, first=False):
    """Number of the ``others`` (id, path) that the move q -> q2 departing
    at t collides with, by one ``step_collides`` test per other agent; with
    ``first``, 1 as soon as one does."""
    n = 0
    for jid, pj in others:
        if step_collides(domain, agent, q, q2, jid, pj.at(t), pj.at(t + 1)):
            if first:
                return 1
            n += 1
    return n


def _move_allowed(domain, agent, cidx, q, t, q2, others, hard):
    if not cidx.allows_move(q, t, q2):
        return False
    if q2 != q and not (domain.is_lattice_edge(agent, q, q2)
                        and domain.is_edge_valid(agent, q, q2)):
        return False
    if not domain.is_state_valid(agent, q2):
        return False
    if hard:
        for jid, pj in others:
            a, b = pj.at(t), pj.at(t + 1)
            if domain.pairwise_collision(agent, q2, q2, jid, b, b):
                return False
            if (q2 != q or b != a) and domain.pairwise_collision(agent, q, q2, jid, a, b):
                return False
    return True


def _parked_ok(domain, agent, goal, t, others):
    last = max((p.duration for _, p in others), default=0)
    for t2 in range(t, max(t, last) + 1):
        for jid, pj in others:
            a, b = pj.at(t2), pj.at(t2 + 1)
            if domain.pairwise_collision(agent, goal, goal, jid, a, a):
                return False
            if b != a and domain.pairwise_collision(agent, goal, goal, jid, a, b):
                return False
    return True


def timed_optimal_cost(domain, agent, start, goal, constraints=(),
                       horizon=32, other_paths=None, hard=False):
    """Exact optimal timed-path cost by breadth-first search over
    (configuration, timestep). Unit steps make depth equal cost, so the
    first acceptable goal arrival is optimal. Returns None if unsolvable
    within the horizon."""
    cidx = constraints if isinstance(constraints, ConstraintIndex) \
        else ConstraintIndex(constraints, agent)
    others = list(other_paths) if other_paths else []
    if not cidx.allows_state(start, 0):
        return None
    layer = {start}
    for t in range(horizon + 1):
        for q in sorted(layer):
            if q == goal and cidx.no_future_constraints(q, t) and \
                    (not hard or _parked_ok(domain, agent, goal, t, others)):
                return t
        if t == horizon:
            break
        nxt = set()
        for q in layer:
            for q2 in domain.successor_configs(agent, q):
                if _move_allowed(domain, agent, cidx, q, t, q2, others, hard):
                    nxt.add(q2)
        layer = nxt
        if not layer:
            return None
    return None


def plain_focal_wastar(domain, agent, start, goal, constraints=(),
                       w1=1.0, w2=1.0, f2="f1", other_paths=None, horizon=32):
    """Reference focal weighted A* without any experience machinery,
    implemented with per-iteration scans. Tie-breaking matches the planner's
    documented rules; returns (cost, expansion trace) or (None, trace)."""
    cidx = constraints if isinstance(constraints, ConstraintIndex) \
        else ConstraintIndex(constraints, agent)
    others = list(other_paths) if other_paths else []

    parked_after = None
    if f2 == "conflicts" and others:
        last = max(p.duration for _, p in others)
        tail = sum(1 for jid, pj in others
                   if domain.pairwise_collision(agent, goal, goal, jid, pj.end, pj.end))
        parked_after = [tail] * (last + 2)
        for t in range(last, -1, -1):
            hits = 0
            for jid, pj in others:
                a, b = pj.at(t), pj.at(t + 1)
                if domain.pairwise_collision(agent, goal, goal, jid, b, b) or \
                        (b != a and domain.pairwise_collision(agent, goal, goal, jid, a, b)):
                    hits += 1
            parked_after[t] = parked_after[t + 1] + hits

    def step_cc(q, t, q2):
        if parked_after is None:
            return 0
        n = 0
        for jid, pj in others:
            a, b = pj.at(t), pj.at(t + 1)
            if domain.pairwise_collision(agent, q2, q2, jid, b, b) or \
                    ((q2 != q or b != a) and domain.pairwise_collision(agent, q, q2, jid, a, b)):
                n += 1
        if q2 == goal:
            n += parked_after[min(t + 1, len(parked_after) - 1)]
        return n

    if not cidx.allows_state(start, 0):
        return None, []
    h0 = domain.heuristic(agent, start, goal)
    info = {(start, 0): [0, h0, 0]}  # g, h, cc
    open_set = {(start, 0)}
    trace = []
    while open_set:
        f1 = {s: info[s][0] + w1 * info[s][1] for s in open_set}
        bound = w2 * min(f1.values())
        focal = [s for s in open_set if f1[s] <= bound]
        if f2 == "conflicts":
            s = min(focal, key=lambda s: (info[s][2], f1[s], s))
        else:
            s = min(focal, key=lambda s: (f1[s], -info[s][0], s))
        open_set.remove(s)
        trace.append(s)
        q, t = s
        if q == goal and cidx.no_future_constraints(q, t):
            return info[s][0], trace
        if t + 1 > horizon:
            continue
        for q2 in domain.successor_configs(agent, q):
            if not cidx.allows_move(q, t, q2):
                continue
            s2 = (q2, t + 1)
            g2 = info[s][0] + 1
            known = info.get(s2)
            if known is None:
                info[s2] = [g2, domain.heuristic(agent, q2, goal),
                            info[s][2] + step_cc(q, t, q2)]
                open_set.add(s2)
            elif known[0] > g2:
                known[0] = g2
                known[2] = info[s][2] + step_cc(q, t, q2)
                open_set.add(s2)  # reopen
    return None, trace


class EagerFocalQueue:
    """Reference low-level OPEN/FOCAL in conflict mode, by scans and with
    eager counts: a relaxation computes the state's conflict count at once
    from its parent's, and a pop takes, among the open states with
    f1 <= w2 * min f1, the least (count, f1, state)."""

    def __init__(self, w1, w2, h_fn, cc_fn):
        self.w1, self.w2, self.h_fn, self.cc_fn = w1, w2, h_fn, cc_fn
        self.info = {}  # state -> [g, f1, cc]
        self.open = set()

    def push_root(self, state):
        self.info[state] = [0, self.w1 * self.h_fn(state), 0]
        self.open.add(state)

    def relax(self, parent, state):
        g = self.info[parent][0] + 1
        known = self.info.get(state)
        if known is not None and known[0] <= g:
            return
        self.info[state] = [g, g + self.w1 * self.h_fn(state),
                            self.info[parent][2] + self.cc_fn(parent, state)]
        self.open.add(state)

    def pop(self):
        """(state, count) of the extracted state, None when nothing is open."""
        if not self.open:
            return None
        bound = self.w2 * min(self.info[s][1] for s in self.open)
        s = min((s for s in self.open if self.info[s][1] <= bound),
                key=lambda s: (self.info[s][2], self.info[s][1], s))
        self.open.remove(s)
        return s, self.info[s][2]


def scan_conflicts(paths, domain):
    """Every conflict of ``paths`` by a per-timestep scan of each pair with
    ``Path.at`` (shorter paths park at their end) up to the later end:
    a vertex conflict where the arrivals touch, an edge conflict where a
    moving step's sweeps do. Sorted by ``Conflict.sort_key``."""
    out = []
    for i, j in itertools.combinations(range(len(paths)), 2):
        pi, pj = paths[i], paths[j]
        horizon = max(pi.duration, pj.duration)
        for t in range(horizon + 1):
            a, b = pi.at(t), pj.at(t)
            if domain.pairwise_collision(i, a, a, j, b, b):
                out.append(Conflict(VERTEX, (i, j), t, ((a, a), (b, b))))
            if t < horizon:
                a2, b2 = pi.at(t + 1), pj.at(t + 1)
                if (a2 != a or b2 != b) and domain.pairwise_collision(i, a, a2, j, b, b2):
                    out.append(Conflict(EDGE, (i, j), t, ((a, a2), (b, b2))))
    out.sort(key=Conflict.sort_key)
    return out


def shortcut_reference(paths, domain):
    """The shortcutter's greedy scan, written as candidate-then-check: per
    agent in id order, from each span start a, try b from the path end
    down; build the whole straight interpolation (half-up rounding), skip
    it as already straight when it equals the path, else count an attempt
    and accept it iff every step is statically valid and hits none of the
    other agents' current paths (one pair test per agent, in id order).
    Returns (paths, attempted, accepted)."""
    paths = list(paths)
    attempted = accepted = 0
    for agent in range(len(paths)):
        others = [(j, p) for j, p in enumerate(paths) if j != agent]
        wps = list(paths[agent].waypoints)
        a = 0
        while a < len(wps) - 2:
            for b in range(len(wps) - 1, a + 1, -1):
                qa, qb, d = wps[a], wps[b], b - a
                cand = [qa] + [tuple(int(math.floor(x + (y - x) * (k / d) + 0.5))
                                     for x, y in zip(qa, qb)) for k in range(1, d)] + [qb]
                if cand == wps[a:b + 1]:
                    a = b
                    break
                attempted += 1
                if all(domain.step_valid(agent, q, q2)
                       and not step_conflicts(domain, agent, others, q, t, q2, True)
                       for t, (q, q2) in enumerate(zip(cand, cand[1:]), a)):
                    wps[a:b + 1] = cand
                    accepted += 1
                    a = b
                    break
            else:
                a += 1
        paths[agent] = Path(tuple(wps))
    return paths, attempted, accepted


def select_ct_node(nodes, wH, f1H, f2H):
    """Brute-force CT node selection among the unpopped ``nodes``: FOCAL is
    every node with cost <= wH * min f1H, the bound floored at the minimum
    cost when wH > 1, and its min-f2H node wins; with FOCAL empty, the node
    with the minimum (f1H, index). None when ``nodes`` is empty."""
    if not nodes:
        return None

    def f1(n):
        return n.lb_total if f1H == "lb" else float(n.cost)

    def f2(n):
        if f2H == "conflicts":
            return (len(n.conflicts), n.cost, n.index)
        return (n.cost, n.index)

    bound = wH * min(f1(n) for n in nodes)
    if wH > 1:
        bound = max(bound, min(n.cost for n in nodes))
    focal = [n for n in nodes if n.cost <= bound]
    if focal:
        return min(focal, key=f2)
    return min(nodes, key=lambda n: (f1(n), n.index))


def body_in_contact(domain, chain):
    """Plain contact test of one arm body: two non-adjacent links within
    twice the capsule radius, or a link within the capsule radius of a
    segment or within capsule radius plus disc radius of a disc centre."""
    t = domain.thickness
    links = list(zip(chain, chain[1:]))
    if any(_seg_seg_dist2(*links[a], *links[b]) <= (2.0 * t) ** 2
           for a in range(len(links)) for b in range(a + 2, len(links))):
        return True
    for p, q in links:
        for ob in domain.obstacles:
            if isinstance(ob, Segment):
                if _seg_seg_dist2(p, q, (ob.ax, ob.ay), (ob.bx, ob.by)) <= t ** 2:
                    return True
            elif _pt_seg_dist2((ob.x, ob.y), p, q) <= (t + ob.r) * (t + ob.r):
                return True
    return False


def dense_edge_valid(domain, agent, q, q2, factor=100):
    """Edge validity sampled at ``factor`` times the domain's declared
    sub-step density (superset of the checker's sample points)."""
    steps = max((abs(a - b) for a, b in zip(q, q2)), default=0)
    if steps == 0:
        return domain._check_state(agent, q)
    ta = domain._angles(agent, q)
    tb = domain._angles(agent, q2)
    total = domain.substeps * steps * factor
    for k in range(total + 1):
        s = k / total
        thetas = [a + (b - a) * s for a, b in zip(ta, tb)]
        if body_in_contact(domain, _chain(domain.arms[agent], thetas)):
            return False
    return True


def sampled_edge_valid(domain, agent, q, q2):
    """Edge verdict of the plain sampler: both ends lie within the joint
    limits, and the body is clear at both ends and at every interior
    sub-step k / total of the motion q -> q2."""
    arm = domain.arms[agent]
    if not all(lo <= v <= hi for c in (q, q2) for v, (lo, hi) in zip(c, arm.limits)):
        return False
    ta = [v * arm.resolution for v in q]
    tb = [v * arm.resolution for v in q2]
    total = domain.substeps * max((abs(a - b) for a, b in zip(q, q2)), default=0)
    poses = [ta, tb] + [[a + (b - a) * s for a, b in zip(ta, tb)]
                        for s in (k / total for k in range(1, total))]
    return not any(body_in_contact(domain, _chain(arm, thetas)) for thetas in poses)


def sampled_pair_collision(domain, i, qi0, qi1, j, qj0, qj1):
    """Arm pair verdict of the plain sampler: some link pair of the two
    bodies is within twice the capsule radius at an interior sub-step
    k / total of the synchronized motion, or at the poses themselves when
    neither arm moves."""
    r2 = (2.0 * domain.thickness) ** 2
    steps = max(abs(a - b) for a, b in zip(qi0 + qj0, qi1 + qj1))
    total = domain.substeps * steps
    fractions = [k / total for k in range(1, total)] if steps else [0.0]
    ends = [(agent, domain._angles(agent, q), domain._angles(agent, q2))
            for agent, q, q2 in ((i, qi0, qi1), (j, qj0, qj1))]
    for s in fractions:
        ci, cj = (_chain(domain.arms[agent], [a + (b - a) * s
                                              for a, b in zip(ta, tb)])
                  for agent, ta, tb in ends)
        if any(_seg_seg_dist2(ci[a], ci[a + 1], cj[b], cj[b + 1]) <= r2
               for a in range(len(ci) - 1) for b in range(len(cj) - 1)):
            return True
    return False


def enumerate_timed_paths(domain, agent, start, length):
    """All constraint-free timed paths with exactly ``length`` transitions."""
    paths = [[start]]
    for _ in range(length):
        nxt = []
        for p in paths:
            for q2 in domain.successor_configs(agent, p[-1]):
                nxt.append(p + [q2])
        paths = nxt
    return [tuple(p) for p in paths]
