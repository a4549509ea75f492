"""Planar multi-link arm lattice with capsule collision checking.

Each agent is a revolute chain anchored at a base point. A configuration is
a vector of joint indices; joint angle = index * resolution. Motion
primitives rotate exactly one joint by one lattice step (or wait). Links
are capsules of a shared radius (``thickness``), and so are obstacles: a
segment is a capsule of that radius, a disc a zero-length capsule of radius
``thickness + r``. One distance function, ``_seg_seg_dist2``, serves links,
segments and discs. Validity of a motion is decided by sampling
interpolated configurations at a declared sub-step density (``substeps``
per joint step).

Every motion test, of one arm against the scene and itself or of a pair of
arms, is one conservative-advancement walk over the moving arms' interior
sub-steps: a pose of known clearance stays clear for as many sub-steps as
the bodies need to close it, so those sub-steps are skipped. One closing
bound serves both tests: per sub-step, no two body points close faster than
the sum over the moving arms of their travel bounds (length times change of
absolute angle, summed over links); for two points of one chain only the
links between them count, so the bound covers self-approach too. The walk
starts from the static clearances at both ends of the motion (a state test
keeps its body clearance; a pair clearance is memoized per pair of poses),
interpolates the chains only if some sub-step is left to evaluate, and lets
each evaluated sub-step extend the skip. One body-body kernel gives the
clearance of two arms and an arm's self-clearance alike: the least link
distance less 2 * thickness, contact at ``<= (2 * thickness)**2``. One reach
table per pair of arms whose reach discs overlap serves both the arm-level
test (no table, no contact) and the kernel's link-pair walk, which takes
the pairs by a static lower bound on their distance and stops once no later
pair can be nearer, so the clearance is exactly that of every pair.
Clearances only set skip lengths; every verdict is the sampler's
squared-distance test. ``geometry_checks`` counts the evaluated sub-steps
and each static test once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..core import Config
from .base import LatticeDomain

Point = tuple[float, float]

# The largest magnitude of a scene coordinate or length. Inside it the
# distance kernel is within 1e-11 of exact arithmetic; its error grows about
# linearly with them, to 5e-10 at 1e6 and 2e-4 at 1e12.
MAX_COORD = 1e4


@dataclass(frozen=True)
class ArmSpec:
    base: Point
    link_lengths: tuple[float, ...]
    resolution: float
    limits: tuple[tuple[int, int], ...]  # inclusive index range per joint

    def __post_init__(self):
        if not self.link_lengths:
            raise ValueError("an arm needs at least one link")
        if not all(abs(v) <= MAX_COORD for v in self.base):
            raise ValueError(f"arm base {self.base} must lie in [-{MAX_COORD:g}, {MAX_COORD:g}]")
        if not all(0 < v <= MAX_COORD for v in self.link_lengths):
            raise ValueError(f"link lengths must be positive and <= {MAX_COORD:g}, "
                             f"got {self.link_lengths}")
        if not 0 < self.resolution < math.inf:
            raise ValueError(f"resolution must be positive and finite, got {self.resolution}")
        if len(self.limits) != len(self.link_lengths):
            raise ValueError(f"{len(self.limits)} joint limit pairs for "
                             f"{len(self.link_lengths)} links")
        if any(lo > hi for lo, hi in self.limits):
            raise ValueError(f"joint limits must have lo <= hi, got {self.limits}")
        try:  # the widest joint angle, and the largest sum of squared joint
            # distances that the heuristic takes
            widest = max(abs(v) for pair in self.limits for v in pair) * self.resolution
            square = sum(w * w for w in [(hi - lo) * self.resolution for lo, hi in self.limits])
        except OverflowError:  # a limit past the float range
            widest = square = math.inf
        if not (math.isfinite(widest) and math.isfinite(square)):
            raise ValueError(f"joint limits {self.limits} times resolution {self.resolution} "
                             "overflow the joint angle or the squared joint distance")

    @property
    def reach(self) -> float:
        return sum(self.link_lengths)


@dataclass(frozen=True)
class Segment:
    ax: float
    ay: float
    bx: float
    by: float

    def __post_init__(self):
        if not all(abs(v) <= MAX_COORD for v in (self.ax, self.ay, self.bx, self.by)):
            raise ValueError(f"segment {self} must lie in [-{MAX_COORD:g}, {MAX_COORD:g}]")


@dataclass(frozen=True)
class Disc:
    x: float
    y: float
    r: float

    def __post_init__(self):
        if not (abs(self.x) <= MAX_COORD and abs(self.y) <= MAX_COORD):
            raise ValueError(f"disc {self} must lie in [-{MAX_COORD:g}, {MAX_COORD:g}]")
        if not 0 <= self.r <= MAX_COORD:
            raise ValueError(f"disc radius must be >= 0 and <= {MAX_COORD:g}, got {self.r}")


_CONTACT = -1.0  # the clearance of bodies in contact


def _reach(gap: float, per: float, total: int) -> int:
    """Sub-steps that a pose of clearance ``gap`` stays clear for when no
    body point closes more than ``per`` per sub-step (at most ``total``).
    A zero bound means no body point moves a representable distance, so a
    clear pose covers the whole motion."""
    room = gap - 1e-9
    if room <= 0.0:
        return 0
    return int(min(room / per, total)) if per > 0.0 else total


def _seg_seg_dist2(p1: Point, q1: Point, p2: Point, q2: Point) -> float:
    """Squared distance between segments [p1,q1] and [p2,q2]: zero if they
    cross, else the least distance from an end of one to the other (in the
    plane, two segments that do not cross are nearest at an end). Unlike a
    closest-pair solve, no step divides by the sine of the angle between
    the segments, so nearly parallel segments are exact up to rounding."""
    ux, uy = q1[0] - p1[0], q1[1] - p1[1]
    vx, vy = q2[0] - p2[0], q2[1] - p2[1]
    ax, ay = p1[0] - p2[0], p1[1] - p2[1]  # p1 from p2; p2 from p1 is (-ax, -ay)
    bx, by = q1[0] - p2[0], q1[1] - p2[1]  # q1 from p2
    cx, cy = q2[0] - p1[0], q2[1] - p1[1]  # q2 from p1
    if ((vx * ay - vy * ax) * (vx * by - vy * bx) < 0.0
            and (uy * ax - ux * ay) * (ux * cy - uy * cx) < 0.0):
        return 0.0  # each segment's ends lie strictly on both sides of the other
    # The four end-to-segment distances, unrolled: a helper call or a loop
    # per end costs a quarter more per call, and an arm query makes thousands.
    vv, uu = vx * vx + vy * vy, ux * ux + uy * uy
    t = (ax * vx + ay * vy) / vv if vv > 0.0 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ex, ey = ax - vx * t, ay - vy * t
    best = ex * ex + ey * ey
    t = (bx * vx + by * vy) / vv if vv > 0.0 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ex, ey = bx - vx * t, by - vy * t
    d = ex * ex + ey * ey
    if d < best:
        best = d
    t = -(ax * ux + ay * uy) / uu if uu > 0.0 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ex, ey = -ax - ux * t, -ay - uy * t
    d = ex * ex + ey * ey
    if d < best:
        best = d
    t = (cx * ux + cy * uy) / uu if uu > 0.0 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ex, ey = cx - ux * t, cy - uy * t
    d = ex * ex + ey * ey
    return d if d < best else best


def _chain(arm: ArmSpec, thetas) -> tuple[Point, ...]:
    """Capsule chain [base, joint1, ..., jointK] at the given joint angles:
    joint i+1 = joint i + L_i * (cos sum(theta), sin sum(theta))."""
    pts = [arm.base]
    x, y = arm.base
    acc = 0.0
    for length, th in zip(arm.link_lengths, thetas):
        acc += th
        x += length * math.cos(acc)
        y += length * math.sin(acc)
        pts.append((x, y))
    return tuple(pts)


def forward_kinematics(arm: ArmSpec, q: Config) -> list[Point]:
    """Joint positions of the chain at configuration q (base excluded)."""
    for idx, (lo, hi) in zip(q, arm.limits):
        if not lo <= idx <= hi:
            raise ValueError(f"joint index {idx} outside limits [{lo}, {hi}]")
    return list(_chain(arm, [idx * arm.resolution for idx in q])[1:])


class ArmDomain(LatticeDomain):
    kind = "arm"

    def __init__(self, arms: list[ArmSpec], obstacles=(), thickness: float = 0.04,
                 substeps: int = 8, cache: bool = True):
        if not 0 <= thickness < math.inf:
            raise ValueError(f"thickness {thickness} must be finite and >= 0")
        if substeps < 1:
            raise ValueError(f"substeps {substeps} must be >= 1")
        super().__init__(cache)
        self.arms = list(arms)
        self.obstacles = list(obstacles)
        # each obstacle as a capsule (end, end, lim) that a link touches when
        # its centre segment comes within lim: a segment with the links'
        # radius, a disc a zero-length one with the links' radius plus its own
        self._capsules = [((ob.ax, ob.ay), (ob.bx, ob.by), thickness) if isinstance(ob, Segment)
                          else ((ob.x, ob.y), (ob.x, ob.y), thickness + ob.r)
                          for ob in self.obstacles]
        self.thickness = thickness
        self.substeps = substeps
        self._fk_cache: dict[tuple[int, Config], tuple[Point, ...]] = {}
        # static clearances: body per (agent, q), kept by every state test,
        # and pair per (i, qi, j, qj), i < j, memoized on first use
        self._body_gaps: dict[tuple[int, Config], float] = {}
        self._pair_gaps: dict[tuple[int, Config, int, Config], float] = {}
        # one reach table per agent pair i < j whose reach discs, grown by the
        # capsule radius, overlap: rows (a, b, lo2) sorted by lo2, a bound on
        # the squared distance of link a of arm i and link b of arm j at any
        # angles (link a stays within links 0..a's length of its base) less a
        # margin for rounding that scales with the coordinates
        self._rows: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
        for (i, arm_i), (j, arm_j) in itertools.combinations(enumerate(self.arms), 2):
            dist = math.dist(arm_i.base, arm_j.base)
            if dist <= arm_i.reach + arm_j.reach + 2.0 * thickness:
                far = math.hypot(*arm_i.base) + math.hypot(*arm_j.base)
                rows = [(a, b, max(dist - ra - rb - 1e-9 * (far + ra + rb), 0.0) ** 2)
                        for a, ra in enumerate(itertools.accumulate(arm_i.link_lengths))
                        for b, rb in enumerate(itertools.accumulate(arm_j.link_lengths))]
                self._rows[i, j] = sorted(rows, key=lambda row: row[2])
        # self-contact rows by chain length: each link against the links past
        # its neighbour, with which it shares a joint; unbounded, never pruned
        self._self_rows = {n + 1: [(a, b, 0.0) for a in range(n) for b in range(a + 2, n)]
                           for n in {len(arm.link_lengths) for arm in self.arms}}

    @property
    def num_agents(self) -> int:
        return len(self.arms)

    # -- kinematics ---------------------------------------------------------

    def _angles(self, agent: int, q: Config) -> list[float]:
        res = self.arms[agent].resolution
        return [idx * res for idx in q]

    def chain(self, agent: int, q: Config) -> tuple[Point, ...]:
        key = (agent, q)
        hit = self._fk_cache.get(key)
        if hit is None:
            hit = _chain(self.arms[agent], self._angles(agent, q))
            self._fk_cache[key] = hit
        return hit

    # -- static geometry ----------------------------------------------------

    def _chains_gap(self, chain_a, chain_b, rows) -> float:
        """Clearance of two link chains, of two arms or of one arm with
        itself, over the link pairs of a reach table: their least distance
        less 2 * thickness, ``_CONTACT`` on contact. The walk stops at the
        first row whose bound reaches the best so far; no later row beats it."""
        r = 2.0 * self.thickness
        r2 = r * r
        best = math.inf
        for a, b, lo2 in rows:
            if lo2 >= best:
                break
            d2 = _seg_seg_dist2(chain_a[a], chain_a[a + 1], chain_b[b], chain_b[b + 1])
            if d2 < best:
                if d2 <= r2:
                    return _CONTACT
                best = d2
        return max(math.sqrt(best) - r, 0.0)

    def _body_gap(self, chain) -> float:
        """Clearance of one arm body: the least of its self-clearance and its
        distance to each obstacle capsule less the capsule's radius;
        ``_CONTACT`` on contact."""
        gap = self._chains_gap(chain, chain, self._self_rows[len(chain)])
        if gap < 0.0:
            return _CONTACT
        for a in range(len(chain) - 1):
            p, q = chain[a], chain[a + 1]
            for u, v, lim in self._capsules:
                d2 = _seg_seg_dist2(p, q, u, v)
                if d2 <= lim * lim:
                    return _CONTACT
                gap = min(gap, math.sqrt(d2) - lim)
        return max(gap, 0.0)

    def _check_state(self, agent: int, q: Config) -> bool:
        if not self.in_bounds(agent, q):
            return False
        self.stats.geometry_checks += 1
        gap = self._body_gap(self.chain(agent, q))
        self._body_gaps[agent, q] = gap
        return gap >= 0.0

    def _sweep_hits(self, moving, gap0: float, arrival, gap_at) -> bool:
        """Conservative advancement over the interior sub-steps k / total of
        the synchronized motion of ``moving``, a sequence of (agent, q, q2)
        triples; total is ``substeps`` times the largest joint step. The
        walk starts past the sub-steps that the departure clearance
        ``gap0`` covers and stops before those that the arrival clearance
        ``arrival()`` covers, read only if the departure leaves any. Each
        evaluated sub-step's clearance ``gap_at(*chains)`` extends the skip.
        True iff an evaluated sub-step is in contact; with no motion the one
        pose is the departure."""
        steps, travel = 0, 0.0
        for agent, q, q2 in moving:
            if q == q2:
                continue
            arm = self.arms[agent]
            res, turn, out = arm.resolution, 0.0, 0.0  # travel bound of this arm
            for length, a, b in zip(arm.link_lengths, q, q2):
                steps = max(steps, abs(b - a))
                turn += b * res - a * res
                out += length * abs(turn)
            travel += out
        if steps == 0:
            return gap0 < 0.0
        total = self.substeps * steps
        per = travel / total
        k = 1 + _reach(gap0, per, total)
        if k >= total:
            return False
        last = total - 1 - _reach(arrival(), per, total)
        if k > last:
            return False
        ends = [(self.arms[agent], self._angles(agent, q), self._angles(agent, q2))
                for agent, q, q2 in moving]
        while k <= last:
            self.stats.geometry_checks += 1
            s = k / total
            gap = gap_at(*[_chain(arm, [a + (b - a) * s for a, b in zip(ta, tb)])
                           for arm, ta, tb in ends])
            if gap < 0.0:
                return True
            k += 1 + _reach(gap, per, total)
        return False

    def _check_edge(self, agent: int, q: Config, q2: Config) -> bool:
        if not (self.is_state_valid(agent, q) and self.is_state_valid(agent, q2)):
            return False
        gaps = self._body_gaps
        return not self._sweep_hits(((agent, q, q2),), gaps[agent, q],
                                    lambda: gaps[agent, q2], self._body_gap)

    # -- agent-agent geometry -------------------------------------------------

    def _pair_gap(self, i: int, qi: Config, j: int, qj: Config) -> float:
        """Static clearance of arms i and j at poses qi and qj, memoized; a
        fill is one geometric test."""
        key = (i, qi, j, qj)
        gap = self._pair_gaps.get(key)
        if gap is None:
            self.stats.geometry_checks += 1
            gap = self._chains_gap(self.chain(i, qi), self.chain(j, qj), self._rows[i, j])
            self._pair_gaps[key] = gap
        return gap

    def _check_pairwise(self, i, qi0, qi1, j, qj0, qj1) -> bool:
        rows = self._rows.get((i, j))  # pairwise_collision orders i < j
        if rows is None:
            return False
        return self._sweep_hits(((i, qi0, qi1), (j, qj0, qj1)),
                                self._pair_gap(i, qi0, j, qj0),
                                lambda: self._pair_gap(i, qi1, j, qj1),
                                lambda ci, cj: self._chains_gap(ci, cj, rows))

    # -- lattice structure ------------------------------------------------------

    def bounds(self, agent: int) -> tuple[tuple[int, int], ...]:
        return self.arms[agent].limits

    def heuristic(self, agent: int, q: Config, goal: Config) -> float:
        """L2 joint-angle distance in radians, normalized by the largest
        single-primitive displacement so the estimate is in timestep units
        and never exceeds the true remaining cost."""
        res = self.arms[agent].resolution
        rad = math.sqrt(sum(((a - b) * res) ** 2 for a, b in zip(q, goal)))
        return rad / res

    def motion_cost_path(self, agent: int, waypoints) -> float:
        """Total joint motion in radians along a waypoint sequence."""
        res = self.arms[agent].resolution
        return sum(abs(a - b) * res
                   for w1, w2 in zip(waypoints, waypoints[1:])
                   for a, b in zip(w1, w2))
