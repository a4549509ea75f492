"""Core vocabulary for multi-agent lattice planning.

Configurations are integer lattice points (grid cells or joint-index
vectors); a path is a sequence of configurations indexed by unit timesteps.
Constraints and conflicts are the currency exchanged between the
constraint-tree search and the single-agent planners.

All types in this module are immutable value objects; all operations are
pure functions, so everything here is safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

Config = tuple[int, ...]

VERTEX = "vertex"
EDGE = "edge"


class PairwiseChecker(Protocol):
    """The one domain capability conflict detection needs."""

    def pairwise_collision(self, i: int, qi0: Config, qi1: Config,
                           j: int, qj0: Config, qj1: Config) -> bool:
        """True iff the two agents' bodies touch while agent ``i`` moves
        qi0->qi1 and agent ``j`` moves qj0->qj1 over one synchronized
        timestep (self-loop moves express standing still)."""
        ...


@dataclass(frozen=True)
class Constraint:
    """Prohibition on a single agent.

    A vertex constraint forbids occupying ``config`` at ``time``; an edge
    constraint forbids the directed move ``config -> to_config`` departing
    at ``time``.
    """

    agent: int
    kind: str
    config: Config
    to_config: Config | None
    time: int

    @staticmethod
    def vertex(agent: int, config: Sequence[int], time: int) -> "Constraint":
        return Constraint(agent, VERTEX, tuple(config), None, time)

    @staticmethod
    def edge(agent: int, config: Sequence[int], to_config: Sequence[int],
             time: int) -> "Constraint":
        return Constraint(agent, EDGE, tuple(config), tuple(to_config), time)


@dataclass(frozen=True)
class Conflict:
    """A collision between two agents.

    ``moves`` holds one (from, to) configuration pair per involved agent;
    vertex conflicts use from == to. Edge conflicts happen strictly inside
    the transition ``time -> time + 1``.
    """

    kind: str
    agents: tuple[int, int]
    time: int
    moves: tuple[tuple[Config, Config], tuple[Config, Config]]

    def sort_key(self):
        # Deterministic global order: time, agent pair, vertex before edge.
        return (self.time, self.agents, 0 if self.kind == VERTEX else 1)


@dataclass(frozen=True)
class Path:
    """Timed path: waypoint ``t`` is the configuration at timestep ``t``."""

    waypoints: tuple[Config, ...]

    def __len__(self) -> int:
        return len(self.waypoints)

    @property
    def duration(self) -> int:
        return len(self.waypoints) - 1

    @property
    def end(self) -> Config:
        return self.waypoints[-1]

    def at(self, t: int) -> Config:
        """Configuration at timestep t; agents park at their final waypoint."""
        if t >= len(self.waypoints):
            return self.waypoints[-1]
        return self.waypoints[t]


@dataclass(frozen=True)
class Solution:
    paths: tuple[Path, ...]

    @property
    def sum_of_costs(self) -> int:
        return sum(path_cost(p) for p in self.paths)


def path_cost(path: Path) -> int:
    """Cost of a path in timestep units.

    Every move or wait before the final arrival at the terminal waypoint
    costs 1; waits after the final arrival cost 0.
    """
    wp = path.waypoints
    if not wp:
        raise ValueError("empty path")
    last = wp[-1]
    t = len(wp) - 1
    while t > 0 and wp[t - 1] == last:
        t -= 1
    return t


def first_change(old: Path, new: Path) -> int:
    """The first timestep at which two paths' waypoints differ, capped at
    the shorter path's last index; before it their waypoints agree."""
    wo, wn = old.waypoints, new.waypoints
    cap = min(len(wo), len(wn)) - 1
    return next((t for t in range(cap) if wo[t] != wn[t]), cap)


def step_collides(domain: PairwiseChecker, i: int, qi0: Config, qi1: Config,
                  j: int, qj0: Config, qj1: Config) -> bool:
    """The per-timestep collision rule: agents i and j collide over one step
    iff their arrival configurations touch or, when either agent moves,
    their sweeps do. The arrival test runs first."""
    return domain.pairwise_collision(i, qi1, qi1, j, qj1, qj1) or (
        (qi0 != qi1 or qj0 != qj1)
        and domain.pairwise_collision(i, qi0, qi1, j, qj0, qj1))


def _pair_conflicts(paths: Sequence[Path], domain: PairwiseChecker,
                    i: int, j: int, since: int = 0) -> list[Conflict]:
    """Conflicts of agents i and j that arrive at timestep ``since`` or
    later: vertex conflicts at t >= since and edge conflicts into such t."""
    wi, wj = paths[i].waypoints, paths[j].waypoints
    n = max(len(wi), len(wj))  # the later path end, then both are parked
    wi += wi[-1:] * (n - len(wi))
    wj += wj[-1:] * (n - len(wj))
    qi, qj = wi[max(since - 1, 0)], wj[max(since - 1, 0)]
    found = []
    for t in range(since, n):
        qi2, qj2 = wi[t], wj[t]
        if domain.pairwise_collision(i, qi2, qi2, j, qj2, qj2):
            found.append(Conflict(VERTEX, (i, j), t, ((qi2, qi2), (qj2, qj2))))
        if (qi2 != qi or qj2 != qj) and domain.pairwise_collision(i, qi, qi2, j, qj, qj2):
            found.append(Conflict(EDGE, (i, j), t - 1, ((qi, qi2), (qj, qj2))))
        qi, qj = qi2, qj2
    return found


def detect_conflicts(paths: Sequence[Path], domain: PairwiseChecker) -> list[Conflict]:
    """Every vertex and edge conflict across all agent pairs.

    Shorter paths are treated as parked at their final configuration. Each
    pair is scanned up to the later of its two path ends (beyond that both
    agents are static, so nothing new can appear). The result is ordered by
    (time, agent pair, vertex-before-edge) and is empty iff the solution is
    valid.
    """
    for p in paths:
        if not len(p):
            raise ValueError("empty path")
    out: list[Conflict] = []
    for i, j in itertools.combinations(range(len(paths)), 2):
        out.extend(_pair_conflicts(paths, domain, i, j))
    out.sort(key=Conflict.sort_key)
    return out


def conflicts_with_agent(paths: Sequence[Path], domain: PairwiseChecker,
                         agent: int, since: int) -> list[Conflict]:
    """Conflicts of the pairs involving ``agent`` only that arrive at
    timestep ``since`` or later (an edge conflict at t arrives at t + 1),
    for incremental recomputation after a single-agent replan that kept the
    agent's waypoints before ``since``."""
    out: list[Conflict] = []
    for j in range(len(paths)):
        if j == agent:
            continue
        i, k = min(agent, j), max(agent, j)
        out.extend(_pair_conflicts(paths, domain, i, k, since))
    return out


def conflict_to_constraints(c: Conflict) -> tuple[Constraint, Constraint]:
    """Split a conflict into one constraint per involved agent.

    Each constraint prohibits only that agent's own participating vertex or
    edge at the conflict time, so no conflict-free solution can violate
    both (violating both re-creates the collision).
    """
    i, j = c.agents
    (qi0, qi1), (qj0, qj1) = c.moves
    if c.kind == VERTEX:
        return (Constraint.vertex(i, qi0, c.time),
                Constraint.vertex(j, qj0, c.time))
    return (Constraint.edge(i, qi0, qi1, c.time),
            Constraint.edge(j, qj0, qj1, c.time))


def violates(path: Path, c: Constraint) -> bool:
    """True iff a (goal-parked) path breaks the given constraint."""
    if c.kind == VERTEX:
        return path.at(c.time) == c.config
    return path.at(c.time) == c.config and path.at(c.time + 1) == c.to_config


class ConstraintIndex:
    """Fast lookups over one agent's constraint set."""

    __slots__ = ("vertices", "edges", "max_time", "_last_vertex", "_last_wait")

    def __init__(self, constraints: Iterable[Constraint], agent: int | None = None):
        self.vertices: set[tuple[Config, int]] = set()
        self.edges: set[tuple[Config, Config, int]] = set()
        self.max_time = -1
        self._last_vertex: dict[Config, int] = {}
        self._last_wait: dict[Config, int] = {}
        for c in constraints:
            if agent is not None and c.agent != agent:
                continue
            self.max_time = max(self.max_time, c.time)
            if c.kind == VERTEX:
                self.vertices.add((c.config, c.time))
                if c.time > self._last_vertex.get(c.config, -1):
                    self._last_vertex[c.config] = c.time
            else:
                self.edges.add((c.config, c.to_config, c.time))
                if c.config == c.to_config and c.time > self._last_wait.get(c.config, -1):
                    self._last_wait[c.config] = c.time

    def allows_state(self, q: Config, t: int) -> bool:
        return (q, t) not in self.vertices

    def allows_move(self, q: Config, t: int, q2: Config) -> bool:
        """True iff departing q at time t and arriving at q2 at t+1 violates
        neither an edge constraint at t nor a vertex constraint at t+1."""
        return (q, q2, t) not in self.edges and (q2, t + 1) not in self.vertices

    def no_future_constraints(self, q: Config, t: int) -> bool:
        """True iff an agent may park at q from time t onwards: no vertex
        constraint at q after t and no wait-edge constraint at q at or
        after t."""
        return self._last_vertex.get(q, -1) <= t and self._last_wait.get(q, -1) < t
