"""Four-connected grid world with unit-time moves and waits."""

from __future__ import annotations

from ..core import Config
from .base import LatticeDomain


class GridDomain(LatticeDomain):
    """Agents are points occupying one cell each; '#' cells are blocked.

    Two agents collide when they stand on the same cell (vertex) or exchange
    cells over one timestep (edge). Point agents on distinct 4-connected
    moves cannot meet strictly inside a transition except by swapping.
    """

    kind = "grid"

    def __init__(self, width: int, height: int, blocked=(), cache: bool = True):
        super().__init__(cache)
        self.width = width
        self.height = height
        self._bounds = ((0, width - 1), (0, height - 1))
        # only in-bounds cells, so that each one removes a vertex
        self.blocked = frozenset(b for b in map(tuple, blocked) if self.in_bounds(0, b))

    def _cache_agent(self, agent: int) -> int:
        return 0  # all agents share one body model

    def bounds(self, agent: int) -> tuple[tuple[int, int], ...]:
        return self._bounds

    def _check_state(self, agent: int, q: Config) -> bool:
        self.stats.geometry_checks += 1
        return self.in_bounds(agent, q) and q not in self.blocked

    def _check_edge(self, agent: int, q: Config, q2: Config) -> bool:
        return (self.is_lattice_edge(agent, q, q2) and self.is_state_valid(agent, q)
                and self.is_state_valid(agent, q2))

    def is_lattice_edge(self, agent: int, q: Config, q2: Config) -> bool:
        # the base rule unrolled for two coordinates: the experience walk
        # asks it thousands of times per query, at a fifth of the cost
        return abs(q[0] - q2[0]) + abs(q[1] - q2[1]) <= 1

    def _check_pairwise(self, i, qi0, qi1, j, qj0, qj1) -> bool:
        self.stats.geometry_checks += 1
        if qi0 == qj0 and qi1 == qj1:  # same cell / same sweep
            return True
        return qi0 == qj1 and qi1 == qj0 and qi0 != qi1  # swap

    def step_conflicts(self, agent: int, others):
        """The conflict counter as a conflict avoidance table (Standley,
        AAAI 2010): a move collides with agent j iff it arrives where j
        arrives, or swaps cells with j. So the count is read off two
        tables, arrivals per (cell, t) and moves per (from, to, t), whose
        rows at the last path end stand for every later time; no pair test
        runs."""
        last = max((p.duration for _, p in others), default=0)
        arrivals: dict = {}
        moves: dict = {}
        for _, pj in others:
            for t in range(last + 1):
                a, b = pj.at(t), pj.at(t + 1)
                arrivals[b, t] = arrivals.get((b, t), 0) + 1
                if a != b:
                    moves[a, b, t] = moves.get((a, b, t), 0) + 1

        def count(q: Config, t: int, q2: Config, first: bool = False) -> int:
            t = min(t, last)
            n = arrivals.get((q2, t), 0)
            if q != q2:
                n += moves.get((q2, q, t), 0)
            return min(n, 1) if first else n
        return count

    def heuristic(self, agent: int, q: Config, goal: Config) -> float:
        return abs(q[0] - goal[0]) + abs(q[1] - goal[1])

    def num_vertices(self, agent: int) -> int:
        return super().num_vertices(agent) - len(self.blocked)

    def motion_cost_path(self, agent: int, waypoints) -> float:
        """Motion metric for grids: total moved cell distance (waits free)."""
        return float(sum(abs(a[0] - b[0]) + abs(a[1] - b[1])
                         for a, b in zip(waypoints, waypoints[1:])))
