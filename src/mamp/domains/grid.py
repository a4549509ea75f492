"""Four-connected grid world with unit-time moves and waits."""

from __future__ import annotations

from ..core import Config, Path, first_change
from .base import ConflictTable, LatticeDomain


class AvoidanceTable(ConflictTable):
    """A conflict avoidance table (Standley, AAAI 2010) over the held paths:
    a grid move collides with agent j iff it arrives where j arrives, or
    swaps cells with j, so the table counts arrivals per (cell, t) and moves
    per (from, to, t). Rows run from t = 0 to ``span``, the largest duration
    held so far; every held agent is parked by then, so the row at ``span``
    stands for every later time. A path's rows are added and removed alone,
    and a path swapped for another keeps the rows of their shared prefix:
    the span grows, extending the held paths' parked rows, only when a
    longer path comes in, and never shrinks. The table counts conflicts
    from these rows alone (`step_conflicts`): no pair test runs."""

    def __init__(self, pairs=()):
        self.arrivals: dict = {}
        self.moves: dict = {}
        self.span = 0
        super().__init__(pairs)

    def set(self, agent: int, path: Path | None) -> None:
        old = self.path(agent)
        super().set(agent, path)  # rejects a bad call before any row moves
        # rows before the step into the first changed waypoint stay
        lo = 0 if old is None or path is None else max(first_change(old, path) - 1, 0)
        if old is not None:
            self._rows(old, lo, self.span, -1)
        if path is None:
            return
        if path.duration > self.span:
            for j, pj in self:
                if j != agent:
                    self._rows(pj, self.span + 1, path.duration, 1)
            self.span = path.duration
        self._rows(path, lo, self.span, 1)

    def _rows(self, path: Path, lo: int, hi: int, d: int) -> None:
        """Add ``d`` to the rows of ``path`` at times lo .. hi."""
        arrivals, moves = self.arrivals, self.moves
        wps = path.waypoints
        end = len(wps) - 1
        for t in range(lo, hi + 1):
            a, b = wps[min(t, end)], wps[min(t + 1, end)]
            n = arrivals.get((b, t), 0) + d
            if n:
                arrivals[b, t] = n
            else:
                del arrivals[b, t]
            if a != b:
                n = moves.get((a, b, t), 0) + d
                if n:
                    moves[a, b, t] = n
                else:
                    del moves[a, b, t]

    def _copy(self) -> "AvoidanceTable":
        new = super()._copy()
        new.arrivals = dict(self.arrivals)
        new.moves = dict(self.moves)
        return new

    def step_conflicts(self, domain: LatticeDomain, agent: int):
        """The conflict counter read off the rows: the arrivals at the
        target cell plus the moves that swap with this one."""
        arrivals, moves, span = self.arrivals, self.moves, self.span

        def count(q: Config, t: int, q2: Config, first: bool = False) -> int:
            t = min(t, span)
            n = arrivals.get((q2, t), 0)
            if q != q2:
                n += moves.get((q2, q, t), 0)
            return min(n, 1) if first else n
        return count


class GridDomain(LatticeDomain):
    """Agents are points occupying one cell each; '#' cells are blocked.

    Two agents collide when they stand on the same cell (vertex) or exchange
    cells over one timestep (edge). Point agents on distinct 4-connected
    moves cannot meet strictly inside a transition except by swapping.
    """

    kind = "grid"
    Table = AvoidanceTable

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
        return len(q) == len(q2) == 2 and abs(q[0] - q2[0]) + abs(q[1] - q2[1]) <= 1

    def _check_pairwise(self, i, qi0, qi1, j, qj0, qj1) -> bool:
        self.stats.geometry_checks += 1
        if qi0 == qj0 and qi1 == qj1:  # same cell / same sweep
            return True
        return qi0 == qj1 and qi1 == qj0 and qi0 != qi1  # swap

    def heuristic(self, agent: int, q: Config, goal: Config) -> float:
        return abs(q[0] - goal[0]) + abs(q[1] - goal[1])

    def num_vertices(self, agent: int) -> int:
        return super().num_vertices(agent) - len(self.blocked)

    def motion_cost_path(self, agent: int, waypoints) -> float:
        """Motion metric for grids: total moved cell distance (waits free)."""
        return float(sum(abs(a[0] - b[0]) + abs(a[1] - b[1])
                         for a, b in zip(waypoints, waypoints[1:])))
