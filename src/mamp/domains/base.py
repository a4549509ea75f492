"""Shared domain plumbing: the integer lattice, validity caching, geometry
counters, constraint-aware successor expansion and the conflict table. A
domain supplies `bounds`, the `_check_*` geometry, `heuristic` and
`motion_cost_path`, and optionally `_cache_agent` and its own
`ConflictTable` kind (`Table`).

Each per-step question has one answer here. `step_valid` is the static
legality of one timestep (a wait, or a move to a valid configuration along
a valid edge); a table's `step_conflicts` counts the held agents, other
than the asking one, that a step hits. The low level and the shortcutter
ask both; the solution certificate (`certify`) asks `step_valid`.

The fixed paths are one `ConflictTable` per query, kept current one path at
a time and never copied: a replan reads it with its own old path in it.

A domain is immutable after construction except for its counters and its
internal memo tables, which only ever record verdicts that a fresh
computation would reproduce (static environment). With the cache on, the
domain keeps the static state and edge verdicts and, built from them, the
successor table: the valid successor configurations of each (agent, config)
are computed once per domain and then served without re-querying a single
verdict. The tables support concurrent readers with single-writer
insertion; re-inserting an existing key with the same verdict is a no-op.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ..core import Config, ConstraintIndex, Path, step_collides


class ConflictTable:
    """Some agents' fixed paths, held as ``(agent id, Path)`` pairs in
    insertion order; iterating a table yields the pairs. `set` changes one
    agent's path in place, an agent already held keeping its place in the
    order. A table holds no domain. An empty path is a ``ValueError`` that
    changes nothing.

    This kind keeps only the pairs and counts conflicts by pair tests; a
    kind that counts from an index subclasses it (`grid.AvoidanceTable`).
    """

    def __init__(self, pairs=()):
        self._paths: dict[int, Path] = {}
        for agent, path in pairs:
            if agent in self._paths:
                raise ValueError(f"agent {agent} has two paths")
            self.set(agent, path)

    def __iter__(self):
        return iter(self._paths.items())

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, agent: int) -> bool:
        return agent in self._paths

    def path(self, agent: int) -> Path | None:
        return self._paths.get(agent)

    @property
    def last(self) -> int:
        """The largest duration of a held path (0 when empty): every held
        agent is parked from this time on."""
        return max((p.duration for p in self._paths.values()), default=0)

    def set(self, agent: int, path: Path) -> None:
        """In place: ``agent`` holds ``path`` from now on."""
        if not path.waypoints:
            raise ValueError(f"agent {agent} has an empty path")
        self._paths[agent] = path

    def step_conflicts(self, domain: "LatticeDomain", agent: int):
        """Conflict counter of ``agent`` against every other held agent,
        valid until the table next changes.

        The returned ``count(q, t, q2, first=False)`` is the number of those
        agents that the move q -> q2 departing at t collides with under
        ``core.step_collides``, or with ``first`` 1 as soon as one does.
        They stay parked at their last waypoint, so the step list at their
        last step serves every later time. This kind runs the pair tests in
        the table's order; a kind with an index answers from it instead,
        with the same counts.
        """
        others = [(j, p) for j, p in self if j != agent]
        last = max((p.duration for _, p in others), default=0)
        steps = [[(jid, pj.at(t), pj.at(t + 1)) for jid, pj in others]
                 for t in range(last + 1)]

        def count(q: Config, t: int, q2: Config, first: bool = False) -> int:
            n = 0
            for jid, a, b in steps[min(t, last)]:
                if step_collides(domain, agent, q, q2, jid, a, b):
                    if first:
                        return 1
                    n += 1
            return n
        return count


@dataclass
class DomainStats:
    """Counters surfaced to benchmark telemetry.

    ``geometry_checks`` counts elementary geometric evaluations: one static
    test of a single configuration, or one body-body test of a configuration
    pair. A motion counts one test per sub-step evaluated; an arm motion
    test, edge or pair, skips, and does not count, the sub-steps it proves
    clear. Cache and memo hits perform zero geometric tests; an arm domain
    memoizes static pair clearances, so each pair of poses counts once. A successor-table hit makes no state
    or edge query at all, so ``state_queries``, ``edge_queries`` and
    ``cache_hits`` count only the first expansion of each (agent, config).
    """

    geometry_checks: int = 0
    state_queries: int = 0
    edge_queries: int = 0
    pair_queries: int = 0
    cache_hits: int = 0


class LatticeDomain:
    """Base class for concrete state spaces, all of them integer lattices.

    Subclasses provide the coordinate ranges (`bounds`), the raw geometry
    (`_check_*`), `heuristic` and `motion_cost_path`, and may override
    `_cache_agent` and `Table`, the kind of conflict table that counts
    their agents' conflicts. From `bounds` this class states the
    bounds test, the unit moves, the lattice-edge test, the vertex count and
    the degree; on top it layers caching, memoization and counting.
    """

    Table = ConflictTable

    def __init__(self, cache: bool = True):
        self.stats = DomainStats()
        self.cache = cache
        # static verdicts keyed by (cache agent, ...), filled only with cache on
        self._states: dict[tuple, bool] = {}
        self._edges: dict[tuple, bool] = {}
        self._successors: dict[tuple, tuple] = {}
        self._pair_memo: dict[tuple, bool] = {}

    # -- hooks ------------------------------------------------------------

    def _cache_agent(self, agent: int) -> int:
        """Cache partition key; homogeneous-agent domains may collapse it."""
        return agent

    def bounds(self, agent: int) -> tuple[tuple[int, int], ...]:
        """Inclusive (lo, hi) range of each coordinate of ``agent``."""
        raise NotImplementedError

    def _check_state(self, agent: int, q: Config) -> bool:
        raise NotImplementedError

    def _check_edge(self, agent: int, q: Config, q2: Config) -> bool:
        raise NotImplementedError

    def _check_pairwise(self, i: int, qi0: Config, qi1: Config,
                        j: int, qj0: Config, qj1: Config) -> bool:
        raise NotImplementedError

    def heuristic(self, agent: int, q: Config, goal: Config) -> float:
        raise NotImplementedError

    def motion_cost_path(self, agent: int, waypoints) -> float:
        raise NotImplementedError

    # -- lattice -----------------------------------------------------------

    def in_bounds(self, agent: int, q: Config) -> bool:
        bounds = self.bounds(agent)
        for v, (lo, hi) in zip(q, bounds):  # a loop costs half of all() over a genexpr
            if not lo <= v <= hi:
                return False
        return len(q) == len(bounds)

    def _moves(self, agent: int, q: Config) -> list[Config]:
        """Unit moves from an in-range q: each coordinate by +1, then -1,
        within range."""
        out = []
        for k, (lo, hi) in enumerate(self.bounds(agent)):  # a loop beats a comprehension
            v = q[k]
            if v < hi:
                out.append(q[:k] + (v + 1,) + q[k + 1:])
            if v > lo:
                out.append(q[:k] + (v - 1,) + q[k + 1:])
        return out

    def is_lattice_edge(self, agent: int, q: Config, q2: Config) -> bool:
        """A wait or one unit move: configurations of one length at L1
        distance <= 1, in exact integers."""
        return len(q) == len(q2) and sum(map(abs, map(operator.sub, q, q2))) <= 1

    def num_vertices(self, agent: int) -> int:
        return math.prod(hi - lo + 1 for lo, hi in self.bounds(agent))

    def max_degree(self, agent: int) -> int:
        return 2 * len(self.bounds(agent)) + 1

    # -- cached queries ----------------------------------------------------

    def is_state_valid(self, agent: int, q: Config) -> bool:
        self.stats.state_queries += 1
        key = (self._cache_agent(agent), q)
        ok = self._states.get(key)
        if ok is not None:
            self.stats.cache_hits += 1
            return ok
        ok = self._check_state(agent, q)
        if self.cache:
            self._states[key] = ok
        return ok

    def is_edge_valid(self, agent: int, q: Config, q2: Config) -> bool:
        """Static validity of the motion q -> q2, interpolated at the domain's
        declared sub-step density. Symmetric in its endpoints."""
        self.stats.edge_queries += 1
        lo, hi = (q, q2) if q <= q2 else (q2, q)
        key = (self._cache_agent(agent), lo, hi)
        ok = self._edges.get(key)
        if ok is not None:
            self.stats.cache_hits += 1
            return ok
        ok = self._check_edge(agent, lo, hi)
        if self.cache:
            self._edges[key] = ok
        return ok

    def step_valid(self, agent: int, q: Config, q2: Config) -> bool:
        """Static validity of one timestep from the valid configuration q:
        a wait, or a move to a valid q2 along a valid edge. Whether q -> q2
        is a single lattice move is a separate question (`is_lattice_edge`):
        shortcut output may rotate several arm joints in one step."""
        return q == q2 or (self.is_state_valid(agent, q2)
                           and self.is_edge_valid(agent, q, q2))

    def pairwise_collision(self, i: int, qi0: Config, qi1: Config,
                           j: int, qj0: Config, qj1: Config) -> bool:
        """True iff agents i and j collide during one synchronized timestep
        of motion (interior sub-steps; self-loop vs self-loop degenerates to
        the static body-body test)."""
        self.stats.pair_queries += 1
        if i > j:
            i, qi0, qi1, j, qj0, qj1 = j, qj0, qj1, i, qi0, qi1
        key = (i, qi0, qi1, j, qj0, qj1)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        out = self._check_pairwise(i, qi0, qi1, j, qj0, qj1)
        self._pair_memo[key] = out
        return out

    def configs_collide(self, configs) -> bool:
        """True iff two agents' bodies touch while each stands at its entry
        of ``configs`` (tested pair by pair, i < j, in lexicographic order)."""
        return any(self.pairwise_collision(i, configs[i], configs[i],
                                           j, configs[j], configs[j])
                   for i in range(len(configs)) for j in range(i + 1, len(configs)))

    def successor_configs(self, agent: int, q: Config) -> tuple[Config, ...]:
        """Statically valid motion primitives from q, plus the wait move,
        sorted lexicographically for determinism. Served from the successor
        table after the first call while the cache is enabled."""
        key = (self._cache_agent(agent), q)
        out = self._successors.get(key)
        if out is None:
            out = tuple(sorted([q] + [q2 for q2 in self._moves(agent, q)
                                      if self.step_valid(agent, q, q2)]))
            if self.cache:
                self._successors[key] = out
        return out


def get_successors(domain: LatticeDomain, agent: int, state: tuple[Config, int],
                   constraints: ConstraintIndex,
                   horizon: int | None = None) -> list[tuple[Config, int]]:
    """Constraint-aware timed successors of ``state``: every motion primitive
    plus wait, filtered by static validity and by vertex/edge constraints at
    the successor time. Time advances by exactly 1 (each step costs 1)."""
    q, t = state
    if horizon is not None and t + 1 > horizon:
        return []
    configs = domain.successor_configs(agent, q)
    if t > constraints.max_time:  # no constraint binds from here on
        return [(q2, t + 1) for q2 in configs]
    return [(q2, t + 1) for q2 in configs if constraints.allows_move(q, t, q2)]
