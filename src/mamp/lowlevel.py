"""Single-agent planner over timed lattice states.

A focal weighted-A* search: OPEN is ordered by f1 = g + w1*h and FOCAL is
the sub-queue {s : f1(s) <= w2 * min f1} ordered by f2. `FocalQueue` is
the one OPEN/FOCAL implementation of the package: the constraint-tree
search reuses it with its own keys (`highlevel.CTQueue`). A previously found
path can be passed in as a time-stripped *experience*; its still-valid
suffixes are injected into OPEN so the search can jump over regions it
already explored in an earlier query. With an empty experience the search
is exactly plain focal / weighted A*.

Conflict counts are lazy. A relaxed state takes its parent's count as a
lower bound (a step adds a count >= 0) and is settled, by summing the
counter along its parent chain, only when it enters FOCAL, and it enters
FOCAL only at a pop whose bound covers it. Outside FOCAL a state is
ordered by f1 alone, so every key FOCAL compares is exact and the pop
order is the eager order. In the timed lattice g = t, so a state is
generated once, with its final g and parent, and inserted once: it is never
re-keyed or reopened.

Tie-breaking (fixed for reproducibility): OPEN prefers larger g, then the
lexicographically smallest state; FOCAL in conflict mode prefers fewer
conflicts, then f1, then the smallest state. A solver instance owns its
queues and is single-threaded; distinct instances may run concurrently
against a read-only domain.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

from .core import Config, ConstraintIndex, Constraint, Path
from .domains.base import ConflictTable, LatticeDomain, get_successors

State = tuple[Config, int]
INF = math.inf
TMAX = 128  # cap on the |V| term of the default horizon


@dataclass(frozen=True)
class LLParams:
    w1: float = 1.0
    w2: float = 1.0
    f2: str = "f1"                 # "f1" | "conflicts"
    horizon: int | None = None     # None: latest constraint time + min(|V|, TMAX)

    def __post_init__(self):
        if not (1.0 <= self.w1 < INF and 1.0 <= self.w2 < INF):
            raise ValueError("suboptimality factors must be >= 1 and finite")
        if self.f2 not in ("f1", "conflicts"):
            raise ValueError(f"f2 must be 'f1' or 'conflicts', got {self.f2!r}")
        if self.horizon is not None and not self.horizon >= 0:
            raise ValueError("horizon must be >= 0")


@dataclass(frozen=True)
class LowLevelResult:
    path: Path | None
    cost: int | None
    lower_bound: float             # min of uninflated g+h over goal and remaining OPEN
    expansions: int
    collision_checks: int
    status: str                    # success | exhausted | start-constrained | timeout
    trace: list[State] | None = None

    @property
    def success(self) -> bool:
        return self.status == "success"


class SearchNode:
    __slots__ = ("state", "g", "h", "f1", "cc", "settled", "parent", "in_open")

    def __init__(self, state: State, h: float, g: int, f1: float,
                 parent: SearchNode | None = None):
        self.state = state
        self.g = g
        self.h = h
        self.f1 = f1
        self.cc = 0
        self.settled = True        # False while cc is a lower bound
        self.parent = parent
        self.in_open = False


class FocalQueue:
    """OPEN/FOCAL queue with lazy-deletion heaps, shared by both search
    levels (the constraint tree subclasses it as ``highlevel.CTQueue``).

    Three heaps: OPEN holds every open node, ordered by f1; FOCAL holds the
    admitted nodes, ordered by f2; pending holds the open nodes not in
    FOCAL, ordered by their membership value. An insert puts a node on OPEN
    and pending; only a pop admits to FOCAL. A pop reads ``base``, the min
    f1, off OPEN, admits every pending node whose value is within
    ``w2 * base`` and demotes FOCAL nodes that a shrunken bound no longer
    covers, so focal membership holds exactly at every extraction. If
    nothing is within the bound (possible only when the value exceeds f1, as
    a CT node's cost can exceed its LB), a second pass admits at the
    cheapest pending value when w2 > 1; otherwise the min-f1 node is taken.
    A subclass supplies its own keys through ``_keys``. Both search levels
    insert a node once and never re-key it, so an entry is stale only when
    its node has closed; every key ends in the state or the CT index, so
    keys never tie and entries need no tiebreaker.

    With a ``cc_fn``, a node's conflict count ``cc`` may be a lower bound
    (``settled`` false) while the node waits in pending, whose order reads
    only the value. Admission to FOCAL settles the node and re-reads its
    FOCAL key, so FOCAL orders exact keys only, and a node is counted only
    once a pop's bound covers it or a descendant's admission settles the
    parent chain.

    When ``_keys`` gives the OPEN key itself as the FOCAL key (the value
    being the key's first entry), FOCAL's least key is OPEN's least key at
    any w2: values are never negative, so the least-key node is within
    ``w2 * base``. Such a queue, told by its keys, keeps OPEN alone and pops
    it directly, in the same order and with the same ``base``.
    """

    def __init__(self, w1: float = 1.0, w2: float = 1.0, f2: str = "f1",
                 h_fn: Callable[[State], float] = lambda s: 0.0,
                 cc_fn: Optional[Callable[[State, State], int]] = None):
        self.w1 = w1
        self.w2 = w2
        self.f2 = f2
        self.h_fn = h_fn
        self.cc_fn = cc_fn
        self.nodes: dict[State, SearchNode] = {}
        self.base: float | None = None  # min f1 at the last extraction
        self._open: list = []
        self._pending: list = []
        self._focal: list = []
        self._plain = False  # FOCAL is OPEN: pop reads OPEN alone

    def _keys(self, n):
        """(OPEN key, membership value, FOCAL key) of a node; the low
        level's: f1 = g + w1*h is also the value, f2 is f1 (the OPEN key
        itself) or the conflicts."""
        key = (n.f1, -n.g, n.state)
        if self.f2 == "conflicts":
            return key, n.f1, (n.cc, n.f1, n.state)
        return key, n.f1, key

    # Heap entries are flat tuples: OPEN's are key + (node,), FOCAL's
    # f2_key + (node, value) and pending's (value, f2_key, node), so that
    # moving a node between the two swaps the keys without recomputing them
    # (apart from the FOCAL key of a count settled on admission).

    def insert(self, n) -> None:
        n.in_open = True
        f1_key, value, f2_key = self._keys(n)
        heappush(self._open, f1_key + (n,))
        if f2_key is f1_key:  # FOCAL is OPEN
            self._plain = True
        else:
            heappush(self._pending, (value, f2_key, n))

    def _pop_focal(self, bound: float):
        pending, focal = self._pending, self._focal
        while pending:
            value, f2_key, node = pending[0]
            if node.in_open and value > bound:
                break
            heappop(pending)
            if node.in_open:
                if self.cc_fn is not None:
                    if not node.settled:
                        self._settle(node)
                    if f2_key[0] != node.cc:  # the count leads the key; a walk may have settled it
                        f2_key = self._keys(node)[2]
                heappush(focal, f2_key + (node, value))
        while focal:
            entry = heappop(focal)
            node, value = entry[-2], entry[-1]
            if not node.in_open:
                continue
            if value <= bound:
                return node
            heappush(pending, (value, entry[:-2], node))  # bound shrank
        return None

    def _settle(self, node) -> None:
        """Make an unsettled ``node.cc`` exact: from its first settled
        ancestor, add the counter step by step down the parent chain,
        settling each node on it (an ancestor still in pending, such as an
        experience-walk state, may be unsettled)."""
        parent = node.parent
        if parent.settled:  # one step, as for every child of a popped node
            node.cc = parent.cc + self.cc_fn(parent.state, node.state)
            node.settled = True
            return
        chain = []
        while not node.settled:
            chain.append(node)
            node = node.parent
        cc = node.cc
        for n in reversed(chain):
            cc += self.cc_fn(n.parent.state, n.state)
            n.cc = cc
            n.settled = True

    def pop(self):
        """Extract the min-f2 open node within the focal bound, recording the
        min f1 at extraction in ``base``; None when nothing is open."""
        open_ = self._open
        if self._plain:
            if not open_:
                return None
            top = heappop(open_)
            self.base = top[0]
            node = top[-1]
            node.in_open = False
            return node
        while open_:
            top = open_[0]
            if top[-1].in_open:
                break
            heappop(open_)
        else:
            return None
        self.base = top[0]
        node = self._pop_focal(self.w2 * self.base)
        if node is None:
            node = self._pop_focal(self._pending[0][0]) if self.w2 > 1.0 \
                else heappop(open_)[-1]
        node.in_open = False
        return node

    def push_root(self, state: State) -> SearchNode:
        h = self.h_fn(state)
        n = self.nodes[state] = SearchNode(state, h, 0, self.w1 * h)
        self.insert(n)
        return n

    def lower_bound_remaining(self) -> float:
        live = [n.g + n.h for n in self.nodes.values() if n.in_open]
        return min(live) if live else INF


def try_insert_or_update(queue: FocalQueue, parent: SearchNode,
                         state: State) -> bool:
    """Generate ``state`` as a child of ``parent`` with g = parent.g + 1 and
    insert it. A known state, open or closed, is left alone: in the timed
    lattice its first generation already had the least g. Returns True iff
    the state was new."""
    if state in queue.nodes:
        return False
    h, g = queue.h_fn(state), parent.g + 1
    node = queue.nodes[state] = SearchNode(state, h, g, g + queue.w1 * h, parent)
    if queue.cc_fn is not None:
        node.cc = parent.cc  # a lower bound until the node is settled
        node.settled = False
    queue.insert(node)
    return True


def suffix(experience: Sequence[Config], q: Config) -> tuple[Config, ...]:
    """Experience configurations strictly after the earliest occurrence of q;
    empty when q is absent or last."""
    try:
        k = experience.index(q)
    except ValueError:
        return ()
    return tuple(experience[k + 1:])


def push_partial_experience(queue: FocalQueue, experience: Sequence[Config],
                            node: SearchNode,
                            move_ok: Callable[[Config, int, Config], bool]) -> None:
    """Walk the experience suffix after ``node``'s configuration, assigning
    times t0+1, t0+2, ... and relaxing each state, until a step fails
    ``move_ok``. The walk cursor follows the walked state also when it was
    already known."""
    q0, t0 = node.state
    cur = node
    for q in suffix(experience, q0):
        if not move_ok(q0, t0, q):
            break
        try_insert_or_update(queue, cur, (q, t0 + 1))
        cur = queue.nodes[(q, t0 + 1)]
        q0, t0 = q, t0 + 1


def solve(domain: LatticeDomain, agent: int, start: Config, goal: Config,
          constraints: Sequence[Constraint] | ConstraintIndex = (),
          experience: Sequence[Config] = (), params: LLParams = LLParams(),
          other_paths: Sequence[tuple[int, Path]] | ConflictTable | None = None,
          hard_paths: bool = False,
          deadline: float | None = None,
          record_trace: bool = False) -> LowLevelResult:
    """Plan a constraint-respecting path from start to goal.

    ``experience`` is one time-stripped configuration sequence (in the
    constraint tree, the path being replaced). ``other_paths`` are the
    remaining agents' committed paths, as ``(agent id, Path)`` pairs or a
    `ConflictTable`; they feed the conflict-count focal priority, stop the
    experience walk at a step that hits one of them, and with
    ``hard_paths`` (prioritized planning) filter successors and goal
    acceptance. A table may also hold ``agent``, whose path is never
    counted; pairs naming ``agent``, or one agent twice, are a ``ValueError``.
    Failure to reach the goal within the horizon is reported in the result
    status, not raised.
    """
    start, goal = tuple(start), tuple(goal)
    if not domain.is_state_valid(agent, start) or not domain.is_state_valid(agent, goal):
        raise ValueError("invalid endpoint")
    cidx = constraints if isinstance(constraints, ConstraintIndex) \
        else ConstraintIndex(constraints, agent)

    horizon = params.horizon
    if horizon is None:
        horizon = max(0, cidx.max_time + 1) + min(domain.num_vertices(agent), TMAX)
    elif horizon < cidx.max_time + 1:
        raise ValueError("horizon below constraint range")

    others = other_paths if isinstance(other_paths, ConflictTable) \
        else domain.Table(other_paths or ())
    if others is not other_paths and agent in others:  # a table may hold it
        raise ValueError(f"other_paths names agent {agent} itself")
    # every other agent is parked from here on (the agent's own old path
    # may be longer, and would stretch the parked sums)
    last = max((p.duration for j, p in others if j != agent), default=0)
    checks_before = domain.stats.geometry_checks
    # other agents that the move q -> q2 departing at t collides with
    hits = others.step_conflicts(domain, agent)

    cc_fn = None
    if params.f2 == "conflicts" and len(others) > (agent in others):
        # Conflicts accrued while parked at the goal are charged to goal
        # states up front, otherwise the tree resolves them one timestep at
        # a time. parked[k] = conflicts over [last + 1 - k, end) against
        # the others' sweeps and arrivals while this agent sits on its goal,
        # extended downward from last + 1 only as far as a settled goal
        # arrival needs.
        parked: list[int] = []

        def cc_fn(s1: State, s2: State) -> int:
            q, t = s1
            q2 = s2[0]
            n = hits(q, t, q2)
            if q2 == goal:
                k = last - min(t, last)
                while len(parked) <= k:
                    parked.append((parked[-1] if parked else 0)
                                  + hits(goal, last + 1 - len(parked), goal))
                n += parked[k]
            return n

    def walk_ok(q: Config, t: int, q2: Config) -> bool:
        # the experience walk stops at a step the search could not take
        # (a lattice edge joins configurations of one length), or one that
        # hits another agent, if given
        return (t + 1 <= horizon and cidx.allows_move(q, t, q2)
                and domain.is_lattice_edge(agent, q, q2)
                and domain.step_valid(agent, q, q2)
                and not hits(q, t, q2, first=True))

    def parked_clear(t: int) -> bool:
        # Parking at the goal from t on must hit nobody. The position at t
        # was checked by the hard filter when (goal, t) was generated (at
        # t = 0, by plan_prioritized's start-pair test), and the others stay
        # parked from their path ends on, so steps t .. last - 1 remain.
        return not any(hits(goal, s, goal, first=True) for s in range(t, last))

    h = functools.cache(lambda q: domain.heuristic(agent, q, goal))  # per solve
    queue = FocalQueue(params.w1, params.w2, params.f2, h_fn=lambda s: h(s[0]),
                       cc_fn=cc_fn)
    nodes = queue.nodes
    expansions = 0
    trace: list[State] | None = [] if record_trace else None

    def fail(status: str) -> LowLevelResult:
        return LowLevelResult(None, None, queue.lower_bound_remaining(), expansions,
                              domain.stats.geometry_checks - checks_before, status, trace)

    if not cidx.allows_state(start, 0):
        return fail("start-constrained")

    root = queue.push_root((start, 0))
    experience = tuple(tuple(c) for c in experience)
    members = frozenset(experience)
    push_partial_experience(queue, experience, root, walk_ok)

    while True:
        if deadline is not None and expansions % 64 == 0 and time.monotonic() > deadline:
            return fail("timeout")
        node = queue.pop()
        if node is None:
            return fail("exhausted")
        expansions += 1
        if trace is not None:
            trace.append(node.state)
        q, t = node.state
        if q == goal and cidx.no_future_constraints(q, t) and \
                (not hard_paths or parked_clear(t)):
            waypoints = []
            cur: SearchNode | None = node
            while cur is not None:
                waypoints.append(cur.state[0])
                cur = cur.parent
            waypoints.reverse()
            lb = min(float(node.g), queue.lower_bound_remaining())
            return LowLevelResult(Path(tuple(waypoints)), node.g, lb, expansions,
                                  domain.stats.geometry_checks - checks_before,
                                  "success", trace)
        if q in members:
            push_partial_experience(queue, experience, node, walk_ok)
        for s2 in get_successors(domain, agent, node.state, cidx, horizon):
            if hard_paths and hits(q, t, s2[0], first=True):
                continue
            if s2 not in nodes:
                try_insert_or_update(queue, node, s2)
