"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each layer where the caller
looks them up: module attributes for from-imported names, the class for
``CTQueue.pop`` and the domain instance for domain methods (including the
``_check_*`` hooks, which the base class calls through ``self``). Every
wrapped call is a span; instead of storing spans, which would run to
millions per query, each span adds its duration and count to per-query
accumulators, and its duration minus that of its wrapped children to its
layer's self time. The benchmark merges a query's accumulators into the run
totals only when the query finished, because the work a timed-out query did
depends on speed.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import mamp
import mamp.highlevel as highlevel
import mamp.lowlevel as lowlevel
import mamp.postprocess as postprocess

DOMAIN_METHODS = ("successor_configs", "is_state_valid", "is_edge_valid",
                  "pairwise_collision", "_check_state", "_check_edge",
                  "_check_pairwise")


class Tracer:
    """Span accumulators for the query in progress."""

    def __init__(self):
        self.calls: Counter = Counter()             # span name -> count
        self.time: defaultdict = defaultdict(float)  # span name -> seconds
        self.self_time: defaultdict = defaultdict(float)  # layer -> seconds
        self.events: Counter = Counter()            # counts read off results
        self._stack = [["query", 0.0]]              # [span name, child time]

    def reset(self) -> None:
        self.calls.clear()
        self.time.clear()
        self.self_time.clear()
        self.events.clear()
        self._stack[:] = [["query", 0.0]]

    def wrap(self, name: str, layer: str, fn, on_return=None):
        stack, clock = self._stack, time.perf_counter
        calls, spent, self_time = self.calls, self.time, self.self_time

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                calls[name] += 1
                spent[name] += dt
                self_time[layer] += dt - frame[1]
            if on_return is not None:
                on_return(parent[0], out)
            return out
        return traced

    # -- result hooks ----------------------------------------------------------

    def _on_solve(self, caller: str, res) -> None:
        self.events["ll_expansions"] += res.expansions
        if caller == "expand_ct_node":
            self.events["replans"] += 1
            if not res.success:
                self.events["failed_replans"] += 1

    def _on_detect(self, caller: str, conflicts) -> None:
        if caller == "plan":  # plan scans the whole solution only at the root
            self.events["root_conflicts"] += len(conflicts)

    def _on_shortcut(self, caller: str, out) -> None:
        report = out[1]
        self.events["shortcut_attempted"] += report.attempted
        self.events["shortcut_accepted"] += report.accepted

    # -- installation ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block."""
        patches = [
            (highlevel, "plan", "highlevel", None),
            (highlevel, "plan_prioritized", "highlevel", None),
            (highlevel, "expand_ct_node", "highlevel", None),
            (highlevel, "detect_conflicts", "core", self._on_detect),
            (highlevel, "conflicts_with_agent", "core", None),
            (postprocess, "detect_conflicts", "core", None),
            (lowlevel, "solve", "lowlevel", self._on_solve),
            (lowlevel, "get_successors", "domains", None),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in patches]
        saved.append((highlevel.CTQueue, "pop", highlevel.CTQueue.pop))
        try:
            for obj, attr, layer, hook in patches:
                setattr(obj, attr, self.wrap(attr, layer, getattr(obj, attr), hook))
            highlevel.CTQueue.pop = self.wrap("CTQueue.pop", "highlevel",
                                              highlevel.CTQueue.pop)
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def instrument(self, domain) -> None:
        """Wrap a fresh domain's methods on the instance."""
        for attr in DOMAIN_METHODS:
            setattr(domain, attr, self.wrap(attr, "domains", getattr(domain, attr)))

    def shortcut(self, solution, domain):
        """``mamp.shortcut_solution`` as a postprocess span."""
        return self.wrap("shortcut_solution", "postprocess",
                         mamp.shortcut_solution, self._on_shortcut)(solution, domain)


class LayerTotals:
    """Run totals of the per-layer metrics over finished queries."""

    def __init__(self):
        self.finished = 0
        self.plans = 0
        self.query_s = 0.0
        self.sums: Counter = Counter()

    def add(self, tr: Tracer, domain, query_s: float, speed: float) -> None:
        """Merge a finished query; ``speed`` scales its span times as the
        query time was scaled."""
        s, c, e = self.sums, tr.calls, tr.events
        t = defaultdict(float, {name: dt * speed for name, dt in tr.time.items()})
        own = {layer: dt * speed for layer, dt in tr.self_time.items()}
        self.finished += 1
        self.plans += c["plan"]
        self.query_s += query_s
        s["ct_expansions"] += c["expand_ct_node"]
        s["ct_s"] += t["expand_ct_node"]
        s["ct_pop_s"] += t["CTQueue.pop"]
        s["highlevel_self_s"] += own.get("highlevel", 0.0)
        s["lowlevel_self_s"] += own.get("lowlevel", 0.0)
        s["solves"] += c["solve"]
        s["conflict_scans"] += c["detect_conflicts"] + c["conflicts_with_agent"]
        s["conflict_s"] += t["detect_conflicts"] + t["conflicts_with_agent"]
        s["successor_s"] += t["get_successors"]
        s["pair_s"] += t["pairwise_collision"]
        s["narrow_s"] += t["_check_pairwise"]
        s["narrow_calls"] += c["_check_pairwise"]
        s["shortcut_s"] += t["shortcut_solution"]
        s.update(e)
        st = domain.stats
        s["state_queries"] += st.state_queries
        s["edge_queries"] += st.edge_queries
        s["pair_queries"] += st.pair_queries
        s["geometry_checks"] += st.geometry_checks
        s["cache_hits"] += st.cache_hits

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``<layer>.<metric>`` -> (value, unit); counts and times are per
        finished query unless the name says otherwise."""
        s, n = self.sums, max(self.finished, 1)

        def ratio(a, b):
            return a / b if b else 0.0
        return {
            "highlevel.ct_expansions": (s["ct_expansions"] / n, "count"),
            "highlevel.ct_active_share": (ratio(s["ct_s"], self.query_s), "ratio"),
            "highlevel.root_conflicts": (ratio(s["root_conflicts"], self.plans), "count"),
            "highlevel.failed_replans": (s["failed_replans"] / n, "count"),
            "highlevel.self_s": (s["highlevel_self_s"] / n, "s"),
            "highlevel.ct_pop_s": (s["ct_pop_s"] / n, "s"),
            "lowlevel.solves": (s["solves"] / n, "count"),
            "lowlevel.expansions": (s["ll_expansions"] / n, "count"),
            "lowlevel.expansions_per_solve": (ratio(s["ll_expansions"], s["solves"]), "count"),
            "lowlevel.self_s": (s["lowlevel_self_s"] / n, "s"),
            "domains.state_queries": (s["state_queries"] / n, "count"),
            "domains.edge_queries": (s["edge_queries"] / n, "count"),
            "domains.pair_queries": (s["pair_queries"] / n, "count"),
            "domains.geometry_checks": (s["geometry_checks"] / n, "count"),
            "domains.cache_hit_rate": (ratio(s["cache_hits"], s["state_queries"]
                                             + s["edge_queries"]), "ratio"),
            "domains.pair_memo_hit_rate": (1.0 - ratio(s["narrow_calls"],
                                                       s["pair_queries"]), "ratio"),
            "domains.successor_s": (s["successor_s"] / n, "s"),
            "domains.pair_s": (s["pair_s"] / n, "s"),
            "domains.narrow_s": (s["narrow_s"] / n, "s"),
            "core.conflict_scans": (s["conflict_scans"] / n, "count"),
            "core.conflict_s": (s["conflict_s"] / n, "s"),
            "postprocess.shortcut_s": (s["shortcut_s"] / n, "s"),
            "postprocess.accept_rate": (ratio(s["shortcut_accepted"],
                                              s["shortcut_attempted"]), "ratio"),
        }
