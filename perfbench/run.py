"""mamp benchmark: one workload per process, closed loop, one planning query
at a time.

    python3 perfbench/run.py --workload grid-focal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30      # every workload in turn

Each query builds a fresh domain with ``Scene.build_domain()`` and runs
``run_planner`` then ``shortcut_solution`` on it; the timed part is plan
plus shortcut. The first pass runs every query of the workload; later
passes repeat the queries that finished, each pass in an order drawn from
``--seed``, and no pass starts that would end after ``--seconds``. Query
and set-up times are scaled by the host's speed, measured with a fixed
calibration loop around each of them. Every solution is certified
independently (certify.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the first pass runs untraced, the rest traced, and the
last line reports the per-layer metrics. ``--record`` regenerates the
recorded part of design.json (fingerprints, root conflicts, reference
outputs); a run whose workload fingerprint differs from the recorded one
refuses to report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mamp  # noqa: E402
from mamp.bench import solution_motion_cost  # noqa: E402

from certify import certify_query  # noqa: E402
from hostspeed import host_speed  # noqa: E402
from tracing import LayerTotals, Tracer  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402

DESIGN = HERE / "design.json"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # queries beyond the reported tail percentile


def run_query(scene, config, tracer: Tracer | None = None):
    """One planning query on a fresh domain; returns (domain, result,
    shortcut solution or None, seconds of plan plus shortcut)."""
    domain = scene.build_domain()
    shortcut = mamp.shortcut_solution
    if tracer is not None:
        tracer.reset()
        tracer.instrument(domain)
        shortcut = tracer.shortcut
    t0 = time.perf_counter()
    result = mamp.run_planner(domain, scene.starts, scene.goals, config)
    post = shortcut(result.solution, domain)[0] if result.success else None
    return domain, result, post, time.perf_counter() - t0


def output_record(domain, result, post) -> dict:
    """The deterministic outputs of a finished query, formatted as the
    ``mamp-bench`` CSV formats them (``time_s`` excluded)."""
    rec = {"status": result.status, "ct_expansions": result.ct_expansions,
           "ll_expansions": result.ll_expansions,
           "collision_checks": result.collision_checks}
    if result.success:
        rec["cost_steps"] = result.cost
        rec["cost_rad"] = f"{solution_motion_cost(domain, result.solution):.6f}"
        rec["cost_rad_post"] = f"{solution_motion_cost(domain, post):.6f}"
    return rec


def digest(records: dict) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def query_key(kept, planner: str) -> str:
    return f"{kept.seed}:{planner}"


def setup_sample(workload: str) -> float:
    """Seconds from process start to a finished set-up, in a fresh process,
    so that import-time and set-up work both show; scaled by host speed."""
    speed = host_speed()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--workload", workload,
                           "--setup-only"], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up process failed ({proc.returncode})")
    return elapsed * (speed + host_speed()) / 2


def load_design() -> dict:
    with open(DESIGN) as fh:
        return json.load(fh)


class Run:
    """Accumulates one run's samples, certificates and outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.times = defaultdict(list)        # query key -> untraced seconds
        self.solved = defaultdict(list)       # query key -> untraced 1 if certified
        self.traced_times = defaultdict(list)
        self.cost_ratio: dict = {}            # query key -> cost / SIC
        self.attempted = 0
        self.raw_s = 0.0                      # unscaled seconds of all samples
        self.status = defaultdict(lambda: defaultdict(int))  # planner -> status -> n
        self.records: dict = {}
        self.finished = {False: set(), True: set()}  # traced? -> query keys
        self.defects: list[str] = []          # certificate failures and errors
        self.nondeterministic: list[str] = []
        self.layers = LayerTotals()

    def query(self, kept, planner: str, tracer: Tracer | None) -> None:
        key = query_key(kept, planner)
        config = self.wl.planners[planner]
        self.attempted += 1
        certified = False
        speed = host_speed()
        t0 = time.perf_counter()
        try:
            domain, result, post, elapsed = run_query(kept.scene, config, tracer)
        except Exception as exc:  # a crash is a failed query, not a stop
            self.defects.append(f"{key}: {type(exc).__name__}: {exc}")
            self.status[planner]["error"] += 1
            result, elapsed = None, time.perf_counter() - t0
        speed = (speed + host_speed()) / 2
        self.raw_s += elapsed
        # A timeout is a wall-clock budget, so it is not scaled.
        if result is None or result.status != "timeout":
            elapsed *= speed
        if result is not None:
            self.status[planner][result.status] += 1
        if result is not None and result.success:
            bad = certify_query(kept.scene, config, result, post)
            if bad:
                self.defects.append(f"{key}: " + "; ".join(bad[:3]))
                self.status[planner]["uncertified"] += 1
            else:
                certified = True
                self.cost_ratio[key] = result.cost / kept.sic
        if tracer is None:
            self.times[key].append(elapsed)
            self.solved[key].append(1.0 if certified else 0.0)
        else:
            self.traced_times[key].append(elapsed)
        if result is None or result.status == "timeout":
            return
        self.finished[tracer is not None].add(key)
        rec = output_record(domain, result, post)
        if self.records.setdefault(key, rec) != rec:
            self.nondeterministic.append(key)
        if tracer is not None:
            self.layers.add(tracer, domain, elapsed, speed)

    def end_to_end(self, setup: list[float], rss_mb: float) -> tuple[dict, str]:
        """Each query weighs once: its time is the median of its samples and
        its success the share of its samples that were certified."""
        per_query = {k: statistics.median(v) for k, v in self.times.items()}
        share = {k: statistics.fmean(v) for k, v in self.solved.items()}
        ranked = sorted(per_query.values(), reverse=True)
        if len(ranked) <= TAIL_BEYOND:
            raise RuntimeError("too few queries for a tail percentile")
        pct = 100.0 * (len(ranked) - TAIL_BEYOND) / len(ranked)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "query_s_p50": (statistics.median(ranked), "s"),
            "query_s_tail": (ranked[TAIL_BEYOND], "s"),
            "success_rate": (statistics.fmean(share.values()), "ratio"),
            "solved_per_s": (sum(share.values()) / sum(per_query.values()), "1/s"),
            "cost_ratio": (statistics.fmean(self.cost_ratio.values())
                           if self.cost_ratio else float("nan"), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return metrics, (f"query_s_tail is p{pct:.1f} of {len(ranked)} per-query "
                         f"medians ({TAIL_BEYOND} queries beyond it)")

    def overhead(self) -> float:
        both = self.finished[False] & self.finished[True]
        plain = sum(statistics.median(self.times[k]) for k in both)
        traced = sum(statistics.median(self.traced_times[k]) for k in both)
        return traced / plain - 1.0 if plain else float("nan")


def build(name: str, trace: bool):
    """The workload and, when tracing, the scene-layer times of its set-up
    (scaled by host speed)."""
    if not trace:
        return build_workload(name), {}
    tr = Tracer()
    original = mamp.Scene.build_domain
    mamp.Scene.build_domain = tr.wrap("build_domain", "scene", original)
    speed = host_speed()
    try:
        wl = build_workload(name, tr.wrap("generate_scene", "scene", mamp.generate_scene),
                            tr.wrap("parse_scene", "scene", mamp.parse_scene))
    finally:
        mamp.Scene.build_domain = original
    speed = (speed + host_speed()) / 2
    return wl, {f"scene.{short}_s": (tr.time[span] * speed, "s") for short, span in
                (("generate", "generate_scene"), ("parse", "parse_scene"),
                 ("build", "build_domain"))}


def measure(args) -> int:
    wl, scene_metrics = build(args.workload, args.trace == 1)
    recorded = load_design()["workloads"][wl.name]["recorded"]
    fp = wl.fingerprint()
    if fp != recorded["fingerprint"]:
        print(f"refusing to report: workload fingerprint {fp} differs from the "
              f"recorded {recorded['fingerprint']}; the inputs changed "
              f"(re-record with --record only in a benchmark change)",
              file=sys.stderr)
        return 3

    run = Run(wl)
    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace == 1 else None
    setup_wanted = SETUP_SAMPLES if tracer is None else 0
    setup: list[float] = []
    queries = wl.queries
    # The first pass runs the queries that finished when the workload was
    # recorded before the rest, so that peak memory can be read before any
    # query that may time out (and grow as far as the host's speed lets it).
    # Later passes repeat only the queries that finished in the first: a
    # timed-out query would just take the timeout again. Set-up samples are
    # spread over the run so that they meet the same host phases as queries.
    pending = [[q for q in queries if query_key(*q) in recorded["outputs"]],
               [q for q in queries if query_key(*q) not in recorded["outputs"]]]
    passes, busy, rss = 0, 0.0, None
    with ExitStack() as stack:
        while pending:
            traced = tracer is not None and passes > 0
            if traced and passes == 1:
                stack.enter_context(tracer.installed())
            t_pass = time.perf_counter()
            for batch in pending:
                for kept, planner in rng.sample(batch, len(batch)):
                    gc.collect()
                    run.query(kept, planner, tracer if traced else None)
                if rss is None:
                    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            last = time.perf_counter() - t_pass
            busy += last
            passes += 1
            if passes == 1:
                repeat = [q for q in queries if query_key(*q) in run.finished[False]]
                pending = [repeat] if repeat else []
                last = sum(run.times[query_key(*q)][0] for q in repeat)
            if len(setup) < setup_wanted:
                setup.append(setup_sample(wl.name))
            if tracer is not None and passes < 2:
                continue
            if busy + last > args.seconds:
                break
    setup += [setup_sample(wl.name) for _ in range(setup_wanted - len(setup))]

    reference = recorded["outputs"]
    same = sum(1 for k, r in run.records.items() if reference.get(k) == r)
    differ = sorted(k for k, r in run.records.items() if k in reference and reference[k] != r)
    correct = not run.defects and not run.nondeterministic and not wl.defects

    print(f"workload {wl.name}: {len(wl.scenes)} scenes kept, {len(wl.skipped)} seeds "
          f"skipped, {len(queries)} queries, {len(run.finished[False])} repeated, {passes} passes "
          f"in {busy:.1f} s ({run.raw_s:.1f} s timed, unscaled), "
          f"timeout {wl.timeout} s, seed {args.seed}, trace {args.trace}")
    print(f"fingerprint {fp} (matches design.json)")
    certified = sum(sum(v) for v in run.solved.values())
    print(f"certificates: {certified:.0f} untraced solutions certified of "
          f"{run.attempted} attempted queries, "
          f"{len(run.defects)} failed" + "".join(f"\n  FAILED {d}" for d in run.defects))
    for d in wl.defects:
        print(f"  ROOT-FILTER DEFECT {d}")
    if run.nondeterministic:
        print(f"  NONDETERMINISTIC outputs: {', '.join(sorted(set(run.nondeterministic)))}")
    print(f"outputs: {len(run.records)} finished queries, digest {digest(run.records)}; "
          f"{same} match the recorded reference, {len(differ)} differ"
          + (f" ({', '.join(differ)})" if differ else ""))
    for planner, counts in run.status.items():
        print(f"  {planner:6s} " + ", ".join(f"{s} {n}" for s, n in sorted(counts.items())))

    if tracer is None:
        metrics, note = run.end_to_end(setup, rss)
        print(note)
    else:
        metrics = dict(run.layers.metrics())
        metrics.update(scene_metrics)
        metrics["trace.overhead"] = (run.overhead(), "ratio")
        print(f"per-layer metrics over {run.layers.finished} finished traced queries; "
              f"trace.overhead compares them with the untraced first pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.defects),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}, allow_nan=False))
    return 0


def record() -> int:
    """Rewrite the recorded part of design.json: one untimed pass per
    workload, keeping the outputs of the queries that finish."""
    design = load_design()
    for name in WORKLOADS:
        wl = build_workload(name)
        if wl.defects:
            raise RuntimeError(f"{name}: root filter disagrees with A*: {wl.defects}")
        run = Run(wl)
        for kept, planner in wl.queries:
            run.query(kept, planner, None)
        if run.defects or run.nondeterministic:
            raise RuntimeError(f"{name}: {run.defects} {run.nondeterministic}")
        spec = WORKLOADS[name]
        design["workloads"][name]["recorded"] = {
            "fingerprint": wl.fingerprint(),
            "generator": {"kind": wl.kind, **wl.params,
                          "seeds": [spec["seeds"][0], spec["seeds"][-1]]},
            "planners": {p: repr(cfg) for p, cfg in wl.planners.items()},
            "timeout_s": wl.timeout,
            "kept": {str(s.seed): {"root_conflicts": s.root_conflicts, "sic": s.sic}
                     for s in wl.scenes},
            "skipped_seeds": list(wl.skipped),
            "queries": len(wl.queries),
            "outputs_digest": digest(run.records),
            "outputs": dict(sorted(run.records.items())),
        }
        print(f"{name}: {len(wl.scenes)} kept, {len(wl.skipped)} skipped, "
              f"{len(run.records)}/{len(wl.queries)} finished", flush=True)
    with open(DESIGN, "w") as fh:
        json.dump(design, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true",
                   help="regenerate the recorded part of design.json")
    args = p.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.setup_only:
        print(f"ready {build_workload(args.workload).fingerprint()}", flush=True)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
