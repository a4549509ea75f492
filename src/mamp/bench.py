"""Experiment matrix runner: scene generation, planner execution, CSV
metrics and per-run path dumps.

One CSV row per (planner, trial). Given the same spec and seed the CSV is
byte-identical across runs except for the wall-time column. Planning time
is measured around the planning call only; shortcutting runs afterwards and
contributes only the post-shortcut cost column.
"""

from __future__ import annotations

import csv
import inspect
import io
import math
import os
import random
import statistics
from collections import deque
from dataclasses import dataclass, replace

from .core import Path, Solution
from .domains import ArmSpec, Segment
from .domains.arm import MAX_COORD
from .highlevel import PlannerConfig, certify, run_planner
from .postprocess import shortcut_solution
from .scene import Scene, SceneError, parse_scene, quantize, serialize_scene

CSV_HEADER = ("scene", "planner", "trial", "success", "time_s", "cost_steps",
              "cost_rad", "ct_expansions", "ll_expansions", "collision_checks",
              "cost_rad_post")

GENERATOR_KINDS = ("circle-arms", "corridor-grid", "shelf-lite")
SAMPLE_RETRIES = 60  # scene draws a generator tries before giving up


def default_paper_params(timeout: float = 60.0) -> dict[str, PlannerConfig]:
    """The stock planner matrix: optimal CBS, the weighted variants at
    heuristic inflation 50 with 1.3 focal bounds, and prioritized planning."""
    mk = PlannerConfig.make
    return {
        "cbs": mk("cbs", timeout=timeout),
        "xcbs": mk("xcbs", w1L=50.0, timeout=timeout),
        "ecbs": mk("ecbs", w1L=50.0, w2L=1.3, wH=1.3, timeout=timeout),
        "xecbs": mk("xecbs", w1L=50.0, w2L=1.3, wH=1.3, timeout=timeout),
        "pp": mk("pp", w1L=50.0, timeout=timeout),
    }


@dataclass
class MetricsRow:
    scene: str
    planner: str
    trial: int
    success: bool
    time_s: float
    cost_steps: int | None = None
    cost_rad: float | None = None
    ct_expansions: int | None = None
    ll_expansions: int | None = None
    collision_checks: int | None = None
    cost_rad_post: float | None = None

    def csv_fields(self) -> list[str]:
        if not self.success:
            # failure rows carry no cost fields
            return [self.scene, self.planner, str(self.trial), "false",
                    f"{self.time_s:.3f}", "", "", "", "", "", ""]
        return [self.scene, self.planner, str(self.trial), "true",
                f"{self.time_s:.3f}", str(self.cost_steps),
                f"{self.cost_rad:.6f}", str(self.ct_expansions),
                str(self.ll_expansions), str(self.collision_checks),
                f"{self.cost_rad_post:.6f}"]


@dataclass
class ExperimentSpec:
    planners: list[tuple[str, PlannerConfig]]
    trials: int = 1
    seed: int = 0
    out: str | None = None
    dump_dir: str | None = None
    cache: bool = True
    scene_text: str | None = None
    scene_name: str = "scene"
    generate: str | None = None    # e.g. "circle-arms:n=2,obstacle=auto"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        for name, cfg in self.planners:
            if not cfg.timeout > 0:
                raise ValueError(f"planner {name}: timeout must be positive")
        if (self.scene_text is None) == (self.generate is None):
            raise ValueError("exactly one of scene_text / generate is required")
        if self.out and os.path.isdir(self.out):
            raise ValueError(f"out {self.out!r} is a directory")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError(f"out {self.out!r}: no directory {os.path.dirname(self.out)!r}")
        if self.dump_dir and os.path.exists(self.dump_dir) and not os.path.isdir(self.dump_dir):
            raise ValueError(f"dump_dir {self.dump_dir!r} is not a directory")


# ---------------------------------------------------------------------------
# scene generation


def _grid_reachable(rows: list[str], start, goal) -> bool:
    width, height = len(rows[0]), len(rows)
    seen = {start}
    frontier = deque([start])
    while frontier:
        x, y = frontier.popleft()
        if (x, y) == goal:
            return True
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height and rows[ny][nx] == "." \
                    and (nx, ny) not in seen:
                seen.add((nx, ny))
                frontier.append((nx, ny))
    return False


def _corridor_grid(rng: random.Random, n: int, width: int, height: int,
                   obstacle_p: float) -> Scene:
    for _ in range(SAMPLE_RETRIES):
        rows = ["".join("#" if rng.random() < obstacle_p else "."
                        for _ in range(width)) for _ in range(height)]
        free = [(x, y) for y in range(height) for x in range(width)
                if rows[y][x] == "."]
        if len(free) < 2 * n:
            continue
        picks = rng.sample(free, 2 * n)
        starts, goals = picks[:n], picks[n:]
        if all(_grid_reachable(rows, s, g) for s, g in zip(starts, goals)):
            return Scene("grid", rows=tuple(rows), starts=tuple(starts),
                         goals=tuple(goals))
    raise SceneError("could not sample a feasible corridor-grid scene")


def _sample_arm_config(rng: random.Random, domain, agent: int, center_idx: int,
                       spread: int, retries: int):
    limits = domain.arms[agent].limits
    for _ in range(retries):
        q = [0] * len(limits)
        q[0] = max(limits[0][0], min(limits[0][1],
                                     center_idx + rng.randint(-spread, spread)))
        for k in range(1, len(limits)):
            lo, hi = limits[k]
            q[k] = max(lo, min(hi, rng.randint(-spread, spread)))
        q = tuple(q)
        if domain.is_state_valid(agent, q):
            return q
    return None


def _valid_walk(rng: random.Random, domain, agent: int, start, length: int,
                attract, bias: float = 0.65):
    """Random walk over statically valid lattice edges; the walk itself is
    the feasibility certificate for the sampled goal. The walk drifts toward
    postures whose tip is near the ``attract`` point."""
    cur = start
    for _ in range(length):
        moves = [q for q in domain.successor_configs(agent, cur) if q != cur]
        if not moves:
            break
        if rng.random() < bias:
            cur = min(moves, key=lambda q: (math.dist(domain.chain(agent, q)[-1],
                                                      attract), q))
        else:
            cur = rng.choice(moves)
    return cur


def _sample_goal(rng: random.Random, domain, agent: int, start, walk: int,
                 attract) -> tuple:
    """Walk endpoints, keeping the first far-enough one (else the farthest)."""
    want = max(4, walk // 2)
    best = start
    best_d = 0
    for _ in range(8):
        cand = _valid_walk(rng, domain, agent, start, walk, attract)
        d = sum(abs(a - b) for a, b in zip(cand, start))
        if d >= want:
            return cand
        if d > best_d:
            best, best_d = cand, d
    return best


def _arm_scene(rng: random.Random, bases, obstacles, links: int,
               link_length: float, resolution: float, thickness: float,
               walk: int, attract_for, facing_for=None) -> Scene:
    limit = 16
    arms = tuple(ArmSpec(base, (quantize(link_length),) * links,
                         quantize(resolution), ((-limit, limit),) * links)
                 for base in bases)
    scene = Scene("arm", arms=arms, obstacles=tuple(obstacles),
                  thickness=quantize(thickness), substeps=8)
    domain = scene.build_domain()
    for _ in range(SAMPLE_RETRIES):
        starts, goals = [], []
        ok = True
        for agent, base in enumerate(bases):
            facing = facing_for(agent) if facing_for \
                else math.atan2(-base[1], -base[0])
            center = int(round(facing / resolution))
            center = max(-limit, min(limit, center))
            start = _sample_arm_config(rng, domain, agent, center, 3, 50)
            if start is None:
                ok = False
                break
            goal = _sample_goal(rng, domain, agent, start, walk, attract_for(agent))
            if goal == start:
                ok = False
                break
            starts.append(start)
            goals.append(goal)
        if ok and not (domain.configs_collide(starts)
                       or domain.configs_collide(goals)):
            return replace(scene, starts=tuple(starts), goals=tuple(goals))
    raise SceneError("could not sample a feasible arm scene")


def _circle_arms(rng: random.Random, n: int, obstacle, links: int,
                 link_length: float, resolution: float, thickness: float,
                 radius: float | None, walk: int) -> Scene:
    if radius is None:
        # keep neighbor spacing roughly constant as the circle fills up
        radius = max(1.0, 0.35 * n)
    bases = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n
        bases.append((quantize(radius * math.cos(ang)),
                      quantize(radius * math.sin(ang))))
    if obstacle is None or obstacle == "auto":
        obstacle = n >= 6
    obstacles = [Segment(0.0, quantize(-0.25 * radius),
                         0.0, quantize(0.25 * radius))] if obstacle else []
    # Attract goal tips toward the rim of the shared region (halfway to the
    # circle center): transient crossings, not permanent center occupation.
    return _arm_scene(rng, bases, obstacles, links, link_length,
                      resolution, thickness, walk,
                      attract_for=lambda agent: (bases[agent][0] * 0.45,
                                                 bases[agent][1] * 0.45))


def _shelf_lite(rng: random.Random, n: int, links: int, link_length: float,
                resolution: float, thickness: float, walk: int) -> Scene:
    spacing = 0.9
    bases = [(quantize((k - (n - 1) / 2.0) * spacing), 0.0) for k in range(n)]
    wall_y = quantize(links * link_length * 0.85)
    slot_half = 0.2
    obstacles = []
    left_edge = bases[0][0] - spacing
    for k in range(n + 1):
        seg_a = quantize(left_edge if k == 0 else bases[k - 1][0] + slot_half)
        seg_b = quantize(bases[-1][0] + spacing if k == n else bases[k][0] - slot_half)
        if seg_b > seg_a:
            obstacles.append(Segment(seg_a, wall_y, seg_b, wall_y))
    slots = [(bx, wall_y) for bx, _ in bases]
    return _arm_scene(rng, bases, obstacles, links, link_length,
                      resolution, thickness, walk,
                      attract_for=lambda agent: slots[(agent + 1) % n],
                      facing_for=lambda agent: math.pi / 2)  # toward the wall


def generate_scene(kind: str, n: int = 2, seed: int = 0, obstacle=None,
                   links: int = 3, link_length: float = 0.4,
                   resolution: float = math.pi / 16, thickness: float = 0.04,
                   radius: float | None = None, walk: int = 10, width: int = 8,
                   height: int = 8, obstacle_p: float = 0.18) -> str:
    """Deterministic scene document for the given generator kind and seed."""
    for name, value in (("n", n), ("links", links), ("walk", walk),
                        ("width", width), ("height", height)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError("resolution must be positive and finite")
    if not (thickness >= 0 and math.isfinite(thickness)):
        raise ValueError("thickness must be finite and >= 0")
    if not 0 < link_length <= MAX_COORD:
        raise ValueError(f"link_length must be in (0, {MAX_COORD:g}]")
    if radius is not None and not 0 <= radius <= MAX_COORD:
        raise ValueError(f"radius must be in [0, {MAX_COORD:g}]")
    if not 0 <= obstacle_p <= 1:
        raise ValueError("obstacle_p must be in [0, 1]")
    rng = random.Random(seed)
    if kind == "circle-arms":
        scene = _circle_arms(rng, n, obstacle, links, link_length, resolution,
                             thickness, radius, walk)
    elif kind == "corridor-grid":
        scene = _corridor_grid(rng, n, width, height, obstacle_p)
    elif kind == "shelf-lite":
        scene = _shelf_lite(rng, n, links, link_length, resolution, thickness, walk)
    else:
        raise ValueError(f"unknown scene kind {kind!r}; expected one of "
                         f"{', '.join(GENERATOR_KINDS)}")
    return serialize_scene(scene)


_GENERATOR_KEYS = frozenset(inspect.signature(generate_scene).parameters) - {"kind"}
_OBSTACLE_VALUES = {"auto": "auto", "true": True, "yes": True, "1": True,
                    "false": False, "no": False, "0": False}


def parse_generate_spec(spec: str) -> tuple[str, dict]:
    """Parse 'kind:key=value,key=value' CLI shorthand; every key must be a
    keyword of `generate_scene`, given at most once."""
    kind, _, rest = spec.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not _ or not key:
                raise ValueError(f"bad generator parameter {item!r}")
            key = key.strip()
            value = value.strip()
            if key not in _GENERATOR_KEYS:
                raise ValueError(f"unknown generator parameter {key!r}")
            if key in params:
                raise ValueError(f"generator parameter {key!r} given twice")
            if key == "obstacle":
                if value not in _OBSTACLE_VALUES:
                    raise ValueError(f"obstacle must be one of "
                                     f"{', '.join(_OBSTACLE_VALUES)}, not {value!r}")
                params[key] = _OBSTACLE_VALUES[value]
            else:
                convert = float if key in ("link_length", "resolution", "thickness",
                                           "radius", "obstacle_p") else int
                try:
                    params[key] = convert(value)
                except ValueError:
                    raise ValueError(f"bad {convert.__name__} value {value!r} "
                                     f"for {key}") from None
    return kind, params


# ---------------------------------------------------------------------------
# running


def solution_motion_cost(domain, solution: Solution) -> float:
    return sum(domain.motion_cost_path(i, p.waypoints)
               for i, p in enumerate(solution.paths))


def dump_solution(scene_id: str, planner: str, trial: int,
                  config: PlannerConfig, result, post_cost: float) -> str:
    lines = [f"scene {scene_id}", f"planner {planner}", f"trial {trial}",
             f"cost_steps {result.cost}",
             f"lb {result.lb if result.lb is not None else '-'}",
             f"w1l {config.w1L} w2l {config.w2L} wh {config.wH}",
             f"cost_rad_post {post_cost:.9f}"]
    for i, path in enumerate(result.solution.paths):
        lines.append(f"path {i}")
        for t, q in enumerate(path.waypoints):
            lines.append(f"{t} " + " ".join(str(v) for v in q))
        lines.append("endpath")
    return "\n".join(lines) + "\n"


_DUMP_HEADER = ("scene", "planner", "trial", "cost_steps", "lb", "w1l",
                "cost_rad_post")


def revalidate_dump(scene_text: str, dump_text: str) -> tuple[bool, str]:
    """Re-check a dumped solution from its serialized form alone: parse it,
    then `certify` it against the scene with the stored cost and the
    w1L*w2L*wH bound of the stored lower bound. A well-formed dump has each
    header line at most once and outside a path (``cost_steps`` required,
    the weights line exactly ``w1l A w2l B wh C``), and paths ``path 0``,
    ``path 1``, ... each closed by ``endpath``, whose waypoint lines start
    with their own index. Anything else yields (False, "malformed dump: ...")."""
    scene = parse_scene(scene_text)
    paths: list[Path] = []
    header: dict[str, list[str]] = {}
    current: list | None = None

    def value(key, convert, default="0"):  # a header line's one value
        args = header.get(key, [default])
        if len(args) != 1:
            raise ValueError(f"{key!r} takes one value, not {len(args)}")
        return convert(args[0])
    try:
        for line in dump_text.splitlines():
            parts = line.split()
            if not parts:
                continue
            key, args = parts[0], parts[1:]
            if current is not None:
                if parts == ["endpath"]:
                    paths.append(Path(tuple(current)))
                    current = None
                elif key == str(len(current)):
                    current.append(tuple(int(v) for v in args))
                else:
                    raise ValueError(f"{line!r} in path {len(paths)}")
            elif key == "path":
                if args != [str(len(paths))]:
                    raise ValueError(f"{line!r} where 'path {len(paths)}' is due")
                current = []
            elif key in header:
                raise ValueError(f"second {key!r} line")
            elif key in _DUMP_HEADER:
                header[key] = args
            else:
                raise ValueError(f"unexpected line {line!r}")
        if current is not None:
            raise ValueError(f"path {len(paths)} has no 'endpath'")
        if "cost_steps" not in header:
            raise ValueError("no 'cost_steps' line")
        cost_steps = value("cost_steps", int)
        value("trial", int)
        value("cost_rad_post", float)
        lb = value("lb", lambda v: None if v == "-" else float(v), "-")
        weights = header.get("w1l", ["1", "w2l", "1", "wh", "1"])
        if len(weights) != 5 or weights[1::2] != ["w2l", "wh"]:
            raise ValueError(f"bad weights line 'w1l {' '.join(weights)}'")
        factor = math.prod(map(float, weights[::2]))
        if not math.isfinite(factor) or (lb is not None and not math.isfinite(lb)):
            raise ValueError(f"non-finite bound: lb {lb}, weights {factor}")
    except ValueError as exc:
        return False, f"malformed dump: {exc}"
    return certify(scene.build_domain(), scene.starts, scene.goals,
                   Solution(tuple(paths)), cost=cost_steps,
                   bound=None if lb is None else factor * lb)


def _scene_for_trial(spec: ExperimentSpec, trial: int) -> tuple[str, str]:
    if spec.scene_text is not None:
        return spec.scene_name, spec.scene_text
    kind, params = parse_generate_spec(spec.generate)
    params.setdefault("seed", spec.seed * 100003 + trial)
    text = generate_scene(kind, **params)
    return f"{kind}-n{params.get('n', 2)}-t{trial}", text


def run_experiments(spec: ExperimentSpec, log=print) -> list[MetricsRow]:
    rows: list[MetricsRow] = []
    dumps: list[tuple[str, str]] = []
    for trial in range(spec.trials):
        scene_id, text = _scene_for_trial(spec, trial)
        scene = parse_scene(text, name=scene_id)
        scene.validate()
        for name, cfg in spec.planners:
            domain = scene.build_domain(cache=spec.cache)
            result = run_planner(domain, scene.starts, scene.goals, cfg)
            if not result.success:
                rows.append(MetricsRow(scene_id, name, trial, False,
                                       result.wall_time))
                continue
            shortcut, _report = shortcut_solution(result.solution, domain)
            post_cost = solution_motion_cost(domain, shortcut)
            rows.append(MetricsRow(
                scene_id, name, trial, True, result.wall_time,
                cost_steps=result.cost,
                cost_rad=solution_motion_cost(domain, result.solution),
                ct_expansions=result.ct_expansions,
                ll_expansions=result.ll_expansions,
                collision_checks=result.collision_checks,
                cost_rad_post=post_cost))
            if spec.dump_dir:
                dumps.append((f"{scene_id}__{name}__{trial}.paths",
                              dump_solution(scene_id, name, trial, cfg,
                                            result, post_cost)))
    if spec.out:
        with open(spec.out, "w", newline="") as fh:
            _write_csv(fh, rows)
    if spec.dump_dir:
        os.makedirs(spec.dump_dir, exist_ok=True)
        for fname, content in dumps:
            with open(os.path.join(spec.dump_dir, fname), "w") as fh:
                fh.write(content)
    log(summarize(rows))
    return rows


def _write_csv(fh, rows: list[MetricsRow]) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_fields())


def rows_to_csv(rows: list[MetricsRow]) -> str:
    buf = io.StringIO()
    _write_csv(buf, rows)
    return buf.getvalue()


def _mean_std(values: list[float]) -> str:
    if not values:
        return "-"
    mean = statistics.mean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return f"{mean:.3f} +/- {std:.3f}"


def summarize(rows: list[MetricsRow]) -> str:
    planners = []
    for r in rows:
        if r.planner not in planners:
            planners.append(r.planner)
    out = ["summary (mean +/- stdev over successful trials):"]
    for p in planners:
        mine = [r for r in rows if r.planner == p]
        wins = [r for r in mine if r.success]
        rate = 100.0 * len(wins) / len(mine) if mine else 0.0
        out.append(
            f"  {p:8s} success {len(wins)}/{len(mine)} ({rate:.0f}%)"
            f"  time {_mean_std([r.time_s for r in wins])} s"
            f"  cost_steps {_mean_std([float(r.cost_steps) for r in wins])}"
            f"  cost_rad {_mean_std([r.cost_rad for r in wins])}"
            f"  checks {_mean_std([float(r.collision_checks) for r in wins])}")
    if len(planners) > 1:
        out.append("pairwise planning-time ratio, median over mutually-successful"
                   " trials (row / column):")
        for a in planners:
            cells = []
            for b in planners:
                if a == b:
                    cells.append("   -  ")
                    continue
                ra = {(r.scene, r.trial): r.time_s for r in rows
                      if r.planner == a and r.success}
                rb = {(r.scene, r.trial): r.time_s for r in rows
                      if r.planner == b and r.success}
                shared = sorted(set(ra) & set(rb))
                if not shared:
                    cells.append("  n/a ")
                else:
                    ratios = [ra[k] / rb[k] if rb[k] > 0 else math.inf
                              for k in shared]
                    cells.append(f"{statistics.median(ratios):6.2f}")
            out.append(f"  {a:8s} " + " ".join(cells))
    return "\n".join(out)
