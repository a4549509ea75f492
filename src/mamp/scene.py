"""Textual scene documents.

Line-oriented; '#' starts a comment outside the map block; lattice
coordinates are integers and geometry numbers are decimals with up to nine
fractional digits (the serializer quantizes, so serialize->parse round-trips
byte-exactly).

Grid scenes::

    domain grid
    map
    .....
    ..#..
    endmap
    agent start 0 0 goal 4 1

Arm scenes::

    domain arm
    thickness 0.05
    substeps 8
    obstacle segment 0.0 -0.2 0.0 0.2
    obstacle disc 1.2 0.4 0.15
    arm base -1.0 0.0 links 0.4 0.4 resolution 0.196349541 limits -16 16 -16 16
    agent start 0 0 goal 8 -3

Arm descriptors and agent lines pair up by order; map row r holds the cells
with y = r. ``domain``, ``map``, ``thickness`` and ``substeps`` may each be
given once, and a scene may use only its own domain's keywords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Config
from .domains import ArmDomain, ArmSpec, Disc, GridDomain, Segment


class SceneError(ValueError):
    pass


_ONCE = {"domain", "map", "thickness", "substeps"}
_FOREIGN = {"grid": {"thickness", "substeps", "obstacle", "arm"}, "arm": {"map"}}


def format_decimal(x: float) -> str:
    """Canonical decimal with at most nine fractional digits."""
    s = f"{x:.9f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


def _decimal(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"decimal {token!r} is not finite")
    return x


def quantize(x: float) -> float:
    """Snap a float onto the serializable 9-fractional-digit lattice."""
    return float(f"{x:.9f}")


@dataclass(frozen=True)
class Scene:
    kind: str
    name: str = "scene"
    rows: tuple[str, ...] = ()
    arms: tuple[ArmSpec, ...] = ()
    obstacles: tuple = ()
    thickness: float = 0.04
    substeps: int = 8
    starts: tuple[Config, ...] = ()
    goals: tuple[Config, ...] = ()

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def height(self) -> int:
        return len(self.rows)

    def build_domain(self, cache: bool = True):
        if self.kind == "grid":
            blocked = [(x, y) for y, row in enumerate(self.rows)
                       for x, ch in enumerate(row) if ch == "#"]
            return GridDomain(self.width, self.height, blocked, cache=cache)
        return ArmDomain(list(self.arms), list(self.obstacles),
                         thickness=self.thickness, substeps=self.substeps,
                         cache=cache)

    def validate(self) -> None:
        domain = self.build_domain()
        for i, (s, g) in enumerate(zip(self.starts, self.goals)):
            if not domain.is_state_valid(i, s):
                raise SceneError(f"agent {i}: invalid start {s}")
            if not domain.is_state_valid(i, g):
                raise SceneError(f"agent {i}: invalid goal {g}")


def _parse_arm(parts: list[str], ln: int) -> ArmSpec:
    keywords = {"base", "links", "resolution", "limits"}
    fields: dict[str, list[str]] = {}
    i = 1
    while i < len(parts):
        key = parts[i]
        if key not in keywords:
            raise SceneError(f"line {ln}: unexpected token {key!r} in arm descriptor")
        if key in fields:
            raise SceneError(f"line {ln}: arm keyword {key!r} given twice")
        i += 1
        vals = []
        while i < len(parts) and parts[i] not in keywords:
            vals.append(parts[i])
            i += 1
        fields[key] = vals
    try:
        bx, by = (_decimal(v) for v in fields["base"])
        links = tuple(_decimal(v) for v in fields["links"])
        (resolution,) = (_decimal(v) for v in fields["resolution"])
        raw_limits = [int(v) for v in fields["limits"]]
    except (KeyError, ValueError) as exc:
        raise SceneError(f"line {ln}: bad arm descriptor ({exc})") from None
    if len(raw_limits) != 2 * len(links):
        raise SceneError(f"line {ln}: limits must give one lo/hi pair per link")
    return ArmSpec((bx, by), links, resolution, tuple(zip(raw_limits[::2], raw_limits[1::2])))


def parse_scene(text: str, name: str = "scene") -> Scene:
    kind = None
    rows: list[str] = []
    arms: list[ArmSpec] = []
    obstacles: list = []
    starts: list[Config] = []
    goals: list[Config] = []
    thickness, substeps = 0.04, 8
    in_map = False
    first_line: dict[str, int] = {}  # keyword -> line it first appears on
    for ln, raw in enumerate(text.splitlines(), 1):
        if in_map:
            if raw.strip() == "endmap":
                in_map = False
                continue
            row = raw.strip()
            if not set(row) <= {".", "#"} or not row:
                raise SceneError(f"line {ln}: map rows may only contain '.' and '#'")
            rows.append(row)
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kw = parts[0]
        if kw in _ONCE and kw in first_line:
            raise SceneError(f"line {ln}: {kw!r} given twice")
        first_line.setdefault(kw, ln)
        try:
            if kw == "domain":
                kind = parts[1]
                if kind not in ("grid", "arm"):
                    raise SceneError(f"line {ln}: unknown domain {kind!r}")
            elif kw == "map":
                in_map = True
            elif kw == "thickness":
                thickness = _decimal(parts[1])
                if thickness < 0:
                    raise SceneError(f"line {ln}: thickness must be >= 0")
            elif kw == "substeps":
                substeps = int(parts[1])
                if substeps < 1:
                    raise SceneError(f"line {ln}: substeps must be >= 1")
            elif kw == "obstacle":
                shape = parts[1]
                nums = [_decimal(v) for v in parts[2:]]
                if shape == "segment" and len(nums) == 4:
                    obstacles.append(Segment(*nums))
                elif shape == "disc" and len(nums) == 3:
                    obstacles.append(Disc(*nums))
                else:
                    raise SceneError(f"line {ln}: obstacle must be 'segment x1 y1 x2 y2'"
                                     " or 'disc x y r'")
            elif kw == "arm":
                arms.append(_parse_arm(parts, ln))
            elif kw == "agent":
                if "start" not in parts or "goal" not in parts:
                    raise SceneError(f"line {ln}: agent line needs 'start' and 'goal'")
                si = parts.index("start")
                gi = parts.index("goal")
                starts.append(tuple(int(v) for v in parts[si + 1:gi]))
                goals.append(tuple(int(v) for v in parts[gi + 1:]))
            else:
                raise SceneError(f"line {ln}: unknown keyword {kw!r}")
        except SceneError:
            raise
        except (IndexError, ValueError) as exc:
            raise SceneError(f"line {ln}: {exc}") from None
    if in_map:
        raise SceneError("map block not closed with 'endmap'")
    if kind is None:
        raise SceneError("missing 'domain' line")
    foreign = [(ln, kw) for kw, ln in first_line.items() if kw in _FOREIGN[kind]]
    if foreign:
        ln, kw = min(foreign)
        raise SceneError(f"line {ln}: {kind} scenes take no {kw!r} lines")
    if not starts:
        raise SceneError("scene declares no agents")
    scene = Scene(kind, name, tuple(rows), tuple(arms), tuple(obstacles),
                  thickness, substeps, tuple(starts), tuple(goals))
    _check_shape(scene)
    return scene


def _check_shape(scene: Scene) -> None:
    if scene.kind == "grid":
        if not scene.rows:
            raise SceneError("grid scene has no map block")
        if len({len(r) for r in scene.rows}) != 1:
            raise SceneError("map rows differ in width")
        for q in (*scene.starts, *scene.goals):
            if len(q) != 2:
                raise SceneError(f"grid agent coordinates must be 'x y', got {q}")
    else:
        if len(scene.arms) != len(scene.starts):
            raise SceneError(f"{len(scene.arms)} arm descriptors for "
                             f"{len(scene.starts)} agents")
        for i, arm in enumerate(scene.arms):
            for q in (scene.starts[i], scene.goals[i]):
                if len(q) != len(arm.link_lengths):
                    raise SceneError(f"agent {i}: expected {len(arm.link_lengths)}"
                                     f" joint indices, got {q}")


def serialize_scene(scene: Scene) -> str:
    lines = [f"domain {scene.kind}"]
    if scene.kind == "grid":
        lines.append("map")
        lines.extend(scene.rows)
        lines.append("endmap")
    else:
        lines.append(f"thickness {format_decimal(scene.thickness)}")
        lines.append(f"substeps {scene.substeps}")
        for ob in scene.obstacles:
            if isinstance(ob, Segment):
                lines.append("obstacle segment " + " ".join(
                    format_decimal(v) for v in (ob.ax, ob.ay, ob.bx, ob.by)))
            else:
                lines.append("obstacle disc " + " ".join(
                    format_decimal(v) for v in (ob.x, ob.y, ob.r)))
        for arm in scene.arms:
            lines.append(
                f"arm base {format_decimal(arm.base[0])} {format_decimal(arm.base[1])}"
                + " links " + " ".join(format_decimal(v) for v in arm.link_lengths)
                + f" resolution {format_decimal(arm.resolution)}"
                + " limits " + " ".join(f"{lo} {hi}" for lo, hi in arm.limits))
    for s, g in zip(scene.starts, scene.goals):
        lines.append("agent start " + " ".join(str(v) for v in s)
                     + " goal " + " ".join(str(v) for v in g))
    return "\n".join(lines) + "\n"
