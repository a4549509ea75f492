"""Benchmark command line.

Exit codes: 0 success, 1 usage error or unwritable output, 2 scene error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (ExperimentSpec, default_paper_params, run_experiments)
from .scene import SceneError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    p = _Parser(prog="mamp-bench",
                description="Run multi-agent planners over a scene and emit CSV metrics.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scene", metavar="PATH", help="scene document to plan in")
    src.add_argument("--generate", metavar="KIND:PARAMS",
                     help="generated scene, e.g. circle-arms:n=2,walk=8 or "
                          "corridor-grid:n=3,width=6,height=6 or shelf-lite:n=2")
    p.add_argument("--planners", default="cbs,xcbs,ecbs,xecbs,pp",
                   help="comma-separated planner names (default: all registered)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--timeout", type=float, default=60.0, metavar="SECS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default="results.csv")
    p.add_argument("--dump-paths", metavar="DIR", default=None,
                   help="write per-run path dumps into DIR")
    p.add_argument("--cache", choices=("on", "off"), default="on",
                   help="static-validity transition cache")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    scene_text = None
    scene_name = "scene"
    if args.scene:
        try:
            with open(args.scene, encoding="utf-8") as fh:
                scene_text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{parser.prog}: scene error: {exc}", file=sys.stderr)
            return 2
        scene_name = args.scene.rsplit("/", 1)[-1].rsplit(".", 1)[0]

    try:
        registry = default_paper_params(timeout=args.timeout)
        planners = []
        for name in args.planners.split(","):
            name = name.strip().lower()
            if not name:
                continue
            if name not in registry:
                raise ValueError(f"unknown planner {name!r}; "
                                 f"registered: {', '.join(registry)}")
            planners.append((name, registry[name]))
        if not planners:
            raise ValueError("no planners selected")
        spec = ExperimentSpec(planners=planners, trials=args.trials,
                              seed=args.seed, out=args.out,
                              dump_dir=args.dump_paths,
                              cache=args.cache == "on",
                              scene_text=scene_text, scene_name=scene_name,
                              generate=args.generate)
        run_experiments(spec)
    except SceneError as exc:
        print(f"{parser.prog}: scene error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
