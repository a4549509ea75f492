"""Per-query output records of one benchmark workload, for diffing two
checkouts of mamp line by line.

    python3 tools/query_records.py --workload arm-focal --timeout 3 > records.jsonl

Runs every query of the workload (perfbench/workloads.py) once, in order,
with the workload's timeout replaced by ``--timeout``, on a fresh domain
built from this checkout's ``src``, then shortcuts each solution. Prints one
JSON line per query: its key (generator seed and planner), status, cost,
lower bound, CT and LL expansions, ``collision_checks``, and sha256 digests
of the paths and of the shortcut paths. Run it in two checkouts and
``diff`` the outputs; a query that ends near the timeout may finish on one
side only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mamp  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402


def paths_digest(solution) -> str | None:
    if solution is None:
        return None
    blob = json.dumps([path.waypoints for path in solution.paths], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--timeout", type=float, required=True,
                        help="per-query timeout in seconds")
    args = parser.parse_args(argv)
    workload = build_workload(args.workload)
    for kept, planner in workload.queries:
        config = dataclasses.replace(workload.planners[planner], timeout=args.timeout)
        domain = kept.scene.build_domain()
        result = mamp.run_planner(domain, kept.scene.starts, kept.scene.goals, config)
        post = mamp.shortcut_solution(result.solution, domain)[0] if result.success else None
        print(json.dumps({
            "key": f"{kept.seed}:{planner}", "status": result.status, "cost": result.cost,
            "lb": result.lb, "ct_expansions": result.ct_expansions,
            "ll_expansions": result.ll_expansions,
            "collision_checks": result.collision_checks,
            "paths": paths_digest(result.solution), "shortcut": paths_digest(post),
        }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
