"""Per-query output records of one benchmark workload, for diffing two
checkouts of mamp line by line.

    python3 tools/query_records.py --workload arm-focal --timeout 3 > records.jsonl

Runs every query of the workload (perfbench/workloads.py) once, in order,
with the workload's timeout replaced by ``--timeout``, through the
benchmark's own ``run_query`` on a fresh domain built from this checkout's
``src``. Prints one JSON line per query: its key (generator seed and
planner), the benchmark's ``output_record`` (status, expansions,
``collision_checks`` and, when solved, the costs as the ``mamp-bench`` CSV
formats them), the lower bound, and sha256 digests of the paths and of the
shortcut paths. Run it in two checkouts and ``diff`` the outputs; a query
that ends near the timeout may finish on one side only.
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

from run import output_record, query_key, run_query  # noqa: E402
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
        domain, result, post, _ = run_query(kept.scene, config)
        print(json.dumps({
            "key": query_key(kept, planner), **output_record(domain, result, post),
            "lb": result.lb, "paths": paths_digest(result.solution),
            "shortcut": paths_digest(post),
        }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
