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
shortcut paths. Run it in two checkouts and compare the outputs:

    python3 tools/query_records.py --diff before.jsonl after.jsonl

For the queries that finished (did not time out) on both sides, ``--diff``
prints each field that differs, then, per moved numeric field, its sums over
those queries; last it lists the queries that finished on one side only (a
query that ends near the timeout may). It exits 1 if anything differs.
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


def load_records(path: str) -> dict[str, dict]:
    with open(path) as fh:
        return {rec["key"]: rec for rec in map(json.loads, filter(str.strip, fh))}


def diff_records(old_path: str, new_path: str) -> int:
    """Print how the records in ``new_path`` differ from ``old_path``;
    returns 1 if any do, else 0."""
    old, new = load_records(old_path), load_records(new_path)
    finished = {side: {k for k, rec in recs.items() if rec["status"] != "timeout"}
                for side, recs in (("old", old), ("new", new))}
    both = [k for k in old if k in finished["old"] & finished["new"]]
    moved: dict[str, int] = {}  # field -> queries on which it differs
    for key in both:
        for field in sorted(old[key].keys() | new[key].keys()):
            a, b = old[key].get(field), new[key].get(field)
            if a != b:
                moved[field] = moved.get(field, 0) + 1
                print(f"{key} {field}: {a} -> {b}")
    differing = sum(old[k] != new[k] for k in both)
    print(f"{len(both)} queries finished on both sides, "
          f"{len(both) - differing} equal in every field")
    for field, count in moved.items():
        line = f"{field} differs on {count}"
        if all(isinstance(recs[k].get(field), int) for recs in (old, new) for k in both):
            line += (f"; summed {sum(old[k][field] for k in both)}"
                     f" -> {sum(new[k][field] for k in both)}")
        print(line)
    one_side = [(k, side) for side, other in (("old", "new"), ("new", "old"))
                for k in sorted(finished[side] - finished[other])]
    for key, side in one_side:
        print(f"{key} finished on the {side} side only")
    return 1 if differing or one_side else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--timeout", type=float,
                        help="per-query timeout in seconds")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two record files instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        return diff_records(*args.diff)
    if args.workload is None or args.timeout is None:
        parser.error("--workload and --timeout are required without --diff")
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
