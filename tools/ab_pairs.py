"""Alternating A/B pairs of the benchmark on two checkouts, and the gain
rule applied to their end-to-end metrics.

    python3 tools/ab_pairs.py --parent ../base --change . --workload grid-focal \
        --seeds 401-410 --pairs 10 --seconds 30

Each pair runs the benchmark command (by default ``python3 perfbench/run.py``)
once in each checkout, with ``--workload W --seed S --seconds N --trace 0``
added, one process at a time; pair k takes the k-th seed (cycling) and the
parent runs first in even pairs, the change in odd ones. Each run's metrics
are read off its last stdout line. For every end-to-end metric the report
gives each side's median and quartiles over its runs, the change's wins,
losses and ties over the pairs, and two verdicts:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, in the better direction, by
  more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, or ``unresolved`` where the parent's own quartile
  spread exceeds the bound, unless every run of the change reads better
  than every run of the parent.

Directions and bounds come from the change checkout's ``BENCHMARK.json``.
A run that fails, or reports ``correct`` false, stops the tool.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9  # share of pairs the change must win to claim a gain


def parse_seeds(text: str) -> list[int]:
    """``401-410`` or ``401,405,409``."""
    if "-" in text and "," not in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def read_result(stdout: str) -> dict:
    """The benchmark's result: the JSON object on its last stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], spec: dict) -> list[dict]:
    """One row per metric of ``spec`` (name -> (better, bound)) from
    ``pairs`` of (parent, change) metric values."""
    rows = []
    for name, (better, bound) in spec.items():
        sign = 1.0 if better == "lower" else -1.0  # > 0: the change is better
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        gains = [sign * (a - b) for a, b in zip(old, new)]
        wins = sum(g > 0 for g in gains)
        losses = sum(g < 0 for g in gains)
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        spread = o3 - o1
        gain = wins >= GAIN_SHARE * len(pairs) and sign * (om - nm) > spread
        separated = all(sign * (a - b) > 0 for a in old for b in new)
        if spread > bound * abs(om) and not separated:
            worse = "unresolved"
        else:
            worse = "worse" if sign * (nm - om) > bound * abs(om) else "within bound"
        rows.append(dict(metric=name, parent=(o1, om, o3), change=(n1, nm, n3),
                         delta=(nm - om) / om if om else float("nan"),
                         wins=wins, losses=losses, ties=len(pairs) - wins - losses,
                         gain=gain, worse=worse))
    return rows


def format_row(row: dict) -> str:
    (o1, om, o3), (n1, nm, n3) = row["parent"], row["change"]
    return (f"{row['metric']:14s} {om:.5g} [{o1:.5g}-{o3:.5g}] -> {nm:.5g} "
            f"[{n1:.5g}-{n3:.5g}] ({row['delta']:+.1%}); change wins "
            f"{row['wins']}, loses {row['losses']}, ties {row['ties']}; "
            f"{'gain' if row['gain'] else 'no gain'}; {row['worse']}")


def load_spec(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr[-500:]}")
    result = read_result(proc.stdout)
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"{checkout}: seed {seed}: outputs not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--pairs", type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--command", default="python3 perfbench/run.py")
    args = p.parse_args(argv)
    command = shlex.split(args.command)
    spec = load_spec(args.change)
    n = args.pairs or len(args.seeds)
    pairs = []
    for k in range(n):
        seed = args.seeds[k % len(args.seeds)]
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: run_once(command, getattr(args, side), args.workload, seed,
                              args.seconds) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {k + 1} seed {seed} ({order[0]} first): " + ", ".join(
            f"{m} {got['parent'][m]:.5g} -> {got['change'][m]:.5g}" for m in spec),
            flush=True)
    print(f"{args.workload}: {n} pairs, medians [quartiles] parent -> change")
    for row in summarize(pairs, spec):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
