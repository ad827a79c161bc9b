"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<PR>.json.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
the parent checkout and once in the change checkout, back to back; the
side that goes first alternates from pair to pair.  The last line of each
run (its JSON result) is kept as it is.  The summary gives, per workload
and end-to-end metric (directions from the change's ``BENCHMARK.json``),
the parent and change medians and quartiles, the change's range, the
number of pairs in which the change was strictly better,
``over_bound``: whether the change median is worse than the parent median
by more than the metric's bound, a fraction of the parent median, and
``unresolved``: whether the parent's own quartile spread is wider than
that bound, so that the runs cannot tell a change of the bound's size.

Example, from the root of the change::

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python3 tools/bench_pairs.py --parent /tmp/parent --workloads qasst-dynamic \\
        --seeds 101-108 --out BENCH_11.json --change-note "what the change does"

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1,4,7-9"`` -> ``[1, 4, 7, 8, 9]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its last output line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and metric: medians, quartiles, range, pairs the change won, over_bound and unresolved."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        entry: dict = {"pairs": len(mine)}
        for metric, spec in metrics.items():
            value = {side: [p[side]["metrics"][metric]["value"] for p in mine] for side in SIDES}
            sign = 1 if spec["better"] == "higher" else -1
            median = {side: statistics.median(value[side]) for side in SIDES}
            bound = spec["bound"] * abs(median["parent"])
            spread = quartiles(value["parent"])
            entry[metric] = {
                "parent_median": round(median["parent"], 4),
                "parent_quartiles": spread,
                "change_median": round(median["change"], 4),
                "change_quartiles": quartiles(value["change"]),
                "change_range": [round(min(value["change"]), 4), round(max(value["change"]), 4)],
                "change_better_pairs": sum(
                    sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"])
                ),
                "over_bound": sign * (median["change"] - median["parent"]) < -bound,
                "unresolved": spread[1] - spread[0] > bound,
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change (default: this repository)")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="seeds, e.g. 101-108 or 1,3,5")
    ap.add_argument("--seconds", type=float, default=12, help="op-time budget of each run (default 12)")
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_11.json")
    ap.add_argument("--change-note", default="", help="one line saying what the change does")
    ap.add_argument("--seed-note", default="", help="one line saying how the seeds were chosen")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = []
    for workload in args.workloads.split(","):
        for k, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side]['metrics']['ops_per_s']['value']:.2f} ops/s", file=sys.stderr)
            pairs.append(pair)
    report = {
        "change": args.change_note,
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> --seconds {args.seconds:g};"
                   " last output line of each run",
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs,"
                   f" Python {platform.python_version()}; times are probe-scaled by the benchmark",
        "order": "'first' names the side that ran first in each pair; each pair ran back to back",
        "seeds": args.seed_note or f"seeds {args.seeds}",
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
