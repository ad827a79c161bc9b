"""Time one-vertex induce, lc and extend on small and large quotient trees.

It prints, for each op, the median time per op on the small and the large
trees (``random_dh(100)`` and ``random_dh(1600)`` by default) and their
ratio: how an op's cost grows with the tree it edits.  For each size, the
trees are ``random_dh(n, 1000 + t)`` for t < --trees, each round-tripped
through ``to_json_dict`` / ``from_json_dict`` as the CLI and the benchmark
load them.  Each op is timed --reps times and its median kept; the figure
per op and size is the median over all --trees x --ops ops.  Deletions that
disconnect the graph are timed as the refusal they are.

Example, from the root of the repository (or with ``--src`` pointing at
another checkout's ``src``)::

    python3 tools/scaling_gate.py --sizes 100,1600

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("pendant", "false_twin", "true_twin")


def median_time(f, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(n: int, trees: int, ops: int, reps: int) -> dict[str, float]:
    """Median microseconds per op on random_dh(n) trees."""
    from lcsplit import errors, qasst, qasst_ops

    times: dict[str, list[float]] = {"induce": [], "lc": [], "extend": []}
    for t in range(trees):
        g, _ = qasst_ops.random_dh(n, 1000 + t)
        q = qasst.from_json_dict(qasst.to_json_dict(qasst.compute_qasst(g)))
        rng = random.Random(t)
        vertices = sorted(q.leaves())
        for _ in range(ops):
            v = rng.choice(vertices)
            keep = [u for u in vertices if u != v]
            ext = qasst_ops.ExtensionKind(rng.choice(KINDS), v)

            def induce():
                try:
                    qasst_ops.induced_qasst(q, keep)
                except errors.NotConnectedError:
                    pass

            times["induce"].append(median_time(induce, reps))
            times["lc"].append(median_time(lambda: qasst_ops.lc_propagate(q, v), reps))
            times["extend"].append(median_time(lambda: qasst_ops.extend(q, ext, n + 1), reps))
    return {op: statistics.median(ts) * 1e6 for op, ts in times.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="100,1600", help="small,large tree sizes (default 100,1600)")
    ap.add_argument("--trees", type=int, default=6, help="trees per size (default 6)")
    ap.add_argument("--ops", type=int, default=30, help="ops per tree (default 30)")
    ap.add_argument("--reps", type=int, default=7, help="timings per op (default 7)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the lcsplit source to time")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    small, large = (int(s) for s in args.sizes.split(","))
    a = measure(small, args.trees, args.ops, args.reps)
    b = measure(large, args.trees, args.ops, args.reps)
    for op in a:
        print(f"{op}: {a[op]:.1f} -> {b[op]:.1f} us ({b[op] / a[op]:.2f}x)")


if __name__ == "__main__":
    main()
