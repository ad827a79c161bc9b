"""Time orbit enumeration and isomorphism classification on family orbits.

What classifying an orbit's members up to isomorphism costs against
enumerating the orbit: for each graph, the median time of
``enumerate_orbit`` and the median time of ``orbit_iso_classes`` on that
orbit, and their ratio.  Each ``orbit_iso_classes`` timing starts from the
fresh orbit just enumerated, so it includes the keying of every member and
whatever decoding the classification does, as an orbit query would.  Times
are this process's CPU time, so time a shared machine gives to other
processes is not counted.

On a shared 2-core VM under Python 3.11.7 the ratios read about 3.2-3.4x
on C9, 3.3-3.7x on C10, 5.3-5.6x on P10 and 6.9-7.2x on K2^5.  They grew
from 2.2-2.7x, 2.2-2.4x, 3.3-3.5x and 5.1-5.4x when the BFS stopped trying
the pivots that can reach no new member.  Keying every member alone costs
about two thirds of the BFS (0.66x on C10, 0.75x on P10), so no
classification that must name each class's key-least member gets far
below 1x.

Example, from the root of the repository (or with ``--src`` pointing at
another checkout's ``src``)::

    python3 tools/iso_gate.py --reps 9

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def family_graphs() -> dict:
    from lcsplit import families

    return {
        "C9": families.cycle_graph(9),
        "C10": families.cycle_graph(10),
        "P10": families.path_graph(10),
        "K2^5": families.complete_multipartite_graph([2] * 5),
    }


def measure(g, reps: int) -> tuple[float, float, int, int]:
    """(BFS seconds, classification seconds, members, classes), medians over reps."""
    from lcsplit import orbit

    bfs, iso = [], []
    for _ in range(reps):
        start = time.process_time()
        o = orbit.enumerate_orbit(g)
        bfs.append(time.process_time() - start)
        start = time.process_time()
        classes = orbit.orbit_iso_classes(o)
        iso.append(time.process_time() - start)
    return statistics.median(bfs), statistics.median(iso), len(o), len(classes)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=9, help="timings per graph (default 9)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the lcsplit source to time")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    for name, g in family_graphs().items():
        bfs, iso, members, classes = measure(g, args.reps)
        print(f"{name}: {members} members, {classes} classes; "
              f"enumerate_orbit {bfs:.3f} s, orbit_iso_classes {iso:.3f} s ({iso / bfs:.2f}x)")


if __name__ == "__main__":
    main()
