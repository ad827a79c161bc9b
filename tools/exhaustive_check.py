"""Check the decomposition and the tree ops against the oracles on every small connected graph.

A differential gate too slow for the tier-1 tests.  For n
up to ``--max-n`` every labelled connected graph on 1..n is checked; at
n = max-n + 1, one graph per isomorphism class, under three seeded
relabellings.  On each graph g, with q = ``compute_qasst(g)``:

- q against the reference ``compute_qasst_by_splits`` (``structure_key``);
- ``reconstruct(q)`` against g;
- ``lc_propagate(q, v)`` at every vertex v, ``induced_qasst`` without v
  (where the rest is connected) and ``extend`` with each kind at every
  anchor, each against ``compute_qasst`` of the changed graph (its leaves
  renamed back where ``induced_qasst`` keeps the labels);
- ``is_distance_hereditary`` against the definition oracle;
- on a distance-hereditary g, ``phi_count(q)`` at least the orbit size
  ``len(enumerate_orbit(g))``, and equal to it when q is one quotient.

It stops at the first mismatch, prints the graph's edges and exits 1.
Otherwise it prints one line per n: the graph count and a SHA-256 over
every output compared, so two checkouts can be compared by digest.
At ``--max-n 6`` (30,035 graphs) it takes about 7 minutes on a shared
2-core VM under Python 3.11.7.

Example, from the root of the repository (or with ``--src`` pointing at
another checkout's ``src``)::

    python3 tools/exhaustive_check.py --max-n 6

Standard library only; it imports ``tests/helpers.py`` and ``tests/oracles.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RELABEL_SEEDS = (1, 2, 3)


class Mismatch(Exception):
    """A fast path disagrees with its oracle."""


def outputs(g) -> list[str]:
    """Every output compared on g, as text; raises :class:`Mismatch` on the first disagreement."""
    from oracles import dh_definition_oracle

    from lcsplit import counting, graphs, orbit, qasst, qasst_ops
    from lcsplit.errors import NotConnectedError

    def agree(got, want, what: str) -> str:
        if got != want:
            raise Mismatch(f"{what}: got {got!r}, want {want!r}")
        return str(got)

    q = qasst.compute_qasst(g)
    key = q.structure_key()
    out = [key, agree(key, qasst.compute_qasst_by_splits(g).structure_key(), "compute_qasst_by_splits")]
    out.append(agree(qasst.reconstruct(q).edges(), g.edges(), "reconstruct"))
    for v in range(1, g.n + 1):
        want = qasst.compute_qasst(graphs.local_complement(g, v)).structure_key()
        out.append(agree(qasst_ops.lc_propagate(q, v).structure_key(), want, f"lc_propagate at {v}"))
        keep = [u for u in range(1, g.n + 1) if u != v]
        sub, labels = graphs.induced_subgraph(g, keep)
        if keep and graphs.is_connected(sub):
            tree = qasst.compute_qasst(sub)
            want = qasst.Qasst({i: quot.relabelled(labels) for i, quot in tree.quotients.items()}).structure_key()
            out.append(agree(qasst_ops.induced_qasst(q, keep).structure_key(), want, f"induced_qasst without {v}"))
        for kind in qasst_ops.EXTENSION_KINDS:
            try:
                got = qasst_ops.extend(q, qasst_ops.ExtensionKind(kind, v), g.n + 1).structure_key()
            except NotConnectedError:  # a false twin of an isolated vertex
                got = None
            h = qasst_ops.extend_graph(g, kind, v)
            want = qasst.compute_qasst(h).structure_key() if graphs.is_connected(h) else None
            out.append(agree(got, want, f"extend {kind} at {v}"))
    dh = agree(qasst.is_distance_hereditary(g), dh_definition_oracle(g), "is_distance_hereditary")
    out.append(dh)
    if dh == "True":
        phi, size = counting.phi_count(q), len(orbit.enumerate_orbit(g))
        if phi < size or len(q.quotients) == 1 and phi != size:
            raise Mismatch(f"phi_count {phi} against orbit size {size}")
        out.append(f"{phi} {size}")
    return out


def sweep(label: str, gs) -> None:
    """Check every graph in ``gs`` and print the count and digest; exit 1 at the first mismatch."""
    digest = hashlib.sha256()
    count = 0
    for g in gs:
        try:
            for text in outputs(g):
                digest.update(text.encode())
                digest.update(b"\n")
        except Mismatch as exc:
            print(f"{label}: MISMATCH {exc}\n  graph: n={g.n}, edges={g.edges()}")
            sys.exit(1)
        count += 1
    print(f"{label}: {count} graphs, sha256 {digest.hexdigest()}", flush=True)


def relabelled_classes(n: int):
    """One connected graph per isomorphism class on n vertices, under each seeded relabelling."""
    from helpers import graphs_up_to_isomorphism

    from lcsplit.graphs import SimpleGraph, is_connected

    reps = [g for g in graphs_up_to_isomorphism(n) if is_connected(g)]
    for seed in RELABEL_SEEDS:
        perm = [0] + random.Random(seed).sample(range(1, n + 1), n)
        for g in reps:
            yield SimpleGraph(n, [(perm[a], perm[b]) for a, b in g.edges()])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=int, default=6,
                    help="check every labelled graph up to this size, then one size more up to isomorphism (default 6)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the lcsplit source to check")
    args = ap.parse_args()
    sys.path[:0] = [args.src, os.path.join(ROOT, "tests")]
    from helpers import all_connected_graphs

    for n in range(1, args.max_n + 1):
        sweep(f"n={n}", all_connected_graphs(n))
    n = args.max_n + 1
    sweep(f"n={n} up to isomorphism, {len(RELABEL_SEEDS)} relabellings", relabelled_classes(n))


if __name__ == "__main__":
    main()
