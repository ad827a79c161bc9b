"""Shared test utilities: seeded random graph generators."""

from __future__ import annotations

import itertools
import random

from lcsplit.graphs import SimpleGraph, is_connected


def random_connected_graph(n: int, rng: random.Random, p: float = 0.5) -> SimpleGraph:
    """A random connected graph: G(n, p) edges plus a random spanning tree."""
    edges = set()
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            edges.add((a, b))
    g = SimpleGraph(n, sorted(edges))
    assert is_connected(g)
    return g


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n, connected or not."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


def all_connected_graphs(n: int):
    """Every labeled connected graph on vertices 1..n."""
    return (g for g in all_graphs(n) if is_connected(g))


def graphs_up_to_isomorphism(n: int) -> list[SimpleGraph]:
    """One labeled graph per isomorphism class on vertices 1..n, connected or not.

    Every graph on k vertices is a graph on k - 1 vertices plus vertex k
    with some neighbourhood, so extending one graph per class on k - 1
    vertices in every way reaches every class on k.
    """
    from lcsplit.graphs import is_isomorphic

    reps = [SimpleGraph(0)]
    for k in range(1, n + 1):
        buckets: dict[tuple, list[SimpleGraph]] = {}
        for g in reps:
            for nbrs in range(1 << (k - 1)):
                h = SimpleGraph(k, g.edges() + [(v, k) for v in range(1, k) if nbrs >> (v - 1) & 1])
                bucket = buckets.setdefault(tuple(sorted(m.bit_count() for m in h._adj)), [])
                if not any(is_isomorphic(h, r) for r in bucket):
                    bucket.append(h)
        reps = [h for bucket in buckets.values() for h in bucket]
    return reps
