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
