"""Test-only oracles: brute-force definitions the library is checked against."""

from __future__ import annotations

import functools
import itertools
from collections import deque

from lcsplit.errors import NotConnectedError, SizeLimitError
from lcsplit.graphs import SimpleGraph, induced_subgraph, is_connected, neighborhood
from lcsplit.qasst import (
    COMPLETE,
    STAR,
    Qasst,
    SplitNode,
    _any_split,
    classify_quotient,
    join_validity,
    reconstruct,
)


def dh_definition_oracle(g: SimpleGraph) -> bool:
    """Literal definition: connected induced subgraphs preserve distances."""
    if not is_connected(g):
        raise NotConnectedError("distance-hereditary test requires a connected graph")
    if g.n > 10:
        raise SizeLimitError("definition oracle limited to 10 vertices")

    def distances(graph: SimpleGraph) -> dict[tuple[int, int], int]:
        dist = {}
        for src in range(1, graph.n + 1):
            seen = {src: 0}
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for w in neighborhood(graph, u):
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        queue.append(w)
            for t, d in seen.items():
                dist[(src, t)] = d
        return dist

    base = distances(g)
    verts = list(range(1, g.n + 1))
    for r in range(2, g.n + 1):
        for combo in itertools.combinations(verts, r):
            sub, labels = induced_subgraph(g, combo)
            if not is_connected(sub):
                continue
            for (u, v), d in distances(sub).items():
                if base[(labels[u], labels[v])] != d:
                    return False
    return True


@functools.cache
def _relabellings(n: int) -> list[list[int]]:
    """Per permutation of 1..n, the relabelled bit of each vertex pair, pairs in combinations order."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    return [
        [1 << index[tuple(sorted((p[u - 1], p[v - 1])))] for u, v in pairs]
        for p in itertools.permutations(range(1, n + 1))
    ]


def iso_form(g: SimpleGraph) -> int:
    """The least relabelled edge set of g over all n! permutations: equal iff isomorphic.

    An edge set is an integer with one bit per vertex pair, so a relabelling
    costs one sum over g's edges.
    """
    pairs = itertools.combinations(range(1, g.n + 1), 2)
    edges = [k for k, (u, v) in enumerate(pairs) if g.has_edge(u, v)]
    return min(sum(map(table.__getitem__, edges)) for table in _relabellings(g.n))


def split_node_quotients(q: Qasst) -> dict:
    """The quotient holding each split-node, found by scanning the quotients."""
    return {s: i for i, quot in q.quotients.items() for s in quot.split_nodes()}


def far_leaves(q: Qasst, s: SplitNode) -> frozenset:
    """Original vertices on the partner side of split-node s, by one subtree walk."""
    where = split_node_quotients(q)
    out: set[int] = set()
    seen = {where[s]}
    stack = [where[s.partner]]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        quot = q.quotients[i]
        out |= quot.leaf_nodes()
        for t in quot.split_nodes():
            if where[t.partner] not in seen:
                stack.append(where[t.partner])
    return frozenset(out)


def assert_strong_split_tree(q: Qasst, g: SimpleGraph) -> None:
    """Assert that q is the strong split tree of g, without brute force (Cunningham 1982).

    q must reconstruct g; every quotient must have three or more nodes
    (or be the only one) and be complete, a star or free of nontrivial
    splits (the polynomial search ``_any_split``); and every tree edge must
    join kinds that may sit across a strong split, each end classified at
    its own split-node.
    """
    assert reconstruct(q) == g
    where = split_node_quotients(q)
    for quot in q.quotients.values():
        assert len(quot.adj) >= 3 or len(q.quotients) == 1
        assert classify_quotient(quot).kind in (COMPLETE, STAR) or _any_split(quot) is None
    for s, i in where.items():
        mine = classify_quotient(q.quotients[i], s).kind
        theirs = classify_quotient(q.quotients[where[s.partner]], s.partner).kind
        assert join_validity(mine, theirs), (s, mine, theirs)
