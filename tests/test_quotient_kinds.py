"""Quotients held as their kind: complete, a star with its centre, or prime with adjacency sets.

Every way a tree is made or edited must leave each quotient storing the
kind its edges read (``oracles.edge_kind``, the classification by degree
counts the library used before it stored kinds), and the graph the tree
stands for must be the right one, since a complete or star quotient's
edges are read off its kind.
"""

import random
import tracemalloc

import pytest

from helpers import all_connected_graphs, random_connected_graph
from oracles import assert_kinds_stored
from lcsplit.errors import NotConnectedError
from lcsplit.families import complete_graph, cycle_graph, star_graph
from lcsplit.graphs import SimpleGraph, induced_subgraph, is_connected, local_complement
from lcsplit.qasst import (
    COMPLETE,
    PRIME,
    STAR,
    Qasst,
    QuotientGraph,
    SplitNode,
    _edge_count,
    _orient,
    compute_qasst,
    from_json_dict,
    reconstruct,
    to_json_dict,
    to_json_text,
)
from lcsplit.qasst_ops import (
    EXTENSION_KINDS,
    ExtensionKind,
    extend,
    extend_graph,
    induced_qasst,
    lc_propagate,
    random_dh,
)


def _prime_kernel_graph(rng, k, extensions):
    """A connected graph with a prime quotient (mostly): a random core of k vertices, hung with pendants and twins."""
    g = random_connected_graph(k, rng, rng.uniform(0.3, 0.6))
    for _ in range(extensions):
        g = extend_graph(g, rng.choice(EXTENSION_KINDS), rng.randint(1, g.n))
    return g


def _seeded_graphs():
    rng = random.Random(2300)
    graphs = [random_dh(rng.randint(5, 60), rng.random())[0] for _ in range(40)]
    graphs += [_prime_kernel_graph(rng, rng.randint(5, 10), rng.randint(0, 30)) for _ in range(40)]
    graphs += [cycle_graph(7), complete_graph(9), star_graph(9)]
    return graphs


def _rebuilt(q):
    """A tree holding copies of q's quotients, without any record: its writers normalize it afresh."""
    return Qasst({i: quot.copy() for i, quot in q.quotients.items()})


def _check(q, g, listing=True):
    """q stores every kind its edges read, stands for g and, with ``listing``, lists as a freshly normalized copy does."""
    assert_kinds_stored(q)
    assert reconstruct(q) == g
    if listing:
        assert to_json_text(q) == to_json_text(_rebuilt(q))


def _every_op(q, g, rng, exhaustive):
    """Check the trees that each op makes from q, the tree of g: JSON, LC, extension, deletion of the last vertex.

    ``exhaustive`` takes every vertex and extension kind and compares
    listings; otherwise one op at one vertex, chosen by rng, follows JSON.
    """
    _check(q, g, exhaustive)
    _check(from_json_dict(to_json_dict(q)), g, exhaustive)
    which = range(3) if exhaustive else [rng.randrange(3)]
    vertices = range(1, g.n + 1) if exhaustive else [rng.randint(1, g.n)]
    if 0 in which:
        for v in vertices:
            out = lc_propagate(q, v)
            _check(out, local_complement(g, v), exhaustive)
            assert out._canonical == q._canonical
    if 1 in which:
        for v in vertices:
            for tag in EXTENSION_KINDS if exhaustive else [rng.choice(EXTENSION_KINDS)]:
                if tag != "false_twin" or g.n > 1:
                    _check(extend(q, ExtensionKind(tag, v), g.n + 1), extend_graph(g, tag, v), exhaustive)
    rest = list(range(1, g.n))
    if 2 in which and rest and is_connected(induced_subgraph(g, rest)[0]):
        _check(induced_qasst(q, rest), induced_subgraph(g, rest)[0], exhaustive)


def _merges_and_splits(q, g):
    """Merge across each tree edge, then split the merged quotient back; kinds and graph hold throughout."""
    for s, t in q.tree_edges():
        i, j = q._where[s], q._where[t]
        side = q.quotients[j].nodes - {t}
        derived = q.copy()
        derived.merge(s)
        _check(derived, g)
        derived.split_off(i, side)
        _check(derived, g)


class TestStoredKinds:
    def test_every_connected_graph_up_to_five_every_op(self):
        rng = random.Random(2301)
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                q = compute_qasst(g)
                _every_op(q, g, rng, exhaustive=True)
                _merges_and_splits(q, g)

    def test_every_connected_graph_of_six(self):
        rng = random.Random(2302)
        count = 0
        for g in all_connected_graphs(6):
            _every_op(compute_qasst(g), g, rng, exhaustive=False)
            count += 1
        assert count == 26704

    def test_seeded_distance_hereditary_and_prime_kernel_trees(self):
        rng = random.Random(2303)
        primes = 0
        for g in _seeded_graphs():
            q = compute_qasst(g)
            primes += any(quot.kind == PRIME for quot in q.quotients.values())
            _every_op(q, g, rng, exhaustive=g.n <= 16)
            _merges_and_splits(q, g)
        assert primes >= 30

    def test_split_off_any_side_of_a_complete_or_star_quotient(self):
        # Every bipartition of a complete graph or a star is a split, so
        # every side may be cut off; both pieces keep the kind by rule.
        rng = random.Random(2304)
        for g in (complete_graph(7), star_graph(6), *(random_dh(30, seed)[0] for seed in range(6))):
            q = compute_qasst(g)
            for i, quot in list(q.quotients.items()):
                if quot.kind not in (COMPLETE, STAR) or len(quot.nodes) < 4:
                    continue
                nodes = sorted(quot.nodes, key=lambda v: (isinstance(v, SplitNode), v))
                for _ in range(5):
                    side = rng.sample(nodes, rng.randint(1, len(nodes) - 1))
                    derived = q.copy()
                    m = derived.split_off(i, side)
                    _check(derived, g)
                    assert derived.quotients[m].kind == quot.kind or len(side) == 1

    def test_deletions_down_to_a_small_graph(self):
        # Deleting vertex after vertex empties quotients and merges their
        # remains; every intermediate tree keeps its kinds.  A deletion that
        # disconnects, say of a star's centre, is refused.
        rng = random.Random(2305)
        refused = 0
        for g in _seeded_graphs()[::4]:
            q, keep = compute_qasst(g), list(range(1, g.n + 1))
            while len(keep) > 1:
                v = rng.choice(keep)
                rest = [u for u in keep if u != v]
                if not is_connected(induced_subgraph(g, rest)[0]):
                    with pytest.raises(NotConnectedError):
                        induced_qasst(q, rest)
                    refused += 1
                    continue
                q, keep = induced_qasst(q, rest), rest
                assert_kinds_stored(q)
                assert to_json_text(q) == to_json_text(_rebuilt(q))
        assert refused >= 10

    def test_chains_of_ops(self):
        # Ops applied to the trees that ops return: an LC that makes a star
        # complete, then a deletion of the old centre, must still read edges.
        rng = random.Random(2307)
        for g in _seeded_graphs()[::2]:
            q = compute_qasst(g)
            for _ in range(40):
                op = rng.randrange(3)
                if op == 0:
                    v = rng.randint(1, g.n)
                    q, g = lc_propagate(q, v), local_complement(g, v)
                elif op == 1 or g.n < 3:
                    tag, v = rng.choice(EXTENSION_KINDS), rng.randint(1, g.n)
                    q, g = extend(q, ExtensionKind(tag, v), g.n + 1), extend_graph(g, tag, v)
                else:
                    rest, v = list(range(1, g.n)), g.n
                    sub = induced_subgraph(local_complement(g, v), rest)[0]
                    if is_connected(sub):
                        q, g = induced_qasst(lc_propagate(q, v), rest), sub
                _check(q, g, listing=False)

    def test_extending_a_two_node_quotient_without_an_edge(self):
        # Only a tree that is not reduced, say one read from JSON, holds one; p joins its anchor alone.
        q = Qasst({0: QuotientGraph([1, 2])})
        for tag in ("pendant", "true_twin"):
            quot = extend(q, ExtensionKind(tag, 1), 3).quotients[0]
            assert quot.kind == PRIME and quot.edges == {frozenset((1, 3))}
        with pytest.raises(NotConnectedError):
            extend(q, ExtensionKind("false_twin", 1), 3)

    def test_removing_a_star_centre_leaves_no_edge(self):
        quot = QuotientGraph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
        assert (quot.kind, quot.center) == (STAR, 1)
        quot.remove_node(1)
        assert quot.kind == PRIME and not quot.edges and not quot.connected()
        quot.remove_node(2)
        assert quot.kind == PRIME and len(quot.nodes) == 2
        quot.remove_node(3)
        assert quot.kind == COMPLETE and quot.connected()


class TestKindQuotientsAreCheap:
    def test_lc_at_a_spoke_shares_the_star(self):
        q = compute_qasst(star_graph(20))
        for v in range(2, 22):
            out = lc_propagate(q, v)
            assert out.quotients[0] is q.quotients[0]
        assert lc_propagate(q, 1).quotients[0].kind == COMPLETE

    def test_lc_on_a_large_complete_quotient_copies_no_node_list(self):
        q = compute_qasst(complete_graph(1000))
        out = lc_propagate(q, 5)
        quot = out.quotients[0]
        assert (quot.kind, quot.center) == (STAR, 5)
        assert quot._adj is q.quotients[0]._adj
        back = lc_propagate(out, 5)
        assert back.quotients[0].kind == COMPLETE and to_json_text(back) == to_json_text(q)

    def test_complete_graph_tree_is_small(self):
        tracemalloc.start()
        try:
            q = compute_qasst(complete_graph(1000))
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(q.quotients) == 1
        assert size < 5_000_000


def _edge_count_by_edges(q, order, up):
    """The edge count of q's graph summed over every quotient edge, as ``_edge_count`` did before its closed forms."""
    reach, total = {}, 0
    for i in reversed(order):
        adj, entry = q.quotients[i].adj, up[i]
        d = {v: reach[q._where[v.partner]] if isinstance(v, SplitNode) else 1 for v in adj if v != entry}
        total += sum(d[x] * d[y] for x in d for y in adj[x] if y in d) // 2
        if entry is not None:
            reach[i] = sum(map(d.__getitem__, adj[entry]))
    return total


class TestEdgeCount:
    def _assert_counts(self, q, roots=None):
        # Rooted at each quotient in turn (default), so that every kind is met with its entry at a centre and at a spoke.
        for root in q.quotients if roots is None else roots:
            order, up = _orient(q, root)
            assert _edge_count(q, order, up) == _edge_count_by_edges(q, order, up)
        assert _edge_count(q, *q.validate()) == len(reconstruct(q).edges())

    def test_every_connected_graph_up_to_six(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                self._assert_counts(compute_qasst(g), None if n < 6 else [0])

    def test_seeded_trees_and_their_local_complements(self):
        rng = random.Random(2306)
        for g in _seeded_graphs():
            q = compute_qasst(g)
            self._assert_counts(q)
            self._assert_counts(lc_propagate(q, rng.randint(1, g.n)))

    def test_one_vertex_and_one_edge(self):
        for g in (SimpleGraph(1), SimpleGraph(2, [(1, 2)])):
            self._assert_counts(compute_qasst(g))
