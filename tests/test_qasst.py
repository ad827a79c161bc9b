"""Split decomposition, quotient trees, and distance-hereditary recognition."""

import hashlib
import itertools
import json
import random
import time

import pytest

from helpers import all_connected_graphs, random_connected_graph
from oracles import assert_strong_split_tree, dh_definition_oracle, far_leaves, split_node_quotients
from lcsplit.errors import MalformedQasstError, NotConnectedError
from lcsplit.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from lcsplit import cli
from lcsplit.graphs import SimpleGraph, _bits, apply_sequence, local_complement, neighborhood
from lcsplit.qasst_ops import EXTENSION_KINDS, extend_graph, induced_qasst, lc_propagate, random_dh
from lcsplit.qasst import (
    COMPLETE,
    PRIME,
    STAR,
    STAR_CENTER,
    STAR_SPOKE,
    Qasst,
    QuotientGraph,
    SplitNode,
    classify_quotient,
    compute_qasst,
    compute_qasst_by_splits,
    eliminate_extensions,
    from_json_dict,
    is_distance_hereditary,
    is_split,
    is_strong,
    join_validity,
    reconstruct,
    _all_split_masks,
    _extend,
    _mask_is_split,
    _masks_cross,
    _prune,
    _split_side,
    to_dot,
    to_json_dict,
)


class TestSplits:
    def test_complete_bipartite_crossing(self):
        g = complete_bipartite_graph(2, 2)
        assert is_split(g, {1, 2}, {3, 4})
        # The diagonal bipartition misses crossing edge (1,2): not a split.
        assert not is_split(g, {1, 3}, {2, 4})
        path = path_graph(4)
        assert is_split(path, {1, 2}, {3, 4})
        assert not is_split(path, {1, 3}, {2, 4})

    def test_trivial_splits_always_exist(self):
        g = cycle_graph(5)
        for v in range(1, 6):
            assert is_split(g, {v}, set(range(1, 6)) - {v})

    def test_strong_split(self):
        # P4's only nontrivial split {1,2}|{3,4} is crossed by nothing.
        path = path_graph(4)
        assert is_strong(path, {1, 2}, {3, 4})
        assert is_strong(path, {1}, {2, 3, 4})
        # Nested splits do not cross: both P5 halvings are strong.
        p5 = path_graph(5)
        assert is_strong(p5, {1, 2}, {3, 4, 5})
        assert is_strong(p5, {1, 2, 3}, {4, 5})
        # In K4 the halvings {1,2}|{3,4} and {1,3}|{2,4} cross each other.
        k4 = complete_graph(4)
        assert is_split(k4, {1, 2}, {3, 4}) and is_split(k4, {1, 3}, {2, 4})
        assert not is_strong(k4, {1, 2}, {3, 4})
        assert not is_strong(k4, {1, 3}, {2, 4})

    def test_strong_split_of_long_path(self):
        # 2^19 bipartitions: beyond brute force, read off the tree instead.
        p20 = path_graph(20)
        assert is_strong(p20, set(range(1, 11)), set(range(11, 21)))
        assert not is_strong(p20, set(range(1, 20, 2)), set(range(2, 21, 2)))

    def test_strong_agrees_with_brute_force(self):
        def brute(g, a, b):
            adj = [g.neighborhood_mask(v) if v else 0 for v in range(g.n + 1)]
            amask, bmask = sum(1 << v for v in a), sum(1 << v for v in b)
            full = amask | bmask
            return _mask_is_split(adj, amask, bmask) and not any(
                _masks_cross(amask, bmask, t, full ^ t) for t in _all_split_masks(adj, full)
            )

        rng = random.Random(503)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng.randint(6, 8), rng, rng.uniform(0.2, 0.7)) for _ in range(30)]
        for g in graphs:
            verts = range(1, g.n + 1)
            for r in range(1, g.n):
                for a in itertools.combinations(verts, r):
                    if 1 in a:
                        b = set(verts) - set(a)
                        assert is_strong(g, a, b) == brute(g, a, b), (g.edges(), a)

    def test_is_split_is_its_definition(self):
        """The crossing edges are exactly every pair between A's frontier and B's frontier."""
        rng = random.Random(1802)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng.randint(6, 8), rng, rng.uniform(0.2, 0.7)) for _ in range(30)]
        for g in graphs:
            verts = set(range(1, g.n + 1))
            for r in range(1, g.n):
                for a in map(set, itertools.combinations(sorted(verts), r)):
                    b = verts - a
                    crossing = {(u, w) for u in a for w in b if g.has_edge(u, w)}
                    frontiers = {u for u, _ in crossing}, {w for _, w in crossing}
                    want = crossing == set(itertools.product(*frontiers))
                    assert is_split(g, a, b) == want, (g.edges(), a)

    def test_strong_requires_connected(self):
        with pytest.raises(NotConnectedError):
            is_strong(SimpleGraph(4, [(1, 2), (3, 4)]), {1, 2}, {3, 4})

    def test_rejects_bad_partition(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            is_split(g, {1, 2}, {2, 3, 4})


class TestComputeQasst:
    def test_prime_cycle_is_single_quotient(self):
        q = compute_qasst(cycle_graph(5))
        assert len(q.quotients) == 1
        assert classify_quotient(q.quotients[0]).kind == PRIME

    def test_bipartite_two_star_centers(self):
        q = compute_qasst(complete_bipartite_graph(2, 2))
        assert len(q.quotients) == 2
        for quot in q.quotients.values():
            s = next(iter(quot.split_nodes()))
            assert classify_quotient(quot, s).kind == STAR_CENTER

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            compute_qasst(SimpleGraph(4, [(1, 2), (3, 4)]))

    def test_exhaustive_small_against_brute_force(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                fast = compute_qasst(g)
                fast.validate()
                assert reconstruct(fast) == g
                brute = compute_qasst_by_splits(g)
                assert fast.structure_key() == brute.structure_key()

    def test_random_against_brute_force(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_connected_graph(rng.randint(6, 10), rng, rng.uniform(0.2, 0.8))
            fast = compute_qasst(g)
            fast.validate()
            assert reconstruct(fast) == g
            assert fast.structure_key() == compute_qasst_by_splits(g).structure_key()

    def test_tree_edges_are_valid_joins(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_connected_graph(rng.randint(4, 10), rng)
            q = compute_qasst(g)
            for sa, sb in q.tree_edges():
                ka = classify_quotient(q.quotients[sa.i], sa).kind
                kb = classify_quotient(q.quotients[sb.i], sb).kind
                assert join_validity(ka, kb), (ka, kb)

    def test_strong_splits_invariant_under_lc(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_graph(rng.randint(4, 9), rng)
            sides = compute_qasst(g).strong_split_sides()
            h = apply_sequence(g, [rng.randint(1, g.n) for _ in range(4)])
            assert compute_qasst(h).strong_split_sides() == sides


class TestNormalize:
    @staticmethod
    def sample_graphs():
        rng = random.Random(77)
        for seed in range(40):
            yield random_dh(rng.randint(8, 14), seed)[0]
        for _ in range(40):
            yield random_connected_graph(rng.randint(6, 10), rng, rng.uniform(0.2, 0.7))

    def test_both_decompositions_serialize_identically(self):
        for g in self.sample_graphs():
            assert to_json_dict(compute_qasst(g)) == to_json_dict(compute_qasst_by_splits(g))

    def test_ignores_quotient_numbering(self):
        rng = random.Random(78)
        for g in self.sample_graphs():
            q = compute_qasst(g)
            labels = rng.sample(range(100), len(q.quotients))
            relabel = dict(zip(q.quotients, labels))
            names = {s: SplitNode(relabel[s.i], relabel[s.j]) for quot in q.quotients.values() for s in quot.split_nodes()}
            renumbered = Qasst({relabel[i]: quot.relabelled(names) for i, quot in q.quotients.items()})
            renumbered.validate()
            assert to_json_dict(renumbered.normalize()) == to_json_dict(q)

    def test_canonical_numbering_is_kept_without_a_rebuild(self):
        rng = random.Random(79)
        for g in self.sample_graphs():
            q = compute_qasst(g)
            again = q.normalize()
            assert again is not q and again._checked
            assert all(again.quotients[i] is quot for i, quot in q.quotients.items())
            assert to_json_dict(again) == to_json_dict(q) and to_dot(again) == to_dot(q)
            shuffled = _shuffled(q, rng)
            if len(q.quotients) > 1:
                renumbered = shuffled.normalize()
                assert not any(quot is shuffled.quotients.get(i) for i, quot in renumbered.quotients.items())
                assert to_json_dict(renumbered) == to_json_dict(q)

    def test_quotients_iterate_in_canonical_order(self):
        # The same tree built in two dict orders normalizes to one iteration
        # order, 0..m-1, which whatever walks `quotients` follows (symmetry's
        # error messages, for one).
        for g in self.sample_graphs():
            q = compute_qasst(g)
            m = len(q.quotients)
            assert list(q.quotients) == list(range(m))
            backwards = Qasst(dict(reversed(list(q.quotients.items()))))
            assert list(backwards.normalize().quotients) == list(range(m))
            assert to_json_dict(backwards) == to_json_dict(q)


def _shuffled(q, rng):
    """The same tree with its quotients renumbered at random."""
    relabel = dict(zip(q.quotients, rng.sample(range(1000), len(q.quotients))))
    where = split_node_quotients(q)
    names = {s: SplitNode(relabel[i], relabel[where[s.partner]]) for s, i in where.items()}
    return Qasst({relabel[i]: quot.relabelled(names) for i, quot in q.quotients.items()})


def _normalized_by_far_leaves(q):
    """Reference ``normalize``: one ``far_leaves`` walk per split-node of a leafless quotient."""
    def order_key(i):
        leaves = q.quotients[i].leaf_nodes()
        if leaves:
            return (1, min(leaves))
        return (0, tuple(sorted(min(far_leaves(q, s)) for s in q.quotients[i].split_nodes())))

    remap = {old: new for new, old in enumerate(sorted(q.quotients, key=order_key))}
    where = split_node_quotients(q)
    names = {s: SplitNode(remap[i], remap[where[s.partner]]) for s, i in where.items()}
    return {remap[old]: quot.relabelled(names).adj for old, quot in q.quotients.items()}


def _structure_key_by_far_leaves(q):
    labels = {
        s: ("S", tuple(sorted(far_leaves(q, s))))
        for quot in q.quotients.values()
        for s in quot.split_nodes()
    }

    def label(node):
        return labels.get(node, ("L", node))

    return frozenset(
        (frozenset(map(label, quot.nodes)), frozenset(frozenset(map(label, e)) for e in quot.edges))
        for quot in q.quotients.values()
    )


class TestTreeReadsAgainstFarLeaves:
    """normalize, structure_key and strong_split_sides against per-split-node ``far_leaves`` walks."""

    @staticmethod
    def sample_trees():
        rng = random.Random(91)
        for n in (10, 20, 40, 80, 150, 300):
            for seed in range(4):
                yield compute_qasst(random_dh(n, seed)[0])
        for n in (3, 4, 5, 8, 13, 30, 60):
            yield compute_qasst(cycle_graph(n))
            yield compute_qasst(path_graph(n))
        for _ in range(40):
            yield compute_qasst(random_connected_graph(rng.randint(6, 14), rng, rng.uniform(0.1, 0.6)))
        yield Qasst({0: QuotientGraph([1])})

    def test_reads_match(self):
        rng = random.Random(92)
        leafless_counts = []
        for q in self.sample_trees():
            leafless_counts.append(sum(not quot.leaf_nodes() for quot in q.quotients.values()))
            for tree in (q, _shuffled(q, rng)):
                normalized = tree.normalize()
                assert {i: quot.adj for i, quot in normalized.quotients.items()} == _normalized_by_far_leaves(tree)
                assert tree.structure_key() == _structure_key_by_far_leaves(tree)
                assert tree.strong_split_sides() == {far_leaves(tree, s) for s, _ in tree.tree_edges()}
        assert sum(count >= 2 for count in leafless_counts) >= 5

    def test_reads_match_after_dynamic_ops(self):
        # lc_propagate and induced_qasst leave quotients unnumbered.
        rng = random.Random(93)
        for n in (30, 120):
            for seed in range(3):
                g = random_dh(n, seed)[0]
                q = lc_propagate(compute_qasst(g), rng.randint(1, n))
                trees = [q]
                for v in rng.sample(range(1, n + 1), 5):
                    try:
                        trees.append(induced_qasst(q, [u for u in range(1, n + 1) if u != v]))
                    except NotConnectedError:
                        pass
                for tree in trees:
                    normalized = tree.normalize()
                    assert {i: quot.adj for i, quot in normalized.quotients.items()} == _normalized_by_far_leaves(tree)
                    assert tree.structure_key() == _structure_key_by_far_leaves(tree)

    @staticmethod
    def assert_normalize_matches(tree):
        normalized = tree.normalize()
        assert {i: quot.adj for i, quot in normalized.quotients.items()} == _normalized_by_far_leaves(tree)
        assert tree.structure_key() == _structure_key_by_far_leaves(tree)

    def test_least_leaf_far_from_least_quotient(self):
        # normalize roots its pass at the least leaf's quotient; here that
        # quotient is three or more tree edges from the least-numbered one.
        rng = random.Random(94)
        far = {"induced": 0, "shuffled": 0}
        trees = []
        for n, seed in itertools.product((80, 200), range(6)):
            q = compute_qasst(random_dh(n, seed)[0])
            for k in (1, 3):
                try:
                    trees.append(induced_qasst(q, range(k + 1, n + 1)))  # drops vertices 1..k
                except NotConnectedError:
                    pass
        for dropped in trees:
            for how, tree in (("induced", dropped), ("shuffled", _shuffled(dropped, rng))):
                order, up = tree.validate()
                where = split_node_quotients(tree)
                depth = {order[0]: 0}
                for i in order[1:]:
                    depth[i] = depth[where[up[i].partner]] + 1
                far[how] += depth[tree.leaf_quotient(min(tree.leaves()))] >= 3
                self.assert_normalize_matches(tree)
        assert min(far.values()) >= 5

    def test_chain_of_leafless_quotients(self):
        # Leafless quotients 0 - 1 - 2 in a row, each with one or two leaf-bearing neighbours.
        def s(i, j):
            return SplitNode(i, j)

        tree = Qasst({
            0: QuotientGraph([s(0, 1), s(0, 3), s(0, 4)], [(s(0, 1), s(0, 3)), (s(0, 1), s(0, 4)), (s(0, 3), s(0, 4))]),
            1: QuotientGraph([s(1, 0), s(1, 2), s(1, 5)], [(s(1, 0), s(1, 2)), (s(1, 0), s(1, 5))]),
            2: QuotientGraph([s(2, 1), s(2, 6), s(2, 7)], [(s(2, 1), s(2, 6)), (s(2, 1), s(2, 7)), (s(2, 6), s(2, 7))]),
            3: QuotientGraph([s(3, 0), 1, 2], [(1, s(3, 0)), (1, 2)]),
            4: QuotientGraph([s(4, 0), 3, 4], [(3, s(4, 0)), (3, 4)]),
            5: QuotientGraph([s(5, 1), 5, 6], [(5, s(5, 1)), (5, 6)]),
            6: QuotientGraph([s(6, 2), 7, 8], [(7, s(6, 2)), (7, 8)]),
            7: QuotientGraph([s(7, 2), 9, 10], [(9, s(7, 2)), (9, 10)]),
        })
        tree.validate()
        assert tree.structure_key() == compute_qasst(reconstruct(tree)).structure_key()
        rng = random.Random(95)
        for t in [tree] + [_shuffled(tree, rng) for _ in range(20)]:
            self.assert_normalize_matches(t)
            assert to_json_dict(t) == to_json_dict(tree)

    def test_tree_without_leaves(self):
        tree = Qasst({0: QuotientGraph([])})
        normalized = tree.normalize()
        assert normalized.quotients.keys() == {0}
        assert normalized.quotients[0].adj == {}
        assert normalized.leaves() == set()
        self.assert_normalize_matches(tree)


class TestRename:
    S1, S2, S3 = SplitNode(0, 1), SplitNode(0, 2), SplitNode(0, 3)

    def chain(self, a, b, c):
        """1 - a - b - c - 2 over leaf-nodes 1, 2 and split-nodes a, b, c."""
        return QuotientGraph([1, 2, a, b, c], [(1, a), (a, b), (b, c), (c, 2)])

    def test_swap(self):
        quot = self.chain(self.S1, self.S2, self.S3)
        renamed = quot.relabelled({self.S1: self.S2, self.S2: self.S1})
        assert renamed.adj == self.chain(self.S2, self.S1, self.S3).adj
        assert quot.adj == self.chain(self.S1, self.S2, self.S3).adj  # a copy; the original keeps its names

    def test_three_cycle(self):
        quot = self.chain(self.S1, self.S2, self.S3)
        renamed = quot.relabelled({self.S1: self.S2, self.S2: self.S3, self.S3: self.S1})
        assert renamed.adj == self.chain(self.S2, self.S3, self.S1).adj

    def test_leaves_unnamed_nodes_alone(self):
        quot = self.chain(self.S1, self.S2, self.S3)
        renamed = quot.relabelled({self.S2: SplitNode(5, 6), 7: 8})
        assert renamed.adj == self.chain(self.S1, SplitNode(5, 6), self.S3).adj


class TestClassification:
    def test_complete_star_prime(self):
        k3 = QuotientGraph([1, 2, 3], [frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3))])
        assert classify_quotient(k3).kind == COMPLETE
        star = QuotientGraph([1, 2, 3], [frozenset((1, 2)), frozenset((1, 3))])
        assert classify_quotient(star).kind == STAR
        assert classify_quotient(star, 1).kind == STAR_CENTER
        assert classify_quotient(star, 2).kind == STAR_SPOKE
        assert classify_quotient(star, 2).center == 1

    def test_join_validity_table(self):
        assert not join_validity(COMPLETE, COMPLETE)
        assert not join_validity(STAR_CENTER, STAR_SPOKE)
        assert not join_validity(STAR_SPOKE, STAR_CENTER)
        assert join_validity(STAR_CENTER, STAR_CENTER)
        assert join_validity(STAR_SPOKE, STAR_SPOKE)
        assert join_validity(COMPLETE, STAR_SPOKE)
        assert join_validity(PRIME, COMPLETE)


class TestDistanceHereditary:
    def test_known_families(self):
        assert is_distance_hereditary(star_graph(4))
        assert is_distance_hereditary(complete_graph(5))
        assert is_distance_hereditary(path_graph(6))
        assert not is_distance_hereditary(cycle_graph(5))
        assert not is_distance_hereditary(cycle_graph(6))
        assert is_distance_hereditary(cycle_graph(4))

    def test_exhaustive_against_definition(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                assert is_distance_hereditary(g) == dh_definition_oracle(g)

    def test_random_against_definition(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_connected_graph(rng.randint(6, 8), rng, rng.uniform(0.2, 0.8))
            assert is_distance_hereditary(g) == dh_definition_oracle(g)

    def test_dh_iff_star_or_complete_quotients(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_connected_graph(rng.randint(4, 9), rng, rng.uniform(0.2, 0.8))
            q = compute_qasst(g)
            all_nice = all(
                classify_quotient(quot).kind != PRIME for quot in q.quotients.values()
            )
            assert all_nice == is_distance_hereditary(g)

    def test_elimination_trace_rebuilds_vertex_count(self):
        g = path_graph(6)
        kernel, trace = eliminate_extensions(g)
        assert len(kernel) == 1
        assert len(trace) == 5

    def test_large_dh_recognition_within_time_floor(self):
        # A floor, never to be loosened: whole-graph rescans took 27 s here.
        g, _ = random_dh(800, 1)
        start = time.monotonic()
        assert is_distance_hereditary(g)
        assert time.monotonic() - start < 10.0


class TestEliminationOutput:
    """Pendant/twin elimination's kernel and trace, pinned by one SHA-256."""

    DIGEST = "9531b9a07694c4329c5437b9ce74f58fc2cb98e96af5f8497cd41989bdc68d80"

    @staticmethod
    def _graphs():
        for n in range(1, 6):
            yield from all_connected_graphs(n)
        rng = random.Random(1801)
        for _ in range(40):
            yield random_dh(rng.randint(5, 60), rng.random())[0]
        found = 0
        while found < 40:
            g = random_connected_graph(rng.randint(6, 40), rng, rng.uniform(0.05, 0.5))
            if not is_distance_hereditary(g):
                found += 1
                yield g

    def test_kernel_and_trace_digest(self):
        h = hashlib.sha256()
        for g in self._graphs():
            kernel, trace = eliminate_extensions(g)
            h.update(repr(([(v, sorted(nb)) for v, nb in kernel.items()], trace)).encode())
        assert h.hexdigest() == self.DIGEST


class TestTreeBookkeeping:
    def test_validate_returns_the_rooted_order(self):
        q = compute_qasst(path_graph(7))
        order, up = q.validate()
        assert sorted(order) == sorted(q.quotients) and up[order[0]] is None
        assert all(up[i].j in order[:order.index(i)] for i in order[1:])


class TestSplitNodeLabels:
    """A split-node's name is a label: it says nothing of the quotient that holds it."""

    @staticmethod
    def _relabelled(q, first):
        """q with the split-nodes of its k-th tree edge named (first + 2k, first + 2k + 1) and back."""
        names = {}
        for k, (s, t) in enumerate(q.tree_edges()):
            a, b = first + 2 * k, first + 2 * k + 1
            names[s], names[t] = SplitNode(a, b), SplitNode(b, a)
        return Qasst({i: quot.relabelled(names) for i, quot in q.quotients.items()})

    def _trees(self):
        yield compute_qasst(path_graph(6))
        for n, seed in ((12, 0), (30, 1), (60, 2)):
            yield compute_qasst(random_dh(n, seed)[0])

    def test_twin_with_other_labels_reads_the_same(self):
        for q in self._trees():
            twin = self._relabelled(q, 1000)
            assert not any(s.i == i for i, quot in twin.quotients.items() for s in quot.split_nodes())
            twin.validate()
            assert reconstruct(twin) == reconstruct(q)
            assert to_json_dict(twin) == to_json_dict(q)
            assert to_dot(twin) == to_dot(q)
            assert twin.structure_key() == q.structure_key()

    def test_label_in_two_quotients_is_refused(self):
        twin = self._relabelled(compute_qasst(path_graph(6)), 50)
        (s, _), *_ = twin.tree_edges()
        other = next(i for i, quot in twin.quotients.items() if s not in quot.adj)
        twin.quotients[other].adj[s] = set()
        with pytest.raises(MalformedQasstError, match="appears in two quotients"):
            twin.validate()

    def test_merge_and_split_off_leave_other_quotients_shared(self):
        # Neither edit renames a split-node, so neither copies a quotient it does not join.
        checked = 0
        for q in self._trees():
            where = split_node_quotients(q)
            for s, t in q.tree_edges():
                i, j = where[s], where[t]
                side = q.quotients[j].adj.keys() - {t}
                derived = q.copy()
                derived.merge(s)
                assert all(derived.quotients[k] is q.quotients[k] for k in derived.quotients if k != i)
                m = derived.split_off(i, side)
                assert all(derived.quotients[k] is q.quotients[k] for k in derived.quotients if k not in (i, m))
                assert reconstruct(derived) == reconstruct(q)
                checked += len(side & q.quotients[j].split_nodes()) > 0
        assert checked >= 20


class TestSerialization:
    def test_schema_shape(self):
        data = to_json_dict(compute_qasst(complete_bipartite_graph(2, 2)))
        assert set(data) == {"quotients", "tree_edges"}
        quot = data["quotients"][0]
        assert set(quot) == {"leaf_nodes", "split_nodes", "edges"}
        assert data["tree_edges"] == [[{"i": 0, "j": 1}, {"i": 1, "j": 0}]]

    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 9), rng)
            q = compute_qasst(g)
            q2 = from_json_dict(json.loads(json.dumps(to_json_dict(q))))
            q2.validate()
            assert q2.structure_key() == q.structure_key()
            assert reconstruct(q2) == g

    def test_dot_output(self):
        dot = to_dot(compute_qasst(path_graph(4)))
        assert dot.startswith("graph") and "shape=box" in dot

    def test_validate_catches_unmatched_split_node(self):
        broken = Qasst(
            {
                0: QuotientGraph([1, SplitNode(0, 1)], [frozenset((1, SplitNode(0, 1)))]),
                1: QuotientGraph([2], []),
            }
        )
        with pytest.raises(MalformedQasstError):
            broken.validate()


def _bit_adjacency(g):
    return [g.neighborhood_mask(v) >> 1 for v in range(1, g.n + 1)]


def _random_reduced_tree(rng, count, primes):
    """A random reduced split tree of ``count`` quotients: ``primes``, complete graphs and stars.

    No two complete quotients and no star center and star spoke are joined,
    and every quotient has three or more nodes, so by Cunningham's theorem
    it is the strong split tree of the graph it reconstructs.
    """
    shapes = [lambda: rng.choice(primes)] * 2
    shapes += [lambda: complete_graph(rng.randint(3, 5)), lambda: star_graph(rng.randint(2, 4))]
    pieces, names = [], []
    for i in range(count):
        g = rng.choice(shapes)() if i else rng.choice(primes)
        pieces.append(QuotientGraph(range(1, g.n + 1), g.edges()))
        names.append({})
        if i:
            joins = [
                (j, x, y)
                for j in range(i)
                for x in pieces[j].nodes
                if x not in names[j]
                for y in pieces[i].nodes
                if join_validity(classify_quotient(pieces[j], x).kind, classify_quotient(pieces[i], y).kind)
            ]
            j, x, y = rng.choice(joins)
            names[j][x], names[i][y] = SplitNode(j, i), SplitNode(i, j)
    free = [(i, v) for i, piece in enumerate(pieces) for v in piece.nodes if v not in names[i]]
    for (i, v), label in zip(free, rng.sample(range(1, len(free) + 1), len(free))):
        names[i][v] = label
    tree = Qasst({i: piece.relabelled(mapping) for i, (piece, mapping) in enumerate(zip(pieces, names))})
    tree.validate()
    return tree


_CYCLES = [cycle_graph(5), cycle_graph(6), cycle_graph(7)]


class TestPolynomialSplitSearch:
    """The production split search against brute force: finder, then whole trees."""

    def test_finder_finds_a_split_iff_one_exists(self):
        rng = random.Random(500)
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng.randint(6, 10), rng, rng.uniform(0.15, 0.7)) for _ in range(150)]
        for g in graphs:
            adj, full = _bit_adjacency(g), (1 << g.n) - 1
            exists = any(2 <= a.bit_count() <= g.n - 2 for a in _all_split_masks(adj, full))
            side = _split_side(adj, g.n)
            assert bool(side) == exists, g.edges()
            if side:
                assert 2 <= side.bit_count() <= g.n - 2
                assert _mask_is_split(adj, side, full ^ side)

    def test_all_small_graphs_match_oracle(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                fast, brute = compute_qasst(g), compute_qasst_by_splits(g)
                assert fast.structure_key() == brute.structure_key()
                assert to_json_dict(fast) == to_json_dict(brute)

    def test_random_graphs_match_oracle(self):
        rng = random.Random(501)
        for _ in range(200):
            g = random_connected_graph(rng.randint(6, 12), rng, rng.uniform(0.15, 0.7))
            fast, brute = compute_qasst(g), compute_qasst_by_splits(g)
            assert fast.structure_key() == brute.structure_key()
            assert to_json_dict(fast) == to_json_dict(brute)

    def test_prime_cores_joined_across_splits(self):
        # Complete and star quotients between prime ones hold splits that are
        # not strong; the search may split along them, and the reduction
        # must merge them back.
        rng = random.Random(502)
        primes = list(_CYCLES)
        while len(primes) < 8:
            g = random_connected_graph(rng.randint(5, 7), rng, 0.5)
            tree = compute_qasst_by_splits(g)
            if len(tree.quotients) == 1 and classify_quotient(tree.quotients[0]).kind == PRIME:
                primes.append(g)
        for _ in range(40):
            built = _random_reduced_tree(rng, rng.randint(2, 10), primes)
            g = reconstruct(built)
            fast = compute_qasst(g)
            assert fast.structure_key() == built.structure_key()
            if g.n <= 12:
                assert to_json_dict(fast) == to_json_dict(compute_qasst_by_splits(g))


class TestLargePrimeKernels:
    """Kernels far beyond brute force (2^(k-1) bipartitions): a floor, never to be loosened."""

    def test_large_kernels_within_time_budget(self):
        start = time.monotonic()
        for n in (25, 60, 120):
            g = cycle_graph(n)
            q = compute_qasst(g)
            assert len(q.quotients) == 1
            assert classify_quotient(q.quotients[0]).kind == PRIME
            assert reconstruct(q) == g
        rng = random.Random(60)
        g = random_connected_graph(60, rng, 0.1)
        q = compute_qasst(g)
        q.validate()
        assert reconstruct(q) == g
        # The tree does not depend on the vertex order the split search sees.
        perm = dict(zip(range(1, 61), rng.sample(range(1, 61), 60)))
        h = SimpleGraph(60, [(perm[u], perm[v]) for u, v in g.edges()])
        sides = {frozenset(perm[v] for v in side) for side in q.strong_split_sides()}
        assert compute_qasst(h).strong_split_sides() == sides
        for _ in range(3):
            built = _random_reduced_tree(rng, 15, _CYCLES)
            assert compute_qasst(reconstruct(built)).structure_key() == built.structure_key()
        assert time.monotonic() - start < 10.0

    def test_decompose_cli_on_c25(self, tmp_path, capsys):
        path = tmp_path / "c25.json"
        assert cli.main(["gen", "cycle", "--params", "25", "--output", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["decompose", "--input", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["quotients"]) == 1


class TestOneCopyOfEachJob:
    """Jobs the decomposition, the reference decomposition and the outputs share."""

    @pytest.mark.parametrize("decompose", [compute_qasst, compute_qasst_by_splits])
    def test_input_checks(self, decompose):
        from lcsplit.errors import InvalidSpecError

        with pytest.raises(InvalidSpecError) as info:
            decompose(SimpleGraph(0))
        assert str(info.value) == "decomposition needs n >= 1"
        with pytest.raises(NotConnectedError) as info:
            decompose(SimpleGraph(4, [(1, 2), (3, 4)]))
        assert str(info.value) == "decomposition requires a connected graph"

    def test_json_dot_and_repr_list_edges_in_one_order(self):
        rng = random.Random(10)
        graphs = [random_dh(n, n)[0] for n in range(2, 40, 5)]
        graphs += [random_connected_graph(rng.randint(6, 12), rng, 0.3) for _ in range(10)]
        for g in graphs:
            q = compute_qasst(g)
            data = to_json_dict(q)
            dot = to_dot(q)
            for i, quot in q.normalize().quotients.items():
                edges = data["quotients"][i]["edges"]
                as_nodes = [
                    [SplitNode(v["i"], v["j"]) if isinstance(v, dict) else v for v in e]
                    for e in edges
                ]
                assert f"edges={as_nodes})" in repr(quot)
                dot_ids = [
                    [f"s_{v['i']}_{v['j']}" if isinstance(v, dict) else f"q{i}_{v}" for v in e]
                    for e in edges
                ]
                lines = [f"    {a} -- {b};" for a, b in dot_ids]
                assert [line for line in dot.splitlines() if line in lines] == lines
                keys = [
                    [(1, v["i"], v["j"]) if isinstance(v, dict) else (0, v, 0) for v in e]
                    for e in edges
                ]
                assert all(a < b for a, b in keys)
                assert keys == sorted(keys)
                assert len(edges) == len(quot.edges)


def _hung(core, rng, count):
    """``core`` with ``count`` pendants and twins hung at random anchors, the new vertices too."""
    g = core
    for _ in range(count):
        g = extend_graph(g, rng.choice(EXTENSION_KINDS), rng.randint(1, g.n))
    return g


class TestPruneThenReplay:
    """``compute_qasst`` prunes pendants and twins, splits the kernel and replays the rest in place.

    Every tree is checked by the structural oracle (``assert_strong_split_tree``),
    which needs no brute force, so the graphs may be large.
    """

    def test_prune_steps_and_kernel(self):
        # Each step removes a pendant or twin of its anchor, in order, and
        # the kernel that is left has neither.
        rng = random.Random(2100)
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng.randint(5, 14), rng, rng.uniform(0.1, 0.6)) for _ in range(100)]
        graphs += [_hung(cycle_graph(rng.randint(5, 8)), rng, 12) for _ in range(30)]
        for g in graphs:
            kernel, steps = _prune(g)
            adj = {v: neighborhood(g, v) for v in range(1, g.n + 1)}
            for tag, a, p in steps:
                nb = adj.pop(p)
                want = {
                    "pendant": nb == {a},
                    "false_twin": nb == adj[a],
                    "true_twin": nb - {a} == adj[a] - {p} != nb,
                }
                assert want[tag], (g.edges(), tag, a, p)
                for w in nb:
                    adj[w].discard(p)
            assert {v: set(_bits(row)) for v, row in kernel.items()} == adj
            assert len(kernel) == 1 or not any(
                len(adj[u]) == 1 or adj[u] - {v} == adj[v] - {u} for u, v in itertools.combinations(adj, 2)
            )
            assert is_distance_hereditary(g) == (len(kernel) == 1)

    def test_every_connected_graph_up_to_six(self):
        count = 0
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                assert_strong_split_tree(compute_qasst(g), g)
                count += 1
        assert count == 1 + 1 + 4 + 38 + 728 + 26704

    def test_random_connected_graphs(self):
        rng = random.Random(2101)
        for _ in range(400):
            g = random_connected_graph(rng.randint(4, 16), rng, rng.uniform(0.1, 0.7))
            assert_strong_split_tree(compute_qasst(g), g)

    def test_families(self):
        for n in range(1, 61):
            graphs = [path_graph(n), complete_graph(n), star_graph(n)]
            graphs += [cycle_graph(n)] if n >= 3 else []
            graphs += [complete_bipartite_graph(m, n - m) for m in {1, 2, n // 2} if 1 <= m < n]
            for g in graphs:
                assert_strong_split_tree(compute_qasst(g), g)

    def test_prime_cores_with_pendants_and_twins(self):
        rng = random.Random(2102)
        cores = [cycle_graph(5), cycle_graph(6), cycle_graph(9)]
        while len(cores) < 6:
            g = random_connected_graph(rng.randint(5, 8), rng, 0.5)
            if len(compute_qasst(g).quotients) == 1 and not is_distance_hereditary(g):
                cores.append(g)
        for core in cores:
            # One vertex of each kind at each core vertex, and one of each at every vertex at once.
            for anchor in range(1, core.n + 1):
                for kind in EXTENSION_KINDS:
                    g = extend_graph(core, kind, anchor)
                    assert_strong_split_tree(compute_qasst(g), g)
            for kind in EXTENSION_KINDS:
                g = core
                for anchor in range(1, core.n + 1):
                    g = extend_graph(g, kind, anchor)
                assert_strong_split_tree(compute_qasst(g), g)
            for _ in range(10):
                g = _hung(core, rng, rng.randint(1, 40))
                assert_strong_split_tree(compute_qasst(g), g)

    def test_replay_step_keeps_every_kind(self):
        # After every step the kinds the step keeps are what classify_quotient
        # reads, star centres included, from one vertex or from a prime core.
        rng = random.Random(2105)
        starts = [(SimpleGraph(1), random_dh(rng.randint(2, 40), rng.random())[1]) for _ in range(30)]
        starts += [(cycle_graph(n), []) for n in (5, 6, 7) for _ in range(5)]
        for g, trace in starts:
            q = compute_qasst(g)
            kinds = {i: classify_quotient(quot) for i, quot in q.quotients.items()}
            if not trace:
                trace = [(rng.choice(EXTENSION_KINDS), rng.randint(1, p - 1), p) for p in range(g.n + 1, 40)]
            for tag, a, p in trace:
                _extend(q, kinds, tag, a, p)
                assert kinds == {i: classify_quotient(quot) for i, quot in q.quotients.items()}

    def test_long_path_within_time_floor(self):
        # A floor, never to be loosened: splitting the whole path took 13-19.5 s.
        g = path_graph(6400)
        start = time.monotonic()
        q = compute_qasst(g)
        assert time.monotonic() - start < 10.0
        assert len(q.quotients) == 6398
