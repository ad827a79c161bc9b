"""Split decomposition, quotient trees, and distance-hereditary recognition."""

import functools
import hashlib
import itertools
import json
import random
import time
import tracemalloc

import pytest

from helpers import all_connected_graphs, random_connected_graph
from oracles import (
    assert_kinds_stored,
    assert_strong_split_tree,
    dh_definition_oracle,
    edge_kind,
    edge_kind_at,
    far_leaves,
    graph_by_paths,
    location_names,
    node_sort_key,
    normalized_by_relabelling,
    split_node_quotients,
    strong_split_sides,
)
from lcsplit.errors import MalformedQasstError, NotConnectedError
from lcsplit.families import (
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from lcsplit import cli
from lcsplit import qasst as qasst_module
from lcsplit.graphs import SimpleGraph, _bits, apply_sequence, induced_subgraph, local_complement, neighborhood
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
    to_json_text,
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


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWholeTreeReadsStaySmall:
    """Far sides are bitmasks from one rooted pass, and the key is the normalized JSON: no set per split-node."""

    def test_structure_key_of_a_long_path(self):
        q = compute_qasst(path_graph(4000))
        assert _peak_bytes(q.structure_key) < 50_000_000

    def test_is_strong_on_a_long_path(self):
        g = path_graph(4000)
        assert _peak_bytes(lambda: is_strong(g, set(range(1, 2001)), set(range(2001, 4001)))) < 50_000_000
        assert is_strong(g, set(range(1, 2001)), set(range(2001, 4001)))


class TestComputeQasst:
    def test_prime_cycle_is_single_quotient(self):
        q = compute_qasst(cycle_graph(5))
        assert len(q.quotients) == 1
        assert edge_kind(q.quotients[0])[0] == PRIME

    def test_bipartite_two_star_centers(self):
        q = compute_qasst(complete_bipartite_graph(2, 2))
        assert len(q.quotients) == 2
        for quot in q.quotients.values():
            s = next(iter(quot.split_nodes()))
            assert edge_kind_at(quot, s) == STAR_CENTER

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
                ka = edge_kind_at(q.quotients[q._where[sa]], sa)
                kb = edge_kind_at(q.quotients[q._where[sb]], sb)
                assert join_validity(ka, kb), (ka, kb)

    def test_strong_splits_invariant_under_lc(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_graph(rng.randint(4, 9), rng)
            sides = strong_split_sides(compute_qasst(g))
            h = apply_sequence(g, [rng.randint(1, g.n) for _ in range(4)])
            assert strong_split_sides(compute_qasst(h)) == sides


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
                assert sorted(map(id, renumbered.quotients.values())) == sorted(map(id, shuffled.quotients.values()))
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


def _count_quotients_made(monkeypatch) -> list:
    """Every ``QuotientGraph`` made from now on, appended to the list returned.

    A quotient is made by the constructor, by ``_of`` or by ``copy``, and
    none of the three calls another.
    """
    made = []
    of, copy, init = QuotientGraph._of, QuotientGraph.copy, QuotientGraph.__init__

    def counted_of(cls, *args, **kwargs):
        made.append(of(*args, **kwargs))
        return made[-1]

    def counted_copy(quot):
        made.append(copy(quot))
        return made[-1]

    def counted_init(quot, *args, **kwargs):
        init(quot, *args, **kwargs)
        made.append(quot)

    monkeypatch.setattr(QuotientGraph, "_of", classmethod(counted_of))
    monkeypatch.setattr(QuotientGraph, "copy", counted_copy)
    monkeypatch.setattr(QuotientGraph, "__init__", counted_init)
    return made


class TestNumberingWithoutRebuild:
    """``normalize`` renumbers and renames nothing; the writers name split-nodes by location."""

    @staticmethod
    def sample_trees():
        rng = random.Random(3201)
        for n in (5, 12, 30, 80):
            for seed in range(3):
                g = random_dh(n, seed)[0]
                q = compute_qasst(g)
                yield q
                yield lc_propagate(q, rng.randint(1, n))
                try:
                    yield induced_qasst(q, [v for v in range(1, n + 1) if v != rng.randint(1, n)])
                except NotConnectedError:
                    pass
        for k in (3, 5):
            yield compute_qasst(complete_multipartite_graph([2] * k))  # one leafless quotient
        for _ in range(20):
            yield compute_qasst(random_connected_graph(rng.randint(6, 14), rng, rng.uniform(0.1, 0.6)))

    def test_normalize_builds_no_quotient(self, monkeypatch):
        rng = random.Random(3202)
        trees = []
        for q in self.sample_trees():
            trees += [q, _shuffled(q, rng), Qasst(dict(reversed(list(q.quotients.items()))))]
        made = _count_quotients_made(monkeypatch)
        for tree in trees:
            before = list(tree.quotients.values())
            normalized = tree.normalize()
            assert made == []
            assert all(any(quot is old for old in before) for quot in normalized.quotients.values())
            assert len(normalized.quotients) == len(before)

    def test_compute_qasst_roots_the_tree_once(self, monkeypatch):
        rng = random.Random(3203)
        graphs = [complete_multipartite_graph([2, 2, 2]), path_graph(9), cycle_graph(9)]
        graphs += [random_dh(rng.randint(5, 40), rng.random())[0] for _ in range(20)]
        graphs += [random_connected_graph(rng.randint(6, 14), rng, rng.uniform(0.1, 0.6)) for _ in range(20)]
        calls = []
        orient = qasst_module._orient

        def counting(q, root=None):
            calls.append(root)
            return orient(q, root)

        monkeypatch.setattr(qasst_module, "_orient", counting)
        leafless = 0
        for g in graphs:
            calls.clear()
            q = compute_qasst(g)
            assert len(calls) == 1, g
            leafless += any(not quot.leaf_nodes() for quot in q.quotients.values())
        assert leafless >= 10  # trees whose numbering needs the rooted pass

    def test_replay_makes_one_quotient_per_split(self, monkeypatch):
        rng = random.Random(3204)
        graphs = [random_dh(rng.randint(5, 60), rng.random())[0] for _ in range(20)]
        graphs += [random_connected_graph(rng.randint(8, 16), rng, rng.uniform(0.1, 0.4)) for _ in range(20)]
        splits = 0
        for g in graphs:
            kernel, steps = qasst_module._prune(g)
            q = qasst_module._single_quotient(kernel)
            qasst_module._resplit(q)
            count = len(q.quotients)
            with monkeypatch.context() as patch:
                made = _count_quotients_made(patch)
                for tag, a, p in reversed(steps):
                    _extend(q, tag, a, p)
            assert len(made) == len(q.quotients) - count
            splits += len(made)
            assert reconstruct(q.normalize()) == g
        assert splits >= 300

    def test_tree_without_leaves_is_renumbered_in_place(self):
        s = SplitNode
        tree = Qasst({
            7: QuotientGraph([s(7, 3)]),
            3: QuotientGraph([s(3, 7), s(3, 5)], [(s(3, 7), s(3, 5))]),
            5: QuotientGraph([s(5, 3)]),
        })
        normalized = tree.normalize()  # validate refuses a tree without leaf-nodes; normalize does not
        assert list(normalized.quotients) == [0, 1, 2]
        assert sorted(map(id, normalized.quotients.values())) == sorted(map(id, tree.quotients.values()))
        assert normalized.leaves() == set() and normalized._fresh >= 8
        assert to_json_text(normalized) == to_json_text(normalized_by_relabelling(tree))

    @staticmethod
    def assert_written_as_relabelled(q):
        reference = normalized_by_relabelling(q)
        assert to_json_text(q) == to_json_text(reference)
        assert to_dot(q) == to_dot(reference)

    def test_writers_match_a_relabelled_tree_on_small_graphs(self):
        renamed = 0
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                q = compute_qasst(g)
                self.assert_written_as_relabelled(q)
                renamed += any(name != s for s, name in location_names(q).items())
        assert renamed >= 10_000  # trees whose labels are not their location names

    def test_writers_match_a_relabelled_tree_on_random_graphs(self):
        rng = random.Random(3205)
        kinds = {True: 0, False: 0}
        renamed = 0
        while min(kinds.values()) < 150:
            n = rng.randint(7, 18)
            if kinds[True] < 150:
                g = random_dh(n, rng.random())[0]
            else:
                g = random_connected_graph(n, rng, rng.uniform(0.1, 0.6))
            dh = is_distance_hereditary(g)
            if kinds[dh] == 150:
                continue
            kinds[dh] += 1
            q = compute_qasst(g)
            for tree in (q, lc_propagate(q, rng.randint(1, n)), _shuffled(q, rng)):
                self.assert_written_as_relabelled(tree)
            renamed += any(name != s for s, name in location_names(q).items())
        assert renamed >= 120


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


def _assert_keys_partition_alike(trees):
    """``structure_key``'s contract: two trees have equal keys iff their far-leaves keys are equal."""
    pairs = {(tree.structure_key(), _structure_key_by_far_leaves(tree)) for tree in trees}
    assert len({key for key, _ in pairs}) == len({far for _, far in pairs}) == len(pairs)


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
        trees = []
        for q in self.sample_trees():
            leafless_counts.append(sum(not quot.leaf_nodes() for quot in q.quotients.values()))
            for tree in (q, _shuffled(q, rng)):
                self.assert_normalize_matches(tree)
                assert strong_split_sides(tree) == {far_leaves(tree, s) for s, _ in tree.tree_edges()}
                trees.append(tree)
        assert sum(count >= 2 for count in leafless_counts) >= 5
        _assert_keys_partition_alike(trees)

    def test_reads_match_after_dynamic_ops(self):
        # lc_propagate and induced_qasst leave quotients unnumbered.
        rng = random.Random(93)
        keyed = []
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
                    self.assert_normalize_matches(tree)
                    keyed += [tree, _shuffled(tree, rng)]
        _assert_keys_partition_alike(keyed)

    @staticmethod
    def assert_normalize_matches(tree):
        normalized = tree.normalize()
        names = location_names(normalized)  # the names _normalized_by_far_leaves gives
        assert {i: quot.relabelled(names).adj for i, quot in normalized.quotients.items()} == _normalized_by_far_leaves(tree)

    def test_least_leaf_far_from_least_quotient(self):
        # normalize roots its pass at the least leaf's quotient; here that
        # quotient is three or more tree edges from the least-numbered one.
        rng = random.Random(94)
        far = {"induced": 0, "shuffled": 0}
        trees = []
        keyed = []
        for n, seed in itertools.product((80, 200), range(6)):
            q = compute_qasst(random_dh(n, seed)[0])
            for k in (1, 3):
                try:
                    trees.append(induced_qasst(q, range(k + 1, n + 1)))  # drops vertices 1..k
                except NotConnectedError:
                    pass
        for dropped in trees:
            for how, tree in (("induced", dropped), ("shuffled", _shuffled(dropped, rng))):
                tree.validate()
                order, up = qasst_module._orient(tree)  # rooted at the least-numbered quotient
                where = split_node_quotients(tree)
                depth = {order[0]: 0}
                for i in order[1:]:
                    depth[i] = depth[where[up[i].partner]] + 1
                far[how] += depth[tree.leaf_quotient(min(tree.leaves()))] >= 3
                self.assert_normalize_matches(tree)
                keyed.append(tree)
        assert min(far.values()) >= 5
        _assert_keys_partition_alike(keyed)

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
        shuffles = [_shuffled(tree, rng) for _ in range(20)]
        for t in [tree] + shuffles:
            self.assert_normalize_matches(t)
            assert to_json_dict(t) == to_json_dict(tree)
        _assert_keys_partition_alike([tree, *shuffles, compute_qasst(path_graph(10))])

    def test_tree_without_leaves(self):
        tree = Qasst({0: QuotientGraph([])})
        normalized = tree.normalize()
        assert normalized.quotients.keys() == {0}
        assert normalized.quotients[0].adj == {}
        assert normalized.leaves() == set()
        self.assert_normalize_matches(tree)
        _assert_keys_partition_alike([tree, Qasst({5: QuotientGraph([])}), Qasst({0: QuotientGraph([1])})])


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
        assert k3.kind == k3.kind_at(1) == COMPLETE
        star = QuotientGraph([1, 2, 3], [frozenset((1, 2)), frozenset((1, 3))])
        assert (star.kind, star.center) == (STAR, 1)
        assert star.kind_at(1) == STAR_CENTER
        assert star.kind_at(2) == STAR_SPOKE

    def test_join_validity_table(self):
        assert not join_validity(COMPLETE, COMPLETE)
        assert not join_validity(STAR_CENTER, STAR_SPOKE)
        assert not join_validity(STAR_SPOKE, STAR_CENTER)
        assert join_validity(STAR_CENTER, STAR_CENTER)
        assert join_validity(STAR_SPOKE, STAR_SPOKE)
        assert join_validity(COMPLETE, STAR_SPOKE)
        assert join_validity(PRIME, COMPLETE)


class TestQuotientConstructor:
    """``QuotientGraph(nodes, edges)`` refuses what the tree reader refuses, through the same loop."""

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_a_node_or_end_that_is_not_an_int_is_refused(self, bad):
        for nodes, edges in (([1, bad, 3], []), ([1, 2, 3], [(1, 2), (bad, 3)]), ([1, 2, 3], [(1, bad)])):
            with pytest.raises(TypeError) as info:
                QuotientGraph(nodes, edges)
            assert str(info.value) == f"expected an integer, got {bad!r}"

    def test_a_split_node_is_not_read_as_an_int(self):
        s = SplitNode(0, 1)
        assert QuotientGraph([1, s], [(1, s)]).kind == COMPLETE
        with pytest.raises(TypeError, match=r"^expected an integer, got \(0, 1\)$"):
            QuotientGraph([1, (0, 1)], [(1, s)])

    @pytest.mark.parametrize("nodes, edges, message", [
        ([1, 1, 2], [(1, 2)], "a quotient lists a node twice"),
        ([1, 2, 3], [(1, 2), (2, 1), (2, 3)], "a quotient lists an edge twice"),
        ([1, 2, 3], [(1, 2), (2, 3), (2, 3)], "a quotient lists an edge twice"),
        ([1, 2], [(1, 3)], "bad quotient edge {1, 3}"),
        ([1, 2], [(1, 1)], "bad quotient edge {1}"),
        ([1, 2, 3], [(1, 2, 3)], "bad quotient edge {1, 2, 3}"),
        ([1, SplitNode(0, 2)], [(1, SplitNode(0, 5))], "bad quotient edge {1, SplitNode(i=0, j=5)}"),
        ([1, 1], [(1, 3)], "a quotient lists a node twice"),  # a node listed twice is found first
        ([1, 2, 3], [(1, 2), (2, 1), (1, 4)], "bad quotient edge {1, 4}"),  # then a bad edge
    ])
    def test_refusals_in_order(self, nodes, edges, message):
        with pytest.raises(MalformedQasstError) as info:
            QuotientGraph(nodes, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("nodes, edges, kind, center, adj", [
        ([1], [], COMPLETE, None, {1: set()}),
        ([1, 2], [(2, 1)], COMPLETE, None, {1: {2}, 2: {1}}),
        ([1, 2], [], PRIME, None, {1: set(), 2: set()}),
        ([1, 2, 3, 4], [(1, 2), (3, 1), (1, 4)], STAR, 1, {1: {2, 3, 4}, 2: {1}, 3: {1}, 4: {1}}),
        ([1, 2, 3, 4], list(itertools.combinations(range(1, 5), 2)), COMPLETE, None,
         {1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}, 4: {1, 2, 3}}),
        ([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], PRIME, None,
         {1: {2, 5}, 2: {1, 3}, 3: {2, 4}, 4: {3, 5}, 5: {1, 4}}),
    ], ids=["K1", "K2", "two-nodes-no-edge", "star", "K4", "C5"])
    def test_kind_centre_and_adjacency(self, nodes, edges, kind, center, adj):
        for given in (edges, [frozenset(e) for e in edges]):
            quot = QuotientGraph(nodes, given)
            assert (quot.kind, quot.center, quot.adj, list(quot.nodes)) == (kind, center, adj, nodes)

    def test_a_complete_quotient_holds_no_sets(self):
        quot = QuotientGraph(range(1, 6), itertools.combinations(range(1, 6), 2))
        assert quot._adj == dict.fromkeys(range(1, 6))

    def test_the_reader_and_the_constructor_share_one_loop(self, monkeypatch):
        built = []
        build = QuotientGraph._build
        monkeypatch.setattr(QuotientGraph, "_build", lambda self, *args: built.append(args[-1]) or build(self, *args))
        QuotientGraph([1, 2], [(1, 2)])
        from_json_dict(to_json_dict(compute_qasst(path_graph(4))))
        assert built == ["a quotient", "quotient 0", "quotient 1"]


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
                edge_kind(quot)[0] != PRIME for quot in q.quotients.values()
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
        assert all(q.across(up[i]) in order[:order.index(i)] for i in order[1:])


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
        other = next(i for i, quot in twin.quotients.items() if s not in quot.nodes)
        quot = twin.quotients[other]
        twin.quotients[other] = QuotientGraph([*quot.nodes, s], quot.edges)
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

    def test_direct_writer_on_every_shape(self):
        # n = 1 lists no edge; one-quotient trees (n = 2, K_n, a star, C5)
        # list no split-node and no tree edge; the rest have several
        # quotients, one of them leafless, or arrive renumbered.
        one_quotient = [path_graph(1), path_graph(2), complete_graph(6), star_graph(5), cycle_graph(5)]
        trees = [compute_qasst(g) for g in one_quotient + [path_graph(7), complete_bipartite_graph(3, 4)]]
        trees.append(compute_qasst(random_dh(40, 3)[0]))
        trees.append(lc_propagate(trees[-1], 7))
        # Past the template cap (qasst._TEMPLATE_NODES), a prime kernel hung with
        # pendants and twins, and local complements of both.
        capped = [compute_qasst(g) for g in (complete_graph(20), star_graph(20), cycle_graph(20))]
        kernel = compute_qasst(_hung(cycle_graph(7), random.Random(33), 30))
        assert capped[2].quotients[0].kind == PRIME and any(quot.kind == PRIME for quot in kernel.quotients.values())
        trees += capped + [kernel, lc_propagate(kernel, 3), lc_propagate(capped[0], 1), lc_propagate(capped[1], 1)]
        split = compute_qasst(path_graph(9)).copy()
        split.split_off(split.leaf_quotient(5), {5})
        trees += [split, Qasst({})]
        for q in trees:
            assert to_json_text(q) == json.dumps(to_json_dict(q), indent=2, sort_keys=True)
        listed = [to_json_dict(q) for q in trees]
        assert [len(data["quotients"]) for data in listed[:5]] == [1] * 5
        assert all(data["tree_edges"] == [] and data["quotients"][0]["split_nodes"] == [] for data in listed[:5])
        assert listed[0]["quotients"][0]["edges"] == [] and listed[-1]["quotients"] == []
        assert any(not quot["leaf_nodes"] for data in listed for quot in data["quotients"])

    def test_template_cache_is_bounded(self, monkeypatch):
        from test_output_digest import _graphs

        build = qasst_module._template.__wrapped__
        maxsize = qasst_module._template.cache_info().maxsize
        monkeypatch.setattr(qasst_module, "_template", functools.lru_cache(maxsize=maxsize)(build))
        shapes = set()
        for g in itertools.chain(_graphs(), [complete_graph(20)]):
            q = compute_qasst(g)
            to_json_text(q)
            shapes |= {
                (kind, len(leaves), len(js), detail) for kind, leaves, _, js, detail in qasst_module._listing(q)[0]
                if 0 < len(leaves) + len(js) <= qasst_module._TEMPLATE_NODES
            }
        kept = qasst_module._template.cache_info().currsize
        assert 0 < kept == len(shapes) <= maxsize
        # Past the bound shapes go, and what is written stays the same.
        monkeypatch.setattr(qasst_module, "_template", functools.lru_cache(maxsize=5)(build))
        for g in (random_dh(60, 5)[0], complete_graph(7), star_graph(9)):
            q = compute_qasst(g)
            assert to_json_text(q) == json.dumps(to_json_dict(q), indent=2, sort_keys=True)
            assert qasst_module._template.cache_info().currsize == 5

    def test_dot_output(self):
        dot = to_dot(compute_qasst(path_graph(4)))
        assert dot.startswith("graph") and "shape=box" in dot

    @pytest.mark.parametrize("where", ["edge", "tree_edges"])
    @pytest.mark.parametrize("end, message", [
        ({"i": True, "j": 1}, "TypeError: expected an integer, got True"),
        ({"j": 1}, "KeyError: 'i'"),
        ({"i": 1, "j": "2"}, "TypeError: expected an integer, got '2'"),
        ({"i": "x"}, "TypeError: expected an integer, got 'x'"),  # i is checked before j is read
    ])
    def test_malformed_split_node_end(self, where, end, message):
        data = to_json_dict(compute_qasst(path_graph(4)))
        if where == "edge":
            data["quotients"][0]["edges"][1][1] = end  # [2, s_0^1]
        else:
            data["tree_edges"][0][0] = end
        with pytest.raises(MalformedQasstError) as info:
            from_json_dict(data)
        assert str(info.value) == f"malformed QASST JSON: {message}"

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


def _has_split(adj, n):
    """Whether a graph on local nodes 0..n-1 has a nontrivial split, by brute force."""
    return any(2 <= a.bit_count() <= n - 2 for a in _all_split_masks(adj, (1 << n) - 1))


def _wheel(k):
    """Hub 1 joined to the cycle 2..k: a universal node of degree k - 1 above the rim's 3."""
    rim = list(range(2, k + 1))
    return SimpleGraph(k, [(1, v) for v in rim] + [(v, v + 1) for v in rim[:-1]] + [(2, k)])


def _planted_split(rng, k):
    """Two random connected parts joined across random frontiers, relabelled at random."""
    a = rng.randint(2, k - 2)
    left = random_connected_graph(a, rng, rng.uniform(0.2, 0.7))
    right = random_connected_graph(k - a, rng, rng.uniform(0.2, 0.7))
    edges = list(left.edges()) + [(x + a, y + a) for x, y in right.edges()]
    near = rng.sample(range(1, a + 1), rng.randint(1, a))
    far = rng.sample(range(a + 1, k + 1), rng.randint(1, k - a))
    edges += [(x, y) for x in near for y in far]
    perm = dict(zip(range(1, k + 1), rng.sample(range(1, k + 1), k)))
    return SimpleGraph(k, [(perm[x], perm[y]) for x, y in edges])


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
                if join_validity(edge_kind_at(pieces[j], x), edge_kind_at(pieces[i], y))
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
        graphs += [complete_graph(k) for k in range(4, 9)]
        graphs += [_wheel(k) for k in range(5, 10)]
        for g in graphs:
            adj, full = _bit_adjacency(g), (1 << g.n) - 1
            side = _split_side(adj, g.n)
            assert bool(side) == _has_split(adj, g.n), g.edges()
            if side:
                assert 2 <= side.bit_count() <= g.n - 2
                assert _mask_is_split(adj, side, full ^ side)
        for k in range(5, 21):
            assert _split_side(_bit_adjacency(cycle_graph(k)), k) == 0, k
        rng = random.Random(504)
        for _ in range(200):
            g = _planted_split(rng, rng.randint(10, 18))
            adj, full = _bit_adjacency(g), (1 << g.n) - 1
            side = _split_side(adj, g.n)
            assert 2 <= side.bit_count() <= g.n - 2, g.edges()
            assert _mask_is_split(adj, side, full ^ side)

    def test_finder_closes_at_most_k_seeds(self, monkeypatch):
        # v0 of least degree against each non-neighbour, the least
        # non-neighbour z against v0, {v0, z} against each neighbour.
        calls = []
        close = qasst_module._close_side
        monkeypatch.setattr(qasst_module, "_close_side", lambda *args: calls.append(1) or close(*args))
        rng = random.Random(505)
        primes = [cycle_graph(k) for k in range(5, 21)]
        while len(primes) < 16 + 50:
            g = random_connected_graph(rng.randint(5, 12), rng, rng.uniform(0.3, 0.7))
            if not _has_split(_bit_adjacency(g), g.n):
                primes.append(g)
        for g in primes:
            calls.clear()
            assert _split_side(_bit_adjacency(g), g.n) == 0
            assert len(calls) <= g.n, (g.n, len(calls), g.edges())

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
            if len(tree.quotients) == 1 and edge_kind(tree.quotients[0])[0] == PRIME:
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
            assert edge_kind(q.quotients[0])[0] == PRIME
            assert reconstruct(q) == g
        rng = random.Random(60)
        g = random_connected_graph(60, rng, 0.1)
        q = compute_qasst(g)
        q.validate()
        assert reconstruct(q) == g
        # The tree does not depend on the vertex order the split search sees.
        perm = dict(zip(range(1, 61), rng.sample(range(1, 61), 60)))
        h = SimpleGraph(60, [(perm[u], perm[v]) for u, v in g.edges()])
        sides = {frozenset(perm[v] for v in side) for side in strong_split_sides(q)}
        assert strong_split_sides(compute_qasst(h)) == sides
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
            normalized = q.normalize()
            names = location_names(normalized)
            for i, quot in normalized.quotients.items():
                edges = data["quotients"][i]["edges"]
                as_nodes = [
                    [SplitNode(v["i"], v["j"]) if isinstance(v, dict) else v for v in e]
                    for e in edges
                ]
                assert f"edges={as_nodes})" in repr(quot.relabelled(names))
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
        # After every step each quotient stores the kind its edges read, star
        # centres included, from one vertex or from a prime core.
        rng = random.Random(2105)
        starts = [(SimpleGraph(1), random_dh(rng.randint(2, 40), rng.random())[1]) for _ in range(30)]
        starts += [(cycle_graph(n), []) for n in (5, 6, 7) for _ in range(5)]
        for g, trace in starts:
            q = compute_qasst(g)
            if not trace:
                trace = [(rng.choice(EXTENSION_KINDS), rng.randint(1, p - 1), p) for p in range(g.n + 1, 40)]
            for tag, a, p in trace:
                _extend(q, tag, a, p)
                assert_kinds_stored(q)

    def test_long_path_within_time_floor(self):
        # A floor, never to be loosened: splitting the whole path took 13-19.5 s.
        g = path_graph(6400)
        start = time.monotonic()
        q = compute_qasst(g)
        assert time.monotonic() - start < 10.0
        assert len(q.quotients) == 6398


class TestReconstructByPaths:
    """``reconstruct`` reads the graph off the accessibility fold; the path oracle walks it path by path."""

    @staticmethod
    def _same(q, g):
        assert reconstruct(q) == graph_by_paths(q) == g

    def test_every_connected_graph_up_to_six_and_one_local_complement(self):
        for n in range(1, 7):
            for k, g in enumerate(all_connected_graphs(n)):
                q = compute_qasst(g)
                self._same(q, g)
                v = k % n + 1
                self._same(lc_propagate(q, v), local_complement(g, v))

    def test_split_off_pieces_of_complete_and_star_quotients(self):
        kinds = set()
        for g in (complete_graph(6), star_graph(6), complete_bipartite_graph(3, 4), random_dh(30, 5)[0]):
            q = compute_qasst(g)
            for i, quot in q.quotients.items():
                if quot.kind == PRIME or len(quot.nodes) < 4:
                    continue
                kinds.add(quot.kind)
                nodes = sorted(quot.nodes, key=lambda v: (v == quot.center, node_sort_key(v)))
                for side in (nodes[:2], nodes[-2:]):  # two spokes, or a spoke and the centre
                    derived = q.copy()
                    derived.split_off(i, side)
                    self._same(derived, g)
        assert kinds == {COMPLETE, STAR}

    def test_one_and_two_node_quotients_left_by_remove_node(self):
        small = set()
        for g in (path_graph(7), complete_bipartite_graph(2, 4), random_dh(25, 8)[0], random_dh(25, 9)[0]):
            q = compute_qasst(g).copy()
            for n in range(g.n, 1, -1):
                q._edit(q._home.pop(n)).remove_node(n)
                self._same(q, induced_subgraph(g, range(1, n))[0])
                small |= {len(quot.nodes) for quot in q.quotients.values()} & {1, 2}
        assert small == {1, 2}

    def test_merged_trees(self):
        for g in (path_graph(8), random_dh(20, 3)[0], _hung(cycle_graph(6), random.Random(4), 12)):
            q = compute_qasst(g)
            for s, _ in q.tree_edges():
                derived = q.copy()
                derived.merge(s)
                self._same(derived, g)
            merged = q.copy()
            for s, _ in q.tree_edges():
                merged.merge(s)
            assert len(merged.quotients) == 1
            self._same(merged, g)

    def test_seeded_random_and_prime_kernel_trees(self):
        rng = random.Random(2500)
        primes = 0
        for _ in range(60):
            n = rng.randint(2, 40)
            g = random_dh(n, rng.random())[0] if rng.random() < 0.5 else _hung(
                random_connected_graph(min(n, rng.randint(4, 9)), rng, rng.uniform(0.3, 0.6)), rng, max(0, n - 9))
            q = compute_qasst(g)
            self._same(q, g)
            v = rng.randint(1, g.n)
            self._same(lc_propagate(q, v), local_complement(g, v))
            primes += any(quot.kind == PRIME for quot in q.quotients.values())
        assert primes >= 10

    def test_reads_the_tree_without_merging_or_copying(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reconstruct edited a tree")

        trees = [compute_qasst(g) for g in (path_graph(9), complete_graph(5), cycle_graph(6), random_dh(30, 1)[0])]
        monkeypatch.setattr(Qasst, "merge", refuse)
        monkeypatch.setattr(Qasst, "copy", refuse)
        for q in trees:
            assert reconstruct(q) == graph_by_paths(q)

    def test_path_of_twenty_thousand_within_two_seconds(self):
        g = path_graph(20000)
        q = compute_qasst(g)
        start = time.perf_counter()
        got = reconstruct(q)
        elapsed = time.perf_counter() - start
        assert got == g
        assert elapsed < 2, elapsed


class TestSplitOffOneNode:
    def test_moving_one_node_of_a_prime_quotient_reads_no_kind_of_the_rest(self, monkeypatch):
        # The rest is the same graph with the node renamed s_0^1, so it stays prime unread.
        q = Qasst({0: QuotientGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])})
        settled = []
        settle = QuotientGraph._settle

        def counting(quot):
            settled.append(quot)
            settle(quot)

        monkeypatch.setattr(QuotientGraph, "_settle", counting)
        m = q.split_off(0, [1])
        rest, piece = q.quotients[0], q.quotients[m]
        assert settled == [piece]
        assert rest.kind == PRIME
        s = SplitNode(0, m)
        assert rest.edges == {frozenset(e) for e in ((s, 2), (2, 3), (3, 4), (4, 5), (5, s))}
        assert piece.kind == COMPLETE and set(piece.nodes) == {1, SplitNode(m, 0)}
