"""Dynamic quotient-tree updates: LC propagation, induction, extensions."""

import itertools
import json
import random
import time

import pytest

from helpers import all_connected_graphs, graphs_up_to_isomorphism, random_connected_graph
from oracles import split_node_quotients
from lcsplit.errors import InvalidVertexError, MalformedQasstError, NotConnectedError
from lcsplit.families import clique_star_graph, complete_graph, cycle_graph, path_graph, star_graph
from lcsplit.graphs import (
    SimpleGraph,
    induced_subgraph,
    is_connected,
    local_complement,
    neighborhood,
)
from lcsplit.qasst import (
    COMPLETE,
    PRIME,
    STAR,
    SplitNode,
    classify_quotient,
    compute_qasst,
    compute_qasst_by_splits,
    from_json_dict,
    node_sort_key,
    reconstruct,
    to_json_dict,
)
from lcsplit.qasst_ops import (
    EXTENSION_KINDS,
    FALSE_TWIN,
    PENDANT,
    TRUE_TWIN,
    ExtensionKind,
    extend,
    extend_graph,
    extension_subcase,
    induced_qasst,
    lc_propagate,
    random_dh,
)


class TestLcPropagate:
    def test_matches_graph_level_lc(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_connected_graph(rng.randint(3, 10), rng, rng.uniform(0.2, 0.8))
            q = compute_qasst(g)
            v = rng.randint(1, g.n)
            out = lc_propagate(q, v)
            out.validate()
            assert reconstruct(out) == local_complement(g, v)
            # Structure matches a fresh decomposition of the image.
            fresh = compute_qasst(local_complement(g, v))
            assert out.structure_key() == fresh.structure_key()

    @pytest.mark.parametrize(
        "g",
        [star_graph(120), complete_graph(60), clique_star_graph((40, 40, 40), 1)],
        ids=["star120", "complete60", "clique_star40x3"],
    )
    def test_large_star_and_complete_quotients(self, g):
        q = compute_qasst(g)
        for v in range(1, g.n + 1):
            assert reconstruct(lc_propagate(q, v)) == local_complement(g, v), v

    def test_double_propagation_is_identity(self):
        g = cycle_graph(6)
        q = compute_qasst(g)
        out = lc_propagate(lc_propagate(q, 2), 2)
        assert out.structure_key() == q.structure_key()

    def test_rejects_non_leaf(self):
        q = compute_qasst(path_graph(4))
        with pytest.raises(InvalidVertexError, match="vertex 9 is not a leaf-node of any quotient"):
            lc_propagate(q, 9)


def _relabel_leaves(q, mapping):
    """Rename a tree's leaf-nodes through new -> old ``mapping``."""
    from lcsplit.qasst import Qasst, QuotientGraph, SplitNode

    def rn(node):
        return node if isinstance(node, SplitNode) else mapping[node]

    return Qasst(
        {
            i: QuotientGraph(
                (rn(v) for v in quot.nodes),
                (frozenset(rn(v) for v in e) for e in quot.edges),
            )
            for i, quot in q.quotients.items()
        }
    )


class TestInducedQasst:
    def test_matches_recomputation(self):
        rng = random.Random(37)
        done = 0
        while done < 60:
            g, _ = random_dh(rng.randint(4, 12), rng.random())
            keep = sorted(
                v for v in range(1, g.n + 1) if rng.random() < 0.7
            ) or [1]
            sub, mapping = induced_subgraph(g, keep)
            if not is_connected(sub):
                continue
            q = induced_qasst(compute_qasst(g), keep)
            q.validate()
            want = _relabel_leaves(compute_qasst(sub), mapping)
            assert q.structure_key() == want.structure_key()
            done += 1

    def test_keep_everything_is_identity(self):
        g, _ = random_dh(8, 3)
        q = compute_qasst(g)
        out = induced_qasst(q, range(1, 9))
        assert out.structure_key() == q.structure_key()

    def test_rejects_disconnected_keep(self):
        q = compute_qasst(path_graph(5))
        with pytest.raises(NotConnectedError):
            induced_qasst(q, [1, 5])

    def test_rejects_bad_vertices(self):
        q = compute_qasst(path_graph(5))
        with pytest.raises(InvalidVertexError):
            induced_qasst(q, [1, 2, 9])
        with pytest.raises(ValueError):
            induced_qasst(q, [])

    def test_induced_tree_can_be_induced_again(self):
        q = compute_qasst(path_graph(4))
        twice = induced_qasst(induced_qasst(q, [2, 3, 4]), [2, 3])
        assert twice.structure_key() == induced_qasst(q, [2, 3]).structure_key()

    def test_chained_induce_matches_one_shot(self):
        # Labels outside 1..k survive the first induce; the second must accept them.
        rng = random.Random(707)
        for trial in range(60):
            n = rng.randint(6, 40)
            if trial % 2:
                g, _ = random_dh(n, rng.random())
            else:
                g = random_connected_graph(n, rng, rng.uniform(0.05, 0.3))
            first = _connected_subset(g, rng.randint(2, n - 1), range(1, n + 1), rng)
            final = _connected_subset(g, rng.randint(1, len(first) - 1), first, rng)
            q = compute_qasst(g)
            chained = induced_qasst(induced_qasst(q, first), final)
            chained.validate()
            one_shot = induced_qasst(q, final)
            assert chained.structure_key() == one_shot.structure_key()
            assert to_json_dict(chained) == to_json_dict(one_shot)


def _connected_subset(g, size, within, rng):
    """A random vertex set of ``size`` inducing a connected subgraph of g inside ``within``."""
    pool = set(within)
    grown = {rng.choice(sorted(pool))}
    while len(grown) < size:
        frontier = sorted(
            v for v in pool - grown if any(g.has_edge(u, v) for u in grown)
        )
        grown.add(rng.choice(frontier))
    return sorted(grown)


def _graph_says_connected(q, keep):
    """Reference: rebuild the graph and test its induced subgraph."""
    sub, _ = induced_subgraph(reconstruct(q), keep)
    return is_connected(sub)


def _tree_says_connected(q, keep):
    try:
        induced_qasst(q, keep)
    except NotConnectedError:
        return False
    return True


def _connected_without(g, v):
    """Whether g minus vertex v is connected, by a search over neighbourhood bitmasks."""
    rest = ((1 << (g.n + 1)) - 2) & ~(1 << v)
    seen = todo = rest & -rest
    while todo:
        low = todo & -todo
        new = g.neighborhood_mask(low.bit_length() - 1) & rest & ~seen
        seen |= new
        todo = (todo ^ low) | new
    return seen == rest


class TestConnectivityFromTree:
    """``induced_qasst`` refuses exactly the keep sets whose induced graph is disconnected."""

    def test_every_keep_set_of_small_graphs(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                q = compute_qasst(g)
                for r in range(1, n + 1):
                    for keep in itertools.combinations(range(1, n + 1), r):
                        assert _tree_says_connected(q, keep) == _graph_says_connected(q, keep), (g, keep)

    def test_random_graphs_and_keep_sets(self):
        rng = random.Random(606)
        outcomes = []
        for trial in range(320):
            n = rng.randint(6, 14)
            if trial % 2:
                g, _ = random_dh(n, rng.random())
            else:
                g = random_connected_graph(n, rng, rng.uniform(0.05, 0.5))
            q = compute_qasst(g)
            for _ in range(6):
                keep = rng.sample(range(1, n + 1), rng.randint(1, n))
                want = _graph_says_connected(q, keep)
                assert _tree_says_connected(q, keep) == want, (g, keep)
                outcomes.append(want)
        assert outcomes.count(False) >= 300 and outcomes.count(True) >= 300

    def test_malformed_tree_is_refused(self):
        # Validation used to come with rebuilding the graph; it must stay.
        def broken(edit):
            q = compute_qasst(path_graph(6))
            edit(q)
            return q

        def unmatched(q):
            _, t = q.tree_edges()[0]
            q.quotients[t.i].remove_node(t)

        def vertex_twice(q):
            q.quotients[max(q.quotients)].adj[1] = set()

        def paired_with_itself(q):
            q.quotients[0].adj[SplitNode(0, 0)] = set()

        for edit, message in (
            (unmatched, "is unmatched"),
            (vertex_twice, "appears in two quotients"),
            (paired_with_itself, "paired with itself"),
        ):
            with pytest.raises(MalformedQasstError, match=message):
                induced_qasst(broken(edit), [1, 2, 3])

    def test_deletions_from_large_tree_within_time_floor(self):
        # A floor, never to be loosened.
        g, _ = random_dh(3000, 0)
        q = compute_qasst(g)
        start = time.monotonic()
        refused = []
        for v in range(1, 41):
            try:
                induced_qasst(q, [u for u in range(1, g.n + 1) if u != v])
            except NotConnectedError:
                refused.append(v)
        assert time.monotonic() - start < 10.0
        assert 0 < len(refused) < 40
        assert refused == [v for v in range(1, 41) if not _connected_without(g, v)]


class TestExtend:
    def test_graph_level_extensions(self):
        g = path_graph(3)
        assert extend_graph(g, PENDANT, 3) == SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])
        ft = extend_graph(g, FALSE_TWIN, 2)
        assert neighborhood(ft, 4) == {1, 3}
        tt = extend_graph(g, TRUE_TWIN, 2)
        assert neighborhood(tt, 4) == {1, 2, 3}

    def test_commutes_with_reconstruction(self):
        rng = random.Random(41)
        for _ in range(100):
            g, _ = random_dh(rng.randint(2, 10), rng.random())
            q = compute_qasst(g)
            anchor = rng.randint(1, g.n)
            kind = rng.choice(EXTENSION_KINDS)
            if kind == FALSE_TWIN and not neighborhood(g, anchor):
                kind = PENDANT
            out = extend(q, ExtensionKind(kind, anchor), g.n + 1)
            out.validate()
            assert reconstruct(out) == extend_graph(g, kind, anchor)

    def test_all_twelve_subcases_reachable(self):
        rng = random.Random(43)
        seen: dict[str, int] = {}
        trials = 0
        want = {f"{shape}{letter}" for shape in "123" for letter in "abc"}
        while trials < 4000 and not want <= set(seen):
            g, _ = random_dh(rng.randint(4, 11), rng.random())
            q = compute_qasst(g)
            anchor = rng.randint(1, g.n)
            kind = rng.choice(EXTENSION_KINDS)
            if kind == FALSE_TWIN and not neighborhood(g, anchor):
                kind = PENDANT
            e = ExtensionKind(kind, anchor)
            out, subcase = extend(q, e, g.n + 1), extension_subcase(q, e)
            assert reconstruct(out) == extend_graph(g, kind, anchor), subcase
            seen[subcase] = seen.get(subcase, 0) + 1
            trials += 1
        assert want <= set(seen), f"missing subcases: {want - set(seen)}"

    def test_prime_subcases(self):
        for n in (5, 6, 7):
            g = cycle_graph(n)
            q = compute_qasst(g)
            for anchor in range(1, n + 1):
                for kind, want in ((PENDANT, "4a"), (FALSE_TWIN, "4b"), (TRUE_TWIN, "4c")):
                    e = ExtensionKind(kind, anchor)
                    out, subcase = extend(q, e, n + 1), extension_subcase(q, e)
                    assert subcase == want
                    assert reconstruct(out) == extend_graph(g, kind, anchor)

    def test_every_tag_at_every_anchor_shape_equals_the_decomposition(self):
        # extend is the step compute_qasst replays; on a copy of any strong
        # split tree it gives, byte for byte, the extended graph's tree.
        rng = random.Random(2103)
        graphs = [SimpleGraph(1), path_graph(2), path_graph(3), complete_graph(4), star_graph(4)]
        graphs += [cycle_graph(5), cycle_graph(6)]
        graphs += [random_dh(rng.randint(4, 30), rng.random())[0] for _ in range(30)]
        graphs += [random_connected_graph(rng.randint(5, 12), rng, rng.uniform(0.15, 0.5)) for _ in range(20)]
        seen = set()
        for g in graphs:
            q = compute_qasst(g)
            for anchor, kind in itertools.product(range(1, g.n + 1), EXTENSION_KINDS):
                e = ExtensionKind(kind, anchor)
                if kind == FALSE_TWIN and not neighborhood(g, anchor):
                    with pytest.raises(NotConnectedError, match="false twin of an isolated vertex"):
                        extend(q, e, g.n + 1)
                    continue
                out = extend(q, e, g.n + 1)
                want = compute_qasst(extend_graph(g, kind, anchor))
                assert to_json_dict(out) == to_json_dict(want), (g.edges(), kind, anchor)
                assert out.structure_key() == want.structure_key() and out._checked
                seen.add(extension_subcase(q, e))
        shapes = {f"{shape}{tag}" for shape in "1234" for tag in "abc"}
        assert seen == shapes | {"degenerate-1", "degenerate-2"}

    def test_rejects_wrong_new_vertex(self):
        # A label the tree holds, one below 1, or no int at all.
        q = compute_qasst(path_graph(3))
        for p in (3, 0, -2, "4", 4.0, True):
            with pytest.raises(InvalidVertexError, match="new vertex must be a positive integer"):
                extend(q, ExtensionKind(PENDANT, 1), p)

    def test_any_absent_label_is_a_new_vertex(self):
        # The induced tree on 2..5 already holds n + 1 = 5; it takes 9 instead.
        q = induced_qasst(compute_qasst(path_graph(5)), [2, 3, 4, 5])
        for kind in EXTENSION_KINDS:
            out = extend(q, ExtensionKind(kind, 5), 9)
            out.validate()
            g = extend_graph(path_graph(4), kind, 4)
            want = _relabel_leaves(compute_qasst(g), {1: 2, 2: 3, 3: 4, 4: 5, 5: 9})
            assert to_json_dict(out) == to_json_dict(want)

    def test_rejects_absent_anchor(self):
        # An absent vertex is a caller's mistake, not a broken tree.
        q = compute_qasst(path_graph(4))
        with pytest.raises(InvalidVertexError, match="vertex 9 is not a leaf-node of any quotient"):
            extend(q, ExtensionKind(PENDANT, 9), 5)


class TestInputUnchanged:
    def test_operations_leave_input_tree_alone(self):
        rng = random.Random(47)
        for trial in range(60):
            if trial % 2:
                g = random_connected_graph(rng.randint(3, 9), rng, rng.uniform(0.2, 0.8))
            else:
                g, _ = random_dh(rng.randint(3, 12), rng.random())
            q = compute_qasst(g)
            before = (to_json_dict(q), repr(q))
            v = rng.randint(1, g.n)
            lc_propagate(q, v)
            for kind in EXTENSION_KINDS:
                if kind == FALSE_TWIN and not neighborhood(g, v):
                    continue
                extend(q, ExtensionKind(kind, v), g.n + 1)
                extension_subcase(q, ExtensionKind(kind, v))
            keep = [u for u in range(1, g.n + 1) if u != v]
            if is_connected(induced_subgraph(g, keep)[0]):
                induced_qasst(q, keep)
            assert (to_json_dict(q), repr(q)) == before


class TestRandomDh:
    def test_reproducible_and_dh(self):
        from lcsplit.qasst import is_distance_hereditary

        g1, t1 = random_dh(10, 99)
        g2, t2 = random_dh(10, 99)
        assert g1 == g2 and t1 == t2
        assert is_distance_hereditary(g1)
        assert is_connected(g1)

    def test_trace_replays(self):
        g, trace = random_dh(9, 5)
        cur = SimpleGraph(1)
        for kind, anchor, new in trace:
            cur = extend_graph(cur, kind, anchor)
            assert cur.n == new
        assert cur == g

    def test_extension_replay_matches_decomposition(self):
        # An independent construction of large DH trees: one extension at a
        # time from the one-vertex tree, against split-and-reduce.
        for n in (30, 100, 300):
            for seed in range(3):
                g, trace = random_dh(n, seed)
                q = compute_qasst(SimpleGraph(1))
                for kind, anchor, new in trace:
                    q = extend(q, ExtensionKind(kind, anchor), new)
                want = compute_qasst(g)
                assert q.structure_key() == want.structure_key()
                assert to_json_dict(q) == to_json_dict(want)

    def test_large_dh_within_time_floor(self):
        # A floor, never to be loosened.
        for seed in range(2):
            g, _ = random_dh(1000, seed)
            start = time.monotonic()
            q = compute_qasst(g)
            assert time.monotonic() - start < 10.0
            assert reconstruct(q) == g


class TestInducedQasstNonDh:
    """Deletions from non-DH trees, against the reference decomposition of the induced graph."""

    @staticmethod
    def assert_matches_oracle(q, g, keep):
        sub, mapping = induced_subgraph(g, keep)
        out = induced_qasst(q, keep)
        out.validate()
        want = _relabel_leaves(compute_qasst_by_splits(sub), mapping)
        assert out.structure_key() == want.structure_key()
        assert to_json_dict(out) == to_json_dict(want)

    def test_single_vertex_deletions(self):
        rng = random.Random(404)
        for _ in range(60):
            g = random_connected_graph(rng.randint(7, 9), rng, rng.uniform(0.2, 0.6))
            q = compute_qasst(g)
            for v in range(1, g.n + 1):
                keep = [u for u in range(1, g.n + 1) if u != v]
                if is_connected(induced_subgraph(g, keep)[0]):
                    self.assert_matches_oracle(q, g, keep)

    def test_multi_vertex_deletions(self):
        # Deleting several vertices can empty a whole subtree; its remains
        # are merged away before the touched prime quotients are re-split.
        rng = random.Random(405)
        done = 0
        while done < 150:
            g = random_connected_graph(rng.randint(7, 11), rng, rng.uniform(0.15, 0.5))
            keep = sorted(rng.sample(range(1, g.n + 1), rng.randint(2, g.n - 1)))
            if is_connected(induced_subgraph(g, keep)[0]):
                self.assert_matches_oracle(compute_qasst(g), g, keep)
                done += 1



def _snapshot(q):
    return to_json_dict(q), repr(q)


def _complemented(q, v):
    """The quotients an LC at v reaches: across each split-node adjacent to the node entered."""
    start = next(i for i, quot in q.quotients.items() if v in quot.adj)
    out, todo = set(), [(start, v)]
    while todo:
        i, node = todo.pop()
        out.add(i)
        todo += [(s.j, s.partner) for s in q.quotients[i].adj[node] if isinstance(s, SplitNode)]
    return out


class TestSharedQuotients:
    """A derived tree shares every quotient its op leaves unchanged."""

    @pytest.fixture(scope="class")
    def big(self):
        g, _ = random_dh(2000, 1)
        return g, compute_qasst(g)

    def test_lc_copies_exactly_the_complemented_quotients(self, big):
        g, q = big
        for v in (1, 2, 777, 1500, 2000):
            want = _complemented(q, v)
            out = lc_propagate(q, v)
            assert out.quotients.keys() == q.quotients.keys()
            assert {i for i in q.quotients if out.quotients[i] is not q.quotients[i]} == want
            assert len(want) < len(q.quotients)

    def test_extend_copies_only_the_anchor_quotient(self, big):
        g, q = big
        for kind in EXTENSION_KINDS:
            for anchor in (1, 999, 2000):
                home = q.leaf_quotient(anchor)
                out = extend(q, ExtensionKind(kind, anchor), g.n + 1)
                assert out.quotients[home] is not q.quotients[home]
                assert all(out.quotients[i] is quot for i, quot in q.quotients.items() if i != home)

    def test_one_vertex_induce_shares_most_quotients(self, big):
        g, q = big
        done = 0
        for v in range(1, g.n + 1, 97):
            if not _connected_without(g, v):
                continue
            out = induced_qasst(q, [u for u in range(1, g.n + 1) if u != v])
            shared = sum(out.quotients.get(i) is quot for i, quot in q.quotients.items())
            assert shared > 0.9 * len(q.quotients)
            done += 1
        assert done >= 10


class TestDerivedTreesStayApart:
    """Edits to a tree never show in the trees it shares quotients with."""

    def test_chain_of_ops_leaves_every_tree_alone(self, monkeypatch):
        from lcsplit.qasst import Qasst

        calls = {"merge": 0, "split_off": 0}
        in_induce = dict(calls)
        for name in calls:
            def counted(self, *args, _name=name, _fn=getattr(Qasst, name)):
                calls[_name] += 1
                return _fn(self, *args)
            monkeypatch.setattr(Qasst, name, counted)

        rng = random.Random(808)
        for trial in range(8):
            if trial % 2:
                g = random_connected_graph(rng.randint(10, 16), rng, rng.uniform(0.15, 0.4))
            else:
                g, _ = random_dh(rng.randint(10, 30), rng.random())
            chain = [compute_qasst(g)]
            snapshots = [_snapshot(chain[0])]
            while len(chain) < 25:
                cur = chain[-1]
                leaves = sorted(cur.leaves())
                step = len(chain) % 3
                if step == 0:
                    nxt = lc_propagate(cur, rng.choice(leaves))
                elif step == 1 or len(leaves) < 6:
                    kind = rng.choice(EXTENSION_KINDS)
                    nxt = extend(cur, ExtensionKind(kind, rng.choice(leaves)), leaves[-1] + 1)
                else:
                    drop = rng.sample(leaves, rng.randint(1, 3))
                    before = dict(calls)
                    try:
                        nxt = induced_qasst(cur, [u for u in leaves if u not in drop])
                    except NotConnectedError:
                        continue
                    for name in calls:
                        in_induce[name] += calls[name] - before[name]
                nxt.validate()
                chain.append(nxt)
                snapshots.append(_snapshot(nxt))
            assert [_snapshot(t) for t in chain] == snapshots
        # Deletions merged quotients and split them again.
        assert in_induce["merge"] > 0 and in_induce["split_off"] > 0

    @staticmethod
    def _round_trips(q, rng):
        """Edit q in place and back, yielding after each edit: a merge and its split, then a split and its merge.

        The second round trip splits two non-centre nodes off a complete or
        star quotient of four or more nodes, when the tree has one.
        """
        s = rng.choice(q.tree_edges())[0]
        where = split_node_quotients(q)
        side = q.quotients[where[s.partner]].adj.keys() - {s.partner}
        q.merge(s)
        yield
        q.split_off(where[s], side)
        yield
        roomy = sorted(
            i for i, quot in q.quotients.items()
            if len(quot.adj) >= 4 and classify_quotient(quot).kind != PRIME
        )
        if roomy:
            i = rng.choice(roomy)
            center = classify_quotient(q.quotients[i]).center
            rest = sorted((v for v in q.quotients[i].adj if v != center), key=node_sort_key)
            m = q.split_off(i, rng.sample(rest, 2))
            yield
            q.merge(SplitNode(i, m))
            yield

    def _trees(self, rng):
        for trial in range(30):
            if trial % 2:
                g = random_connected_graph(rng.randint(8, 14), rng, rng.uniform(0.15, 0.4))
            else:
                g, _ = random_dh(rng.randint(8, 30), rng.random())
            q = compute_qasst(g)
            if len(q.quotients) >= 2:
                yield q

    def test_edits_to_a_copy_leave_the_source_alone(self):
        rng = random.Random(809)
        edits = 0
        for q in self._trees(rng):
            before = _snapshot(q)
            derived = q.copy()
            for _ in self._round_trips(derived, rng):
                assert _snapshot(q) == before
                edits += 1
            derived.validate()
            assert to_json_dict(derived) == before[0]
        assert edits >= 60

    def test_edits_to_the_source_leave_the_copy_alone(self):
        rng = random.Random(810)
        edits = 0
        for q in self._trees(rng):
            derived = q.copy()
            before = _snapshot(derived)
            for _ in self._round_trips(q, rng):
                assert _snapshot(derived) == before
                edits += 1
            q.validate()
            assert to_json_dict(q) == before[0]
        assert edits >= 60


def _unchecked(q):
    """The same tree without its check record, so that ``induced_qasst`` takes the full path."""
    out = q.copy()
    out._checked = False
    return out


def _induce_outcome(q, keep):
    try:
        out = induced_qasst(q, keep)
    except NotConnectedError as exc:
        return "refused", str(exc)
    return out.structure_key(), to_json_dict(out)


def _assert_one_vertex_rule_matches_full_path(q):
    """Every one-vertex deletion from checked tree q gives what the full path gives; returns how many were refused."""
    assert q._checked
    leaves = sorted(q.leaves())
    if len(leaves) < 2:
        return 0
    refused = 0
    for v in leaves:
        keep = [u for u in leaves if u != v]
        got = _induce_outcome(q, keep)
        assert got == _induce_outcome(_unchecked(q), keep), (to_json_dict(q), v)
        refused += got[0] == "refused"
    return refused


class TestOneVertexDeletionRule:
    """A one-vertex deletion from a checked tree tests only the quotients it changed.

    It must answer exactly as the full path does (:meth:`Qasst.validate`,
    then every quotient reduced, tested and re-split), by ``structure_key``
    and ``to_json_dict``, or refuse with the same ``NotConnectedError``.
    """

    @staticmethod
    def _both_trees(g):
        q = compute_qasst(g)
        return q, from_json_dict(json.loads(json.dumps(to_json_dict(q))))

    def test_every_deletion_of_small_graphs(self):
        # Every labeled connected graph up to n = 5, and one graph per
        # isomorphism class for n = 6 (all 26,704 labeled ones take minutes).
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        graphs += [g for g in graphs_up_to_isomorphism(6) if is_connected(g)]
        refused = 0
        for g in graphs:
            for q in self._both_trees(g):
                refused += _assert_one_vertex_rule_matches_full_path(q)
        assert len(graphs) == 1 + 1 + 4 + 38 + 728 + 112
        assert refused > 1000

    def test_random_dh_and_non_dh_graphs(self):
        rng = random.Random(1101)
        refused = 0
        for trial in range(20):
            n = rng.randint(7, 40)
            if trial % 2:
                g = random_connected_graph(n, rng, rng.uniform(0.02, 0.12))
            else:
                g, _ = random_dh(n, rng.random())
            for q in self._both_trees(g):
                refused += _assert_one_vertex_rule_matches_full_path(q)
        assert refused > 50

    def test_trees_from_op_chains(self):
        rng = random.Random(1102)
        for trial in range(6):
            if trial % 2:
                g = random_connected_graph(rng.randint(8, 14), rng, rng.uniform(0.15, 0.4))
            else:
                g, _ = random_dh(rng.randint(8, 20), rng.random())
            cur = compute_qasst(g)
            for step in range(25):
                _assert_one_vertex_rule_matches_full_path(cur)
                leaves = sorted(cur.leaves())
                if step % 3 == 0:
                    cur = lc_propagate(cur, rng.choice(leaves))
                elif step % 3 == 1 or len(leaves) < 6:
                    kind = rng.choice(EXTENSION_KINDS)
                    cur = extend(cur, ExtensionKind(kind, rng.choice(leaves)), leaves[-1] + 1)
                else:
                    drop = rng.sample(leaves, rng.randint(1, 3))
                    try:
                        cur = induced_qasst(cur, [u for u in leaves if u not in drop])
                    except NotConnectedError:
                        pass

    def test_unreduced_tree_from_json_takes_the_full_path(self):
        # 1-2-4-3 as a valid tree that is not reduced: Q2 has two nodes.
        # The local rule would read Q2 less 4 as connected, but deleting 4
        # kills the split-node s12, a cut node of Q1.
        def s(i, j):
            return {"i": i, "j": j}

        data = {
            "quotients": [
                {"leaf_nodes": [1, 2], "split_nodes": [s(0, 1)], "edges": [[1, 2], [2, s(0, 1)]]},
                {"leaf_nodes": [3], "split_nodes": [s(1, 0), s(1, 2)], "edges": [[3, s(1, 2)], [s(1, 0), s(1, 2)]]},
                {"leaf_nodes": [4], "split_nodes": [s(2, 1)], "edges": [[4, s(2, 1)]]},
            ],
            "tree_edges": [[s(0, 1), s(1, 0)], [s(1, 2), s(2, 1)]],
        }
        q = from_json_dict(data)
        assert not q._checked
        g = reconstruct(q)
        assert g == SimpleGraph(4, [(1, 2), (2, 4), (3, 4)])
        with pytest.raises(NotConnectedError, match="induced subgraph is not connected"):
            induced_qasst(q, [1, 2, 3])
        for v in (1, 3):
            keep = [u for u in range(1, 5) if u != v]
            sub, mapping = induced_subgraph(g, keep)
            want = _relabel_leaves(compute_qasst(sub), mapping)
            assert induced_qasst(q, keep).structure_key() == want.structure_key()


class TestTreesWithoutTheRecord:
    """Induces on a valid tree without the check record give the strong split tree of the induced graph."""

    @staticmethod
    def _unreduced(g):
        # Leaf 1 split off into a two-node quotient: valid, but not reduced, so read back without the record.
        q = compute_qasst(g).copy()
        q.split_off(q.leaf_quotient(1), {1})
        out = from_json_dict(json.loads(json.dumps(to_json_dict(q))))
        assert not out._checked and reconstruct(out) == g
        return out

    @staticmethod
    def _assert_strong(q, g, keep):
        sub, mapping = induced_subgraph(g, keep)
        if is_connected(sub):
            want = _relabel_leaves(compute_qasst(sub), mapping)
            assert induced_qasst(q, keep).structure_key() == want.structure_key(), keep
            return 1
        with pytest.raises(NotConnectedError):
            induced_qasst(q, keep)
        return 0

    def test_unreduced_tree_from_json_loses_the_record(self):
        # Two nodes split off a complete quotient of five or more, or two
        # spokes off such a star: every quotient stays connected with three
        # or more nodes, but the new edge joins c to c or sc to ss, so the
        # tree read back is not reduced.  Trusting untouched edges there
        # would keep the bad edge through a deletion.
        rng = random.Random(2104)
        trees = [compute_qasst(complete_graph(6)), compute_qasst(star_graph(5))]
        while len(trees) < 12:
            q = compute_qasst(random_dh(rng.randint(20, 60), rng.random())[0])
            big = (quot for quot in q.quotients.values() if len(quot.adj) >= 5)
            if any(classify_quotient(quot).kind in (COMPLETE, STAR) for quot in big):
                trees.append(q)
        kept, records = 0, []
        for q in trees:
            g = reconstruct(q)
            q = q.copy()
            i, kind = next(
                (i, kind) for i, quot in sorted(q.quotients.items())
                if len(quot.adj) >= 5 and (kind := classify_quotient(quot)).kind in (COMPLETE, STAR)
            )
            q.split_off(i, sorted((v for v in q.quotients[i].adj if v != kind.center), key=node_sort_key)[:2])
            loaded = from_json_dict(json.loads(json.dumps(to_json_dict(q))))
            assert reconstruct(loaded) == g
            for v in range(1, g.n + 1):
                kept += self._assert_strong(loaded, g, [u for u in range(1, g.n + 1) if u != v])
            records.append(loaded._checked)
        assert kept > 100 and not any(records)

    def test_one_vertex_deletions(self):
        kept = 0
        for seed in range(12):
            g = random_dh(14, seed)[0] if seed % 2 else random_connected_graph(12, random.Random(seed), 0.3)
            q = self._unreduced(g)
            for v in range(1, g.n + 1):
                kept += self._assert_strong(q, g, [u for u in range(1, g.n + 1) if u != v])
        assert kept > 100

    def test_multi_vertex_deletions(self):
        rng = random.Random(2001)
        kept = 0
        for trial in range(40):
            n = rng.randint(8, 16)
            g = random_dh(n, rng.random())[0] if trial % 2 else random_connected_graph(n, rng, 0.3)
            q = self._unreduced(g)
            for _ in range(4):
                kept += self._assert_strong(q, g, sorted(rng.sample(range(1, n + 1), rng.randint(2, n - 2))))
        assert kept > 40


class TestOpsStayLocal:
    """One-vertex ops on a checked tree never walk the whole tree."""

    @pytest.fixture(scope="class")
    def trees(self):
        g, _ = random_dh(3000, 11)
        q = compute_qasst(g)
        return g, [q, from_json_dict(to_json_dict(q))]

    def test_no_whole_tree_pass(self, trees, monkeypatch):
        from lcsplit import qasst
        from lcsplit.qasst import Qasst

        def boom(*args):
            raise AssertionError("whole-tree pass")

        monkeypatch.setattr(Qasst, "validate", boom)
        monkeypatch.setattr(qasst, "_orient", boom)
        g, both = trees
        kept = next(v for v in range(1, g.n + 1) if _connected_without(g, v))
        cut = next(v for v in range(1, g.n + 1) if not _connected_without(g, v))
        for q in both:
            assert q._checked
            out = induced_qasst(q, [u for u in range(1, g.n + 1) if u != kept])
            assert out._checked and len(out.leaves()) == g.n - 1
            with pytest.raises(NotConnectedError):
                induced_qasst(q, [u for u in range(1, g.n + 1) if u != cut])
            assert lc_propagate(q, 1500)._checked
            for kind in EXTENSION_KINDS:
                assert extend(q, ExtensionKind(kind, 2999), g.n + 1)._checked

    def test_hand_built_tree_is_still_checked_in_full(self):
        from lcsplit.qasst import Qasst, QuotientGraph

        # Leaves 1, 2, 3 with a split-node whose partner is missing.
        broken = Qasst(
            {
                0: QuotientGraph([1, 2, SplitNode(0, 1)], [(1, 2), (2, SplitNode(0, 1))]),
                1: QuotientGraph([3, SplitNode(1, 2)], [(3, SplitNode(1, 2))]),
            }
        )
        assert not broken._checked
        with pytest.raises(MalformedQasstError, match="is unmatched"):
            induced_qasst(broken, [1, 2])
