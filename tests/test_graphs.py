"""Graph core: local complements, pivots, canonical keys, isomorphism."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from oracles import checked_graph_from_json_dict
from lcsplit import counting, families, graphs, orbit, symmetry
from lcsplit.errors import InvalidSpecError, InvalidVertexError, NotAnEdgeError, SizeLimitError
from lcsplit.families import path_graph, star_graph
from lcsplit.graphs import (
    MAX_VERTICES,
    SimpleGraph,
    apply_sequence,
    canonical_key,
    degree,
    edge_count,
    edge_pivot,
    find_isomorphism,
    from_json_dict,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    local_complement,
    max_degree,
    neighborhood,
    to_dot,
    to_json_dict,
)
from lcsplit.qasst import compute_qasst, is_split, is_strong
from lcsplit.qasst_ops import ExtensionKind, extend, extend_graph, lc_propagate


@st.composite
def connected_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.floats(min_value=0.1, max_value=0.9))
    return random_connected_graph(n, random.Random(seed), p)


class TestSimpleGraph:
    def test_basic_accessors(self):
        g = SimpleGraph(4, [(1, 2), (2, 3), (1, 3)])
        assert g.n == 4
        assert g.edges() == [(1, 2), (1, 3), (2, 3)]
        assert g.has_edge(3, 2) and not g.has_edge(1, 4)
        assert neighborhood(g, 2) == {1, 3}
        assert degree(g, 4) == 0
        assert edge_count(g) == 3 and max_degree(g) == 2

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidVertexError):
            SimpleGraph(3, [(1, 4)])
        with pytest.raises(InvalidVertexError):
            SimpleGraph(3, [(0, 1)])
        with pytest.raises(InvalidVertexError):
            SimpleGraph(3, [(2, 2)])

    @pytest.mark.parametrize("end", [True, 2.0, "2", None])
    def test_an_end_that_is_not_an_int_is_refused(self, end):
        for edges in ([(1, 2), (end, 3)], [(1, end)]):
            with pytest.raises(TypeError, match=rf"^expected an integer, got {re.escape(repr(end))}$"):
                SimpleGraph(3, edges)

    @pytest.mark.parametrize("n", [True, 2.0, "3"])
    def test_an_n_that_is_not_an_int_is_refused(self, n):
        with pytest.raises(TypeError) as info:
            SimpleGraph(n)
        assert str(info.value) == f"expected an integer, got {n!r}"

    def test_path_graph_takes_no_bool(self):
        with pytest.raises(TypeError, match=r"^expected an integer, got True$"):
            path_graph(True)

    def test_every_end_type_is_read_before_any_range(self):
        with pytest.raises(TypeError, match=r"^expected an integer, got 'x'$"):
            SimpleGraph(3, [(1, 9), (2, "x")])
        with pytest.raises(TypeError, match=r"^expected an integer, got True$"):
            SimpleGraph(-1, [(1, 2), (True, 2)])
        with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -2$"):
            SimpleGraph(-2, [(1, 2)])
        with pytest.raises(InvalidVertexError, match=r"^edge \(1,9\) out of range 1..3$"):
            SimpleGraph(3, [(1, 2), (1, 9), (2, 2)])
        with pytest.raises(InvalidVertexError, match=r"^self-loop at vertex 2$"):
            SimpleGraph(3, [(1, 2), (2, 2), (0, 1)])

    def test_equality_and_hash(self):
        g = SimpleGraph(3, [(1, 2), (2, 3)])
        h = SimpleGraph(3, [(2, 3), (1, 2)])
        assert g == h and hash(g) == hash(h)
        assert g != SimpleGraph(3, [(1, 2)])

    def test_connectivity(self):
        assert is_connected(SimpleGraph(1))
        assert is_connected(SimpleGraph(3, [(1, 2), (2, 3)]))
        assert not is_connected(SimpleGraph(3, [(1, 2)]))

    def test_induced_subgraph_relabels(self):
        g = SimpleGraph(5, [(1, 3), (3, 5), (1, 5)])
        sub, mapping = induced_subgraph(g, {1, 3, 5})
        assert sub == SimpleGraph(3, [(1, 2), (1, 3), (2, 3)])
        assert mapping == {1: 1, 2: 3, 3: 5}


class TestLocalComplement:
    def test_triangle_toggle(self):
        path = SimpleGraph(3, [(1, 2), (2, 3)])
        assert local_complement(path, 2) == SimpleGraph(3, [(1, 2), (1, 3), (2, 3)])
        assert local_complement(path, 1) == path

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs(), st.integers(min_value=0, max_value=63))
    def test_self_inverse(self, g, pick):
        v = pick % g.n + 1
        assert local_complement(local_complement(g, v), v) == g

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs(), st.integers(min_value=0, max_value=63))
    def test_preserves_connectivity_and_neighborhood(self, g, pick):
        v = pick % g.n + 1
        h = local_complement(g, v)
        assert is_connected(h)
        assert neighborhood(h, v) == neighborhood(g, v)

    def test_sequence_inverse_is_reversal(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_connected_graph(rng.randint(2, 8), rng)
            seq = [rng.randint(1, g.n) for _ in range(rng.randint(0, 6))]
            h = apply_sequence(g, seq)
            assert apply_sequence(h, list(reversed(seq))) == g

    def test_vertex_bounds(self):
        with pytest.raises(InvalidVertexError):
            local_complement(SimpleGraph(3), 4)


class TestEdgePivot:
    def test_requires_edge(self):
        g = SimpleGraph(3, [(1, 2)])
        with pytest.raises(NotAnEdgeError):
            edge_pivot(g, 1, 3)
        with pytest.raises(NotAnEdgeError):
            edge_pivot(g, 2, 2)

    def test_matches_triple_composition(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 8), rng)
            i, j = rng.choice(g.edges())
            assert edge_pivot(g, i, j) == apply_sequence(g, [i, j, i])

    def test_symmetric_in_endpoints(self):
        rng = random.Random(6)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 8), rng)
            i, j = rng.choice(g.edges())
            assert edge_pivot(g, i, j) == edge_pivot(g, j, i)


class TestCanonicalKeyAndIsomorphism:
    @settings(max_examples=100, deadline=None)
    @given(connected_graphs())
    def test_key_round_trips(self, g):
        assert canonical_key(g) == canonical_key(SimpleGraph(g.n, g.edges()))

    def test_key_spelling(self):
        # The key orders `orbit list` output, so its bytes are part of the CLI's output.
        assert canonical_key(path_graph(3)) == b"3;1-2;2-3"
        assert canonical_key(SimpleGraph(12, [(1, 10), (2, 11)])) == b"12;1-10;2-11"
        assert canonical_key(SimpleGraph(0)) == b"0"

    def test_isomorphism_on_relabelings(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 8), rng)
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = SimpleGraph(g.n, [(perm[a - 1], perm[b - 1]) for a, b in g.edges()])
            phi = find_isomorphism(g, h)
            assert phi is not None
            for a, b in g.edges():
                assert h.has_edge(phi[a], phi[b])

    def test_non_isomorphic(self):
        assert not is_isomorphic(
            SimpleGraph(4, [(1, 2), (2, 3), (3, 4)]),
            SimpleGraph(4, [(1, 2), (1, 3), (1, 4)]),
        )
        assert not is_isomorphic(SimpleGraph(3), SimpleGraph(4))

    def test_more_than_sixteen_vertices_raise_isomorphic_or_not(self):
        # K1,16 and P17 differ in their degrees; the limit is checked before that is seen.
        for h in (star_graph(16), path_graph(17)):
            with pytest.raises(SizeLimitError):
                find_isomorphism(star_graph(16), h)
        assert find_isomorphism(star_graph(15), star_graph(15)) == {v: v for v in range(1, 17)}
        assert find_isomorphism(star_graph(16), path_graph(16)) is None  # orders differ

    def test_sixteen_vertex_graphs_with_equal_invariants(self):
        # The 4x4 rook's graph and the Shrikhande graph are both strongly regular
        # with parameters (16, 6, 2, 2), so no vertex invariant tells them apart.
        def cayley(steps):
            label = {(a, b): 4 * a + b + 1 for a in range(4) for b in range(4)}
            return SimpleGraph(16, [
                (label[x], label[(x[0] + da) % 4, (x[1] + db) % 4])
                for x in label for da, db in steps
                if label[x] < label[(x[0] + da) % 4, (x[1] + db) % 4]
            ])

        rook = cayley([(d, 0) for d in (1, 2, 3)] + [(0, d) for d in (1, 2, 3)])
        shrikhande = cayley([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
        assert sorted(graphs._vertex_invariants(rook)) == sorted(graphs._vertex_invariants(shrikhande))
        assert find_isomorphism(rook, shrikhande) is None
        assert find_isomorphism(shrikhande, rook) is None
        rng = random.Random(16)
        for g in (rook, shrikhande):
            perm = list(range(1, 17))
            rng.shuffle(perm)
            h = SimpleGraph(16, [(perm[a - 1], perm[b - 1]) for a, b in g.edges()])
            phi = find_isomorphism(g, h)
            assert sorted(phi.values()) == list(range(1, 17))
            assert {tuple(sorted((phi[a], phi[b]))) for a, b in g.edges()} == set(h.edges())


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(connected_graphs())
    def test_json_round_trip(self, g):
        assert from_json_dict(json.loads(json.dumps(to_json_dict(g)))) == g

    def test_one_loop_reader_agrees_with_the_checked_path(self):
        def outcome(read, data):
            try:
                return read(data)
            except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
                return type(exc), str(exc)

        rng = random.Random(33)
        ends = [1, 2, 3, 4, 0, 5, -1, True, 2.0, 1.5, "2", None]
        for _ in range(4000):
            n = rng.choice([0, 1, 4, 4, 4, -1, 4.0, "4", True, None, MAX_VERTICES + 1])
            edges = [[rng.choice(ends[:4]) if rng.random() < 0.9 else rng.choice(ends) for _ in range(2)]
                     for _ in range(rng.randint(0, 4))]
            if edges and rng.random() < 0.1:
                edges[rng.randrange(len(edges))] = rng.choice([[1], [1, 2, 3], "12", {"1": 2}, 7, (2, 3)])
            data = {"n": n, "edges": edges if rng.random() < 0.95 else rng.choice([None, 5, "12", (edges,)])}
            if rng.random() < 0.05:
                data = rng.choice([{"n": 4}, {"edges": edges}, [4, edges], None])
            assert outcome(from_json_dict, data) == outcome(checked_graph_from_json_dict, data)

    def test_dot_mentions_all_edges(self):
        g = SimpleGraph(3, [(1, 2), (2, 3)])
        dot = to_dot(g)
        assert "1 -- 2" in dot and "2 -- 3" in dot


class TestAdjacencyReads:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**36 - 1))
    def test_local_complement_matches_edge_set_definition(self, n, bits):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = SimpleGraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
        for v in range(1, n + 1):
            toggled = set(itertools.combinations(sorted(neighborhood(g, v)), 2))
            assert local_complement(g, v) == SimpleGraph(n, set(g.edges()) ^ toggled)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**36 - 1))
    def test_degree_counts_match_the_edge_list(self, n, bits):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = SimpleGraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
        assert edge_count(g) == len(g.edges())
        assert max_degree(g) == max((len(neighborhood(g, v)) for v in range(1, n + 1)), default=0)


class TestSizeCap:
    def test_huge_n_is_refused_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SimpleGraph built for an over-limit n")

        monkeypatch.setattr(graphs, "SimpleGraph", refuse)
        for n in (MAX_VERTICES + 1, 10**15, "1" * 400, 1e300):
            with pytest.raises(SizeLimitError):
                from_json_dict({"n": n, "edges": []})

    def test_a_non_int_n_is_refused_after_the_cap(self):
        with pytest.raises(InvalidSpecError) as info:
            from_json_dict({"n": 3.5, "edges": []})
        assert str(info.value) == "malformed graph JSON: TypeError: expected an integer, got 3.5"
        for n in (float(MAX_VERTICES + 1), str(MAX_VERTICES + 1), 1e300):
            with pytest.raises(SizeLimitError, match=rf"^graphs are limited to {MAX_VERTICES} vertices$"):
                from_json_dict({"n": n, "edges": []})

    def test_limit_itself_is_accepted(self):
        assert from_json_dict({"n": MAX_VERTICES, "edges": [[1, MAX_VERTICES]]}).n == MAX_VERTICES


def _integer_slot_calls():
    """(label, call) per integer slot of a library entry point: ``call(x)`` puts x in that slot of a valid call."""
    p4, tree = path_graph(4), compute_qasst(path_graph(4))
    k2 = SimpleGraph(2, [(1, 2)])  # an orbit of one member, within any limit
    calls = [
        ("SimpleGraph n", SimpleGraph),
        ("FamilySpec params", lambda x: families.FamilySpec("cycle", (x,))),
        ("bouchet_path_count n", counting.bouchet_path_count),
        ("bouchet_cycle_count n", counting.bouchet_cycle_count),
        ("iso_class_count k", lambda x: counting.iso_class_count(families.KPARTITE, x)),
        ("has_edge u", lambda x: p4.has_edge(x, 3)),
        ("has_edge v", lambda x: p4.has_edge(1, x)),
        ("neighborhood_mask v", p4.neighborhood_mask),
        ("neighborhood v", lambda x: neighborhood(p4, x)),
        ("degree v", lambda x: degree(p4, x)),
        ("local_complement v", lambda x: local_complement(p4, x)),
        ("apply_sequence f", lambda x: apply_sequence(p4, [2, x])),
        ("edge_pivot i", lambda x: edge_pivot(p4, x, 4)),
        ("edge_pivot j", lambda x: edge_pivot(p4, 4, x)),
        ("extend_graph anchor", lambda x: extend_graph(p4, "pendant", x)),
        ("leaf_quotient v", tree.leaf_quotient),
        ("lc_propagate v", lambda x: lc_propagate(tree, x)),
        ("extend anchor", lambda x: extend(tree, ExtensionKind("pendant", x), 5)),
        ("is_split side a", lambda x: is_split(p4, [1, x], [2, 4])),
        ("is_split side b", lambda x: is_split(p4, [1, 2], [x, 4])),
        ("is_strong side a", lambda x: is_strong(p4, [1, x], [2, 4])),
        ("induced_subgraph keep", lambda x: induced_subgraph(p4, [1, x, 4])),
        ("enumerate_orbit limit", lambda x: orbit.enumerate_orbit(k2, limit=x)),
        ("are_lc_equivalent limit", lambda x: orbit.are_lc_equivalent(k2, SimpleGraph(2), limit=x)),
        ("transformation_between limit", lambda x: orbit.transformation_between(k2, k2, limit=x)),
    ]
    for f in (counting.bipartite_orbit_size, counting.bipartite_iso_class_count,
              counting.bipartite_min_edge_count, counting.bipartite_min_max_degree):
        calls += [(f"{f.__name__} n", lambda x, f=f: f(x, 3)), (f"{f.__name__} m", lambda x, f=f: f(3, x))]
    block_calls = {
        "check_blocks": families.check_blocks,
        "multi_leaf_repeater_graph": families.multi_leaf_repeater_graph,
        "clique_star_graph": lambda b: families.clique_star_graph(b, 1),
        "FamilySpec blocks": lambda b: families.FamilySpec("complete_multipartite", b),
        "kpartite_phi": counting.kpartite_phi,
        "kpartite_orbit_size": counting.kpartite_orbit_size,
        "clique_star_orbit_size": counting.clique_star_orbit_size,
        "orbit_size": lambda b: counting.orbit_size(families.CLIQUE_STAR, b),
        "min_edge_rep": lambda b: counting.min_edge_rep(families.KPARTITE, b),
        "min_max_degree_rep": lambda b: counting.min_max_degree_rep(families.KPARTITE, b),
        "edge_count_from_assignment": lambda b: counting.edge_count_from_assignment(b, "c", ("ss",) * 3),
        "max_degree_from_assignment": lambda b: counting.max_degree_from_assignment(b, "c", ("ss",) * 3),
        "enumerate_cases": lambda b: symmetry.enumerate_cases(families.KPARTITE, b),
    }
    for name, f in block_calls.items():
        for slot in range(3):
            calls.append((f"{name} block {slot}", lambda x, f=f, slot=slot: f([2] * slot + [x] + [2] * (2 - slot))))
    return calls


class TestIntegerSlots:
    """Each integer slot of these entry points reads its value through ``json_int``: a bool, float or str raises."""

    def test_each_call_is_valid_with_an_int(self):
        for label, call in _integer_slot_calls():
            call(3)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_a_value_that_is_not_an_int_is_refused(self, bad):
        returned = []
        for label, call in _integer_slot_calls():
            try:
                call(bad)
            except TypeError as exc:
                assert str(exc) == f"expected an integer, got {bad!r}", label
            else:
                returned.append(label)
        assert returned == []
