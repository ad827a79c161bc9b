"""Acceptance suite: exact-integer targets and property checks.

Every count is checked for exact equality against the brute-force orbit
oracle.  The randomized property suites each run at least 200 seeded
instances.
"""

import random
import time

import pytest

from helpers import random_connected_graph
from oracles import classify_bipartite_member, extension_subcase, strong_split_sides
from lcsplit.counting import (
    bipartite_iso_class_count,
    bipartite_min_edge_count,
    bipartite_orbit_size,
    bouchet_cycle_count,
    bouchet_path_count,
    clique_star_orbit_size,
    iso_class_count,
    kpartite_orbit_size,
    kpartite_phi,
    min_edge_hyperbola,
    min_edge_rep,
    min_max_degree_rep,
)
from lcsplit.families import (
    CLIQUE_STAR,
    KPARTITE,
    clique_star_graph,
    complete_bipartite_graph,
    complete_multipartite_graph,
    cycle_graph,
    mlr_orbit_home,
    path_graph,
    repeater_graph,
)
from lcsplit.graphs import (
    SimpleGraph,
    apply_sequence,
    edge_count,
    is_connected,
    is_isomorphic,
    local_complement,
    neighborhood,
)
from lcsplit.orbit import (
    enumerate_orbit,
    min_edge_member,
    min_max_degree_member,
    orbit_iso_classes,
)
from lcsplit.qasst import compute_qasst, reconstruct
from lcsplit.qasst_ops import (
    EXTENSION_KINDS,
    FALSE_TWIN,
    PENDANT,
    ExtensionKind,
    extend,
    extend_graph,
    induced_qasst,
    lc_propagate,
    random_dh,
)
from lcsplit.symmetry import (
    analyze_star_member,
    classify_star_member,
    closure_step,
)
from lcsplit.graphs import induced_subgraph


@pytest.fixture(scope="module")
def orbit_k22():
    return enumerate_orbit(complete_bipartite_graph(2, 2))


@pytest.fixture(scope="module")
def orbit_k222():
    return enumerate_orbit(complete_multipartite_graph((2, 2, 2)))


@pytest.fixture(scope="module")
def orbit_cs222():
    return enumerate_orbit(clique_star_graph((2, 2, 2), 1))


@pytest.fixture(scope="module")
def orbit_k2222():
    return enumerate_orbit(complete_multipartite_graph((2, 2, 2, 2)))


@pytest.fixture(scope="module")
def orbit_cs2222():
    return enumerate_orbit(clique_star_graph((2, 2, 2, 2), 1))


class TestCriterion1Bipartite22:
    def test_orbit_size(self, orbit_k22):
        assert len(orbit_k22) == 11 == bipartite_orbit_size(2, 2)

    def test_symmetry_row_counts(self, orbit_k22):
        counts: dict = {}
        for g in orbit_k22.sorted_members():
            pair = classify_bipartite_member(g, 2, 2)
            counts[pair] = counts.get(pair, 0) + 1
        assert counts == {
            ("sc", "sc"): 1,
            ("sc", "c"): 1,
            ("c", "sc"): 1,
            ("ss", "c"): 2,
            ("c", "ss"): 2,
            ("ss", "ss"): 4,
        }


class TestCriterion2BipartiteFamilies:
    def test_orbit_sizes(self):
        for (n, m), want in (((2, 3), 14), ((3, 3), 18)):
            o = enumerate_orbit(complete_bipartite_graph(n, m))
            assert len(o) == want == bipartite_orbit_size(n, m) == n * m + n + m + 3

    def test_min_edge_is_binary_star(self):
        for n, m in ((2, 2), (2, 3), (3, 3)):
            o = enumerate_orbit(complete_bipartite_graph(n, m))
            best, edges = min_edge_member(o)
            assert edges == n + m - 1 == bipartite_min_edge_count(n, m)
            binary_star = SimpleGraph(
                n + m,
                [(1, 2)]
                + [(1, v) for v in range(3, n + 2)]
                + [(2, v) for v in range(n + 2, n + m + 1)],
            )
            assert is_isomorphic(best, binary_star)


class TestCriterion3ThreeBlocks:
    def test_sizes_sum_and_disjointness(self, orbit_k222, orbit_cs222):
        assert len(orbit_k222) == 40
        assert len(orbit_cs222) == 41
        assert len(orbit_k222) + len(orbit_cs222) == kpartite_phi((2, 2, 2)) == 81
        assert not set(orbit_k222.members) & set(orbit_cs222.members)


class TestCriterion4FourBlocks:
    def test_sizes_within_time_budget(self):
        start = time.monotonic()
        ok = enumerate_orbit(complete_multipartite_graph((2, 2, 2, 2)))
        t1 = time.monotonic() - start
        start = time.monotonic()
        oc = enumerate_orbit(clique_star_graph((2, 2, 2, 2), 1))
        t2 = time.monotonic() - start
        assert len(ok) == 149
        assert len(oc) == 148
        assert t1 < 10.0 and t2 < 10.0


class TestCriterion5RepeaterMembership:
    def test_r3_in_clique_star_orbit(self, orbit_cs222):
        assert repeater_graph(3) in orbit_cs222
        assert mlr_orbit_home(3) == CLIQUE_STAR

    def test_r4_in_kpartite_orbit(self, orbit_k2222):
        assert repeater_graph(4) in orbit_k2222
        assert mlr_orbit_home(4) == KPARTITE


class TestCriterion6IsoClasses:
    def test_counts(self, orbit_k22, orbit_k222, orbit_cs222):
        assert len(orbit_iso_classes(orbit_k22)) == 4 == bipartite_iso_class_count(2, 2)
        o23 = enumerate_orbit(complete_bipartite_graph(2, 3))
        assert len(orbit_iso_classes(o23)) == 6 == bipartite_iso_class_count(2, 3)
        assert len(orbit_iso_classes(orbit_k222)) == 5 == iso_class_count(KPARTITE, 3)
        assert len(orbit_iso_classes(orbit_cs222)) == 5 == iso_class_count(CLIQUE_STAR, 3)
        assert iso_class_count(KPARTITE, 3) == 3 // 2 + 3 + 1
        assert iso_class_count(CLIQUE_STAR, 3) == (3 + 1) // 2 + 3


class TestCriterion7OptimalRepresentatives:
    def test_three_block_minima(self, orbit_k222, orbit_cs222):
        for tag, o in ((KPARTITE, orbit_k222), (CLIQUE_STAR, orbit_cs222)):
            assert min_edge_rep(tag, (2, 2, 2))[0].value == min_edge_member(o)[1]
            assert (
                min_max_degree_rep(tag, (2, 2, 2))[0].value
                == min_max_degree_member(o)[1]
            )

    def test_four_block_minima_and_tie(self, orbit_k2222, orbit_cs2222):
        for tag, o in ((KPARTITE, orbit_k2222), (CLIQUE_STAR, orbit_cs2222)):
            assert min_edge_rep(tag, (2, 2, 2, 2))[0].value == min_edge_member(o)[1]
            assert (
                min_max_degree_rep(tag, (2, 2, 2, 2))[0].value
                == min_max_degree_member(o)[1]
            )
        # f(4,2) = 0: two k-partite cases tie for the edge minimum.
        assert min_edge_hyperbola(4, 2) == 0
        tie = min_edge_rep(KPARTITE, (2, 2, 2, 2))
        assert [r.case.case_id for r in tie] == [1, 3] and tie[0].value == tie[1].value

    def test_five_block_degree_target(self):
        o = enumerate_orbit(complete_multipartite_graph((2,) * 5))
        _, delta = min_max_degree_member(o)
        assert delta == 4
        assert min_max_degree_rep(KPARTITE, (2,) * 5)[0].value == 4


class TestCriterion8PropertySuites:
    def test_lc_self_inverse_and_connectivity(self):
        rng = random.Random(1001)
        for _ in range(200):
            g = random_connected_graph(rng.randint(2, 10), rng, rng.uniform(0.2, 0.8))
            v = rng.randint(1, g.n)
            h = local_complement(g, v)
            assert is_connected(h)
            assert local_complement(h, v) == g

    def test_strong_splits_invariant_under_lc(self):
        rng = random.Random(1002)
        for _ in range(200):
            g = random_connected_graph(rng.randint(4, 9), rng, rng.uniform(0.2, 0.8))
            sides = strong_split_sides(compute_qasst(g))
            seq = [rng.randint(1, g.n) for _ in range(rng.randint(1, 5))]
            assert strong_split_sides(compute_qasst(apply_sequence(g, seq))) == sides

    def test_qasst_round_trip(self):
        rng = random.Random(1003)
        for _ in range(200):
            g = random_connected_graph(rng.randint(2, 10), rng, rng.uniform(0.2, 0.8))
            assert reconstruct(compute_qasst(g)) == g

    def test_lc_propagate_and_induced_match_oracle(self):
        rng = random.Random(1004)
        done = 0
        while done < 200:
            g = random_connected_graph(rng.randint(4, 9), rng, rng.uniform(0.3, 0.8))
            q = compute_qasst(g)
            v = rng.randint(1, g.n)
            got = lc_propagate(q, v)
            want = compute_qasst(local_complement(g, v))
            assert got.structure_key() == want.structure_key()
            gd, _ = random_dh(rng.randint(4, 10), rng.random())
            keep = [u for u in range(1, gd.n + 1) if rng.random() < 0.7] or [1]
            sub, mapping = induced_subgraph(gd, keep)
            if is_connected(sub):
                ind = induced_qasst(compute_qasst(gd), keep)
                assert reconstructed_edges(ind) == {
                    (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
                    for a, b in sub.edges()
                }
            done += 1

    def test_extension_subcases_commute(self):
        rng = random.Random(1005)
        seen: set = set()
        for _ in range(400):
            g, _ = random_dh(rng.randint(2, 11), rng.random())
            q = compute_qasst(g)
            anchor = rng.randint(1, g.n)
            kind = rng.choice(EXTENSION_KINDS)
            if kind == FALSE_TWIN and not neighborhood(g, anchor):
                kind = PENDANT
            e = ExtensionKind(kind, anchor)
            out, subcase = extend(q, e, g.n + 1), extension_subcase(q, e)
            assert reconstruct(out) == extend_graph(g, kind, anchor)
            seen.add(subcase)
        # Prime subcases need a prime quotient; exercise them directly.
        for n in (5, 6):
            g = cycle_graph(n)
            q = compute_qasst(g)
            for kind in EXTENSION_KINDS:
                e = ExtensionKind(kind, 1)
                out, subcase = extend(q, e, n + 1), extension_subcase(q, e)
                assert reconstruct(out) == extend_graph(g, kind, 1)
                seen.add(subcase)
        want = {f"{shape}{letter}" for shape in "1234" for letter in "abc"}
        assert want <= seen, f"missing subcases: {want - seen}"

    def test_tree_orbits_contain_only_isomorphic_trees(self):
        rng = random.Random(1006)
        for _ in range(200):
            n = rng.randint(3, 8)
            tree = random_tree(n, rng)
            o = enumerate_orbit(tree)
            for g in o.sorted_members():
                if edge_count(g) == n - 1:  # the tree-shaped members
                    assert is_isomorphic(g, tree)


def random_tree(n: int, rng: random.Random) -> SimpleGraph:
    edges = []
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], order[rng.randrange(i)]))
    return SimpleGraph(n, edges)


def reconstructed_edges(q) -> set:
    """Edge set of a (possibly partial-leaf) quotient tree."""
    adj: dict = {}
    for quot in q.quotients.values():
        for node in quot.nodes:
            adj.setdefault(node, set())
        for e in quot.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
    for sa, sb in q.tree_edges():
        na = adj.pop(sa) - {sb}
        nb = adj.pop(sb) - {sa}
        for v in na:
            v in adj and adj[v].discard(sa)
        for v in nb:
            v in adj and adj[v].discard(sb)
        for u in na:
            for v in nb:
                adj[u].add(v)
                adj[v].add(u)
    return {(min(u, v), max(u, v)) for u in adj for v in adj[u]}


class TestCriterion9ClosureTables:
    @pytest.mark.parametrize("tag", [KPARTITE, CLIQUE_STAR])
    def test_every_member_every_vertex(self, tag, orbit_k222, orbit_cs222):
        o = orbit_k222 if tag == KPARTITE else orbit_cs222
        n_list = (2, 2, 2)
        for g in o.sorted_members():
            case, roles = analyze_star_member(g, n_list)
            assert case.tag == tag
            for v in range(1, g.n + 1):
                predicted = closure_step(case, roles[v])
                got = classify_star_member(local_complement(g, v), n_list)
                assert got.tag == tag
                assert (got.case_id, got.j) == predicted


class TestCriterion10CountEvaluators:
    def test_exact_values(self):
        assert [bouchet_path_count(n) for n in (3, 4, 5)] == [16, 44, 120]
        assert [bouchet_cycle_count(n) for n in (4, 5)] == [44, 132]

    def test_oracle_comparison_reported(self, capsys):
        # The labeled-orbit oracle counts a different equivalence than the
        # closed forms; the discrepancy is expected and recorded here.
        oracle = {
            "P3": len(enumerate_orbit(path_graph(3))),
            "P4": len(enumerate_orbit(path_graph(4))),
            "C4": len(enumerate_orbit(cycle_graph(4))),
            "C5": len(enumerate_orbit(cycle_graph(5))),
        }
        formula = {
            "P3": bouchet_path_count(3),
            "P4": bouchet_path_count(4),
            "C4": bouchet_cycle_count(4),
            "C5": bouchet_cycle_count(5),
        }
        with capsys.disabled():
            print(
                "\n[count comparison] formula vs labeled oracle: "
                + ", ".join(
                    f"{k}: {formula[k]}/{oracle[k]}" for k in sorted(formula)
                )
            )
        assert oracle == {"P3": 4, "P4": 11, "C4": 11, "C5": 132}
        assert formula == {"P3": 16, "P4": 44, "C4": 44, "C5": 132}
