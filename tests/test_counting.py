"""Closed-form counts against the brute-force oracle."""

import itertools
import time
import tracemalloc

import pytest

from lcsplit.counting import (
    RepSpec,
    bipartite_iso_class_count,
    bipartite_min_edge_count,
    bipartite_min_max_degree,
    bipartite_orbit_size,
    bouchet_cycle_count,
    bouchet_path_count,
    clique_star_orbit_size,
    edge_count_from_assignment,
    iso_class_count,
    kpartite_orbit_size,
    kpartite_phi,
    max_degree_from_assignment,
    min_edge_hyperbola,
    min_edge_rep,
    min_max_degree_rep,
    orbit_size,
    phi_count,
)
from lcsplit.errors import InvalidAssignmentError, InvalidSpecError, SizeLimitError, UnsupportedQasstError
from lcsplit.families import (
    CLIQUE_STAR,
    KPARTITE,
    clique_star_graph,
    complete_bipartite_graph,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
)
from lcsplit.graphs import edge_count, max_degree
from lcsplit.orbit import enumerate_orbit, min_edge_member, min_max_degree_member
from lcsplit.qasst import Qasst, QuotientGraph, compute_qasst, join_validity, reconstruct
from lcsplit.symmetry import build_star_qasst, q0_shape


class TestBouchet:
    def test_path_values(self):
        assert [bouchet_path_count(n) for n in (1, 2, 3, 4, 5)] == [2, 6, 16, 44, 120]

    def test_cycle_values(self):
        assert [bouchet_cycle_count(n) for n in (3, 4, 5)] == [16, 44, 132]

    def test_exact_relation_to_the_labelled_orbit(self):
        # The path formula is four times the orbit for n >= 3, and so is the
        # cycle formula on C3 and C4 (K3 and K2,2, in the orbits of P3 and P4);
        # from C5 on, a cycle is one prime quotient and the formula is its orbit.
        for n in range(3, 10):
            assert bouchet_path_count(n) == 4 * len(enumerate_orbit(path_graph(n))), n
        for n in range(3, 9):
            factor = 4 if n <= 4 else 1
            assert bouchet_cycle_count(n) == factor * len(enumerate_orbit(cycle_graph(n))), n

    def test_rejects_tiny_cases(self):
        with pytest.raises(InvalidSpecError):
            bouchet_path_count(0)
        with pytest.raises(InvalidSpecError):
            bouchet_cycle_count(2)

    def test_cap_is_checked_before_any_arithmetic(self, monkeypatch):
        import lcsplit.counting as counting

        def refuse(m):
            raise AssertionError("power computed past the cap")

        monkeypatch.setattr(counting, "_sqrt3_power", refuse)
        for count in (bouchet_path_count, bouchet_cycle_count):
            with pytest.raises(SizeLimitError, match="limited to n <= 1000000"):
                count(counting.MAX_COUNT_N + 1)

    def test_matches_the_recurrence(self):
        # a_m = 2 a_{m-1} + 2 a_{m-2} holds for both sequences the counts read.
        paths = [bouchet_path_count(n) for n in range(1, 60)]
        cycles = [bouchet_cycle_count(n) + 4 * (2 ** (n - 1) + (-1) ** n) // 3 for n in range(3, 60)]
        for seq in (paths, cycles):
            assert all(c == 2 * b + 2 * a for a, b, c in zip(seq, seq[1:], seq[2:]))


class TestPhi:
    def test_single_quotient(self):
        assert phi_count(compute_qasst(complete_bipartite_graph(2, 2))) == 11

    def test_prime_rejected(self):
        with pytest.raises(UnsupportedQasstError):
            phi_count(compute_qasst(cycle_graph(5)))

    def test_two_leaves_without_an_edge_count_as_complete(self):
        # Stored as prime, since it is disconnected, but counted as the one member a complete quotient of two nodes has.
        assert phi_count(Qasst({0: QuotientGraph([1, 2])})) == 1

    def test_kpartite_phi_closed_form(self):
        assert kpartite_phi((2, 2, 2)) == 81
        assert kpartite_phi((2, 2, 2, 2)) == 297
        # The two-block tree has a different shape; the formula needs k >= 3.
        with pytest.raises(InvalidSpecError):
            kpartite_phi((2, 2))

    def test_kpartite_phi_matches_tree_count(self):
        for n_list in ((2, 2, 2), (2, 3, 2), (2, 2, 2, 2)):
            q = compute_qasst(complete_multipartite_graph(n_list))
            assert phi_count(q) == kpartite_phi(n_list)

    def test_path_values(self):
        want = [612, 1672, 4568, 12480, 34096, 93152]
        assert [phi_count(compute_qasst(path_graph(n))) for n in range(8, 14)] == want

    def test_path_recurrence_within_time_floor(self):
        # phi(P_n) follows a(n) = 2a(n-1) + 2a(n-2); long paths are deep
        # trees (n - 2 quotients), so the count must neither recompute
        # subtrees nor recurse.  A floor, never to be loosened.
        start = time.monotonic()
        a = {n: phi_count(compute_qasst(path_graph(n))) for n in (4, 5)}
        for n in range(6, 1101):
            a[n] = 2 * a[n - 1] + 2 * a[n - 2]
        for n in list(range(6, 61)) + [300, 1100]:
            assert phi_count(compute_qasst(path_graph(n))) == a[n], n
        assert time.monotonic() - start < 10.0

    def test_orbit_sizes_sum_to_phi(self):
        for k in range(3, 7):
            for n_list in ((2,) * k, (5,) * k, tuple(2 + i % 4 for i in range(k))):
                assert kpartite_orbit_size(n_list) + clique_star_orbit_size(
                    n_list
                ) == kpartite_phi(n_list)


class TestOrbitSizes:
    def test_bipartite_formula_vs_oracle(self):
        for n, m in itertools.product((2, 3), repeat=2):
            got = len(enumerate_orbit(complete_bipartite_graph(n, m)))
            assert got == bipartite_orbit_size(n, m) == n * m + n + m + 3

    def test_block_formulas_vs_oracle(self):
        for n_list in ((2, 2, 2), (2, 2, 3)):
            ok = len(enumerate_orbit(complete_multipartite_graph(n_list)))
            oc = len(enumerate_orbit(clique_star_graph(n_list, 1)))
            assert ok == kpartite_orbit_size(n_list) == orbit_size(KPARTITE, n_list)
            assert oc == clique_star_orbit_size(n_list) == orbit_size(CLIQUE_STAR, n_list)

    def test_known_values(self):
        assert kpartite_orbit_size((2, 2, 2)) == 40
        assert clique_star_orbit_size((2, 2, 2)) == 41
        assert kpartite_orbit_size((2, 2, 2, 2)) == 149
        assert clique_star_orbit_size((2, 2, 2, 2)) == 148


class TestIsoClasses:
    def test_equal_block_formulas(self):
        assert iso_class_count(KPARTITE, 3) == 5
        assert iso_class_count(CLIQUE_STAR, 3) == 5
        assert iso_class_count(KPARTITE, 4) == 7
        assert iso_class_count(CLIQUE_STAR, 4) == 6

    def test_bipartite(self):
        assert bipartite_iso_class_count(2, 2) == 4
        assert bipartite_iso_class_count(2, 3) == 6


class TestAssignments:
    def test_edge_and_degree_match_realized_graphs(self):
        for n_list in ((2, 3, 2), (3, 2, 4, 2), (2, 2, 3, 2, 5)):
            k = len(n_list)
            realized = 0
            for q0 in ["c"] + [("sc", j) for j in range(1, k + 1)]:
                at = q0_shape(q0, k)
                for kinds in itertools.product(("c", "sc", "ss"), repeat=k):
                    if not all(map(join_validity, at, kinds)):
                        with pytest.raises(InvalidAssignmentError, match="invalid join"):
                            edge_count_from_assignment(n_list, q0, kinds)
                        continue
                    g = reconstruct(build_star_qasst(n_list, q0, kinds))
                    assert edge_count(g) == edge_count_from_assignment(n_list, q0, kinds), (n_list, q0, kinds)
                    assert max_degree(g) == max_degree_from_assignment(n_list, q0, kinds), (n_list, q0, kinds)
                    realized += 1
            # A complete Q0 joins sc or ss at each block; a star Q0 joins c or
            # sc at its centre's block and c or ss at each other block.
            assert realized == (k + 1) * 2 ** k, n_list

    @pytest.mark.parametrize(
        "q0, kinds, message",
        [
            ("c", ("c", "c"), "need one of c/sc/ss per block"),
            ("c", ("c", "c", "x"), "need one of c/sc/ss per block"),
            (("sc", 4), ("c", "c", "c"), r"Q0 center index 4 out of 1\.\.3"),
            ("x", ("c", "c", "c"), "Q0 kind must be"),
            ("c", ("sc", "c", "ss"), "invalid join c-c at block 2"),
            (("sc", 2), ("sc", "c", "c"), "invalid join ss-sc at block 1"),
        ],
    )
    def test_malformed_assignments_refused(self, q0, kinds, message):
        for measure in (edge_count_from_assignment, max_degree_from_assignment):
            with pytest.raises(InvalidAssignmentError, match=message):
                measure((2, 3, 2), q0, kinds)

    def test_linear_in_the_block_count(self):
        # Q0 on 2000 blocks has about two million pairs; the degree profile lists none of them.
        tracemalloc.start()
        try:
            assert len(min_max_degree_rep(KPARTITE, [2] * 2000)) >= 1
            edge_count_from_assignment([2] * 2000, "c", ("sc",) * 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestRepresentatives:
    def test_bipartite_minima(self):
        for n, m in ((2, 2), (2, 3), (3, 3)):
            o = enumerate_orbit(complete_bipartite_graph(n, m))
            assert min_edge_member(o)[1] == bipartite_min_edge_count(n, m) == n + m - 1
            assert min_max_degree_member(o)[1] == bipartite_min_max_degree(n, m) == max(n, m)

    @pytest.mark.parametrize(
        "tag,n_list",
        [
            (KPARTITE, (2, 2, 2)),
            (CLIQUE_STAR, (2, 2, 2)),
            (KPARTITE, (2, 2, 3)),
            (CLIQUE_STAR, (2, 2, 3)),
            (KPARTITE, (2, 2, 2, 2)),
            (CLIQUE_STAR, (2, 2, 2, 2)),
        ],
    )
    def test_block_minima_vs_oracle(self, tag, n_list):
        base = (
            complete_multipartite_graph(n_list)
            if tag == KPARTITE
            else clique_star_graph(n_list, 1)
        )
        o = enumerate_orbit(base)
        reps = min_edge_rep(tag, n_list)
        assert reps[0].value == min_edge_member(o)[1]
        dreps = min_max_degree_rep(tag, n_list)
        assert dreps[0].value == min_max_degree_member(o)[1]

    def test_hyperbola_tie(self):
        # f(4, 2) = 0: the k-partite (2,2,2,2) minimum is achieved by two cases.
        assert min_edge_hyperbola(4, 2) == 0
        reps = min_edge_rep(KPARTITE, (2, 2, 2, 2))
        assert [r.case_id for r in reps] == [1, 3]
        assert reps[0].value == reps[1].value == 10

    def test_rep_values_are_realizable(self):
        for tag in (KPARTITE, CLIQUE_STAR):
            for n_list in ((2, 2, 2), (2, 3, 4), (2, 2, 2, 2, 2)):
                for rep in min_edge_rep(tag, n_list):
                    assert (
                        edge_count_from_assignment(n_list, rep.q0_kind, rep.kinds)
                        == rep.value
                    )
                for rep in min_max_degree_rep(tag, n_list):
                    assert (
                        max_degree_from_assignment(n_list, rep.q0_kind, rep.kinds)
                        == rep.value
                    )

    def test_k5_degree_target(self):
        dreps = min_max_degree_rep(KPARTITE, (2,) * 5)
        assert dreps[0].value == 4


class TestPhiRooting:
    """phi_count roots the tree with qasst._orient; the count cannot depend on the root."""

    def test_same_count_from_every_numbering(self):
        import random

        from lcsplit.qasst import SplitNode
        from lcsplit.qasst_ops import random_dh

        rng = random.Random(3)
        for n in range(3, 40, 2):
            q = compute_qasst(random_dh(n, n)[0])
            want = phi_count(q)
            for _ in range(3):
                new = list(q.quotients)
                rng.shuffle(new)
                remap = dict(zip(q.quotients, new))
                names = {s: SplitNode(remap[s.i], remap[s.j]) for quot in q.quotients.values() for s in quot.split_nodes()}
                tree = Qasst({remap[i]: quot.relabelled(names) for i, quot in q.quotients.items()})
                tree.validate()
                assert phi_count(tree) == want

    def test_empty_tree_rejected(self):
        with pytest.raises(UnsupportedQasstError):
            phi_count(Qasst({}))


class TestPhiOneDynamicProgram:
    def test_a_two_node_quotient_counts_the_same_from_either_root(self):
        # An unreduced tree, as from_json_dict accepts one: a two-node
        # complete quotient {1, s} joined to the star {2, 3, t} centred at t.
        # It is a tree of P3, counted on a reduced copy, which leaves the
        # tree itself as it was.
        from lcsplit.qasst import SplitNode, to_json_text

        counts = []
        for a, b in ((0, 1), (1, 0)):  # the two-node quotient is the root, then a child
            s, t = SplitNode(a, b), SplitNode(b, a)
            tree = Qasst({a: QuotientGraph([1, s], [(1, s)]), b: QuotientGraph([2, 3, t], [(2, t), (3, t)])})
            tree.validate()
            before = to_json_text(tree)
            counts.append(phi_count(tree))
            assert to_json_text(tree) == before
            assert sorted(map(len, (quot.nodes for quot in tree.quotients.values()))) == [2, 3]
        assert counts == [4, 4] == [len(enumerate_orbit(path_graph(3)))] * 2
