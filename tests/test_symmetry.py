"""Symmetry classes, transformation synthesis, and closure rules."""

import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from oracles import classify_bipartite_member
from lcsplit import symmetry
from lcsplit.counting import orbit_size
from lcsplit.errors import InvalidCaseError, MalformedQasstError, SizeLimitError
from lcsplit.families import (
    CLIQUE_STAR,
    KPARTITE,
    block_ranges,
    clique_star_graph,
    complete_bipartite_graph,
    complete_multipartite_graph,
)
from lcsplit.graphs import apply_sequence, canonical_key, local_complement
from lcsplit.orbit import enumerate_orbit
from lcsplit.symmetry import (
    MAX_CASES,
    SymmetryCase,
    analyze_star_member,
    build_star_qasst,
    classify_star_member,
    closure_step,
    enumerate_cases,
    realize,
    synthesize_transformation,
)


class TestSymmetryCase:
    def test_parity_validation(self):
        SymmetryCase(KPARTITE, 1, None, frozenset())
        SymmetryCase(KPARTITE, 3, 1, frozenset({2}))
        SymmetryCase(CLIQUE_STAR, 1, None, frozenset({1}))
        with pytest.raises(InvalidCaseError):
            SymmetryCase(KPARTITE, 1, None, frozenset({1}))
        with pytest.raises(InvalidCaseError):
            SymmetryCase(CLIQUE_STAR, 3, 1, frozenset({2}))

    def test_pointer_constraints(self):
        with pytest.raises(InvalidCaseError):
            SymmetryCase(KPARTITE, 2, None, frozenset())
        with pytest.raises(InvalidCaseError):
            SymmetryCase(KPARTITE, 1, 2, frozenset())
        with pytest.raises(InvalidCaseError):
            SymmetryCase(KPARTITE, 2, 1, frozenset({1, 2}))


class TestEnumerateCases:
    @pytest.mark.parametrize("tag", [KPARTITE, CLIQUE_STAR])
    @pytest.mark.parametrize(
        "n_list", [(2, 2, 2), (2, 3, 4), (2, 2, 2, 2), (3, 3, 3, 3), (2,) * 5]
    )
    def test_totals_equal_orbit_size(self, tag, n_list):
        total = sum(mult for _, mult in enumerate_cases(tag, n_list))
        assert total == orbit_size(tag, n_list)

    @pytest.mark.parametrize("tag", [KPARTITE, CLIQUE_STAR])
    def test_class_count_in_closed_form(self, tag):
        for k in range(3, 10):
            assert len(enumerate_cases(tag, (2,) * k)) == (k + 1) << (k - 1)
        # 16 blocks are listed, 17 refused.
        assert (16 + 1) << 15 <= MAX_CASES < (17 + 1) << 16

    @pytest.mark.parametrize("tag", [KPARTITE, CLIQUE_STAR])
    def test_over_the_cap_refused_before_listing(self, tag, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a class was listed")

        monkeypatch.setattr(symmetry, "SymmetryCase", refuse)
        with pytest.raises(SizeLimitError, match="symmetry classes are limited to 1000000"):
            enumerate_cases(tag, (2,) * 17)


# Classes naming a block outside 1..3, with the refusal each gets on three blocks.
OUT_OF_RANGE = [
    (KPARTITE, 1, None, {1, 4}, "block index 4 out of 1..3"),
    (KPARTITE, 1, None, {-1, 2}, "block index -1 out of 1..3"),
    (CLIQUE_STAR, 1, None, {4}, "block index 4 out of 1..3"),
    (KPARTITE, 2, 0, set(), "pointer index 0 out of 1..3"),
    (CLIQUE_STAR, 2, 0, {1}, "pointer index 0 out of 1..3"),
    (CLIQUE_STAR, 3, 4, set(), "pointer index 4 out of 1..3"),
]


class TestBuildStarQasst:
    @pytest.mark.parametrize("tag, case_id, j, I, message", OUT_OF_RANGE)
    def test_out_of_range_index(self, tag, case_id, j, I, message):
        case = SymmetryCase(tag, case_id, j, frozenset(I))
        for build in (build_star_qasst, realize):
            with pytest.raises(InvalidCaseError) as info:
                build(case, (2, 2, 2))
            assert str(info.value) == message

    def test_every_class_validates(self):
        n_list = (2, 3, 2)
        for tag in (KPARTITE, CLIQUE_STAR):
            for case, _ in enumerate_cases(tag, n_list):
                q = build_star_qasst(case, n_list)
                q.validate()
                assert len(q.quotients) == 4

    @pytest.mark.parametrize(
        "case, n_list",
        [
            (SymmetryCase(CLIQUE_STAR, 3, 1, frozenset()), (1000, 1000, 1000)),  # every block complete
            (SymmetryCase(KPARTITE, 1, None, frozenset()), (2,) * 1000),  # Q0 complete
        ],
    )
    def test_quotients_are_made_as_their_kind(self, case, n_list):
        # Made as its kind, a complete quotient of 1000 nodes, a block or Q0,
        # lists none of its half a million edges.
        tracemalloc.start()
        try:
            build_star_qasst(case, n_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestRealize:
    def test_identity_cases(self):
        for n_list in ((2, 2, 2), (2, 3, 4)):
            case1 = SymmetryCase(KPARTITE, 1, None, frozenset())
            assert realize(case1, n_list) == complete_multipartite_graph(n_list)
            for r in range(1, len(n_list) + 1):
                case3 = SymmetryCase(CLIQUE_STAR, 3, r, frozenset())
                assert realize(case3, n_list) == clique_star_graph(n_list, r)

    def test_full_orbit_coverage(self):
        # Every (case, center choice) realizes a distinct member; together
        # they cover the brute-force orbit exactly.
        for tag, base in (
            (KPARTITE, complete_multipartite_graph((2, 2, 2))),
            (CLIQUE_STAR, clique_star_graph((2, 2, 2), 1)),
        ):
            n_list = (2, 2, 2)
            blocks = block_ranges(n_list)
            orbit = enumerate_orbit(base)
            built = set()
            for case, mult in enumerate_cases(tag, n_list):
                I = sorted(case.I)
                combos = itertools.product(*[blocks[i - 1] for i in I]) if I else [()]
                count = 0
                for centers in combos:
                    g = realize(replace(case, centers=dict(zip(I, centers))), n_list)
                    key = canonical_key(g)
                    assert key not in built
                    built.add(key)
                    count += 1
                assert count == mult
            assert built == set(orbit.members)

    def test_too_many_edges_refused(self):
        case = SymmetryCase(KPARTITE, 3, 1, frozenset({2}))
        with pytest.raises(SizeLimitError, match="limited to 1000000 edges"):
            realize(case, (1000, 1000, 1000))


class TestClassification:
    def test_round_trip(self):
        n_list = (2, 2, 2)
        blocks = block_ranges(n_list)
        for tag in (KPARTITE, CLIQUE_STAR):
            for case, _ in enumerate_cases(tag, n_list):
                I = sorted(case.I)
                combos = itertools.product(*[blocks[i - 1] for i in I]) if I else [()]
                for centers in combos:
                    cdict = dict(zip(I, centers))
                    got = classify_star_member(realize(replace(case, centers=cdict), n_list), n_list)
                    assert (got.tag, got.case_id, got.j, got.I, got.centers) == (
                        tag,
                        case.case_id,
                        case.j,
                        case.I,
                        cdict,
                    )

    @pytest.mark.parametrize("n_list, sizes", [
        ((2, 2, 2), (40, 41)), ((2, 3, 2), (50, 52)), ((2, 2, 2, 2), (149, 148)),
    ])
    def test_orbit_members_per_class(self, n_list, sizes):
        # The enumeration checked directly: the BFS orbit's members, counted
        # per class they classify into, are the classes with their multiplicities.
        bases = (complete_multipartite_graph(n_list), clique_star_graph(n_list, 1))
        for tag, base, size in zip((KPARTITE, CLIQUE_STAR), bases, sizes):
            members = enumerate_orbit(base).sorted_members()
            assert len(members) == size
            assert Counter(classify_star_member(g, n_list) for g in members) == dict(enumerate_cases(tag, n_list))
            for case, _ in enumerate_cases(tag, n_list):
                got = classify_star_member(realize(case, n_list), n_list)
                assert got == case and hash(got) == hash(case)

    def test_bipartite_blocks_must_match(self):
        with pytest.raises(MalformedQasstError, match="unexpected"):
            classify_bipartite_member(complete_bipartite_graph(2, 3), 3, 2)

    def test_star_member_refuses_other_trees(self):
        with pytest.raises(MalformedQasstError, match="star-shaped"):
            analyze_star_member(complete_bipartite_graph(2, 3), (2, 3))
        with pytest.raises(MalformedQasstError, match=r"leaf block \[1, 2\] unexpected"):
            analyze_star_member(complete_multipartite_graph((2, 2, 2)), (3, 2, 1))

    def test_bipartite_kind_counts(self):
        orbit = enumerate_orbit(complete_bipartite_graph(2, 3))
        counts: dict = {}
        for g in orbit.sorted_members():
            pair = classify_bipartite_member(g, 2, 3)
            counts[pair] = counts.get(pair, 0) + 1
        assert counts == {
            ("sc", "sc"): 1,
            ("sc", "c"): 1,
            ("c", "sc"): 1,
            ("ss", "c"): 2,
            ("c", "ss"): 3,
            ("ss", "ss"): 6,
        }


class TestSynthesis:
    def test_documented_sequences(self):
        n_list = (2, 2, 2, 2)
        assert synthesize_transformation(
            SymmetryCase(KPARTITE, 3, 1, frozenset({2})), n_list
        ) == [1, 3]
        assert synthesize_transformation(
            SymmetryCase(KPARTITE, 1, None, frozenset({1, 2})), n_list
        ) == [1, 3, 1]
        assert synthesize_transformation(
            SymmetryCase(CLIQUE_STAR, 2, 1, frozenset({2})), n_list, r=1
        ) == [3]
        assert synthesize_transformation(
            SymmetryCase(CLIQUE_STAR, 1, None, frozenset({1, 2, 3})),
            n_list, r=1,
        ) == [3, 5, 1]

    @pytest.mark.parametrize("n_list", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_lands_in_predicted_class(self, n_list):
        blocks = block_ranges(n_list)
        for tag in (KPARTITE, CLIQUE_STAR):
            base = (
                complete_multipartite_graph(n_list)
                if tag == KPARTITE
                else clique_star_graph(n_list, 1)
            )
            for case, _ in enumerate_cases(tag, n_list):
                I = sorted(case.I)
                centers = {i: blocks[i - 1][0] for i in I}
                seq = synthesize_transformation(case, n_list, r=1)
                got = classify_star_member(apply_sequence(base, seq), n_list)
                assert (got.case_id, got.j, got.I, got.centers) == (
                    case.case_id,
                    case.j,
                    case.I,
                    centers,
                )


def _assert_closure_predicts(tag, base, n_list):
    for g in enumerate_orbit(base).sorted_members():
        case, roles = analyze_star_member(g, n_list)
        assert case.tag == tag
        for v in range(1, g.n + 1):
            predicted = closure_step(case, roles[v])
            got = classify_star_member(local_complement(g, v), n_list)
            assert got.tag == tag
            assert (got.case_id, got.j) == predicted


class TestClosure:
    @pytest.mark.parametrize(
        "tag,base",
        [
            (KPARTITE, complete_multipartite_graph((2, 2, 2))),
            (CLIQUE_STAR, clique_star_graph((2, 2, 2), 1)),
        ],
    )
    def test_predicts_every_lc_image(self, tag, base):
        _assert_closure_predicts(tag, base, (2, 2, 2))

    @pytest.mark.parametrize("n_list", [(2, 2, 2, 2), (2, 2, 3)])
    @pytest.mark.parametrize("tag", [KPARTITE, CLIQUE_STAR])
    def test_predicts_every_lc_image_past_k3(self, tag, n_list):
        base = complete_multipartite_graph(n_list) if tag == KPARTITE else clique_star_graph(n_list, 1)
        _assert_closure_predicts(tag, base, n_list)

    def test_impossible_roles_rejected(self):
        case1 = SymmetryCase(KPARTITE, 1, None, frozenset())
        with pytest.raises(InvalidCaseError):
            closure_step(case1, ("c", 1))
        with pytest.raises(InvalidCaseError):
            closure_step(case1, ("ss_center", 1))  # 1 not in I

    @pytest.mark.parametrize("case, role", [
        (SymmetryCase(KPARTITE, 2, 1, frozenset()), ("c", 1)),  # Q_1 is sc
        (SymmetryCase(KPARTITE, 2, 1, frozenset({2, 3})), ("sc", 2)),
        (SymmetryCase(KPARTITE, 2, 1, frozenset()), ("ss_spoke", 2)),  # 2 not in I
        (SymmetryCase(KPARTITE, 3, 2, frozenset({1})), ("sc", 2)),  # Q_2 is c
        (SymmetryCase(KPARTITE, 3, 2, frozenset({1})), ("c", 1)),  # 1 in I
        (SymmetryCase(KPARTITE, 3, 2, frozenset({1})), ("ss_center", 3)),
    ])
    def test_impossible_roles_rejected_in_cases_2_and_3(self, case, role):
        with pytest.raises(InvalidCaseError) as info:
            closure_step(case, role)
        assert str(info.value) == f"role {role} impossible in case {case.case_id}({case.j})"


class TestSynthesisIndexRange:
    """A case naming a block outside 1..k is refused, never read from another block."""

    @pytest.mark.parametrize("tag, case_id, j, I, message", OUT_OF_RANGE)
    def test_out_of_range_index(self, tag, case_id, j, I, message):
        case = SymmetryCase(tag, case_id, j, frozenset(I))
        with pytest.raises(InvalidCaseError) as info:
            synthesize_transformation(case, (2, 2, 2))
        assert str(info.value) == message


class TestStarShapeRefused:
    def test_a_block_quotient_hung_off_another_block_is_refused(self):
        # Q0 complete on three split-nodes, joined to star-centre quotients over
        # {1,2}, {3,4} and {5,6}; the {1,2} quotient also carries a complete {7,8}.
        from lcsplit.graphs import SimpleGraph
        from lcsplit.qasst import compute_qasst

        blocks = [(1, 2), (3, 4), (5, 6)]
        edges = [(a, b) for i, j in ((0, 1), (0, 2), (1, 2)) for a in blocks[i] for b in blocks[j]]
        g = SimpleGraph(8, edges + [(7, 8)] + [(a, b) for a in (3, 4, 5, 6) for b in (7, 8)])
        q = compute_qasst(g)
        assert len(q.quotients) == 5
        assert sorted(len(quot.split_nodes()) for quot in q.quotients.values()) == [1, 1, 1, 2, 3]
        with pytest.raises(MalformedQasstError) as info:
            analyze_star_member(g, (2, 2, 2, 2))
        assert str(info.value) == "graph does not have the star-shaped QASST"

    def test_two_leafless_quotients_are_refused_not_unpacked(self):
        # Eight vertices read on five blocks of two: the tree has k + 1 = 6
        # quotients, four blocks' and two leafless ones.
        from lcsplit.graphs import SimpleGraph

        edges = [(a, b) for a in (1, 2) for b in (3, 4)] + [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)]
        g = SimpleGraph(8, edges + [(5, 6), (7, 8)])
        with pytest.raises(MalformedQasstError) as info:
            analyze_star_member(g, (2,) * 5)
        assert str(info.value) == "graph does not have the star-shaped QASST"
