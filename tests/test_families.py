"""Graph family constructors: labeling conventions and closed-form sizes."""

import itertools
import math

import pytest

from lcsplit.errors import InvalidSpecError
from lcsplit.families import (
    CLIQUE_STAR,
    KPARTITE,
    FamilySpec,
    block_ranges,
    build,
    clique_star_graph,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    mlr_orbit_home,
    multi_leaf_repeater_graph,
    orbit_of,
    path_graph,
    repeater_graph,
    star_graph,
)
from lcsplit.graphs import degree, edge_count, neighborhood


def small_block_lists(max_k=6, max_n=5):
    for k in range(3, max_k + 1):
        yield (2,) * k
        yield (max_n,) * k
        yield tuple(2 + (i % (max_n - 1)) for i in range(k))


class TestBasicFamilies:
    def test_complete(self):
        g = complete_graph(4)
        assert edge_count(g) == 6 and all(degree(g, v) == 3 for v in range(1, 5))

    def test_star_center_is_vertex_one(self):
        g = star_graph(3)
        assert g.n == 4
        assert neighborhood(g, 1) == {2, 3, 4}
        assert edge_count(g) == 3

    def test_path_and_cycle(self):
        p = path_graph(4)
        assert p.edges() == [(1, 2), (2, 3), (3, 4)]
        c = cycle_graph(4)
        assert c.edges() == [(1, 2), (1, 4), (2, 3), (3, 4)]

    def test_bipartite_blocks(self):
        g = complete_bipartite_graph(2, 3)
        assert g.n == 5
        assert neighborhood(g, 1) == {3, 4, 5}
        assert not g.has_edge(1, 2) and not g.has_edge(3, 4)


class TestBlockFamilies:
    def test_block_ranges_are_consecutive(self):
        assert [list(r) for r in block_ranges((2, 3))] == [[1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("n_list", list(small_block_lists()))
    def test_multipartite_edge_count(self, n_list):
        g = complete_multipartite_graph(n_list)
        total = sum(n_list)
        want = (total * (total - 1) - sum(n * (n - 1) for n in n_list)) // 2
        assert edge_count(g) == want
        for block in block_ranges(n_list):
            v = block[0]
            assert degree(g, v) == total - len(block)

    @pytest.mark.parametrize("n_list", list(small_block_lists()))
    def test_clique_star_edge_count(self, n_list):
        for r in (1, len(n_list)):
            g = clique_star_graph(n_list, r)
            want = sum(n * (n - 1) // 2 for n in n_list) + n_list[r - 1] * sum(
                n for i, n in enumerate(n_list, start=1) if i != r
            )
            assert edge_count(g) == want

    def test_clique_star_small_example(self):
        assert edge_count(clique_star_graph((2, 2, 2), 1)) == 11

    @pytest.mark.parametrize("n_list", list(small_block_lists()))
    def test_mlr_degrees(self, n_list):
        g = multi_leaf_repeater_graph(n_list)
        k = len(n_list)
        cores = [block[0] for block in block_ranges(n_list)]
        for core, n in zip(cores, n_list):
            assert degree(g, core) == (k - 1) + (n - 1)
        leaves = set(range(1, g.n + 1)) - set(cores)
        assert all(degree(g, v) == 1 for v in leaves)

    def test_repeater_equals_all_two_mlr(self):
        for k in range(3, 7):
            assert repeater_graph(k) == multi_leaf_repeater_graph((2,) * k)

    def test_mlr_orbit_home_parity(self):
        assert mlr_orbit_home(3) == CLIQUE_STAR
        assert mlr_orbit_home(4) == KPARTITE
        assert mlr_orbit_home(5) == CLIQUE_STAR

    def test_orbit_of_parity_rule(self):
        even_first = [KPARTITE, CLIQUE_STAR, KPARTITE, CLIQUE_STAR, KPARTITE]
        odd_first = [CLIQUE_STAR, KPARTITE, CLIQUE_STAR, KPARTITE, CLIQUE_STAR]
        assert [orbit_of(1, spokes) for spokes in range(5)] == even_first
        assert [orbit_of(2, spokes) for spokes in range(5)] == even_first
        assert [orbit_of(3, spokes) for spokes in range(5)] == odd_first


class TestSpecValidation:
    def test_build_dispatch(self):
        assert build(FamilySpec("cycle", (5,))) == cycle_graph(5)
        assert build(FamilySpec("clique_star", (2, 2, 2), center=2)) == clique_star_graph(
            (2, 2, 2), 2
        )

    def test_unknown_family(self):
        with pytest.raises(InvalidSpecError):
            FamilySpec("moebius", (3,))

    def test_block_constraints(self):
        with pytest.raises(InvalidSpecError):
            clique_star_graph((2, 2), 1)
        with pytest.raises(InvalidSpecError):
            clique_star_graph((2, 1, 2), 1)
        with pytest.raises(InvalidSpecError):
            clique_star_graph((2, 2, 2), 4)
        with pytest.raises(InvalidSpecError):
            multi_leaf_repeater_graph((2, 2))

    def test_clique_star_requires_center(self):
        with pytest.raises(InvalidSpecError):
            build(FamilySpec("clique_star", (2, 2, 2)))


class TestBlockListRule:
    """Both star-shaped families refuse a bad block list with the one check_blocks message."""

    @pytest.mark.parametrize("n_list", [(2, 2), (2, 1, 2), (3, 3, 3, 0), ()])
    def test_one_message(self, n_list):
        for build_family in (lambda n: clique_star_graph(n, 1), multi_leaf_repeater_graph):
            with pytest.raises(InvalidSpecError) as info:
                build_family(n_list)
            assert str(info.value) == "need k >= 3 blocks with all n_i >= 2"
