"""Brute-force orbit oracle: enumeration, equivalence, representatives."""

import itertools
import math
import random
import time
from collections import deque

import pytest

from helpers import all_connected_graphs, all_graphs, random_connected_graph
from oracles import all_pivot_orbit, iso_classes_by_search, iso_form
from lcsplit import orbit
from lcsplit.counting import CLIQUE_STAR, KPARTITE, bouchet_cycle_count, iso_class_count
from lcsplit.errors import BudgetExceededError, NotEquivalentError, SizeLimitError
from lcsplit.families import (
    clique_star_graph,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from lcsplit.graphs import (
    SimpleGraph,
    _flat,
    _iso_plan,
    _iso_search,
    _vertex_invariants,
    apply_sequence,
    canonical_key,
    edge_count,
    find_isomorphism,
    is_connected,
    is_isomorphic,
    local_complement,
    max_degree,
)
from lcsplit.qasst import is_distance_hereditary
from lcsplit.orbit import (
    are_lc_equivalent,
    enumerate_orbit,
    min_edge_member,
    min_max_degree_member,
    orbit_iso_classes,
    transformation_between,
)


class TestEnumeration:
    def test_singleton_orbits(self):
        assert len(enumerate_orbit(SimpleGraph(1))) == 1
        # K2's only LCs are identities.
        assert len(enumerate_orbit(complete_graph(2))) == 1

    def test_complete_graph_orbits(self):
        # K_n moves to n star relabelings plus itself.
        for n in range(3, 9):
            assert len(enumerate_orbit(complete_graph(n))) == n + 1

    def test_orbit_is_closed(self):
        o = enumerate_orbit(complete_bipartite_graph(2, 2))
        for g in o.sorted_members():
            for v in range(1, g.n + 1):
                assert local_complement(g, v) in o

    def test_base_membership_and_determinism(self):
        g = complete_bipartite_graph(2, 3)
        o1, o2 = enumerate_orbit(g), enumerate_orbit(g)
        assert g in o1
        assert list(o1.members) == list(o2.members)

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_orbit(complete_bipartite_graph(3, 3), limit=5)
        assert info.value.partial_count >= 5
        assert info.value.limit == 5

    def test_twelve_cycle_within_time_floor(self):
        # A floor, never to be loosened.
        start = time.monotonic()
        size = len(enumerate_orbit(cycle_graph(12)))
        assert time.monotonic() - start < 10.0
        assert size == bouchet_cycle_count(12) == 170196

    def test_isolated_vertices_are_never_pivots(self):
        # C6 + P4 on the top-numbered vertices of an n-vertex graph; the rest stay isolated in every member.
        def padded(n):
            c, p = n - 9, n - 3
            cycle = [(c + i, c + (i + 1) % 6) for i in range(6)]
            return SimpleGraph(n, cycle + [(p + i, p + i + 1) for i in range(3)])

        base = enumerate_orbit(padded(10))
        want = (len(base), min_edge_member(base)[1], min_max_degree_member(base)[1])
        assert want[0] == 4092
        assert [(len(o), min_edge_member(o)[1], min_max_degree_member(o)[1])
                for o in map(enumerate_orbit, (padded(11), padded(40)))] == [want, want]
        # A floor, never to be loosened.
        start = time.monotonic()
        size = len(enumerate_orbit(padded(600)))
        assert time.monotonic() - start < 10.0
        assert size == want[0]


class TestEquivalence:
    def test_star_and_complete_are_equivalent(self):
        assert are_lc_equivalent(star_graph(3), complete_graph(4))

    def test_different_sizes_are_not(self):
        assert not are_lc_equivalent(complete_graph(3), complete_graph(4))

    def test_transformation_is_replayable(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 6), rng)
            h = apply_sequence(g, [rng.randint(1, g.n) for _ in range(4)])
            seq = transformation_between(g, h)
            assert apply_sequence(g, seq) == h

    def test_transformation_finds_target_by_key(self):
        g = star_graph(3)
        assert transformation_between(g, SimpleGraph(4, g.edges())) == []
        seq = transformation_between(g, SimpleGraph(4, complete_graph(4).edges()))
        assert apply_sequence(g, seq) == complete_graph(4)

    def test_transformation_rejects_non_equivalent(self):
        with pytest.raises(NotEquivalentError):
            transformation_between(
                complete_graph(5), SimpleGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
            )

    def test_limit_is_read_before_the_vertex_counts(self):
        # Graphs of different sizes are refused only once the budget is an integer.
        k2 = SimpleGraph(2, [(1, 2)])
        with pytest.raises(TypeError, match="expected an integer, got 2.5"):
            transformation_between(k2, SimpleGraph(3), limit=2.5)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            are_lc_equivalent(k2, k2, limit=0)

    def test_identical_graphs_need_no_search(self):
        # P30's orbit is far above 10 members; an identical pair is answered before any BFS.
        p30 = path_graph(30)
        assert are_lc_equivalent(p30, p30, limit=10)
        assert transformation_between(p30, SimpleGraph(30, p30.edges()), limit=10) == []
        with pytest.raises(BudgetExceededError):
            enumerate_orbit(p30, limit=10)
        with pytest.raises(TypeError, match="expected an integer, got True"):
            transformation_between(p30, p30, limit=True)


class TestRepresentatives:
    def test_iso_classes_partition_orbit(self):
        o = enumerate_orbit(complete_bipartite_graph(2, 2))
        classes = orbit_iso_classes(o)
        assert sum(mult for _, mult in classes) == len(o)
        reps = [rep for rep, _ in classes]
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                assert not is_isomorphic(reps[a], reps[b])

    def test_iso_classes_refuse_more_than_sixteen_vertices_before_keying(self, monkeypatch):
        o = enumerate_orbit(star_graph(16))
        monkeypatch.setattr(orbit, "_keyer", lambda n: pytest.fail("members keyed"))
        with pytest.raises(SizeLimitError, match="^isomorphism search limited to 16 vertices, got 17$"):
            orbit_iso_classes(o)

    def test_minima_are_attained(self):
        o = enumerate_orbit(complete_bipartite_graph(2, 3))
        best_e, edges = min_edge_member(o)
        assert edges == min(edge_count(g) for g in o.sorted_members())
        assert edge_count(best_e) == edges
        best_d, delta = min_max_degree_member(o)
        assert delta == min(max_degree(g) for g in o.sorted_members())
        assert max_degree(best_d) == delta

    def test_tie_break_is_canonical(self):
        o = enumerate_orbit(complete_bipartite_graph(2, 2))
        best, edges = min_edge_member(o)
        candidates = [g for g in o.sorted_members() if edge_count(g) == edges]
        assert canonical_key(best) == min(canonical_key(g) for g in candidates)


def _key_bfs(g, limit=10**6):
    """Reference orbit BFS de-duplicated by canonical key: (members, parent)."""
    base = canonical_key(g)
    members, parent = {base: g}, {base: None}
    queue = deque([(base, g)])
    while queue:
        key, cur = queue.popleft()
        for v in range(1, g.n + 1):
            nxt = local_complement(cur, v)
            nkey = canonical_key(nxt)
            if nkey not in members:
                if len(members) >= limit:
                    raise BudgetExceededError(len(members), limit)
                members[nkey], parent[nkey] = nxt, (key, v)
                queue.append((nkey, nxt))
    return members, parent


def _random_graphs(seed, sizes, per_size):
    rng = random.Random(seed)
    return [
        random_connected_graph(n, rng, rng.choice([0.2, 0.4, 0.6]))
        for n in sizes
        for _ in range(per_size)
    ]


def _path_to(parent, key):
    steps = []
    while parent[key] is not None:
        key, v = parent[key]
        steps.append(v)
    return steps[::-1]


def _assert_first_pivots(o, parent):
    """Each member but the base, complemented at the pivot that first reached it, is its predecessor in ``parent``."""
    for v, (key, member) in zip(o.flats.values(), o.members.items()):
        if v is None:
            assert parent[key] is None
        else:
            assert (canonical_key(local_complement(member, v)), v) == parent[key]


class TestAdjKeyedBfs:
    """The adjacency-keyed BFS against a canonical-key BFS oracle."""

    @staticmethod
    def _check(g, rng):
        members, parent = _key_bfs(g)
        o = enumerate_orbit(g)
        assert list(o.members) == list(members)
        assert list(o.members.values()) == list(members.values())
        _assert_first_pivots(o, parent)
        keys = list(members)
        for key in (keys[-1], rng.choice(keys)):
            assert transformation_between(g, members[key]) == _path_to(parent, key)
        limit = max(1, len(members) // 2)
        if limit < len(members):
            with pytest.raises(BudgetExceededError) as expected:
                _key_bfs(g, limit)
            with pytest.raises(BudgetExceededError) as got:
                enumerate_orbit(g, limit=limit)
            assert got.value.partial_count == expected.value.partial_count

    def test_every_connected_graph_up_to_five_vertices(self):
        rng = random.Random(0)
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                self._check(g, rng)

    def test_seeded_random_graphs_six_to_eight_vertices(self):
        rng = random.Random(1)
        graphs = _random_graphs(2, (6, 7, 8), 2)
        assert not all(is_distance_hereditary(g) for g in graphs)
        for g in graphs:
            self._check(g, rng)

    def test_membership_is_by_adjacency(self):
        o = enumerate_orbit(complete_bipartite_graph(2, 3))
        for g in o.members.values():
            assert g in o and SimpleGraph(g.n, g.edges()) in o
        assert complete_graph(5) not in o
        assert complete_graph(4) not in o


def _assert_matches_key_bfs(g, cap=3000):
    """enumerate_orbit against _key_bfs; an orbit above ``cap`` is compared at the cap only.

    Returns whether the whole orbit was compared.
    """
    try:
        members, parent = _key_bfs(g, cap)
    except BudgetExceededError as overrun:
        with pytest.raises(BudgetExceededError) as got:
            enumerate_orbit(g, limit=cap)
        assert got.value.partial_count == overrun.partial_count
        return False
    o = enumerate_orbit(g)
    assert list(o.members) == list(members)
    _assert_first_pivots(o, parent)
    for key, member in o.members.items():
        assert member._adj == members[key]._adj
        assert canonical_key(member) == key
    size = len(members)
    for limit in (1, max(1, size // 2), max(1, size - 1)):
        if limit >= size:
            assert len(enumerate_orbit(g, limit=limit)) == size
            continue
        with pytest.raises(BudgetExceededError) as expected:
            _key_bfs(g, limit)
        with pytest.raises(BudgetExceededError) as got:
            enumerate_orbit(g, limit=limit)
        assert got.value.partial_count == expected.value.partial_count
    return True


class TestFlatBfsDifferential:
    """The flat-integer BFS against the canonical-key BFS oracle, beyond connected graphs."""

    def test_every_disconnected_graph_up_to_five_vertices(self):
        checked = 0
        for n in range(2, 6):
            for g in all_graphs(n):
                if not is_connected(g):
                    assert _assert_matches_key_bfs(g)
                    checked += 1
        assert checked == 1 + 4 + 26 + 296

    def test_disconnected_unions(self):
        rng = random.Random(11)
        for _ in range(12):
            a, b = rng.randint(2, 5), rng.randint(1, 4)
            left = random_connected_graph(a, rng, 0.4)
            right = random_connected_graph(b, rng, 0.4)
            g = SimpleGraph(a + b, left.edges() + [(u + a, v + a) for u, v in right.edges()])
            assert not is_connected(g)
            assert _assert_matches_key_bfs(g)

    def test_isolated_and_pendant_vertices(self):
        # Pivots at isolated and pendant vertices are identities, skipped by the search.
        rng = random.Random(12)
        for _ in range(12):
            k = rng.randint(3, 6)
            edges = random_connected_graph(k, rng, 0.5).edges()
            n = k + rng.randint(2, 4)
            for p in range(k + 1, n):
                edges.append((rng.randint(1, p - 1), p))
            # The last vertex is isolated; relabel so that it and the pendants are interleaved.
            order = list(range(1, n + 1))
            rng.shuffle(order)
            g = SimpleGraph(n, [(order[u - 1], order[v - 1]) for u, v in edges])
            degrees = [mask.bit_count() for mask in g._adj[1:]]
            assert 0 in degrees and 1 in degrees
            assert _assert_matches_key_bfs(g)
        assert _assert_matches_key_bfs(SimpleGraph(6))

    def test_seeded_random_graphs_nine_to_eleven_vertices(self):
        # Two-digit labels in the keys; each flat graph spans more than 64 bits.
        rng = random.Random(13)
        graphs = _random_graphs(14, (9, 10, 11), 3) + [
            random_connected_graph(n, rng, p) for n in (9, 10, 11) for p in (0.0, 0.1)
        ]
        assert not all(is_distance_hereditary(g) for g in graphs)
        whole = 0
        for g in graphs:
            assert (g.n + 1) ** 2 > 64
            whole += _assert_matches_key_bfs(g)
        assert whole >= 4


class TestPivotRule:
    """The BFS skips pivots that can reach no new member: against the all-pivot BFS, which asserts each skip."""

    @staticmethod
    def _check(g):
        """The flats compared and the lookups skipped."""
        flats, skipped = all_pivot_orbit(g)
        o = enumerate_orbit(g)
        assert list(o.flats.items()) == [(flat, entry and entry[1]) for flat, entry in flats.items()]
        for (flat, v), member in zip(o.flats.items(), o.members.values()):
            assert v is None or _flat(local_complement(member, v)) == flats[flat][0]
        if len(flats) > 1:
            with pytest.raises(BudgetExceededError) as got:
                enumerate_orbit(g, limit=len(flats) - 1)
            assert got.value.partial_count == len(flats) - 1
        for value, least in ((edge_count, min_edge_member), (max_degree, min_max_degree_member)):
            best = min(o.members.items(), key=lambda item: (value(item[1]), item[0]))
            assert least(o) == (best[1], value(best[1]))
        return flats, skipped

    def test_every_connected_graph_up_to_six_vertices(self):
        # Each orbit is checked once, from its first graph; every connected graph is a member of one.
        for n in range(1, 7):
            graphs = list(all_connected_graphs(n))
            covered: set[int] = set()
            total = 0
            for g in graphs:
                if _flat(g) not in covered:
                    flats, skipped = self._check(g)
                    covered.update(flats)
                    total += skipped
            assert len(covered) == len(graphs)
            assert n < 4 or total > 0

    def test_seeded_graphs_seven_to_nine_vertices(self):
        rng = random.Random(31)
        graphs = _random_graphs(32, (7, 8, 9), 2)
        for n in (7, 8, 9):
            # One vertex isolated, relabelled so that it falls among the others.
            order = rng.sample(range(1, n + 1), n)
            edges = random_connected_graph(n - 1, rng, 0.3).edges()
            graphs.append(SimpleGraph(n, [(order[u - 1], order[v - 1]) for u, v in edges]))
        assert not all(is_distance_hereditary(g) for g in graphs[:6])
        assert all(0 in [m.bit_count() for m in g._adj[1:]] for g in graphs[6:])
        assert sum(self._check(g)[1] for g in graphs) > 0

    def test_minima_on_tie_heavy_orbits(self):
        for g in (complete_multipartite_graph([2] * 5), complete_multipartite_graph([2] * 4), cycle_graph(9)):
            flats, _ = self._check(g)
            assert len(flats) > 100


def _is_isomorphism(g, h, phi):
    """Whether phi is an edge-preserving bijection from g onto h."""
    images = {(min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in g.edges()}
    return sorted(phi.values()) == list(range(1, h.n + 1)) and images == set(h.edges())


class TestIsoClassesDifferential:
    """orbit_iso_classes against a pairwise is_isomorphic partition."""

    @staticmethod
    def _orbits():
        """Two seeded orbits of at most 400 members for each n = 6, 7, 8."""
        rng = random.Random(3)
        orbits = []
        for n in (6, 7, 8):
            found = 0
            while found < 2:
                g = random_connected_graph(n, rng, rng.choice([0.2, 0.4, 0.6]))
                try:
                    orbits.append(enumerate_orbit(g, limit=400))
                except BudgetExceededError:
                    continue
                found += 1
        assert not all(is_distance_hereditary(o.base) for o in orbits)
        return orbits

    def test_matches_pairwise_partition(self):
        for o in self._orbits():
            classes: list[list] = []
            for g in o.sorted_members():
                for cls in classes:
                    phi = find_isomorphism(cls[0], g)
                    if phi is not None:
                        assert _is_isomorphism(cls[0], g, phi)
                        cls[1] += 1
                        break
                else:
                    classes.append([g, 1])
            classes.sort(key=lambda cls: canonical_key(cls[0]))
            assert orbit_iso_classes(o) == [tuple(cls) for cls in classes]

    def test_matches_brute_force_forms_on_six_vertices(self):
        perms = list(itertools.permutations(range(1, 7)))
        for o in self._orbits()[:2]:
            forms: dict[bytes, list] = {}
            for key in sorted(o.members):
                g = o.members[key]
                form = min(
                    canonical_key(SimpleGraph(6, [(p[a - 1], p[b - 1]) for a, b in g.edges()]))
                    for p in perms
                )
                forms.setdefault(form, [g, 0])[1] += 1
            expected = sorted(forms.values(), key=lambda cls: canonical_key(cls[0]))
            assert orbit_iso_classes(o) == [tuple(cls) for cls in expected]

    def test_plan_search_gives_the_same_mapping(self):
        rng = random.Random(4)
        for o in self._orbits():
            members = list(o.members.values())
            tables = {g: _vertex_invariants(g) for g in members}
            for _ in range(40):
                g, h = rng.choice(members), rng.choice(members)
                phi = find_isomorphism(g, h)
                if sorted(tables[g]) == sorted(tables[h]):
                    assert phi == _iso_search(_iso_plan(g, tables[g]), h, tables[h])
                    assert phi is None or _is_isomorphism(g, h, phi)
                else:
                    assert phi is None


def _form_classes(o):
    """(representative, count) of each class of an orbit, by the brute-force iso_form oracle."""
    classes: dict[int, list] = {}
    for g in o.sorted_members():
        classes.setdefault(iso_form(g), [g, 0])[1] += 1
    return sorted((tuple(cls) for cls in classes.values()), key=lambda cls: canonical_key(cls[0]))


class TestIsoClassesAgainstBruteForce:
    """orbit_iso_classes and find_isomorphism against the n!-relabelling oracle."""

    def test_orbits_of_every_connected_graph_up_to_five_vertices(self):
        covered = 0
        seen: set[bytes] = set()
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                if canonical_key(g) in seen:
                    continue
                o = enumerate_orbit(g)
                seen |= o.members.keys()
                covered += len(o)
                assert orbit_iso_classes(o) == _form_classes(o)
        assert covered == 1 + 1 + 4 + 38 + 728

    def test_seeded_orbits_on_six_and_seven_vertices(self):
        rng = random.Random(14)
        orbits = []
        for n, limit, want in ((6, 200, 20), (7, 60, 10)):
            found = 0
            while found < want:
                g = random_connected_graph(n, rng, rng.choice([0.1, 0.3, 0.5, 0.7]))
                try:
                    orbits.append(enumerate_orbit(g, limit=limit))
                except BudgetExceededError:
                    continue
                found += 1
        assert not all(is_distance_hereditary(o.base) for o in orbits)
        assert sum(len(orbit_iso_classes(o)) > 1 for o in orbits) >= 20
        for o in orbits:
            assert orbit_iso_classes(o) == _form_classes(o)

    def test_class_counts_of_family_orbits(self):
        for g, count in (
            (complete_multipartite_graph([2, 2, 2, 2]), iso_class_count(KPARTITE, 4)),
            (clique_star_graph((2, 2, 2, 2), 1), iso_class_count(CLIQUE_STAR, 4)),
            (complete_multipartite_graph([2] * 5), iso_class_count(KPARTITE, 5)),
        ):
            assert len(orbit_iso_classes(enumerate_orbit(g))) == count

    def test_find_isomorphism_on_equal_degree_sequences(self):
        by_degrees: dict[tuple, list] = {}
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                by_degrees.setdefault((n, tuple(sorted(mask.bit_count() for mask in g._adj))), []).append(g)
        refused = 0
        for group in by_degrees.values():
            forms = [iso_form(g) for g in group]
            # Every 7th graph of a group against all of it keeps this under a second.
            for i in range(0, len(group), 7):
                for j in range(len(group)):
                    phi = find_isomorphism(group[i], group[j])
                    assert (phi is not None) == (forms[i] == forms[j])
                    assert phi is None or _is_isomorphism(group[i], group[j], phi)
                    refused += phi is None
        assert refused > 1000


class TestIsoClassesAgainstSearch:
    """orbit_iso_classes against one isomorphism search per member (tests/oracles.py)."""

    def test_family_orbits(self, monkeypatch):
        hits = []

        def search(plan, h, inv):
            phi = _iso_search(plan, h, inv)
            hits.append(phi is not None)
            return phi

        monkeypatch.setattr(orbit, "_iso_search", search)
        found = {}
        for name, g in (("C9", cycle_graph(9)), ("P10", path_graph(10)), ("K2^5", complete_multipartite_graph([2] * 5)),
                        ("CS2,2,2,2", clique_star_graph((2, 2, 2, 2), 1))):
            hits.clear()
            o = enumerate_orbit(g)
            classes = orbit_iso_classes(o)
            assert "members" not in vars(o)
            assert classes == iso_classes_by_search(o)
            # Each hit at least doubles the group of relabellings found.
            found[name] = sum(hits)
            assert found[name] <= math.log2(math.factorial(g.n))
        # K2^5 finds 5 generators one at a time, so classes are closed again under each later one.
        assert found == {"C9": 2, "P10": 2, "K2^5": 5, "CS2,2,2,2": 5}

    def test_seeded_orbits_off_the_distance_hereditary_class(self):
        rng = random.Random(27)
        orbits = []
        while len(orbits) < 10:
            g = random_connected_graph(8, rng, rng.choice([0.2, 0.3, 0.5]))
            if is_distance_hereditary(g):
                continue
            try:
                orbits.append(enumerate_orbit(g, limit=2000))
            except BudgetExceededError:
                continue
        assert sum(len(o) > 500 for o in orbits) >= 3
        for o in orbits:
            classes = orbit_iso_classes(o)
            assert "members" not in vars(o)
            assert classes == iso_classes_by_search(o)


def _eager(o):
    """The members of an orbit, key -> graph, decoded eagerly from its flat integers, edge by edge."""
    n, width = o.base.n, o.base.n + 1
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    graphs = {flat: SimpleGraph(n, [(u, w) for u, w in pairs if flat >> (u * width + w) & 1]) for flat in o.flats}
    for flat, g in graphs.items():
        assert sum(g._adj[u] << (u * width) for u in range(1, n + 1)) == flat
    return {canonical_key(g): g for g in graphs.values()}


class TestLazyOrbitDifferential:
    """Queries read from an orbit's flat integers against an eager decode of every member."""

    @staticmethod
    def _check(g, strangers, rng):
        """Returns how many members tie at each minimum."""
        o = enumerate_orbit(g)
        members = _eager(o)
        assert len(o) == len(members)
        for h in members.values():
            assert h in o
        for h in strangers:
            assert (h in o) == (canonical_key(h) in members)
        assert SimpleGraph(g.n + 1, g.edges()) not in o
        assert g.n == 1 or SimpleGraph(g.n - 1) not in o

        ties = []
        for value, found in ((edge_count, min_edge_member(o)), (max_degree, min_max_degree_member(o))):
            best = min(members.items(), key=lambda item: (value(item[1]), item[0]))
            assert found == (best[1], value(best[1]))
            ties.append(sum(value(h) == found[1] for h in members.values()))
        assert "members" not in o.__dict__

        keys = list(members)
        for key in (keys[0], keys[-1], rng.choice(keys)):
            # Each step is the pivot that first reached the graph it makes.
            cur = g
            for v in transformation_between(g, members[key]):
                cur = local_complement(cur, v)
                assert o.flats[_flat(cur)] == v
            assert cur == members[key]
        for h in strangers:
            if canonical_key(h) not in members:
                with pytest.raises(NotEquivalentError):
                    transformation_between(g, h)
                break

        assert list(o.members.items()) == list(members.items())
        _assert_first_pivots(o, _key_bfs(g)[1])
        return ties

    def test_every_connected_graph_up_to_six_vertices(self):
        # Each orbit is checked once, from its first graph; every connected graph is a member of one.
        rng = random.Random(21)
        for n in range(1, 7):
            graphs = list(all_connected_graphs(n))
            covered: set[bytes] = set()
            multiple_ties = 0
            for g in graphs:
                if canonical_key(g) in covered:
                    continue
                ties = self._check(g, rng.sample(graphs, min(len(graphs), 25)), rng)
                multiple_ties += min(ties) > 1
                covered.update(enumerate_orbit(g).members)
            assert len(covered) == len(graphs)
            if n >= 4:
                assert multiple_ties > 0

    def test_seeded_random_graphs_seven_to_eight_vertices(self):
        rng = random.Random(22)
        graphs = _random_graphs(23, (7, 8), 4)
        assert not all(is_distance_hereditary(g) for g in graphs)
        for g in graphs:
            self._check(g, _random_graphs(rng.randrange(10**6), (g.n,), 10) + [local_complement(g, 1)], rng)

    def test_queries_that_read_flats_decode_nothing(self, monkeypatch):
        import lcsplit.orbit as orbit_module

        made = []
        enumerate_real = orbit_module.enumerate_orbit
        monkeypatch.setattr(
            orbit_module, "enumerate_orbit", lambda *a, **k: made.append(enumerate_real(*a, **k)) or made[-1]
        )
        g = cycle_graph(6)
        o = orbit_module.enumerate_orbit(g)
        assert len(o) == bouchet_cycle_count(6)
        min_edge_member(o)
        min_max_degree_member(o)
        assert local_complement(g, 2) in o
        assert are_lc_equivalent(g, local_complement(g, 3))
        assert transformation_between(g, apply_sequence(g, [1, 2, 4])) == [1, 2, 4]
        assert len(made) == 3
        for each in made:
            assert "members" not in each.__dict__ and "parent" not in each.__dict__
        assert o.members is o.members and "members" in o.__dict__

    def test_edgeless_graph_with_another_n_is_not_a_member(self):
        # Every edgeless graph is the flat integer 0, whatever its n.
        for n in range(1, 5):
            o = enumerate_orbit(SimpleGraph(n))
            assert SimpleGraph(n) in o
            assert SimpleGraph(n + 1) not in o and SimpleGraph(n - 1) not in o
