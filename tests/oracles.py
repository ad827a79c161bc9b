"""Test-only oracles: brute-force definitions the library is checked against, and reads only tests make."""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque

from lcsplit.errors import InvalidSpecError, LcsplitError, MalformedQasstError, NotConnectedError, SizeLimitError
from lcsplit.families import block_ranges
from lcsplit.graphs import (
    MAX_VERTICES,
    SimpleGraph,
    _bits,
    _flat,
    _iso_plan,
    _iso_search,
    _vertex_invariants,
    induced_subgraph,
    is_connected,
    json_int,
    neighborhood,
)
from lcsplit.orbit import Orbit
from lcsplit.qasst import (
    COMPLETE,
    PRIME,
    STAR,
    STAR_CENTER,
    STAR_SPOKE,
    Qasst,
    QuotientGraph,
    SplitNode,
    _any_split,
    _far_sides,
    _orient,
    compute_qasst,
    join_validity,
    reconstruct,
)
from lcsplit.qasst_ops import EXTENSION_KINDS, ExtensionKind
from lcsplit.symmetry import _block_quotients


def dh_definition_oracle(g: SimpleGraph) -> bool:
    """Literal definition: connected induced subgraphs preserve distances."""
    if not is_connected(g):
        raise NotConnectedError("distance-hereditary test requires a connected graph")
    if g.n > 10:
        raise SizeLimitError("definition oracle limited to 10 vertices")

    def distances(graph: SimpleGraph) -> dict[tuple[int, int], int]:
        dist = {}
        for src in range(1, graph.n + 1):
            seen = {src: 0}
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for w in neighborhood(graph, u):
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        queue.append(w)
            for t, d in seen.items():
                dist[(src, t)] = d
        return dist

    base = distances(g)
    verts = list(range(1, g.n + 1))
    for r in range(2, g.n + 1):
        for combo in itertools.combinations(verts, r):
            sub, labels = induced_subgraph(g, combo)
            if not is_connected(sub):
                continue
            for (u, v), d in distances(sub).items():
                if base[(labels[u], labels[v])] != d:
                    return False
    return True


def all_pivot_orbit(g: SimpleGraph) -> tuple[dict, int]:
    """``enumerate_orbit(g, track_parents=True).flats`` by a BFS trying every pivot at every member.

    Returns those flats and the number of lookups ``enumerate_orbit``'s
    pivot rule skips: at a member first reached by pivot p, a pivot w <= p
    outside N(p) (w = p leads back to the member's predecessor).  Asserts
    that each of those finds a member already seen.
    Each local complement toggles N(v)'s pairs one row at a time.
    """
    width = g.n + 1
    row = (1 << width) - 1
    seen = {_flat(g): None}
    queue = deque(seen)
    skipped = 0
    while queue:
        cur = queue.popleft()
        entry = seen[cur]
        for v in range(1, g.n + 1):
            nb = cur >> v * width & row
            nxt = cur
            for u in _bits(nb):
                nxt ^= (nb ^ 1 << u) << u * width
            skip = entry is not None and v <= entry[1] and not cur >> entry[1] * width + v & 1
            skipped += skip
            if nxt not in seen:
                assert not skip, (g, cur, v)
                seen[nxt] = (cur, v)
                queue.append(nxt)
    return seen, skipped


def checked_graph_from_json_dict(data) -> SimpleGraph:
    """:func:`lcsplit.graphs.from_json_dict` checking in turn n's size, n's type, every edge's types, then each edge's range."""
    try:
        n = data["n"]
        # The cap is checked before the type: a count above it is refused as
        # too large even when it is not an integer.
        size = n if type(n) is int else float(n) if isinstance(n, (float, str)) else 0
        if size > MAX_VERTICES:
            raise SizeLimitError(f"graphs are limited to {MAX_VERTICES} vertices")
        n = json_int(n)
        return SimpleGraph(n, [(json_int(u), json_int(v)) for u, v in data["edges"]])
    except LcsplitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"malformed graph JSON: {type(exc).__name__}: {exc}") from exc


@functools.cache
def _relabellings(n: int) -> list[list[int]]:
    """Per permutation of 1..n, the relabelled bit of each vertex pair, pairs in combinations order."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    return [
        [1 << index[tuple(sorted((p[u - 1], p[v - 1])))] for u, v in pairs]
        for p in itertools.permutations(range(1, n + 1))
    ]


def iso_form(g: SimpleGraph) -> int:
    """The least relabelled edge set of g over all n! permutations: equal iff isomorphic.

    An edge set is an integer with one bit per vertex pair, so a relabelling
    costs one sum over g's edges.
    """
    pairs = itertools.combinations(range(1, g.n + 1), 2)
    edges = [k for k, (u, v) in enumerate(pairs) if g.has_edge(u, v)]
    return min(sum(map(table.__getitem__, edges)) for table in _relabellings(g.n))


def iso_classes_by_search(o: Orbit) -> list[tuple[SimpleGraph, int]]:
    """``orbit_iso_classes`` by one isomorphism search per member.

    Every member is decoded and searched, in key order, against the plan
    of each class in its invariant bucket; representatives are the
    key-least member of each class, listed in key order.
    """
    # A class is [key, rep, rep's search plan, count].
    buckets: dict[tuple, list[list]] = {}
    for key, g in sorted(o.members.items()):
        inv = _vertex_invariants(g)
        reps = buckets.setdefault(tuple(sorted(inv)), [])
        for rep in reps:
            if _iso_search(rep[2], g, inv) is not None:
                rep[3] += 1
                break
        else:
            reps.append([key, g, _iso_plan(g, inv), 1])
    classes = sorted((rep for reps in buckets.values() for rep in reps), key=lambda rep: rep[0])
    return [(rep, count) for _, rep, _, count in classes]


def split_node_quotients(q: Qasst) -> dict:
    """The quotient holding each split-node, found by scanning the quotients."""
    return {s: i for i, quot in q.quotients.items() for s in quot.split_nodes()}


def far_leaves(q: Qasst, s: SplitNode) -> frozenset:
    """Original vertices on the partner side of split-node s, by one subtree walk."""
    where = split_node_quotients(q)
    out: set[int] = set()
    seen = {where[s]}
    stack = [where[s.partner]]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        quot = q.quotients[i]
        out |= quot.leaf_nodes()
        for t in quot.split_nodes():
            if where[t.partner] not in seen:
                stack.append(where[t.partner])
    return frozenset(out)


def graph_by_paths(q: Qasst) -> SimpleGraph:
    """The graph a tree with leaf-nodes 1..n stands for, walked path by path.

    u ~ v iff every quotient on the tree path from u to v joins the node
    where the path enters it to the node where it leaves.  From each leaf
    u, a walk entering a quotient at node a goes on from each neighbour b
    of a (read off the quotient's materialized ``adj``): b is a leaf
    adjacent to u, or a split-node whose partner is where the walk enters
    the next quotient.  The quotients form a tree, so no walk turns back.
    """
    where = split_node_quotients(q)
    home = {v: i for i, quot in q.quotients.items() for v in quot.leaf_nodes()}
    edges = set()
    for u, i in home.items():
        stack = [(i, u)]
        while stack:
            i, a = stack.pop()
            for b in q.quotients[i].adj[a]:
                if isinstance(b, SplitNode):
                    stack.append((where[b.partner], b.partner))
                else:
                    edges.add((min(u, b), max(u, b)))
    return SimpleGraph(len(home), sorted(edges))


def assert_strong_split_tree(q: Qasst, g: SimpleGraph) -> None:
    """Assert that q is the strong split tree of g, without brute force (Cunningham 1982).

    q must reconstruct g; every quotient must have three or more nodes
    (or be the only one) and be complete, a star or free of nontrivial
    splits (the polynomial search ``_any_split``); and every tree edge must
    join kinds that may sit across a strong split, each end classified at
    its own split-node.
    """
    assert reconstruct(q) == g
    where = split_node_quotients(q)
    for quot in q.quotients.values():
        assert len(quot.adj) >= 3 or len(q.quotients) == 1
        assert edge_kind(quot)[0] in (COMPLETE, STAR) or _any_split(quot) is None
    for s, i in where.items():
        mine = edge_kind_at(q.quotients[i], s)
        theirs = edge_kind_at(q.quotients[where[s.partner]], s.partner)
        assert join_validity(mine, theirs), (s, mine, theirs)


def edge_kind(quot: QuotientGraph) -> tuple:
    """(kind, centre) of a quotient read off its materialized edges by degree counts, as it was before kinds were stored.

    Complete means every node sees every other, so two nodes without an edge read as prime.
    """
    adj = quot.adj
    m = len(adj)
    degs = [len(nb) for nb in adj.values()]
    if degs.count(m - 1) == m:
        return COMPLETE, None
    if degs.count(m - 1) == 1 and degs.count(1) == m - 1:
        return STAR, next(v for v, nb in adj.items() if len(nb) == m - 1)
    return PRIME, None


def edge_kind_at(quot: QuotientGraph, at) -> str:
    """The kind of a quotient seen from node ``at``, read off its edges: a star is star-center or star-spoke."""
    return _seen_from(*edge_kind(quot), at)


def _seen_from(kind: str, center, at) -> str:
    if kind == STAR:
        return STAR_CENTER if at == center else STAR_SPOKE
    return kind


def assert_kinds_stored(q: Qasst) -> None:
    """Assert that every quotient's stored kind, also as seen from each node, is the one its edges read."""
    for i, quot in q.quotients.items():
        read = edge_kind(quot)
        assert (quot.kind, quot.center) == read, (i, quot)
        for v in quot.nodes:
            assert quot.kind_at(v) == _seen_from(*read, v), (i, v, quot)


def node_sort_key(node) -> tuple:
    """Leaf-nodes first, by value, then split-nodes by label: the order ``repr`` lists a quotient's nodes in."""
    if isinstance(node, SplitNode):
        return (1, node.i, node.j)
    return (0, node, 0)


def location_names(q: Qasst) -> dict:
    """Each split-node's location name, as JSON and DOT write it: s_i^j in quotient i, its partner in quotient j."""
    return {s: SplitNode(i, q.across(s)) for s, i in q._where.items()}


def normalized_by_relabelling(q: Qasst) -> Qasst:
    """Reference ``normalize``: the canonical numbering, each quotient rebuilt with location names.

    Leafless quotients come first, ordered by the sorted tuple of the least
    vertex behind each of their split-nodes, then the others by least leaf;
    one post-order pass rooted at the quotient of the least leaf gives each
    subtree's least leaf.
    """
    least = {i: min(ls) for i, quot in q.quotients.items() if (ls := quot.leaf_nodes())}
    m = min(least.values(), default=math.inf)
    order, up = _orient(q, min(least, key=least.get, default=None))
    low = {i: least.get(i, math.inf) for i in q.quotients}
    for i in reversed(order[1:]):
        parent = q.across(up[i])
        low[parent] = min(low[parent], low[i])

    def order_key(i: int):
        if i in least:
            return (1, least[i])
        behind = (m if s == up[i] else low[q.across(s)] for s in q.quotients[i].split_nodes())
        return (0, tuple(sorted(behind)))

    old_order = sorted(q.quotients, key=order_key)
    remap = {old: new for new, old in enumerate(old_order)}
    names = {s: SplitNode(remap[i], remap[q.across(s)]) for s, i in q._where.items()}
    out = Qasst({new: q.quotients[old].relabelled(names) for new, old in enumerate(old_order)})
    out._checked = q._checked
    out._canonical = True
    return out


def strong_split_sides(q: Qasst) -> set[frozenset]:
    """One side (the far side, per tree edge) of each collapsed split."""
    far = _far_sides(q)
    return {frozenset(_bits(far[s])) for s, _ in q.tree_edges()}


_SHAPE_DIGIT = {STAR_CENTER: "1", STAR_SPOKE: "2", COMPLETE: "3", PRIME: "4"}


def extension_subcase(q: Qasst, e: ExtensionKind) -> str:
    """The subcase id of extension e of q, read off the anchor's quotient.

    Ids follow the quotient shape at the anchor: 1 = star center, 2 = star
    spoke, 3 = complete, 4 = prime; a/b/c = pendant / false twin / true
    twin.  One- and two-node quotients (necessarily the whole tree) give
    ``degenerate-1`` / ``degenerate-2``.
    """
    quot = q.quotients[q.leaf_quotient(e.anchor)]
    if len(quot.nodes) <= 2:
        return f"degenerate-{len(quot.nodes)}"
    return _SHAPE_DIGIT[quot.kind_at(e.anchor)] + "abc"[EXTENSION_KINDS.index(e.tag)]


def classify_bipartite_member(g: SimpleGraph, n: int, m: int) -> tuple[str, str]:
    """Kind pair (block-1 quotient, block-2 quotient) of a K_{n,m} orbit member."""
    q = compute_qasst(g)
    if len(q.quotients) != 2:
        raise MalformedQasstError("graph does not have the two-quotient QASST")
    _, outer = _block_quotients(q, block_ranges((n, m)))
    return tuple(quot.kind_at(next(iter(quot.split_nodes()))) for quot in (outer[1], outer[2]))
