"""Splits, strong splits, and the quotient-augmented strong split tree.

A split of a connected graph is a bipartition of its vertices whose
crossing edges form a complete bipartite subgraph; it is strong when no
other split crosses it.  Collapsing the nontrivial strong splits yields a
tree of quotient graphs.  Each collapsed split leaves behind a matched
pair of split-nodes, one in each of the two quotients it separates; the
quotients plus the pairing losslessly encode the original graph.

Quotient nodes are either original vertex ids (leaf-nodes, plain ints) or
:class:`SplitNode` markers, ``SplitNode(a, b)`` paired with ``SplitNode(b, a)``
under a name no edit rewrites; the tree indexes the quotient that holds
each (:meth:`Qasst.across`).  Only :meth:`Qasst.normalize` renames, to the
location names JSON and DOT write.  Each quotient is an adjacency-set
graph over these nodes (:class:`QuotientGraph`).

A tree is split by one primitive, :meth:`Qasst.split_off`, which moves
one side of a split of a quotient into a new quotient, and taken apart by
its inverse, :meth:`Qasst.merge`.  The decomposition (:func:`compute_qasst`)
checks the graph, then takes three steps.  It prunes pendants and twins
off the graph's bit rows (:func:`_prune`).  It takes the kernel that is
left as one quotient and re-splits it (:func:`_resplit`): every prime
quotient is split along any nontrivial split, found in polynomial time by
:func:`_split_side`, until every quotient is complete, a star or has no
split, then the tree merges back across every tree edge that is not a
strong split (:func:`_reduce`).  Then it replays the pruned vertices in
reverse, in place, by the one-vertex extension step :func:`_extend`, which
either adds the vertex to its anchor's quotient or splits off {anchor,
new}; ``qasst_ops.extend`` is that step on a copy.  By Cunningham's
uniqueness theorem (1982) the result is the strong split tree.  A
distance-hereditary graph leaves a one-vertex kernel, which is how
:func:`is_distance_hereditary` decides.  ``qasst_ops.induced_qasst``
hands the quotients a deletion touched to :func:`_resplit`.  Brute-force
strong-split search (:func:`_strong_side`) is kept only as the reference
decomposition :func:`compute_qasst_by_splits`.  Whatever is read from the
whole tree (the leaves behind each split-node, the canonical numbering)
comes from one rooted pass, :func:`_orient`, in linear time; for the
numbering, :meth:`Qasst.normalize` roots it at the least leaf.  A tree is
checked once, where it enters (:func:`compute_qasst`, :func:`from_json_dict`),
and indexes its nodes (see :class:`Qasst`), so that an op on it need not
walk the whole tree.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, NamedTuple, Optional, Union

from . import families
from .errors import (
    InvalidSpecError,
    InvalidVertexError,
    MalformedQasstError,
    NotConnectedError,
    SizeLimitError,
)
from .graphs import (
    SimpleGraph,
    _bits,
    is_connected,
    json_int,
    neighborhood,
)

# Quotient kinds.  "c", "sc" and "ss" are relative to a designated
# split-node; "star" is the unoriented shape of a single-quotient tree.
COMPLETE = "c"
STAR_CENTER = "sc"
STAR_SPOKE = "ss"
STAR = "star"
PRIME = "prime"

_SPLIT_ENUM_MAX = 18


class SplitNode(NamedTuple):
    """Marker node s_i^j, paired with s_j^i: a label fixed when :meth:`Qasst.split_off` makes the pair.

    Where it lives is read from the tree (:meth:`Qasst.across`); after
    :meth:`Qasst.normalize`, and in JSON, s_i^j lives in quotient i.
    """

    i: int
    j: int

    @property
    def partner(self) -> "SplitNode":
        return tuple.__new__(SplitNode, (self[1], self[0]))  # skips NamedTuple's argument handling


Node = Union[int, SplitNode]


def node_sort_key(node: Node) -> tuple:
    if isinstance(node, SplitNode):
        return (1, node.i, node.j)
    return (0, node, 0)


class QuotientKind(NamedTuple):
    kind: str  # COMPLETE | STAR_CENTER | STAR_SPOKE | STAR | PRIME
    center: Optional[Node] = None  # star center (for ss/star kinds)


_COMPLETE_KIND = QuotientKind(COMPLETE)
_PRIME_KIND = QuotientKind(PRIME)


class QuotientGraph:
    """A small graph over leaf-nodes and split-nodes.

    Stored as adjacency sets: ``adj`` maps every node to the set of its
    neighbours.  ``nodes`` and ``edges`` are read-only views of it.  Nodes
    are renamed only into a new quotient, by :meth:`relabelled`.
    """

    __slots__ = ("adj",)

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Iterable[Node]] = ()):
        self.adj: dict[Node, set[Node]] = {v: set() for v in nodes}
        for e in edges:
            e = frozenset(e)
            if len(e) != 2 or not all(v in self.adj for v in e):
                raise MalformedQasstError(f"bad quotient edge {set(e)}")
            self.add_edge(*e)

    @property
    def nodes(self):
        return self.adj.keys()

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset((a, b)) for a, nb in self.adj.items() for b in nb)

    def copy(self) -> "QuotientGraph":
        g = QuotientGraph.__new__(QuotientGraph)
        g.adj = {v: nb.copy() for v, nb in self.adj.items()}
        return g

    def add_edge(self, a: Node, b: Node) -> None:
        if a == b:
            raise MalformedQasstError("quotient self-loop")
        self.adj[a].add(b)
        self.adj[b].add(a)

    def remove_node(self, node: Node) -> None:
        for w in self.adj.pop(node, ()):
            self.adj[w].discard(node)

    def relabelled(self, names: dict) -> "QuotientGraph":
        """A copy with every node renamed through ``names``; unnamed nodes keep their names."""
        g = QuotientGraph.__new__(QuotientGraph)
        g.adj = {names.get(v, v): {names.get(w, w) for w in nb} for v, nb in self.adj.items()}
        return g

    def local_complement_at(self, node: Node) -> None:
        nb = self.adj[node]
        for a in nb:
            self.adj[a] ^= nb - {a}

    def leaf_nodes(self) -> set[int]:
        return {v for v in self.adj if isinstance(v, int)}

    def split_nodes(self) -> set[SplitNode]:
        return {v for v in self.adj if isinstance(v, SplitNode)}

    def __repr__(self) -> str:
        ns = sorted(self.nodes, key=node_sort_key)
        return f"QuotientGraph(nodes={ns}, edges={_sorted_edges(self)})"


def _sorted_edges(quot: QuotientGraph) -> list[list[Node]]:
    """Every edge of a quotient as an ordered pair, in output order (:func:`node_sort_key`)."""
    key = {v: node_sort_key(v) for v in quot.adj}
    pairs = ([a, b] for a, nb in quot.adj.items() for b in nb if key[a] < key[b])
    return sorted(pairs, key=lambda e: (key[e[0]], key[e[1]]))


class Qasst:
    """Quotient-augmented strong split tree.

    Trees derived from one another share every quotient they have in
    common: :meth:`copy` copies only the ``quotients`` dict, and from then
    on neither tree owns the quotients in it.  Quotients are edited in
    place only through ``Qasst`` methods, and each of those takes the
    quotient from :meth:`_edit`, which first swaps one the tree does not
    own for a copy of its own (copy-on-write).  A tree built from a dict of
    quotients owns them all; code that edits ``quotients[i]`` directly is
    safe only on such a tree, before it is copied, and only if it adds,
    moves or deletes no node, which the indexes would miss.

    Every tree keeps a leaf index, the quotient that holds each leaf-node
    (:meth:`leaf_quotient`); its size is the leaf count; and a split-node
    index, read through :meth:`across`.  Both are built with the tree and
    kept up to date by :meth:`split_off`, :meth:`merge`, :meth:`normalize`
    and the ops of ``qasst_ops``, each of which touches only the nodes it
    moves, adds or deletes.  No edit renames a split-node, so ``split_off``
    and ``merge`` edit only the two quotients they join.

    A tree is checked once, where it enters.  Trees from
    :func:`compute_qasst` and :func:`from_json_dict`, and the trees that
    ``lc_propagate``, ``extend`` and ``induced_qasst`` derive from them,
    carry a record (``_checked``) that the tree passed :meth:`validate`,
    that every quotient is connected and has at least three nodes (or the
    tree is one quotient), and that every tree edge joins kinds that may
    sit across a strong split (:func:`join_validity`).  Ops trust it: a deletion
    then tests only the quotients it changed for connectivity, and one that
    loses a single vertex is not validated.  A tree built by hand with
    ``Qasst(quotients)`` carries no record, and ops check it in full;
    :meth:`split_off` and :meth:`merge` drop the record, as they can break
    its premise.  Editing ``quotients[i]`` directly on a checked
    tree is unsupported: the record would not follow.
    """

    def __init__(self, quotients: dict[int, QuotientGraph]):
        self.quotients: dict[int, QuotientGraph] = quotients
        self._owned: set[int] = set(quotients)
        self._home: dict[int, int] = {}  # leaf-node -> quotient
        self._where: dict[SplitNode, int] = {}  # split-node -> quotient
        for i, q in quotients.items():
            self._place(q.adj, i)
        self._checked = False
        # Past every quotient number and every id in a split-node name.
        self._fresh = max(itertools.chain(quotients, *self._where), default=-1) + 1

    def copy(self) -> "Qasst":
        """A tree sharing every quotient with this one until either tree edits it."""
        out = Qasst.__new__(Qasst)
        out.quotients = dict(self.quotients)
        out._owned = set()
        out._home = dict(self._home)
        out._where = dict(self._where)
        out._checked = self._checked
        out._fresh = self._fresh
        self._owned.clear()
        return out

    def _edit(self, i: int) -> QuotientGraph:
        """Quotient i, to be edited in place: first made this tree's own if it may be shared."""
        if i not in self._owned:
            self.quotients[i] = self.quotients[i].copy()
            self._owned.add(i)
        return self.quotients[i]

    def _place(self, nodes: Iterable[Node], i: int) -> None:
        """Index ``nodes`` under quotient i, each in the leaf or the split-node index."""
        for v in nodes:
            (self._where if isinstance(v, SplitNode) else self._home)[v] = i

    def across(self, s: SplitNode) -> int:
        """The quotient on the other side of split-node s: the one holding its partner."""
        return self._where[s.partner]

    def leaves(self) -> set[int]:
        return set(self._home)

    def leaf_quotient(self, v: int) -> int:
        if isinstance(v, int) and v in self._home:
            return self._home[v]
        raise InvalidVertexError(f"vertex {v} is not a leaf-node of any quotient")

    def split_off(self, i: int, side: Iterable[Node]) -> int:
        """Move ``side`` of quotient i into a new quotient m; returns m.

        ``side`` must be a split of quotient i with at least one node left
        behind.  Moved nodes keep their names and neighbour sets, indexed
        under m.  The new pair stands in for each boundary: a moved node
        trades its neighbours left behind for s_m^i, a node left behind its
        neighbours in ``side`` for s_i^m; no other set is touched.
        """
        quot = self._edit(i)
        side = set(side)
        m = self._fresh
        self._fresh += 1
        s_im, s_mi = SplitNode(i, m), SplitNode(m, i)
        part = QuotientGraph([s_mi])
        across: set[Node] = set()
        for v in side:
            nb = part.adj[v] = quot.adj.pop(v)
            if out := nb - side:
                nb -= out
                nb.add(s_mi)
                part.adj[s_mi].add(v)
                across |= out
        for w in across:
            quot.adj[w] -= side
            quot.adj[w].add(s_im)
        quot.adj[s_im] = across
        self.quotients[m] = part
        self._owned.add(m)
        self._place(part.adj, m)
        self._where[s_im] = i
        self._checked = False
        return m

    def merge(self, s: SplitNode) -> None:
        """Merge the quotient across s into s's own, across the pair (s, s.partner).

        The inverse of :meth:`split_off`: the pair is dropped and every
        neighbour of s is joined to every neighbour of its partner.  The
        moved nodes keep their names and are indexed under s's quotient.
        """
        t = s.partner
        i, j = self._where.pop(s), self._where.pop(t)
        qa, qb = self._edit(i), self._edit(j)
        del self.quotients[j]
        self._owned.discard(j)
        na, nb = qa.adj.pop(s), qb.adj.pop(t)
        self._place(qb.adj, i)
        qa.adj.update(qb.adj)
        for u in na:
            qa.adj[u].discard(s)
            qa.adj[u] |= nb
        for w in nb:
            qa.adj[w].discard(t)
            qa.adj[w] |= na
        self._checked = False

    def tree_edges(self) -> list[tuple[SplitNode, SplitNode]]:
        """Every split-node pair once, as (s, s.partner) with s.i < s.j, sorted by s."""
        return [(s, s.partner) for s in sorted(self._where) if s.i < s.j]

    def strong_split_sides(self) -> set[frozenset]:
        """One side (the far side, per tree edge) of each collapsed split."""
        far = _far_sides(self)
        return {far[s] for s, _ in self.tree_edges()}

    def structure_key(self):
        """Canonical encoding, independent of quotient numbering.

        Split-nodes are identified by the original-vertex set behind them,
        which determines the decomposition uniquely.
        """
        label = {s: ("S", tuple(sorted(side))) for s, side in _far_sides(self).items()}
        quots = []
        for q in self.quotients.values():
            nodes = frozenset(label.get(v, ("L", v)) for v in q.nodes)
            edges = frozenset(
                frozenset((label.get(a, ("L", a)), label.get(b, ("L", b))))
                for a, b in (tuple(e) for e in q.edges)
            )
            quots.append((nodes, edges))
        return frozenset(quots)

    def validate(self) -> tuple[list[int], dict[int, Optional[SplitNode]]]:
        """Raise :class:`MalformedQasstError` unless this is a well-formed tree.

        Every split-node name is used once, and its partner lives in
        another quotient; the leaf-nodes are distinct positive integers,
        not necessarily 1..n, and the pairs join the quotients into one
        tree.  The partners are found by a pass over the nodes, not from
        the split-node index, then one BFS, :func:`_orient`, whose result
        is returned.  A tree with no quotients or no leaf-nodes is refused:
        it stands for no graph.
        """
        if not self.quotients:
            raise MalformedQasstError("tree has no quotients")
        seen_leaves: list[int] = []
        bare: list[int] = []
        where: dict[SplitNode, int] = {}
        for i, q in self.quotients.items():
            splits = 0
            for s in q.adj:
                if not isinstance(s, SplitNode):
                    seen_leaves.append(s)
                    continue
                splits += 1
                if s in where:
                    raise MalformedQasstError(f"split-node {s} appears in two quotients")
                where[s] = i
            if not splits:
                bare.append(i)
        for s, i in where.items():
            j = where.get(s.partner)
            if j is None:
                raise MalformedQasstError(f"split-node {s} is unmatched")
            if j == i:  # in s's own quotient, or s itself
                raise MalformedQasstError(f"split-node {s} is paired with itself")
        if not seen_leaves:
            raise MalformedQasstError("tree has no leaf-nodes")
        if len(seen_leaves) != len(set(seen_leaves)):
            raise MalformedQasstError("a vertex appears in two quotients")
        if min(seen_leaves) < 1:
            raise MalformedQasstError(f"leaf-node {min(seen_leaves)} is below 1")
        m = len(self.quotients)
        if m > 1 and bare:
            raise MalformedQasstError(f"quotient {bare[0]} has no split-node")
        # Tree check: connected with exactly m-1 edges.
        if len(where) != 2 * (m - 1):  # two split-nodes per pair
            raise MalformedQasstError("tree-edge count is not (quotients - 1)")
        oriented = _orient(self)
        if len(oriented[0]) != m:
            raise MalformedQasstError("quotient tree is disconnected")
        return oriented

    def normalize(self) -> "Qasst":
        """Renumber quotients canonically, independent of the input numbering.

        Quotients without leaf-nodes come first, ordered by the sorted
        tuple of the least vertex behind each of their split-nodes (no two
        leafless quotients share that tuple); leaf-bearing quotients follow
        in ascending order of their least leaf.  One post-order pass rooted
        at the quotient holding the least leaf m gives the least leaf of
        each subtree, the one behind each downward split-node; a leafless
        quotient is never that root, so m lies behind its upward split-node.
        Split-nodes are renamed to location names: s_i^j in quotient i,
        paired with s_j^i in quotient j.  The result's ``quotients`` dict
        iterates in that order, 0..m-1, and it carries this tree's check
        record; when the numbering, the dict's order and the names are
        already canonical it is a :meth:`copy`, sharing every quotient.
        """
        leaves = {i: q.leaf_nodes() for i, q in self.quotients.items()}
        least = {i: min(ls) for i, ls in leaves.items() if ls}
        m = min(least.values(), default=math.inf)
        order, up = _orient(self, min(least, key=least.get, default=None))
        low = {i: least.get(i, math.inf) for i in self.quotients}  # made each subtree's least leaf
        for i in reversed(order[1:]):
            parent = self.across(up[i])
            low[parent] = min(low[parent], low[i])

        def order_key(i: int):
            if leaves[i]:
                return (1, least[i])
            behind = (m if s == up[i] else low[self.across(s)] for s in self.quotients[i].split_nodes())
            return (0, tuple(sorted(behind)))

        old_order = sorted(self.quotients, key=order_key)
        if old_order == list(range(len(old_order))) == list(self.quotients) and all(
            s.i == i for s, i in self._where.items()
        ):
            out = self.copy()
            out._fresh = len(out.quotients)
            return out
        remap = {old: new for new, old in enumerate(old_order)}
        names = {s: SplitNode(remap[i], remap[self.across(s)]) for s, i in self._where.items()}
        out = Qasst({new: self.quotients[old].relabelled(names) for new, old in enumerate(old_order)})
        out._checked = self._checked
        return out

    def __repr__(self) -> str:
        return f"Qasst({self.quotients})"


def _orient(
    q: Qasst, root: Optional[int] = None
) -> tuple[list[int], dict[int, Optional[SplitNode]]]:
    """Root the quotient tree at ``root`` (default: its least quotient), in one breadth-first pass.

    Returns the quotients in BFS order (reversed, every quotient comes
    after its children) and, for each quotient, its split-node that points
    to its parent (None at the root).  Every other split-node ``s`` of a
    quotient points down, to the child ``q.across(s)``.
    """
    order = [min(q.quotients) if root is None else root] if q.quotients else []
    up: dict[int, Optional[SplitNode]] = dict.fromkeys(order)
    for i in order:
        for s in q.quotients[i].adj:
            if isinstance(s, SplitNode):
                j = q.across(s)
                if j not in up:
                    up[j] = s.partner
                    order.append(j)
    return order, up


def _induces_connected(adj: dict, nodes: set) -> bool:
    """Whether ``nodes`` induce a connected subgraph of the adjacency sets ``adj``; empties ``nodes``."""
    if nodes:
        todo = [nodes.pop()]
        while todo and nodes:
            new = adj[todo.pop()] & nodes
            nodes -= new
            todo += new
    return not nodes


def _earns_record(q: Qasst, edges: list[tuple[SplitNode, SplitNode]]) -> bool:
    """Whether a valid tree is reduced, as a strong split tree is: what its check record states.

    Every quotient is connected with three or more nodes, or there is one,
    and each tree edge in ``edges`` passes :func:`join_validity`
    (Cunningham 1982); ``qasst_ops.induced_qasst`` relies on it.  Each
    quotient is classified once; only those neither complete nor a star of
    three or more nodes are searched for connectivity.
    """
    one = len(q.quotients) == 1
    kinds = {}
    for i, quot in q.quotients.items():
        kind = kinds[i] = classify_quotient(quot)
        small = len(quot.adj) < 3
        if small and not one:
            return False
        if (small or kind.kind == PRIME) and not _induces_connected(quot.adj, set(quot.adj)):
            return False
    where = q._where
    return all(join_validity(_oriented(kinds[where[s]], s), _oriented(kinds[where[t]], t)) for s, t in edges)


def _oriented(kind: QuotientKind, s: SplitNode) -> str:
    """An unoriented kind (:func:`classify_quotient`) as read from split-node s: c, sc, ss or prime."""
    if kind.kind == STAR:
        return STAR_CENTER if kind.center == s else STAR_SPOKE
    return kind.kind


def _far_sides(q: Qasst) -> dict[SplitNode, frozenset]:
    """The original vertices on the partner side of every split-node, from one post-order pass.

    Below a downward split-node lies its child's subtree; behind an upward
    one, every leaf outside its own quotient's subtree.
    """
    order, up = _orient(q)
    below: dict[int, frozenset] = {}
    for i in reversed(order):
        sub: set[int] = set()
        for v in q.quotients[i].adj:
            if not isinstance(v, SplitNode):
                sub.add(v)
            elif v != up[i]:
                sub |= below[q.across(v)]
        below[i] = frozenset(sub)
    far: dict[SplitNode, frozenset] = {}
    for i in order[1:]:
        far[up[i].partner] = below[i]
        far[up[i]] = below[order[0]] - below[i]
    return far


def _check_decomposable(g: SimpleGraph) -> None:
    if g.n < 1:
        raise InvalidSpecError("decomposition needs n >= 1")
    if not is_connected(g):
        raise NotConnectedError("decomposition requires a connected graph")


def _single_quotient(rows: dict[int, int]) -> Qasst:
    """The graph on the vertices ``rows`` holds, each row a neighbour bitmask, as one quotient."""
    quotient = QuotientGraph()
    quotient.adj = {v: set(_bits(row)) for v, row in rows.items()}
    return Qasst({0: quotient})


# -- splits ------------------------------------------------------------------


def _check_bipartition(g: SimpleGraph, side_a: Iterable[int], side_b: Iterable[int]):
    a = set(side_a)
    b = set(side_b)
    if not a or not b or a & b or a | b != set(range(1, g.n + 1)):
        raise ValueError("sides must be disjoint, nonempty, and cover all vertices")
    return sum(1 << v for v in a), sum(1 << v for v in b)


def _mask_is_split(adj: list[int], amask: int, bmask: int) -> bool:
    first = 0
    while amask:
        low = amask & -amask
        cross = adj[low.bit_length() - 1] & bmask
        first = first or cross
        if cross and cross != first:
            return False
        amask ^= low
    return True


def is_split(g: SimpleGraph, side_a: Iterable[int], side_b: Iterable[int]) -> bool:
    """Crossing edges between the sides form a complete bipartite subgraph."""
    amask, bmask = _check_bipartition(g, side_a, side_b)
    return _mask_is_split(g._adj, amask, bmask)


def _all_split_masks(adj: list[int], full: int) -> list[int]:
    """All splits, one orientation each (side containing the least vertex)."""
    verts = [v for v in range(len(adj)) if full >> v & 1]
    if len(verts) > _SPLIT_ENUM_MAX:
        raise SizeLimitError(
            f"split enumeration limited to {_SPLIT_ENUM_MAX} vertices, got {len(verts)}"
        )
    anchor = verts[0]
    rest = [v for v in verts if v != anchor]
    out = []
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            amask = (1 << anchor) | sum(1 << v for v in combo)
            bmask = full ^ amask
            if bmask and _mask_is_split(adj, amask, bmask):
                out.append(amask)
    return out


def _masks_cross(a1: int, b1: int, a2: int, b2: int) -> bool:
    return bool(a1 & a2) and bool(a1 & b2) and bool(b1 & a2) and bool(b1 & b2)


def is_strong(g: SimpleGraph, side_a: Iterable[int], side_b: Iterable[int]) -> bool:
    """A strong split is crossed by no other split (trivial splits always are).

    A nontrivial split is strong exactly when one of its sides lies behind
    a tree edge of the split decomposition, so this reads the tree.
    """
    if not is_connected(g):
        raise NotConnectedError("strong-split test requires a connected graph")
    a, b = frozenset(side_a), frozenset(side_b)
    if not is_split(g, a, b):
        return False
    return min(len(a), len(b)) == 1 or bool({a, b} & compute_qasst(g).strong_split_sides())


# -- reconstruction ----------------------------------------------------------


def reconstruct(q: Qasst) -> SimpleGraph:
    """The graph of a tree: every tree edge merged (:meth:`Qasst.merge`) on a copy.

    Works even when the tree edges do not correspond to strong splits.
    The leaf-nodes must be 1..n, the vertices of a :class:`SimpleGraph`.
    A linear-size tree can stand for a quadratic-size graph, so a graph
    with more than ``families.MAX_EDGES`` edges (:func:`_edge_count`) is
    refused with :class:`SizeLimitError` before the first merge.  Each
    quotient is merged into the root of the rooted pass, once.
    """
    order, up = q.validate()
    n = len(q._home)
    if max(q._home) != n:  # distinct positive leaf-nodes are 1..n iff the largest is n
        raise MalformedQasstError("leaf-nodes do not cover 1..n")
    if _edge_count(q, order, up) > families.MAX_EDGES:
        raise SizeLimitError(f"reconstructed graphs are limited to {families.MAX_EDGES} edges")
    out = q.copy()
    for i in order[1:]:
        out.merge(up[i].partner)
    adj = out.quotients[order[0]].adj
    return SimpleGraph(n, [(u, v) for u in adj for v in adj[u] if u < v])


def _edge_count(q: Qasst, order: list[int], up: dict) -> int:
    """The edge count of a tree's graph, from one post-order pass over the rooted tree ``order``, ``up``.

    D(x) is 1 at a leaf and, at a downward split-node, the number of
    leaves its child reaches from the child's entry: the sum of D over
    the entry's neighbours.  Each edge xy of a quotient with neither end at
    its entry stands for D(x)·D(y) edges of the graph.
    """
    reach: dict[int, int] = {}
    total = 0
    for i in reversed(order):
        adj, entry = q.quotients[i].adj, up[i]
        d = {v: reach[q.across(v)] if isinstance(v, SplitNode) else 1 for v in adj if v != entry}
        total += sum(d[x] * d[y] for x in d for y in adj[x] if y in d) // 2
        if entry is not None:
            reach[i] = sum(map(d.__getitem__, adj[entry]))
    return total


# -- classification ----------------------------------------------------------


def classify_quotient(q: QuotientGraph, at: Optional[Node] = None) -> QuotientKind:
    """Shape of a quotient, oriented at a designated split-node.

    With ``at`` given, stars classify as star-center or star-spoke; without
    it the unoriented shape (complete/star/prime) is returned.  One- and
    two-node quotients classify as complete (they are simultaneously
    complete and star; callers that merge degenerate quotients special-case
    sizes <= 2).
    """
    if at is not None and at not in q.adj:
        raise MalformedQasstError(f"node {at} not in quotient")
    m = len(q.adj)
    if m <= 2:
        return _COMPLETE_KIND
    degs = list(map(len, q.adj.values()))
    full = degs.count(m - 1)
    if full == m:
        return _COMPLETE_KIND
    if full == 1 and degs.count(1) == m - 1:
        center = next(v for v, nb in q.adj.items() if len(nb) == m - 1)
        if at is None:
            return QuotientKind(STAR, center)
        return QuotientKind(STAR_CENTER if at == center else STAR_SPOKE, center)
    return _PRIME_KIND


def join_validity(a: str, b: str) -> bool:
    """Whether two quotient kinds may sit across a strong split.

    Invalid combinations (they would merge into one quotient): complete
    with complete, and star-center opposite star-spoke.  Prime joined with
    anything is valid.
    """
    return (a, b) not in _INVALID_JOINS


_INVALID_JOINS = frozenset({(COMPLETE, COMPLETE), (STAR_CENTER, STAR_SPOKE), (STAR_SPOKE, STAR_CENTER)})


# -- pendant/twin elimination (reverse one-vertex extensions) -----------------

PENDANT = "pendant"
FALSE_TWIN = "false_twin"
TRUE_TWIN = "true_twin"


def eliminate_extensions(
    g: SimpleGraph,
) -> tuple[dict[int, set[int]], list[tuple[str, int, int]]]:
    """Greedily strip pendants and twins, recording the reversed trace.

    Returns the irreducible kernel (adjacency dict over surviving original
    labels) and a list of (kind, anchor, removed) steps in removal order.
    Replaying the steps in reverse rebuilds g by one-vertex extensions.
    It rescans every vertex pair after each removal and serves only the
    tests and the benchmark, which pin its output; the library prunes by
    :func:`_prune`.
    """
    adj = {v: neighborhood(g, v) for v in range(1, g.n + 1)}
    trace: list[tuple[str, int, int]] = []
    while len(adj) > 1:
        verts = sorted(adj)
        pendants = ((PENDANT, next(iter(adj[v])), v) for v in verts if len(adj[v]) == 1)
        twins = ((TRUE_TWIN if v in adj[u] else FALSE_TWIN, u, v)
                 for u, v in itertools.combinations(verts, 2) if adj[u] - {v} == adj[v] - {u})
        step = next(itertools.chain(pendants, twins), None)
        if step is None:
            break
        for w in adj.pop(step[2]):
            adj[w].discard(step[2])
        trace.append(step)
    return adj, trace


def _prune(g: SimpleGraph) -> tuple[dict[int, int], list[tuple[str, int, int]]]:
    """Strip pendants and twins off a connected graph, on its bit rows, until none is left.

    Returns the kernel (each survivor's row over the survivors) and the
    (kind, anchor, removed) steps in removal order.  A row is the graph row
    masked to the live vertices.  Vertices are examined in FIFO order: a
    one-bit row is a pendant; otherwise the row, and the row with its own
    bit, are looked up as exact keys among earlier vertices (false and true
    twins).  A key holds the last vertex written under it.  Only the
    vertex examined is removed, and it is examined again only after its row
    lost a bit, so a key that is no longer a live vertex's row holds a
    removed vertex's bit, which no live row holds: every hit is a twin.  A
    removal queues each neighbour not yet queued, so every vertex off the
    queue sits under its current keys, and an empty queue leaves no pendant
    or twin.
    """
    adj = g._adj
    alive = queued = (1 << g.n + 1) - 2
    queue = deque(range(1, g.n + 1))
    false_key: dict[int, int] = {}
    true_key: dict[int, int] = {}
    steps: list[tuple[str, int, int]] = []
    while queue and len(steps) < g.n - 1:
        v = queue.popleft()
        bit = 1 << v
        queued ^= bit
        row = adj[v] & alive
        if not row & (row - 1):
            step = (PENDANT, row.bit_length() - 1, v)
        elif (u := false_key.get(row)) is not None:
            step = (FALSE_TWIN, u, v)
        elif (u := true_key.get(row | bit)) is not None:
            step = (TRUE_TWIN, u, v)
        else:
            false_key[row] = true_key[row | bit] = v
            continue
        steps.append(step)
        alive ^= bit
        new = row & ~queued
        queued |= new
        queue.extend(_bits(new))
    return {v: adj[v] & alive for v in _bits(alive)}, steps


def is_distance_hereditary(g: SimpleGraph) -> bool:
    """True iff g prunes to one vertex by pendant/twin elimination (:func:`_prune`).

    Equivalently (and checked in the tests): every quotient in the split
    decomposition is a star or complete graph.
    """
    if not is_connected(g):
        raise NotConnectedError("distance-hereditary test requires a connected graph")
    kernel, _ = _prune(g)
    return len(kernel) == 1


def _extend(q: Qasst, kinds: dict[int, QuotientKind], tag: str, a: int, p: int) -> None:
    """Add vertex p to tree q in place, by the one-vertex extension ``tag`` at leaf a.

    ``kinds`` holds the unoriented kind (:func:`classify_quotient`) of a's
    quotient Q, and is kept for every quotient the step makes or changes.
    p joins Q when Q keeps its kind: Q complete and p a true twin, Q a star
    centred at a and p a pendant, or Q a star with a as a spoke and p a
    false twin.  Otherwise {a, p} is a strong split (Bandelt & Mulder
    1986): a moves into a new quotient with the partner of the split-node
    that takes its place in Q (and its role as Q's centre), and p joins
    that quotient.  A quotient of one or two nodes takes p whatever it is.
    On a strong split tree the result is the strong split tree.  Q is taken
    from :meth:`Qasst._edit`, so a shared quotient is copied first.
    """
    i = q._home[a]
    quot = q._edit(i)
    kind, center = kinds[i]
    nb = quot.adj[a]
    if tag == FALSE_TWIN and not nb:
        raise NotConnectedError("false twin of an isolated vertex disconnects")
    keeps_kind = (kind == COMPLETE and tag == TRUE_TWIN
                  or kind == STAR and tag != TRUE_TWIN and (center == a) == (tag == PENDANT))
    if len(quot.adj) > 2 and not keeps_kind:
        m = q._fresh
        q._fresh += 1
        s, t = SplitNode(i, m), SplitNode(m, i)
        quot.adj[s] = quot.adj.pop(a)
        for w in nb:
            quot.adj[w].remove(a)
            quot.adj[w].add(s)
        if center == a:
            kinds[i] = QuotientKind(STAR, s)
        q._where[s], q._where[t] = i, m
        i, quot = m, QuotientGraph.__new__(QuotientGraph)
        quot.adj = {a: {t}, t: {a}}
        nb = quot.adj[a]
        q.quotients[m] = quot
        q._owned.add(m)
        q._home[a] = m
    if len(quot.adj) <= 2:
        kinds[i] = _COMPLETE_KIND if tag == TRUE_TWIN or not nb else QuotientKind(
            STAR, a if tag == PENDANT else next(iter(nb)))
    nbrs = {a} if tag == PENDANT else set(nb) if tag == FALSE_TWIN else nb | {a}
    quot.adj[p] = nbrs
    for w in nbrs:
        quot.adj[w].add(p)
    q._home[p] = i


# -- decomposition -----------------------------------------------------------


def _local_bits(quot: QuotientGraph) -> tuple[list[Node], list[int]]:
    """The nodes in the quotient's own order, unsorted, and each one's neighbours as a bitmask over it."""
    nodes = list(quot.adj)
    bit = {v: 1 << k for k, v in enumerate(nodes)}
    return nodes, [sum(map(bit.__getitem__, quot.adj[v])) for v in nodes]


def _strong_side(quot: QuotientGraph) -> Optional[set[Node]]:
    """One side of the first nontrivial strong split of a quotient, if any."""
    nodes, bit_adj = _local_bits(quot)
    full = (1 << len(nodes)) - 1
    splits = _all_split_masks(bit_adj, full)
    for a in sorted(splits):
        b = full ^ a
        if a.bit_count() >= 2 and b.bit_count() >= 2 and all(
            not _masks_cross(a, b, t, full ^ t) for t in splits if t != a
        ):
            return {v for k, v in enumerate(nodes) if a >> k & 1}
    return None


def _close_side(adj: list[int], a: int, b: int, seed: int) -> int:
    """The least split side A holding ``seed`` (which holds a) but not b, for an edge a–b.

    For a crossing edge a–b, (A, B) is a split iff every w in B has
    N(w) & A equal to N(b) & A when w ~ a, and empty otherwise.  A node u
    in A rules out exactly the w in N(u) ^ N(a) when u ~ b, and in N(u)
    when not; every ruled-out node must join A, so each node of the
    closure is visited once.  Stops once only b is left outside, the
    trivial split that always holds.
    """
    na = adj[a]
    full = (1 << len(adj)) - 1
    rest = full ^ seed ^ (1 << b)
    todo = seed
    while todo and rest:
        low = todo & -todo
        todo ^= low
        nu = adj[low.bit_length() - 1]
        new = (nu ^ na if nu >> b & 1 else nu) & rest
        rest ^= new
        todo |= new
    return full ^ rest ^ (1 << b)


def _split_side(bit_adj: list[int], k: int) -> int:
    """One side of some nontrivial split (both sides >= 2 nodes), or 0.

    ``bit_adj`` is a connected quotient on local nodes 0..k-1.  For any
    nontrivial split take its side A holding node 0 and a crossing edge
    a–b with a in A.  A contains the closure of {a, 0} when a != 0, and of
    {0, x} for every other x in A when a = 0, so closing those seeds finds
    a split whenever one exists: O((m + k * deg 0) * k) bit operations
    for m edges.
    """
    if k < 4:
        return 0
    seeds = itertools.chain(
        ((a, b, 1 | 1 << a) for a in range(1, k) for b in _bits(bit_adj[a] & ~1)),
        ((0, b, 1 | 1 << x) for b in _bits(bit_adj[0]) for x in range(1, k) if x != b),
    )
    for a, b, seed in seeds:
        side = _close_side(bit_adj, a, b, seed)
        if side.bit_count() <= k - 2:
            return side
    return 0


def _any_split(quot: QuotientGraph) -> Optional[set[Node]]:
    """One side of some nontrivial split of a quotient, if any (:func:`_split_side`)."""
    nodes, bit_adj = _local_bits(quot)
    side = _split_side(bit_adj, len(nodes))
    return {v for k, v in enumerate(nodes) if side >> k & 1} or None


def _split_primes(q: Qasst, find, work: Optional[Iterable[int]] = None) -> set[int]:
    """Split prime quotients until every quotient is complete, a star or unsplittable.

    ``find(quot)`` returns one side of a nontrivial split or None: the
    brute-force :func:`_strong_side` for the reference decomposition, whose
    strong splits give the strong split tree directly, or the polynomial
    :func:`_any_split`, whose result :func:`_reduce` must then merge back
    across the splits that were not strong.  ``work`` limits the search to
    the given quotients and the pieces split off them (default: all).  The
    smaller side of each split is the one moved.  Returns the quotients
    that were split or split off.
    """
    work = list(q.quotients if work is None else work)
    changed: set[int] = set()
    while work:
        i = work.pop()
        quot = q.quotients[i]
        if classify_quotient(quot).kind != PRIME:
            continue
        side = find(quot)
        if side is not None:
            if 2 * len(side) > len(quot.adj):
                side = quot.adj.keys() - side
            m = q.split_off(i, side)
            work += [i, m]
            changed |= {i, m}
    return changed


def _not_strong(q: Qasst, i: int, s: SplitNode) -> bool:
    """Whether the tree edge at split-node s, in quotient i, is not a strong split.

    That is an edge joining c–c or sc–ss quotients, or a quotient of one or
    two nodes (what is left of one after deletions).
    """
    qa, qb = q.quotients[i], q.quotients[q.across(s)]
    if len(qa.nodes) <= 2 or len(qb.nodes) <= 2:
        return True
    return not join_validity(classify_quotient(qa, s).kind, classify_quotient(qb, s.partner).kind)


def _reduce(q: Qasst, around: Iterable[int]) -> set[int]:
    """Merge across tree edges that are not strong splits until none is left.

    Only the edges at the quotients in ``around``, and at each quotient
    that absorbs a merge, are checked: every other edge must already be a
    strong split.  When every quotient is complete, a star or has no
    nontrivial split, the result is the unique reduced split tree
    (Cunningham 1982), the strong split tree.  Returns the quotients that
    absorbed a merge.
    """
    todo = set(around)
    grown: set[int] = set()
    while todo:
        i = todo.pop()
        if i not in q.quotients:
            continue
        s = next((s for s in sorted(q.quotients[i].split_nodes()) if _not_strong(q, i, s)), None)
        if s is not None:
            q.merge(s)
            todo.add(i)
            grown.add(i)
    return grown


def _resplit(q: Qasst, work: Optional[Iterable[int]] = None) -> None:
    """Split quotients ``work`` (default: all) by any split; reduce to the strong split tree."""
    _reduce(q, _split_primes(q, _any_split, work))


def compute_qasst_by_splits(g: SimpleGraph) -> Qasst:
    """Reference decomposition by explicit strong-split search.

    Exponential in the component sizes (limited to 18 vertices); used as
    the independent oracle in tests.
    """
    _check_decomposable(g)
    q = _single_quotient(dict(zip(range(1, g.n + 1), g._adj[1:])))
    _split_primes(q, _strong_side)
    q = q.normalize()
    q.validate()
    return q


def compute_qasst(g: SimpleGraph) -> Qasst:
    """The unique minimal split decomposition of a connected graph, in three steps.

    Prune pendants and twins (:func:`_prune`), split the kernel that is left
    as one quotient over its own labels (:func:`_resplit`), then replay the
    pruned vertices in reverse, in place (:func:`_extend`), with each
    quotient's kind kept in a dict seeded by one :func:`classify_quotient`
    per kernel quotient.
    """
    _check_decomposable(g)
    kernel, steps = _prune(g)
    q = _single_quotient(kernel)
    _resplit(q)
    kinds = {i: classify_quotient(quot) for i, quot in q.quotients.items()}
    for tag, a, p in reversed(steps):
        _extend(q, kinds, tag, a, p)
    q = q.normalize()
    q.validate()
    q._checked = True
    return q


# -- serialization -----------------------------------------------------------


def to_json_dict(q: Qasst) -> dict:
    q = q.normalize()
    quotients = []
    for i in sorted(q.quotients):
        quot = q.quotients[i]
        quotients.append(
            {
                "leaf_nodes": sorted(quot.leaf_nodes()),
                "split_nodes": [_node_json(s) for s in sorted(quot.split_nodes())],
                "edges": [[_node_json(a), _node_json(b)] for a, b in _sorted_edges(quot)],
            }
        )
    tree_edges = [[_node_json(a), _node_json(b)] for a, b in q.tree_edges()]
    return {"quotients": quotients, "tree_edges": tree_edges}


def _node_json(node: Node):
    if isinstance(node, SplitNode):
        return {"i": node.i, "j": node.j}
    return node


def _node_from_json(nj) -> Node:
    if isinstance(nj, dict):
        return tuple.__new__(SplitNode, (json_int(nj["i"]), json_int(nj["j"])))
    return json_int(nj)


def from_json_dict(data: dict) -> Qasst:
    """The tree a :func:`to_json_dict` payload describes, validated.

    Split-nodes carry location names (see :class:`SplitNode`): s_i^j
    listed under a quotient other than i is refused.  A node or an edge
    (in either orientation) listed twice in one quotient
    is refused, and so is a ``tree_edges`` list that is not the tree's
    split-node pairs, each once, in any order.  The tree carries a check
    record (see :class:`Qasst`) when, besides, it is reduced
    (:func:`_earns_record`): every quotient is connected with three or more
    nodes, or there is one, and every tree edge passes
    :func:`join_validity`.  A valid tree that breaks this, say one with a
    two-node quotient or two adjacent complete quotients, is accepted
    without the record and is not reduced on load; ops then check it in full.
    """
    quotients = {}
    try:
        for i, qd in enumerate(data["quotients"]):
            nodes: list[Node] = [json_int(v) for v in qd["leaf_nodes"]]
            for sd in qd["split_nodes"]:
                s = SplitNode(json_int(sd["i"]), json_int(sd["j"]))
                if s.i != i:  # JSON names split-nodes by location
                    raise MalformedQasstError(f"split-node {s} stored in quotient {i}")
                nodes.append(s)
            if len(set(nodes)) != len(nodes):
                raise MalformedQasstError(f"quotient {i} lists a node twice")
            edges = [(_node_from_json(a), _node_from_json(b)) for a, b in qd["edges"]]
            quotients[i] = QuotientGraph(nodes, edges)
            # Each edge is stored once per endpoint; one listed twice, in either orientation, is stored once.
            if sum(map(len, quotients[i].adj.values())) != 2 * len(edges):
                raise MalformedQasstError(f"quotient {i} lists an edge twice")
        tree_edges = [frozenset(map(_node_from_json, pair)) for pair in data["tree_edges"]]
    except MalformedQasstError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedQasstError(f"malformed QASST JSON: {type(exc).__name__}: {exc}") from exc
    q = Qasst(quotients)
    q.validate()
    edges = q.tree_edges()
    if len(tree_edges) != len(edges) or set(tree_edges) != {frozenset(pair) for pair in edges}:
        raise MalformedQasstError("tree_edges are not the split-node pairs")
    q._checked = _earns_record(q, edges)
    return q


def to_dot(q: Qasst) -> str:
    """Quotient tree as DOT: leaf-nodes circles, split-nodes boxes."""
    q = q.normalize()
    lines = ["graph QASST {"]
    for i in sorted(q.quotients):
        quot = q.quotients[i]
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="Q{i}";')
        for v in sorted(quot.leaf_nodes()):
            lines.append(f'    q{i}_{v} [label="{v}", shape=circle];')
        for s in sorted(quot.split_nodes()):
            lines.append(f'    {_dot_id(i, s)} [label="s{s.i}^{s.j}", shape=box];')
        for a, b in _sorted_edges(quot):
            lines.append(f"    {_dot_id(i, a)} -- {_dot_id(i, b)};")
        lines.append("  }")
    for a, b in q.tree_edges():
        lines.append(f"  {_dot_id(a.i, a)} -- {_dot_id(b.i, b)} [style=bold, color=red];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(i: int, node: Node) -> str:
    if isinstance(node, SplitNode):
        return f"s_{node.i}_{node.j}"
    return f"q{i}_{node}"
