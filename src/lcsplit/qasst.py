"""Splits, strong splits, and the quotient-augmented strong split tree.

A split of a connected graph is a bipartition of its vertices whose
crossing edges form a complete bipartite subgraph; it is strong when no
other split crosses it.  Collapsing the nontrivial strong splits yields a
tree of quotient graphs, joined by matched pairs of split-nodes; the
quotients plus the pairing losslessly encode the graph.

Quotient nodes are leaf-nodes (vertex ids, plain ints) or
:class:`SplitNode` markers, ``SplitNode(a, b)`` paired with
``SplitNode(b, a)`` under a name nothing renames; the tree indexes the
quotient that holds each (:meth:`Qasst.across`), and JSON and DOT name
each by its location as they write it.  A quotient is held as its kind
(:class:`QuotientGraph`): complete, a star with its centre, or prime with
adjacency sets, so a local complement flips a complete or star quotient
in O(1).

A tree is split by :meth:`Qasst.split_off` and merged back by its
inverse, :meth:`Qasst.merge`.  :func:`compute_qasst` prunes pendants
and twins off the graph's bit rows (:func:`_prune`), splits the kernel
along any split until every quotient is complete, a star or has no
split, each k-node quotient searched with at most k closures
(:func:`_split_side`, :func:`_close_side`), merges back across every
tree edge that is not a strong split (:func:`_reduce`), then replays the
pruned vertices in reverse by the one-vertex extension step
:func:`_extend`.
By Cunningham's uniqueness theorem (1982) the result is the strong split
tree; a distance-hereditary graph leaves a one-vertex kernel
(:func:`is_distance_hereditary`).  Brute-force strong-split search is
kept only as the reference :func:`compute_qasst_by_splits`.  Whatever is
read from the whole tree comes from one rooted pass, :func:`_orient`, and
the graph from one fold over it, :func:`_reach`.  A tree is checked once,
where it enters (:func:`compute_qasst`, :func:`from_json_dict`).  JSON
(:func:`to_json_dict`, :func:`to_json_text`) and DOT (:func:`to_dot`)
print one listing of the normalized tree, :func:`_listing`, read off its
leaf and split-node indexes; :func:`to_json_text` writes a small quotient
as one ``%`` of a template kept per shape (:func:`_template`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from typing import Collection, Iterable, NamedTuple, Optional, Union

from . import families
from .errors import (
    InvalidSpecError,
    InvalidVertexError,
    MalformedQasstError,
    NotConnectedError,
    SizeLimitError,
)
from .graphs import (
    _PAD,
    SimpleGraph,
    _bits,
    _list_text,
    is_connected,
    json_int,
    neighborhood,
)

# Quotient kinds.  A quotient stores COMPLETE, STAR (with its centre) or
# PRIME; seen from one of its nodes (QuotientGraph.kind_at) a star is
# STAR_CENTER or STAR_SPOKE, the kinds a tree edge joins.
COMPLETE = "c"
STAR_CENTER = "sc"
STAR_SPOKE = "ss"
STAR = "star"
PRIME = "prime"

_SPLIT_ENUM_MAX = 18


class SplitNode(NamedTuple):
    """Marker node s_i^j, paired with s_j^i: a label fixed when :meth:`Qasst.split_off` makes the pair.

    It says nothing of where the node lives, which the tree's index holds
    (:meth:`Qasst.across`); only in JSON and DOT does s_i^j live in quotient i.
    """

    i: int
    j: int

    @property
    def partner(self) -> "SplitNode":
        return tuple.__new__(SplitNode, (self[1], self[0]))  # skips NamedTuple's argument handling


Node = Union[int, SplitNode]


class QuotientGraph:
    """A small graph over leaf-nodes and split-nodes, held as its kind.

    A quotient holds its nodes in order and its ``kind``: ``COMPLETE``,
    ``STAR`` with its ``center``, or ``PRIME`` (any other graph, a
    disconnected one too), as degenerate nodes are held in the
    graph-labelled trees of Gioan, Paul, Tedder & Corneil 2014.  ``_adj``
    maps each node to its neighbour set if prime, else to None.  The kind
    is read off the edges where a quotient is made (:meth:`_settle`) and
    kept by rule by every edit; a connected quotient of two nodes or fewer
    is complete.  ``adj`` and ``edges`` are read-only views, built afresh
    for a complete or star quotient.  Nodes are renamed only into a new
    quotient, by :meth:`relabelled`.
    """

    __slots__ = ("_adj", "kind", "center")

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Iterable[Node]] = ()):
        """Each node and edge end a :class:`SplitNode` or an int (:func:`json_int`), built by :meth:`_build`."""
        nodes = [v if type(v) is SplitNode else json_int(v) for v in nodes]
        ends = [[v if type(v) is SplitNode else json_int(v) for v in e] for e in edges]
        self._build(nodes, ends, "a quotient")

    def _build(self, nodes: list, ends: list, name: str) -> "QuotientGraph":
        """Fill this quotient, called ``name`` in a refusal, from ``nodes`` and edge ``ends``; returns it.

        Refused in order: a node listed twice, an edge not two distinct
        nodes (each end looked up once, a split-node's (i, j) pair as it),
        and an edge listed twice either way.  A complete quotient is known
        by its edge count and holds no sets; any other is read off its sets.
        """
        m = len(nodes)
        pos = dict(zip(nodes, range(m)))
        if len(pos) != m:
            raise MalformedQasstError(f"{name} lists a node twice")
        at = [(pos.get(e[0]), pos.get(e[1])) if len(e) == 2 else (None, None) for e in ends]
        bad = next((k for k, (x, y) in enumerate(at) if x is None or y is None or x == y), None)
        if bad is not None:
            named = {SplitNode(*v) if type(v) is tuple else v for v in ends[bad]}
            raise MalformedQasstError(f"bad quotient edge {named}")
        if len({x * m + y if x < y else y * m + x for x, y in at}) != len(at):
            raise MalformedQasstError(f"{name} lists an edge twice")
        if len(at) == m * (m - 1) // 2:
            self._adj, self.kind, self.center = dict.fromkeys(nodes), COMPLETE, None
            return self
        adj = self._adj = {v: set() for v in nodes}
        for x, y in at:
            adj[nodes[x]].add(nodes[y])
            adj[nodes[y]].add(nodes[x])
        self._settle()
        return self

    @classmethod
    def _of(cls, adj: dict, kind: Optional[str] = None, center: Optional[Node] = None) -> "QuotientGraph":
        """A quotient over ``adj`` (taken, not copied) of ``kind``, or with none, of the kind its sets read."""
        g = cls.__new__(cls)
        g._adj = adj
        if kind is None:
            g._settle()
        else:
            g._set_kind(kind, center)
        return g

    def _set_kind(self, kind: str, center: Optional[Node] = None) -> None:
        if kind == STAR and len(self._adj) <= 2:  # one edge: complete
            kind = COMPLETE
        self.kind, self.center = kind, center if kind == STAR else None

    def _settle(self) -> None:
        """Read the kind off the adjacency sets, from degree counts; drop the sets unless prime."""
        adj = self._adj
        m = len(adj)
        degs = list(map(len, adj.values()))
        full = degs.count(m - 1)
        kind, center = PRIME, None
        if full == m:
            kind = COMPLETE
        elif full == 1 and degs.count(1) == m - 1:
            kind, center = STAR, next(v for v, nb in adj.items() if len(nb) == m - 1)
        if kind != PRIME:
            self._adj = dict.fromkeys(adj)
        self.kind, self.center = kind, center

    @property
    def nodes(self):
        return self._adj.keys()

    @property
    def adj(self) -> dict:
        if self.kind == PRIME:
            return self._adj
        return {v: set(self.neighbours(v)) for v in self._adj}

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset((a, b)) for a, nb in self.adj.items() for b in nb)

    def kind_at(self, node: Node) -> str:
        """The kind seen from ``node``: ``COMPLETE``, ``PRIME``, or a star's ``STAR_CENTER`` or ``STAR_SPOKE``."""
        if self.kind == STAR:
            return STAR_CENTER if node == self.center else STAR_SPOKE
        return self.kind

    def neighbours(self, v: Node) -> Collection[Node]:
        if self.kind == PRIME:
            return self._adj[v]
        if self.kind == STAR and v != self.center:
            return (self.center,)
        return [w for w in self._adj if w != v]

    def degree(self, v: Node) -> int:
        if self.kind == PRIME:
            return len(self._adj[v])
        return 1 if self.kind == STAR and v != self.center else len(self._adj) - 1

    def copy(self) -> "QuotientGraph":
        g = QuotientGraph.__new__(QuotientGraph)
        g._adj = {v: nb.copy() for v, nb in self._adj.items()} if self.kind == PRIME else self._adj.copy()
        g.kind, g.center = self.kind, self.center
        return g

    def remove_node(self, node: Node) -> None:
        """Delete a node: a complete quotient stays complete and a star that loses a spoke a star."""
        nb = self._adj.pop(node)
        if self.kind == PRIME:
            for w in nb:
                self._adj[w].discard(node)
        elif node == self.center:  # what is left has no edge
            self._adj = {v: set() for v in self._adj}
        else:
            return self._set_kind(self.kind, self.center)
        self._settle()

    def rename(self, old: Node, new: Node) -> None:
        """Rename node ``old`` to ``new``, in place; ``new`` takes its edges and its place as centre."""
        nb = self._adj[new] = self._adj.pop(old)
        if self.kind == PRIME:
            for w in nb:
                self._adj[w].remove(old)
                self._adj[w].add(new)
        elif self.center == old:
            self.center = new

    def relabelled(self, names: dict) -> "QuotientGraph":
        """A copy with every node renamed through ``names``; unnamed nodes keep their names."""
        name = names.get
        if self.kind == PRIME:
            adj = {name(v, v): {name(w, w) for w in nb} for v, nb in self._adj.items()}
        else:
            adj = {name(v, v): None for v in self._adj}
        return QuotientGraph._of(adj, self.kind, name(self.center, self.center))

    def complemented_at(self, node: Node) -> "QuotientGraph":
        """The quotient after a local complement at ``node``, whose neighbours stay as they were.

        At a node of fewer than two neighbours, a star's spoke say, it is
        this quotient.  A complete quotient becomes the star centred at
        ``node`` and a star at its centre complete, sharing this one's node
        list (see :class:`Qasst`); a prime quotient is copied and complemented.
        """
        if self.degree(node) < 2:
            return self
        if self.kind == PRIME:
            g = self.copy()
            nb = g._adj[node]
            for a in nb:
                g._adj[a] ^= nb - {a}
            return g
        return QuotientGraph._of(self._adj, STAR if self.kind == COMPLETE else COMPLETE, node)

    def connected(self) -> bool:
        """Whether the quotient is connected: a complete or star quotient always is."""
        if self.kind != PRIME:
            return True
        nodes = set(self._adj)
        if nodes:
            todo = [nodes.pop()]
            while todo and nodes:
                new = self._adj[todo.pop()] & nodes
                nodes -= new
                todo += new
        return not nodes

    def leaf_nodes(self) -> set[int]:
        return {v for v in self._adj if isinstance(v, int)}

    def split_nodes(self) -> set[SplitNode]:
        return {v for v in self._adj if isinstance(v, SplitNode)}

    def __repr__(self) -> str:
        nodes = sorted(v for v in self._adj if type(v) is not SplitNode)
        nodes += sorted(v for v in self._adj if type(v) is SplitNode)
        pos = dict(zip(nodes, range(len(nodes))))
        detail = pos[self.center] if self.kind == STAR else _prime_edges(self, pos) if self.kind == PRIME else None
        edges = _edge_positions(self.kind, len(nodes), detail)
        return f"QuotientGraph(nodes={nodes}, edges={[[nodes[a], nodes[b]] for a, b in edges]})"


def _prime_edges(quot: QuotientGraph, pos: dict) -> tuple[tuple[int, int], ...]:
    """A prime quotient's edges, its nodes placed at ``pos``: each once, as positions (a, b) with a < b, sorted."""
    return tuple(sorted((a, b) for v, nb in quot._adj.items() for w in nb if (a := pos[v]) < (b := pos[w])))


def _edge_positions(kind: str, m: int, detail) -> Iterable[tuple[int, int]]:
    """The edges of an m-node shape as positions (a, b), a < b, sorted: all pairs if complete, else from ``detail``.

    A star's detail is its centre's position and a prime's its edges (:func:`_prime_edges`).
    """
    if kind == COMPLETE:
        return itertools.combinations(range(m), 2)
    if kind == STAR:
        return [(k, detail) for k in range(detail)] + [(detail, k) for k in range(detail + 1, m)]
    return detail


class Qasst:
    """Quotient-augmented strong split tree.

    Trees derived from one another share every quotient they have in
    common: :meth:`copy` copies only the ``quotients`` dict, and from then
    on neither tree owns the quotients in it.  Quotients are edited in
    place only through ``Qasst`` methods, which take them from
    :meth:`_edit`: a quotient the tree does not own is first swapped for a
    copy (copy-on-write).  ``lc_propagate`` only swaps in new quotients,
    owned by no tree; a complete or star one shares its node list with the
    quotient it replaces.  A tree built from a dict of quotients owns them
    all; editing ``quotients[i]`` directly is safe only on such a tree,
    before it is copied, if no node is added, moved or deleted.

    A leaf index (:meth:`leaf_quotient`), whose size is the leaf count,
    and a split-node index (:meth:`across`) are built with the tree and
    kept by every edit, which touches only the nodes it moves, adds or
    deletes.  No edit renames a split-node.

    A tree is checked once, where it enters.  Trees from
    :func:`compute_qasst` and :func:`from_json_dict`, and those the ops of
    ``qasst_ops`` derive from them, carry a record (``_checked``) that the
    tree is valid and reduced (:func:`_earns_record`).  Ops and
    :func:`reconstruct` trust it: a deletion then tests only the quotients
    it changed, and nothing is validated.  A tree from ``Qasst(quotients)``,
    :meth:`split_off` or :meth:`merge` has no record and is checked in
    full.  :meth:`normalize` sets a second, canonical record.
    """

    def __init__(self, quotients: dict[int, QuotientGraph]):
        self.quotients: dict[int, QuotientGraph] = quotients
        self._owned: set[int] = set(quotients)
        self._home: dict[int, int] = {}  # leaf-node -> quotient
        self._where: dict[SplitNode, int] = {}  # split-node -> quotient
        for i, q in quotients.items():
            self._place(q.nodes, i)
        self._checked = False
        self._canonical = False
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
        out._canonical = self._canonical
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
            (self._where if type(v) is SplitNode else self._home)[v] = i

    def across(self, s: SplitNode) -> int:
        """The quotient on the other side of split-node s: the one holding its partner."""
        return self._where[s[1], s[0]]

    def leaves(self) -> set[int]:
        return set(self._home)

    def leaf_quotient(self, v: int) -> int:
        """The quotient holding leaf-node v; a v that is not an int raises TypeError (:func:`json_int`)."""
        if json_int(v) in self._home:
            return self._home[v]
        raise InvalidVertexError(f"vertex {v} is not a leaf-node of any quotient")

    def split_off(self, i: int, side: Iterable[Node]) -> int:
        """Move ``side`` of quotient i into a new quotient m; returns m.

        ``side`` must be a split of quotient i with at least one node left
        behind; moved nodes keep their names.  A complete quotient is cut
        into two complete ones, and a star into two stars, one centred at
        the old centre and one at the split-node facing it.  In a prime
        quotient a moved node trades its neighbours left behind for s_m^i,
        a node left behind its neighbours in ``side`` for s_i^m, and each
        piece is classified afresh, save what one moved node leaves behind.
        """
        quot = self._edit(i)
        side = set(side)
        m = self._fresh
        self._fresh += 1
        s_im, s_mi = tuple.__new__(SplitNode, (i, m)), tuple.__new__(SplitNode, (m, i))
        rest = quot._adj
        part = {s_mi: None if quot.kind != PRIME else set()}
        for v in side:
            part[v] = rest.pop(v)
        rest[s_im] = None
        if quot.kind == PRIME:
            across = rest[s_im] = set()
            for v in side:
                nb = part[v]
                if out := nb - side:
                    nb -= out
                    nb.add(s_mi)
                    part[s_mi].add(v)
                    across |= out
            for w in across:
                rest[w] -= side
                rest[w].add(s_im)
            if len(side) > 1:  # one moved node leaves the same graph, the node renamed s_i^m
                quot._settle()
            piece = QuotientGraph._of(part)
        elif quot.kind == COMPLETE:  # stays complete
            piece = QuotientGraph._of(part, COMPLETE)
        else:
            c = quot.center
            quot._set_kind(STAR, s_im if c in side else c)
            piece = QuotientGraph._of(part, STAR, c if c in side else s_mi)
        self.quotients[m] = piece
        self._owned.add(m)
        self._place(part, m)
        self._where[s_im] = i
        self._checked = self._canonical = False
        return m

    def merge(self, s: SplitNode) -> None:
        """Merge the quotient across s into s's own, across the pair (s, t = s.partner).

        The inverse of :meth:`split_off`: the pair is dropped, every
        neighbour of s is joined to every neighbour of t, and the moved
        nodes keep their names.  A connected quotient of two nodes or fewer
        gives the other its one node in place of the pair node, or none.
        Complete with complete gives complete, and a star's centre against a
        star's spoke a star; any other join is made on adjacency sets.
        """
        t = s.partner
        i, j = self._where[s], self._where[t]
        qa, qb = self._edit(i), self._edit(j)
        del self.quotients[j]
        self._owned.discard(j)
        self._place(qb.nodes, i)
        del self._where[s], self._where[t]
        self._checked = self._canonical = False
        for q1, n1, q2, n2 in ((qa, s, qb, t), (qb, t, qa, s)):
            if q1.kind == COMPLETE and len(q1.nodes) <= 2:
                x = next((v for v in q1.nodes if v != n1), None)
                if x is None:
                    q2.remove_node(n2)
                else:
                    q2.rename(n2, x)
                self.quotients[i] = q2
                return
        if not join_validity(qa.kind_at(s), qb.kind_at(t)):
            del qa._adj[s], qb._adj[t]
            qa._adj.update(qb._adj)
            qa._set_kind(qa.kind, qb.center if qa.center == s else qa.center)
            return
        adj, adj_b = qa.adj, qb.adj
        na, nb = adj.pop(s), adj_b.pop(t)
        adj.update(adj_b)
        for u in na:
            adj[u].discard(s)
            adj[u] |= nb
        for w in nb:
            adj[w].discard(t)
            adj[w] |= na
        self.quotients[i] = QuotientGraph._of(adj)

    def tree_edges(self) -> list[tuple[SplitNode, SplitNode]]:
        """Every split-node pair once, as (s, s.partner) with s in the lower-numbered quotient, sorted by the two."""
        where = self._where
        ends = sorted((i, j, s) for s, i in where.items() if i < (j := where[s[1], s[0]]))
        return [(s, s.partner) for _, _, s in ends]

    def structure_key(self) -> str:
        """The normalized JSON text (:func:`to_json_text`), independent of quotient numbering.

        :meth:`normalize` is the one canonical form, so two trees have equal
        keys exactly when they are the same decomposition.
        """
        return to_json_text(self)

    def validate(self) -> tuple[list[int], dict[int, Optional[SplitNode]]]:
        """Raise :class:`MalformedQasstError` unless this is a well-formed tree.

        Every split-node name is used once and its partner lives in another
        quotient; the leaf-nodes are distinct positive integers, not
        necessarily 1..n; the pairs join the quotients into one tree.
        Split-nodes are read by a pass over the nodes, as the index cannot
        show a name used twice; that pass counts the leaf-nodes, and the
        rest is read off the leaf index.  One BFS (:func:`_orient`) from the
        least leaf's quotient follows, and its result is returned.  A tree
        with no quotients or no leaf-nodes stands for no graph and is refused.
        """
        if not self.quotients:
            raise MalformedQasstError("tree has no quotients")
        home = self._home
        leaves = 0
        bare: list[int] = []
        where: dict[SplitNode, int] = {}
        for i, q in self.quotients.items():
            splits = 0
            for s in q._adj:
                if isinstance(s, SplitNode):
                    splits += 1
                    if s in where:
                        raise MalformedQasstError(f"split-node {s} appears in two quotients")
                    where[s] = i
            leaves += len(q._adj) - splits
            if not splits:
                bare.append(i)
        for s, i in where.items():
            j = where.get((s[1], s[0]))
            if j is None:
                raise MalformedQasstError(f"split-node {s} is unmatched")
            if j == i:  # in s's own quotient, or s itself
                raise MalformedQasstError(f"split-node {s} is paired with itself")
        if not home:
            raise MalformedQasstError("tree has no leaf-nodes")
        if leaves != len(home):
            raise MalformedQasstError("a vertex appears in two quotients")
        least = min(home)
        if least < 1:
            raise MalformedQasstError(f"leaf-node {least} is below 1")
        m = len(self.quotients)
        if m > 1 and bare:
            raise MalformedQasstError(f"quotient {bare[0]} has no split-node")
        # Tree check: connected with exactly m-1 edges.
        if len(where) != 2 * (m - 1):  # two split-nodes per pair
            raise MalformedQasstError("tree-edge count is not (quotients - 1)")
        oriented = _orient(self, home[least])
        if len(oriented[0]) != m:
            raise MalformedQasstError("quotient tree is disconnected")
        return oriented

    def normalize(self) -> "Qasst":
        """Renumber quotients canonically, independent of the input numbering; rename no node.

        Leafless quotients come first, ordered by the sorted tuple of the
        least vertex behind each of their split-nodes (no two share it),
        then the others by least leaf.  The result holds the same quotients
        under their new numbers, shared as after :meth:`copy`, and the
        indexes remapped (:meth:`_numbered`).  It iterates its quotients
        0..m-1, keeps the check record and has the canonical record
        (``_canonical``), which :meth:`copy` and ``lc_propagate`` keep and
        any edit that adds, moves or deletes a node drops.  Given a tree
        with the canonical record, it is a :meth:`copy`.
        """
        return self.copy() if self._canonical else self._numbered()

    def _numbered(self, oriented: Optional[tuple[list[int], dict]] = None) -> "Qasst":
        """:meth:`normalize`'s numbering, the least leaves read off the leaf index in one sorted pass.

        A leafless quotient needs the pass ``oriented`` (else :func:`_orient`)
        rooted at the least leaf m's quotient, or with no leaf the least one:
        its post-order gives each subtree's least leaf, and m lies behind a
        leafless quotient's upward split-node.
        """
        quots, home = self.quotients, self._home
        least: dict[int, int] = {}
        for v in sorted(home):
            least.setdefault(home[v], v)
        old_order = list(least)
        if len(least) < len(quots):
            m = next(iter(least.values()), math.inf)
            order, up = oriented or _orient(self, next(iter(least), None))
            low = {i: least.get(i, math.inf) for i in quots}  # made each subtree's least leaf
            for i in reversed(order[1:]):
                parent = self.across(up[i])
                low[parent] = min(low[parent], low[i])
            behind = {i: sorted(m if s == up[i] else low[self.across(s)] for s in quots[i]._adj)
                      for i in quots if i not in least}
            old_order[:0] = sorted(behind, key=behind.__getitem__)
        remap = {old: new for new, old in enumerate(old_order)}
        out = Qasst.__new__(Qasst)
        out.quotients = {new: quots[old] for new, old in enumerate(old_order)}
        out._owned = set()
        self._owned.clear()
        out._home = {v: remap[i] for v, i in home.items()}
        out._where = {s: remap[i] for s, i in self._where.items()}
        out._checked, out._canonical, out._fresh = self._checked, True, max(self._fresh, len(old_order))
        return out

    def __repr__(self) -> str:
        return f"Qasst({self.quotients})"


def _orient(
    q: Qasst, root: Optional[int] = None
) -> tuple[list[int], dict[int, Optional[SplitNode]]]:
    """Root the quotient tree at ``root`` (default: its least quotient), in one breadth-first pass.

    Returns the quotients in BFS order (reversed, children first) and each
    quotient's split-node that points to its parent (None at the root);
    every other split-node ``s`` points down, to ``q.across(s)``.
    """
    order = [min(q.quotients) if root is None else root] if q.quotients else []
    up: dict[int, Optional[SplitNode]] = dict.fromkeys(order)
    quots, where = q.quotients, q._where
    for i in order:
        for s in quots[i]._adj:
            if type(s) is SplitNode:
                j = where[s[1], s[0]]
                if j not in up:
                    up[j] = s.partner
                    order.append(j)
    return order, up


def _earns_record(q: Qasst, edges: list[tuple[SplitNode, SplitNode]]) -> bool:
    """Whether a valid tree is reduced, as a strong split tree is: what its check record states.

    Every quotient is connected; a prime quotient has no nontrivial split
    (:func:`_any_split`); and each tree edge in ``edges`` is a strong split
    (:func:`_not_strong`, Cunningham 1982), which also refuses a quotient of
    one or two nodes in a tree of more than one.  Only prime quotients are
    searched; the rest is read off stored kinds.
    """
    for quot in q.quotients.values():
        if not quot.connected() or quot.kind == PRIME and _any_split(quot) is not None:
            return False
    return not any(_not_strong(q, q._where[s], s) for s, _ in edges)


def _far_sides(q: Qasst) -> dict[SplitNode, int]:
    """The original vertices on the partner side of every split-node, as a bitmask, from one post-order pass.

    Below a downward split-node lies its child's subtree; behind an upward
    one, every leaf outside its own quotient's subtree (one xor).
    """
    order, up = _orient(q)
    below: dict[int, int] = {}
    for i in reversed(order):
        sub = 0
        for v in q.quotients[i]._adj:
            if not isinstance(v, SplitNode):
                sub |= 1 << v
            elif v != up[i]:
                sub |= below[q.across(v)]
        below[i] = sub
    far: dict[SplitNode, int] = {}
    for i in order[1:]:
        far[up[i].partner] = below[i]
        far[up[i]] = below[order[0]] ^ below[i]
    return far


def _check_decomposable(g: SimpleGraph) -> None:
    if g.n < 1:
        raise InvalidSpecError("decomposition needs n >= 1")
    if not is_connected(g):
        raise NotConnectedError("decomposition requires a connected graph")


def _single_quotient(rows: dict[int, int]) -> Qasst:
    """The graph on the vertices ``rows`` holds, each row a neighbour bitmask, as one quotient."""
    return Qasst({0: QuotientGraph._of({v: set(_bits(row)) for v, row in rows.items()})})


# -- splits ------------------------------------------------------------------


def _check_bipartition(g: SimpleGraph, side_a: Iterable[int], side_b: Iterable[int]):
    """Each side's vertex mask; a vertex that is not an int raises TypeError (:func:`json_int`)."""
    a = set(map(json_int, side_a))
    b = set(map(json_int, side_b))
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
    amask, bmask = _check_bipartition(g, side_a, side_b)
    if not _mask_is_split(g._adj, amask, bmask):
        return False
    return min(amask.bit_count(), bmask.bit_count()) == 1 or amask in _far_sides(compute_qasst(g)).values()


# -- reconstruction ----------------------------------------------------------


def reconstruct(q: Qasst) -> SimpleGraph:
    """The graph of a tree, read off the fold :func:`_reach` with the bit ``1 << v`` for each leaf v.

    The leaf-nodes must be 1..n; the tree edges need not be strong splits.
    A tree is validated first unless it has the check record.  A graph of
    over ``families.MAX_EDGES`` edges (:func:`_edge_count`) is refused with
    :class:`SizeLimitError` first.  A pass from the root down adds
    ``outside[i]``, the vertices joined to all that quotient i's entry
    reaches, to what each node adjacent to that entry sees, ``behind[x]``.
    """
    order, up = _orient(q) if q._checked else q.validate()
    n = len(q._home)
    if max(q._home) != n:  # distinct positive leaf-nodes are 1..n iff the largest is n
        raise MalformedQasstError("leaf-nodes do not cover 1..n")
    if _edge_count(q, order, up) > families.MAX_EDGES:
        raise SizeLimitError(f"reconstructed graphs are limited to {families.MAX_EDGES} edges")
    rows = [0] * (n + 1)
    outside = {order[0]: 0}
    for i, d, behind in reversed(list(_reach(q, order, up, lambda v: 1 << v))):
        out = outside.pop(i)
        near = set(q.quotients[i].neighbours(up[i])) if out else ()
        for x in d:
            row = behind[x] | out if x in near else behind[x]
            if type(x) is SplitNode:
                outside[q.across(x)] = row
            else:
                rows[x] = row
    return SimpleGraph._from_adj(n, rows)


def _edge_count(q: Qasst, order: list[int], up: dict) -> int:
    """The edge count of a tree's graph: half the sum of d[x]·behind[x] in the fold :func:`_reach` with 1 per leaf."""
    total = 0
    for _, d, behind in _reach(q, order, up, lambda v: 1):
        total += sum(d[x] * behind[x] for x in d)
    return total // 2


def _reach(q: Qasst, order: list[int], up: dict, leaf):
    """The accessibility fold over the rooted tree ``order``, ``up``: (i, d, behind) per quotient i, children first.

    A graph edge uv is a tree path crossing a quotient edge in every
    quotient it passes (Gioan, Paul, Tedder & Corneil 2014).  ``d`` maps
    each node but the entry to what lies behind it: ``leaf(v)`` at a leaf
    v, what the child's entry reaches at a downward split-node.  ``behind[x]``
    sums ``d`` over x's neighbours, read off the kind.  ``leaf`` 1 counts;
    ``1 << v`` gives disjoint bits, whose sums are unions.
    """
    reach: dict[int, int] = {}
    for i in reversed(order):
        quot, entry = q.quotients[i], up[i]
        d = {v: reach[q.across(v)] if type(v) is SplitNode else leaf(v) for v in quot._adj if v != entry}
        whole = sum(d.values())
        if quot.kind == PRIME:
            get = {**d, entry: 0}.__getitem__  # the entry counts 0
            behind = {x: sum(map(get, nb)) for x, nb in quot._adj.items()}
        elif quot.kind == COMPLETE:
            behind = {x: whole - d.get(x, 0) for x in quot._adj}
        else:
            dc = d.get(quot.center, 0)  # 0 when the centre is the entry
            behind = dict.fromkeys(quot._adj, dc)
            behind[quot.center] = whole - dc
        if entry is not None:
            reach[i] = behind[entry]
        yield i, d, behind


# -- classification ----------------------------------------------------------


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
    """Greedily strip pendants and twins: the kernel (adjacency sets) and the (kind, anchor, removed) steps.

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


def _extend(q: Qasst, tag: str, a: int, p: int) -> None:
    """Add vertex p to tree q in place, by the one-vertex extension ``tag`` at leaf a.

    p joins a's quotient Q, only added to its node list, when Q keeps its
    stored kind: Q complete and p a true twin, Q a star centred at a and p
    a pendant, or Q a star with a as a spoke and p a false twin.
    Otherwise {a, p} is a strong split (Bandelt & Mulder 1986): a is split
    off (:meth:`Qasst.split_off`, which drops the check record) into a new
    quotient with the partner of the split-node that takes its place (and
    role) in Q, and p joins that quotient, in place.  A quotient of one
    or two nodes takes p whatever it is: with a pendant it becomes the star
    centred at a, with a false twin the star centred at a's neighbour, and
    with a true twin it stays complete.  On a strong split tree the result
    is the strong split tree.
    """
    i = q._home[a]
    quot = q.quotients[i]
    if tag == FALSE_TWIN and not quot.degree(a):
        raise NotConnectedError("false twin of an isolated vertex disconnects")
    q._canonical = False
    if len(quot.nodes) > 2:
        kind, center = quot.kind, quot.center
        if (kind == COMPLETE and tag == TRUE_TWIN
                or kind == STAR and tag != TRUE_TWIN and (center == a) == (tag == PENDANT)):
            q._edit(i)._adj[p] = None
            q._home[p] = i
            return
        i = q.split_off(i, (a,))
    quot = q._edit(i)
    if quot.kind == PRIME:  # two nodes and no edge: p joins a alone
        quot._adj[a].add(p)
        quot._adj[p] = {a}
    else:
        center = a if tag == PENDANT else next((v for v in quot._adj if v != a), None)
        quot._adj[p] = None
        quot._set_kind(COMPLETE if tag == TRUE_TWIN else STAR, center)
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


def _close_side(adj: list[int], seed: int, b: int) -> int:
    """The least set S holding ``seed`` but not node b that obeys two rules.

    Every u in S not adjacent to b has N(u) inside S, and every u in S
    adjacent to b has the same N(u) outside S.  A set that obeys both is
    one side of a split: its crossing edges join the nodes adjacent to b
    to that common row.  Conversely, a side A of any split whose other
    side's frontier holds b obeys both rules, so the closure of a seed
    inside A lies inside A.  The first node adjacent to b that the loop
    meets fixes the reference row; a later one pulls in every node where
    its row differs from it, and a node not adjacent to b pulls in all of
    its row, so each node of the closure is visited once.  Stops once only
    b is left outside, the trivial split that always holds.
    """
    full = (1 << len(adj)) - 1
    rest = full ^ seed ^ (1 << b)
    todo = seed
    ref = None
    while todo and rest:
        low = todo & -todo
        todo ^= low
        nu = adj[low.bit_length() - 1]
        if nu >> b & 1:
            if ref is None:
                ref = nu
            nu ^= ref
        new = nu & rest
        rest ^= new
        todo |= new
    return full ^ rest ^ (1 << b)


def _split_side(bit_adj: list[int], k: int) -> int:
    """One side of some nontrivial split (both sides >= 2 nodes), or 0, in at most k closures.

    ``bit_adj`` is a connected quotient on local nodes 0..k-1, k >= 4
    (fewer nodes have no nontrivial split).  Let v0 be a node of least
    degree and z the least node not adjacent to v0.  Take any nontrivial
    split (A, B) with v0 in A, and let A', B' be the nodes of A and B that
    have a neighbour across.  If v0 is not in A', every b in B' is a
    non-neighbour of v0, and the closure of {v0} against b lies inside A.
    If v0 is in A', then B' lies inside N(v0), so z is either in B but
    not B', where the closure of {z} against v0 lies inside B, or in A,
    where the closure of {v0, z} against each b in B' lies inside A.  So
    the k closures of {v0} against each non-neighbour, {z} against v0 and
    {v0, z} against each neighbour find a split whenever one exists; each
    has at least two nodes, and one that leaves out two is a nontrivial
    side.  A quotient where v0 has no non-neighbour is complete, and any
    two nodes form a side.
    """
    if k < 4:
        return 0
    v0 = min(range(k), key=lambda v: bit_adj[v].bit_count())
    near = bit_adj[v0]
    far = ((1 << k) - 1) ^ near ^ (1 << v0)
    if not far:
        return 0b11
    z = (far & -far).bit_length() - 1
    seeds = itertools.chain(
        ((1 << v0, b) for b in _bits(far)),
        ((1 << z, v0),),
        ((1 << v0 | 1 << z, b) for b in _bits(near)),
    )
    for seed, b in seeds:
        side = _close_side(bit_adj, seed, b)
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
    brute-force :func:`_strong_side`, whose strong splits give the strong
    split tree directly, or the k-closure :func:`_any_split`, whose result
    :func:`_reduce` must then merge back across splits that are not strong.
    ``work`` limits the search to the given quotients and their pieces
    (default: all).  The smaller side is moved.  Returns the quotients
    split or split off.
    """
    work = list(q.quotients if work is None else work)
    changed: set[int] = set()
    while work:
        i = work.pop()
        quot = q.quotients[i]
        if quot.kind != PRIME:
            continue
        side = find(quot)
        if side is not None:
            if 2 * len(side) > len(quot.nodes):
                side = quot.nodes - side
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
    return not join_validity(qa.kind_at(s), qb.kind_at(s.partner))


def _reduce(q: Qasst, around: Iterable[int]) -> set[int]:
    """Merge across tree edges that are not strong splits until none is left.

    Only the edges at the quotients in ``around``, and at each quotient
    that absorbs a merge, are checked.  When every quotient is complete, a
    star or has no nontrivial split, the result is the unique reduced split
    tree (Cunningham 1982).  Returns the quotients that absorbed a merge.
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
    return q._numbered(q.validate())


def compute_qasst(g: SimpleGraph) -> Qasst:
    """The unique minimal split decomposition of a connected graph, in three steps.

    Prune pendants and twins (:func:`_prune`), split the kernel that is left
    as one quotient (:func:`_resplit`), then replay the pruned vertices in
    reverse, in place (:func:`_extend`); ``validate``'s one rooted pass also numbers it.
    """
    _check_decomposable(g)
    kernel, steps = _prune(g)
    q = _single_quotient(kernel)
    _resplit(q)
    for tag, a, p in reversed(steps):
        _extend(q, tag, a, p)
    q = q._numbered(q.validate())
    q._checked = True
    return q


# -- serialization -----------------------------------------------------------


def _listing(q: Qasst) -> tuple[list[tuple], list[tuple[int, int]]]:
    """What every writer prints of a tree, read off its indexes: each quotient by number, then the tree edges.

    A tree without the canonical record (:meth:`Qasst.normalize`) is
    normalized first.  Quotient i is listed as ``(kind, leaves, i, js,
    detail)``: its leaf-nodes ascending, from one pass over the sorted leaf
    index; the numbers j of the quotients across its split-nodes ascending,
    from one pass over the split-node index, s_i^j named (i, j) by its
    location; and its shape detail (:func:`_edge_positions`), nodes placed
    leaves first.  The tree edges are the pairs (i, j), i < j, ascending.
    """
    if not q._canonical:
        q = q.normalize()
    quots, home, where = q.quotients, q._home, q._where
    leaves: list[list[int]] = [[] for _ in quots]
    across: list[list[int]] = [[] for _ in quots]
    for v in sorted(home):
        leaves[home[v]].append(v)
    for s, i in where.items():
        across[i].append(where[s[1], s[0]])
    listed = []
    for i, (ls, js) in enumerate(zip(leaves, across)):
        quot = quots[i]
        js.sort()
        detail = None
        if quot.kind == STAR:
            c = quot.center
            detail = len(ls) + js.index(where[c[1], c[0]]) if type(c) is SplitNode else ls.index(c)
        elif quot.kind == PRIME:
            pos = dict(zip(ls, range(len(ls))))
            rank = dict(zip(js, itertools.count(len(ls))))
            for s in quot._adj:
                if type(s) is SplitNode:
                    pos[s] = rank[where[s[1], s[0]]]
            detail = _prime_edges(quot, pos)
        listed.append((quot.kind, ls, i, js, detail))
    return listed, [(i, j) for i, js in enumerate(across) for j in js if i < j]


def to_json_dict(q: Qasst) -> dict:
    """The tree as JSON data, listed by :func:`_listing`; :func:`to_json_text` writes it as text."""
    listed, tree_edges = _listing(q)
    quotients = []
    for kind, leaves, i, js, detail in listed:
        nodes = leaves + [SplitNode(i, j) for j in js]
        edges = _edge_positions(kind, len(nodes), detail)
        quotients.append(
            {
                "leaf_nodes": leaves,
                "split_nodes": [_node_json(s) for s in nodes[len(leaves):]],
                "edges": [[_node_json(nodes[a]), _node_json(nodes[b])] for a, b in edges],
            }
        )
    return {"quotients": quotients, "tree_edges": [[{"i": i, "j": j}, {"i": j, "j": i}] for i, j in tree_edges]}


def _node_json(node: Node):
    if isinstance(node, SplitNode):
        return {"i": node.i, "j": node.j}
    return node


def _split_texts(splits: Iterable[tuple], d: int) -> list[str]:
    """Each split-node (i, j) as a JSON object at depth d."""
    start, mid, end = "{" + _PAD[d + 1] + '"i": ', "," + _PAD[d + 1] + '"j": ', _PAD[d] + "}"
    return [f"{start}{i}{mid}{j}{end}" for i, j in splits]


def _quotient_text(kind: str, leaves: int, detail, texts: list[str]) -> str:
    """A listed quotient (:func:`_listing`) as JSON text at depth 2, from its values' texts: its leaves, i, then each j.

    Each node's text is made once (a split-node's once more for
    ``split_nodes``) and each edge is one f-string over two of them; keys
    are written in sorted order.
    """
    i, leaf_texts = texts[leaves], texts[:leaves]
    splits = [(i, j) for j in texts[leaves + 1:]]
    nodes = leaf_texts + _split_texts(splits, 5)
    start, mid, end = "[" + _PAD[5], "," + _PAD[5], _PAD[4] + "]"  # an edge pair at depth 4
    pairs = [f"{start}{nodes[a]}{mid}{nodes[b]}{end}" for a, b in _edge_positions(kind, len(nodes), detail)]
    return (
        f'{{{_PAD[3]}"edges": {_list_text(pairs, 3)},'
        f'{_PAD[3]}"leaf_nodes": {_list_text(leaf_texts, 3)},'
        f'{_PAD[3]}"split_nodes": {_list_text(_split_texts(splits, 4), 3)}{_PAD[2]}}}'
    )


# A quotient's text is fixed by its shape, (kind, leaf count, split-node count,
# detail), up to its values: for a shape of at most _TEMPLATE_NODES nodes,
# _quotient_text's output over %d placeholders is kept, with the itemgetter
# that puts (*leaves, i, *js) in text order.
_TEMPLATE_NODES = 16


@functools.lru_cache(maxsize=1024)
def _template(shape: tuple) -> tuple[str, operator.itemgetter]:
    """The template and value order of a shape of at most _TEMPLATE_NODES nodes."""
    kind, leaves, splits, detail = shape
    parts = _quotient_text(kind, leaves, detail, [f"\0{k}\0" for k in range(leaves + 1 + splits)]).split("\0")
    return "%d".join(parts[::2]), operator.itemgetter(*map(int, parts[1::2]))


def to_json_text(q: Qasst) -> str:
    """``json.dumps(to_json_dict(q), indent=2, sort_keys=True)``, byte for byte, written directly.

    No dict is built and no text is scanned again.  A quotient of at most
    _TEMPLATE_NODES nodes is one ``%`` of its shape's template
    (:func:`_template`) over its values; a larger one is written by the
    same builder, :func:`_quotient_text`, straight from its values.  The
    tree edges are one ``%`` over a repeated pair template.
    """
    listed, tree_edges = _listing(q)
    texts = []
    for kind, leaves, i, js, detail in listed:
        values = (*leaves, i, *js)
        if 0 < len(leaves) + len(js) <= _TEMPLATE_NODES:  # a node-less quotient has no value to order
            shape = (kind, len(leaves), len(js), detail)
            template, order = _template(shape)
            texts.append(template % order(values))
        else:
            texts.append(_quotient_text(kind, len(leaves), detail, list(map(str, values))))
    pair = _list_text(_split_texts([("%d", "%d")] * 2, 3), 2)  # a tree-edge pair at depth 2
    ends = tuple(itertools.chain.from_iterable((i, j, j, i) for i, j in tree_edges))
    return (
        f'{{{_PAD[1]}"quotients": {_list_text(texts, 1)},'
        f'{_PAD[1]}"tree_edges": {_list_text([pair] * len(tree_edges), 1) % ends}{_PAD[0]}}}'
    )


def _node_key(nj):
    """A JSON node: a leaf-node's int, or a split-node's (i, j) pair, which equals and hashes as the split-node."""
    if type(nj) is dict:
        return json_int(nj["i"]), json_int(nj["j"])  # i is checked before j is read
    return json_int(nj)


def _quotient_from_json(i: int, qd: dict) -> QuotientGraph:
    """Quotient i of a JSON payload, built by :meth:`QuotientGraph._build`.

    A split-node must be listed under the quotient its name locates, and
    every edge end is read (:func:`_node_key`) before any is looked up, so
    a malformed edge is reported before a bad one.  A split-node end is
    looked up by its (i, j) pair, so no node is built per end.
    """
    nodes: list[Node] = [json_int(v) for v in qd["leaf_nodes"]]
    for sd in qd["split_nodes"]:
        s = SplitNode(json_int(sd["i"]), json_int(sd["j"]))
        if s.i != i:  # JSON names split-nodes by location
            raise MalformedQasstError(f"split-node {s} stored in quotient {i}")
        nodes.append(s)
    ends = [(a if type(a) is int else _node_key(a), b if type(b) is int else _node_key(b)) for a, b in qd["edges"]]
    return QuotientGraph.__new__(QuotientGraph)._build(nodes, ends, f"quotient {i}")


def from_json_dict(data: dict) -> Qasst:
    """The tree a :func:`to_json_dict` payload describes, validated.

    Split-nodes carry location names (see :class:`SplitNode`): s_i^j
    listed under a quotient other than i is refused, and so is a node or an
    edge (in either orientation) listed twice in one quotient, or a
    ``tree_edges`` list that is not the split-node pairs, each once, in any
    order.  The tree carries a check record (see :class:`Qasst`) when it is
    also reduced (:func:`_earns_record`); a valid tree that is not, say
    with a two-node quotient, is accepted without it and not reduced.
    """
    try:
        quotients = {i: _quotient_from_json(i, qd) for i, qd in enumerate(data["quotients"])}
        tree_edges = [frozenset(map(_node_key, pair)) for pair in data["tree_edges"]]
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
    listed, tree_edges = _listing(q)
    lines = ["graph QASST {"]
    for kind, leaves, i, js, detail in listed:
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="Q{i}";')
        for v in leaves:
            lines.append(f'    q{i}_{v} [label="{v}", shape=circle];')
        for j in js:
            lines.append(f'    s_{i}_{j} [label="s{i}^{j}", shape=box];')
        ids = [f"q{i}_{v}" for v in leaves] + [f"s_{i}_{j}" for j in js]
        for a, b in _edge_positions(kind, len(ids), detail):
            lines.append(f"    {ids[a]} -- {ids[b]};")
        lines.append("  }")
    for i, j in tree_edges:
        lines.append(f"  s_{i}_{j} -- s_{j}_{i} [style=bold, color=red];")
    lines.append("}")
    return "\n".join(lines) + "\n"
