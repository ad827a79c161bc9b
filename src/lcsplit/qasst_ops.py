"""Dynamic maintenance of quotient trees.

Three ways a quotient tree evolves without being recomputed from scratch:

- :func:`lc_propagate`: a local complement at an original vertex touches
  its quotient and is transmitted across split-node pairs to neighbors.
- :func:`induced_qasst`: deleting vertices, then re-splitting the prime
  quotients that lost a node and re-merging quotient pairs whose
  connecting split stopped being strong.  Whether the kept vertices induce
  a connected graph is read off the tree: a node of a quotient is live if
  it is a kept leaf or a split-node with a kept leaf behind it, and the
  kept set is connected iff the live nodes of every quotient induce a
  connected subgraph.  Deleting one vertex v from a checked tree (see
  :class:`Qasst`: every quotient connected with three or more nodes, or
  the tree one quotient) needs only v's quotient: every split-node then
  has two or more leaves behind it, so all stay live, and the rest is
  connected iff v's quotient minus v is.
- :func:`extend`: one-vertex extensions (pendant / false twin / true twin)
  adding any label the tree lacks: the new vertex joins the anchor's
  quotient, and {anchor, new} is split off into a fresh three-node quotient
  if that quotient turned prime.

Each op leaves its input tree as it was and returns a new tree that shares
every quotient the op did not change (:meth:`Qasst.copy`): ``lc_propagate``
copies the quotients it complements, ``extend`` the anchor's, and
``induced_qasst`` those that lose a leaf or take part in a merge or split.
Quotients are edited only through ``Qasst`` methods, which copy a shared
quotient before its first edit.  Each op finds vertices through the tree's
leaf index and keeps it up to date, and passes the input's check record on
to its result, a strong split tree again; besides reading the keep set and
copying the tree's three dicts, a one-vertex op on a checked tree costs what
it touches.  Leaf-nodes are any distinct positive integers
(:meth:`Qasst.validate`), so every op accepts every tree an op returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidSpecError, InvalidVertexError, NotConnectedError
from .graphs import SimpleGraph
from .qasst import (
    COMPLETE,
    PRIME,
    STAR_CENTER,
    STAR_SPOKE,
    Qasst,
    SplitNode,
    _induces_connected,
    _reduce,
    _resplit,
    classify_quotient,
)

PENDANT = "pendant"
FALSE_TWIN = "false_twin"
TRUE_TWIN = "true_twin"
EXTENSION_KINDS = (PENDANT, FALSE_TWIN, TRUE_TWIN)


@dataclass(frozen=True)
class ExtensionKind:
    tag: str
    anchor: int

    def __post_init__(self):
        if self.tag not in EXTENSION_KINDS:
            raise ValueError(f"unknown extension kind {self.tag!r}")


# -- LC propagation ----------------------------------------------------------


def lc_propagate(q: Qasst, v: int) -> Qasst:
    """Quotient tree of the local complement at leaf-node v.

    Complements v's quotient at v; every split-node adjacent to the
    complemented node transmits the complement to its partner, recursively.
    The tree structure guarantees termination; the visited set is a
    defensive guard.
    """
    out = q.copy()
    start = out.leaf_quotient(v)  # raises if v is not a leaf-node
    visited: set[tuple[int, object]] = set()
    stack: list[tuple[int, object]] = [(start, v)]
    while stack:
        i, node = stack.pop()
        if (i, node) in visited:
            continue
        visited.add((i, node))
        quot = out._edit(i)
        quot.local_complement_at(node)  # leaves node's own neighbours as they were
        for s in quot.adj[node]:
            if isinstance(s, SplitNode):
                stack.append((out.across(s), s.partner))
    return out


# -- induced subgraph --------------------------------------------------------


def _keeps_connected(q: Qasst, keep: set[int], order: list[int], up: dict) -> bool:
    """Whether the kept leaves of a valid tree induce a connected graph.

    ``order`` and ``up`` root the tree (:func:`_orient`, as returned by
    :meth:`Qasst.validate`).  One post-order pass counts the kept leaves
    below every quotient, so a downward split-node has its child's count
    behind it and an upward one the total minus its own quotient's.  A
    node is live if it is a kept leaf or a split-node with a kept leaf
    behind it.  Two kept leaves are
    adjacent exactly when the tree path between them alternates through
    adjacent nodes, all of them live, so the kept set is connected iff the
    live nodes of every quotient induce a connected subgraph (the
    connectivity of a graph-labelled tree: Gioan, Paul, Tedder & Corneil
    2014).  Linear in the size of the tree.
    """
    below: dict[int, int] = {}
    for i in reversed(order):
        below[i] = sum(
            below[q.across(v)] if isinstance(v, SplitNode) else v in keep
            for v in q.quotients[i].adj if v != up[i]
        )
    total = below[order[0]]
    for i in order:
        adj = q.quotients[i].adj
        live = {
            v for v in adj
            if ((total - below[i] if v == up[i] else below[q.across(v)])
                if isinstance(v, SplitNode) else v in keep)
        }
        if not _induces_connected(adj, live):
            return False
    return True


def induced_qasst(q: Qasst, keep) -> Qasst:
    """Quotient tree of the induced subgraph on ``keep``.

    Whether ``keep`` induces a connected graph is read off the tree,
    without rebuilding the graph.  A tree with a check record (see
    :class:`Qasst`) that loses exactly one vertex v takes the local rule:
    every quotient is connected with three or more nodes, so every
    split-node keeps a leaf behind it and the rest stays connected iff
    v's quotient minus v is connected; nothing else of the tree is read.
    Any other keep set, or a tree without the record, is validated and
    tested in full (:func:`_keeps_connected`).

    Then the excluded leaf-nodes are deleted and the tree is reduced:
    merging across tree edges that are no longer strong splits also folds
    away what is left of emptied subtrees, which must happen before
    anything is split again.  A prime quotient that lost a node may now
    have a split, so every quotient that lost a node or absorbed a merge
    is re-split and the tree reduced once more, by the same step as
    ``compute_qasst`` (``qasst._resplit``).  The
    result is the strong split tree of the induced subgraph (asserted
    against the reference decomposition in the tests); quotients are not
    renumbered and vertices keep their labels, so the result can be
    induced again.
    """
    keep = list(keep)
    home = q._home
    if not keep:
        raise InvalidSpecError("keep set must be nonempty")
    gone = home.keys() - keep
    if len(home) - len(gone) != len(keep):  # a repeated vertex, or one the tree lacks
        strays = set(keep) - home.keys()
        if strays:
            raise InvalidVertexError(f"keep set contains non-vertices: {sorted(strays)}")
    if q._checked and len(gone) == 1:
        (v,) = gone
        adj = q.quotients[home[v]].adj
        if not _induces_connected(adj, adj.keys() - {v}):
            raise NotConnectedError("induced subgraph is not connected")
    else:
        order, up = q.validate()
        if not _keeps_connected(q, home.keys() - gone, order, up):
            raise NotConnectedError("induced subgraph is not connected")

    out = q.copy()
    touched: set[int] = set()
    for v in gone:
        i = out._home.pop(v)
        out._edit(i).remove_node(v)
        touched.add(i)
    touched |= _reduce(out, touched)
    _resplit(out, touched & out.quotients.keys())
    out._checked = q._checked
    return out


# -- one-vertex extensions ---------------------------------------------------


def extend(q: Qasst, e: ExtensionKind, p: int) -> Qasst:
    """Quotient tree after the one-vertex extension e, adding vertex p.

    p is any positive integer the tree lacks (an induced tree may hold
    n + 1).  If the anchor's quotient turns prime, {anchor, p} is a strong
    split of it (Bandelt & Mulder 1986) and is split off.
    """
    if type(p) is not int or p < 1 or p in q._home:
        raise InvalidVertexError(f"new vertex must be a positive integer the tree lacks, got {p!r}")
    out = q.copy()
    i = out.leaf_quotient(e.anchor)
    quot = out._edit(i)
    nbrs = set() if e.tag == FALSE_TWIN else {e.anchor}
    if e.tag != PENDANT:
        nbrs |= quot.adj[e.anchor]
    if not nbrs:
        raise NotConnectedError("false twin of an isolated vertex disconnects")
    quot.adj[p] = nbrs
    out._home[p] = i
    for w in nbrs:
        quot.adj[w].add(p)
    if classify_quotient(quot).kind == PRIME:
        out.split_off(i, {e.anchor, p})
        out._checked = q._checked
    return out


_SHAPE_DIGIT = {STAR_CENTER: "1", STAR_SPOKE: "2", COMPLETE: "3", PRIME: "4"}


def extension_subcase(q: Qasst, e: ExtensionKind) -> str:
    """The subcase id of extension e of q, read off the anchor's quotient.

    Ids follow the quotient shape at the anchor: 1 = star center, 2 = star
    spoke, 3 = complete, 4 = prime; a/b/c = pendant / false twin / true
    twin.  One- and two-node quotients (necessarily the whole tree) give
    ``degenerate-1`` / ``degenerate-2``.
    """
    quot = q.quotients[q.leaf_quotient(e.anchor)]
    if len(quot.adj) <= 2:
        return f"degenerate-{len(quot.adj)}"
    shape = classify_quotient(quot, e.anchor).kind
    return _SHAPE_DIGIT[shape] + "abc"[EXTENSION_KINDS.index(e.tag)]


def extend_graph(g: SimpleGraph, kind: str, anchor: int) -> SimpleGraph:
    """Graph-level one-vertex extension; the new vertex is n+1."""
    g._check_vertex(anchor)
    p = g.n + 1
    if kind == PENDANT:
        nbrs = 1 << anchor
    elif kind == FALSE_TWIN:
        nbrs = g.neighborhood_mask(anchor)
    elif kind == TRUE_TWIN:
        nbrs = g.neighborhood_mask(anchor) | 1 << anchor
    else:
        raise ValueError(f"unknown extension kind {kind!r}")
    adj = [mask | (nbrs >> v & 1) << p for v, mask in enumerate(g._adj)]
    return SimpleGraph._from_adj(p, adj + [nbrs])


def random_dh(n: int, seed) -> tuple[SimpleGraph, list[tuple[str, int, int]]]:
    """Reproducible random distance-hereditary graph with its build trace.

    Grows from a single vertex by uniformly chosen one-vertex extensions
    (false twins only at anchors with neighbors, to stay connected).
    The trace lists (kind, anchor, new vertex) in construction order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    g = SimpleGraph(1)
    trace: list[tuple[str, int, int]] = []
    for p in range(2, n + 1):
        anchor = rng.randint(1, g.n)
        kinds = [PENDANT, TRUE_TWIN]
        if g.neighborhood_mask(anchor):
            kinds.append(FALSE_TWIN)
        kind = rng.choice(kinds)
        g = extend_graph(g, kind, anchor)
        trace.append((kind, anchor, p))
    return g, trace
