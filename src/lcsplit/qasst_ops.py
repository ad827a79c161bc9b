"""Dynamic maintenance of quotient trees.

Three ways a quotient tree evolves without being recomputed from scratch:

- :func:`lc_propagate`: a local complement at a vertex complements its
  quotient and is passed across split-node pairs to the neighbours; a
  complete or star quotient changes kind in O(1), and one entered at a
  star's spoke does not change.
- :func:`induced_qasst`: deleting vertices, then re-splitting the prime
  quotients that lost a node and merging across splits no longer strong;
  whether the kept vertices induce a connected graph is read off the
  quotients the deletion changed.
- :func:`extend`: a one-vertex extension (pendant / false twin / true
  twin) adding any label the tree lacks, by the step ``compute_qasst``
  replays, on a copy.

Each op leaves its input tree as it was and returns a new tree that shares
every quotient the op did not change (:meth:`Qasst.copy`).  Each op finds
vertices through the tree's leaf index and keeps it up to date, and passes
the input's check record on to its result, a strong split tree again;
besides reading the keep set and copying the tree's three dicts, a
one-vertex op on a checked tree costs what it touches.  Leaf-nodes are any
distinct positive integers (:meth:`Qasst.validate`), so every op accepts
every tree an op returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidSpecError, InvalidVertexError, NotConnectedError
from .graphs import SimpleGraph, json_int
from .qasst import (
    FALSE_TWIN,
    PENDANT,
    TRUE_TWIN,
    Qasst,
    SplitNode,
    _extend,
    _reduce,
    _resplit,
)

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

    Complements v's quotient at v (:meth:`QuotientGraph.complemented_at`);
    every split-node adjacent to the complemented node transmits the
    complement to its partner, recursively, entering each quotient once: a
    tree without the check record is validated first.  No node moves, so
    the result keeps q's canonical record.
    """
    start = q.leaf_quotient(v)  # raises if v is not a leaf-node
    if not q._checked:
        q.validate()
    out = q.copy()
    quots, where = out.quotients, out._where
    stack: list[tuple[int, object]] = [(start, v)]
    while stack:
        i, node = stack.pop()
        quot = quots[i] = quots[i].complemented_at(node)
        for s in quot.neighbours(node):
            if type(s) is SplitNode:
                t = s.partner
                stack.append((where[t], t))
    return out


# -- induced subgraph --------------------------------------------------------


def induced_qasst(q: Qasst, keep) -> Qasst:
    """Quotient tree of the induced subgraph on ``keep``.

    The excluded leaf-nodes are deleted and the tree is reduced, which
    also folds away what is left of emptied subtrees.  Then every
    split-node has a kept leaf behind it, so the kept vertices induce a
    connected graph iff every quotient is connected (Gioan, Paul, Tedder &
    Corneil 2014).  With a check record (see :class:`Qasst`) only the
    quotients that lost a node or absorbed a merge are tested; without it,
    all.  The split search needs connected quotients, so the changed ones
    are re-split and the tree reduced again only then
    (``qasst._resplit``).  A tree is validated first unless it has the
    record.  The result is the strong split tree of the induced subgraph;
    quotients are not renumbered and vertices keep their labels, so it can
    be induced again.
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
    if not q._checked:
        q.validate()

    out = q.copy()
    touched = set() if q._checked else set(out.quotients)
    for v in gone:
        i = out._home.pop(v)
        out._edit(i).remove_node(v)
        touched.add(i)
    out._canonical = False
    changed = (touched | _reduce(out, touched)) & out.quotients.keys()
    if not all(out.quotients[i].connected() for i in changed):
        raise NotConnectedError("induced subgraph is not connected")
    _resplit(out, changed)
    out._checked = q._checked
    return out


# -- one-vertex extensions ---------------------------------------------------


def extend(q: Qasst, e: ExtensionKind, p: int) -> Qasst:
    """Quotient tree after the one-vertex extension e, adding vertex p.

    p is any positive integer the tree lacks (an induced tree may hold
    n + 1), read through :func:`lcsplit.graphs.json_int`: a bool, float or
    str raises TypeError.  A tree without the check record is validated
    first.  A copy of the tree takes the step the decomposition replays
    (``qasst._extend``), read off the anchor quotient's stored kind.
    """
    if json_int(p) < 1 or p in q._home:
        raise InvalidVertexError(f"new vertex must be a positive integer the tree lacks, got {p!r}")
    if not q._checked:
        q.validate()
    out = q.copy()
    out.leaf_quotient(e.anchor)  # raises if the anchor is not a leaf-node
    _extend(out, e.tag, e.anchor, p)
    out._checked = q._checked
    return out


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
