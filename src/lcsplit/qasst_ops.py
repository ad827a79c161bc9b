"""Dynamic maintenance of quotient trees.

Three ways a quotient tree evolves without being recomputed from scratch:

- :func:`lc_propagate`: a local complement at an original vertex touches
  its quotient and is transmitted across split-node pairs to neighbors.
- :func:`induced_qasst`: deleting vertices, then re-splitting the prime
  quotients that lost a node and re-merging quotient pairs whose
  connecting split stopped being strong.  Whether the kept vertices induce
  a connected graph is read once, after the deletion, off the quotients it
  changed.
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


def induced_qasst(q: Qasst, keep) -> Qasst:
    """Quotient tree of the induced subgraph on ``keep``.

    The excluded leaf-nodes are deleted and the tree is reduced: merging
    across tree edges that are no longer strong splits also folds away
    what is left of emptied subtrees.  Then every split-node has a kept
    leaf behind it, so the kept vertices induce a connected graph iff every
    quotient is connected (Gioan, Paul, Tedder & Corneil 2014).  With a
    check record (see :class:`Qasst`) only the quotients that lost a node
    or absorbed a merge can have changed, so only they are tested; without
    it every quotient counts as touched.  The test precedes any split, as
    the split search needs connected quotients: the changed quotients are
    then re-split and the tree reduced once more (``qasst._resplit``).

    A tree is validated first unless it has the record and loses exactly
    one vertex.  The result is the strong split tree of the induced
    subgraph (asserted against the reference decomposition in the tests);
    quotients are not renumbered and vertices keep their labels, so the
    result can be induced again.
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
    if not (q._checked and len(gone) == 1):
        q.validate()

    out = q.copy()
    touched = set() if q._checked else set(out.quotients)
    for v in gone:
        i = out._home.pop(v)
        out._edit(i).remove_node(v)
        touched.add(i)
    changed = (touched | _reduce(out, touched)) & out.quotients.keys()
    quots = out.quotients
    if not all(_induces_connected(quots[i].adj, set(quots[i].adj)) for i in changed):
        raise NotConnectedError("induced subgraph is not connected")
    _resplit(out, changed)
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
