"""Brute-force enumeration of local-complement orbits.

The orbit of a graph is its closure under the n primitive local
complements.  Enumeration is a breadth-first search over labeled graphs,
each held as one flat integer (row u of the adjacency matrix at bit
``u*(n+1)``) and de-duplicated on that integer.  Once the search closes,
every member is decoded to a :class:`SimpleGraph` and given its canonical
key exactly once.  The search serves as the ground-truth oracle for every
closed-form count in :mod:`lcsplit.counting`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, InvalidSpecError, NotEquivalentError
from .graphs import (
    SimpleGraph,
    _bits,
    _iso_invariants,
    _match,
    apply_sequence,
    canonical_key,
    edge_count,
    max_degree,
)

DEFAULT_BUDGET = 10**6


@dataclass
class Orbit:
    """A fully enumerated LC orbit.

    ``members`` maps canonical key -> graph, in BFS order.  ``parent`` (kept
    only when requested) maps a member's key to (predecessor key, pivot
    vertex) for transformation extraction; the base maps to None.
    """

    base: SimpleGraph
    members: dict[bytes, SimpleGraph]
    parent: Optional[dict[bytes, Optional[tuple[bytes, int]]]] = None

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: SimpleGraph) -> bool:
        return canonical_key(g) in self.members

    def sorted_members(self) -> list[SimpleGraph]:
        return [self.members[k] for k in sorted(self.members)]


def enumerate_orbit(
    g: SimpleGraph, limit: int = DEFAULT_BUDGET, track_parents: bool = False
) -> Orbit:
    """BFS closure of g under all primitive local complements.

    Deterministic: the frontier is FIFO and pivots are tried in ascending
    vertex order.  Raises :class:`BudgetExceededError` if the member count
    would exceed ``limit``.

    Each graph is one integer with row u at bit ``u*(n+1)``.  A local
    complement at v reads N(v) with one shift and mask and xors in the
    clique mask of N(v), cached per call; a pivot with fewer than two
    neighbours is the identity and is skipped.  After the search, each
    member is decoded once (row integers are shared between members) and
    its canonical key is joined from cached per-row byte fragments, equal
    to :func:`lcsplit.graphs.canonical_key` of the member.
    """
    n = g.n
    if n < 1:
        raise InvalidSpecError("orbit enumeration needs n >= 1")
    if limit < 1:
        raise ValueError("budget must be >= 1")
    width = n + 1
    row = (1 << width) - 1
    shifts = [(v, v * width) for v in range(1, n + 1)]
    start = 0
    for v, shift in shifts:
        start |= g._adj[v] << shift
    cliques: dict[int, int] = {}
    # flat graph -> (predecessor, pivot) or None, in BFS order
    seen: dict[int, Optional[tuple[int, int]]] = {start: None}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        for v, shift in shifts:
            nb = cur >> shift & row
            if not nb & (nb - 1):
                continue
            clique = cliques.get(nb)
            if clique is None:
                clique = cliques[nb] = _clique_mask(nb, width)
            nxt = cur ^ clique
            if nxt not in seen:
                if len(seen) >= limit:
                    raise BudgetExceededError(len(seen), limit)
                seen[nxt] = (cur, v) if track_parents else None
                queue.append(nxt)

    # Per vertex u: row integer -> (shared row, key fragment for its edges u-w, w > u).
    rows: dict[int, int] = {}
    decode = [(u, shift, {}) for u, shift in shifts]
    head = str(n).encode("ascii")
    members: dict[bytes, SimpleGraph] = {}
    parent = {} if track_parents else None
    for flat, entry in seen.items():
        adj = [0]
        parts = [head]
        for u, shift, cache in decode:
            r = flat >> shift & row
            hit = cache.get(r)
            if hit is None:
                hit = cache[r] = (rows.setdefault(r, r), _key_fragment(u, r))
            adj.append(hit[0])
            parts.append(hit[1])
        key = b"".join(parts)
        members[key] = SimpleGraph._from_adj(n, adj)
        if parent is not None:
            # Predecessors come first, so seen[pred] already holds pred's key.
            parent[key] = None if entry is None else (seen[entry[0]], entry[1])
            seen[flat] = key
    return Orbit(base=g, members=members, parent=parent)


def _clique_mask(nb: int, width: int) -> int:
    """The flat mask toggling every edge among the vertices of bitmask nb."""
    mask = 0
    for u in _bits(nb):
        mask |= (nb ^ 1 << u) << (u * width)
    return mask


def _key_fragment(u: int, mask: int) -> bytes:
    """The part of canonical_key listing the edges u-w with w > u in mask."""
    return "".join(f";{u}-{w}" for w in _bits(mask >> (u + 1) << (u + 1))).encode("ascii")


def are_lc_equivalent(g: SimpleGraph, h: SimpleGraph, limit: int = DEFAULT_BUDGET) -> bool:
    """True iff h lies in the orbit of g.

    A budget overrun propagates as :class:`BudgetExceededError` (an
    indeterminate outcome, distinct from False).
    """
    if g.n != h.n:
        return False
    return g == h or h in enumerate_orbit(g, limit=limit)


def transformation_between(
    g: SimpleGraph, h: SimpleGraph, limit: int = DEFAULT_BUDGET
) -> list[int]:
    """A primitive LC sequence taking g to h, of minimal BFS depth."""
    if g.n != h.n:
        raise NotEquivalentError("graphs have different vertex counts")
    orbit = enumerate_orbit(g, limit=limit, track_parents=True)
    key = canonical_key(h)
    if key not in orbit.members:
        raise NotEquivalentError("graphs are not LC-equivalent")
    assert orbit.parent is not None
    steps: list[int] = []
    while (entry := orbit.parent[key]) is not None:
        key, v = entry
        steps.append(v)
    steps.reverse()
    assert apply_sequence(g, steps) == h
    return steps


def orbit_iso_classes(o: Orbit) -> list[tuple[SimpleGraph, int]]:
    """Partition orbit members into isomorphism classes.

    Returns (representative, multiplicity) pairs; representatives are the
    canonical-key-least member of each class, listed in key order.
    """
    # One invariant table per member; members with different sorted tables
    # are never isomorphic.  A class is [key, rep, rep's table, count].
    buckets: dict[tuple, list[list]] = {}
    for key in sorted(o.members):
        g = o.members[key]
        inv = _iso_invariants(g)
        reps = buckets.setdefault(tuple(sorted(inv)), [])
        for rep in reps:
            if _match(rep[1], rep[2], g, inv) is not None:
                rep[3] += 1
                break
        else:
            reps.append([key, g, inv, 1])
    classes = sorted((rep for reps in buckets.values() for rep in reps), key=lambda rep: rep[0])
    return [(rep, count) for _, rep, _, count in classes]


def min_edge_member(o: Orbit) -> tuple[SimpleGraph, int]:
    """The member with fewest edges; ties broken by canonical key."""
    best = min(
        o.members.items(), key=lambda item: (edge_count(item[1]), item[0])
    )
    return best[1], edge_count(best[1])


def min_max_degree_member(o: Orbit) -> tuple[SimpleGraph, int]:
    """The member with smallest maximum degree; ties broken by canonical key."""
    best = min(
        o.members.items(), key=lambda item: (max_degree(item[1]), item[0])
    )
    return best[1], max_degree(best[1])
