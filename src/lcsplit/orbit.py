"""Brute-force enumeration of local-complement orbits.

The orbit of a graph is its closure under the n primitive local
complements.  Enumeration is a breadth-first search over labeled graphs,
each held as one flat integer (row u of the adjacency matrix at bit
``u*(n+1)``) and de-duplicated on that integer.  An :class:`Orbit` keeps
those integers: its size, membership, shortest LC sequences and edge or
degree minima are read from them, and members are decoded to
:class:`SimpleGraph` and given their canonical keys only on first read of
``members`` or ``parent``, once.  The search serves as the ground-truth
oracle for every closed-form count in :mod:`lcsplit.counting`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import BudgetExceededError, InvalidSpecError, NotEquivalentError, SizeLimitError
from .graphs import SimpleGraph, _bits, _flat, _iso_plan, _iso_search, _key_fragment, _vertex_invariants
from .graphs import apply_sequence
from .graphs import canonical_key  # noqa: F401  the member key; callers also reach it as orbit.canonical_key

DEFAULT_BUDGET = 10**6
# Bytes the BFS's member store may take, charged at (n+1)*n/8 + 128 per member, within 10% of the
# peak tracemalloc bytes per member on P40, P80 and P160 (309, 964, 3559); every n <= 86 keeps the
# default budget.  It bounds the store, not the process: the interpreter and the clique-mask cache
# fall outside the charge.
MAX_ORBIT_BYTES = 2**30


@dataclass
class Orbit:
    """A fully enumerated LC orbit.

    ``flats`` maps each member, as a flat integer (row u at bit
    ``u*(n+1)``), to (predecessor flat, pivot vertex), in BFS order; the
    base maps to None, and so does every member unless parents were
    tracked.  Two flats of the same n are equal iff the graphs are.

    ``members`` maps canonical key -> graph, in BFS order.  ``parent``
    (None unless parents were tracked) maps a member's key to
    (predecessor key, pivot vertex) for transformation extraction; the
    base maps to None.  Both are decoded from ``flats`` on first read.
    """

    base: SimpleGraph
    flats: dict[int, Optional[tuple[int, int]]]
    track_parents: bool = False

    def __len__(self) -> int:
        return len(self.flats)

    def __contains__(self, g: SimpleGraph) -> bool:
        return g.n == self.base.n and _flat(g) in self.flats

    @cached_property
    def members(self) -> dict[bytes, SimpleGraph]:
        return dict(_decode(self.base.n, self.flats))

    @cached_property
    def parent(self) -> Optional[dict[bytes, Optional[tuple[bytes, int]]]]:
        if not self.track_parents:
            return None
        key = dict(zip(self.flats, self.members))
        return {
            key[flat]: None if entry is None else (key[entry[0]], entry[1])
            for flat, entry in self.flats.items()
        }

    def sorted_members(self) -> list[SimpleGraph]:
        return [self.members[k] for k in sorted(self.members)]


def enumerate_orbit(
    g: SimpleGraph, limit: int = DEFAULT_BUDGET, track_parents: bool = False
) -> Orbit:
    """BFS closure of g under all primitive local complements.

    Deterministic: the frontier is FIFO and pivots are tried in ascending
    vertex order.  Raises :class:`BudgetExceededError` if the member count
    would exceed ``limit``, lowered so that the member store fits in
    :data:`MAX_ORBIT_BYTES`, and :class:`SizeLimitError` before anything is
    built if not even one member fits.

    Each graph is one integer with row u at bit ``u*(n+1)``.  A local
    complement at v reads N(v) with one shift and mask and xors in the
    clique mask of N(v), cached per call; a pivot with fewer than two
    neighbours is the identity and is skipped, and an isolated vertex is
    never tried.  Nothing is decoded here.
    """
    n = g.n
    if n < 1:
        raise InvalidSpecError("orbit enumeration needs n >= 1")
    if limit < 1:
        raise ValueError("budget must be >= 1")
    limit = min(limit, MAX_ORBIT_BYTES // ((n + 1) * n // 8 + 128))
    if limit < 1:
        raise SizeLimitError(f"one orbit member of a {n}-vertex graph exceeds the {MAX_ORBIT_BYTES}-byte cap")
    width = n + 1
    row = (1 << width) - 1
    # An LC toggles edges only among N(v), so an isolated vertex stays isolated and is never a pivot.
    shifts = [(v, v * width) for v in range(1, n + 1) if g.neighborhood_mask(v)]
    cliques: dict[int, int] = {}
    # flat graph -> (predecessor, pivot) or None, in BFS order
    seen: dict[int, Optional[tuple[int, int]]] = {_flat(g): None}
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
    return Orbit(base=g, flats=seen, track_parents=track_parents)


def _decode(n: int, flats: Iterable[int]) -> list[tuple[bytes, SimpleGraph]]:
    """(canonical key, graph) of each flat n-vertex graph, in the order given.

    Row integers are shared between the graphs, and each key is joined
    from cached per-row byte fragments, equal to
    :func:`lcsplit.graphs.canonical_key` of the graph.
    """
    width = n + 1
    row = (1 << width) - 1
    # Per vertex u: row integer -> (shared row, key fragment for its edges u-w, w > u).
    rows: dict[int, int] = {}
    decode = [(u, u * width, {}) for u in range(1, n + 1)]
    head = str(n).encode("ascii")
    out = []
    for flat in flats:
        adj = [0]
        parts = [head]
        for u, shift, cache in decode:
            r = flat >> shift & row
            hit = cache.get(r)
            if hit is None:
                hit = cache[r] = (rows.setdefault(r, r), _key_fragment(u, r))
            adj.append(hit[0])
            parts.append(hit[1])
        out.append((b"".join(parts), SimpleGraph._from_adj(n, adj)))
    return out


def _clique_mask(nb: int, width: int) -> int:
    """The flat mask toggling every edge among the vertices of bitmask nb."""
    mask = 0
    for u in _bits(nb):
        mask |= (nb ^ 1 << u) << (u * width)
    return mask


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
    flats = enumerate_orbit(g, limit=limit, track_parents=True).flats
    flat = _flat(h)
    if flat not in flats:
        raise NotEquivalentError("graphs are not LC-equivalent")
    steps: list[int] = []
    while (entry := flats[flat]) is not None:
        flat, v = entry
        steps.append(v)
    steps.reverse()
    assert apply_sequence(g, steps) == h
    return steps


def orbit_iso_classes(o: Orbit) -> list[tuple[SimpleGraph, int]]:
    """Partition orbit members into isomorphism classes.

    Returns (representative, multiplicity) pairs; representatives are the
    canonical-key-least member of each class, listed in key order.  A member
    is searched for against the plan of each class in its invariant bucket.
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


def min_edge_member(o: Orbit) -> tuple[SimpleGraph, int]:
    """The member with fewest edges; ties broken by canonical key."""
    # A flat graph holds each edge twice, once in each endpoint's row.
    return _least(o, lambda flat: flat.bit_count() // 2)


def min_max_degree_member(o: Orbit) -> tuple[SimpleGraph, int]:
    """The member with smallest maximum degree; ties broken by canonical key."""
    width = o.base.n + 1
    row = (1 << width) - 1
    shifts = range(width, width * width, width)

    def max_degree(flat: int) -> int:  # max() over a generator costs about 1.6x this loop
        top = 0
        for shift in shifts:
            if (d := (flat >> shift & row).bit_count()) > top:
                top = d
        return top
    return _least(o, max_degree)


def _least(o: Orbit, measure) -> tuple[SimpleGraph, int]:
    """The member whose flat is least in ``measure``, and that value.

    Only the members tied at the minimum are decoded; the least canonical
    key among them wins.
    """
    values = {flat: measure(flat) for flat in o.flats}
    best = min(values.values())
    tied = [flat for flat, value in values.items() if value == best]
    return min(_decode(o.base.n, tied), key=lambda item: item[0])[1], best
