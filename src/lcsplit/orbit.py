"""Brute-force enumeration of local-complement orbits.

The orbit of a graph is its closure under the n primitive local
complements.  Enumeration is a breadth-first search over labeled graphs,
each held as one flat integer (row u of the adjacency matrix at bit
``u*(n+1)``) and de-duplicated on that integer.  An :class:`Orbit` keeps
those integers, each with the pivot that first reached it: its size,
membership and edge or degree minima are read from them, and members are
decoded to :class:`SimpleGraph` and given their canonical keys only on
first read of ``members``, once; :func:`orbit_iso_classes` keys every
member from its flat integer and decodes only those it searches.  The
search serves as the ground-truth oracle for every closed-form count in
:mod:`lcsplit.counting`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .errors import BudgetExceededError, InvalidSpecError, NotEquivalentError, SizeLimitError, check
from .graphs import SimpleGraph, _bits, _flat, _iso_plan, _iso_search, _key_fragment, _vertex_invariants, json_int
from .graphs import apply_sequence, local_complement
from .graphs import canonical_key  # noqa: F401  the member key; callers also reach it as orbit.canonical_key

DEFAULT_BUDGET = 10**6
# Bytes the BFS's member store may take, charged at (n+1)*n/8 + 128 per member, within 10% of the
# peak tracemalloc bytes per member on P40, P80 and P160 (309, 964, 3559); every n <= 86 keeps the
# default budget.  It bounds the store, not the process: the interpreter and the clique-mask and
# pivot-plan caches fall outside the charge.
MAX_ORBIT_BYTES = 2**30


@dataclass
class Orbit:
    """A fully enumerated LC orbit.

    ``flats`` maps each member, as a flat integer (row u at bit
    ``u*(n+1)``), to the pivot vertex that first reached it, in BFS order;
    the base maps to None.  Two flats of the same n are equal iff the
    graphs are.

    ``members`` maps canonical key -> graph, in BFS order, decoded from
    ``flats`` on first read.
    """

    base: SimpleGraph
    flats: dict[int, Optional[int]]

    def __len__(self) -> int:
        return len(self.flats)

    def __contains__(self, g: SimpleGraph) -> bool:
        return g.n == self.base.n and _flat(g) in self.flats

    @cached_property
    def members(self) -> dict[bytes, SimpleGraph]:
        return dict(_decode(self.base.n, self.flats))

    def sorted_members(self) -> list[SimpleGraph]:
        return [self.members[k] for k in sorted(self.members)]


def enumerate_orbit(g: SimpleGraph, limit: int = DEFAULT_BUDGET) -> Orbit:
    """BFS closure of g under all primitive local complements.

    Deterministic: the frontier is FIFO and pivots are tried in ascending
    vertex order.  Raises :class:`BudgetExceededError` if the member count
    would exceed ``limit``, lowered so that the member store fits in
    :data:`MAX_ORBIT_BYTES`, and :class:`SizeLimitError` before anything is
    built if not even one member fits.  ``limit`` is read through
    :func:`lcsplit.graphs.json_int`: a bool, float or str raises TypeError.

    Each graph is one integer with row u at bit ``u*(n+1)``.  A local
    complement at v reads N(v) with one shift and mask and xors in the
    clique mask of N(v), cached per call; a pivot with fewer than two
    neighbours is the identity and is skipped, and an isolated vertex is
    never tried.  Nothing is decoded here.

    A member M first reached by pivot p is expanded only at the pivots
    above p and those in N(p); every other lookup would find a member
    already seen, so skipping it changes neither the members, their order
    nor the pivots that first reach them.  Local complements at
    non-adjacent w and p commute (Bouchet 1988): for w < p outside N(p),
    LC_w(M) = LC_p(LC_w(P)) where M = LC_p(P), and LC_w(P) was seen before
    M, so its expansion at p (tried, or skipped by the same rule) had
    already seen LC_w(M).  The pivot plan is cached per allowed-pivot mask.
    """
    n = g.n
    if n < 1:
        raise InvalidSpecError("orbit enumeration needs n >= 1")
    _check_limit(limit)
    limit = min(limit, MAX_ORBIT_BYTES // ((n + 1) * n // 8 + 128))
    if limit < 1:
        raise SizeLimitError(f"one orbit member of a {n}-vertex graph exceeds the {MAX_ORBIT_BYTES}-byte cap")
    width = n + 1
    row = (1 << width) - 1
    # An LC toggles edges only among N(v), so an isolated vertex stays isolated and is never a pivot.
    active = sum(1 << v for v in range(1, n + 1) if g.neighborhood_mask(v))
    above = [active & -(2 << p) for p in range(n + 1)]  # the pivots above p
    pairs = [(v, v * width) for v in range(n + 1)]
    plans: dict[int, list[tuple[int, int]]] = {}  # allowed-pivot mask -> its (v, shift) pairs, ascending
    # Joining nb's binary digits with n zeros moves bit u to bit u*width, so row u of nb times that
    # is nb for each u in nb; off_diagonal then drops bit u of row u.
    gap = "0" * n
    off_diagonal = sum((row ^ 1 << u) << u * width for u in range(1, n + 1))
    cliques: dict[int, int] = {}
    seen: dict[int, Optional[int]] = {_flat(g): None}  # flat graph -> the pivot that first reached it
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        p = seen[cur]
        allowed = active if p is None else above[p] | cur >> p * width & row
        plan = plans.get(allowed)
        if plan is None:
            plan = plans[allowed] = [pairs[v] for v in _bits(allowed)]
        for v, shift in plan:
            nb = cur >> shift & row
            if not nb & (nb - 1):
                continue
            clique = cliques.get(nb)
            if clique is None:
                clique = cliques[nb] = nb * int(gap.join(bin(nb)[2:]), 2) & off_diagonal
            nxt = cur ^ clique
            if nxt not in seen:
                if len(seen) >= limit:
                    raise BudgetExceededError(len(seen), limit)
                seen[nxt] = v
                queue.append(nxt)
    return Orbit(base=g, flats=seen)


def _decode(n: int, flats: Iterable[int]) -> list[tuple[bytes, SimpleGraph]]:
    """(canonical key, graph) of each flat n-vertex graph, in the order given; rows are shared between the graphs."""
    key = _keyer(n)
    width = n + 1
    row = (1 << width) - 1
    shifts = range(width, width * width, width)
    rows: dict[int, int] = {}
    out = []
    for flat in flats:
        adj = [0]
        for s in shifts:
            r = flat >> s & row
            adj.append(rows.setdefault(r, r))
        out.append((key(flat), SimpleGraph._from_adj(n, adj)))
    return out


def _keyer(n: int) -> Callable[[int], bytes]:
    """The function taking a flat n-vertex graph to :func:`lcsplit.graphs.canonical_key` of it.

    A key is joined from per-row byte fragments, memoized per vertex u on
    the row's bits above u; row n has none.
    """
    width = n + 1
    rows = [(u, u * width + u + 1, (1 << n - u) - 1, {}) for u in range(1, n)]
    head = str(n).encode("ascii")

    def key(flat: int) -> bytes:
        parts = [head]
        for u, shift, above, memo in rows:
            r = flat >> shift & above
            part = memo.get(r)
            if part is None:
                part = memo[r] = _key_fragment(u, r << u + 1)
            parts.append(part)
        return b"".join(parts)
    return key


def _check_limit(limit: int) -> None:
    """Refuse an orbit budget below 1; a bool, float or str raises TypeError."""
    if json_int(limit) < 1:
        raise ValueError("budget must be >= 1")


def are_lc_equivalent(g: SimpleGraph, h: SimpleGraph, limit: int = DEFAULT_BUDGET) -> bool:
    """True iff h lies in the orbit of g.

    ``limit`` is checked before any answer, even one that needs no orbit.
    A budget overrun propagates as :class:`BudgetExceededError` (an
    indeterminate outcome, distinct from False).
    """
    _check_limit(limit)
    if g.n != h.n:
        return False
    return g == h or h in enumerate_orbit(g, limit=limit)


def transformation_between(
    g: SimpleGraph, h: SimpleGraph, limit: int = DEFAULT_BUDGET
) -> list[int]:
    """A primitive LC sequence taking g to h, of minimal BFS depth; ``limit`` is checked first.

    Identical graphs need no search.  Otherwise the walk starts at h: a
    member M first reached from P by pivot v is LC_v(P), and LC_v leaves
    N(v) as it is and undoes itself, so LC_v(M) = P.  The pivots met on
    the way back to g, reversed, take g to h.
    """
    _check_limit(limit)
    if g.n != h.n:
        raise NotEquivalentError("graphs have different vertex counts")
    if g == h:
        return []
    flats = enumerate_orbit(g, limit=limit).flats
    if _flat(h) not in flats:
        raise NotEquivalentError("graphs are not LC-equivalent")
    steps: list[int] = []
    cur = h
    while (v := flats[_flat(cur)]) is not None:
        steps.append(v)
        cur = local_complement(cur, v)
    steps.reverse()
    check(apply_sequence(g, steps) == h)
    return steps


class _RowImage(dict):
    """Row bitmask -> its image under a vertex map, each filled on first read from the row less its lowest vertex."""

    def __init__(self, sigma: dict[int, int]):
        super().__init__({0: 0})
        self.sigma = sigma

    def __missing__(self, r: int) -> int:
        low = r & -r
        image = self[r] = self[r ^ low] | 1 << self.sigma[low.bit_length() - 1]
        return image


def orbit_iso_classes(o: Orbit) -> list[tuple[SimpleGraph, int]]:
    """Partition orbit members into isomorphism classes.

    Returns (representative, multiplicity) pairs; representatives are the
    canonical-key-least member of each class, listed in key order.

    A relabelling s commutes with local complements, s(LC_v(G)) =
    LC_s(v)(s(G)), so one mapping a member onto a member maps the orbit onto
    itself: the classes are the orbits, on the members, of those
    relabellings.  Members are walked in key order; one not yet reached from
    a representative is searched against the representatives in its
    invariant bucket.  A hit is a new generator, at least doubling the group
    (so at most log2(n!) hit), and every class is closed under it; a miss
    starts a class, closed under the generators so far.
    """
    n = o.base.n
    _vertex_invariants(o.base)  # refuses more than 16 vertices before any keying
    width = n + 1
    row = (1 << width) - 1
    shifts = range(width, width * width, width)
    # Per generator: (row shift, image row shift) per vertex, and row -> image row.
    gens: list[tuple[list[tuple[int, int]], _RowImage]] = []
    home: dict[int, list[int]] = {}  # member -> the members of its class
    classes: list[tuple[SimpleGraph, list[int]]] = []  # in key order
    buckets: dict[tuple, list[tuple[SimpleGraph, list[int]]]] = {}  # invariant multiset -> (rep, invariants)

    def close(members: list[int], first: int) -> None:
        """Add the images of members under every generator; those there already have theirs under gens[:first]."""
        done = len(members)
        i = 0
        while i < len(members):
            flat = members[i]
            for moves, image in gens[first if i < done else 0:]:
                out = 0
                for s, t in moves:
                    out |= image[flat >> s & row] << t
                if out not in home:
                    home[out] = members
                    members.append(out)
            i += 1

    for flat in sorted(o.flats, key=_keyer(n)):
        if flat in home:
            continue
        g = SimpleGraph._from_adj(n, [0] + [flat >> s & row for s in shifts])
        inv = _vertex_invariants(g)
        reps = buckets.setdefault(tuple(sorted(inv)), [])
        plan = _iso_plan(g, inv) if reps else None
        sigma = next(filter(None, (_iso_search(plan, rep, rep_inv) for rep, rep_inv in reps)), None)
        if sigma:
            gens.append(([(v * width, w * width) for v, w in sigma.items()], _RowImage(sigma)))
            for _, members in classes:
                close(members, len(gens) - 1)
        else:
            home[flat] = members = [flat]
            close(members, 0)
            reps.append((g, inv))
            classes.append((g, members))
    return [(rep, len(members)) for rep, members in classes]


def min_edge_member(o: Orbit) -> tuple[SimpleGraph, int]:
    """The member with fewest edges; ties broken by canonical key."""
    # A flat graph holds each edge twice, once in each endpoint's row.
    best = min(map(int.bit_count, o.flats))
    return _key_least(o, [flat for flat in o.flats if flat.bit_count() == best]), best // 2


def min_max_degree_member(o: Orbit) -> tuple[SimpleGraph, int]:
    """The member with smallest maximum degree; ties broken by canonical key.

    A member's rows are read until one has more neighbours than the least
    maximum so far; the members tied at it are collected in the same pass.
    """
    n = o.base.n
    width = n + 1
    row = (1 << width) - 1
    shifts = range(width, width * width, width)
    best, tied = n, []
    for flat in o.flats:
        top = 0
        for shift in shifts:
            if (d := (flat >> shift & row).bit_count()) > top:
                if d > best:
                    break
                top = d
        else:
            if top < best:
                best, tied = top, [flat]
            else:
                tied.append(flat)
    return _key_least(o, tied), best


def _key_least(o: Orbit, flats: list[int]) -> SimpleGraph:
    """The member of least canonical key among ``flats``; only those are decoded."""
    return min(_decode(o.base.n, flats), key=lambda item: item[0])[1]
