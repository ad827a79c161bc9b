"""Brute-force enumeration of local-complement orbits.

The orbit of a graph is its closure under the n primitive local
complements.  Enumeration is a breadth-first search over labeled graphs,
de-duplicated on the adjacency tuple ``SimpleGraph._adj`` and keyed by
canonical key once closed, and serves as the ground-truth oracle for every
closed-form count in :mod:`lcsplit.counting`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, InvalidSpecError, NotEquivalentError
from .graphs import (
    SimpleGraph,
    _iso_invariants,
    _lc_adj,
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
        return g in self.members.values()

    def sorted_members(self) -> list[SimpleGraph]:
        return [self.members[k] for k in sorted(self.members)]


def enumerate_orbit(
    g: SimpleGraph, limit: int = DEFAULT_BUDGET, track_parents: bool = False
) -> Orbit:
    """BFS closure of g under all primitive local complements.

    Deterministic: the frontier is FIFO and pivots are tried in ascending
    vertex order.  Raises :class:`BudgetExceededError` if the member count
    would exceed ``limit``.
    """
    if g.n < 1:
        raise InvalidSpecError("orbit enumeration needs n >= 1")
    if limit < 1:
        raise ValueError("budget must be >= 1")
    # adjacency tuple -> (predecessor tuple, pivot) or None, in BFS order
    seen: dict[tuple, Optional[tuple]] = {g._adj: None}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        for v in range(1, g.n + 1):
            nxt = _lc_adj(cur, v)
            if nxt not in seen:
                if len(seen) >= limit:
                    raise BudgetExceededError(len(seen), limit)
                seen[nxt] = (cur, v) if track_parents else None
                queue.append(nxt)
    members: dict[bytes, SimpleGraph] = {}
    parent = {} if track_parents else None
    for adj, entry in seen.items():
        member = SimpleGraph._from_adj(g.n, adj)
        key = canonical_key(member)
        members[key] = member
        if parent is not None:
            # Predecessors come first, so seen[pred] already holds pred's key.
            parent[key] = None if entry is None else (seen[entry[0]], entry[1])
            seen[adj] = key
    return Orbit(base=g, members=members, parent=parent)


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
    key = next((k for k, member in orbit.members.items() if member == h), None)
    if key is None:
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
