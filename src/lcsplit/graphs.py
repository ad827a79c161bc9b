"""Simple labeled graphs and the local-complement operation.

Vertices are the integers 1..n.  A graph is immutable after construction;
every operation returns a new graph.  Adjacency is stored as one Python
integer bitmask per vertex (bit v set in ``adj[u]`` iff (u,v) is an edge),
which makes a local complement a handful of word-wide xor operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    InvalidSpecError,
    InvalidVertexError,
    LcsplitError,
    NotAnEdgeError,
    SizeLimitError,
)

LcSequence = Sequence[int]

_ISO_MAX_VERTICES = 16


class SimpleGraph:
    """Undirected simple graph on vertex set {1..n}."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * (n + 1)
        for u, v in edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise InvalidVertexError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise InvalidVertexError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_adj(cls, n: int, adj: Sequence[int]) -> "SimpleGraph":
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        return g

    # -- basic accessors ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u,v) pairs with u < v, lexicographic order."""
        out = []
        for u in range(1, self.n + 1):
            mask = self._adj[u] >> (u + 1) << (u + 1)
            while mask:
                low = mask & -mask
                out.append((u, low.bit_length() - 1))
                mask ^= low
        return out

    def neighborhood_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise InvalidVertexError(f"vertex {v} out of range 1..{self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edges()})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- structural helpers ----------------------------------------------------


def neighborhood(g: SimpleGraph, v: int) -> set[int]:
    return set(_bits(g.neighborhood_mask(v)))


def degree(g: SimpleGraph, v: int) -> int:
    return g.neighborhood_mask(v).bit_count()


def max_degree(g: SimpleGraph) -> int:
    return max((degree(g, v) for v in range(1, g.n + 1)), default=0)


def edge_count(g: SimpleGraph) -> int:
    return sum(degree(g, v) for v in range(1, g.n + 1)) // 2


def is_connected(g: SimpleGraph) -> bool:
    if g.n <= 1:
        return True
    seen = 1 << 1
    frontier = 1 << 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g._adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen.bit_count() == g.n


def induced_subgraph(g: SimpleGraph, keep: Iterable[int]) -> tuple[SimpleGraph, dict[int, int]]:
    """Induced subgraph on ``keep``, relabeled to 1..|keep|.

    Returns the subgraph and the map new-label -> original label.
    Relabeling preserves the original vertex order.
    """
    kept = sorted(set(keep))
    for v in kept:
        g._check_vertex(v)
    new_of_old = {old: i + 1 for i, old in enumerate(kept)}
    edges = [
        (new_of_old[u], new_of_old[v])
        for u, v in g.edges()
        if u in new_of_old and v in new_of_old
    ]
    return SimpleGraph(len(kept), edges), {i + 1: old for i, old in enumerate(kept)}


# -- local complementation -------------------------------------------------


def local_complement(g: SimpleGraph, v: int) -> SimpleGraph:
    """Toggle every edge among the neighbors of v."""
    nb = g.neighborhood_mask(v)
    adj = list(g._adj)
    for u in _bits(nb):
        adj[u] ^= nb & ~(1 << u)
    return SimpleGraph._from_adj(g.n, adj)


def apply_sequence(g: SimpleGraph, f: LcSequence) -> SimpleGraph:
    """Apply primitive local complements left to right; [] is the identity."""
    for v in f:
        g = local_complement(g, v)
    return g


def edge_pivot(g: SimpleGraph, i: int, j: int) -> SimpleGraph:
    """Pivot along the edge (i,j): c_i then c_j then c_i.

    The endpoints are interchangeable.  Refuses non-edges; see
    :func:`lcsplit.symmetry.component_edge_pivot` for the lenient variant
    that maps non-edges to the identity.
    """
    if not g.has_edge(i, j):
        raise NotAnEdgeError(f"({i},{j}) is not an edge")
    return apply_sequence(g, [i, j, i])


# -- canonical key and isomorphism ------------------------------------------


def canonical_key(g: SimpleGraph) -> bytes:
    """Deterministic key; equal keys iff identical labeled edge sets."""
    parts = [str(g.n)] + [f"{u}-{v}" for u, v in g.edges()]
    return ";".join(parts).encode("ascii")


def _iso_invariant(g: SimpleGraph, v: int) -> tuple:
    nbr_degs = sorted(degree(g, u) for u in _bits(g.neighborhood_mask(v)))
    return (degree(g, v), tuple(nbr_degs))


def find_isomorphism(g: SimpleGraph, h: SimpleGraph) -> Optional[dict[int, int]]:
    """An edge-preserving bijection g -> h, or None.

    Backtracking with a degree / neighbor-degree pre-filter; inputs above
    16 vertices are rejected.
    """
    if g.n != h.n:
        return None
    if g.n > _ISO_MAX_VERTICES:
        raise SizeLimitError(
            f"isomorphism search limited to {_ISO_MAX_VERTICES} vertices, got {g.n}"
        )
    if edge_count(g) != edge_count(h):
        return None
    g_inv = {v: _iso_invariant(g, v) for v in range(1, g.n + 1)}
    h_inv = {v: _iso_invariant(h, v) for v in range(1, h.n + 1)}
    if sorted(g_inv.values()) != sorted(h_inv.values()):
        return None

    # Order g's vertices so each one (after the first) touches an already
    # mapped vertex when possible; rarest invariant first breaks ties.
    order: list[int] = []
    placed = 0
    remaining = set(range(1, g.n + 1))
    while remaining:
        adjacent = [v for v in remaining if g.neighborhood_mask(v) & placed]
        pool = adjacent if adjacent else list(remaining)
        v = min(pool, key=lambda v: (g_inv[v], v))
        order.append(v)
        remaining.discard(v)
        placed |= 1 << v

    mapping: dict[int, int] = {}
    used = [False] * (h.n + 1)

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(1, h.n + 1):
            if used[w] or h_inv[w] != g_inv[v]:
                continue
            ok = True
            for u, x in mapping.items():
                if g.has_edge(v, u) != h.has_edge(w, x):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(i + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def is_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return find_isomorphism(g, h) is not None


# -- serialization -----------------------------------------------------------


def to_json_dict(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def from_json_dict(data: dict) -> SimpleGraph:
    try:
        return SimpleGraph(int(data["n"]), [(int(u), int(v)) for u, v in data["edges"]])
    except LcsplitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"malformed graph JSON: {type(exc).__name__}: {exc}") from exc


def to_dot(g: SimpleGraph) -> str:
    lines = ["graph G {"]
    for v in range(1, g.n + 1):
        lines.append(f'  {v} [label="{v}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
