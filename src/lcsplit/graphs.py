"""Simple labeled graphs and the local-complement operation.

Vertices are the integers 1..n.  A graph is immutable after construction;
every operation returns a new graph.  Adjacency is stored as one Python
integer bitmask per vertex (bit v set in ``adj[u]`` iff (u,v) is an edge),
which makes a local complement a handful of word-wide xor operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidSpecError, InvalidVertexError, LcsplitError, NotAnEdgeError, SizeLimitError

LcSequence = Sequence[int]

_ISO_MAX_VERTICES = 16

# Largest n accepted from JSON, checked before the per-vertex table is allocated.
MAX_VERTICES = 100_000


class SimpleGraph:
    """Undirected simple graph on vertex set {1..n}."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        """The graph on 1..n with these edges, its rows built in one loop.

        An n or an end that is not an int raises at once (:func:`json_int`),
        n before any row is made, u before v.  A negative n, then the first
        edge out of range or looping, is refused once every end is read.
        """
        adj = [0] * (json_int(n) + 1)
        bad = None
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not 0 < u <= n or not 0 < v <= n or u == v:
                json_int(u)
                json_int(v)
                bad = bad or (u, v)
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        if bad:
            u, v = bad
            if u == v and 0 < u <= n:
                raise InvalidVertexError(f"self-loop at vertex {u}")
            raise InvalidVertexError(f"edge ({u},{v}) out of range 1..{n}")
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
        """A v that is not an int raises TypeError (:func:`json_int`), one out of range InvalidVertexError."""
        if not 1 <= json_int(v) <= self.n:
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
    return max(mask.bit_count() for mask in g._adj)


def edge_count(g: SimpleGraph) -> int:
    return sum(mask.bit_count() for mask in g._adj) // 2


def is_connected(g: SimpleGraph) -> bool:
    if g.n <= 1:
        return True
    seen = frontier = 1 << 1
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
    keep = list(keep)
    for v in keep:  # before sorted, so a str among ints raises json_int's TypeError
        g._check_vertex(v)
    kept = sorted(set(keep))
    new_of_old = {old: i + 1 for i, old in enumerate(kept)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in g.edges() if u in new_of_old and v in new_of_old]
    return SimpleGraph(len(kept), edges), {i + 1: old for i, old in enumerate(kept)}


# -- local complementation -------------------------------------------------


def _lc_adj(adj: tuple, v: int) -> tuple:
    """The adjacency tuple with every edge among the neighbors of v toggled."""
    nb = rest = adj[v]
    out = list(adj)
    while rest:
        low = rest & -rest
        out[low.bit_length() - 1] ^= nb ^ low
        rest ^= low
    return tuple(out)


def local_complement(g: SimpleGraph, v: int) -> SimpleGraph:
    """Toggle every edge among the neighbors of v."""
    g._check_vertex(v)
    return SimpleGraph._from_adj(g.n, _lc_adj(g._adj, v))


def apply_sequence(g: SimpleGraph, f: LcSequence) -> SimpleGraph:
    """Apply primitive local complements left to right; [] is the identity."""
    for v in f:
        g = local_complement(g, v)
    return g


def edge_pivot(g: SimpleGraph, i: int, j: int) -> SimpleGraph:
    """Pivot along the edge (i,j): c_i then c_j then c_i.

    The endpoints are interchangeable.  Refuses non-edges.
    """
    if not g.has_edge(i, j):
        raise NotAnEdgeError(f"({i},{j}) is not an edge")
    return apply_sequence(g, [i, j, i])


# -- canonical key and isomorphism ------------------------------------------


def _flat(g: SimpleGraph) -> int:
    """g as one integer, row u at bit ``u*(n+1)``."""
    width = g.n + 1
    flat = 0
    for v in range(1, g.n + 1):
        flat |= g._adj[v] << (v * width)
    return flat


def _key_fragment(u: int, mask: int) -> bytes:
    """The part of :func:`canonical_key` listing the edges u-w with w > u in mask."""
    return "".join(f";{u}-{w}" for w in _bits(mask >> (u + 1) << (u + 1))).encode("ascii")


def canonical_key(g: SimpleGraph) -> bytes:
    """Deterministic key ``n;u-v;...``, edges u < v in order; equal keys iff identical labeled edge sets."""
    return b"".join([str(g.n).encode("ascii")] + [_key_fragment(u, g._adj[u]) for u in range(1, g.n + 1)])


def _vertex_invariants(g: SimpleGraph) -> list[int]:
    """Per vertex, packed: degree, sum of neighbour degrees, twice the edges among neighbours.

    Entry 0 is 0.  Every search starts here, so it refuses more than 16
    vertices; up to that, each field is below 256.
    """
    if g.n > _ISO_MAX_VERTICES:
        raise SizeLimitError(f"isomorphism search limited to {_ISO_MAX_VERTICES} vertices, got {g.n}")
    width = g.n + 1
    row = (1 << width) - 1
    col = ((1 << width * width) - 1) // row  # bit u*width for every u
    flat = _flat(g)
    # Column v of the flat graph, s, holds one bit in the row of each neighbour of v.
    return [nb.bit_count() << 16 | (flat & (s := flat >> v & col) * row).bit_count() << 8
            | (flat & s * nb).bit_count() for v, nb in enumerate(g._adj)]


def _iso_plan(g: SimpleGraph, inv: list[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(vertex, invariant, positions of its earlier neighbours) in search order."""
    adj = g._adj
    plan: list[tuple[int, int, tuple[int, ...]]] = []
    placed = 0
    # Rarest, then least invariant, then least vertex; one touching a placed vertex first.
    rank = sorted(range(1, g.n + 1), key=lambda v: (inv.count(inv[v]), inv[v], v))
    while rank:
        v = next((v for v in rank if adj[v] & placed), rank[0])
        rank.remove(v)
        plan.append((v, inv[v], tuple(i for i, (u, _, _) in enumerate(plan) if adj[v] >> u & 1)))
        placed |= 1 << v
    return plan


def _iso_search(plan: list, h: SimpleGraph, inv: list[int]) -> Optional[dict[int, int]]:
    """The plan's vertices mapped onto h edge for edge, or None; ``inv`` is h's, of equal multiset.

    Position i takes the least unused vertex of its invariant that is adjacent,
    among the images so far, to the images of i's earlier neighbours alone.
    """
    adj = h._adj
    pools: dict[int, int] = {}
    for w, x in enumerate(inv[1:], 1):
        pools[x] = pools.get(x, 0) | 1 << w
    bits = [0] * len(plan)

    def extend(i: int, used: int) -> bool:
        if i == len(plan):
            return True
        _, x, back = plan[i]
        want = 0
        for j in back:
            want |= bits[j]
        rest = pools[x] & ~used
        while rest:
            bits[i] = bit = rest & -rest
            if adj[bit.bit_length() - 1] & used == want and extend(i + 1, used | bit):
                return True
            rest ^= bit
        return False

    return {v: bit.bit_length() - 1 for (v, _, _), bit in zip(plan, bits)} if extend(0, 0) else None


def find_isomorphism(g: SimpleGraph, h: SimpleGraph) -> Optional[dict[int, int]]:
    """An edge-preserving bijection g -> h, or None; deterministic.

    Graphs of different orders are never isomorphic; past that, more than
    16 vertices raise :class:`SizeLimitError`.  If the vertex invariants
    agree as multisets, g's search plan is run against h.
    """
    if g.n != h.n:
        return None
    g_inv, h_inv = _vertex_invariants(g), _vertex_invariants(h)
    if sorted(g_inv) != sorted(h_inv):
        return None
    return _iso_search(_iso_plan(g, g_inv), h, h_inv)


def is_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return find_isomorphism(g, h) is not None


# -- serialization -----------------------------------------------------------


def to_json_dict(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


# _PAD[d] starts a line at depth d, as ``json.dumps(..., indent=2)`` does.
_PAD = ["\n" + "  " * d for d in range(7)]


def _list_text(items: list[str], d: int) -> str:
    """A JSON list at depth d of items already written at depth d + 1."""
    if not items:
        return "[]"
    return "[" + _PAD[d + 1] + ("," + _PAD[d + 1]).join(items) + _PAD[d] + "]"


def to_json_text(g: SimpleGraph, d: int = 0) -> str:
    """``json.dumps(to_json_dict(g), indent=2, sort_keys=True)`` at depth d, byte for byte, one f-string per edge."""
    start, mid, end = "[" + _PAD[d + 3], "," + _PAD[d + 3], _PAD[d + 2] + "]"  # an edge pair at depth d + 2
    pairs = [f"{start}{u}{mid}{v}{end}" for u, v in g.edges()]
    return f'{{{_PAD[d + 1]}"edges": {_list_text(pairs, d + 1)},{_PAD[d + 1]}"n": {g.n}{_PAD[d]}}}'


def json_int(x) -> int:
    """``x`` itself if it is a JSON integer; bools, floats and strings raise TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def from_json_dict(data: dict) -> SimpleGraph:
    """The graph a :func:`to_json_dict` payload describes: n's size, then :class:`SimpleGraph` reads n and the edges."""
    try:
        n = data["n"]
        # The cap is checked before the type: a count above it is refused as
        # too large even when it is not an integer.
        size = n if type(n) is int else float(n) if isinstance(n, (float, str)) else 0
        if size > MAX_VERTICES:
            raise SizeLimitError(f"graphs are limited to {MAX_VERTICES} vertices")
        return SimpleGraph(n, data["edges"])
    except LcsplitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"malformed graph JSON: {type(exc).__name__}: {exc}") from exc


def to_dot(g: SimpleGraph) -> str:
    nodes = [f'  {v} [label="{v}"];' for v in range(1, g.n + 1)]
    edges = [f"  {u} -- {v};" for u, v in g.edges()]
    return "\n".join(["graph G {", *nodes, *edges, "}"]) + "\n"
