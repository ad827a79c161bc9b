"""Constructors for the special graph families.

Vertex labeling conventions (fixed so fixtures are reproducible):

- complete K_n, path P_n, cycle C_n: vertices 1..n in sequence.
- star S_n: n+1 vertices, center 1, spokes 2..n+1.
- complete bipartite / multipartite and clique-star: vertices numbered
  consecutively block by block, block i = {1+sum(n_1..n_{i-1}), ...}.
- multi-leaf repeater MR_{n_1..n_k}: same blocks; the first vertex of each
  block is a core vertex (the core forms K_k) and the remaining n_i - 1
  vertices of the block are leaves attached to it.
- repeater R_n is MR_{2,...,2} (n blocks), so the cores are the odd labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import graphs
from .errors import InvalidSpecError, SizeLimitError
from .graphs import SimpleGraph

KPARTITE = "KPartite"
CLIQUE_STAR = "CliqueStar"

@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]
    center: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise InvalidSpecError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(map(graphs.json_int, self.params)))


def block_ranges(n_list: Sequence[int]) -> list[range]:
    """Consecutive vertex blocks [n_1]={1..n_1}, [n_2]={n_1+1..}, ..."""
    out = []
    start = 1
    for n in n_list:
        out.append(range(start, start + n))
        start += n
    return out


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise InvalidSpecError("complete graph needs n >= 1")
    return SimpleGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def star_graph(n: int) -> SimpleGraph:
    """Star S_n: n spokes on n+1 vertices; center is vertex 1."""
    if n < 1:
        raise InvalidSpecError("star graph needs n >= 1 spokes")
    return SimpleGraph(n + 1, [(1, v) for v in range(2, n + 2)])


def path_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise InvalidSpecError("path graph needs n >= 1")
    return SimpleGraph(n, [(v, v + 1) for v in range(1, n)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise InvalidSpecError("cycle graph needs n >= 3")
    return SimpleGraph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)])


def complete_multipartite_graph(n_list: Sequence[int]) -> SimpleGraph:
    if len(n_list) < 2 or any(n < 1 for n in n_list):
        raise InvalidSpecError("complete multipartite needs k >= 2 blocks of size >= 1")
    blocks = block_ranges(n_list)
    total = sum(n_list)
    edges = []
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1:]:
            edges.extend((u, v) for u in bi for v in bj)
    return SimpleGraph(total, edges)


def complete_bipartite_graph(n: int, m: int) -> SimpleGraph:
    return complete_multipartite_graph([n, m])


def clique_star_graph(n_list: Sequence[int], r: int) -> SimpleGraph:
    """CS^r: every block a clique, block r fully joined to all other blocks."""
    check_blocks(n_list)
    k = len(n_list)
    if not (1 <= r <= k):
        raise InvalidSpecError(f"clique-star center r must be in 1..{k}, got {r}")
    blocks = block_ranges(n_list)
    edges = []
    for b in blocks:
        edges.extend((u, v) for u in b for v in b if u < v)
    center = blocks[r - 1]
    for i, b in enumerate(blocks):
        if i != r - 1:
            edges.extend((u, v) for u in center for v in b)
    return SimpleGraph(sum(n_list), edges)


def multi_leaf_repeater_graph(n_list: Sequence[int]) -> SimpleGraph:
    """MR: complete core K_k, plus n_i - 1 leaves on core vertex i."""
    check_blocks(n_list)
    blocks = block_ranges(n_list)
    cores = [b[0] for b in blocks]
    edges = [(u, v) for u in cores for v in cores if u < v]
    for b in blocks:
        edges.extend((b[0], leaf) for leaf in b[1:])
    return SimpleGraph(sum(n_list), edges)


def repeater_graph(n: int) -> SimpleGraph:
    """R_n = MR_{2,...,2}: core K_n with one leaf per core vertex."""
    if n < 3:
        raise InvalidSpecError("repeater needs n >= 3")
    return multi_leaf_repeater_graph([2] * n)


# Per family, in CLI order: its parameter count (None: one list of block
# sizes) and its constructor.
_FAMILIES = {
    "complete": (1, complete_graph),
    "star": (1, star_graph),
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "complete_bipartite": (2, complete_bipartite_graph),
    "complete_multipartite": (None, complete_multipartite_graph),
    "clique_star": (None, clique_star_graph),
    "repeater": (1, repeater_graph),
    "multi_leaf_repeater": (None, multi_leaf_repeater_graph),
}
FAMILY_TAGS = tuple(_FAMILIES)

# Largest edge count :func:`build` accepts, checked before any edge is listed.
MAX_EDGES = 1_000_000


def _edge_count(spec: FamilySpec) -> int:
    """The edge count of the graph a spec names, in closed form.

    Negative parameters count as 0, and a spec the constructors refuse
    (wrong parameter count, center out of range) may count as anything.
    """
    fam = spec.family
    p = [max(x, 0) for x in spec.params]
    first, total = (p[0] if p else 0), sum(p)
    if fam in ("star", "cycle"):
        return first
    if fam == "path":
        return max(first - 1, 0)
    if fam == "complete":
        return first * (first - 1) // 2
    if fam == "repeater":  # core K_n plus one leaf per core vertex
        return first * (first + 1) // 2
    if fam == "multi_leaf_repeater":  # core K_k plus n_i - 1 leaves per block
        return len(p) * (len(p) - 1) // 2 + total - len(p)
    if fam == "clique_star":
        r = spec.center
        hub = p[r - 1] if r is not None and 1 <= r <= len(p) else 0
        return sum(x * (x - 1) // 2 for x in p) + hub * (total - hub)
    # complete_bipartite, complete_multipartite: every pair of vertices in distinct blocks
    return (total * total - sum(x * x for x in p)) // 2


def build(spec: FamilySpec) -> SimpleGraph:
    """The graph a spec names.

    Refused with :class:`SizeLimitError` before anything is built when it
    would have more than ``graphs.MAX_VERTICES`` vertices, the cap on graph
    JSON input, or more than :data:`MAX_EDGES` edges; the constructors
    called directly are not capped.
    """
    fam, p = spec.family, spec.params
    size = 2 * sum(p) if fam == "repeater" else sum(p) + (fam == "star")
    if size > graphs.MAX_VERTICES:
        raise SizeLimitError(f"graphs are limited to {graphs.MAX_VERTICES} vertices")
    if _edge_count(spec) > MAX_EDGES:
        raise SizeLimitError(f"generated graphs are limited to {MAX_EDGES} edges")
    count, make = _FAMILIES[fam]
    if fam == "clique_star":
        if spec.center is None:
            raise InvalidSpecError("clique_star requires a center index r")
        return make(p, spec.center)
    if count is None:
        return make(p)
    if len(p) != count:
        raise InvalidSpecError(f"expected {count} parameter(s), got {len(p)}")
    return make(*p)


def check_blocks(n_list: Sequence[int]) -> None:
    """The block list of a star-shaped tree: k >= 3 blocks, every n_i >= 2 and an int (:func:`graphs.json_int`)."""
    if min(map(graphs.json_int, n_list), default=0) < 2 or len(n_list) < 3:
        raise InvalidSpecError("need k >= 3 blocks with all n_i >= 2")


def check_tag(tag: str, error: type = InvalidSpecError) -> None:
    """An orbit tag: :data:`KPARTITE` or :data:`CLIQUE_STAR`."""
    if tag not in (KPARTITE, CLIQUE_STAR):
        raise error(f"unknown orbit tag {tag!r}")


def orbit_of(case_id: int, spokes: int) -> str:
    """The orbit holding a symmetry class, from its case and |I| (star-spoke blocks).

    The parity rule: case 1 or 2 with even |I|, or case 3 with odd |I|,
    lies in the complete k-partite orbit; every other class lies in the
    clique-star orbit.
    """
    return KPARTITE if (spokes % 2 == 0) == (case_id != 3) else CLIQUE_STAR


def mlr_orbit_home(k: int) -> str:
    """Which orbit the multi-leaf repeater MR on k blocks belongs to.

    MR is case 1 with every block star-spoke, so even k: the complete
    k-partite orbit; odd k: the clique-star orbit.
    """
    if k < 3:
        raise InvalidSpecError("multi-leaf repeater needs k >= 3")
    return orbit_of(1, k)
