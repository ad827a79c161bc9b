"""Exact integer evaluation of the closed-form counts.

Everything here is plain big-integer arithmetic: the path/cycle orbit
formulas read (1+sqrt(3))^m = a + b sqrt(3), computed by repeated squaring
in Z[sqrt(3)] (O(log m) multiplications) so no irrational numbers ever
appear, and the even/odd subset-product sums use the polynomial trick of
evaluating prod(1 + n_i x) at x = +/-1.  Path and cycle counts refuse n
above :data:`MAX_COUNT_N` (a count there has about 437,000 digits) before
any arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidSpecError, SizeLimitError, UnsupportedQasstError
from .families import CLIQUE_STAR, KPARTITE, check_blocks, check_tag, orbit_of
from .graphs import json_int
from .qasst import (
    COMPLETE,
    PRIME,
    STAR_CENTER,
    STAR_SPOKE,
    Qasst,
    _orient,
    _reduce,
    join_validity,
)
from .symmetry import SymmetryCase, case_assignment

# -- path and cycle orbit formulas -------------------------------------------


MAX_COUNT_N = 1_000_000


def _sqrt3_power(m: int) -> tuple[int, int]:
    """(a, b) with (1+sqrt(3))^m = a + b sqrt(3) and (1-sqrt(3))^m = a - b sqrt(3), by repeated squaring."""
    a, b = 1, 0
    for bit in bin(m)[2:]:
        a, b = a * a + 3 * b * b, 2 * a * b
        if bit == "1":
            a, b = a + 3 * b, a + b
    return a, b


def _check_count_n(n: int, least: int, what: str) -> None:
    if json_int(n) < least:
        raise InvalidSpecError(f"{what} count needs n >= {least}")
    if n > MAX_COUNT_N:
        raise SizeLimitError(f"{what} count limited to n <= {MAX_COUNT_N}, got {n}")


def bouchet_path_count(n: int) -> int:
    """Closed-form orbit count for the path on n vertices, 1 <= n <= :data:`MAX_COUNT_N`.

    Equals (sqrt(3)/6)((1+sqrt(3))^(n+1) - (1-sqrt(3))^(n+1)), evaluated
    exactly.  Against the labelled orbit of P_n, by BFS: four times its
    size for n = 3..10, and 2 and 6 at n = 1, 2, whose orbits have one member.
    """
    _check_count_n(n, 1, "path")
    return _sqrt3_power(n + 1)[1]


def bouchet_cycle_count(n: int) -> int:
    """Closed-form orbit count for the cycle on n vertices, 3 <= n <= :data:`MAX_COUNT_N`.

    Equals (1+sqrt(3))^n + (1-sqrt(3))^n - 4(2^(n-1) + (-1)^n)/3.
    Against the labelled orbit of C_n, by BFS: four times its size for
    n = 3, 4 (as for paths), and exactly its size for n = 5..9.
    """
    _check_count_n(n, 3, "cycle")
    return 2 * _sqrt3_power(n)[0] - 4 * (2 ** (n - 1) + (-1) ** n) // 3


# -- QASST equivalence counting ------------------------------------------------


def phi_count(q: Qasst) -> int:
    """Size of the QASST equivalence class (same tree, LC-equivalent quotients).

    Counts assignments of orbit members to quotients (a star/complete
    quotient on m >= 3 nodes has m+1 members: the complete graph plus one
    star per choice of center; a tree of one quotient on fewer nodes has
    one, the complete graph) such that every tree edge joins a valid kind
    pair.  One dynamic program over the tree, one quotient or more,
    children before parents, each child's table once: the rooted pass
    :func:`lcsplit.qasst._orient` gives that order, reversed, and each
    quotient's entry split-node, the one facing its parent.  A tree
    without the check record is validated first, and it may not be
    reduced: a quotient of two nodes or a join that is not a strong split
    would be counted as more members than it has, so the count reads a
    reduced copy (:func:`lcsplit.qasst._reduce`); the caller's tree is
    left as it is.  An empty tree and prime quotients are rejected: the
    latter's orbit sizes have no closed form here.
    """
    if not q.quotients:
        raise UnsupportedQasstError("phi requires a nonempty tree")
    if not q._checked:
        q.validate()
        q = q.copy()
        _reduce(q, list(q.quotients))
    quots = q.quotients
    order, up = _orient(q)
    # valid[i][a]: ways to fill quotient i's subtree when its parent's
    # member has kind a at the split-node facing i; children come first.
    valid: dict[int, dict[str, int]] = {}
    for i in reversed(order):
        quot, entry = quots[i], up[i]
        if quot.kind == PRIME and len(quot.nodes) > 2:  # two nodes and no edge count as complete
            raise UnsupportedQasstError("phi requires star/complete quotients only")
        child = [valid[q.across(s)] for s in quot.split_nodes() if s != entry]
        c_ways = math.prod(ways[COMPLETE] for ways in child)
        ss_ways = math.prod(ways[STAR_SPOKE] for ways in child)  # every factor > 0
        # Members: the complete graph, then one star per center.  A center
        # that is a leaf-node or the entry sees every child as star-spoke; a
        # child's split-node as center sees that child as star-center.
        leaves = len(quot.nodes) - len(child) - (entry is not None)
        at_entry = {
            COMPLETE: c_ways,
            STAR_CENTER: ss_ways,
            STAR_SPOKE: leaves * ss_ways + sum(ss_ways // ways[STAR_SPOKE] * ways[STAR_CENTER] for ways in child),
        }
        if entry is None:  # the root: every member counts, but a lone quotient of two nodes or fewer is only complete
            return at_entry[COMPLETE] + (at_entry[STAR_SPOKE] if child or len(quot.nodes) >= 3 else 0)
        valid[i] = {a: sum(cnt for b, cnt in at_entry.items() if join_validity(a, b)) for a in at_entry}


def kpartite_phi(n_list: Sequence[int]) -> int:
    """Phi for the complete k-partite QASST: prod(n+1) + 2 sum_j prod_{i!=j}(n+1)."""
    check_blocks(n_list)
    prod = math.prod(n + 1 for n in n_list)
    return prod + 2 * sum(prod // (n + 1) for n in n_list)


def _check_sides(n: int, m: int, lead: str = "need") -> None:
    if min(json_int(n), json_int(m)) < 2:
        raise InvalidSpecError(f"{lead} n, m >= 2")


def bipartite_orbit_size(n: int, m: int) -> int:
    """|O(K_{n,m})| = nm + n + m + 3 for n, m >= 2."""
    _check_sides(n, m, "bipartite orbit formula needs")
    return n * m + n + m + 3


def orbit_size(tag: str, n_list: Sequence[int]) -> int:
    """|O| of the k-partite or clique-star orbit on these blocks.

    The subset products prod_{i in I} n_i over even-size I (k-partite) or
    odd-size I (clique-star), read off prod(1 + n_i) and prod(1 - n_i),
    plus the cross-term sum_j prod_{i!=j}(n_i+1).
    """
    check_tag(tag)
    check_blocks(n_list)
    plus = math.prod(1 + n for n in n_list)
    minus = math.prod(1 - n for n in n_list)
    subsets = (plus + minus if tag == KPARTITE else plus - minus) // 2
    return subsets + sum(plus // (n + 1) for n in n_list)


def kpartite_orbit_size(n_list: Sequence[int]) -> int:
    """|O(K_{n_1..n_k})|: even subset products plus sum_j prod_{i!=j}(n_i+1)."""
    return orbit_size(KPARTITE, n_list)


def clique_star_orbit_size(n_list: Sequence[int]) -> int:
    """|O(CS^r)|: odd subset products plus the same cross-term sum."""
    return orbit_size(CLIQUE_STAR, n_list)


def iso_class_count(tag: str, k: int) -> int:
    """Isomorphism classes in the orbit when all n_i are equal."""
    if json_int(k) < 3:
        raise InvalidSpecError("need k >= 3")
    check_tag(tag)
    return k // 2 + k + 1 if tag == KPARTITE else (k + 1) // 2 + k


def bipartite_iso_class_count(n: int, m: int) -> int:
    _check_sides(n, m)
    return 4 if n == m else 6


def bipartite_min_edge_count(n: int, m: int) -> int:
    """Fewest edges over O(K_{n,m}): the binary star, n+m-1 edges."""
    _check_sides(n, m)
    return n + m - 1


def bipartite_min_max_degree(n: int, m: int) -> int:
    """Smallest maximum degree over O(K_{n,m}): max(n, m)."""
    _check_sides(n, m)
    return max(n, m)


# -- star-shaped QASST assignments -------------------------------------------
#
# The k-partite / clique-star orbits share one QASST: a central quotient Q0
# on k split-nodes, and an outer quotient per block with n_i leaf-nodes.
# A symmetry class (lcsplit.symmetry) fixes Q0's kind and each outer
# quotient's kind at its split-node; case_assignment reads them off.


def _degrees(n_list, case: SymmetryCase) -> list[tuple[int, int]]:
    """(degree, vertex count) pairs, block by block, of the graph a symmetry class's member reconstructs to.

    The blocks are checked first.  A block shows all n of its vertices
    across Q0, or only its star centre when star-spoke; it sees what every
    other block shows when Q0 is complete or points at it, and what the
    pointed block shows otherwise.  Within a block, c adds n - 1 to each
    vertex, sc nothing, and ss n - 1 to its centre; each ss spoke has degree 1.
    """
    check_blocks(n_list)
    at, kinds = case_assignment(case, len(n_list))
    shown = [1 if kind == STAR_SPOKE else n for n, kind in zip(n_list, kinds)]
    total = sum(shown)
    pointed = None if case.j is None else shown[case.j - 1]
    out = []
    for n, kind, a, own in zip(n_list, kinds, at, shown):
        ext = pointed if a == STAR_SPOKE else total - own
        if kind == COMPLETE:
            out.append((n - 1 + ext, n))
        elif kind == STAR_CENTER:
            out.append((ext, n))
        else:
            out += [(n - 1 + ext, 1), (1, n - 1)]
    return out


def edge_count_from_assignment(n_list, case: SymmetryCase) -> int:
    """Edge count of the graph a symmetry class's member reconstructs to: half its degree sum."""
    return sum(d * count for d, count in _degrees(n_list, case)) // 2


def max_degree_from_assignment(n_list, case: SymmetryCase) -> int:
    """Maximum degree of the graph a symmetry class's member reconstructs to."""
    return max(d for d, _ in _degrees(n_list, case))


@dataclass(frozen=True)
class RepSpec:
    """A candidate optimal representative: one symmetry class and its measure."""

    case: SymmetryCase
    value: int  # edges or max degree, per the query


def _blocks_by_size(tag: str, n_list: Sequence[int]) -> list[int]:
    """Block indices from the smallest block up (ties by index), once the query is checked."""
    check_blocks(n_list)
    check_tag(tag)
    return sorted(range(1, len(n_list) + 1), key=lambda i: (n_list[i - 1], i))


def _rep_spec(tag: str, n_list: Sequence[int], case_id: int, j, fillers, measure) -> RepSpec:
    """The symmetry class with pointer j and every other block but the fillers in I."""
    I = frozenset(i for i in range(1, len(n_list) + 1) if i != j and i not in fillers)
    case = SymmetryCase(tag, case_id, j, I)
    return RepSpec(case, measure(n_list, case))


def min_edge_hyperbola(k: int, n_j: int) -> int:
    """f(k, n_j); its sign selects the even-parity minimal-edge case."""
    return (
        (n_j - 1) * (k - 1)
        + (n_j - 2) * (n_j - 1) // 2
        - (k - 2) * (k - 1) // 2
    )


def min_edge_rep(tag: str, n_list: Sequence[int]) -> tuple[RepSpec, ...]:
    """Minimal-edge representative case(s) of the orbit.

    Case 1 is the multi-leaf-repeater shape (Q0 complete, all blocks
    star-spoke); cases 2(j)/3(j) point Q0 at the smallest block.  Which
    parity uses which case depends on the orbit; when the hyperbola
    f(k, n_j) is zero both candidates tie and both are returned.
    """
    j = _blocks_by_size(tag, n_list)[0]
    k = len(n_list)
    f = min_edge_hyperbola(k, n_list[j - 1])
    if orbit_of(1, k) != tag:  # case 1 with every block star-spoke lies in the other orbit
        case_ids = [(2, j)]
    elif f > 0:
        case_ids = [(1, None)]
    elif f < 0:
        case_ids = [(3, j)]
    else:
        case_ids = [(1, None), (3, j)]
    return tuple(
        _rep_spec(tag, n_list, cid, jj, (), edge_count_from_assignment)
        for cid, jj in case_ids
    )


def min_max_degree_rep(tag: str, n_list: Sequence[int]) -> tuple[RepSpec, ...]:
    """Minimal-maximum-degree representative case(s) of the orbit.

    Evaluates the three parity-valid case shapes (pointer index at the
    smallest block; any filler completes at the second-smallest) and
    returns every case achieving the minimum, ordered by case id.
    """
    j, t = _blocks_by_size(tag, n_list)[:2]
    if orbit_of(1, len(n_list)) == tag:  # |I| = k is allowed
        fillers = [(), (t,), ()]
    else:
        fillers = [(j,), (), (t,)]
    specs = [
        _rep_spec(tag, n_list, cid, jj, fill, max_degree_from_assignment)
        for (cid, jj), fill in zip([(1, None), (2, j), (3, j)], fillers)
    ]
    best = min(s.value for s in specs)
    return tuple(s for s in specs if s.value == best)
