"""Exact integer evaluation of the closed-form counts.

Everything here is plain big-integer arithmetic: the path/cycle orbit
formulas are evaluated through the linear recurrence satisfied by
(1+sqrt(3))^m +/- (1-sqrt(3))^m so no irrational numbers ever appear, and
the even/odd subset-product sums use the polynomial trick of evaluating
prod(1 + n_i x) at x = +/-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidAssignmentError, InvalidSpecError, UnsupportedQasstError
from .families import CLIQUE_STAR, KPARTITE
from .qasst import (
    COMPLETE,
    PRIME,
    Qasst,
    classify_quotient,
    join_validity,
)

# -- path and cycle orbit formulas -------------------------------------------


def _sqrt3_powers(m: int) -> tuple[int, int]:
    """(1+sqrt(3))^m + (1-sqrt(3))^m and ((1+sqrt(3))^m - (1-sqrt(3))^m)/sqrt(3).

    Both satisfy a_m = 2 a_{m-1} + 2 a_{m-2}; bases (2, 2) and (0, 2).
    """
    s_prev, s_cur = 2, 2
    d_prev, d_cur = 0, 2
    if m == 0:
        return 2, 0
    for _ in range(m - 1):
        s_prev, s_cur = s_cur, 2 * s_cur + 2 * s_prev
        d_prev, d_cur = d_cur, 2 * d_cur + 2 * d_prev
    return s_cur, d_cur


def bouchet_path_count(n: int) -> int:
    """Closed-form orbit count for the path on n vertices.

    Equals (sqrt(3)/6)((1+sqrt(3))^(n+1) - (1-sqrt(3))^(n+1)), evaluated
    exactly.  Known to exceed the labeled-orbit oracle on small n; see the
    README notes on the recorded discrepancy.
    """
    if n < 1:
        raise InvalidSpecError("path count needs n >= 1")
    _, d = _sqrt3_powers(n + 1)
    return d // 2


def bouchet_cycle_count(n: int) -> int:
    """Closed-form orbit count for the cycle on n vertices.

    Equals (1+sqrt(3))^n + (1-sqrt(3))^n - 4(2^(n-1) + (-1)^n)/3.
    """
    if n < 3:
        raise InvalidSpecError("cycle count needs n >= 3")
    s, _ = _sqrt3_powers(n)
    return s - 4 * (2 ** (n - 1) + (-1) ** n) // 3


# -- QASST equivalence counting ------------------------------------------------


def phi_count(q: Qasst) -> int:
    """Size of the QASST equivalence class (same tree, LC-equivalent quotients).

    Counts assignments of orbit members to quotients (a star/complete
    quotient on m >= 3 nodes has m+1 members: the complete graph plus one
    star per choice of center) such that every tree edge joins a valid kind
    pair.  Computed by dynamic programming over the tree, children before
    parents, each child's table once.  Prime quotients are rejected: their
    orbit sizes have no closed form here.
    """
    quots = q.quotients
    for quot in quots.values():
        if classify_quotient(quot).kind == PRIME:
            raise UnsupportedQasstError("phi requires star/complete quotients only")
    if len(quots) == 1:
        m = len(next(iter(quots.values())).nodes)
        return m + 1 if m >= 3 else 1

    # Pre-order from the root, with each quotient's entry split-node.
    order, stack = [], [(min(quots), None)]
    while stack:
        i, entry = stack.pop()
        order.append((i, entry))
        stack.extend((s.j, s.partner) for s in quots[i].split_nodes() if s != entry)
    # valid[i][a]: ways to fill quotient i's subtree when its parent's
    # member has kind a at the split-node facing i; children come first.
    valid: dict[int, dict[str, int]] = {}
    for i, entry in reversed(order):
        quot = quots[i]
        children = [s for s in quot.split_nodes() if s != entry]
        c_ways = math.prod(valid[s.j]["c"] for s in children)
        ss_ways = math.prod(valid[s.j]["ss"] for s in children)  # every factor > 0
        # Members: the complete graph, then one star per center.  A center
        # that is a leaf-node or the entry sees every child as star-spoke; a
        # child's split-node as center sees that child as star-center.
        leaves = len(quot.nodes) - len(children) - (entry is not None)
        at_entry = {
            "c": c_ways,
            "sc": ss_ways,
            "ss": leaves * ss_ways + sum(
                ss_ways // valid[s.j]["ss"] * valid[s.j]["sc"] for s in children
            ),
        }
        if entry is None:  # the root: no entry, every member counts
            return at_entry["c"] + at_entry["ss"]
        valid[i] = {
            a: sum(cnt for b, cnt in at_entry.items() if join_validity(a, b))
            for a in ("c", "sc", "ss")
        }


def kpartite_phi(n_list: Sequence[int]) -> int:
    """Phi for the complete k-partite QASST: prod(n+1) + 2 sum_j prod_{i!=j}(n+1)."""
    _check_blocks(n_list)
    prod = math.prod(n + 1 for n in n_list)
    return prod + 2 * sum(prod // (n + 1) for n in n_list)


def bipartite_orbit_size(n: int, m: int) -> int:
    """|O(K_{n,m})| = nm + n + m + 3 for n, m >= 2."""
    if n < 2 or m < 2:
        raise InvalidSpecError("bipartite orbit formula needs n, m >= 2")
    return n * m + n + m + 3


def _even_odd_products(n_list: Sequence[int]) -> tuple[int, int]:
    """Sums of prod_{i in I} n_i over even-size and odd-size subsets I."""
    plus = math.prod(1 + n for n in n_list)
    minus = math.prod(1 - n for n in n_list)
    return (plus + minus) // 2, (plus - minus) // 2


def kpartite_orbit_size(n_list: Sequence[int]) -> int:
    """|O(K_{n_1..n_k})|: even subset products plus sum_j prod_{i!=j}(n_i+1)."""
    _check_blocks(n_list)
    even, _ = _even_odd_products(n_list)
    prod = math.prod(n + 1 for n in n_list)
    return even + sum(prod // (n + 1) for n in n_list)


def clique_star_orbit_size(n_list: Sequence[int]) -> int:
    """|O(CS^r)|: odd subset products plus the same cross-term sum."""
    _check_blocks(n_list)
    _, odd = _even_odd_products(n_list)
    prod = math.prod(n + 1 for n in n_list)
    return odd + sum(prod // (n + 1) for n in n_list)


def orbit_size(tag: str, n_list: Sequence[int]) -> int:
    if tag == KPARTITE:
        return kpartite_orbit_size(n_list)
    if tag == CLIQUE_STAR:
        return clique_star_orbit_size(n_list)
    raise InvalidSpecError(f"unknown orbit tag {tag!r}")


def iso_class_count(tag: str, k: int) -> int:
    """Isomorphism classes in the orbit when all n_i are equal."""
    if k < 3:
        raise InvalidSpecError("need k >= 3")
    if tag == KPARTITE:
        return k // 2 + k + 1
    if tag == CLIQUE_STAR:
        return (k + 1) // 2 + k
    raise InvalidSpecError(f"unknown orbit tag {tag!r}")


def bipartite_iso_class_count(n: int, m: int) -> int:
    if n < 2 or m < 2:
        raise InvalidSpecError("need n, m >= 2")
    return 4 if n == m else 6


def bipartite_min_edge_count(n: int, m: int) -> int:
    """Fewest edges over O(K_{n,m}): the binary star, n+m-1 edges."""
    if n < 2 or m < 2:
        raise InvalidSpecError("need n, m >= 2")
    return n + m - 1


def bipartite_min_max_degree(n: int, m: int) -> int:
    """Smallest maximum degree over O(K_{n,m}): max(n, m)."""
    if n < 2 or m < 2:
        raise InvalidSpecError("need n, m >= 2")
    return max(n, m)


# -- star-shaped QASST assignments -------------------------------------------
#
# The k-partite / clique-star orbits share one QASST: a central quotient Q0
# on k split-nodes, and an outer quotient per block with n_i leaf-nodes.
# An assignment fixes Q0's kind ("c", or ("sc", j) star-center toward Q_j)
# and each outer quotient's kind at its split-node ("c" | "sc" | "ss").


def _check_blocks(n_list: Sequence[int]) -> None:
    if len(n_list) < 3 or any(n < 2 for n in n_list):
        raise InvalidSpecError("need k >= 3 blocks with all n_i >= 2")


def _q0_edges_and_kinds(q0_kind, k: int):
    """Q0's edge set over block indices 1..k and its kind at each edge end."""
    if q0_kind == "c":
        edges = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        at = {i: "c" for i in range(1, k + 1)}
        return edges, at
    if isinstance(q0_kind, tuple) and len(q0_kind) == 2 and q0_kind[0] == "sc":
        j = q0_kind[1]
        if not (1 <= j <= k):
            raise InvalidAssignmentError(f"Q0 center index {j} out of 1..{k}")
        edges = [(min(i, j), max(i, j)) for i in range(1, k + 1) if i != j]
        at = {i: "ss" for i in range(1, k + 1)}
        at[j] = "sc"
        return edges, at
    raise InvalidAssignmentError(f"Q0 kind must be 'c' or ('sc', j), got {q0_kind!r}")


def _validate_assignment(n_list, q0_kind, kinds):
    k = len(n_list)
    _check_blocks(n_list)
    kinds = tuple(kinds)
    if len(kinds) != k or any(kind not in ("c", "sc", "ss") for kind in kinds):
        raise InvalidAssignmentError("need one of c/sc/ss per block")
    edges, at = _q0_edges_and_kinds(q0_kind, k)
    for i in range(1, k + 1):
        if not join_validity(at[i], kinds[i - 1]):
            raise InvalidAssignmentError(
                f"invalid join {at[i]}-{kinds[i - 1]} at block {i}"
            )
    return kinds, edges


def edge_count_from_assignment(n_list, q0_kind, kinds) -> int:
    """Edge count of the graph a star-shaped QASST assignment reconstructs to.

    Internal edges per block: c -> n(n-1)/2, sc -> 0, ss -> n-1.  Crossing
    edges per Q0 edge (i,j): a_i * a_j where a = n for c/sc and 1 for ss
    (only a star-spoke quotient hides all but its center from the split).
    """
    kinds, edges = _validate_assignment(n_list, q0_kind, kinds)
    internal = {"c": lambda n: n * (n - 1) // 2, "sc": lambda n: 0, "ss": lambda n: n - 1}
    a = [n if kind in ("c", "sc") else 1 for n, kind in zip(n_list, kinds)]
    total = sum(internal[kind](n) for n, kind in zip(n_list, kinds))
    total += sum(a[i - 1] * a[j - 1] for i, j in edges)
    return total


def max_degree_from_assignment(n_list, q0_kind, kinds) -> int:
    """Maximum degree of the graph the assignment reconstructs to."""
    kinds, edges = _validate_assignment(n_list, q0_kind, kinds)
    k = len(n_list)
    a = [n if kind in ("c", "sc") else 1 for n, kind in zip(n_list, kinds)]
    ext = [0] * (k + 1)
    for i, j in edges:
        ext[i] += a[j - 1]
        ext[j] += a[i - 1]
    best = 0
    for idx, (n, kind) in enumerate(zip(n_list, kinds), start=1):
        if kind == "c":
            best = max(best, n - 1 + ext[idx])
        elif kind == "sc":
            best = max(best, ext[idx])
        else:  # ss: the center leaf carries everything, spokes have degree 1
            best = max(best, n - 1 + ext[idx], 1)
    return best


@dataclass(frozen=True)
class RepSpec:
    """A candidate optimal representative: one symmetry-class assignment."""

    tag: str  # KPartite | CliqueStar
    case_id: int  # 1 | 2 | 3
    j: Optional[int]  # pointer index for cases 2/3
    I: frozenset  # star-spoke block indices
    q0_kind: object  # "c" or ("sc", j)
    kinds: tuple  # per-block kind at the split-node
    value: int  # edges or max degree, per the query


def _case_assignment(case_id: int, j: Optional[int], k: int, extra_c=()):
    """kinds/q0 for the three case shapes; ``extra_c`` blocks stay complete."""
    if case_id == 1:
        q0 = "c"
        kinds = ["ss"] * k
        for b in extra_c:
            kinds[b - 1] = "sc"  # case 1 fillers are star-center
        I = frozenset(i for i in range(1, k + 1) if kinds[i - 1] == "ss")
        return q0, tuple(kinds), I
    q0 = ("sc", j)
    kinds = ["ss"] * k
    kinds[j - 1] = "sc" if case_id == 2 else "c"
    for b in extra_c:
        kinds[b - 1] = "c"
    I = frozenset(i for i in range(1, k + 1) if kinds[i - 1] == "ss")
    return q0, tuple(kinds), I


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
    _check_blocks(n_list)
    if tag not in (KPARTITE, CLIQUE_STAR):
        raise InvalidSpecError(f"unknown orbit tag {tag!r}")
    k = len(n_list)
    j = min(range(1, k + 1), key=lambda i: (n_list[i - 1], i))
    f = min_edge_hyperbola(k, n_list[j - 1])
    mlr_parity_even = tag == KPARTITE  # case 1 is available when k has this parity
    if (k % 2 == 0) == mlr_parity_even:
        if f > 0:
            case_ids = [(1, None)]
        elif f < 0:
            case_ids = [(3, j)]
        else:
            case_ids = [(1, None), (3, j)]
    else:
        case_ids = [(2, j)]
    out = []
    for cid, jj in case_ids:
        q0, kinds, I = _case_assignment(cid, jj, k)
        value = edge_count_from_assignment(n_list, q0, kinds)
        out.append(RepSpec(tag, cid, jj, I, q0, kinds, value))
    return tuple(out)


def min_max_degree_rep(tag: str, n_list: Sequence[int]) -> tuple[RepSpec, ...]:
    """Minimal-maximum-degree representative case(s) of the orbit.

    Evaluates the three parity-valid case shapes (pointer index at the
    smallest block; any filler completes at the second-smallest) and
    returns every case achieving the minimum, ordered by case id.
    """
    _check_blocks(n_list)
    if tag not in (KPARTITE, CLIQUE_STAR):
        raise InvalidSpecError(f"unknown orbit tag {tag!r}")
    k = len(n_list)
    by_size = sorted(range(1, k + 1), key=lambda i: (n_list[i - 1], i))
    j, t = by_size[0], by_size[1]
    all_ss_parity_even = tag == KPARTITE  # |I| = k allowed when k has this parity
    candidates = []
    if (k % 2 == 0) == all_ss_parity_even:
        candidates.append(_case_assignment(1, None, k))
        candidates.append(_case_assignment(2, j, k, extra_c=(t,)))
        candidates.append(_case_assignment(3, j, k))
    else:
        candidates.append(_case_assignment(1, None, k, extra_c=(j,)))
        candidates.append(_case_assignment(2, j, k))
        candidates.append(_case_assignment(3, j, k, extra_c=(t,)))
    case_ids = [(1, None), (2, j), (3, j)]
    specs = []
    for (cid, jj), (q0, kinds, I) in zip(case_ids, candidates):
        value = max_degree_from_assignment(n_list, q0, kinds)
        specs.append(RepSpec(tag, cid, jj, I, q0, kinds, value))
    best = min(s.value for s in specs)
    return tuple(s for s in specs if s.value == best)
