"""Symmetry classes of the complete k-partite / clique-star orbits.

Both orbits live inside one QASST equivalence class: a central quotient Q0
on k split-nodes with one outer quotient per vertex block.  A symmetry
class fixes the quotient kinds:

- case 1:    Q0 complete; blocks in I star-spoke, the rest star-center.
- case 2(j): Q0 star-center toward Q_j; Q_j star-center; I star-spoke,
             the rest complete.
- case 3(j): like 2(j) but Q_j complete.

The parity of |I| decides the orbit: for the k-partite orbit case 1 and
case 2 take even |I| and case 3 odd; for the clique-star orbit the
parities flip.  That rule is :func:`lcsplit.families.orbit_of`, and every
parity test here and in :mod:`lcsplit.counting` goes through it.  This
module owns the class model (:class:`SymmetryCase`, the case -> kinds map
:func:`case_assignment` and Q0's kind at each block's end :func:`q0_shape`),
enumerates the classes, realizes them as labeled graphs, synthesizes
explicit LC sequences from the base graph, and classifies how a single
local complement moves between classes (the closure rules behind the
non-equivalence of the two orbits).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    InvalidAssignmentError, InvalidCaseError, InvalidSpecError, MalformedQasstError, SizeLimitError,
)
from .families import KPARTITE, block_ranges, check_blocks, check_tag, orbit_of
from .graphs import SimpleGraph
from .qasst import (
    COMPLETE,
    PRIME,
    STAR,
    STAR_CENTER,
    STAR_SPOKE,
    Qasst,
    QuotientGraph,
    SplitNode,
    compute_qasst,
    reconstruct,
)

MAX_CASES = 1_000_000

SS_CENTER = "ss_center"
SS_SPOKE = "ss_spoke"
SC_NODE = "sc"
C_NODE = "c"


@dataclass(frozen=True)
class SymmetryCase:
    tag: str  # KPartite | CliqueStar
    case_id: int  # 1 | 2 | 3
    j: Optional[int]  # pointer block for cases 2/3
    I: frozenset  # star-spoke blocks
    centers: Optional[dict] = field(default=None, compare=False)  # block -> star centre of one member

    def __post_init__(self):
        check_tag(self.tag, InvalidCaseError)
        if self.case_id not in (1, 2, 3):
            raise InvalidCaseError(f"case id must be 1, 2 or 3, got {self.case_id}")
        if self.case_id == 1:
            if self.j is not None:
                raise InvalidCaseError("case 1 takes no pointer index")
        else:
            if self.j is None:
                raise InvalidCaseError(f"case {self.case_id} needs a pointer index j")
            if self.j in self.I:
                raise InvalidCaseError("pointer index j must not lie in I")
        if orbit_of(self.case_id, len(self.I)) != self.tag:
            raise InvalidCaseError(
                f"|I| = {len(self.I)} has the wrong parity for "
                f"{self.tag} case {self.case_id}"
            )


def case_assignment(case: SymmetryCase, k: int):
    """(Q0 kind, per-block kinds) for a symmetry case."""
    for i in case.I:
        if not (1 <= i <= k):
            raise InvalidCaseError(f"block index {i} out of 1..{k}")
    if case.case_id == 1:
        kinds = tuple(STAR_SPOKE if i in case.I else STAR_CENTER for i in range(1, k + 1))
        return COMPLETE, kinds
    if case.j is None or not (1 <= case.j <= k):
        raise InvalidCaseError(f"pointer index {case.j} out of 1..{k}")
    pointed = STAR_CENTER if case.case_id == 2 else COMPLETE
    kinds = tuple(
        pointed if i == case.j else (STAR_SPOKE if i in case.I else COMPLETE)
        for i in range(1, k + 1)
    )
    return (STAR_CENTER, case.j), kinds


def q0_shape(q0_kind, k: int) -> tuple:
    """Q0's kind at each block's end, blocks 1..k in order.

    ``q0_kind`` is "c" (complete: every block joins every other) or
    ("sc", j) (a star centred toward Q_j: Q_j joins each other block).
    """
    if q0_kind == COMPLETE:
        return (COMPLETE,) * k
    if isinstance(q0_kind, tuple) and len(q0_kind) == 2 and q0_kind[0] == STAR_CENTER:
        j = q0_kind[1]
        if not isinstance(j, int) or not 1 <= j <= k:
            raise InvalidAssignmentError(f"Q0 center index {j!r} out of 1..{k}")
        return (STAR_SPOKE,) * (j - 1) + (STAR_CENTER,) + (STAR_SPOKE,) * (k - j)
    raise InvalidAssignmentError(f"Q0 kind must be 'c' or ('sc', j), got {q0_kind!r}")


def enumerate_cases(
    tag: str, n_list: Sequence[int]
) -> list[tuple[SymmetryCase, int]]:
    """Every symmetry class with its member count (choices of ss centers).

    The multiplicity of a class is prod_{i in I} n_i; summed over all
    classes this equals the orbit-size formula.  k blocks give
    (k + 1) * 2^(k - 1) classes (16 blocks 557056, 17 blocks 1179648),
    counted before any is listed: more than :data:`MAX_CASES`, the scale
    of ``families.MAX_EDGES`` and the orbit budget, raise
    :class:`SizeLimitError`.
    """
    check_blocks(n_list)
    check_tag(tag, InvalidCaseError)
    k = len(n_list)
    if (k + 1) << (k - 1) > MAX_CASES:
        raise SizeLimitError(f"symmetry classes are limited to {MAX_CASES}; {k} blocks give (k+1)*2^(k-1)")
    out: list[tuple[SymmetryCase, int]] = []
    for case_id in (1, 2, 3):
        for j in [None] if case_id == 1 else range(1, k + 1):
            pool = [i for i in range(1, k + 1) if i != j]
            for r in range(len(pool) + 1):
                if orbit_of(case_id, r) != tag:
                    continue
                for I in itertools.combinations(pool, r):
                    case = SymmetryCase(tag, case_id, j, frozenset(I))
                    out.append((case, math.prod(n_list[i - 1] for i in I)))
    return out


def build_star_qasst(
    n_list: Sequence[int], q0_kind, kinds, centers: Optional[dict] = None
) -> Qasst:
    """The star-shaped QASST for an assignment of quotient kinds, each quotient made as its kind."""
    k = len(n_list)
    kinds = tuple(kinds)
    if len(kinds) != k:
        raise InvalidAssignmentError(f"need one quotient kind per block, got {len(kinds)}")
    q0_center = None
    if q0_kind != COMPLETE:
        q0_shape(q0_kind, k)  # refuses a malformed Q0 kind
        q0_center = SplitNode(0, q0_kind[1])
    blocks = block_ranges(n_list)
    centers = centers or {}
    quotients = {0: _complete_or_star([SplitNode(0, i) for i in range(1, k + 1)], q0_center)}
    for i, (block, kind) in enumerate(zip(blocks, kinds), start=1):
        s = SplitNode(i, 0)
        if kind == COMPLETE:
            center = None
        elif kind == STAR_CENTER:
            center = s
        elif kind == STAR_SPOKE:
            center = centers.get(i, block[0])
            if center not in block:
                raise InvalidCaseError(f"center {center} not in block {i}")
        else:
            raise InvalidCaseError(f"unknown quotient kind {kind!r}")
        quotients[i] = _complete_or_star([*block, s], center)
    return Qasst(quotients)


def _complete_or_star(nodes: list, center) -> QuotientGraph:
    """The complete quotient over ``nodes`` or, given a ``center``, the star."""
    return QuotientGraph._of(dict.fromkeys(nodes), COMPLETE if center is None else STAR, center)


def realize(case: SymmetryCase, n_list: Sequence[int]) -> SimpleGraph:
    """The labeled member of a symmetry class picked by ``case.centers`` (default: first of block)."""
    q0_kind, kinds = case_assignment(case, len(n_list))
    return reconstruct(build_star_qasst(n_list, q0_kind, kinds, case.centers))


# -- transformations -----------------------------------------------------------


def synthesize_transformation(
    case: SymmetryCase, n_list: Sequence[int], r: Optional[int] = None
) -> list[int]:
    """An LC sequence from the base graph of ``case``'s orbit into the class.

    The base is K_{n_1..n_k} for the k-partite orbit and CS^r (default
    r = 1) for the clique-star orbit.  Star centers default to the first
    vertex of each block; case 1 of the k-partite orbit chains edge pivots
    over consecutive pairs of I in ascending order.  The pointer and every
    index in I must name a block (:func:`case_assignment` checks them).
    """
    k = len(n_list)
    case_assignment(case, k)
    blocks = block_ranges(n_list)
    centers = dict(case.centers or {})

    def center_of(i: int) -> int:
        return centers.get(i, blocks[i - 1][0])

    def first_of(i: int) -> int:
        return blocks[i - 1][0]

    if case.tag == KPARTITE:
        I = sorted(case.I)
        if case.case_id == 1:
            seq: list[int] = []
            for a, b in zip(I[0::2], I[1::2]):
                la, lb = center_of(a), center_of(b)
                seq.extend([la, lb, la])
            return seq
        return [first_of(case.j)] + [center_of(i) for i in I]

    if r is None:
        r = 1
    if not (1 <= r <= k):
        raise InvalidSpecError(f"base center r must be in 1..{k}")
    if case.case_id == 1:
        seq = [center_of(i) for i in sorted(case.I) if i != r]
        seq.append(center_of(r) if r in case.I else first_of(r))
        return seq
    seq = [] if r == case.j else [first_of(r), first_of(case.j), first_of(r)]
    return seq + [center_of(i) for i in sorted(case.I)]


# -- member classification and closure ----------------------------------------


def _block_quotients(
    q: Qasst, blocks: Sequence[range]
) -> tuple[list[QuotientGraph], dict[int, QuotientGraph]]:
    """The leafless quotients of a tree, and the quotient of each vertex block.

    Blocks are numbered from 1; a quotient whose leaf-nodes are not exactly
    one block is refused.
    """
    block_of_leafset = {frozenset(b): i for i, b in enumerate(blocks, start=1)}
    leafless: list[QuotientGraph] = []
    outer: dict[int, QuotientGraph] = {}
    for quot in q.quotients.values():
        leaves = frozenset(quot.leaf_nodes())
        if not leaves:
            leafless.append(quot)
        elif (block := block_of_leafset.get(leaves)) is None:
            raise MalformedQasstError(f"leaf block {sorted(leaves)} unexpected")
        else:
            outer[block] = quot
    return leafless, outer


def analyze_star_member(g: SimpleGraph, n_list: Sequence[int]) -> tuple[SymmetryCase, dict]:
    """Classify an orbit member into its symmetry class.

    Also returns the role of every vertex: a map v -> (role, block) with
    role one of ss_center / ss_spoke / sc / c.  The orbit follows from the
    |I| parity; the class's ``centers`` are this member's.
    """
    k = len(n_list)
    q = compute_qasst(g)
    if len(q.quotients) != k + 1:
        raise MalformedQasstError("graph does not have the star-shaped QASST")
    leafless, outer = _block_quotients(q, block_ranges(n_list))
    if [len(quot.split_nodes()) for quot in leafless] != [k]:  # one centre, joined to every block's quotient
        raise MalformedQasstError("graph does not have the star-shaped QASST")
    (central,) = leafless

    roles: dict[int, tuple[str, int]] = {}
    kinds: dict[int, str] = {}
    centers: dict[int, int] = {}
    for b, quot in outer.items():
        kind = kinds[b] = quot.kind_at(next(iter(quot.split_nodes())))
        if kind == PRIME:
            raise MalformedQasstError("prime outer quotient")
        if kind == STAR_SPOKE:
            centers[b] = quot.center
        role = {COMPLETE: C_NODE, STAR_CENTER: SC_NODE}.get(kind)  # None: ss, a centre or a spoke
        for v in quot.leaf_nodes():
            roles[v] = (role or (SS_CENTER if v == quot.center else SS_SPOKE), b)

    I = frozenset(centers)
    if central.kind == COMPLETE:
        case_id, j = 1, None
    elif central.kind == STAR:
        j = next(b for b, quot in outer.items() if central.center.partner in quot.nodes)
        case_id = 2 if kinds[j] == STAR_CENTER else 3  # Q_j faces Q0's centre, so is never star-spoke
    else:
        raise MalformedQasstError("central quotient is neither star nor complete")
    return SymmetryCase(orbit_of(case_id, len(I)), case_id, j, I, centers), roles


def classify_star_member(g: SimpleGraph, n_list: Sequence[int]) -> SymmetryCase:
    return analyze_star_member(g, n_list)[0]


def closure_step(case: SymmetryCase, role: tuple[str, int]) -> tuple[int, Optional[int]]:
    """Resulting (case id, pointer) after one LC at a vertex with this role.

    ``role`` is (role kind, block index) as produced by
    :func:`analyze_star_member`.  The same rules govern both orbits; the
    case never leaves its orbit, which is what makes the two orbits
    provably disjoint.
    """
    kind, i = role
    cid, j, I = case.case_id, case.j, case.I
    if cid == 1:
        if kind == SS_CENTER and i in I:
            return (3, i)
        if kind == SS_SPOKE and i in I:
            return (1, None)
        if kind == SC_NODE and i not in I:
            return (2, i)
        raise InvalidCaseError(f"role {role} impossible in case 1")
    # Cases 2(j) and 3(j) mirror each other: Q_j's kind and the target case swap.
    if i == j:
        if kind == (SC_NODE if cid == 2 else C_NODE):
            return (1, None)
    elif i in I:
        if kind == SS_SPOKE:
            return (cid, j)
        if kind == SS_CENTER:
            return (5 - cid, j)
    elif kind == C_NODE:
        return (5 - cid, j)
    raise InvalidCaseError(f"role {role} impossible in case {cid}({j})")
