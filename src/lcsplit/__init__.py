"""Local-complement equivalence of simple graphs via split decompositions.

Subpackages by concern: :mod:`lcsplit.graphs` (graph core and local
complements), :mod:`lcsplit.families` (named graph families),
:mod:`lcsplit.orbit` (brute-force orbit oracle), :mod:`lcsplit.qasst`
(split decomposition and quotient trees), :mod:`lcsplit.qasst_ops`
(dynamic quotient-tree maintenance), :mod:`lcsplit.counting`
(closed-form counts and optimal representatives), :mod:`lcsplit.symmetry`
(symmetry classes, transformation synthesis, closure rules), and
:mod:`lcsplit.cli` (the ``lcsplit`` command).
"""

from .errors import (
    BudgetExceededError,
    InvalidCaseError,
    InvalidSpecError,
    InvalidVertexError,
    LcsplitError,
    MalformedQasstError,
    NotAnEdgeError,
    NotConnectedError,
    NotEquivalentError,
    SizeLimitError,
    UnsupportedQasstError,
)
from .graphs import (
    SimpleGraph,
    apply_sequence,
    canonical_key,
    edge_count,
    edge_pivot,
    find_isomorphism,
    is_connected,
    is_isomorphic,
    local_complement,
    max_degree,
)
from .families import FamilySpec, build, mlr_orbit_home, orbit_of
from .orbit import (
    Orbit,
    are_lc_equivalent,
    enumerate_orbit,
    min_edge_member,
    min_max_degree_member,
    orbit_iso_classes,
    transformation_between,
)
from .qasst import (
    Qasst,
    QuotientGraph,
    SplitNode,
    compute_qasst,
    is_distance_hereditary,
    is_split,
    is_strong,
    reconstruct,
)
from .qasst_ops import ExtensionKind, extend, induced_qasst, lc_propagate
from .counting import (
    bipartite_orbit_size,
    bouchet_cycle_count,
    bouchet_path_count,
    clique_star_orbit_size,
    kpartite_orbit_size,
    kpartite_phi,
    min_edge_rep,
    min_max_degree_rep,
    orbit_size,
    phi_count,
)
from .symmetry import (
    SymmetryCase,
    classify_star_member,
    closure_step,
    enumerate_cases,
    realize,
    synthesize_transformation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
