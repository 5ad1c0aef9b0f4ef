"""Certified exact bases for the span of Hamiltonian tour vectors in layered time graphs.

A layered time graph of order n tracks n cities over n days; a full tour
visits every city exactly once and is a permutation of 1..n.  Each tour
yields a 0/1 incidence vector over the graph's edge set, and this package
computes, with exact rational arithmetic throughout:

* the dimension of the span of all tour vectors, by brute force at small
  orders and by certified construction for every n >= 5 (the answer is
  n(n-1)(n-2)+1);
* an explicit upper-triangular basis of that span, where each basis tour
  owns a pivot edge untouched by all later rows, so independence is
  checkable by inspection;
* the matching family of n^2 + n - 1 annihilator vectors that proves the
  dimension cannot be larger;
* dimension and Hamiltonicity reports for arbitrary subgraphs at desk
  scale.
"""

from .annihilators import (
    AnnihilatorFamily,
    annihilator_family,
    city_annihilator,
    dimension_upper_bound,
    double_visit_path,
    family_size,
    verify_duality,
    vertex_annihilator,
)
from .basis import (
    BasisFormatError,
    BuildCertificate,
    CompletionError,
    PivotError,
    PivotedHtp,
    UpperTriangularBasis,
    base_basis_5,
    build,
    complete_basis,
    find_pivot_sequence,
    induction_families,
    lift,
    lift_pivot,
    verify_upper_triangular,
)
from .linalg import (
    EdgeVector,
    LinearDependenceError,
    MODULAR_PRIME,
    annihilator_basis,
    annihilator_basis_gram_schmidt,
    gram_schmidt,
    in_span,
    inner_product,
    rank,
)
from .oracle import (
    DEFAULT_CAP,
    DimensionReport,
    analyze,
    dimension_of,
    full_dimension,
    is_hamiltonian,
)
from .report import Check, Report
from .timegraph import (
    Edge,
    TimeGraph,
    all_edges,
    edge_count,
    edge_from_index,
    edge_index,
    enumerate_htps,
    htp_edges,
    htp_vector,
    partial_path_vector,
    timepath_edges,
    timepath_vector,
)

__version__ = "0.1.0"
