"""Structure-driven exact algorithms for graphs with no 4-hole, no
5-hole and no induced 7-vertex path.

Public surface: the :class:`~p7c4c5.graph.Graph` container, forbidden
pattern detection, clique-cutset decomposition, atom recognition with
verifiable certificates, proper circular-arc representations, and exact
solvers for minimum coloring, maximum-weight stable set and
maximum-weight clique.
"""

from .graph import Graph, GraphError, read_dimacs, write_dimacs
from .patterns import ClassReport, class_membership
from .chordal import (
    NotChordalError,
    chordal_max_weight_clique,
    chordal_mwis,
    is_chordal,
    perfect_elimination_order,
)
from .cutset import decompose, has_clique_cutset, merge_colorings, tree_violations
from .recognize import (
    AtomCertificate,
    RecognitionError,
    certificate_from_dict,
    certificate_to_dict,
    recognize_atom,
    verify_certificate,
)
from .arcs import (
    ArcRepresentation,
    bracelet_arcs,
    bracelet_intervals,
    emerald_arcs,
    is_proper,
    pca_color,
    realize,
)
from .solvers import (
    NotAMember,
    clique_number,
    max_stable_set,
    max_weight_clique,
    min_coloring,
    mwis,
)

__all__ = [
    "ArcRepresentation",
    "AtomCertificate",
    "ClassReport",
    "Graph",
    "GraphError",
    "NotAMember",
    "NotChordalError",
    "RecognitionError",
    "bracelet_arcs",
    "bracelet_intervals",
    "certificate_from_dict",
    "certificate_to_dict",
    "chordal_max_weight_clique",
    "chordal_mwis",
    "class_membership",
    "clique_number",
    "decompose",
    "emerald_arcs",
    "has_clique_cutset",
    "is_chordal",
    "is_proper",
    "max_stable_set",
    "max_weight_clique",
    "merge_colorings",
    "min_coloring",
    "mwis",
    "pca_color",
    "perfect_elimination_order",
    "read_dimacs",
    "realize",
    "recognize_atom",
    "tree_violations",
    "verify_certificate",
    "write_dimacs",
]

__version__ = "0.1.0"
