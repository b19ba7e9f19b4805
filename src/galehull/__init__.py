"""Exact combinatorial analysis of convex hulls of face-vertex incidence
vectors of 3-face-colorable simple 3-polytopes."""

from .equivalence import equivalence_witness, equivalent
from .errors import GalehullError
from .gale import (
    FaceLattice,
    GaleDiagram,
    IncidenceSystem,
    TypeReport,
    classify,
    enumerate_faces,
    fvector,
    gale_transform,
    grade_anchors,
    hull_dimension,
    incidence_system,
    lattice_to_json,
    members,
    neighborliness,
    pattern_counts,
    relint_contains_zero,
    simpliciality_check,
)
from .oracle import beyond_facets, oracle_lattice, verify_pyramid_structure
from .pipeline import Analysis, Verification, analyze_polytope, summarize_polytope, verify_polytope
from .polytopes import (
    FaceColoring,
    PlanarPolytope,
    catalog,
    hamiltonian_cycle,
    three_color,
    validate,
)
from .reference import (
    cyclic_facets,
    pyramid,
    tkn_model,
    type4_model,
)

__version__ = "1.0.0"

__all__ = [
    "Analysis",
    "FaceColoring",
    "FaceLattice",
    "GaleDiagram",
    "GalehullError",
    "IncidenceSystem",
    "PlanarPolytope",
    "TypeReport",
    "Verification",
    "analyze_polytope",
    "beyond_facets",
    "catalog",
    "classify",
    "cyclic_facets",
    "enumerate_faces",
    "equivalence_witness",
    "equivalent",
    "fvector",
    "gale_transform",
    "grade_anchors",
    "hamiltonian_cycle",
    "hull_dimension",
    "incidence_system",
    "lattice_to_json",
    "members",
    "neighborliness",
    "oracle_lattice",
    "pattern_counts",
    "pyramid",
    "relint_contains_zero",
    "simpliciality_check",
    "summarize_polytope",
    "three_color",
    "tkn_model",
    "type4_model",
    "validate",
    "verify_polytope",
    "verify_pyramid_structure",
]
