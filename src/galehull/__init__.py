"""Exact combinatorial analysis of convex hulls of face-vertex incidence
vectors of 3-face-colorable simple 3-polytopes."""

from .equivalence import equivalence_witness, equivalent
from .errors import GalehullError
from .gale import (
    FaceLattice,
    GaleDiagram,
    HullModel,
    IncidenceSystem,
    enumerate_faces,
    fvector,
    gale_transform,
    grade_anchors,
    hull_dimension,
    hull_model,
    incidence_system,
    members,
    neighborliness,
    relint_contains_zero,
    simpliciality_check,
)
from .oracle import oracle_lattice
from .pipeline import Analysis, Verification, analyze_polytope, summarize_polytope
from .pipeline import verify_polytope
from .polytopes import (
    FaceColoring,
    PlanarPolytope,
    catalog,
    hamiltonian_cycle,
    three_color,
    validate,
)
from .reference import model_facets

__version__ = "1.0.0"

__all__ = [
    "Analysis",
    "FaceColoring",
    "FaceLattice",
    "GaleDiagram",
    "GalehullError",
    "HullModel",
    "IncidenceSystem",
    "PlanarPolytope",
    "Verification",
    "analyze_polytope",
    "catalog",
    "enumerate_faces",
    "equivalence_witness",
    "equivalent",
    "fvector",
    "gale_transform",
    "grade_anchors",
    "hamiltonian_cycle",
    "hull_dimension",
    "hull_model",
    "incidence_system",
    "members",
    "model_facets",
    "neighborliness",
    "oracle_lattice",
    "relint_contains_zero",
    "simpliciality_check",
    "summarize_polytope",
    "three_color",
    "validate",
    "verify_polytope",
]
