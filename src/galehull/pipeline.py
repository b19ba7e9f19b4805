"""End-to-end analysis and verification pipelines shared by CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import CriterionMismatch, DiagramMismatch, StructureMismatch
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
    incidence_system,
    members,
    neighborliness,
    pattern_counts,
    rref_gale_points,
    simpliciality_check,
)
from .linalg import null_vector
from .oracle import oracle_lattice
from .polytopes import FaceColoring, PlanarPolytope, three_color
from .reference import block_order, check_witness, model_facets


@dataclass(frozen=True)
class Analysis:
    polytope: PlanarPolytope
    coloring: FaceColoring
    system: IncidenceSystem
    diagram: GaleDiagram
    report: TypeReport
    hull_fvector: tuple[int, ...]
    simplicial: bool
    neighborly: int

    @cached_property
    def lattice(self) -> FaceLattice:
        """All 2^(n+2) faces, enumerated on first read."""
        return enumerate_faces(self.system, self.diagram, self.report)


def summarize_polytope(p: PlanarPolytope) -> Analysis:
    """Color, build incidence vectors, classify and grade the anchors. The
    f-vector, simpliciality and neighborliness come from the class
    patterns; nothing here enumerates the faces."""
    c = three_color(p)
    s = incidence_system(p, c)
    g = gale_transform(s)
    report = classify(s, g)
    grade_anchors(s, report)
    return Analysis(p, c, s, g, report, *pattern_counts(report))


def analyze_polytope(p: PlanarPolytope) -> Analysis:
    """summarize_polytope plus the face lattice, built here and not on a
    later read: verify calls this and so enumerates once, inside this call,
    where perfbench's span tracer expects the enumeration of an analysis."""
    analysis = summarize_polytope(p)
    analysis.lattice  # enumerated and cached
    return analysis


FACE_DIFF_LIMIT = 12  # faces listed per kind of lattice disagreement


def _face_diff(a: FaceLattice, b: FaceLattice) -> str:
    only_a = [f for f in a.faces if f not in b.faces]
    only_b = [f for f in b.faces if f not in a.faces]
    graded = [
        f for f in a.faces if f in b.faces and a.faces[f] != b.faces[f]
    ]
    parts = []
    if only_a:
        parts.append(f"criterion-only: {sorted(map(members, only_a))[:FACE_DIFF_LIMIT]}")
    if only_b:
        parts.append(f"oracle-only: {sorted(map(members, only_b))[:FACE_DIFF_LIMIT]}")
    if graded:
        parts.append(f"dimension disagreements: {sorted(map(members, graded))[:FACE_DIFF_LIMIT]}")
    return "; ".join(parts) or "identical"


def _simplex_beyond_count(point: Sequence[int], others: Sequence[Sequence[int]]) -> int:
    """Number of facets of the simplex conv(others) strictly separating
    the point: its negative barycentric coordinates, read off the one null
    vector (lam, mu) of [[others | -point], [1 ... 1 | -1]] as lam / mu.

    A one-dimensional null space with mu != 0 certifies that the others
    are affinely independent and that the point lies in their affine hull;
    anything else raises StructureMismatch.
    """
    rows = [[o[r] for o in others] + [-point[r]] for r in range(len(point))]
    vec = null_vector(rows + [[1] * len(others) + [-1]])
    if vec is None or vec[-1] == 0:
        raise StructureMismatch(
            "the other points are no simplex whose affine hull holds the point"
        )
    *lam, mu = vec
    return sum(1 for x in lam if x * mu < 0)


def _facets_missing(facets: Sequence[int], v: int) -> int:
    """Number of facets, as point masks, that miss point v."""
    return sum(1 for f in facets if not f >> v & 1)


def _require_walked_counts(analysis: Analysis, oracle: FaceLattice) -> None:
    """The pattern counts of the analysis must equal the walks over the
    oracle lattice: CriterionMismatch names the quantity otherwise, and for
    the f-vector the first dimension where they differ."""
    # equal lattice dims give f-vectors of equal length
    for d, (counted, by_walk) in enumerate(zip(analysis.hull_fvector, fvector(oracle))):
        if counted != by_walk:
            raise CriterionMismatch(
                f"f-vector at dimension {d}: class patterns count {counted} "
                f"faces, the oracle lattice {by_walk}"
            )
    for name, counted, by_walk in (
        ("simpliciality", analysis.simplicial, simpliciality_check(oracle)),
        ("neighborliness", analysis.neighborly, neighborliness(oracle)),
    ):
        if counted != by_walk:
            raise CriterionMismatch(
                f"{name}: class patterns give {counted}, the oracle lattice {by_walk}"
            )


def type_one_checks(analysis: Analysis, facets: Sequence[int]) -> dict:
    """Property suite that must hold for every hull with three distinct
    class sizes: every middle-class vertex beyond exactly m2-1 facets of
    the simplex spanned by the others.

    The counts come from barycentric coordinates, which also certify that
    the other N-1 vertices span a simplex S. The oracle's facets recount
    every middle-class vertex v and must agree: a facet of the hull misses
    v exactly when it is a facet of S with v strictly beneath it, so v is
    beyond N-1 less that many. A v on a facet hyperplane of S would have a
    zero coordinate, and the counts would differ. Simpliciality
    (pattern_counts) and equality with the oracle lattice (verify_polytope)
    are checked before this runs, so the report states them without a
    second check."""
    report = analysis.report
    if report.hull_type != "I":
        raise ValueError("type I checks apply to type I hulls only")
    m2 = report.sorted_sizes[1]
    vectors = analysis.system.vectors
    beyond = {}
    for v0 in analysis.system.class_indices(1):
        rest = [vectors[j] for j in range(len(vectors)) if j != v0]
        count = _simplex_beyond_count(vectors[v0], rest)
        by_facets = len(rest) - _facets_missing(facets, v0)
        if by_facets != count:
            raise StructureMismatch(
                f"middle-class vertex {v0}: barycentric coordinates put it "
                f"beyond {count} facets, the oracle's facets {by_facets}"
            )
        beyond[v0] = count
        if count != m2 - 1:
            raise StructureMismatch(
                f"middle-class vertex {v0} beyond {count} facets, expected {m2 - 1}"
            )
    # verify_polytope's RREF cross-check ran first: the Gale points, so the
    # (1-k, k, -1) class values, equal the elimination's exactly
    return {
        "simplicial": True,
        "facesMatchOracle": True,
        "beyondCounts": {str(v): c for v, c in sorted(beyond.items())},
        "expectedBeyond": m2 - 1,
        "kRatioVerified": True,
    }


def verify_pyramid_structure(s: IncidenceSystem, t: TypeReport, facets: Sequence[int]) -> dict:
    """Confirm the apex class of a type II/III hull: each apex vertex lies
    on every one of the oracle's facets except exactly one. The apex
    class's zero Gale points, and the nonzero ones of the other classes,
    are pinned by verify_polytope's RREF cross-check, which runs first:
    the (0, v, -v) and (v, -v, 0) class values equal the elimination's
    exactly."""
    if t.hull_type not in ("II", "III"):
        raise ValueError(f"pyramid structure applies to types II/III, not {t.hull_type}")
    apex_slot = 0 if t.hull_type == "II" else 2
    apexes = s.class_indices(apex_slot)
    for j in apexes:
        missing = _facets_missing(facets, j)
        if missing != 1:
            raise StructureMismatch(
                f"apex vertex {j} is outside {missing} facets, expected 1"
            )
    return {
        "apexSlot": apex_slot + 1,
        "apexVertices": list(apexes),
        "apexCount": len(apexes),
        "zeroGalePoints": True,
        "apexFacetSignature": True,
        "facetCount": len(facets),
    }


@dataclass(frozen=True)
class Verification:
    analysis: Analysis
    oracle: FaceLattice
    pyramid_report: Optional[dict]
    neighborliness_matches: Optional[bool]
    type_one_report: Optional[dict]
    reference: tuple[int, ...]      # the model's facets
    reference_witness: dict[int, int]


def verify_polytope(p: PlanarPolytope) -> Verification:
    """Analysis plus every oracle cross-check; raises on any mismatch."""
    analysis = analyze_polytope(p)
    report = analysis.report
    oracle = oracle_lattice(analysis.system.vectors)
    # the oracle's point cap also bounds this cubic elimination
    by_rref, closed = rref_gale_points(analysis.system), analysis.diagram.points
    for j, (a, b) in enumerate(zip(closed, by_rref)):
        if a != b:
            raise DiagramMismatch(
                f"Gale point {j}: class sizes give {list(map(str, a))}, "
                f"the RREF null space gives {list(map(str, b))}"
            )

    if analysis.lattice.faces != oracle.faces or analysis.lattice.dim != oracle.dim:
        raise CriterionMismatch(
            "criterion and oracle lattices differ: "
            + _face_diff(analysis.lattice, oracle)
        )
    _require_walked_counts(analysis, oracle)

    pyramid_report = None
    if report.hull_type in ("II", "III"):
        pyramid_report = verify_pyramid_structure(analysis.system, report, oracle.facets)

    neighborliness_matches = None
    if report.hull_type == "IV":
        neighborliness_matches = analysis.neighborly == report.sorted_sizes[1] - 1
        if not neighborliness_matches:
            raise StructureMismatch(
                f"neighborliness {analysis.neighborly} != m2-1 = "
                f"{report.sorted_sizes[1] - 1}"
            )

    type_one_report = None
    if report.hull_type == "I":
        type_one_report = type_one_checks(analysis, oracle.facets)

    # the criterion lattice equals the oracle lattice (checked above), so
    # mapping the oracle's facets onto the model's maps both lattices
    reference = model_facets(report.hull_type, report.sorted_sizes)
    order = block_order(analysis.system, report.hull_type)
    witness = {v: i for i, v in enumerate(order)}
    check_witness(oracle.facets, reference, witness, f"witness onto {report.structure}")

    return Verification(
        analysis=analysis,
        oracle=oracle,
        pyramid_report=pyramid_report,
        neighborliness_matches=neighborliness_matches,
        type_one_report=type_one_report,
        reference=reference,
        reference_witness=witness,
    )
