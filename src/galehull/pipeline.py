"""End-to-end analysis and verification pipelines shared by CLI and tests.

An analysis builds the hull model of the sorted class sizes once
(gale.hull_model) and adds only what varies per polytope: the coloring,
the incidence system and its certificates, and the model's Gale diagram
in the polytope's face order. The report reads the model. Verification
eliminates the hull's vertices once and adds the independent routes on
that one table: the Gale points by elimination, the oracle lattice
against the criterion's, its counts and the free-sum f-polynomial
against the model's, and the class-block witness that carries the
oracle's facets onto the model's. Once the witness holds, every
structure fact of the model is a fact of the hull; the type I beyond
counts get a sign check of the checked Gale column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Optional, Sequence

from .errors import CriterionMismatch, DiagramMismatch, StructureMismatch
from .gale import (
    FaceLattice,
    GaleDiagram,
    HullModel,
    IncidenceSystem,
    criterion_counts,
    enumerate_faces,
    gale_transform,
    grade_anchors,
    hull_model,
    incidence_system,
    members,
    rref_gale_points,
)
from .linalg import affine_coordinates
from .oracle import _check_points, _oracle_lattice as oracle_lattice  # the name tracers wrap
from .polytopes import FaceColoring, PlanarPolytope, three_color
from .reference import block_order, check_witness, free_sum_fvector, model_facets


@dataclass(frozen=True)
class Analysis:
    polytope: PlanarPolytope
    coloring: FaceColoring
    system: IncidenceSystem
    diagram: GaleDiagram
    report: HullModel

    @cached_property
    def lattice(self) -> FaceLattice:
        """All 2^(n+2) faces, enumerated on first read."""
        return enumerate_faces(self.system, self.diagram, self.report)


def summarize_polytope(p: PlanarPolytope) -> Analysis:
    """Color, build the incidence vectors and the hull model, scale its
    Gale diagram to the face order and grade the anchors. The model counts
    the f-vector, simpliciality and neighborliness when the report first
    reads them; nothing here enumerates the faces."""
    c = three_color(p)
    s = incidence_system(p, c)
    model = hull_model(c.class_sizes)
    g = gale_transform(s, model)
    grade_anchors(s, model)
    return Analysis(p, c, s, g, model)


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


def _require_fvector(model: HullModel, other: Sequence[int], route: str) -> None:
    """The model's pattern counts must equal the f-vector other, found by
    route: CriterionMismatch names the first dimension where they differ."""
    for d, (counted, by_route) in enumerate(zip_longest(model.fvector, other)):
        if counted != by_route:
            raise CriterionMismatch(
                f"f-vector at dimension {d}: class patterns count {counted} "
                f"faces, {route} {by_route}"
            )


def type_one_checks(analysis: Analysis) -> dict[int, int]:
    """Property suite that must hold for every hull with three distinct
    class sizes: every middle-class vertex beyond exactly m2-1 facets of
    the simplex spanned by the others. Returns {middle-class vertex:
    facets beyond}.

    On a type I hull the Gale diagram is one column lam, the one affine
    dependency of the N = n + 2 vertices; verify_polytope checks it equal
    to the RREF null space of their homogenized matrix before this runs,
    so no elimination is repeated here. lam[v] != 0 certifies that the
    other N-1 vertices span a simplex S whose affine hull holds v, at
    barycentric coordinates -lam[j] / lam[v]: v is beyond the facet of S
    opposite j iff lam[j] lam[v] > 0. A hull facet misses v iff it is a
    facet of S with v strictly beneath; the witness maps the hull onto
    T^n_{m2-1}, where a class-A vertex misses m1 + m3 facets, so is beyond
    N - 1 - (m1 + m3) = m2 - 1: the sign count checks that geometrically."""
    report = analysis.report
    if report.hull_type != "I":
        raise ValueError("type I checks apply to type I hulls only")
    m2 = report.sizes[1]
    lam = [x for p in analysis.diagram.points for x in p]
    beyond = {}
    for v0 in analysis.system.class_indices(1):
        if len(lam) != len(analysis.system.vectors) or lam[v0] == 0:
            raise StructureMismatch(
                "the other points are no simplex whose affine hull holds the point"
            )
        count = sum(1 for x in lam if x * lam[v0] > 0) - 1  # j = v0 is one of them
        beyond[v0] = count
        if count != m2 - 1:
            raise StructureMismatch(
                f"middle-class vertex {v0} beyond {count} facets, expected {m2 - 1}"
            )
    return beyond


@dataclass(frozen=True)
class Verification:
    analysis: Analysis
    oracle: FaceLattice
    beyond: Optional[dict[int, int]]  # type_one_checks' counts, on type I hulls only
    reference: tuple[int, ...]      # the model's facets
    reference_witness: dict[int, int]


def verify_polytope(p: PlanarPolytope) -> Verification:
    """Analysis plus every oracle cross-check; raises on any mismatch."""
    analysis = analyze_polytope(p)
    model = analysis.report
    # checked below; counted before the oracle's 2^N faces, so as not to raise the peak heap
    counts = criterion_counts(analysis.system, model)
    points = _check_points(analysis.system.vectors)  # the oracle's cap bounds the elimination
    elimination = affine_coordinates(points)  # the one of the oracle, RREF route and type I
    oracle = oracle_lattice(points, *elimination)
    by_rref, closed = rref_gale_points(*elimination), analysis.diagram.points
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
    # the model's counts against the oracle lattice's, off the equal criterion lattice's rows
    _require_fvector(model, counts[0], "the oracle lattice")
    names = ("simpliciality", "neighborliness")
    for name, counted, by_rows in zip(names, model.counts[1:], counts[1:]):
        if counted != by_rows:
            raise CriterionMismatch(
                f"{name}: class patterns give {counted}, the oracle lattice {by_rows}"
            )
    _require_fvector(model, free_sum_fvector(model), "the free-sum f-polynomial")

    # the criterion lattice equals the oracle lattice (checked above), so
    # mapping the oracle's facets onto the model's maps both lattices, and
    # the model's structure below is the hull's
    reference = model_facets(model)
    order = block_order(analysis.system, model)
    witness = {v: i for i, v in enumerate(order)}
    check_witness(oracle.facets, reference, witness, f"witness onto {model.structure}")

    if model.hull_type == "IV" and model.neighborly != model.sizes[1] - 1:
        raise StructureMismatch(
            f"neighborliness {model.neighborly} != m2-1 = {model.sizes[1] - 1}"
        )

    return Verification(
        analysis=analysis,
        oracle=oracle,
        beyond=type_one_checks(analysis) if model.hull_type == "I" else None,
        reference=reference,
        reference_witness=witness,
    )
