"""Independent brute-force convex hull face lattice over exact rationals.

This is the ground truth the Gale machinery is validated against, so it
shares nothing with the coface criterion: facets are found by scanning
the d-subsets for spanning hyperplanes with all points on one closed
side, skipping the subsets that lie on a hyperplane already found. The
rest of the lattice comes from the vertex-facet incidences in facet-set
coordinates (Kaibel and Pfetsch): the join of a face with a point off it
is the AND of their facet sets, and each face is graded one above the
highest face it is a join of. Each facet's exact affine rank anchors
that grading. Facet sets turn back into vertex masks through per-byte
AND tables of the facet masks, many faces per pass. The arithmetic is
fraction-free: hull coordinates are pivot columns and each hyperplane is
an integer null vector, both found by integer elimination, so on
integer points (every incidence vector) the scan evaluates
normal . q - offset in ints. Desk scale only (at most 26 points).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from operator import add, and_
from typing import Sequence

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    PointOutsideAffineHull,
    StructureMismatch,
    TooManyPoints,
)
from .gale import (
    FaceLattice,
    IncidenceSystem,
    TypeReport,
    byte_tables,
    members,
)
from .linalg import affine_dimension, dot, pivot_columns, spanning_hyperplane

POINT_CAP = 26


def _check_points(points) -> list[tuple]:
    pts = [tuple(p) for p in points]
    if len(pts) > POINT_CAP:
        raise TooManyPoints(f"{len(pts)} points exceeds the cap of {POINT_CAP}")
    if not pts:
        raise DegenerateInput("no points given")
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatch("points of unequal dimension")
    return pts


def _project_to_hull_coordinates(pts: list[tuple]) -> tuple[list[tuple], int]:
    """Restrict to the pivot coordinates of the affine hull.

    Selecting the pivot columns of the difference matrix is a linear
    isomorphism of the affine hull onto R^d, so faces are preserved.
    """
    p0 = pts[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
    if not diffs:
        return [()] * len(pts), 0
    pivots = pivot_columns(diffs)
    return [tuple(p[c] for c in pivots) for p in pts], len(pivots)


def _facet_supports(qpts: list[tuple], d: int):
    """All facet supporting hyperplanes of full-dimensional conv(qpts) in R^d.

    Yields (facet_mask, normal, offset, side) with side = +1 if the
    polytope satisfies normal.x <= offset, else -1; bit i of facet_mask
    is set when qpts[i] lies on the facet.
    """
    n = len(qpts)
    # d points on a known hyperplane span it again or span nothing
    planes: list[int] = []
    out = []
    for subset in combinations(range(n), d):
        bits = sum(1 << i for i in subset)
        if any(bits & p == bits for p in planes):
            continue
        hp = spanning_hyperplane([qpts[i] for i in subset], d)
        if hp is None:
            continue
        normal, offset = hp
        values = [dot(normal, q) - offset for q in qpts]
        mask = sum(1 << i for i, v in enumerate(values) if v == 0)
        planes.append(mask)
        if all(v <= 0 for v in values):
            side = -1
        elif all(v >= 0 for v in values):
            side = 1
        else:
            continue
        out.append((mask, normal, offset, side))
    return out


def oracle_lattice(points: Sequence[Sequence[Fraction | int]]) -> FaceLattice:
    """Face lattice of conv(points) by exhaustive hyperplane scanning.

    Faces are bitmasks over the input points; the empty face and the
    full polytope are included. Each facet must have exact affine
    dimension d - 1. Every face is graded one above the highest face it
    is a join of, the join of face t and point i being the least face
    holding both, and the facets and the polytope must come out at d - 1
    and d. Points need not be vertices.
    """
    pts = _check_points(points)
    qpts, d = _project_to_hull_coordinates(pts)
    if d == 0:
        raise DegenerateInput("all points coincide")

    facets = [mask for mask, *_ in _facet_supports(qpts, d)]
    for f in facets:
        r = affine_dimension([qpts[i] for i in members(f)])
        if r != d - 1:
            raise StructureMismatch(
                f"facet {members(f)} has affine dimension {r}, expected {d - 1}"
            )
    # Faces are keyed by facet set, the empty face by all facets and the
    # polytope by none. inc[i] holds the facets through point i, so the
    # least face holding face t and point i is t & inc[i], its join. Every
    # join other than t is a proper superface with fewer facets, and every
    # face y is the join of each of its facets x with a point of y off x.
    # So buckets of decreasing facet count grade every join source first,
    # and a face is one dimension above the highest face it is a join of.
    # A point on face t joins to t itself, so only the points off t count.
    n = len(pts)
    top = (1 << n) - 1
    inc = [sum(1 << k for k, f in enumerate(facets) if f >> i & 1) for i in range(n)]
    # per byte: facet set -> AND of its facets; point mask -> its points' inc
    mask_tables = byte_tables(facets, and_, top)
    inc_tables = byte_tables([(x,) for x in inc], add, ())
    buckets = [{} for _ in facets] + [{(1 << len(facets)) - 1: -1}]
    faces = {}
    while buckets:
        items = iter(buckets.pop().items())
        # 64 faces at a time, as in reference.check_witness: lists this
        # small stay in the small-object allocator and add no peak memory
        while chunk := list(islice(items, 64)):
            masks = [top] * len(chunk)
            for c, table in enumerate(mask_tables):
                masks = [m & table[t >> 8 * c & 255] for m, (t, _) in zip(masks, chunk)]
            offs = [()] * len(chunk)
            for c, table in enumerate(inc_tables):
                offs = [o + table[(top ^ m) >> 8 * c & 255] for o, m in zip(offs, masks)]
            for (t, dim), off in zip(chunk, offs):
                for x in off:
                    j = t & x
                    above = buckets[j.bit_count()]
                    if above.get(j, -1) <= dim:
                        above[j] = dim + 1
            faces.update((m, dim) for m, (_, dim) in zip(masks, chunk))
    if faces[top] != d or any(faces[f] != d - 1 for f in facets):
        raise StructureMismatch("join grading disagrees with the facet ranks")
    return FaceLattice(dim=d, top=top, faces=faces)


def beyond_facets(
    point: Sequence[Fraction | int], others: Sequence[Sequence[Fraction | int]]
) -> int:
    """Number of facets of conv(others) strictly separating the point.

    The point must lie in the affine hull of the others; the centroid of
    the others is the strict-inside witness.
    """
    pts = _check_points(others)
    if len(point) != len(pts[0]):
        raise DimensionMismatch("point and others of unequal dimension")
    # a point inside the affine hull leaves the pivot columns as they are
    projected, d = _project_to_hull_coordinates(pts + [tuple(point)])
    if affine_dimension(pts) != d:
        raise PointOutsideAffineHull("point leaves the affine hull of the others")
    if d == 0:
        raise DegenerateInput("all points coincide")
    *qpts, qpoint = projected

    n = len(qpts)
    # n times the centroid, so the side test stays exact in the scan's type
    total = tuple(sum(q[r] for q in qpts) for r in range(d))
    count = 0
    for _, normal, offset, _ in _facet_supports(qpts, d):
        inside = dot(normal, total) - n * offset
        value = dot(normal, qpoint) - offset
        if inside == 0:
            raise StructureMismatch("centroid on a facet hyperplane")
        if value != 0 and (value > 0) != (inside > 0):
            count += 1
    return count


def verify_pyramid_structure(s: IncidenceSystem, t: TypeReport, lattice: FaceLattice) -> dict:
    """Confirm the apex class of a type II/III hull: each apex vertex lies
    on every facet of the oracle lattice except exactly one. The apex
    class's zero Gale points, and the nonzero ones of the other classes,
    were pinned by classify, which checks the (0, v, -v) and (v, -v, 0)
    class values exactly."""
    if t.hull_type not in ("II", "III"):
        raise ValueError(f"pyramid structure applies to types II/III, not {t.hull_type}")
    apex_slot = 0 if t.hull_type == "II" else 2
    apexes = s.class_indices(apex_slot)

    facets = [f for f, d in lattice.faces.items() if d == lattice.dim - 1]
    for j in apexes:
        missing = sum(1 for f in facets if not f >> j & 1)
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
