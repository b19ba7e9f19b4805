"""Independent brute-force convex hull face lattice over exact rationals.

This is the ground truth the Gale machinery is validated against, so it
is pure geometry and shares nothing with the coface criterion.
oracle_facets scans the d-subsets for spanning hyperplanes with all
points on one closed side, in the base simplex and integer barycentric
coordinates of one fraction-free elimination of the points as given. A
subset spans a plane, so a facet of certified dimension, when its at
most N - d - 1 rows have a line of solutions, a cross product on the
hulls of galehull (d + 2 or d + 3 vertices). oracle_lattice reads the
rest of the lattice off the point-facet incidences. verify_polytope
hands both its one elimination. Desk scale: at most 26 points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, product, starmap
from operator import and_
from typing import Sequence

from .errors import DegenerateInput, DimensionMismatch, StructureMismatch, TooManyPoints
from .gale import FaceLattice, members, subset_table
from .linalg import affine_coordinates, affine_dimension, null_vector

POINT_CAP = 26


def _check_points(points) -> list[tuple]:
    pts = [tuple(p) for p in points]
    if len(pts) > POINT_CAP:
        raise TooManyPoints(f"{len(pts)} points exceeds the cap of {POINT_CAP}")
    if not pts:
        raise DegenerateInput("no points given")
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatch("points of unequal dimension")
    if len(set(pts)) == 1:
        raise DegenerateInput("all points coincide")
    return pts


def _facet_supports(base: list[int], table: list[tuple[int, ...]]) -> list[int]:
    """The facets of conv(points), given as affine_coordinates(points) of
    dimension d = len(base) - 1 >= 1, as masks with bit i set when
    points[i] lies on the facet, in the order the scan finds them."""
    d = len(base) - 1
    n = len(table)
    slot = dict(zip(base, range(d + 1)))
    outside = [j for j in range(n) if j not in slot]
    full = (1 << n) - 1
    seen: set[int] = set()
    out = []
    # The d-subsets in combinations order are the complements of the
    # (n - d)-subsets in reverse order. An affine functional's values y at
    # the base fix its value at point j, proportional to table[j] . y. On a
    # subset's plane, y is 0 at its base points, so only the others are
    # free, and solves one row per subset point off the base: a line of
    # solutions exactly when the subset spans a plane. Only the free base
    # points and the points off the base can lie off that plane.
    for missing in reversed(list(combinations(range(n), n - d))):
        free = [slot[i] for i in missing if i in slot]
        rows = [[table[j][k] for k in free] for j in outside if j not in missing]
        y = null_vector(rows) if rows else (1,)
        if y is None:
            continue
        others = [base[k] for k in free] + outside
        values = [sum(y[t] * table[j][k] for t, k in enumerate(free)) for j in others]
        mask = full ^ sum(1 << j for j, v in zip(others, values) if v)
        if mask in seen:
            continue
        seen.add(mask)
        if all(v <= 0 for v in values) or all(v >= 0 for v in values):
            out.append(mask)
    return out


def oracle_facets(points: Sequence[Sequence[Fraction | int]]) -> tuple[int, list[int]]:
    """The dimension d of conv(points), and its facets as masks over the
    points, which need not be vertices, in the order the scan finds them.
    Each facet has affine dimension d - 1 by construction: the scan takes
    a plane only when the values at the base that vanish on its d points
    form a line, that is when the points are affinely independent, and
    the facet's mask holds them."""
    base, table = affine_coordinates(_check_points(points))
    return len(base) - 1, _facet_supports(base, table)


def oracle_lattice(points: Sequence[Sequence[Fraction | int]]) -> FaceLattice:
    """Face lattice of conv(points) from the facets of oracle_facets,
    which it lists in scan order. Faces are bitmasks over the points; the
    empty face and the full polytope are included.

    A face is the largest point subset with its facet set (a Galois
    closure), so the faces are read off the facet sets of all 2^N
    subsets. If a face f minus one point p is a face g, f is a pyramid
    over g: aff f is spanned by aff g and p, and g is a proper face of f,
    so f has dimension dim g + 1. Every other face takes its exact affine
    rank, and the polytope and the scan's facets must come out at d and
    d - 1.

    The cost is 2^N table reads in C plus one Python step per face,
    whatever the face count: output sized on galehull's hulls, where
    almost every point subset is a face, but not on low-dimensional point
    sets (26 points of a convex polygon, 54 faces, take about 3.2 s).
    """
    pts = _check_points(points)
    return _oracle_lattice(pts, *affine_coordinates(pts))


def _oracle_lattice(points: list[tuple], base: list[int], table: list[tuple]) -> FaceLattice:
    """oracle_lattice of _check_points' points, given as affine_coordinates(points)."""
    d, facets = len(base) - 1, _facet_supports(base, table)
    # inc[i] holds the facets through point i, so a point subset lies on
    # the AND of its points' inc. Each half's subset_table holds that AND
    # for every subset of its points, so the product visits every subset
    # in ascending mask order. The last subset with a facet set, the union
    # of them all, is the face that has it. The dict goes before grading:
    # kept, it adds to the peak memory.
    n = len(points)
    top = (1 << n) - 1
    inc = [sum(1 << k for k, f in enumerate(facets) if f >> i & 1) for i in range(n)]
    every = (1 << len(facets)) - 1
    lows, highs = subset_table(inc[:n // 2], and_, every), subset_table(inc[n // 2:], and_, every)
    closure = dict(zip(starmap(and_, product(highs, lows)), count()))
    order = sorted(closure.values())
    del closure
    # f grades one above a face g = f minus one point, which comes first in
    # ascending mask order, or takes its exact affine rank (the empty face
    # too). The point dropped first is the lowest, which succeeds on almost
    # every face of galehull's hulls.
    faces: dict[int, int] = {}
    get = faces.get
    for f in order:
        dim = get(f & f - 1)
        if dim is None:
            dim = next((faces[g] for i in members(f) if (g := f ^ 1 << i) in faces), None)
        faces[f] = (
            affine_dimension([points[i] for i in members(f)]) if dim is None else dim + 1
        )
    if faces[top] != d or any(faces[f] != d - 1 for f in facets):
        raise StructureMismatch("pyramid grading disagrees with the facet ranks")
    return FaceLattice(dim=d, top=top, faces=faces, facets=tuple(facets))
