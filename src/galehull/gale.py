"""Incidence vectors, hull dimension, Gale transform, type classification,
face enumeration via the coface criterion, and face counts by class pattern.

The n+2 face-vertex indicator vectors of a 3-face-colorable simple
3-polytope have rank n and span a hull of dimension n-1 (all color
classes equal) or n, certified from the color classes in linear time
(IncidenceSystem.dependency_roots). The Gale transform is therefore
built per class in one or two dimensions, and it pins the full face
lattice: a vertex subset J is a proper face exactly when zero lies in
the relative interior of the convex hull of the complementary Gale
points, which depend only on the classes J holds in full. classify
checks the class constancy and builds the table of these 7 class
patterns once per hull, cross-checking each against the closed-form
per-type criterion; a disagreement raises, it is never a tolerated
outcome. Face enumeration and the face counts read that table. A subset
holds a class when both halves of its vertex mask hold their parts of
it, so enumeration tests no mask on its own: it joins one table row of
low halves to each high half.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, compress
from math import comb
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .errors import (
    CriterionMismatch,
    DiagramMismatch,
    DimensionMismatch,
    TheoremViolation,
    TooManyPoints,
)
from .linalg import affine_dimension, dot, null_space_basis, primitive_vector
from .polytopes import FaceColoring, PlanarPolytope

ANALYSIS_VERTEX_CAP = 24  # hull vertices (= faces of the input polytope)
# Faces of the input, for the dense (n+2) x 2n incidence vectors: at 1000
# faces (prism:998), analyze refuses at the enumeration cap after 0.22-0.27 s
# and 34 MB, 0.10-0.15 s and 18 MB above the interpreter (5 fresh processes;
# 2-vCPU Xeon, Python 3.11.7). The vectors grow with the square of the face
# count; the rank and Gale certificates are linear in the vertices.
INCIDENCE_FACE_CAP = 1000

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class IncidenceSystem:
    """The n+2 face-vertex indicator vectors, in face input order."""

    vectors: tuple[tuple[int, ...], ...]
    coloring: FaceColoring
    n: int

    def class_indices(self, slot: int) -> tuple[int, ...]:
        return self.coloring.class_members(slot)

    @cached_property
    def slots(self) -> tuple[int, ...]:
        """Face -> its sorted class slot."""
        return tuple(map(self.coloring.slot_colors.index, self.coloring.colors))

    @cached_property
    def faces_at(self) -> list[list[int]]:
        """Vertex -> the faces whose vectors hold it, ascending."""
        at: list[list[int]] = [[] for _ in self.vectors[0]]
        for j, vec in enumerate(self.vectors):
            for v in compress(range(len(vec)), vec):
                at[v].append(j)
        return at

    @cached_property
    def dependency_roots(self) -> tuple[int, ...]:
        """Face -> root of its component: the certificate of the rank.

        A dependency x has x_a + x_b + x_c = 0 at each vertex, over its
        faces, which must be one per class (TheoremViolation otherwise).
        Vertices that share their faces of two classes so force equal x on
        their faces of the third, and a union-find per class pair joins
        those. On a validated map the ends of each edge share two faces and
        the 1-skeleton is connected, so the dependencies are exactly the x
        constant on the components with a zero sum at one vertex, whose
        faces lie in three components. With c components the incidence rank
        is n + 3 - c: it is n iff the components are the three classes.
        """
        slots = self.slots
        by_slot = [sorted(faces, key=slots.__getitem__) for faces in self.faces_at]
        for v, faces in enumerate(by_slot):
            if [slots[j] for j in faces] != [0, 1, 2]:
                raise TheoremViolation(f"vertex {v} is not on one face of each class")
        parent = list(range(len(self.vectors)))

        def root(j: int) -> int:
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            return j

        for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            third: dict[tuple[int, int], int] = {}
            for faces in by_slot:
                parent[root(third.setdefault((faces[i], faces[j]), faces[k]))] = root(faces[k])
        return tuple(map(root, range(len(parent))))

    @property
    def incidence_rank(self) -> int:
        return len(self.vectors) + 1 - len(set(self.dependency_roots))


@dataclass(frozen=True)
class GaleDiagram:
    points: tuple[Point, ...]                  # one per hull vertex
    normalized: tuple[tuple[int, ...], ...]    # primitive integer directions
    colors: tuple[int, ...]                    # face color per point
    ambient: int


class PatternTable(NamedTuple):
    """The 7 class patterns of a proper vertex subset. Bit i of a pattern
    is set when the subset holds sorted class i in full, so the classes of
    sorted sizes m1, m2, m3 are the patterns 1, 2 and 4."""

    least: tuple[int, ...]                  # pattern -> union of its held classes
    support: tuple[frozenset[Point], ...]   # pattern -> Gale points off it
    offset: tuple[Optional[int], ...]       # pattern -> dim(J) - |J|, None off the faces


@dataclass(frozen=True)
class TypeReport:
    hull_type: str                       # "I" | "II" | "III" | "IV"
    sorted_sizes: tuple[int, int, int]
    dim: int
    k: Optional[Fraction]                # type I only
    structure: str
    patterns: PatternTable


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope as vertex bitmasks (bit j set when vertex j
    lies on the face) with exact dimensions, including the empty face 0
    (dim -1) and the full polytope `top` (dim d)."""

    dim: int
    top: int
    faces: dict[int, int]

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        singletons = [f for f, d in self.faces.items() if d == 0 and f.bit_count() == 1]
        return tuple(sorted(f.bit_length() - 1 for f in singletons))

    def proper_faces(self) -> dict[int, int]:
        return {f: d for f, d in self.faces.items() if 0 <= d < self.dim}


def members(mask: int) -> list[int]:
    """The vertex indices of a face bitmask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


T = TypeVar("T")


def byte_tables(values: Sequence[T], op: Callable[[T, T], T], unit: T) -> list[list[T]]:
    """Per-byte lookup tables: entry b of table c folds
    values[8c .. 8c + 7] over the set bits of b, starting from unit."""
    tables = []
    for c in range(0, len(values), 8):
        chunk = values[c:c + 8]
        table = [unit]
        for b in range(1, 1 << len(chunk)):
            table.append(op(table[b & (b - 1)], chunk[(b & -b).bit_length() - 1]))
        tables.append(table)
    return tables


def require_face_cap(faces: int) -> None:
    """Refuse an input of more than INCIDENCE_FACE_CAP faces. The CLI asks
    this of a face count before it builds or validates anything."""
    if faces > INCIDENCE_FACE_CAP:
        raise TooManyPoints(f"{faces} faces exceeds cap {INCIDENCE_FACE_CAP}")


def incidence_system(p: PlanarPolytope, c: FaceColoring) -> IncidenceSystem:
    """Build the indicator vectors of all faces and certify their rank n in
    linear time (IncidenceSystem.dependency_roots)."""
    require_face_cap(p.n + 2)
    vectors = []  # row by row: all rows as lists and as tuples at once double the peak
    for face in p.faces:
        vec = [0] * p.num_vertices
        for v in face:
            vec[v] = 1
        vectors.append(tuple(vec))
    s = IncidenceSystem(vectors=tuple(vectors), coloring=c, n=p.n)
    if s.incidence_rank != p.n:
        raise TheoremViolation(f"incidence rank != n = {p.n}")
    return s


def hull_dimension(s: IncidenceSystem) -> int:
    """Affine dimension of the hull; must follow the class-size pattern.

    The affine dependencies are the dependencies of coefficient sum zero,
    which weighs each component of s.dependency_roots by its size: a
    multiple of the one-vertex sum only for three components of equal
    size. So the dimension is the incidence rank, less one in that case.
    """
    sizes = Counter(s.dependency_roots).values()
    d = s.incidence_rank - (len(sizes) == 3 and len(set(sizes)) == 1)
    m1, m2, m3 = s.coloring.class_sizes
    expected = s.n - 1 if m1 == m2 == m3 else s.n
    if d != expected:
        raise TheoremViolation(
            f"hull dimension {d} but class sizes {s.coloring.class_sizes} demand {expected}"
        )
    return d


def gale_transform(s: IncidenceSystem) -> GaleDiagram:
    """Canonical Gale diagram, built per class from the class sizes.

    Every vertex lies on one face of each class, so the class-constant
    x = (y1, y2, y3) with y1 + y2 + y3 = 0 = m1 y1 + m2 y2 + m3 y3 are
    affine dependencies of the hull vertices; the certified hull dimension
    proves they span the whole null space. The basis is the one
    null_space_basis returns, whose free columns are the last faces of the
    classes, latest first: a 1 at each free column, 0 at the other. Each
    basis vector is checked in integers at every vertex, and each of the
    (at most three) distinct points is normalized once.
    """
    slots = s.slots
    last = {slot: j for j, slot in enumerate(slots)}
    a, b, c = sorted(last, key=last.get, reverse=True)
    m1, m2, m3 = s.coloring.class_sizes
    if m1 == m2 == m3:  # basis vectors as (value per class, divisor)
        basis = [({a: 0, b: 1, c: -1}, 1), ({a: 1, b: 0, c: -1}, 1)]
    else:
        y = dict(enumerate((m3 - m2, m1 - m3, m2 - m1)))
        basis = [(y, next(y[slot] for slot in (a, b, c) if y[slot]))]
    for i, (y, _) in enumerate(basis):
        values = [y[slot] for slot in slots]
        bad = next((v for v, fs in enumerate(s.faces_at) if sum(map(values.__getitem__, fs))), None)
        if bad is not None:
            raise TheoremViolation(f"Gale vector {i} is no dependency at vertex {bad}")
        if sum(values):
            raise TheoremViolation(f"Gale vector {i} does not sum to zero")
    hull_dimension(s)  # pins the null-space dimension to len(basis)
    cls = [tuple(Fraction(y[slot], div) for y, div in basis) for slot in range(3)]
    normalized = {pt: primitive_vector(pt) for pt in set(cls)}
    points = tuple(cls[slot] for slot in slots)
    return GaleDiagram(
        points=points,
        normalized=tuple(map(normalized.__getitem__, points)),
        colors=s.coloring.colors,
        ambient=len(basis),
    )


def rref_gale_points(s: IncidenceSystem) -> tuple[Point, ...]:
    """The Gale points by elimination: rows of the canonical null-space
    basis of the homogenized vertex matrix. Cubic in n; verification runs
    it as an independent cross-check of gale_transform."""
    npts = s.n + 2
    basis = null_space_basis([[1] * npts] + [list(col) for col in zip(*s.vectors)])
    return tuple(tuple(b[j] for b in basis) for j in range(npts))


def relint_contains_zero(points: Sequence[Sequence[Fraction | int]]) -> bool:
    """Exact test for 0 in the relative interior of conv(points).

    Gale diagrams here are one- or two-dimensional, so this is a sign
    question. With u the first nonzero point: if every point lies on the
    line through 0 and u, the answer is whether u . q is positive for some
    point q and negative for another. Otherwise it is whether, for every
    nonzero p, the orientation cross(p, q) takes both signs, that is,
    no closed half-plane bounded by a line through 0 and a point holds
    all the points. No nonzero point means True; no point means False.
    Points of dimension above 2 raise DimensionMismatch.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        return False
    D = len(pts[0])
    if any(len(p) != D for p in pts):
        raise DimensionMismatch("gale points of unequal dimension")
    if D > 2:
        raise DimensionMismatch(f"gale points of dimension {D}, above 2")
    nonzero = [p for p in pts if any(p)]
    if not nonzero:
        return True
    u = nonzero[0]
    if D == 1 or all(_cross(u, q) == 0 for q in nonzero):
        return _both_signs([dot(u, q) for q in nonzero])
    return all(_both_signs([_cross(p, q) for q in nonzero]) for p in nonzero)


def _rank(points: Sequence[Point]) -> int:
    """Rank of points of dimension 1 or 2, with no elimination."""
    if any(len(p) == 2 and _cross(p, q) for p in points for q in points):
        return 2
    return int(any(map(any, points)))


def _cross(p: Point, q: Point) -> Fraction:
    return p[0] * q[1] - p[1] * q[0]


def _both_signs(values: list[Fraction]) -> bool:
    return any(v > 0 for v in values) and any(v < 0 for v in values)


def size_type(sizes: Sequence[int]) -> str:
    """Hull type I-IV from the equality pattern of sorted class sizes."""
    m1, m2, m3 = sizes
    if m1 < m2 < m3:
        return "I"
    if m1 < m2:
        return "II"
    if m2 < m3:
        return "III"
    return "IV"


def classify(s: IncidenceSystem, g: GaleDiagram) -> TypeReport:
    """Type I-IV from the equality pattern of sorted class sizes, and the
    hull's one pattern table.

    This is the one place that checks the class-level facts: the diagram
    must be constant on each class (DiagramMismatch otherwise), its class
    points must match the predicted shape exactly, and each class
    pattern's relint answer must match the closed-form criterion (see
    _class_patterns). Enumeration, the face counts and verification read
    the report and check none of this again.
    """
    m1, m2, m3 = s.coloring.class_sizes
    n = s.n
    cls_points: list[Point] = []
    for slot in range(3):
        pts = {g.points[j] for j in s.class_indices(slot)}
        if len(pts) != 1:
            raise DiagramMismatch(f"class {slot} is not constant in the Gale transform")
        cls_points.append(pts.pop())

    hull_type = size_type(s.coloring.class_sizes)
    k = Fraction(m3 - m1, m2 - m1) if hull_type == "I" else None

    if hull_type != "IV":
        if g.ambient != 1:
            raise DiagramMismatch(f"type {hull_type} diagram must be 1-dimensional")
        v1, v2, v3 = (p[0] for p in cls_points)

    if hull_type == "I":
        if v3 == 0 or v2 == 0:
            raise DiagramMismatch("type I admits no zero Gale value")
        # values are (1-k, k, -1) up to one nonzero scaling
        if v1 / v3 != k - 1 or v2 / v3 != -k:
            raise DiagramMismatch(
                f"type I value ratios ({v1}:{v2}:{v3}) off the (1-k, k, -1) pattern"
            )
        structure = f"T^{n}_{m2 - 1}"
    elif hull_type == "II":
        if v1 != 0 or v2 == 0 or v2 != -v3:
            raise DiagramMismatch(
                f"type II values ({v1}:{v2}:{v3}) off the (0, 1, -1) pattern"
            )
        structure = f"{m1}-fold {n}-pyramid over C({2 * m2},{2 * m2 - 2})"
    elif hull_type == "III":
        if v3 != 0 or v1 == 0 or v1 != -v2:
            raise DiagramMismatch(
                f"type III values ({v1}:{v2}:{v3}) off the (1, -1, 0) pattern"
            )
        structure = f"{m3}-fold {n}-pyramid over C({2 * m2},{2 * m2 - 2})"
    else:
        if g.ambient != 2:
            raise DiagramMismatch("type IV diagram must be 2-dimensional")
        p1, p2, p3 = cls_points
        if any(all(x == 0 for x in p) for p in cls_points):
            raise DiagramMismatch("type IV admits no zero Gale point")
        for a, b in combinations(cls_points, 2):
            if _cross(a, b) == 0:
                raise DiagramMismatch("type IV rays must be pairwise non-parallel")
        if any(p1[r] + p2[r] + p3[r] != 0 for r in range(2)):
            raise DiagramMismatch("type IV rays must sum to zero")
        structure = f"conv(w, {m2 - 1}-fold {n - 1}-pyramid over C({2 * m2},{2 * m2 - 2}))"

    return TypeReport(
        hull_type=hull_type,
        sorted_sizes=(m1, m2, m3),
        dim=hull_dimension(s),
        k=k,
        structure=structure,
        patterns=_class_patterns(s, g.ambient, hull_type, cls_points),
    )


def _closed_form(hull_type: str, held: int) -> bool:
    """Per-type face criterion on a proper subset's class pattern."""
    c1, c2, c3 = (bool(held >> i & 1) for i in range(3))
    if hull_type == "I":
        return not c2 and not (c1 and c3)
    if hull_type == "II":
        return c2 == c3
    if hull_type == "III":
        return c1 == c2
    return not (c1 or c2 or c3)


def _class_patterns(
    s: IncidenceSystem, ambient: int, hull_type: str, cls_points: Sequence[Point]
) -> PatternTable:
    """The pattern table of a diagram with one Gale point per sorted class.

    Per pattern, in order of its least subset so that errors name the
    first subset at fault, the relint coface route on the Gale points off
    it and the closed-form per-type criterion must agree. A face pattern
    has offset -1 - ambient + rank(Gale points off J), from
    dim aff(J) = |J| - 1 - ambient + rank(Gale points off J).
    """
    smasks = [sum(1 << j for j in s.class_indices(slot)) for slot in range(3)]
    least = [sum(smasks[i] for i in range(3) if held >> i & 1) for held in range(7)]
    off = [[cls_points[i] for i in range(3) if not held >> i & 1] for held in range(7)]

    offset: list[Optional[int]] = [None] * 7
    for held in sorted(range(7), key=least.__getitem__):
        by_relint = relint_contains_zero(off[held])
        by_formula = _closed_form(hull_type, held)
        if by_relint != by_formula:
            raise CriterionMismatch(
                f"subset {least[held]:b}: relint says {by_relint}, "
                f"type {hull_type} criterion says {by_formula}"
            )
        if by_formula:
            offset[held] = -1 - ambient + _rank(off[held])
    return PatternTable(tuple(least), tuple(map(frozenset, off)), tuple(offset))


def _half_patterns(smasks: Sequence[int], shift: int, width: int) -> list[int]:
    """Entry h has bit i set when the half mask h, standing for bits
    shift .. shift + width - 1, holds the part of class i in those bits;
    a class with no vertex there counts as held."""
    parts = [m >> shift & ((1 << width) - 1) for m in smasks]
    c1, c2, c3 = ([h & p == p for h in range(1 << width)] for p in parts)
    return [a | b << 1 | c << 2 for a, b, c in zip(c1, c2, c3)]


def _require_vertex_cap(s: IncidenceSystem) -> None:
    """Refuse a hull of more than ANALYSIS_VERTEX_CAP vertices."""
    npts = s.n + 2
    if npts > ANALYSIS_VERTEX_CAP:
        raise TooManyPoints(f"{npts} hull vertices exceeds cap {ANALYSIS_VERTEX_CAP}")


def grade_anchors(s: IncidenceSystem, t: TypeReport) -> None:
    """Grade the least face with each distinct Gale support (classes may
    share a point) by exact affine rank, which must equal its grade in the
    table t.patterns. The analysis runs this once, after classify: for
    analyze, ANALYSIS_VERTEX_CAP bounds only these exact ranks."""
    _require_vertex_cap(s)
    table = t.patterns
    anchored: set[frozenset[Point]] = set()
    for held in sorted(range(7), key=table.least.__getitem__):
        if table.offset[held] is None or table.support[held] in anchored:
            continue
        anchored.add(table.support[held])
        mask = table.least[held]
        dim = mask.bit_count() + table.offset[held]
        exact = affine_dimension([s.vectors[j] for j in members(mask)])
        if exact != dim:
            raise CriterionMismatch(
                f"subset {mask:b} of sizes {t.sorted_sizes}: Gale rank "
                f"grades it dim {dim}, exact affine rank says {exact}"
            )


def enumerate_faces(s: IncidenceSystem, g: GaleDiagram, t: TypeReport) -> FaceLattice:
    """All faces of the hull, built one high half mask at a time.

    classify checked that the diagram g is constant on classes, so a
    proper subset's face status and dimension depend only on its pattern
    in the table t.patterns, which grade_anchors cross-checks by exact
    rank. A subset holds a class when both halves of its mask, split at
    bit low = (n+2) // 2, hold their parts of it, so its pattern is the
    AND of the patterns of its two halves. Per high half pattern one row
    lists the low halves that complete a face, with their dimensions; a
    high half adds its popcount to them and its bits to the keys, in
    ascending mask order. The table holds every Gale point this needs; g
    stays a parameter because perfbench/spans.py reads the diagram off
    this call to count supports.
    """
    _require_vertex_cap(s)  # bounds the 2^(n+2) face dict
    npts = s.n + 2
    table = t.patterns
    offset = table.offset
    full = (1 << npts) - 1
    low = npts // 2
    smasks = table.least[1], table.least[2], table.least[4]
    lows = _half_patterns(smasks, 0, low)
    highs = _half_patterns(smasks, low, npts - low)
    # pattern 7 holds every class, which only the full mask does: it comes last
    by_pattern = (*offset, None)
    rows = {}  # high half pattern -> (low halves completing a face, their dims)
    for high in set(highs):
        keys = [lo for lo, pattern in enumerate(lows) if by_pattern[high & pattern] is not None]
        rows[high] = keys, [lo.bit_count() + by_pattern[high & lows[lo]] for lo in keys]
    shifted: dict[tuple[int, int], list[int]] = {}  # (high pattern, popcount) -> dims
    faces: dict[int, int] = {}
    for h, high in enumerate(highs):
        keys, dims = rows[high]
        count = h.bit_count()
        if (high, count) not in shifted:
            shifted[high, count] = [d + count for d in dims]
        base = h << low
        if len(keys) == len(lows):  # every low half completes a face
            keys = range(base, base + len(lows))
        else:
            keys = map(base.__or__, keys)
        faces.update(zip(keys, shifted[high, count]))

    # hull_dimension's certificate (IncidenceSystem.dependency_roots) pinned t.dim
    faces[full] = t.dim
    return FaceLattice(dim=t.dim, top=full, faces=faces)


def _subsets_by_size(m: int, held: bool) -> list[int]:
    """Coefficients of x^m (the whole class) or sum_{a<m} C(m, a) x^a
    (any part of it short of the whole)."""
    return [0] * m + [1] if held else [comb(m, a) for a in range(m)]


def _times(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def pattern_counts(t: TypeReport) -> tuple[tuple[int, ...], bool, int]:
    """The hull's f-vector, simpliciality and neighborliness, counted from
    the pattern table t.patterns with no pass over the faces.

    The subsets of a pattern are counted by size by the product of one
    _subsets_by_size polynomial per sorted class. Each subset of size |J|
    of a face pattern with offset o is a face of dimension |J| + o, so the
    hull is simplicial iff every face pattern that reaches dimensions
    0 .. d-1 has o = -1. Every k-subset is a face for k below the smallest
    non-face, the least subset of a non-face pattern; neighborliness is
    one less than that, and at most f0 - 1. Types I and IV must be
    simplicial, II and III must not (TheoremViolation otherwise).
    """
    table = t.patterns
    sizes = [table.least[1 << i].bit_count() for i in range(3)]
    counts = [0] * t.dim
    simplicial = True
    nonfaces = []
    for held, o in enumerate(table.offset):
        if o is None:
            nonfaces.append(table.least[held].bit_count())
            continue
        by_size = reduce(_times, (_subsets_by_size(m, held >> i & 1) for i, m in enumerate(sizes)))
        for size, count in enumerate(by_size):
            if count and 0 <= size + o < t.dim:
                counts[size + o] += count
                simplicial = simplicial and o == -1
    if simplicial != (t.hull_type in ("I", "IV")):
        raise TheoremViolation(f"type {t.hull_type} hull has simpliciality {simplicial}")
    return tuple(counts), simplicial, min([counts[0], *nonfaces]) - 1


def fvector(lattice: FaceLattice) -> tuple[int, ...]:
    """Face counts by dimension 0 .. d-1."""
    counts = [0] * lattice.dim
    for _, d in lattice.faces.items():
        if 0 <= d < lattice.dim:
            counts[d] += 1
    return tuple(counts)


def simpliciality_check(lattice: FaceLattice) -> bool:
    """True iff every proper face is a simplex (|J| == dim + 1)."""
    return all(
        f.bit_count() == d + 1 for f, d in lattice.faces.items() if 0 <= d < lattice.dim
    )


def neighborliness(lattice: FaceLattice) -> int:
    """Largest k such that every k-subset of hull vertices is a face.

    The faces inside the vertex set are distinct subsets of it, so all
    k-subsets are faces exactly when C(|V|, k) faces have k vertices.
    """
    verts = lattice.vertex_indices
    vmask = sum(1 << v for v in verts)
    inside = lattice.faces
    if vmask != lattice.top:  # some points are not vertices
        inside = [f for f in inside if f & vmask == f]
    by_size = Counter(map(int.bit_count, inside))
    best = 0
    for k in range(1, len(verts)):
        if by_size[k] != comb(len(verts), k):
            break
        best = k
    return best


def lattice_to_json(lattice: FaceLattice) -> dict:
    """Deterministic JSON form of a face lattice, for dumps and golden tests."""
    return {
        "dim": lattice.dim,
        "faces": [
            {"vertices": members(f), "dim": d}
            for f, d in sorted(
                lattice.faces.items(), key=lambda kv: (kv[1], members(kv[0]))
            )
        ],
    }
