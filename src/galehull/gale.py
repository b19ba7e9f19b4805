"""Incidence vectors, hull dimension, the hull model of the class sizes,
the Gale transform and face enumeration via the coface criterion.

The n+2 face-vertex indicator vectors of a 3-face-colorable simple
3-polytope have rank n and span a hull of dimension n-1 (all color
classes equal) or n, certified from the color classes in linear time
(IncidenceSystem.dependency_roots). The Gale diagram is therefore
one point per class, in one or two dimensions (GaleDiagram), and it
pins the full face lattice: a vertex subset J is a proper face exactly
when zero lies in the relative interior of the convex hull of the
complementary Gale points, which depend only on the classes J holds in
full. So every fact of the hull but its class membership is a function of
the sorted class sizes (m1, m2, m3), and hull_model builds them in one
place (HullModel): the type, dimension and structure, the free sum of
simplices the hull is a pyramid over, the diagram in normal form, and
the table of the 7 class patterns, each cross-checked against the free
sum's face criterion; a disagreement raises, it is never a tolerated
outcome. The f-vector, simpliciality and neighborliness are counted
from that table, with no pass over the faces. The polytope supplies the
rest: the class membership, the face order that gale_transform scales
the model's diagram to, and the certificates (the rank, and the anchors
that grade_anchors checks by exact rank). A subset holds a class when
both halves of its vertex mask hold their parts of it, so enumeration
tests no mask on its own: it joins one table row of low halves to each
high half. subset_table folds a value per point over every subset of a
half; the enumeration and the oracle read all their masks through two
such tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import comb
from operator import or_
from typing import Callable, Optional, Sequence

from .errors import (
    BadParameters,
    CriterionMismatch,
    DimensionMismatch,
    TheoremViolation,
    TooManyPoints,
)
from .linalg import affine_dimension, dot, primitive_vector
from .polytopes import FaceColoring, PlanarPolytope

ANALYSIS_VERTEX_CAP = 24  # hull vertices (= faces of the input polytope)
# Faces of the input, for validation, coloring and the rank and Gale
# certificates, all linear in the vertices: at 1000 faces (prism:998),
# analyze refuses at the vertex cap after 0.093-0.105 s and 17.7 MB, against
# 0.087-0.096 s and 16.5 MB for the cube (9 fresh processes, peak RSS through
# os.wait4; 2-vCPU Xeon, Python 3.11.7).
INCIDENCE_FACE_CAP = 1000

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class IncidenceSystem:
    """The n+2 face-vertex incidences of a validated polytope."""

    polytope: PlanarPolytope
    coloring: FaceColoring

    @property
    def n(self) -> int:
        return self.polytope.n

    def class_indices(self, slot: int) -> tuple[int, ...]:
        return self.coloring.class_members(slot)

    @cached_property
    def slots(self) -> tuple[int, ...]:
        """Face -> its sorted class slot."""
        return tuple(map(self.coloring.slot_colors.index, self.coloring.colors))

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The indicator vectors, in face input order, built on first read.
        Only the exact routes read them, under ANALYSIS_VERTEX_CAP or POINT_CAP."""
        vectors = []  # row by row: all rows as lists and as tuples at once double the peak
        for face in self.polytope.faces:
            vec = [0] * self.polytope.num_vertices
            for v in face:
                vec[v] = 1
            vectors.append(tuple(vec))
        return tuple(vectors)

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
        columns: list[list[int]] = [[], [], []]  # slot -> per vertex, its face of the slot
        for v, (a, b, c) in enumerate(self.polytope.vertex_faces):
            sa, sb, sc = slots[a], slots[b], slots[c]
            if sa == sb or sa == sc or sb == sc:
                raise TheoremViolation(f"vertex {v} is not on one face of each class")
            columns[sa].append(a)
            columns[sb].append(b)
            columns[sc].append(c)
        parent = list(range(self.n + 2))

        def root(j: int) -> int:
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            return j

        for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            third: dict[tuple[int, int], int] = {}
            for pair, face in zip(zip(columns[i], columns[j]), columns[k]):
                f = third.setdefault(pair, face)
                if f != face:
                    parent[root(f)] = root(face)
        return tuple(map(root, range(len(parent))))

    @property
    def incidence_rank(self) -> int:
        return self.n + 3 - len(set(self.dependency_roots))


@dataclass(frozen=True)
class GaleDiagram:
    """A Gale diagram constant on color classes: one point per sorted
    class slot, and per hull vertex the slot of its face. The per-vertex
    points and their primitive integer directions are views of these."""

    class_points: tuple[Point, Point, Point]   # sorted class slot -> its point
    slots: tuple[int, ...]                     # hull vertex -> its sorted class slot

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(self.class_points.__getitem__, self.slots))

    @cached_property
    def normalized(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer directions, one primitive_vector per class."""
        per_class = tuple(map(primitive_vector, self.class_points))
        return tuple(map(per_class.__getitem__, self.slots))


@dataclass(frozen=True)
class HullModel:
    """Every fact of the hull that depends only on the sorted class sizes
    m1 <= m2 <= m3: what hull_model builds. The class points are the Gale
    diagram in normal form, one per sorted class. A pattern is a set of
    sorted classes, bit i set when a vertex subset holds class i in full,
    so the classes of sizes m1, m2, m3 are the patterns 1, 2 and 4. The
    hull is a pyramid over a free sum of simplices (Gruenbaum, Convex
    Polytopes, 6.1 and 6.3): one simplex on the classes of each pattern in
    summands, and one apex per vertex of the classes of apexes."""

    hull_type: str                          # "I" | "II" | "III" | "IV"
    sizes: tuple[int, int, int]
    dim: int
    k: Optional[Fraction]                   # type I only
    structure: str
    summands: tuple[int, ...]               # the free sum's simplices, as patterns
    apexes: int                             # the pyramid's apexes, as a pattern
    class_points: tuple[Point, Point, Point]
    support: tuple[frozenset[Point], ...]   # pattern -> class points off it
    offset: tuple[Optional[int], ...]       # pattern -> dim(J) - |J|, None off the faces

    @property
    def ambient(self) -> int:
        return len(self.class_points[0])

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], bool, int]:
        """The f-vector, simpliciality and neighborliness, counted from the
        pattern table on first read, with no pass over the faces.

        The subsets of a pattern are counted by size by the product of one
        _subsets_by_size polynomial per sorted class. Each subset of size
        |J| of a face pattern with offset o is a face of dimension |J| + o,
        so the hull is simplicial iff every face pattern that reaches
        dimensions 0 .. d-1 has o = -1. Every k-subset is a face for k below
        the smallest non-face, the least subset of a non-face pattern;
        neighborliness is one less than that, and at most f0 - 1. The hull
        must be simplicial exactly when it is no pyramid (TheoremViolation
        otherwise).
        """
        counts = [0] * self.dim
        simplicial = True
        nonfaces = []
        for held, o in enumerate(self.offset):
            if o is None:
                nonfaces.append(sum(m for i, m in enumerate(self.sizes) if held >> i & 1))
                continue
            by_size = reduce(
                _times, (_subsets_by_size(m, held >> i & 1) for i, m in enumerate(self.sizes))
            )
            for size, count in enumerate(by_size):
                if count and 0 <= size + o < self.dim:
                    counts[size + o] += count
                    simplicial = simplicial and o == -1
        if simplicial != (not self.apexes):
            raise TheoremViolation(f"type {self.hull_type} hull has simpliciality {simplicial}")
        return tuple(counts), simplicial, min([counts[0], *nonfaces]) - 1

    @property
    def fvector(self) -> tuple[int, ...]:
        return self.counts[0]

    @property
    def simplicial(self) -> bool:
        return self.counts[1]

    @property
    def neighborly(self) -> int:
        return self.counts[2]


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope as vertex bitmasks (bit j set when vertex j
    lies on the face) with exact dimensions, including the empty face 0
    (dim -1) and the full polytope `top` (dim d). The oracle also lists
    the facets it found; other builders leave `facets` empty."""

    dim: int
    top: int
    faces: dict[int, int]
    facets: tuple[int, ...] = field(default=(), compare=False)

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        get = self.faces.get
        return tuple(j for j in range(self.top.bit_length()) if get(1 << j) == 0)

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], bool, int]:
        """histogram_counts of one walk over the faces, on first read."""
        vmask, faces = sum(1 << v for v in self.vertex_indices), self.faces
        if vmask == self.top:
            hist = Counter(zip(map(int.bit_count, faces), faces.values()))
        else:  # some points are not vertices
            hist = Counter(
                (-(f & vmask).bit_count() if f & ~vmask else f.bit_count(), d)
                for f, d in faces.items()
            )
        return histogram_counts(hist, self.dim)


def histogram_counts(hist: Counter, dim: int) -> tuple[tuple[int, ...], bool, int]:
    """The counts off the faces by (vertex count, dim), a face through a point
    that is no vertex by its vertices negated. The top face holds all vertices
    V, and all k-subsets of V are faces iff C(|V|, k) faces in V have k points."""
    fvector, by_size, neighborly = [0] * dim, Counter(), 0
    nverts = max((abs(k) for k, d in hist if d == dim), default=0)
    for (k, d), count in hist.items():
        by_size[k] += count
        if 0 <= d < dim:
            fvector[d] += count
    while neighborly + 1 < nverts and by_size[neighborly + 1] == comb(nverts, neighborly + 1):
        neighborly += 1
    simplicial = all(abs(k) == d + 1 for k, d in hist if 0 <= d < dim)
    return tuple(fvector), simplicial, neighborly


def members(mask: int) -> list[int]:
    """The vertex indices of a face bitmask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def subset_table(values: Sequence[int], op: Callable[[int, int], int], unit: int) -> list[int]:
    """Entry h folds op over values[i] for the set bits i of h, starting
    from unit: the table doubles once per value."""
    table = [unit]
    for x in values:
        table += [op(t, x) for t in table]
    return table


def require_face_cap(faces: int) -> None:
    """Refuse an input of more than INCIDENCE_FACE_CAP faces. The CLI asks
    this of a face count before it builds or validates anything."""
    if faces > INCIDENCE_FACE_CAP:
        raise TooManyPoints(f"{faces} faces exceeds cap {INCIDENCE_FACE_CAP}")


def incidence_system(p: PlanarPolytope, c: FaceColoring) -> IncidenceSystem:
    """The incidences of p, their rank n certified in linear time."""
    require_face_cap(p.n + 2)
    s = IncidenceSystem(p, c)
    if s.incidence_rank != p.n:
        raise TheoremViolation(f"incidence rank != n = {p.n}")
    return s


def hull_dimension(s: IncidenceSystem) -> int:
    """Affine dimension of the hull, certified by s.dependency_roots.

    The affine dependencies are the dependencies of coefficient sum zero,
    which weighs each component of s.dependency_roots by its size: a
    multiple of the one-vertex sum only for three components of equal
    size. So the dimension is the incidence rank, less one in that case.
    """
    sizes = Counter(s.dependency_roots).values()
    return s.incidence_rank - (len(sizes) == 3 and len(set(sizes)) == 1)


def gale_transform(s: IncidenceSystem, model: HullModel) -> GaleDiagram:
    """The model's Gale diagram, scaled to the face order of s.

    The certified dimension must be model.dim (TheoremViolation
    otherwise). Its certificate (s.dependency_roots) puts every vertex on
    one face of each class, so the class-constant x = (y1, y2, y3) with
    y1 + y2 + y3 = 0 = m1 y1 + m2 y2 + m3 y3 are affine dependencies of
    the hull vertices, and the dimension proves they span the whole null
    space. The points are those of the canonical basis that
    rref_gale_points reads, whose free columns are the last faces of the
    classes, latest first: a 1 at each free column, 0 at the other. For
    unequal sizes that divides the model's values by the value at the
    latest class whose value is not zero; for equal sizes it places the
    model's three points in free-column order. Either way the diagram is
    the model's under one invertible linear map, which changes no relint
    answer and no Gale rank.
    """
    d = hull_dimension(s)  # pins the null-space dimension to the basis length
    if d != model.dim:
        raise TheoremViolation(
            f"hull dimension {d} but class sizes {model.sizes} demand {model.dim}"
        )
    last = {slot: j for j, slot in enumerate(s.slots)}
    latest_first = sorted(last, key=last.get, reverse=True)
    y = model.class_points
    if model.ambient == 2:
        placed = dict(zip(latest_first, y))
        class_points = tuple(placed[slot] for slot in range(3))
    else:
        div = next(y[slot][0] for slot in latest_first if y[slot][0])
        class_points = tuple((p / div,) for (p,) in y)
    return GaleDiagram(class_points=class_points, slots=s.slots)


def rref_gale_points(base: list[int], table: list[tuple[int, ...]]) -> tuple[Point, ...]:
    """The Gale points by elimination: rows of the canonical null-space
    basis of the homogenized vertex matrix, one vector per free column in
    increasing order. (base, table) is affine_coordinates of the vertices:
    the table is that matrix's RREF times table[base[0]][0], so a free
    point's row is a unit vector and base point i's row holds
    -table[f][i] over that multiple at each free column f. The
    elimination, cubic in n, is the one verification runs for its oracle
    too; this reads it as an independent cross-check of gale_transform."""
    scale = table[base[0]][0]
    slot = dict(zip(base, range(len(base))))
    free = [f for f in range(len(table)) if f not in slot]
    return tuple(
        tuple(Fraction(-table[f][slot[j]], scale) for f in free)
        if j in slot
        else tuple(Fraction(f == j) for f in free)
        for j in range(len(table))
    )


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
    pts = [tuple(x if isinstance(x, int) else Fraction(x) for x in p) for p in points]
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


def _rank(points: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of points of dimension 1 or 2, with no elimination."""
    if any(len(p) == 2 and _cross(p, q) for p in points for q in points):
        return 2
    return int(any(map(any, points)))


def _cross(p: Sequence[Fraction | int], q: Sequence[Fraction | int]) -> Fraction | int:
    return p[0] * q[1] - p[1] * q[0]


def _both_signs(values: list[Fraction]) -> bool:
    return any(v > 0 for v in values) and any(v < 0 for v in values)


def hull_model(sizes: Sequence[int]) -> HullModel:
    """The hull model of sorted class sizes 2 <= m1 <= m2 <= m3
    (BadParameters otherwise): type I-IV from the equality pattern of the
    sizes, its free sum and apexes, the Gale diagram in normal form, and
    the pattern table.

    Each type is one row: type I is T^n_{m2-1}, the free sum of a simplex
    on class 2 and one on classes 1 and 3; types II and III are the m1- and
    m3-fold pyramids over C(2 m2, 2 m2 - 2), the free sum of two
    (m2 - 1)-simplices; type IV is the free sum of three (m - 1)-simplices.
    The normal form is y = (m3 - m2, m1 - m3, m2 - m1), one value per
    class, the paper's (1 - k, k, -1) times m1 - m2 for type I, or
    (0, 1), (1, 0), (-1, -1) when all sizes are equal. Per pattern, the
    relint coface route on the class points off it and the free sum must
    agree: a proper pattern is a face iff it holds no summand in full or
    every summand in full (CriterionMismatch names the sizes and the
    pattern otherwise). A face pattern has offset
    -1 - ambient + rank(points off J), from dim aff(J) = |J| - 1 - ambient
    + rank(Gale points off J). The hull dimension is the Gale dual's,
    N - 1 - ambient for N hull vertices. Every valid input has
    m3 <= m1 + m2 - 2, but the model does not need it and does not ask.
    """
    sizes = tuple(sizes)
    if len(sizes) != 3 or not 2 <= sizes[0] <= sizes[1] <= sizes[2]:
        raise BadParameters(
            f"hull model needs sorted class sizes 2 <= m1 <= m2 <= m3, got {sizes}"
        )
    m1, m2, m3 = sizes
    n = m1 + m2 + m3 - 2
    if m1 == m2 == m3:
        hull_type, values = "IV", ((0, 1), (1, 0), (-1, -1))
    else:
        hull_type = "I" if m1 < m2 < m3 else "II" if m1 < m2 else "III"
        values = ((m3 - m2,), (m1 - m3,), (m2 - m1,))
    cyclic = f"C({2 * m2},{2 * m2 - 2})"
    summands, apexes, structure = {
        "I": ((0b010, 0b101), 0, f"T^{n}_{m2 - 1}"),
        "II": ((0b010, 0b100), 0b001, f"{m1}-fold {n}-pyramid over {cyclic}"),
        "III": ((0b001, 0b010), 0b100, f"{m3}-fold {n}-pyramid over {cyclic}"),
        "IV": (
            (0b001, 0b010, 0b100), 0, f"conv(w, {m2 - 1}-fold {n - 1}-pyramid over {cyclic})"
        ),
    }[hull_type]
    points = tuple(tuple(map(Fraction, p)) for p in values)
    ambient = len(points[0])
    support, offset = [], []
    for held in range(7):
        off = [i for i in range(3) if not held >> i & 1]
        ints = [values[i] for i in off]  # relint and _rank read the int values
        by_relint = relint_contains_zero(ints)
        full = [held & s == s for s in summands]
        by_free_sum = not any(full) or all(full)
        if by_relint != by_free_sum:
            raise CriterionMismatch(
                f"sizes {sizes}, pattern {held}: relint says {by_relint}, "
                f"type {hull_type} criterion says {by_free_sum}"
            )
        support.append(frozenset(points[i] for i in off))
        offset.append(-1 - ambient + _rank(ints) if by_free_sum else None)
    return HullModel(
        hull_type=hull_type,
        sizes=sizes,
        dim=n + 1 - ambient,
        k=Fraction(m3 - m1, m2 - m1) if hull_type == "I" else None,
        structure=structure,
        summands=summands,
        apexes=apexes,
        class_points=points,
        support=tuple(support),
        offset=tuple(offset),
    )


def _require_vertex_cap(s: IncidenceSystem) -> None:
    """Refuse a hull of more than ANALYSIS_VERTEX_CAP vertices."""
    npts = s.n + 2
    if npts > ANALYSIS_VERTEX_CAP:
        raise TooManyPoints(f"{npts} hull vertices exceeds cap {ANALYSIS_VERTEX_CAP}")


def grade_anchors(s: IncidenceSystem, model: HullModel) -> None:
    """Grade the least face with each distinct Gale support (classes may
    share a point) by exact affine rank, which must equal its grade in the
    model's pattern table. The least face of a pattern is the union of the
    classes of s it holds. The analysis runs this once, after the Gale
    transform: for analyze, ANALYSIS_VERTEX_CAP bounds only these exact
    ranks."""
    _require_vertex_cap(s)
    smasks = [sum(1 << j for j in s.class_indices(slot)) for slot in range(3)]
    least = [sum(smasks[i] for i in range(3) if held >> i & 1) for held in range(7)]
    anchored: set[frozenset[Point]] = set()
    for held in sorted(range(7), key=least.__getitem__):
        if model.offset[held] is None or model.support[held] in anchored:
            continue
        anchored.add(model.support[held])
        mask = least[held]
        dim = mask.bit_count() + model.offset[held]
        exact = affine_dimension([s.vectors[j] for j in members(mask)])
        if exact != dim:
            raise CriterionMismatch(
                f"subset {mask:b} of sizes {model.sizes}: Gale rank "
                f"grades it dim {dim}, exact affine rank says {exact}"
            )


def _face_rows(s: IncidenceSystem, model: HullModel):
    """The split bit, each high half's pattern and per pattern one row: the low
    halves that complete a face, and their dims. A half mask h holds a class with
    no bit in the half's complement of h; pattern 7 is the full mask's alone."""
    _require_vertex_cap(s)  # bounds the 2^(n+2) faces the rows stand for
    low = (s.n + 2) // 2
    bits = [1 << slot for slot in s.slots]
    lows, highs = (
        [7 & ~t for t in reversed(subset_table(half, or_, 0))] for half in (bits[:low], bits[low:])
    )
    by_pattern = (*model.offset, None)
    rows = {}  # high half pattern -> (low halves completing a face, their dims)
    for high in set(highs):
        keys = [lo for lo, pattern in enumerate(lows) if by_pattern[high & pattern] is not None]
        rows[high] = keys, [lo.bit_count() + by_pattern[high & lows[lo]] for lo in keys]
    return low, highs, rows


def enumerate_faces(s: IncidenceSystem, g: GaleDiagram, model: HullModel) -> FaceLattice:
    """All faces of the hull, built one high half mask at a time.

    The diagram g is the model's under a linear map, constant on classes,
    so a proper subset's face status and dimension depend only on its
    pattern in the model's table, which grade_anchors cross-checks by
    exact rank. A subset holds a class when both halves of its mask, split
    at bit low = (n+2) // 2, hold their parts of it, so its pattern is the
    AND of the patterns of its two halves. A high half adds its popcount to
    its pattern's _face_rows row and its bits to the keys, in ascending mask
    order. The table holds every Gale point this needs; g stays a parameter
    because perfbench/spans.py reads the diagram off this call to count
    supports.
    """
    low, highs, rows = _face_rows(s, model)
    full = (1 << (s.n + 2)) - 1
    shifted: dict[tuple[int, int], list[int]] = {}  # (high pattern, popcount) -> dims
    faces: dict[int, int] = {}
    for h, high in enumerate(highs):
        keys, dims = rows[high]
        count = h.bit_count()
        if (high, count) not in shifted:
            shifted[high, count] = [d + count for d in dims]
        base = h << low
        if len(keys) == 1 << low:  # every low half completes a face
            keys = range(base, base + len(keys))
        else:
            keys = map(base.__or__, keys)
        faces.update(zip(keys, shifted[high, count]))

    # gale_transform pinned model.dim to hull_dimension's certificate
    faces[full] = model.dim
    return FaceLattice(dim=model.dim, top=full, faces=faces)


def criterion_counts(s: IncidenceSystem, model: HullModel) -> tuple[tuple[int, ...], bool, int]:
    """histogram_counts of enumerate_faces' lattice in 2^((n+2)/2) work: each
    row's histogram shifted by a high half's popcount in vertex count and dim,
    weighted by the high halves of that pattern and popcount, and the top face."""
    _, highs, rows = _face_rows(s, model)
    by_row = {h: Counter(zip(map(int.bit_count, keys), dims)) for h, (keys, dims) in rows.items()}
    hist = Counter({(s.n + 2, model.dim): 1})
    for (high, count), times in Counter(zip(highs, map(int.bit_count, range(len(highs))))).items():
        for (k, d), faces in by_row[high].items():
            hist[k + count, d + count] += faces * times
    return histogram_counts(hist, model.dim)


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


def fvector(lattice: FaceLattice) -> tuple[int, ...]:
    """Face counts by dimension 0 .. d-1."""
    return lattice.counts[0]


def simpliciality_check(lattice: FaceLattice) -> bool:
    """True iff every proper face has dim + 1 vertices (not points)."""
    return lattice.counts[1]


def neighborliness(lattice: FaceLattice) -> int:
    """Largest k such that every k-subset of hull vertices is a face."""
    return lattice.counts[2]
