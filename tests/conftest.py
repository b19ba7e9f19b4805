from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, compress, islice, repeat
from math import comb, gcd, lcm
from operator import add, and_, getitem, ne, or_, rshift
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, TypeVar

import pytest
from hypothesis import strategies as st

from galehull import analyze_polytope, catalog, relint_contains_zero, validate
from galehull.errors import (
    BadEdge,
    BadInput,
    BadParameters,
    CriterionMismatch,
    DegenerateFace,
    DegenerateInput,
    DimensionMismatch,
    Disconnected,
    EulerViolation,
    NotCubic,
    NotThreeColorable,
    StructureMismatch,
    TheoremViolation,
    TooManyPoints,
)
from galehull.gale import (
    ANALYSIS_VERTEX_CAP,
    FaceLattice,
    HullModel,
    _times,
    members,
    subset_table,
)
from galehull.linalg import (
    affine_coordinates,
    affine_dimension,
    dot,
    null_vector,
    pivot_columns,
    rank,
)
from galehull.oracle import _check_points, _facet_supports
from galehull.polytopes import FaceColoring

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


@pytest.fixture(scope="session")
def cube():
    return catalog("cube")


@pytest.fixture(scope="session")
def prism6():
    return catalog("prism", 6)


@pytest.fixture(scope="session")
def prism8():
    return catalog("prism", 8)


@pytest.fixture(scope="session")
def trunc_oct():
    return catalog("truncated-octahedron")


@pytest.fixture(scope="session")
def cube_analysis(cube):
    return analyze_polytope(cube)


@pytest.fixture(scope="session")
def prism6_analysis(prism6):
    return analyze_polytope(prism6)


@pytest.fixture(scope="session")
def prism8_analysis(prism8):
    return analyze_polytope(prism8)


@pytest.fixture(scope="session")
def trunc_oct_analysis(trunc_oct):
    return analyze_polytope(trunc_oct)


def _sizes_by_type(n_max: int) -> dict[str, list[tuple[int, int, int]]]:
    """Every sorted class-size triple with n <= n_max that gen can glue."""
    out: dict[str, list[tuple[int, int, int]]] = {}
    for total in range(6, n_max + 3):
        for m1 in range(2, total // 3 + 1):
            for m2 in range(m1, (total - m1) // 2 + 1):
                sizes = (m1, m2, total - m1 - m2)
                if gen.plans(sizes):
                    out.setdefault(gen.hull_type(sizes), []).append(sizes)
    return out


def gluings(sizes_by_type):
    return st.builds(
        lambda sizes, seed: gen.glued(random.Random(seed), sizes),
        st.sampled_from(sorted(sizes_by_type)).flatmap(
            lambda t: st.sampled_from(sizes_by_type[t])
        ),
        st.integers(0, 2**16),
    )


UP_TO_14 = _sizes_by_type(14)

# past ANALYSIS_VERTEX_CAP: prisms and the analyze-large gluings, n = 24 to 70
OVER_CAP = [
    ("prism:24", lambda: catalog("prism", 24)),
    ("prism:998", lambda: catalog("prism", 998)),
    *(
        (f"glued-{m1}.{m2}.{m3}", lambda m=(m1, m2, m3): validate(gen.glued(random.Random(1), m).faces))
        for m1, m2, m3 in ((20, 22, 24), (20, 26, 26), (22, 22, 26), (24, 24, 24))
    ),
]


# The front end as it was before validate counted edges by int key and
# three_color checked the colors per vertex, kept verbatim as the reference
# of the differential test in test_polytopes.py. validate_by_sorted_edges
# returns a namespace with the fields that PlanarPolytope has, plus the
# edges and face adjacency that polytope_edges and face_adjacency read off it.

def validate_by_sorted_edges(raw: Sequence[Sequence[int]]) -> SimpleNamespace:
    """Check the polyhedral-map axioms and build derived structures."""
    if not isinstance(raw, (list, tuple)):
        raise BadInput("faces must be a list of vertex-id lists")
    if not raw:
        raise DegenerateFace("no faces given")
    faces = []
    for idx, cycle in enumerate(raw):
        if not isinstance(cycle, (list, tuple)):
            raise BadInput(f"face {idx} is not a list of vertex ids")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in cycle):
            raise BadInput(f"face {idx} has a vertex id that is not an integer")
        cyc = tuple(cycle)
        if len(cyc) < 3:
            raise DegenerateFace(f"face {idx} has fewer than 3 vertices")
        if len(set(cyc)) != len(cyc):
            raise DegenerateFace(f"face {idx} repeats a vertex")
        if any(v < 0 for v in cyc):
            raise DegenerateFace(f"face {idx} has a negative vertex id")
        faces.append(cyc)

    num_vertices = max(max(f) for f in faces) + 1
    incidences = sum(len(f) for f in faces)
    if num_vertices > incidences:
        raise NotCubic(
            f"vertex ids run to {num_vertices - 1}, but the faces have only "
            f"{incidences} vertex slots, so some vertex lies on no face"
        )
    edge_faces: dict[frozenset[int], list[int]] = {}
    for i, f in enumerate(faces):
        for j, v in enumerate(f):
            edge_faces.setdefault(frozenset((v, f[(j + 1) % len(f)])), []).append(i)
    for e, owners in sorted(edge_faces.items(), key=lambda kv: sorted(kv[0])):
        if len(owners) != 2 or owners[0] == owners[1]:
            u, v = sorted(e)
            raise BadEdge(f"edge ({u},{v}) lies in faces {owners}, expected exactly 2")

    vertex_faces: list[list[int]] = [[] for _ in range(num_vertices)]
    for i, f in enumerate(faces):
        for v in f:
            vertex_faces[v].append(i)
    for v, owners in enumerate(vertex_faces):
        if len(owners) != 3:
            raise NotCubic(f"vertex {v} lies on {len(owners)} faces, expected 3")

    V, E, F = num_vertices, len(edge_faces), len(faces)
    if V - E + F != 2 or 2 * E != 3 * V:
        raise EulerViolation(f"V={V} E={E} F={F}: V-E+F={V - E + F}, 2E-3V={2 * E - 3 * V}")
    n = V // 2
    if F != n + 2 or n < 2:
        raise EulerViolation(f"face count {F} differs from n+2={n + 2}")

    adjacency = [set() for _ in range(F)]
    for a, b in edge_faces.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    nbrs: dict[int, list[int]] = {v: [] for v in range(V)}
    for u, v in edge_faces:
        nbrs[u].append(v)
        nbrs[v].append(u)
    p = SimpleNamespace(
        faces=tuple(faces),
        n=n,
        num_vertices=V,
        edges=frozenset(edge_faces),
        vertex_faces=tuple(tuple(sorted(o)) for o in vertex_faces),
        adjacency=tuple(frozenset(a) for a in adjacency),
        skeleton={v: sorted(s) for v, s in nbrs.items()},
    )

    seen, stack = {0}, [0]
    while stack:
        for w in p.skeleton[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != V:
        raise Disconnected(f"1-skeleton has {V - len(seen)} unreachable vertices")
    return p


def three_color_by_adjacency(p) -> FaceColoring:
    """The proper face 3-coloring by propagation, checked over every pair
    of adjacent faces at the end."""
    colors = [0] * len(p.faces)
    start = p.faces[0][0]
    for label, f in enumerate(p.vertex_faces[start], 1):
        colors[f] = label
    nbrs = p.skeleton
    seen, stack = {start}, [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w in seen:
                continue
            seen.add(w)
            stack.append(w)
            blank = [f for f in p.vertex_faces[w] if not colors[f]]
            if blank:
                missing = {1, 2, 3} - {colors[f] for f in p.vertex_faces[w]}
                if len(missing) != 1:
                    raise NotThreeColorable("faces admit no proper 3-coloring")
                colors[blank[0]] = missing.pop()
    first_seen = list(dict.fromkeys(colors))
    colors = [first_seen.index(c) + 1 for c in colors]
    if any(colors[a] == colors[b] for a, adj in enumerate(p.adjacency) for b in adj):
        raise NotThreeColorable("faces admit no proper 3-coloring")

    chosen = tuple(int(c) for c in colors)
    sizes = {label: sum(1 for c in chosen if c == label) for label in (1, 2, 3)}
    order = sorted((1, 2, 3), key=lambda label: (sizes[label], label))
    coloring = FaceColoring(
        colors=chosen,
        class_sizes=tuple(sizes[label] for label in order),
        slot_colors=tuple(order),
    )
    if coloring.class_sizes[0] < 2:
        raise NotThreeColorable(
            f"color class of size {coloring.class_sizes[0]} cannot cover all vertices"
        )
    return coloring


def dependency_roots_by_sorting(s) -> tuple[int, ...]:
    """IncidenceSystem.dependency_roots with each vertex's faces sorted by
    slot and every class pair joined through one root per vertex."""
    slots = s.slots
    by_slot = [sorted(faces, key=slots.__getitem__) for faces in s.polytope.vertex_faces]
    for v, faces in enumerate(by_slot):
        if [slots[j] for j in faces] != [0, 1, 2]:
            raise TheoremViolation(f"vertex {v} is not on one face of each class")
    parent = list(range(s.n + 2))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        third: dict[tuple[int, int], int] = {}
        for faces in by_slot:
            parent[root(third.setdefault((faces[i], faces[j]), faces[k]))] = root(faces[k])
    return tuple(map(root, range(len(parent))))


def matvec(rows, v) -> tuple:
    """The exact product of a matrix, given as rows, and a vector."""
    return tuple(dot(row, v) for row in rows)


def ranks_by_elimination(s) -> tuple[int, int]:
    """(incidence rank, hull dimension) of an IncidenceSystem by one
    fraction-free elimination of its vectors, each with a trailing 1: the
    pivots before the last column give the rank, all pivots less one the
    affine dimension. galehull certified both this way before the
    class-component certificate."""
    pivots = pivot_columns([list(v) + [1] for v in s.vectors])
    return sum(1 for c in pivots if c < len(s.vectors[0])), len(pivots) - 1


def vectors_by_faces(p) -> tuple[tuple[int, ...], ...]:
    """The face-vertex indicator vectors of p, in face input order, built
    row by row: the eager build that incidence_system made before
    IncidenceSystem.vectors was built on first read, kept as its
    reference."""
    vectors = []
    for face in p.faces:
        vec = [0] * p.num_vertices
        for v in face:
            vec[v] = 1
        vectors.append(tuple(vec))
    return tuple(vectors)


def fvector_by_walk(lattice) -> tuple[int, ...]:
    """Face counts by dimension 0 .. d-1, one pass over the faces."""
    counts = [0] * lattice.dim
    for _, d in lattice.faces.items():
        if 0 <= d < lattice.dim:
            counts[d] += 1
    return tuple(counts)


def simpliciality_by_walk(lattice) -> bool:
    """Every proper face has dim + 1 vertices; points that are not
    vertices are not counted."""
    faces = lattice.faces.items()
    vmask = sum(1 << v for v in lattice.vertex_indices)
    if vmask != lattice.top:  # some points are not vertices
        faces = [(f & vmask, d) for f, d in faces]
    return all(f.bit_count() == d + 1 for f, d in faces if 0 <= d < lattice.dim)


def neighborliness_by_walk(lattice) -> int:
    """All k-subsets of the vertices are faces exactly when C(|V|, k)
    faces inside the vertex set have k points."""
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


def counts_by_walks(lattice) -> tuple[tuple[int, ...], bool, int]:
    """The three walks that FaceLattice.counts replaced by one histogram,
    kept as its reference."""
    walks = (fvector_by_walk, simpliciality_by_walk, neighborliness_by_walk)
    return tuple(walk(lattice) for walk in walks)


def _subsets_by_size(m: int, held: bool) -> list[int]:
    """Coefficients of x^m (the whole class) or sum_{a<m} C(m, a) x^a
    (any part of it short of the whole)."""
    return [0] * m + [1] if held else [comb(m, a) for a in range(m)]


def counts_by_patterns(model: HullModel) -> tuple[tuple[int, ...], bool, int]:
    """The pattern count that HullModel.counts replaced by histogram_counts
    of the pattern table, kept as its reference; _subsets_by_size above is
    the class polynomial it read, x^m for a class held whole included.

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
    counts = [0] * model.dim
    simplicial = True
    nonfaces = []
    for held, o in enumerate(model.offset):
        if o is None:
            nonfaces.append(sum(m for i, m in enumerate(model.sizes) if held >> i & 1))
            continue
        by_size = reduce(
            _times, (_subsets_by_size(m, held >> i & 1) for i, m in enumerate(model.sizes))
        )
        for size, count in enumerate(by_size):
            if count and 0 <= size + o < model.dim:
                counts[size + o] += count
                simplicial = simplicial and o == -1
    if simplicial != (not model.apexes):
        raise TheoremViolation(f"type {model.hull_type} hull has simpliciality {simplicial}")
    return tuple(counts), simplicial, min([counts[0], *nonfaces]) - 1


@pytest.fixture(autouse=True, scope="session")
def counts_equal_the_walks():
    """FaceLattice.counts equals the three walks on every lattice whose
    counts the suite reads."""
    exact = FaceLattice.__dict__["counts"]

    def checked(lattice):
        counts = exact.func(lattice)
        assert counts == counts_by_walks(lattice), (lattice.dim, lattice.faces)
        return counts

    prop = cached_property(checked)
    prop.__set_name__(FaceLattice, "counts")
    FaceLattice.counts = prop
    yield
    FaceLattice.counts = exact


def neighborliness_by_combinations(lattice) -> int:
    """Every k-subset of vertices tested in turn: the form that
    gale.neighborliness replaced, kept as its reference."""
    verts = lattice.vertex_indices
    best = 0
    for k in range(1, len(verts)):
        if not all(sum(1 << v for v in c) in lattice.faces for c in combinations(verts, k)):
            break
        best = k
    return best


def _closed_form_mask(hull_type: str, mask: int, smasks: list[int], full: int) -> bool:
    """Per-type face criterion on a vertex subset, as pure mask algebra."""
    s1, s2, s3 = smasks
    if mask == full:
        return False
    if hull_type == "I":
        return (mask & s2) != s2 and (mask & (s1 | s3)) != (s1 | s3)
    if hull_type == "II":
        both = s2 | s3
        return ((mask & s2) != s2 and (mask & s3) != s3) or (mask & both) == both
    if hull_type == "III":
        both = s1 | s2
        return ((mask & s1) != s1 and (mask & s2) != s2) or (mask & both) == both
    return all((mask & sm) != sm for sm in smasks)


def enumerate_faces_by_subset(s, g, t) -> FaceLattice:
    """Every subset checked on its own Gale support: the form that the
    per-pattern table of gale.enumerate_faces replaced, kept as its
    reference. Relint and rank run once per distinct support, the exact
    affine rank on the first face met with each support."""
    npts = s.n + 2
    full = (1 << npts) - 1
    smasks = []
    for slot in range(3):
        m = 0
        for j in s.class_indices(slot):
            m |= 1 << j
        smasks.append(m)

    # group vertices by identical Gale point; face status and dimension
    # only depend on which distinct points appear in the complement
    groups = {}
    for pt in g.points:
        groups.setdefault(pt, len(groups))
    group_points = sorted(groups, key=groups.get)
    group_masks = [0] * len(groups)
    for j, pt in enumerate(g.points):
        group_masks[groups[pt]] |= 1 << j
    # support -> (zero in the relint of its points, rank of its points)
    support_cache = {}
    anchored = set()

    faces = {}
    for mask in range(full + 1):
        comp = full & ~mask
        support = 0
        for i, gm in enumerate(group_masks):
            if comp & gm:
                support |= 1 << i
        cached = support_cache.get(support)
        if cached is None:
            pts = [group_points[i] for i in range(len(group_points)) if support >> i & 1]
            cached = (relint_contains_zero(pts), rank(pts) if pts else 0)
            support_cache[support] = cached
        by_relint, gale_rank = cached
        by_formula = _closed_form_mask(t.hull_type, mask, smasks, full)
        if by_relint != by_formula:
            raise CriterionMismatch(
                f"subset {mask:b}: relint says {by_relint}, "
                f"type {t.hull_type} criterion says {by_formula}"
            )
        if by_formula:
            dim = mask.bit_count() - 1 - len(g.class_points[0]) + gale_rank
            if support not in anchored:
                anchored.add(support)
                on_face = [s.vectors[j] for j in range(npts) if mask >> j & 1]
                exact = affine_dimension(on_face)
                if exact != dim:
                    raise CriterionMismatch(
                        f"subset {mask:b} of sizes {t.sizes}: Gale rank "
                        f"grades it dim {dim}, exact affine rank says {exact}"
                    )
            faces[mask] = dim

    faces[full] = t.dim
    return FaceLattice(dim=t.dim, top=full, faces=faces)


def class_masks(s) -> list[int]:
    """The vertex mask of each sorted class of an IncidenceSystem."""
    return [sum(1 << j for j in s.class_indices(slot)) for slot in range(3)]


def enumerate_faces_by_mask_scan(s, g, t) -> FaceLattice:
    """The class pattern of every mask tested in turn, one table lookup
    each: the scan that the half-mask rows of gale.enumerate_faces
    replaced, kept as its reference. It runs no exact-rank anchor."""
    full = (1 << (s.n + 2)) - 1
    offset = t.offset
    s1, s2, s3 = class_masks(s)
    faces = {}
    for mask in range(full):
        o = offset[(mask & s1 == s1) | (mask & s2 == s2) << 1 | (mask & s3 == s3) << 2]
        if o is not None:
            faces[mask] = mask.bit_count() + o
    faces[full] = t.dim
    return FaceLattice(dim=t.dim, top=full, faces=faces)


T = TypeVar("T")


# The per-byte tables that gale.subset_table replaced, kept verbatim for
# byte_fold and the references below.
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


def byte_fold(
    values: Sequence[int], op: Callable[[int, int], int], unit: int
) -> Callable[[int], int]:
    """x -> unit op values[j] op ... over the set bits j of x, one
    byte_tables lookup per byte of x. x must have no bits at or above
    len(values). No longer used in galehull: the references below map
    one face at a time with it.
    """
    tables = byte_tables(values, op, unit)
    width = len(tables)

    def fold(x: int) -> int:
        return reduce(op, map(getitem, tables, x.to_bytes(width, "little")), unit)

    return fold


def rref_by_fractions(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over Fractions, dividing each pivot row at once: the
    form that the fraction-free elimination replaced, kept as the
    reference for its pivots and, through null_space_by_fractions, for
    the canonical basis that gale.rref_gale_points reads."""
    R = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(R), len(R[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        pv = R[r][c]
        R[r] = pr = [x / pv for x in R[r]]
        for i in range(nrows):
            f = R[i][c]
            if i != r and f:
                R[i] = [a - f * b for a, b in zip(R[i], pr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def null_space_by_fractions(rows) -> list[tuple[Fraction, ...]]:
    """The canonical null space basis read off rref_by_fractions, one
    vector per free column in increasing order, 1 there and 0 at the
    other free columns: the form that gale.rref_gale_points replaced by
    reading affine_coordinates' table, kept as its reference."""
    R, pivots = rref_by_fractions(rows)
    basis = []
    for f in range(len(rows[0])):
        if f not in pivots:
            v = [Fraction(0)] * len(rows[0])
            v[f] = Fraction(1)
            for r_idx, c in enumerate(pivots):
                v[c] = -R[r_idx][f]
            basis.append(tuple(v))
    return basis


def primitive_vector_by_fractions(vec) -> tuple[int, ...]:
    """Lcm of the denominators, then the gcd of the integers divided out,
    on its own: the form that linalg.primitive_vector replaced by the
    elimination's row scaling and gcd strip, kept as its reference."""
    fr = [Fraction(x) for x in vec]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    mult = lcm(*(x.denominator for x in fr))
    ints = [int(x * mult) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def spanning_hyperplane(
    points: Sequence[Sequence[Fraction | int]], ambient_dim: int
) -> Optional[tuple[tuple[int, ...], Fraction | int]]:
    """Normal and offset of the hyperplane affinely spanned by the points.

    Returns None unless the points span exactly a hyperplane of the ambient
    space. The normal is a primitive integer vector with positive leading
    nonzero entry; normal . p == offset for every input point, and the
    offset is an int when the points are. The hyperplane is the one null
    vector of the rows [p | -1], found fraction-free: the per-subset
    elimination that oracle._facet_supports replaced by one shared base
    table, kept for its reference scan.
    """
    if not points:
        return None
    for p in points:
        if len(p) != ambient_dim:
            raise DimensionMismatch(
                f"point of length {len(p)} in ambient dimension {ambient_dim}"
            )
    vec = null_vector([list(p) + [-1] for p in points])
    if vec is None:
        return None
    g = gcd(*vec[:ambient_dim])
    if g == 0:
        return None
    lead = next(x for x in vec if x != 0)
    normal = tuple(x // g for x in vec[:ambient_dim])
    if lead < 0:
        normal = tuple(-x for x in normal)
    return normal, dot(normal, points[0])


def simplex_beyond_count(point: Sequence[int], others: Sequence[Sequence[int]]) -> int:
    """Number of facets of the simplex conv(others) strictly separating
    the point: its negative barycentric coordinates, read off the one null
    vector (lam, mu) of [[others | -point], [1 ... 1 | -1]] as lam / mu.

    A one-dimensional null space with mu != 0 certifies that the others
    are affinely independent and that the point lies in their affine hull;
    anything else raises StructureMismatch. The per-vertex solve that
    pipeline.type_one_checks replaced by one affine dependency of all the
    vertices, kept as its reference.
    """
    rows = [[o[r] for o in others] + [-point[r]] for r in range(len(point))]
    vec = null_vector(rows + [[1] * len(others) + [-1]])
    if vec is None or vec[-1] == 0:
        raise StructureMismatch(
            "the other points are no simplex whose affine hull holds the point"
        )
    *lam, mu = vec
    return sum(1 for x in lam if x * mu < 0)


def project_to_hull_coordinates(pts: list[tuple]) -> tuple[list[tuple], int]:
    """Restrict to the pivot coordinates of the affine hull, and its
    dimension d.

    Selecting the pivot columns of the difference matrix is a linear
    isomorphism of the affine hull onto R^d, so faces are preserved. The
    projection that oracle.oracle_facets dropped when it began to scan
    the points as given, kept because the reference scan below needs
    points in R^d.
    """
    p0 = pts[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
    if not diffs:
        return [()] * len(pts), 0
    pivots = pivot_columns(diffs)
    return [tuple(p[c] for c in pivots) for p in pts], len(pivots)


@st.composite
def embedded_point_sets(draw):
    """(points, image): 1-11 points of R^d, d in 1-4, with int or Fraction
    coordinates, repeated points and a prefix on one line, so that the
    first d + 1 points are affinely dependent, and their image under a
    random injective affine map into R^(d + 0..3): a point set that is
    not full-dimensional whenever the map adds dimensions."""
    d = draw(st.integers(1, 4))
    coordinate = draw(st.sampled_from([
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ]))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=7))
    p, q = points[0], draw(st.sampled_from(points))
    line = [
        tuple(a + k * (b - a) for a, b in zip(p, q))
        for k in draw(st.lists(st.integers(-2, 3), max_size=2))
    ]
    repeats = draw(st.lists(st.sampled_from(points), max_size=2))
    points = points[:1] + line + points[1:] + repeats
    ambient = d + draw(st.integers(0, 3))
    linear = draw(
        st.lists(st.tuples(*[coordinate] * d), min_size=ambient, max_size=ambient)
        .filter(lambda rows: rank(rows) == d)
    )
    shift = draw(st.tuples(*[coordinate] * ambient))
    image = [tuple(dot(row, x) + t for row, t in zip(linear, shift)) for x in points]
    return points, image


def facet_supports_by_keys(qpts: list[tuple], d: int):
    """The facet masks, with every d-subset spanned by its own elimination
    and its hyperplane deduplicated by key: the scan that
    oracle._facet_supports replaced by one shared base table, kept as its
    reference."""
    n = len(qpts)
    seen: set[tuple] = set()
    out = []
    for subset in combinations(range(n), d):
        hp = spanning_hyperplane([qpts[i] for i in subset], d)
        if hp is None:
            continue
        normal, offset = hp
        key = (normal, offset)
        if key in seen:
            continue
        seen.add(key)
        values = [dot(normal, q) - offset for q in qpts]
        if all(v <= 0 for v in values) or all(v >= 0 for v in values):
            out.append(sum(1 << i for i, v in enumerate(values) if v == 0))
    return out


def oracle_lattice_by_joins(points: Sequence[Sequence[Fraction | int]]) -> FaceLattice:
    """The join closure that oracle.oracle_lattice's per-half facet-set
    tables and pyramid grading replaced, kept verbatim as their reference."""
    pts = _check_points(points)
    qpts, d = project_to_hull_coordinates(pts)
    if d == 0:
        raise DegenerateInput("all points coincide")

    facets = _facet_supports(*affine_coordinates(qpts))
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


def join_grading_by_fold(facets: list[int], n: int) -> dict[int, int]:
    """The join grading of oracle_lattice_by_joins with every face joined to
    every point and its vertex mask read by one byte_fold call: the form
    that the per-bucket tables over the points off each face replaced,
    kept as their reference. Takes the facet masks, returns the faces."""
    top = (1 << n) - 1
    inc = [sum(1 << k for k, f in enumerate(facets) if f >> i & 1) for i in range(n)]
    vertices_of = byte_fold(facets, and_, top)
    buckets = [{} for _ in facets] + [{(1 << len(facets)) - 1: -1}]
    faces = {}
    while buckets:
        bucket = buckets.pop()
        for t, dim in bucket.items():
            joins = {t & x for x in inc}
            joins.discard(t)
            for j in joins:
                above = buckets[j.bit_count()]
                if above.get(j, -1) <= dim:
                    above[j] = dim + 1
        faces.update((vertices_of(t), dim) for t, dim in bucket.items())
    return faces


def check_witness_by_bytes(
    a: FaceLattice, b: FaceLattice, witness: dict[int, int], stage: str
) -> None:
    """The witness check through per-byte OR tables, 64 faces per pass:
    the form that the per-half subset tables of check_witness_by_faces
    replaced, kept verbatim as its reference."""
    if sorted(witness) != members(a.top) or sorted(witness.values()) != members(b.top):
        raise StructureMismatch(f"{stage}: the witness is no bijection of the vertices")
    if len(a.faces) != len(b.faces):
        raise StructureMismatch(
            f"{stage}: {len(a.faces)} faces against {len(b.faces)} in the image lattice"
        )
    images = [0] * a.top.bit_length()
    for v, w in witness.items():
        images[v] = 1 << w
    tables = byte_tables(images, or_, 0)
    get = b.faces.get
    items = iter(a.faces.items())
    # 64 faces at a time, one byte of each per pass: lists this small
    # stay in the small-object allocator, so the check leaves no heap
    # growth behind, and ran faster than whole-lattice lists
    while chunk := list(islice(items, 64)):
        mapped = [0] * len(chunk)
        for c, table in enumerate(tables):
            shift = 8 * c
            mapped = [m | table[f >> shift & 255] for m, (f, _) in zip(mapped, chunk)]
        for (face, dim), image in zip(chunk, mapped):
            if get(image) != dim:
                raise StructureMismatch(
                    f"{stage}: face {members(face)} of dimension {dim} maps to "
                    f"{members(image)}, no face of that dimension"
                )


# The lattice models and the face-by-face witness check that the
# closed-form model facets and the facet-level check_witness of
# galehull.reference replaced, kept verbatim as their reference (the
# model builders as functions of this module, not of galehull).

def _simplicial_lattice(num_vertices: int, facets: list[int], dim: int) -> FaceLattice:
    faces: dict[int, int] = {}
    for facet in facets:
        sub = facet
        while True:  # every submask of the facet, down to the empty face
            faces[sub] = sub.bit_count() - 1
            if not sub:
                break
            sub = (sub - 1) & facet
    top = (1 << num_vertices) - 1
    faces[top] = dim
    return FaceLattice(dim=dim, top=top, faces=faces)


def gale_evenness(subset: int, v: int) -> bool:
    """Evenness condition on positions 0..v-1 of a vertex bitmask: any two
    positions outside the subset are separated by an even number of subset
    members."""
    outside = [i for i in range(v) if not subset >> i & 1]
    for a, b in combinations(outside, 2):
        if sum(1 for x in range(a + 1, b) if subset >> x & 1) % 2:
            return False
    return True


def cyclic_facets(v: int, d: int) -> FaceLattice:
    """Face lattice of the cyclic polytope C(v, d) on vertices 0..v-1."""
    if not v > d >= 2:
        raise BadParameters(f"cyclic polytope needs v > d >= 2, got v={v} d={d}")
    subsets = (sum(1 << i for i in c) for c in combinations(range(v), d))
    return _simplicial_lattice(v, [f for f in subsets if gale_evenness(f, v)], d)


def pyramid(base: FaceLattice, apex_count: int) -> FaceLattice:
    """apex_count-fold pyramid: every face is (base face) union (apex
    subset); the apexes are vertices nbase .. nbase + apex_count - 1."""
    if apex_count < 0:
        raise BadParameters("apex count must be nonnegative")
    nbase = base.top.bit_count()
    if base.top != (1 << nbase) - 1:
        raise BadParameters("pyramid base must use contiguous vertex indices")
    faces: dict[int, int] = {}
    for apexes in range(1 << apex_count):
        for g, gdim in base.faces.items():
            faces[g | apexes << nbase] = gdim + apexes.bit_count()
    dim = base.dim + apex_count
    top = (1 << (nbase + apex_count)) - 1
    faces[top] = dim
    return FaceLattice(dim=dim, top=top, faces=faces)


def tkn_model(n: int, k: int) -> FaceLattice:
    """Simplicial n-polytope with n+2 vertices: a simplex plus a point
    beyond k facets. Classes A (vertices 0..k) and B (k+1..n+1); a
    proper face is any subset containing neither class entirely."""
    if not 1 <= k <= n // 2:
        raise BadParameters(f"model needs 1 <= k <= n/2, got n={n} k={k}")
    npts = n + 2
    if npts > ANALYSIS_VERTEX_CAP:
        raise TooManyPoints(f"{npts} vertices exceeds cap {ANALYSIS_VERTEX_CAP}")
    top = (1 << npts) - 1
    class_a = (1 << (k + 1)) - 1
    class_b = top & ~class_a
    faces = {
        f: f.bit_count() - 1
        for f in range(top)
        if f & class_a != class_a and f & class_b != class_b
    }
    faces[top] = n
    return FaceLattice(dim=n, top=top, faces=faces)


def type4_model(m: int) -> FaceLattice:
    """Hull model for three equal classes of size m: 3m vertices, class i
    is the block i*m .. (i+1)*m - 1, and the proper faces are the subsets
    missing at least one vertex of every class."""
    if m < 2:
        raise BadParameters(f"model needs m >= 2, got {m}")
    npts = 3 * m
    if npts > ANALYSIS_VERTEX_CAP:
        raise TooManyPoints(f"{npts} vertices exceeds cap {ANALYSIS_VERTEX_CAP}")
    top = (1 << npts) - 1
    classes = [((1 << m) - 1) << (i * m) for i in range(3)]
    faces = {
        f: f.bit_count() - 1 for f in range(top) if all(f & c != c for c in classes)
    }
    faces[top] = 3 * m - 3
    return FaceLattice(dim=3 * m - 3, top=top, faces=faces)


def reference_model(report: HullModel, n: int) -> FaceLattice:
    """The predicted lattice for a hull model."""
    m1, m2, m3 = report.sizes
    if report.hull_type == "I":
        return tkn_model(n, m2 - 1)
    if report.hull_type == "II":
        return pyramid(cyclic_facets(2 * m2, 2 * m2 - 2), m1)
    if report.hull_type == "III":
        return pyramid(cyclic_facets(2 * m2, 2 * m2 - 2), m3)
    return type4_model(m2)


def check_witness_by_faces(
    a: FaceLattice, b: FaceLattice, witness: dict[int, int], stage: str
) -> None:
    """Require the vertex bijection `witness` to map the faces of a onto
    the faces of b, dimensions kept: equal face counts, and the image of
    every face, read through one OR subset_table per half of its mask, a
    face of b of the same dimension. Then it is a lattice isomorphism.
    StructureMismatch names the stage and the first face that fails, with
    its image."""
    if sorted(witness) != members(a.top) or sorted(witness.values()) != members(b.top):
        raise StructureMismatch(f"{stage}: the witness is no bijection of the vertices")
    if len(a.faces) != len(b.faces):
        raise StructureMismatch(
            f"{stage}: {len(a.faces)} faces against {len(b.faces)} in the image lattice"
        )
    images = [0] * a.top.bit_length()
    for v, w in witness.items():
        images[v] = 1 << w
    low = len(images) // 2
    keep = (1 << low) - 1
    lows, highs = subset_table(images[:low], or_, 0), subset_table(images[low:], or_, 0)
    # every image, one C-level map chain over the faces with no list built
    high_images = map(highs.__getitem__, map(rshift, a.faces, repeat(low)))
    mapped = map(or_, high_images, map(lows.__getitem__, map(and_, a.faces, repeat(keep))))
    wrong = map(ne, map(b.faces.get, mapped), a.faces.values())
    bad = next(compress(a.faces.items(), wrong), None)
    if bad is not None:
        face, dim = bad
        raise StructureMismatch(
            f"{stage}: face {members(face)} of dimension {dim} maps to "
            f"{members(highs[face >> low] | lows[face & keep])}, no face of that dimension"
        )


# The backtracking isomorphism search that the class-block witnesses of
# galehull.reference replaced, kept as their reference.

def _facets(lattice: FaceLattice) -> list[int]:
    return [f for f, d in lattice.faces.items() if d == lattice.dim - 1]


def _face_counts(lattice: FaceLattice) -> list[int]:
    """How many faces hold each index below top's bit length: one Counter
    pass over the faces per byte, then a sum over the byte values."""
    width = lattice.top.bit_length()
    counts = []
    for shift in range(0, width, 8):
        tally = Counter(f >> shift & 255 for f in lattice.faces)
        for j in range(min(8, width - shift)):
            counts.append(sum(c for b, c in tally.items() if b >> j & 1))
    return counts


def _vertex_signature(v: int, facets, nfaces: int) -> tuple:
    containing = [f for f in facets if f >> v & 1]
    return (len(containing), tuple(sorted(f.bit_count() for f in containing)), nfaces)


def _vertices(lattice: FaceLattice) -> list[int]:
    """Every index occurring in a proper face (for honest vertex lattices
    this is exactly the vertex set)."""
    union = 0
    for f in lattice.faces:
        if f != lattice.top:
            union |= f
    return members(union)


def lattice_isomorphic(a: FaceLattice, b: FaceLattice) -> Optional[dict[int, int]]:
    """Vertex bijection inducing a face-set bijection, or None.

    Backtracking over vertex-facet incidence with signature pruning; the
    complete candidate map is verified against the full face dictionaries.
    """
    if a.dim != b.dim or len(a.faces) != len(b.faces):
        return None
    va, vb = _vertices(a), _vertices(b)
    if len(va) != len(vb):
        return None
    fa, fb = _facets(a), _facets(b)
    if sorted(f.bit_count() for f in fa) != sorted(f.bit_count() for f in fb):
        return None
    na, nb = _face_counts(a), _face_counts(b)
    sig_a = {v: _vertex_signature(v, fa, na[v]) for v in va}
    sig_b = {v: _vertex_signature(v, fb, nb[v]) for v in vb}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    candidates = {v: [w for w in vb if sig_b[w] == sig_a[v]] for v in va}
    order = sorted(va, key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def image(face: int) -> int:
        """The mask of the images of the face's vertices mapped so far."""
        return sum(1 << w for v, w in mapping.items() if face >> v & 1)

    def facet_compatible() -> bool:
        for f in fa:
            img, size = image(f), f.bit_count()
            if not any(img & g == img and g.bit_count() == size for g in fb):
                return False
        return True

    def verify_full() -> bool:
        images = [1 << mapping[v] if v in mapping else 0 for v in range(a.top.bit_length())]
        image_of = byte_fold(images, or_, 0)
        # tops correspond by the dim check above
        return all(
            b.faces.get(image_of(face)) == dim
            for face, dim in a.faces.items()
            if face != a.top
        )

    def search(i: int) -> bool:
        if i == len(order):
            return verify_full()
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            mapping[v] = w
            used.add(w)
            if facet_compatible() and search(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if search(0) else None


def proper_faces(lattice: FaceLattice) -> dict[int, int]:
    """The faces of dimension 0 .. d-1 (no module of galehull lists them)."""
    return {f: d for f, d in lattice.faces.items() if 0 <= d < lattice.dim}


def polytope_edges(p) -> frozenset[frozenset[int]]:
    """The edges of a PlanarPolytope as vertex pairs, read off its skeleton."""
    return frozenset(frozenset((u, v)) for u, vs in p.skeleton.items() for v in vs if u < v)


def face_adjacency(p) -> tuple[frozenset[int], ...]:
    """Face index -> the faces it shares an edge with: on a validated map,
    the faces it shares a vertex with."""
    at = p.vertex_faces.__getitem__
    return tuple(frozenset(chain(*map(at, f))) - {i} for i, f in enumerate(p.faces))


def lattice_to_json(lattice: FaceLattice) -> dict:
    """Deterministic JSON form of a face lattice, for dumps and golden
    tests (no module of galehull writes one)."""
    return {
        "dim": lattice.dim,
        "faces": [
            {"vertices": members(f), "dim": d}
            for f, d in sorted(
                lattice.faces.items(), key=lambda kv: (kv[1], members(kv[0]))
            )
        ],
    }


def relabel_faces(p, mult: int = 7, shift: int = 3) -> list[list[int]]:
    """Deterministic relabeled copy: permute vertex ids by an affine map
    mod V, rotate the face list, rotate and flip each cycle."""
    V = p.num_vertices
    from math import gcd

    assert gcd(mult, V) == 1
    perm = {v: (mult * v + shift) % V for v in range(V)}
    faces = [list(f) for f in p.faces]
    faces = faces[1:] + faces[:1]
    out = []
    for i, f in enumerate(faces):
        cyc = [perm[v] for v in f]
        cyc = cyc[i % len(cyc):] + cyc[: i % len(cyc)]
        if i % 2:
            cyc.reverse()
        out.append(cyc)
    return out


@pytest.fixture(scope="session")
def relabeled(cube, prism6, prism8, trunc_oct):
    return {
        "cube": validate(relabel_faces(cube)),
        "prism:6": validate(relabel_faces(prism6)),
        "prism:8": validate(relabel_faces(prism8)),
        "truncated-octahedron": validate(relabel_faces(trunc_oct)),
    }
