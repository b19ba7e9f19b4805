from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import and_, getitem, or_
from pathlib import Path
from typing import Callable, Optional, Sequence

import pytest
from hypothesis import strategies as st

from galehull import analyze_polytope, catalog, relint_contains_zero, validate
from galehull.errors import CriterionMismatch
from galehull.gale import FaceLattice, byte_tables, members
from galehull.linalg import affine_dimension, dot, pivot_columns, rank, spanning_hyperplane

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
            dim = mask.bit_count() - 1 - g.ambient + gale_rank
            if support not in anchored:
                anchored.add(support)
                on_face = [s.vectors[j] for j in range(npts) if mask >> j & 1]
                exact = affine_dimension(on_face)
                if exact != dim:
                    raise CriterionMismatch(
                        f"subset {mask:b} of sizes {t.sorted_sizes}: Gale rank "
                        f"grades it dim {dim}, exact affine rank says {exact}"
                    )
            faces[mask] = dim

    faces[full] = t.dim
    return FaceLattice(dim=t.dim, top=full, faces=faces)


def enumerate_faces_by_mask_scan(s, g, t) -> FaceLattice:
    """The class pattern of every mask tested in turn, one table lookup
    each: the scan that the half-mask rows of gale.enumerate_faces
    replaced, kept as its reference. It runs no exact-rank anchor."""
    full = (1 << (s.n + 2)) - 1
    offset = t.patterns.offset
    s1, s2, s3 = t.patterns.least[1], t.patterns.least[2], t.patterns.least[4]
    faces = {}
    for mask in range(full):
        o = offset[(mask & s1 == s1) | (mask & s2 == s2) << 1 | (mask & s3 == s3) << 2]
        if o is not None:
            faces[mask] = mask.bit_count() + o
    faces[full] = t.dim
    return FaceLattice(dim=t.dim, top=full, faces=faces)


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
    form that the fraction-free linalg.rref replaced, kept as its
    reference."""
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


def facet_supports_by_keys(qpts: list[tuple], d: int):
    """Every d-subset spanned and its hyperplane deduplicated by key: the
    scan that oracle._facet_supports replaced by skipping subsets on known
    hyperplanes, kept as its reference."""
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
        if all(v <= 0 for v in values):
            side = -1
        elif all(v >= 0 for v in values):
            side = 1
        else:
            continue
        mask = sum(1 << i for i, v in enumerate(values) if v == 0)
        out.append((mask, normal, offset, side))
    return out


def join_grading_by_fold(facets: list[int], n: int) -> dict[int, int]:
    """The join grading of oracle.oracle_lattice with every face joined to
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
