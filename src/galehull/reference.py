"""Reference face lattices and combinatorial lattice isomorphism.

Cyclic polytopes are built from the evenness condition on the linear
vertex order, pyramids by adjoining apex subsets to base faces, and the
two closed-form models (one-dimensional two-class diagrams and the
three-equal-class hull) directly from their face criteria. Everything is
coordinate-free; geometric claims about these models are validated in the
hull oracle where coordinates exist.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import or_
from typing import Optional

from .errors import BadParameters, TooManyPoints
from .gale import ANALYSIS_VERTEX_CAP, FaceLattice, byte_fold, members


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


# --- isomorphism -------------------------------------------------------------

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
