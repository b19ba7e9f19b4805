"""Reference face lattices and class-block witnesses onto them.

Cyclic polytopes are built from the evenness condition on the linear
vertex order, pyramids by adjoining apex subsets to base faces, and the
two closed-form models (one-dimensional two-class diagrams and the
three-equal-class hull) directly from their face criteria. Everything is
coordinate-free; geometric claims about these models are validated in the
hull oracle where coordinates exist.

The Gale diagram is constant on color classes, so a hull maps onto its
model class by class: block_order reads the map off the sorted classes
and check_witness checks it in one pass over the faces. Nothing is
searched for.
"""

from __future__ import annotations

from itertools import combinations, compress, repeat
from operator import and_, ne, or_, rshift

from .errors import BadParameters, StructureMismatch, TooManyPoints
from .gale import ANALYSIS_VERTEX_CAP, FaceLattice, IncidenceSystem, members, subset_table


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


# --- class-block witnesses -------------------------------------------------

def block_order(system: IncidenceSystem, hull_type: str) -> list[int]:
    """The hull vertices in the vertex order of the type's model, read off
    the sorted classes c1, c2, c3 (ascending inside a class): type I
    c2 then c1 and c3 merged; type II c2 and c3 interleaved then c1 as the
    apexes; type III c1 and c2 interleaved then c3; type IV c1, c2, c3.
    Interleaving puts the two classes on the two parity classes of the
    cyclic base, whose Gale values alternate."""
    c1, c2, c3 = (system.class_indices(slot) for slot in range(3))
    if hull_type == "I":
        return [*c2, *sorted(c1 + c3)]
    if hull_type == "II":
        return [v for pair in zip(c2, c3) for v in pair] + [*c1]
    if hull_type == "III":
        return [v for pair in zip(c1, c2) for v in pair] + [*c3]
    return [*c1, *c2, *c3]


def check_witness(
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
