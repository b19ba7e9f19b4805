"""Closed-form model facets and class-block witnesses onto them.

Every type's model is a named polytope with few facets, built here as
vertex masks: T^n_{m2-1} (the complements of one vertex of each of its
two classes), the three-equal-class hull (the complements of the
transversals), and the pyramids over the cyclic polytope C(2 m2, 2 m2 - 2)
(its evenness facets, each with every apex, and the base with every apex
but one). Everything is coordinate-free; the hull oracle checks the
geometry where coordinates exist.

The Gale diagram is constant on color classes, so a hull maps onto its
model class by class: block_order reads the map off the sorted classes
and check_witness checks it on the facets. Every face is the
intersection of the facets that hold it (Kaibel and Pfetsch, "Computing
the face lattice of a polytope from its vertex-facet incidences", CGTA
2002), so a vertex bijection that carries the facets onto the facets is
a face lattice isomorphism. Nothing is searched for.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import or_
from typing import Sequence

from .errors import BadParameters, StructureMismatch
from .gale import HullModel, IncidenceSystem, members, subset_table


def gale_evenness(subset: int, v: int) -> bool:
    """Evenness condition on positions 0..v-1 of a vertex bitmask: any two
    positions outside the subset are separated by an even number of subset
    members."""
    outside = [i for i in range(v) if not subset >> i & 1]
    for a, b in combinations(outside, 2):
        if sum(1 for x in range(a + 1, b) if subset >> x & 1) % 2:
            return False
    return True


def cyclic_facets(v: int, d: int) -> list[int]:
    """The facets of the cyclic polytope C(v, d) on vertices 0..v-1, as
    vertex masks in ascending order of their index tuples."""
    if not v > d >= 2:
        raise BadParameters(f"cyclic polytope needs v > d >= 2, got v={v} d={d}")
    subsets = (sum(1 << i for i in c) for c in combinations(range(v), d))
    return [f for f in subsets if gale_evenness(f, v)]


def model_facets(model: HullModel) -> tuple[int, ...]:
    """The facets of the model of a hull, as vertex masks in block_order's
    layout: type I is T^n_{m2-1} with class A (vertices 0..m2-1) then
    class B, and a facet misses one vertex of each; type IV has class i at
    the block i*m .. (i+1)*m - 1, and a facet misses one vertex of each
    class; types II and III are the m1- and m3-fold pyramids over
    C(2 m2, 2 m2 - 2), the apexes after the base vertices."""
    m1, m2, m3 = model.sizes
    if model.hull_type == "I":
        npts = m1 + m2 + m3
        top = (1 << npts) - 1
        return tuple(top ^ (1 << a | 1 << b) for a in range(m2) for b in range(m2, npts))
    if model.hull_type == "IV":
        top = (1 << 3 * m2) - 1
        return tuple(
            top ^ (1 << a | 1 << (m2 + b) | 1 << (2 * m2 + c))
            for a, b, c in product(range(m2), repeat=3)
        )
    base = 2 * m2
    apexes = ((1 << (m1 if model.hull_type == "II" else m3)) - 1) << base
    return tuple(f | apexes for f in cyclic_facets(base, base - 2)) + tuple(
        (1 << base) - 1 | (apexes ^ 1 << j) for j in members(apexes)
    )


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
    a: Sequence[int], b: Sequence[int], witness: dict[int, int], stage: str
) -> None:
    """Require the vertex bijection `witness` to map the facets a of one
    polytope onto the facets b of another, both free of repeats: equal
    facet counts, and the image of every facet, read through one OR
    subset_table per half of its mask, a facet of b. Then it is a face
    lattice isomorphism. The vertices are the union of the facets, as on
    every polytope of dimension 1 or more. StructureMismatch names the
    stage and the first facet that fails, with its image."""
    vertices_a, vertices_b = reduce(or_, a, 0), reduce(or_, b, 0)
    if sorted(witness) != members(vertices_a) or sorted(witness.values()) != members(vertices_b):
        raise StructureMismatch(f"{stage}: the witness is no bijection of the vertices")
    if len(a) != len(b):
        raise StructureMismatch(f"{stage}: {len(a)} facets against {len(b)} in the image")
    images = [0] * vertices_a.bit_length()
    for v, w in witness.items():
        images[v] = 1 << w
    low = len(images) // 2
    keep = (1 << low) - 1
    lows, highs = subset_table(images[:low], or_, 0), subset_table(images[low:], or_, 0)
    facets = set(b)
    for f in a:
        image = highs[f >> low] | lows[f & keep]
        if image not in facets:
            raise StructureMismatch(
                f"{stage}: facet {members(f)} maps to {members(image)}, no facet of the image"
            )
