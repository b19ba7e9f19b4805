"""Closed-form model facets and f-vector, and class-block witnesses onto
the facets.

Every hull is a pyramid over a free sum of simplices (HullModel.summands
and HullModel.apexes), and its model is built here as facet masks: a
facet misses one vertex of every summand, or exactly one apex. Its
f-vector is counted from the summand and apex sizes alone.
Everything is coordinate-free; the hull oracle checks the geometry where
coordinates exist.

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
from itertools import accumulate, chain, product
from math import comb
from operator import or_
from typing import Sequence

from .errors import StructureMismatch
from .gale import HullModel, IncidenceSystem, _times, members


def _layout(model: HullModel) -> tuple[list[range], range]:
    """The model's vertex positions of each summand, in table order, and
    of the apexes after them. Summands sit in blocks, but a pyramid's two
    equal summands alternate: that is the vertex order of
    C(2 m2, 2 m2 - 2), whose parity classes are its summands, and the
    verify report's witnessBijection lists it."""
    sizes, apex_count = _vertex_counts(model)
    base = sum(sizes)
    if apex_count:
        blocks = [range(i, base, len(sizes)) for i in range(len(sizes))]
    else:
        ends = list(accumulate(sizes))
        blocks = [range(end - m, end) for m, end in zip(sizes, ends)]
    return blocks, range(base, base + apex_count)


def _vertex_counts(model: HullModel) -> tuple[list[int], int]:
    """The vertex count of each summand, in table order, and the number
    of apexes."""
    def size(pattern: int) -> int:
        return sum(m for i, m in enumerate(model.sizes) if pattern >> i & 1)

    return list(map(size, model.summands)), size(model.apexes)


def model_facets(model: HullModel) -> tuple[int, ...]:
    """The facets of the model of a hull, as vertex masks in _layout's
    positions: a facet of the free sum with every apex, which misses one
    vertex of every summand (in product order), or the free sum with
    every apex but one."""
    blocks, apexes = _layout(model)
    top = (1 << apexes.stop) - 1
    return tuple(top ^ sum(1 << v for v in missed) for missed in product(*blocks)) + tuple(
        top ^ 1 << a for a in apexes
    )


def free_sum_fvector(model: HullModel) -> tuple[int, ...]:
    """The f-vector of the model of a hull, dimensions 0 .. d-1, from its
    f-polynomial, with no use of the pattern table. The boundary of a free
    sum of simplices is the join of their boundaries, so its faces take a
    proper subset of each summand's v_s vertices: prod_s sum_{j<v_s}
    C(v_s, j) t^j, where t^j stands for the faces on j vertices, of
    dimension j - 1. The free sum itself adds t^(D+1), D = sum_s (v_s - 1),
    and each apex multiplies by (1 + t): a face, with or without it."""
    sizes, apex_count = _vertex_counts(model)
    poly = [1]
    for v in sizes:
        poly = _times(poly, [comb(v, j) for j in range(v)])
    poly.append(1)  # the free sum itself: poly had degree D
    for _ in range(apex_count):
        poly = _times(poly, [1, 1])
    return tuple(poly[1:-1])


# --- class-block witnesses -------------------------------------------------

def block_order(system: IncidenceSystem, model: HullModel) -> list[int]:
    """The hull vertices in the vertex order of the model: at the
    positions of each summand, and then of the apexes, the sorted classes
    of its pattern merged in ascending order."""
    blocks, apexes = _layout(model)
    classes = [system.class_indices(slot) for slot in range(3)]
    merged = [
        sorted(v for i, c in enumerate(classes) if pattern >> i & 1 for v in c)
        for pattern in (*model.summands, model.apexes)
    ]
    positions = chain(*blocks, apexes)
    return [v for _, v in sorted(zip(positions, chain(*merged)))]


def check_witness(
    a: Sequence[int], b: Sequence[int], witness: dict[int, int], stage: str
) -> None:
    """Require the vertex bijection `witness` to map the facets a of one
    polytope onto the facets b of another, both free of repeats: equal
    facet counts, and the image of every facet a facet of b. A facet's
    image is that of all the vertices less that of the vertices it
    misses, mapped one by one: at most F x N steps for F facets on N
    vertices, and no table over the subsets. Then the witness is a face
    lattice isomorphism. The vertices are the union of the facets, as on
    every polytope of dimension 1 or more. StructureMismatch names the
    stage and the first facet that fails, with its image."""
    vertices_a, vertices_b = reduce(or_, a, 0), reduce(or_, b, 0)
    if sorted(witness) != members(vertices_a) or sorted(witness.values()) != members(vertices_b):
        raise StructureMismatch(f"{stage}: the witness is no bijection of the vertices")
    if len(a) != len(b):
        raise StructureMismatch(f"{stage}: {len(a)} facets against {len(b)} in the image")
    image_of = {1 << v: 1 << w for v, w in witness.items()}
    facets = set(b)
    for f in a:
        image, missed = vertices_b, vertices_a ^ f
        while missed:
            v = missed & -missed
            image ^= image_of[v]
            missed ^= v
        if image not in facets:
            raise StructureMismatch(
                f"{stage}: facet {members(f)} maps to {members(image)}, no facet of the image"
            )
