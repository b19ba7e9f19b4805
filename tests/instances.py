"""Non-catalog test instances built by gluing bipyramids.

A bipyramid over an even cycle is an Eulerian triangulation of the
2-sphere (poles + alternating equator). Gluing two Eulerian
triangulations along a triangle keeps every vertex degree even, and the
merged color-class sizes are the pairwise sums minus one, steered by how
the glued triangle's vertices are identified. Dualizing gives
3-face-colorable simple 3-polytopes with prescribed class sizes, letting
the suite hit every classification type:

- glue(4, 4) poles-to-poles:      sizes (3, 3, 3)  all equal
- glue(4, 8) poles-to-poles:      sizes (3, 5, 5)  smallest distinct
- glue(6, 6) pole-to-equator:     sizes (4, 4, 5)  largest distinct
- glue(6, 8) pole-to-equator:     sizes (4, 5, 6)  pairwise distinct
"""

from __future__ import annotations

from galehull import PlanarPolytope, validate


def bipyramid(k: int) -> list[tuple[int, int, int]]:
    """Triangulation of the sphere: poles 0, 1 over the cycle 2..k+1."""
    tris = []
    for i in range(k):
        a = 2 + i
        b = 2 + (i + 1) % k
        tris.append((0, a, b))
        tris.append((1, a, b))
    return tris


def connected_sum(t1, t2, f1, f2, pairing):
    """Glue t2 onto t1 along the removed triangles f1 and f2.

    pairing maps each vertex of f2 to the vertex of f1 it lands on;
    remaining t2 vertices get fresh ids.
    """
    out = [t for t in t1 if frozenset(t) != frozenset(f1)]
    rest = [t for t in t2 if frozenset(t) != frozenset(f2)]
    nxt = 1 + max(v for t in out for v in t)
    remap = dict(pairing)
    for tri in rest:
        mapped = []
        for v in tri:
            if v not in remap:
                remap[v] = nxt
                nxt += 1
            mapped.append(remap[v])
        out.append(tuple(mapped))
    return out


def dual_faces(triangles):
    """Face cycles of the dual map: walk the triangles around each vertex."""
    incident: dict[int, list[int]] = {}
    for t_idx, tri in enumerate(triangles):
        for v in tri:
            incident.setdefault(v, []).append(t_idx)
    faces = []
    for v in sorted(incident):
        tris = incident[v]
        start = tris[0]
        cycle = [start]
        prev = min(x for x in triangles[start] if x != v)
        while True:
            cur = cycle[-1]
            pivot = next(x for x in triangles[cur] if x != v and x != prev)
            nxt = next(
                t
                for t in tris
                if t != cur and v in triangles[t] and pivot in triangles[t]
            )
            if nxt == start:
                break
            cycle.append(nxt)
            prev = pivot
        faces.append(cycle)
    return faces


def glued_dual(k1: int, k2: int, pairing) -> PlanarPolytope:
    """Dual polytope of bipyramid(k1) # bipyramid(k2), glued along the
    triangle (0, 2, 3) of each, identified via pairing."""
    tris = connected_sum(bipyramid(k1), bipyramid(k2), (0, 2, 3), (0, 2, 3), pairing)
    return validate(dual_faces(tris))


# poles {0,1} carry one class, the equator alternates the other two;
# a pole-to-pole pairing merges like classes, a pole-to-equator pairing
# rotates them

def all_equal_polytope() -> PlanarPolytope:
    """Two octahedra glued poles-to-poles: sizes (3, 3, 3), n = 7."""
    return glued_dual(4, 4, {0: 0, 2: 2, 3: 3})


def smallest_distinct_polytope() -> PlanarPolytope:
    """Octahedron onto the octagonal bipyramid: sizes (3, 5, 5), n = 11."""
    return glued_dual(4, 8, {0: 0, 2: 2, 3: 3})


def largest_distinct_polytope() -> PlanarPolytope:
    """Two hexagonal bipyramids, pole-to-equator: sizes (4, 4, 5), n = 11."""
    return glued_dual(6, 6, {0: 2, 2: 0, 3: 3})


def type_one_polytope() -> PlanarPolytope:
    """Hexagonal onto octagonal bipyramid: sizes (4, 5, 6), n = 13."""
    return glued_dual(6, 8, {0: 2, 2: 3, 3: 0})


def type_one_polytope_mirror() -> PlanarPolytope:
    """Octagonal onto hexagonal bipyramid, same sizes (4, 5, 6), n = 13."""
    return glued_dual(8, 6, {3: 0, 0: 2, 2: 3})


INSTANCE_BUILDERS = (
    all_equal_polytope,
    smallest_distinct_polytope,
    largest_distinct_polytope,
    type_one_polytope,
    type_one_polytope_mirror,
)


def two_cubes_polytope() -> PlanarPolytope:
    """Two cubes joined across a 2-edge cut: each loses an edge (0-1 and
    8-9), and new edges 0-8 and 1-9 join them. Two 8-gons then share both
    new edges, so the map is not 3-connected and so not polytopal, yet it
    passes validate: sizes (3, 3, 4), n = 8."""
    cube = [[4, 5, 6, 7], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    joined = [[1, 2, 3, 0, 8, 12, 13, 9], [0, 4, 5, 1, 9, 10, 11, 8]]
    return validate(cube + [[v + 8 for v in f] for f in cube] + joined)
