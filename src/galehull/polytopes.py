"""Combinatorial simple 3-polytopes: validation, face 3-coloring, catalog.

A polytope map is given purely combinatorially as a list of faces, each a
cyclic list of vertex ids. Validation certifies the polyhedral-map axioms
(cubic vertices, edge-manifold condition, Euler's formula, connectivity);
3-connectivity is deliberately not checked, so inputs are trusted to be
polytopal maps of the 2-sphere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import ClassVar, Optional, Sequence

from .errors import (
    BadEdge,
    BadInput,
    BadParameters,
    DegenerateFace,
    Disconnected,
    EulerViolation,
    NotCubic,
    NotThreeColorable,
    OddPrism,
    TooLarge,
    TooManyPoints,
    UnknownName,
)

Face = tuple[int, ...]


@dataclass(frozen=True)
class PlanarPolytope:
    """A validated combinatorial simple 3-polytope with 2n vertices."""

    faces: tuple[Face, ...]
    n: int
    vertex_faces: tuple[tuple[int, ...], ...]   # vertex id -> sorted face indices
    # vertex id -> its neighbors, sorted: the 1-skeleton, built once by validate
    skeleton: dict[int, list[int]] = field(compare=False, repr=False)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    @property
    def fvector(self) -> tuple[int, int, int]:
        return (2 * self.n, 3 * self.n, self.n + 2)


@dataclass(frozen=True)
class FaceColoring:
    """Proper 3-coloring of faces, with class sizes sorted ascending.

    slot_colors[i] is the color label occupying sorted slot i, so
    class_sizes == (len of class slot_colors[0]), ... ascending; ties are
    broken by color label.
    """

    colors: tuple[int, ...]               # face index -> color in {1,2,3}
    class_sizes: tuple[int, int, int]
    slot_colors: tuple[int, int, int]
    essential_colorings: ClassVar[int] = 1  # unique up to permutation (Heawood)

    def class_members(self, slot: int) -> tuple[int, ...]:
        """Face indices of sorted class `slot` (0, 1 or 2)."""
        label = self.slot_colors[slot]
        return tuple(i for i, c in enumerate(self.colors) if c == label)


def validate(raw: Sequence[Sequence[int]]) -> PlanarPolytope:
    """Check the polyhedral-map axioms and build derived structures, in
    time linear in the vertex slots on valid input: faces are checked one
    by one, and bad edges ordered, only to name the first fault."""
    if not isinstance(raw, (list, tuple)):
        raise BadInput("faces must be a list of vertex-id lists")
    if not raw:
        raise DegenerateFace("no faces given")
    faces = [tuple(c) if isinstance(c, (list, tuple)) else () for c in raw]
    ids = list(chain.from_iterable(faces))
    plain = set(map(type, ids)) == {int} and min(map(len, faces)) > 2 and min(ids) >= 0
    if not plain or list(map(len, map(set, faces))) != list(map(len, faces)):
        for idx, cycle in enumerate(raw):  # name the first fault
            if not isinstance(cycle, (list, tuple)):
                raise BadInput(f"face {idx} is not a list of vertex ids")
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in cycle):
                raise BadInput(f"face {idx} has a vertex id that is not an integer")
            if len(cycle) < 3:
                raise DegenerateFace(f"face {idx} has fewer than 3 vertices")
            if len(set(cycle)) != len(cycle):
                raise DegenerateFace(f"face {idx} repeats a vertex")
            if min(cycle) < 0:
                raise DegenerateFace(f"face {idx} has a negative vertex id")

    V = max(ids) + 1
    if V > len(ids):
        # checked before any per-vertex table is sized by the largest id
        raise NotCubic(
            f"vertex ids run to {V - 1}, but the faces have only "
            f"{len(ids)} vertex slots, so some vertex lies on no face"
        )
    owners = list(chain.from_iterable(map(repeat, range(len(faces)), map(len, faces))))
    # edge {u, v} with u < v is keyed u * V + v, so key order is (u, v) order
    after = chain.from_iterable(f[1:] + f[:1] for f in faces)
    keys = [a * V + b if a < b else b * V + a for a, b in zip(ids, after)]
    edge_count = Counter(keys)
    if set(edge_count.values()) != {2}:
        # a face repeats no vertex, so it holds each edge at most once
        e = min(k for k, c in edge_count.items() if c != 2)
        u, v = divmod(e, V)
        on = [i for k, i in zip(keys, owners) if k == e]
        raise BadEdge(f"edge ({u},{v}) lies in faces {on}, expected exactly 2")

    vertex_faces: list[list[int]] = [[] for _ in range(V)]
    for v, i in zip(ids, owners):
        vertex_faces[v].append(i)
    for v, on in enumerate(vertex_faces):
        if len(on) != 3:
            raise NotCubic(f"vertex {v} lies on {len(on)} faces, expected 3")

    E, F = len(edge_count), len(faces)
    if V - E + F != 2 or 2 * E != 3 * V:
        raise EulerViolation(f"V={V} E={E} F={F}: V-E+F={V - E + F}, 2E-3V={2 * E - 3 * V}")
    n = V // 2
    if F != n + 2 or n < 2:
        raise EulerViolation(f"face count {F} differs from n+2={n + 2}")

    nbrs: list[list[int]] = [[] for _ in range(V)]
    # in (u, v) order, so every list comes out sorted
    for u, v in map(divmod, sorted(edge_count), repeat(V)):
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != V:
        raise Disconnected(f"1-skeleton has {V - len(seen)} unreachable vertices")
    return PlanarPolytope(
        faces=tuple(faces),
        n=n,
        vertex_faces=tuple(map(tuple, vertex_faces)),
        skeleton=dict(enumerate(nbrs)),
    )


def three_color(p: PlanarPolytope) -> FaceColoring:
    """The proper face 3-coloring, by propagation.

    The three faces at a vertex pairwise share an edge, so two colored
    faces at a vertex force the third, and the coloring is proper iff
    the three faces at every vertex differ. Walking the connected
    1-skeleton from the faces at one vertex therefore fixes every color
    (Heawood): the coloring is unique up to permuting colors. Labels are
    assigned in order of first appearance (face 0 gets 1), which gives the
    lexicographically first proper coloring.
    """
    colors = [0] * len(p.faces)
    start = p.faces[0][0]
    for label, f in enumerate(p.vertex_faces[start], 1):
        colors[f] = label
    nbrs, vertex_faces = p.skeleton, p.vertex_faces
    seen, stack = {start}, [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w in seen:
                continue
            seen.add(w)
            stack.append(w)
            # the edge just walked lies on two faces at w, both colored, so
            # at most one is blank; two distinct colors leave it 6 - their sum
            a, b, c = vertex_faces[w]
            if not colors[a]:
                colors[a] = 6 - colors[b] - colors[c]
            elif not colors[b]:
                colors[b] = 6 - colors[a] - colors[c]
            elif not colors[c]:
                colors[c] = 6 - colors[a] - colors[b]
            if len({colors[a], colors[b], colors[c]}) != 3:
                raise NotThreeColorable("faces admit no proper 3-coloring")
    relabel = {c: label for label, c in enumerate(dict.fromkeys(colors), 1)}
    coloring = coloring_from_assignment(list(map(relabel.__getitem__, colors)))
    if coloring.class_sizes[0] < 2:
        raise NotThreeColorable(
            f"color class of size {coloring.class_sizes[0]} cannot cover all vertices"
        )
    return coloring


def coloring_from_assignment(colors: Sequence[int]) -> FaceColoring:
    """Wrap an already-proper color assignment as a FaceColoring."""
    chosen = tuple(int(c) for c in colors)
    sizes = {label: chosen.count(label) for label in (1, 2, 3)}
    order = sorted((1, 2, 3), key=lambda label: (sizes[label], label))
    return FaceColoring(
        colors=chosen,
        class_sizes=tuple(sizes[label] for label in order),
        slot_colors=tuple(order),
    )


# --- catalog ----------------------------------------------------------------

def _prism_faces(k: int) -> list[list[int]]:
    top = list(range(k))
    bottom = list(range(k, 2 * k))
    sides = [[i, (i + 1) % k, k + (i + 1) % k, k + i] for i in range(k)]
    return [top, bottom] + sides

def _octahedron_rotations() -> tuple[dict[int, list[int]], list[tuple[int, int, int]]]:
    # vertices: 0:+x 1:-x 2:+y 3:-y 4:+z 5:-z; neighbors listed in rotation
    # order, so consecutive neighbors share a triangle with the vertex
    rot = {
        0: [2, 4, 3, 5],
        1: [2, 5, 3, 4],
        2: [0, 5, 1, 4],
        3: [0, 4, 1, 5],
        4: [0, 2, 1, 3],
        5: [0, 3, 1, 2],
    }
    triangles = []
    for sx in (0, 1):
        for sy in (2, 3):
            for sz in (4, 5):
                triangles.append((sx, sy, sz))
    return rot, triangles


def _truncated_octahedron_faces() -> list[list[int]]:
    """Truncate every octahedron vertex: squares from vertices, hexagons
    from triangles; new vertices are (vertex, incident edge) flags."""
    rot, triangles = _octahedron_rotations()
    ids: dict[tuple[int, frozenset[int]], int] = {}
    edges = sorted(
        {frozenset((v, w)) for v, nbrs in rot.items() for w in nbrs},
        key=sorted,
    )
    for e in edges:
        for v in sorted(e):
            ids[(v, e)] = len(ids)

    squares = []
    for v in range(6):
        squares.append([ids[(v, frozenset((v, w)))] for w in rot[v]])
    hexagons = []
    for a, b, c in triangles:
        eab, ebc, eca = frozenset((a, b)), frozenset((b, c)), frozenset((c, a))
        hexagons.append(
            [ids[(a, eab)], ids[(b, eab)], ids[(b, ebc)],
             ids[(c, ebc)], ids[(c, eca)], ids[(a, eca)]]
        )
    return squares + hexagons


CATALOG_NAMES = ("prism", "cube", "truncated-octahedron")
# Faces of a catalog dump, from the commands' budget of half a second and
# 64 MB: `catalog prism:9998` takes 0.16-0.18 s and 36 MB (9 fresh
# processes, peak RSS through os.wait4; 2-vCPU Xeon, Python 3.11.7).
CATALOG_FACE_CAP = 10000


def require_catalog_cap(faces: int) -> None:
    """Refuse a catalog dump of more than CATALOG_FACE_CAP faces. The CLI
    asks this of a prism's face count before it builds anything."""
    if faces > CATALOG_FACE_CAP:
        raise TooManyPoints(f"{faces} faces exceeds catalog cap {CATALOG_FACE_CAP}")


def catalog(name: str, parameter: Optional[int] = None) -> PlanarPolytope:
    """Built-in instances: prism:k (even k >= 4), cube, truncated-octahedron."""
    if name == "prism":
        if parameter is None:
            raise BadParameters("prism needs a parameter k, e.g. prism:6")
        k = int(parameter)
        if k < 4:
            raise BadParameters(f"prism parameter must be >= 4, got {k}")
        if k % 2 != 0:
            raise OddPrism(f"prism over an odd {k}-gon is not 3-face-colorable")
        return validate(_prism_faces(k))
    if parameter is not None:
        raise BadParameters(f"catalog entry {name!r} takes no parameter")
    if name == "cube":
        return validate(_prism_faces(4))
    if name == "truncated-octahedron":
        return validate(_truncated_octahedron_faces())
    raise UnknownName(f"unknown catalog name {name!r}; choose from {CATALOG_NAMES}")


# --- Hamiltonicity ----------------------------------------------------------

HAMILTON_VERTEX_CAP = 30


def require_hamilton_cap(vertices: int) -> None:
    """Refuse a search over more than HAMILTON_VERTEX_CAP vertices. The CLI
    asks this of an input's vertex count before it builds or validates it."""
    if vertices > HAMILTON_VERTEX_CAP:
        raise TooLarge(f"{vertices} vertices exceeds the cap of {HAMILTON_VERTEX_CAP}")


def hamiltonian_cycle(p: PlanarPolytope) -> Optional[list[int]]:
    """Exhaustive backtracking search for a Hamiltonian cycle on the
    1-skeleton; returns the cycle as a vertex sequence, or None."""
    V = p.num_vertices
    require_hamilton_cap(V)
    nbrs = p.skeleton
    path = [0]
    visited = [False] * V
    visited[0] = True

    def extend() -> bool:
        u = path[-1]
        if len(path) == V:
            return 0 in nbrs[u]
        for w in nbrs[u]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                if extend():
                    return True
                path.pop()
                visited[w] = False
        return False

    return list(path) if extend() else None
