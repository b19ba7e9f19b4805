"""Seeded 3-face-colorable simple 3-polytopes with prescribed class sizes.

An Eulerian triangulation of the 2-sphere has a proper vertex 3-coloring,
and its dual is a simple 3-polytope whose faces inherit that coloring.
The bipyramid over an even k-cycle is the basic piece: its dual is the
k-prism, its poles form one class and the equator alternates between the
other two, so its class sizes are (2, k/2, k/2). A connected sum along a
triangle identifies one vertex of each class, so the class sizes of the
pieces add, minus one per class and gluing.

For p pieces with h_i = k_i / 2 and pole class P_i, class X has size
s_X = 2 c_X + H - H_X - (p - 1), where c_X counts the pieces with pole
class X, H = sum(h_i) and H_X sums h_i over those pieces. Writing
D_X = (n - p + 1) / 2 - s_X, this solves to H_X = 2 c_X + D_X: a class
with D_X > 0 needs at least one pole, and its D_X extra half-equator
vertices are spread over its pieces. The generator samples such a plan,
glues each piece onto a random triangle, and dualizes. The result
depends only on the random generator passed in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class Instance:
    """A generated polytope map with the class sizes it was built for."""

    name: str
    faces: tuple[tuple[int, ...], ...]
    sizes: tuple[int, int, int]   # sorted face color class sizes

    @property
    def n(self) -> int:
        return len(self.faces) - 2


def hull_type(sizes: tuple[int, int, int]) -> str:
    """The Gale diagram type of the sorted class sizes (m1, m2, m3)."""
    m1, m2, m3 = sizes
    if m1 < m2 < m3:
        return "I"
    if m1 < m2 == m3:
        return "II"
    if m1 == m2 < m3:
        return "III"
    return "IV"


def _bipyramid(k: int) -> list[Triangle]:
    """Poles 0 and 1 over the equator cycle 2 .. k+1."""
    tris = []
    for i in range(k):
        a, b = 2 + i, 2 + (i + 1) % k
        tris += [(0, a, b), (1, a, b)]
    return tris


def plans(sizes: tuple[int, int, int]) -> list[int]:
    """Piece counts p for which bipyramid sums reach these class sizes."""
    n = sum(sizes) - 2
    out = []
    for p in range(1, n + 2):
        if (n - p + 1) % 2:
            continue
        deficits = [(n - p + 1) // 2 - s for s in sizes]
        if min(deficits) >= 0 and sum(1 for d in deficits if d > 0) <= p:
            out.append(p)
    return out


def _pieces(rng: random.Random, sizes, pieces: int) -> list[tuple[int, int]]:
    """(pole class, h) per piece, classes indexed like `sizes`."""
    n = sum(sizes) - 2
    deficits = [(n - pieces + 1) // 2 - s for s in sizes]
    poles = [x for x in range(3) if deficits[x] > 0]
    poles += [rng.randrange(3) for _ in range(pieces - len(poles))]
    halves = {x: [2] * poles.count(x) for x in range(3)}
    for x in range(3):
        for _ in range(deficits[x]):
            halves[x][rng.randrange(len(halves[x]))] += 1
    out = [(x, h) for x in range(3) for h in halves[x]]
    rng.shuffle(out)
    return out


def _glue(rng: random.Random, pieces: list[tuple[int, int]]):
    """Colored triangulation of the connected sum of the pieces."""
    pole, h = pieces[0]
    tris = _bipyramid(2 * h)
    eq = [x for x in range(3) if x != pole]
    color = {0: pole, 1: pole}
    for i in range(2 * h):
        color[2 + i] = eq[i % 2]
    for pole, h in pieces[1:]:
        target = tris.pop(rng.randrange(len(tris)))
        by_color = {color[v]: v for v in target}
        a, b = [c for c in range(3) if c != pole]
        if rng.random() < 0.5:
            a, b = b, a
        # the piece's triangle (0, 2, 3) lands on the target triangle
        remap = {0: by_color[pole], 2: by_color[a], 3: by_color[b]}
        nxt = max(color) + 1
        for v in [1] + list(range(4, 2 * h + 2)):
            remap[v] = nxt
            nxt += 1
        color[remap[1]] = pole
        for i in range(2, 2 * h):
            color[remap[2 + i]] = (a, b)[i % 2]
        tris += [
            tuple(remap[v] for v in t)
            for t in _bipyramid(2 * h)
            if sorted(t) != [0, 2, 3]
        ]
    return tris, color


def _dual(tris: list[Triangle]) -> list[list[int]]:
    """One face per triangulation vertex: its triangles in cyclic order."""
    on_edge: dict[frozenset, list[int]] = {}
    around: dict[int, list[int]] = {}
    for t, tri in enumerate(tris):
        for i, v in enumerate(tri):
            around.setdefault(v, []).append(t)
            on_edge.setdefault(frozenset((v, tri[(i + 1) % 3])), []).append(t)
    faces = []
    for v in sorted(around):
        start = around[v][0]
        cycle, cur = [start], start
        via = next(w for w in tris[start] if w != v)
        while True:
            a, b = on_edge[frozenset((v, via))]
            cur = b if a == cur else a
            if cur == start:
                break
            cycle.append(cur)
            via = next(w for w in tris[cur] if w not in (v, via))
        faces.append(cycle)
    return faces


def _turn(rng: random.Random, faces: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """A random start and direction for each face cycle.

    Vertex ids and the face order stay as constructed. Both change how
    much work the program does: the elimination's fill-in depends on the
    vertex order, and the lattice isomorphism search on the face order,
    which a random permutation can turn from one second into minutes.
    """
    out = []
    for f in faces:
        r = rng.randrange(len(f))
        cyc = f[r:] + f[:r]
        if rng.random() < 0.5:
            cyc.reverse()
        out.append(tuple(cyc))
    return tuple(out)


def glued(
    rng: random.Random,
    sizes: tuple[int, int, int],
    pieces: Optional[int] = None,
    name: Optional[str] = None,
) -> Instance:
    """A random bipyramid sum, dualized, with sorted class sizes `sizes`.

    `pieces` fixes the number of bipyramids; by default the generator
    picks one of the feasible counts. One piece gives a prism.
    """
    sizes = tuple(sorted(sizes))
    if sizes[0] < 2:
        raise ValueError(f"class sizes {sizes}: every class needs at least 2 faces")
    feasible = plans(sizes)
    if pieces is None:
        if not feasible:
            raise ValueError(f"no bipyramid sum has class sizes {sizes}")
        pieces = rng.choice(feasible)
    elif pieces not in feasible:
        raise ValueError(f"no sum of {pieces} bipyramids has class sizes {sizes}")
    order = list(sizes)
    rng.shuffle(order)   # which color label gets which size
    tris, _ = _glue(rng, _pieces(rng, order, pieces))
    label = name or f"glued{pieces}-{sizes[0]}.{sizes[1]}.{sizes[2]}"
    return Instance(label, _turn(rng, _dual(tris)), sizes)


def turned(rng: random.Random, inst: Instance) -> Instance:
    """The same polytope map with every face cycle turned at random."""
    return Instance(inst.name, _turn(rng, [list(f) for f in inst.faces]), inst.sizes)


def random_instance(
    rng: random.Random, want_type: str, n_min: int, n_max: int
) -> Instance:
    """A glued instance of hull type `want_type` with n_min <= n <= n_max."""
    choices = [
        s
        for total in range(n_min + 2, n_max + 3)
        for m1 in range(2, total // 3 + 1)
        for m2 in range(m1, (total - m1) // 2 + 1)
        for s in [(m1, m2, total - m1 - m2)]
        if hull_type(s) == want_type and plans(s)
    ]
    if not choices:
        raise ValueError(f"no type {want_type} sizes with {n_min} <= n <= {n_max}")
    return glued(rng, rng.choice(choices))

