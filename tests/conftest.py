from __future__ import annotations

from itertools import combinations

import pytest

from galehull import analyze_polytope, catalog, validate


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
