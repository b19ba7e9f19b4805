from __future__ import annotations

from itertools import combinations

import pytest

from galehull import analyze_polytope, catalog, relint_contains_zero, validate
from galehull.errors import CriterionMismatch
from galehull.gale import FaceLattice
from galehull.linalg import affine_dimension, rank


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
