from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from conftest import (
    facet_supports_by_keys,
    join_grading_by_fold,
    lattice_isomorphic,
    neighborliness_by_combinations,
    relabel_faces,
)
from galehull import (
    beyond_facets,
    catalog,
    fvector,
    incidence_system,
    members,
    neighborliness,
    oracle_lattice,
    three_color,
    validate,
    verify_pyramid_structure,
)
from galehull.errors import (
    DegenerateInput,
    DimensionMismatch,
    PointOutsideAffineHull,
    StructureMismatch,
    TooManyPoints,
)
from galehull.linalg import affine_dimension, dot, spanning_hyperplane
from galehull.oracle import _facet_supports, _project_to_hull_coordinates

F = Fraction

OCTAHEDRON = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]


def test_octahedron_fvector():
    lat = oracle_lattice(OCTAHEDRON)
    assert lat.dim == 3
    assert fvector(lat) == (6, 12, 8)


def test_cube_incidence_vectors_give_octahedron(cube_analysis):
    lat = oracle_lattice(cube_analysis.system.vectors)
    assert fvector(lat) == (6, 12, 8)
    assert lattice_isomorphic(lat, oracle_lattice(OCTAHEDRON)) is not None


def test_triangle_with_centroid():
    pts = [(0, 0), (3, 0), (0, 3), (1, 1)]
    lat = oracle_lattice(pts)
    assert lat.dim == 2
    vertices = lat.vertex_indices
    assert vertices == (0, 1, 2)  # the centroid is interior
    assert lat.faces[lat.top] == 2


def test_segment_with_midpoint():
    lat = oracle_lattice([(0,), (2,), (1,)])
    assert lat.dim == 1
    assert lat.vertex_indices == (0, 1)
    assert fvector(lat) == (2,)


def test_simplex_lattice():
    lat = oracle_lattice([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert fvector(lat) == (4, 6, 4)


def test_oracle_permutation_invariance():
    rng = random.Random(5)
    pts = list(OCTAHEDRON)
    base = oracle_lattice(pts)
    for _ in range(5):
        perm = list(range(len(pts)))
        rng.shuffle(perm)
        shuffled = [pts[i] for i in perm]
        lat = oracle_lattice(shuffled)
        relabeled = {
            sum(1 << perm.index(i) for i in members(f)): d for f, d in base.faces.items()
        }
        assert lat.faces == relabeled


def test_oracle_affine_invariance():
    rng = random.Random(11)
    from galehull.linalg import rank

    for _ in range(5):
        while True:
            A = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if rank(A) == 3:
                break
        t = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        mapped = [
            tuple(dot(A[r], p) + t[r] for r in range(3)) for p in OCTAHEDRON
        ]
        assert oracle_lattice(mapped).faces == oracle_lattice(OCTAHEDRON).faces


def test_facet_hyperplanes_evaluate_exactly():
    pts = OCTAHEDRON
    lat = oracle_lattice(pts)
    qpts, d = _project_to_hull_coordinates([tuple(p) for p in pts])
    for face, dim in lat.faces.items():
        if dim != lat.dim - 1:
            continue
        hp = spanning_hyperplane([qpts[i] for i in members(face)], d)
        assert hp is not None
        normal, offset = hp
        values = [dot(normal, q) - offset for q in qpts]
        assert all(v == 0 for i, v in enumerate(values) if face >> i & 1)
        others = [v for i, v in enumerate(values) if not face >> i & 1]
        assert all(v > 0 for v in others) or all(v < 0 for v in others)


def _poset_rank_instances():
    yield "cube", catalog("cube")
    for k in (6, 8, 10, 12):
        yield f"prism:{k}", catalog("prism", k)
    yield "truncated-octahedron", catalog("truncated-octahedron")
    for build in instances.INSTANCE_BUILDERS:
        yield build.__name__, build()


def _vectors(p):
    return incidence_system(p, three_color(p)).vectors


POSET_RANK_POINTS = [(name, _vectors(p)) for name, p in _poset_rank_instances()] + [
    ("square+center", [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]),
    ("square+edge-midpoint", [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0)]),
    (
        "cube+facet-center",
        [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)] + [(1, 1, 2)],
    ),
    ("octahedron+center", OCTAHEDRON + [(0, 0, 0)]),
]


@pytest.mark.parametrize(
    "name,pts", POSET_RANK_POINTS, ids=[n for n, _ in POSET_RANK_POINTS]
)
def test_poset_rank_equals_exact_rank(name, pts):
    lat = oracle_lattice(pts)
    for face, dim in lat.faces.items():
        assert dim == affine_dimension([pts[i] for i in members(face)]), members(face)


def _assert_oracle_equals_the_references(pts):
    """The scan equals the reference scan element by element, and the
    lattice equals the reference join grading on the reference facets."""
    qpts, d = _project_to_hull_coordinates([tuple(p) for p in pts])
    supports = facet_supports_by_keys(qpts, d)
    assert _facet_supports(qpts, d) == supports
    facets = [mask for mask, *_ in supports]
    lat = oracle_lattice(pts)
    assert (lat.dim, lat.faces) == (d, join_grading_by_fold(facets, len(pts)))


@pytest.mark.parametrize(
    "name,pts", POSET_RANK_POINTS, ids=[n for n, _ in POSET_RANK_POINTS]
)
def test_oracle_equals_the_reference_scan_and_grading(name, pts):
    _assert_oracle_equals_the_references(pts)


# 17 is prime to their vertex counts, all even and at most 26
RELABELED = [(name, lambda p=p: validate(relabel_faces(p, mult=17)))
             for name, p in _poset_rank_instances()]


@pytest.mark.parametrize("name,build", RELABELED, ids=[n for n, _ in RELABELED])
def test_oracle_equals_the_references_on_relabeled_copies(name, build):
    _assert_oracle_equals_the_references(_vectors(build()))


# spanning_hyperplane calls of the facet scan against the C(N, d) d-subsets
# the reference spans: type I hyperplanes hold exactly d points each, so
# that hull is the one where no subset can be skipped. On the cube (the
# octahedron) the skips come from hyperplanes that support no facet.
SCAN_CALLS = [
    ("cube", lambda: catalog("cube"), 11, comb(6, 3)),
    ("prism:6", lambda: catalog("prism", 6), 17, comb(8, 6)),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron"), 34, comb(14, 12)),
    ("type_one_polytope", instances.type_one_polytope, 105, comb(15, 13)),
]


@pytest.mark.parametrize(
    "name,build,calls,subsets", SCAN_CALLS, ids=[c[0] for c in SCAN_CALLS]
)
def test_facet_scan_skips_subsets_on_known_hyperplanes(
    name, build, calls, subsets, monkeypatch
):
    import galehull.oracle as oracle_module

    spans = []
    exact = oracle_module.spanning_hyperplane

    def counting(points, ambient_dim):
        spans.append(len(points))
        return exact(points, ambient_dim)

    monkeypatch.setattr(oracle_module, "spanning_hyperplane", counting)
    lat = oracle_lattice(_vectors(build()))
    assert comb(lat.top.bit_length(), lat.dim) == subsets
    assert len(spans) == calls


COUNTED_POINTS = POSET_RANK_POINTS[:3] + POSET_RANK_POINTS[-4:]


@pytest.mark.parametrize("name,pts", COUNTED_POINTS, ids=[n for n, _ in COUNTED_POINTS])
def test_exact_rank_runs_once_per_facet(name, pts, monkeypatch):
    import galehull.oracle as oracle_module

    calls = []
    exact = oracle_module.affine_dimension

    def counting(points):
        calls.append(len(points))
        return exact(points)

    monkeypatch.setattr(oracle_module, "affine_dimension", counting)
    lat = oracle_lattice(pts)
    facets = [f for f, d in lat.faces.items() if d == lat.dim - 1]
    assert sorted(calls) == sorted(f.bit_count() for f in facets)


def test_wrong_facet_rank_names_the_facet(monkeypatch):
    import galehull.oracle as oracle_module

    exact = oracle_module.affine_dimension
    facet = sorted(OCTAHEDRON[i] for i in (0, 2, 4))

    def wrong(points):
        return exact(points) - (sorted(points) == facet)

    monkeypatch.setattr(oracle_module, "affine_dimension", wrong)
    with pytest.raises(
        StructureMismatch,
        match=r"facet \[0, 2, 4\] has affine dimension 1, expected 2",
    ):
        oracle_lattice(OCTAHEDRON)


def _closure_lattice(points):
    """The lattice as the intersection closure of the facet sets, graded by
    poset rank in descending mask order: the construction the join grading
    replaced, kept as an independent reference."""
    pts = [tuple(p) for p in points]
    qpts, d = _project_to_hull_coordinates(pts)
    facets = [mask for mask, *_ in _facet_supports(qpts, d)]
    closure, queue = set(facets), list(facets)
    while queue:
        m = queue.pop()
        for f in facets:
            if m & f not in closure:
                closure.add(m & f)
                queue.append(m & f)
    closure.add(0)
    n = len(pts)
    inc = [sum(1 << k for k, f in enumerate(facets) if f >> i & 1) for i in range(n)]
    rank_of = {0: d}
    faces = {}
    for m in sorted(closure, reverse=True):
        t = reduce(and_, (inc[i] for i in members(m)), (1 << len(facets)) - 1)
        rank_of[t] = min(rank_of[t & inc[i]] for i in range(n) if not m >> i & 1) - 1
        faces[m] = rank_of[t]
    faces[(1 << n) - 1] = d
    return d, faces


@st.composite
def point_sets_with_non_vertices(draw):
    """Integer points in dimension 2-4, plus the means of some of them and
    of all: points on edges, on other faces or inside, not vertices."""
    dim = draw(st.integers(2, 4))
    base = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim + 1, max_size=7)
    )
    sizes = draw(st.lists(st.sampled_from([2, 3]), max_size=3))
    groups = [draw(st.lists(st.sampled_from(base), min_size=k, max_size=k)) for k in sizes]
    scale = 6 * len(base)  # every mean below is then an integer point
    pts = [tuple(scale * x for x in p) for p in base]
    return pts + [
        tuple(scale * sum(c) // len(g) for c in zip(*g)) for g in groups + [base]
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets_with_non_vertices())
def test_join_grading_equals_the_closure_construction(pts):
    if len(set(pts)) == 1:
        with pytest.raises(DegenerateInput):
            oracle_lattice(pts)
        return
    lat = oracle_lattice(pts)
    assert (lat.dim, lat.faces) == _closure_lattice(pts)
    assert lat.top == (1 << len(pts)) - 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets_with_non_vertices())
def test_oracle_equals_the_references_with_non_vertices(pts):
    if len(set(pts)) > 1:
        _assert_oracle_equals_the_references(pts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets_with_non_vertices())
def test_neighborliness_counts_faces_through_non_vertices_safely(pts):
    if len(set(pts)) > 1:
        lat = oracle_lattice(pts)
        assert neighborliness(lat) == neighborliness_by_combinations(lat)


def test_oracle_caps_and_degenerate():
    with pytest.raises(TooManyPoints):
        oracle_lattice([(i,) for i in range(27)])
    with pytest.raises(DegenerateInput):
        oracle_lattice([(1, 1), (1, 1), (1, 1)])


def test_beyond_facets_interior_point_is_zero():
    triangle = [(0, 0), (3, 0), (0, 3)]
    assert beyond_facets((1, 1), triangle) == 0


def test_beyond_facets_counts():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert beyond_facets((F(1, 2), 2), square) == 1   # above the top edge
    assert beyond_facets((2, 2), square) == 2          # past the corner
    assert beyond_facets((F(1, 2), F(1, 2)), square) == 0


def test_beyond_facets_outside_affine_hull():
    square_in_3d = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    with pytest.raises(PointOutsideAffineHull):
        beyond_facets((F(1, 2), F(1, 2), 1), square_in_3d)


def test_beyond_facets_point_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        beyond_facets((1, 1, 1), [(0, 0), (3, 0), (0, 3)])


def test_verify_pyramid_structure_prism(prism6_analysis, prism8_analysis):
    for analysis in (prism6_analysis, prism8_analysis):
        oracle = oracle_lattice(analysis.system.vectors)
        report = verify_pyramid_structure(analysis.system, analysis.report, oracle)
        apexes = set(analysis.system.class_indices(0))
        assert set(report["apexVertices"]) == apexes
        assert report["apexCount"] == 2
        assert report["zeroGalePoints"] and report["apexFacetSignature"]


def test_verify_pyramid_structure_rejects_type_four(cube_analysis):
    with pytest.raises(ValueError):
        verify_pyramid_structure(
            cube_analysis.system, cube_analysis.report, cube_analysis.lattice
        )
