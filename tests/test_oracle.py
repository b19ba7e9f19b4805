from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import comb
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from conftest import (
    counts_by_walks,
    embedded_point_sets,
    facet_supports_by_keys,
    gen,
    join_grading_by_fold,
    lattice_isomorphic,
    neighborliness_by_combinations,
    oracle_lattice_by_joins,
    project_to_hull_coordinates,
    relabel_faces,
    spanning_hyperplane,
)
from galehull import (
    analyze_polytope,
    catalog,
    fvector,
    hull_model,
    incidence_system,
    model_facets,
    members,
    neighborliness,
    oracle_lattice,
    three_color,
    validate,
    verify_polytope,
)
from galehull.cli import _verify_report
from galehull.errors import (
    DegenerateInput,
    DimensionMismatch,
    StructureMismatch,
    TooManyPoints,
)
from galehull.linalg import affine_coordinates, affine_dimension, dot
from galehull.oracle import POINT_CAP, _facet_supports, oracle_facets
from galehull.reference import block_order, check_witness

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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(embedded_point_sets())
def test_oracle_off_full_dimension_equals_the_set_before_embedding(sets):
    """The oracle runs on the points as given: an injective affine map into
    a larger ambient space keeps its dimension, facets and faces."""
    points, image = sets
    if len(set(points)) == 1:
        for pts in (points, image):
            with pytest.raises(DegenerateInput, match="^all points coincide$"):
                oracle_lattice(pts)
        return
    lat, embedded = oracle_lattice(points), oracle_lattice(image)
    assert (embedded.dim, embedded.faces, embedded.facets) == (lat.dim, lat.faces, lat.facets)
    assert lat.dim == affine_dimension(points)


def test_facet_hyperplanes_evaluate_exactly():
    pts = OCTAHEDRON
    lat = oracle_lattice(pts)
    qpts, d = project_to_hull_coordinates([tuple(p) for p in pts])
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


def _vertex_indices_by_walk(lattice):
    """FaceLattice.vertex_indices as a walk over every face: the form that
    the direct read of the singletons replaced, kept as its reference."""
    singletons = [f for f, d in lattice.faces.items() if d == 0 and f.bit_count() == 1]
    return tuple(sorted(f.bit_length() - 1 for f in singletons))


@pytest.mark.parametrize(
    "name,pts", POSET_RANK_POINTS, ids=[n for n, _ in POSET_RANK_POINTS]
)
def test_vertex_indices_and_facets_equal_walks_over_the_faces(name, pts):
    lat = oracle_lattice(pts)
    assert lat.vertex_indices == _vertex_indices_by_walk(lat)
    by_walk = [f for f, d in lat.faces.items() if d == lat.dim - 1]
    assert len(lat.facets) == len(set(lat.facets)) == len(by_walk)
    assert set(lat.facets) == set(by_walk)


def test_vertex_indices_of_the_criterion_lattices_equal_the_walk():
    for name, p in _poset_rank_instances():
        lat = analyze_polytope(p).lattice
        assert lat.vertex_indices == _vertex_indices_by_walk(lat) == tuple(range(len(_vectors(p))))


def _assert_oracle_equals_the_references(pts):
    """The scan of the points as given equals the reference scan of their
    projection element by element, and the lattice equals the reference
    join grading on the reference facets."""
    qpts, d = project_to_hull_coordinates([tuple(p) for p in pts])
    facets = facet_supports_by_keys(qpts, d)
    assert _facet_supports(*affine_coordinates(pts)) == facets
    lat = oracle_lattice(pts)
    assert (lat.dim, lat.faces) == (d, join_grading_by_fold(facets, len(pts)))


# off the incidence vectors: Fraction coordinates, repeated points, and
# points whose first d + 1 are affinely dependent, so that the scan's base
# is no prefix of them
SCAN_POINTS = [
    (
        "fractions",
        [(F(1, 2), 0, 0), (-1, F(2, 3), 0), (0, 1, 0), (0, -1, F(1, 7)), (0, 0, 1),
         (0, 0, -1), (F(1, 3), F(1, 3), F(1, 5))],
    ),
    ("octahedron/3", [tuple(F(x, 3) + F(1, 2) for x in p) for p in OCTAHEDRON]),
    ("repeated-square", [(0, 0), (2, 0), (0, 0), (2, 2), (0, 2), (2, 2), (1, 1)]),
    ("repeated-octahedron", OCTAHEDRON + OCTAHEDRON[::2]),
    (
        "dependent-prefix",
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ),
    ("dependent-prefix-2d", [(0, 0), (0, 0), (1, 1), (2, 2), (3, 0), (0, 3)]),
]


REFERENCE_POINTS = POSET_RANK_POINTS + SCAN_POINTS


@pytest.mark.parametrize(
    "name,pts", REFERENCE_POINTS, ids=[n for n, _ in REFERENCE_POINTS]
)
def test_oracle_equals_the_reference_scan_and_grading(name, pts):
    _assert_oracle_equals_the_references(pts)


# 17 is prime to their vertex counts, all even and at most 26
RELABELED = [(name, lambda p=p: validate(relabel_faces(p, mult=17)))
             for name, p in _poset_rank_instances()]


@pytest.mark.parametrize("name,build", RELABELED, ids=[n for n, _ in RELABELED])
def test_oracle_equals_the_references_on_relabeled_copies(name, build):
    _assert_oracle_equals_the_references(_vectors(build()))


# 24 points, at ANALYSIS_VERTEX_CAP, where the lattice is out of reach of a
# test but the two scans are not; 17 is prime to both vertex counts, 44
RELABELED_24 = [
    ("prism:22", lambda: catalog("prism", 22)),
    ("glued-8.8.8", lambda: validate(gen.glued(random.Random(1), (8, 8, 8)).faces)),
]


@pytest.mark.parametrize("name,build", RELABELED_24, ids=[n for n, _ in RELABELED_24])
def test_scan_equals_the_reference_scan_on_relabeled_24_point_hulls(name, build):
    pts = list(_vectors(validate(relabel_faces(build(), 17))))
    assert len(pts) == 24
    qpts, d = project_to_hull_coordinates(pts)
    assert _facet_supports(*affine_coordinates(pts)) == facet_supports_by_keys(qpts, d)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 5).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=2, max_size=9)
    )
)
def test_scan_equals_the_reference_scan_on_small_point_sets(pts):
    qpts, d = project_to_hull_coordinates(pts)
    if d:
        assert _facet_supports(*affine_coordinates(pts)) == facet_supports_by_keys(qpts, d)


# past POINT_CAP, where oracle_facets refuses: the scan alone, against the
# reference scan and read through the class-block witness onto the model's
# facets
PAST_THE_CAP = [
    ("prism:34", lambda: catalog("prism", 34)),
    ("prism:46", lambda: catalog("prism", 46)),
    ("glued-10.12.14", lambda: validate(gen.glued(random.Random(1), (10, 12, 14)).faces)),
    ("glued-12.12.12", lambda: validate(gen.glued(random.Random(1), (12, 12, 12)).faces)),
]


@pytest.mark.parametrize("name,build", PAST_THE_CAP, ids=[n for n, _ in PAST_THE_CAP])
def test_facet_scan_past_the_point_cap_equals_the_model(name, build):
    p = build()
    coloring = three_color(p)
    system = incidence_system(p, coloring)
    pts = list(system.vectors)
    assert len(pts) > POINT_CAP
    facets = _facet_supports(*affine_coordinates(pts))
    assert facets == facet_supports_by_keys(*project_to_hull_coordinates(pts))
    model = hull_model(coloring.class_sizes)
    witness = {v: i for i, v in enumerate(block_order(system, model))}
    images = sorted(sum(1 << witness[v] for v in members(f)) for f in facets)
    assert images == sorted(model_facets(model))
    check_witness(facets, model_facets(model), witness, name)


def test_oracle_facets_refuse_past_the_point_cap():
    assert POINT_CAP == 26
    assert len(oracle_facets([(i,) for i in range(26)])[1]) == 2
    with pytest.raises(TooManyPoints):
        oracle_facets([(i,) for i in range(27)])


# the hulls of the scan's cost shape: every type, and the cube and a
# (3, 3, 3) gluing of type IV, whose hulls leave two points off a base
SCAN_HULLS = [
    ("cube", lambda: catalog("cube")),
    ("prism:6", lambda: catalog("prism", 6)),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
    ("type_one_polytope", instances.type_one_polytope),
    ("glued-3.3.3", lambda: validate(gen.glued(random.Random(1), (3, 3, 3)).faces)),
]


@pytest.mark.parametrize("name,build", SCAN_HULLS, ids=[n for n, _ in SCAN_HULLS])
def test_facet_scan_eliminates_once_per_hull(name, build, monkeypatch):
    """One elimination of the points as given, a row per coordinate and
    one of ones, for the base table, and none after it: per d-subset at
    most one null_vector system with a row per point of it outside the
    base, 1 to N - d - 1 rows (1 on types I-III, at most 2 on type IV),
    which null_vector solves by a cross product."""
    import galehull.linalg as linalg_module
    import galehull.oracle as oracle_module

    pts = _vectors(build())
    n = len(pts)
    exact, solve = linalg_module._eliminate, oracle_module.null_vector
    eliminated, systems = [], []

    def counting(rows, reduce):
        eliminated.append(len(rows))
        return exact(rows, reduce)

    def recording(rows):
        systems.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(linalg_module, "_eliminate", counting)
    monkeypatch.setattr(oracle_module, "null_vector", recording)
    d, _ = oracle_facets(pts)
    assert n - d - 1 == (2 if name in ("cube", "glued-3.3.3") else 1)
    assert eliminated == [len(pts[0]) + 1]
    assert systems and all(1 <= k <= n - d - 1 for k in systems)
    assert len(systems) <= comb(n, d)


# the apex comes last, so the top is a pyramid only over the face without
# its highest point
SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 1)]
COUNTED_POINTS = (
    POSET_RANK_POINTS[:3] + POSET_RANK_POINTS[-4:] + [("square-pyramid", SQUARE_PYRAMID)]
)


@pytest.mark.parametrize("name,pts", COUNTED_POINTS, ids=[n for n, _ in COUNTED_POINTS])
def test_exact_rank_runs_once_per_face_that_is_no_pyramid(name, pts, monkeypatch):
    """One exact rank per face that is no pyramid over a face one point
    smaller: the empty face, the top of a simplicial hull, the faces
    through points that are not vertices. The facets take none of their
    own: the scan certifies their rank."""
    import galehull.oracle as oracle_module

    calls = []
    exact = oracle_module.affine_dimension

    def counting(points):
        calls.append(len(points))
        return exact(points)

    monkeypatch.setattr(oracle_module, "affine_dimension", counting)
    lat = oracle_lattice(pts)
    no_pyramids = [
        f for f in lat.faces if not any(f ^ 1 << i in lat.faces for i in members(f))
    ]
    assert sorted(calls) == sorted(f.bit_count() for f in no_pyramids)


FACET_POINTS = (
    [
        ("octahedron", OCTAHEDRON),
        ("triangle+centroid", [(0, 0), (3, 0), (0, 3), (1, 1)]),
        ("segment+midpoint", [(0,), (2,), (1,)]),
        ("simplex", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ("square-pyramid", SQUARE_PYRAMID),
    ]
    + POSET_RANK_POINTS
    + [(f"prism:{k}", _vectors(catalog("prism", k))) for k in (14, 16)]
)


@pytest.mark.parametrize("name,pts", FACET_POINTS, ids=[n for n, _ in FACET_POINTS])
def test_every_scanned_facet_has_d_affinely_independent_points(name, pts):
    """Each scanned facet has affine rank d - 1 and holds d affinely
    independent points, whose spanning hyperplane meets the points in
    exactly the facet."""
    d, facets = oracle_facets(pts)
    assert d == affine_dimension(pts)
    qpts, _ = project_to_hull_coordinates([tuple(p) for p in pts])
    for f in facets:
        on_facet = [pts[i] for i in members(f)]
        assert affine_dimension(on_facet) == d - 1, members(f)
        independent = []
        for i in members(f):
            if affine_dimension([pts[j] for j in independent + [i]]) == len(independent):
                independent.append(i)
        assert len(independent) == d, members(f)
        normal, offset = spanning_hyperplane([qpts[i] for i in independent], d)
        assert f == sum(1 << i for i, q in enumerate(qpts) if dot(normal, q) == offset)


def test_oracle_facets_take_no_exact_rank(monkeypatch):
    import galehull.linalg as linalg_module
    import galehull.oracle as oracle_module

    def refuse(points):
        raise AssertionError(f"oracle_facets ranked {len(points)} points")

    monkeypatch.setattr(oracle_module, "affine_dimension", refuse)
    monkeypatch.setattr(linalg_module, "affine_dimension", refuse)
    for name, pts in FACET_POINTS:
        assert oracle_facets(pts)[1], name


def test_wrong_rank_of_a_face_that_is_no_pyramid_trips_the_grading_check(monkeypatch):
    """The octahedron's top is no pyramid over a face one point smaller,
    so it takes an exact rank; misgrading it alone fails the final check."""
    import galehull.oracle as oracle_module

    exact = oracle_module.affine_dimension

    def wrong(points):
        return exact(points) - (len(points) == len(OCTAHEDRON))

    monkeypatch.setattr(oracle_module, "affine_dimension", wrong)
    with pytest.raises(
        StructureMismatch, match="pyramid grading disagrees with the facet ranks"
    ):
        oracle_lattice(OCTAHEDRON)


def _join_closure_instances():
    yield "cube", catalog("cube")  # prism:4
    yield "truncated-octahedron", catalog("truncated-octahedron")
    for k in range(6, 16, 2):
        yield f"prism:{k}", catalog("prism", k)
    for build in instances.INSTANCE_BUILDERS:
        yield build.__name__, build()


JOIN_CLOSURE_POINTS = [(name, _vectors(p)) for name, p in _join_closure_instances()]


def _assert_oracle_equals_the_join_closure(pts):
    lat, ref = oracle_lattice(pts), oracle_lattice_by_joins(pts)
    assert (lat.dim, lat.top, lat.faces) == (ref.dim, ref.top, ref.faces)


@pytest.mark.parametrize(
    "name,pts", JOIN_CLOSURE_POINTS, ids=[n for n, _ in JOIN_CLOSURE_POINTS]
)
def test_oracle_equals_the_join_closure(name, pts):
    _assert_oracle_equals_the_join_closure(pts)


def _closure_lattice(points):
    """The lattice as the intersection closure of the facet sets, graded by
    poset rank in descending mask order: the construction the join grading
    replaced, kept as an independent reference."""
    pts = [tuple(p) for p in points]
    d, facets = oracle_facets(pts)
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
def test_oracle_equals_the_join_closure_with_non_vertices(pts):
    if len(set(pts)) > 1:
        _assert_oracle_equals_the_join_closure(pts)


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
        assert lat.counts == counts_by_walks(lat)


def test_oracle_caps_and_degenerate():
    with pytest.raises(TooManyPoints):
        oracle_lattice([(i,) for i in range(27)])
    with pytest.raises(DegenerateInput):
        oracle_lattice([(1, 1), (1, 1), (1, 1)])
    with pytest.raises(DimensionMismatch):
        oracle_lattice([(0, 0), (1, 0, 0)])


def test_verify_pyramid_structure_prism(prism6, prism8):
    """verify reads the pyramid report off the model once the witness
    holds; on the oracle's facets each apex misses exactly one, as in the
    model."""
    for p in (prism6, prism8):
        v = verify_polytope(p)
        report = _verify_report(v)["verify"]["pyramid"]
        apexes = set(v.analysis.system.class_indices(0))
        assert set(report["apexVertices"]) == apexes
        assert report["apexCount"] == 2
        assert report["zeroGalePoints"] and report["apexFacetSignature"]
        assert report["facetCount"] == len(v.oracle.facets)
        for j in apexes:
            assert sum(1 for f in v.oracle.facets if not f >> j & 1) == 1


def test_verify_pyramid_structure_rejects_type_four(cube):
    assert _verify_report(verify_polytope(cube))["verify"]["pyramid"] is None


@pytest.mark.parametrize(
    "fixture,hull_type,slot",
    [("prism6_analysis", "II", 0), ("trunc_oct_analysis", "III", 2)],
)
def test_a_dropped_facet_puts_an_apex_outside_none(
    fixture, hull_type, slot, request, monkeypatch
):
    """Each apex vertex misses exactly one facet; dropping that facet from
    the oracle's list leaves the apex on every facet. The facets do not
    take part in lattice equality, so the witness onto the model, which
    runs before the pyramid report is read, is what catches it."""
    import galehull.pipeline as pipeline_module

    analysis = request.getfixturevalue(fixture)
    assert analysis.report.hull_type == hull_type
    apex = analysis.system.class_indices(slot)[-1]
    exact = pipeline_module.oracle_lattice

    def dropping(points, *elimination):
        lattice = exact(points, *elimination)
        kept = tuple(f for f in lattice.facets if f >> apex & 1)
        assert len(kept) == len(lattice.facets) - 1
        return replace(lattice, facets=kept)

    monkeypatch.setattr(pipeline_module, "oracle_lattice", dropping)
    count = analysis.report.fvector[-1]
    with pytest.raises(
        StructureMismatch,
        match=rf"^witness onto .*: {count - 1} facets against {count} in the image$",
    ):
        verify_polytope(analysis.polytope)
