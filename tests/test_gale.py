from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
from conftest import (
    OVER_CAP,
    UP_TO_14,
    byte_fold,
    class_masks,
    counts_by_walks,
    embedded_point_sets,
    enumerate_faces_by_mask_scan,
    enumerate_faces_by_subset,
    gluings,
    neighborliness_by_combinations,
    null_space_by_fractions,
    proper_faces,
    ranks_by_elimination,
    vectors_by_faces,
)
from galehull import (
    analyze_polytope,
    catalog,
    enumerate_faces,
    fvector,
    gale_transform,
    grade_anchors,
    hull_dimension,
    hull_model,
    incidence_system,
    members,
    neighborliness,
    oracle_lattice,
    relint_contains_zero,
    simpliciality_check,
    summarize_polytope,
    three_color,
    validate,
    verify_polytope,
)
from galehull.cli import main
from galehull.errors import DimensionMismatch, TheoremViolation
from galehull.gale import IncidenceSystem, rref_gale_points, subset_table
from galehull.linalg import affine_coordinates, affine_dimension, dot, rank
from galehull.polytopes import coloring_from_assignment

F = Fraction


def _mask(indices):
    return sum(1 << i for i in indices)


def _model(s):
    return hull_model(s.coloring.class_sizes)


def _gale(s):
    """The Gale diagram of an IncidenceSystem, from the model of its sizes."""
    return gale_transform(s, _model(s))


def test_incidence_vector_of_cube_top_face(cube_analysis):
    # face 0 of the cube is the top square [0,1,2,3]
    assert cube_analysis.system.vectors[0] == (1, 1, 1, 1, 0, 0, 0, 0)


def test_class_sum_is_all_ones(cube_analysis):
    s = cube_analysis.system
    ones = (1,) * 8
    for slot in range(3):
        members = s.class_indices(slot)
        total = tuple(sum(s.vectors[i][v] for i in members) for v in range(8))
        assert total == ones


def test_incidence_column_sums(prism6_analysis):
    s = prism6_analysis.system
    assert len(s.vectors) == 8
    assert all(len(v) == 12 for v in s.vectors)
    for v in range(12):
        assert sum(vec[v] for vec in s.vectors) == 3


def test_hull_dimension_theorem(cube_analysis, prism6_analysis, trunc_oct_analysis):
    assert hull_dimension(cube_analysis.system) == 3          # equal classes: n-1
    assert hull_dimension(prism6_analysis.system) == 6        # otherwise: n
    assert hull_dimension(trunc_oct_analysis.system) == 12


def test_hull_dimension_violation_is_detected(cube):
    # an improper "coloring" with unequal class sizes predicts dim n = 4,
    # the actual hull has dimension 3
    s = IncidenceSystem(cube, coloring_from_assignment((1, 2, 2, 3, 3, 3)))
    with pytest.raises(TheoremViolation):
        hull_dimension(s)


def _patch_roots(monkeypatch, change=lambda roots: roots):
    """Route IncidenceSystem.dependency_roots through change; returns the
    list of systems it ran on."""
    exact = IncidenceSystem.dependency_roots.func
    calls = []

    def changed(self):
        calls.append(self)
        return tuple(change(list(exact(self))))

    prop = cached_property(changed)
    prop.__set_name__(IncidenceSystem, "dependency_roots")
    monkeypatch.setattr(IncidenceSystem, "dependency_roots", prop)
    return calls


def test_incidence_and_hull_ranks_share_one_elimination(prism6, monkeypatch):
    # one certificate, no elimination, gives both ranks
    calls = _patch_roots(monkeypatch)
    analysis = analyze_polytope(prism6)
    assert calls == [analysis.system]
    assert analysis.system.incidence_rank == 6 and analysis.report.dim == 6


def _split_face_zero(roots):
    roots[0] = -1   # a component of its own
    return roots


def test_incidence_rank_check_still_fires(prism6, monkeypatch):
    _patch_roots(monkeypatch, _split_face_zero)
    with pytest.raises(TheoremViolation, match="incidence rank != n = 6"):
        incidence_system(prism6, three_color(prism6))


def test_hull_dimension_check_still_fires(cube, monkeypatch):
    def move_face_zero(roots):
        roots[0] = roots[2]   # the top square joins a side's class: rank n survives
        return roots

    _patch_roots(monkeypatch, move_face_zero)
    s = incidence_system(cube, three_color(cube))
    assert hull_dimension(s) == 4   # the certificate alone holds no size rule
    with pytest.raises(TheoremViolation, match=r"hull dimension 4 but class sizes \(2, 2, 2\)"):
        _gale(s)


def test_certificate_rejects_a_vertex_without_a_face_of_each_class(cube):
    fake = IncidenceSystem(cube, coloring_from_assignment((1, 2, 2, 3, 3, 3)))
    with pytest.raises(TheoremViolation, match="vertex 2 is not on one face of each class"):
        fake.incidence_rank


def test_the_certificate_and_the_diagram_run_no_elimination(monkeypatch):
    import galehull.linalg as linalg_module
    import galehull.pipeline as pipeline_module

    exact = linalg_module._eliminate
    anchoring = []

    def eliminating(rows, reduce):
        assert anchoring, "a linalg elimination ran before grade_anchors"
        return exact(rows, reduce)

    def entering(*args):
        anchoring.append(True)
        return grade_anchors(*args)

    monkeypatch.setattr(linalg_module, "_eliminate", eliminating)
    for name, p in GALE_INSTANCES:
        _gale(incidence_system(p, three_color(p)))
    monkeypatch.setattr(pipeline_module, "grade_anchors", entering)
    for name, param in (("cube", None), ("prism", 6), ("truncated-octahedron", None)):
        anchoring.clear()
        analyze_polytope(catalog(name, param))
        assert anchoring


def test_type_four_relint_runs_on_the_three_class_points(cube_analysis, monkeypatch):
    import galehull.gale as gale_module

    calls = []
    exact = gale_module.relint_contains_zero

    def counting(points):
        calls.append(list(points))
        return exact(points)

    monkeypatch.setattr(gale_module, "relint_contains_zero", counting)
    model = hull_model(cube_analysis.report.sizes)
    assert model.hull_type == "IV" and len(calls) == 7
    # pattern 0, the empty subset: every class point lies off it
    assert calls[0] == list(model.class_points)
    # the analysis places the same three points in its face order
    assert set(cube_analysis.diagram.class_points) == set(model.class_points)


def test_type_four_relint_off_the_criterion_raises(cube_analysis, monkeypatch):
    import galehull.gale as gale_module

    from galehull.errors import CriterionMismatch

    monkeypatch.setattr(gale_module, "relint_contains_zero", lambda points: len(points) < 3)
    with pytest.raises(
        CriterionMismatch,
        match=r"^sizes \(2, 2, 2\), pattern 0: relint says False, type IV criterion says True$",
    ):
        hull_model(cube_analysis.report.sizes)


def test_gale_transform_residuals_are_zero(prism6_analysis):
    s, g = prism6_analysis.system, prism6_analysis.diagram
    npts = s.n + 2
    for b in range(len(g.class_points[0])):
        assert sum(g.points[j][b] for j in range(npts)) == 0
        for v in range(2 * s.n):
            assert sum(s.vectors[j][v] * g.points[j][b] for j in range(npts)) == 0


def _gale_instances():
    yield "cube", catalog("cube")
    for k in (6, 8, 12, 24, 64):
        yield f"prism:{k}", catalog("prism", k)
    yield "truncated-octahedron", catalog("truncated-octahedron")
    for build in instances.INSTANCE_BUILDERS:
        yield build.__name__, build()


GALE_INSTANCES = list(_gale_instances())


# past the verify cap, where only analyze reads the diagram, up to n = 70:
# prism:24 and prism:64 are GALE_INSTANCES, and prism:998's elimination is cubic
RREF_INSTANCES = GALE_INSTANCES + [
    (name, build()) for name, build in OVER_CAP if name.startswith("glued-")
]


@pytest.mark.parametrize("name,p", RREF_INSTANCES, ids=[n for n, _ in RREF_INSTANCES])
def test_closed_form_diagram_equals_rref_route(name, p):
    s = incidence_system(p, three_color(p))
    assert _gale(s).points == rref_gale_points(*affine_coordinates(s.vectors))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_closed_form_diagram_equals_rref_route_relabelled(data):
    _, p = data.draw(st.sampled_from(GALE_INSTANCES))
    faces = data.draw(st.permutations(p.faces))
    labels = data.draw(st.permutations(range(p.num_vertices)))
    q = validate([[labels[v] for v in f] for f in faces])
    s = incidence_system(q, three_color(q))
    assert _gale(s).points == rref_gale_points(*affine_coordinates(s.vectors))


def _gale_points_by_fractions(points):
    """The rows of null_space_by_fractions of the homogenized points."""
    basis = null_space_by_fractions([[1] * len(points), *map(list, zip(*points))])
    return tuple(tuple(b[j] for b in basis) for j in range(len(points)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(embedded_point_sets())
@example(([(0,), (1,)], [(0,), (1,)]))
@example(([(3,), (3,)], [(3, 1), (3, 1)]))
def test_rref_gale_points_equal_the_fraction_reference(sets):
    """rref_gale_points reads only the points' elimination, so it applies to any points:
    on each set and on its image off full dimension it gives the Fraction
    RREF's canonical basis, whose columns are affine dependencies, one per
    point off a base. An injective affine map keeps every affine
    dependency, so the image has the same Gale points."""
    points, image = sets
    by_rref = rref_gale_points(*affine_coordinates(points))
    assert by_rref == _gale_points_by_fractions(points)
    assert rref_gale_points(*affine_coordinates(image)) == by_rref
    assert _gale_points_by_fractions(image) == by_rref
    columns = list(zip(*by_rref))
    assert len(columns) == len(points) - 1 - affine_dimension(points)
    for lam in columns:
        assert sum(lam) == 0
        assert all(dot(lam, coordinate) == 0 for coordinate in zip(*image))


def test_rref_gale_points_hand_solved():
    # x + y + z = 0, y + 2z = 0  =>  (x, y, z) = z * (1, -2, 1)
    assert rref_gale_points(*affine_coordinates([(0,), (1,), (2,)])) == ((1,), (-2,), (1,))
    # affinely independent points have no dependency; the free column takes the 1
    assert rref_gale_points(*affine_coordinates([(0, 0), (1, 0), (0, 1)])) == ((), (), ())
    assert rref_gale_points(*affine_coordinates([(5,), (5,)])) == ((-1,), (1,))


def _incidences_equal_the_eager_build(p):
    """s.vectors equals the eager build, and each vertex-face list the
    ascending faces whose vector holds the vertex, which the certificates
    read from the vectors before."""
    vectors = vectors_by_faces(p)
    assert incidence_system(p, three_color(p)).vectors == vectors
    for v, faces in enumerate(p.vertex_faces):
        assert faces == tuple(j for j, vec in enumerate(vectors) if vec[v])


@pytest.mark.parametrize("name,p", GALE_INSTANCES, ids=[n for n, _ in GALE_INSTANCES])
def test_incidences_equal_the_eager_build(name, p):
    _incidences_equal_the_eager_build(p)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(gluings(UP_TO_14), st.integers(0, 2**16))
def test_generated_incidences_equal_the_eager_build(inst, shuffle_seed):
    faces = [list(f) for f in inst.faces]
    random.Random(shuffle_seed).shuffle(faces)
    _incidences_equal_the_eager_build(validate(faces))


def _certificate_equals_elimination(p):
    """The certified incidence rank and hull dimension equal the exact
    ranks of the vectors and the elimination route they replaced."""
    s = incidence_system(p, three_color(p))
    certified = s.incidence_rank, hull_dimension(s)
    assert certified == (rank(s.vectors), affine_dimension(s.vectors)) == ranks_by_elimination(s)
    return s


HULL_INSTANCES = GALE_INSTANCES + [
    ("prism:48", catalog("prism", 48)),
    ("two cubes", instances.two_cubes_polytope()),
]


@pytest.mark.parametrize("name,p", HULL_INSTANCES, ids=[n for n, _ in HULL_INSTANCES])
def test_homogenized_rank_is_the_affine_dimension(name, p):
    s = _certificate_equals_elimination(p)
    if name == "two cubes":   # not 3-connected, yet a type III hull
        assert s.coloring.class_sizes == (3, 3, 4) and _model(s).hull_type == "III"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gluings(UP_TO_14), st.integers(0, 2**16))
def test_generated_certified_ranks_equal_the_elimination(inst, seed):
    """Generated gluings of all four types, faces shuffled and vertices
    relabelled by a drawn seed."""
    rng = random.Random(seed)
    faces = [list(f) for f in inst.faces]
    rng.shuffle(faces)
    labels = list(range(max(map(max, faces)) + 1))
    rng.shuffle(labels)
    p = validate([[labels[v] for v in f] for f in faces])
    assert _certificate_equals_elimination(p).coloring.class_sizes == inst.sizes


def test_gale_transform_takes_no_affine_dimension(monkeypatch):
    import galehull.gale as gale_module

    calls = []
    exact = gale_module.affine_dimension

    def counting(points):
        calls.append(len(points))
        return exact(points)

    monkeypatch.setattr(gale_module, "affine_dimension", counting)
    for name, p in GALE_INSTANCES:
        _gale(incidence_system(p, three_color(p)))
    assert calls == []


def test_only_verify_runs_the_rref_route(monkeypatch):
    """verify's one elimination lives in pipeline and feeds the oracle and
    the RREF route; analyze eliminates nothing."""
    import galehull.pipeline as pipeline_module

    calls = []
    exact = pipeline_module.affine_coordinates

    def counting(points):
        calls.append(len(points))
        return exact(points)

    monkeypatch.setattr(pipeline_module, "affine_coordinates", counting)
    for name, param in (("cube", None), ("prism", 6)):
        p = catalog(name, param)
        analyze_polytope(p)
        assert calls == []
        verify_polytope(p)
        assert len(calls) == 1
        calls.clear()


def test_disagreeing_rref_route_fails_verify(monkeypatch, capsys):
    import json

    import galehull.pipeline as pipeline_module

    honest = pipeline_module.rref_gale_points

    def disagreeing(base, table):
        pts = list(honest(base, table))
        pts[0] = tuple(-x for x in pts[0])
        return tuple(pts)

    monkeypatch.setattr(pipeline_module, "rref_gale_points", disagreeing)
    assert main(["verify", "--catalog", "cube"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "DiagramMismatch"
    assert "Gale point 0" in doc["error"]["message"]


def test_type_four_neighborliness_off_m2_fails_verify(cube, monkeypatch):
    import galehull.pipeline as pipeline_module

    from galehull.errors import StructureMismatch

    exact = pipeline_module.hull_model

    def miscounting(sizes):
        model = exact(sizes)
        model.__dict__["counts"] = (*model.counts[:2], 2)
        return model

    # both neighborliness routes agree, on one more than the cube's m2 - 1 = 1
    monkeypatch.setattr(pipeline_module, "hull_model", miscounting)
    rows = pipeline_module.criterion_counts
    monkeypatch.setattr(
        pipeline_module, "criterion_counts", lambda s, model: (*rows(s, model)[:2], 2)
    )
    with pytest.raises(StructureMismatch, match=r"neighborliness 2 != m2-1 = 1"):
        verify_polytope(cube)


def test_corrupted_slots_trip_the_class_certificate(prism6_analysis):
    from dataclasses import replace

    s = replace(prism6_analysis.system)  # a fresh cache
    s.__dict__["slots"] = (1, *s.slots[1:])  # face 0 (a hexagon) moves off its class value
    # hull_dimension runs first in gale_transform, and its certificate
    # finds a vertex off one face of each class before any point is built
    with pytest.raises(TheoremViolation, match="vertex 0 is not on one face of each class"):
        _gale(s)


def test_wrong_classes_of_the_right_sizes_trip_the_class_certificate(cube):
    # classes {0,2}, {1,4}, {3,5}: sizes (2,2,2) as for the true coloring,
    # but faces 0 and 2 share an edge
    fake = IncidenceSystem(cube, coloring_from_assignment((1, 2, 1, 3, 2, 3)))
    with pytest.raises(TheoremViolation, match="is not on one face of each class"):
        _gale(fake)


def test_gale_diagram_cube(cube_analysis):
    g = cube_analysis.diagram
    assert len(g.class_points[0]) == 2 and len(g.points) == 6
    rays = {}
    for j, norm in enumerate(g.normalized):
        rays.setdefault(norm, []).append(cube_analysis.coloring.colors[j])
    assert len(rays) == 3
    for norm, colors in rays.items():
        assert len(colors) == 2 and len(set(colors)) == 1
    assert relint_contains_zero(g.points)


def test_gale_diagram_hexagonal_prism(prism6_analysis):
    g = prism6_analysis.diagram
    s = prism6_analysis.system
    assert len(g.class_points[0]) == 1
    values = [g.normalized[j][0] for j in range(8)]
    hexagons = s.class_indices(0)
    assert all(values[j] == 0 for j in hexagons)
    nonzero = sorted(values[j] for j in range(8) if j not in hexagons)
    assert nonzero == [-1, -1, -1, 1, 1, 1]


def test_classify_structures(prism6_analysis, prism8_analysis, trunc_oct_analysis):
    assert prism6_analysis.report.hull_type == "II"
    assert prism6_analysis.report.structure == "2-fold 6-pyramid over C(6,4)"
    assert prism8_analysis.report.hull_type == "II"
    assert prism8_analysis.report.sizes == (2, 4, 4)
    assert trunc_oct_analysis.report.hull_type == "III"
    assert trunc_oct_analysis.report.structure == "6-fold 12-pyramid over C(8,6)"


def test_classify_cube_type_four(cube_analysis):
    r = cube_analysis.report
    assert r.hull_type == "IV" and r.dim == 3 and r.k is None
    assert r.neighborly == r.sizes[1] - 1 == 1


def test_classify_stable_under_permuting_tied_classes(cube):
    base = three_color(cube)
    # swap the labels of two tied classes; sizes and type must not move
    swap = {1: 2, 2: 1, 3: 3}
    swapped = coloring_from_assignment(tuple(swap[c] for c in base.colors))
    s = incidence_system(cube, swapped)
    r = _model(s)
    g = gale_transform(s, r)
    assert r.hull_type == "IV" and r.sizes == (2, 2, 2)
    lattice = enumerate_faces(s, g, r)
    assert fvector(lattice) == (6, 12, 8)


def test_relint_contains_zero_one_dim():
    assert relint_contains_zero([(1,), (-1,)])
    assert not relint_contains_zero([(1,), (0,)])
    assert relint_contains_zero([(0,), (0,)])
    assert not relint_contains_zero([])
    assert not relint_contains_zero([(2,), (1,), (0,)])
    assert relint_contains_zero([(2,), (-1,), (0,)])
    assert relint_contains_zero([(), ()])


def test_relint_contains_zero_two_dim():
    assert relint_contains_zero([(1, 1), (-1, 0), (0, -1)])
    assert not relint_contains_zero([(1, 0), (0, 1)])
    assert relint_contains_zero([(1, 0), (-1, 0)])
    assert relint_contains_zero([(2, 0), (-1, 0)])
    assert not relint_contains_zero([(1, 1), (-1, 0)])
    assert relint_contains_zero([(0, 0)])
    assert not relint_contains_zero([(1, 1), (2, 2), (-1, -1), (1, 0)])
    assert relint_contains_zero([(F(1, 3), F(1, 2)), (F(-1, 3), F(-1, 2))])
    assert relint_contains_zero([(0, 0), (1, 0), (-1, 0)])
    assert relint_contains_zero([(1, 1), (-1, 0), (0, -1), (0, 0)])
    # 0 is on the edge between (1,0) and (-1,0), not inside the triangle
    assert not relint_contains_zero([(1, 0), (-1, 0), (0, 1)])
    # an affine line that misses 0
    assert not relint_contains_zero([(1, 0), (1, 1)])
    # exact on floats: the float cross product of these rounds to 0
    assert not relint_contains_zero([(0.9, 0.8), (-0.63, -0.5599999999999999)])


def test_relint_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        relint_contains_zero([(1, 0), (1,)])
    with pytest.raises(DimensionMismatch, match="dimension 3"):
        relint_contains_zero([(1, 0, 0), (-1, 0, 0)])


def _relint_by_oracle(points):
    """0 is in relint conv(P) iff it lies in no proper face of conv(P + 0)."""
    if not any(any(p) for p in points):
        return True
    origin = len(points)
    lattice = oracle_lattice(list(points) + [(0,) * len(points[0])])
    return not any(f >> origin & 1 for f in lattice.faces if f != lattice.top)


@st.composite
def small_point_sets(draw):
    coord = st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    dim = draw(st.integers(1, 2))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7))
    if draw(st.booleans()):  # every point on the line through 0 and the first
        points = [tuple(draw(coord) * x for x in points[0]) for _ in points]
    return points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_point_sets())
def test_relint_equals_the_oracle_reference(points):
    assert relint_contains_zero(points) == _relint_by_oracle(points)


def test_enumerate_faces_cube(cube_analysis):
    lattice = cube_analysis.lattice
    assert lattice.dim == 3
    # three pairwise non-opposite faces span a facet; prism(4) opposite
    # pairs are (0,1), (2,4), (3,5)
    assert lattice.faces.get(_mask({0, 2, 3})) == 2
    assert _mask({0, 1}) not in lattice.faces
    assert fvector(lattice) == (6, 12, 8)


def test_enumerate_faces_vertices_and_empty(prism6_analysis):
    lattice = prism6_analysis.lattice
    assert lattice.faces[0] == -1
    assert lattice.faces[lattice.top] == 6
    assert lattice.vertex_indices == tuple(range(8))


def test_chain_family_above_equal_classes(prism6_analysis):
    # faces containing both +-1 classes are exactly base + proper apex subsets
    s = prism6_analysis.system
    base = _mask(s.class_indices(1)) | _mask(s.class_indices(2))
    apexes = s.class_indices(0)
    containing = {
        f for f in proper_faces(prism6_analysis.lattice) if f & base == base
    }
    expected = {
        base | _mask(a)
        for size in range(len(apexes))
        for a in combinations(sorted(apexes), size)
    }
    assert containing == expected


def test_chain_family_above_equal_classes_big_apex(trunc_oct_analysis):
    # same family when the apex class is the largest one
    s = trunc_oct_analysis.system
    base = _mask(s.class_indices(0)) | _mask(s.class_indices(1))
    apexes = s.class_indices(2)
    containing = {
        f for f in proper_faces(trunc_oct_analysis.lattice) if f & base == base
    }
    expected = {
        base | _mask(a)
        for size in range(len(apexes))
        for a in combinations(sorted(apexes), size)
    }
    assert containing == expected


def _moving_in_the_model(monkeypatch, sizes, slot, value):
    """relint answering as if the model's class point of the given slot
    were (value,): the point moves in the model's own check."""
    import galehull.gale as gale_module

    exact = gale_module.relint_contains_zero
    points = hull_model(sizes).class_points
    old = points[slot]
    assert points.count(old) == 1   # no other class moves with it
    monkeypatch.setattr(
        gale_module,
        "relint_contains_zero",
        lambda points: exact([(value,) if p == old else p for p in points]),
    )


# a whole class moves: the model holds one point per class, and its
# relint-versus-criterion check names the first pattern at fault
FIRST_PATTERN_AT_FAULT = {
    ("prism6_analysis", 0): 4,
    ("prism6_analysis", 1): 0,
    ("trunc_oct_analysis", 2): 1,
    ("trunc_oct_analysis", 0): 0,
}


@pytest.mark.parametrize("fixture,slot,value", [
    ("prism6_analysis", 0, Fraction(5)),      # type II apex off zero
    ("prism6_analysis", 1, Fraction(0)),      # type II belt class onto zero
    ("trunc_oct_analysis", 2, Fraction(5)),   # type III apex off zero
    ("trunc_oct_analysis", 0, Fraction(0)),   # type III base class onto zero
])
def test_classify_pins_the_apex_gale_points(fixture, slot, value, request, monkeypatch):
    from galehull.errors import CriterionMismatch

    a = request.getfixturevalue(fixture)
    sizes, t = a.report.sizes, a.report.hull_type
    _moving_in_the_model(monkeypatch, sizes, slot, value)
    # the zero class moved off zero lets a non-face pass the relint test,
    # a nonzero class moved onto zero makes the empty face fail it
    pattern, relint = FIRST_PATTERN_AT_FAULT[fixture, slot], value != 0
    message = (
        f"sizes {sizes}, pattern {pattern}: relint says {relint}, "
        f"type {t} criterion says {not relint}"
    )
    with pytest.raises(CriterionMismatch, match=f"^{re.escape(message)}$"):
        hull_model(sizes)


def test_gale_diagram_is_one_point_per_class(cube_analysis, prism6_analysis, trunc_oct_analysis):
    for a in (cube_analysis, prism6_analysis, trunc_oct_analysis):
        s, g = a.system, a.diagram
        assert len(g.class_points) == 3 and g.slots == s.slots
        for slot in range(3):
            assert {g.points[j] for j in s.class_indices(slot)} == {g.class_points[slot]}
        assert len(g.class_points[0]) == len(g.points[0]) == (2 if a.report.hull_type == "IV" else 1)


def test_hull_dimension_runs_once_per_summary(monkeypatch):
    import galehull.gale as gale_module

    calls = []
    exact = gale_module.hull_dimension

    def counting(s):
        calls.append(s)
        return exact(s)

    monkeypatch.setattr(gale_module, "hull_dimension", counting)
    for p in (catalog("cube"), catalog("prism", 6), instances.type_one_polytope()):
        calls.clear()
        a = summarize_polytope(p)
        assert calls == [a.system]


def _grading_instances():
    yield "cube", catalog("cube")
    yield "prism:6", catalog("prism", 6)
    yield "prism:8", catalog("prism", 8)
    yield "truncated-octahedron", catalog("truncated-octahedron")
    for build in instances.INSTANCE_BUILDERS:
        yield build.__name__, build()


GRADING_INSTANCES = list(_grading_instances())


def _analyzed(p):
    s = incidence_system(p, three_color(p))
    t = _model(s)
    return s, gale_transform(s, t), t


@pytest.mark.parametrize("name,p", GRADING_INSTANCES, ids=[n for n, _ in GRADING_INSTANCES])
def test_gale_rank_grading_equals_exact_rank(name, p):
    s, g, t = _analyzed(p)
    lattice = enumerate_faces(s, g, t)
    for face, dim in lattice.faces.items():
        assert dim == affine_dimension([s.vectors[j] for j in members(face)]), members(face)


@pytest.mark.parametrize("name,p", GRADING_INSTANCES, ids=[n for n, _ in GRADING_INSTANCES])
def test_exact_rank_runs_once_per_gale_support(name, p, monkeypatch):
    import galehull.gale as gale_module

    s, g, t = _analyzed(p)
    calls = []
    exact = gale_module.affine_dimension

    def counting(points):
        calls.append(len(points))
        return exact(points)

    lattice = enumerate_faces(s, g, t)
    monkeypatch.setattr(gale_module, "affine_dimension", counting)
    grade_anchors(s, t)
    npts = len(g.points)
    supports = {
        frozenset(g.points[j] for j in range(npts) if not face >> j & 1)
        for face in lattice.faces
        if face != lattice.top
    }
    assert len(supports) <= 7
    # one anchor per support; the top face takes t.dim, no exact rank
    assert len(calls) == len(supports)


def test_wrong_ambient_trips_the_grading_anchor(prism6_analysis, monkeypatch):
    import galehull.gale as gale_module

    from galehull.errors import CriterionMismatch

    a = prism6_analysis
    # the table grades as a wrong ambient would: one less Gale rank is one
    # more ambient dimension in -1 - ambient + rank, and the anchor trips
    exact = gale_module._rank
    monkeypatch.setattr(gale_module, "_rank", lambda points: exact(points) - 1)
    t = hull_model(a.report.sizes)
    with pytest.raises(CriterionMismatch, match=r"sizes \(2, 3, 3\).*dim -2.*says -1"):
        grade_anchors(a.system, t)


ENUMERATION_INSTANCES = dict(
    GRADING_INSTANCES + [(f"prism:{k}", catalog("prism", k)) for k in (10, 12, 14)]
)
ENUMERATION_CASES = list(ENUMERATION_INSTANCES) + [
    f"relabeled {name}" for name in ("cube", "prism:6", "prism:8", "truncated-octahedron")
] + [
    f"{name} by class"
    for name in ("cube", "prism:6", "truncated-octahedron", "all_equal_polytope", "type_one_polytope")
]


def _classes_in_order(p):
    """p with its faces listed class by class, smallest sorted class first,
    so that class lies in the low half of the vertex masks and the largest
    in the high half."""
    c = three_color(p)
    return validate([list(p.faces[i]) for slot in range(3) for i in c.class_members(slot)])


def _enumeration_polytope(name, relabeled):
    if name.startswith("relabeled "):
        return relabeled[name.removeprefix("relabeled ")]
    if name.endswith(" by class"):
        return _classes_in_order(ENUMERATION_INSTANCES[name.removesuffix(" by class")])
    return ENUMERATION_INSTANCES[name]


def _enumeration_case(name, relabeled):
    return _analyzed(_enumeration_polytope(name, relabeled))


@pytest.mark.parametrize("name", ENUMERATION_CASES)
def test_pattern_table_equals_per_subset_enumeration(name, relabeled):
    s, g, t = _enumeration_case(name, relabeled)
    lattice = enumerate_faces(s, g, t)
    reference = enumerate_faces_by_subset(s, g, t)
    assert (lattice.dim, lattice.top) == (reference.dim, reference.top)
    # same faces, dimensions and insertion order
    assert list(lattice.faces.items()) == list(reference.faces.items())


@pytest.mark.parametrize("name", ENUMERATION_CASES)
def test_half_mask_rows_equal_the_per_mask_scan(name, relabeled):
    s, g, t = _enumeration_case(name, relabeled)
    if name.endswith(" by class"):
        low_bits = (1 << (s.n + 2) // 2) - 1
        smallest, _, largest = class_masks(s)
        assert smallest & low_bits == smallest and largest & low_bits == 0
    lattice = enumerate_faces(s, g, t)
    reference = enumerate_faces_by_mask_scan(s, g, t)
    assert (lattice.dim, lattice.top) == (reference.dim, reference.top)
    # same faces, dimensions and insertion order
    assert list(lattice.faces.items()) == list(reference.faces.items())


def test_half_mask_cases_cover_both_parities_and_row_kinds(relabeled):
    parities, full_rows, gapped_rows = set(), set(), set()
    for name in ENUMERATION_CASES:
        s, g, t = _enumeration_case(name, relabeled)
        npts = s.n + 2
        low = npts // 2
        parities.add(npts % 2)
        faces = enumerate_faces_by_mask_scan(s, g, t).faces
        for h in range((1 << (npts - low)) - 1):  # the top high half holds the full mask
            full = all(h << low | lo in faces for lo in range(1 << low))
            (full_rows if full else gapped_rows).add(t.hull_type)
    assert parities == {0, 1}
    # rows in which every low half completes a face take the range path
    assert full_rows == gapped_rows == {"I", "II", "III", "IV"}


def _counting_relint(monkeypatch) -> list:
    import galehull.gale as gale_module

    calls = []
    exact = gale_module.relint_contains_zero

    def counting(points):
        calls.append(len(points))
        return exact(points)

    monkeypatch.setattr(gale_module, "relint_contains_zero", counting)
    return calls


@pytest.mark.parametrize("name", ENUMERATION_CASES)
def test_relint_runs_once_per_class_pattern(name, relabeled, monkeypatch):
    p = _enumeration_polytope(name, relabeled)
    calls = _counting_relint(monkeypatch)
    analyze_polytope(p)
    # one table per analysis, built in hull_model
    assert len(calls) == 7


@pytest.mark.parametrize("name", ["cube", "prism:6", "truncated-octahedron", "type_one_polytope"])
def test_pattern_counts_reads_the_table(name, monkeypatch):
    import galehull.gale as gale_module

    t = _analyzed(ENUMERATION_INSTANCES[name])[2]
    calls = _counting_relint(monkeypatch)
    monkeypatch.setattr(gale_module, "_rank", lambda points: calls.append("rank"))
    t.counts
    assert calls == []


def test_class_constant_diagram_off_the_criterion_raises(prism6, prism6_analysis, monkeypatch):
    from dataclasses import replace

    import galehull.pipeline as pipeline_module

    from galehull.errors import CriterionMismatch, DiagramMismatch

    # the apex class, Gale value 0, moved to 5 in the analysis's diagram:
    # the enumeration reads the model, and the RREF cross-check names the point
    exact = pipeline_module.gale_transform

    def moving(s, model):
        g = exact(s, model)
        pts = list(g.class_points)
        pts[0] = (Fraction(5),)
        return replace(g, class_points=tuple(pts))

    monkeypatch.setattr(pipeline_module, "gale_transform", moving)
    first = prism6_analysis.system.class_indices(0)[0]
    with pytest.raises(DiagramMismatch, match=rf"^Gale point {first}: class sizes give \['5'\], "):
        verify_polytope(prism6)
    # the same point moved in the model's check trips the criterion
    monkeypatch.undo()
    _moving_in_the_model(monkeypatch, (2, 3, 3), 0, Fraction(5))
    message = r"^sizes \(2, 3, 3\), pattern 4: relint says True, type II criterion says False$"
    with pytest.raises(CriterionMismatch, match=message):
        hull_model((2, 3, 3))


def test_type_one_k_two_shares_one_gale_support(monkeypatch):
    import galehull.gale as gale_module

    s, g, t = _analyzed(instances.type_one_polytope())
    assert t.sizes == (4, 5, 6) and t.k == 2
    first, _, last = ({g.points[j] for j in s.class_indices(i)} for i in range(3))
    assert first == last and len(first) == 1
    calls = []
    exact = gale_module.affine_dimension

    def counting(points):
        calls.append(len(points))
        return exact(points)

    monkeypatch.setattr(gale_module, "affine_dimension", counting)
    grade_anchors(s, t)
    # the three face patterns (none, class 1, class 3 held) share one support
    assert len(calls) == 1


def test_fvector_prism6_matches_reference(prism6_analysis):
    from conftest import cyclic_facets, pyramid

    ref = pyramid(cyclic_facets(6, 4), 2)
    assert fvector(prism6_analysis.lattice) == fvector(ref)


def test_simpliciality(cube_analysis, prism6_analysis):
    assert simpliciality_check(cube_analysis.lattice) is True
    assert simpliciality_check(prism6_analysis.lattice) is False
    # the type's prediction is checked where the counts are taken: prism:6's
    # non-simplicial table under the cube's type IV raises
    from dataclasses import replace

    mismatched = replace(
        prism6_analysis.report, hull_type=cube_analysis.report.hull_type, apexes=0
    )
    with pytest.raises(TheoremViolation, match="type IV hull has simpliciality False"):
        mismatched.counts


def test_neighborliness_known_values(cube_analysis):
    from conftest import cyclic_facets
    from galehull import oracle_lattice

    assert neighborliness(cube_analysis.lattice) == 1
    assert neighborliness(cyclic_facets(6, 4)) == 2
    simplex = oracle_lattice([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert neighborliness(simplex) == 3


@st.composite
def values_and_bit_sets(draw):
    """1-26 values of 30 bits, and some ints with bits only below that count."""
    bits = draw(st.integers(1, 26))
    values = draw(st.lists(st.integers(0, (1 << 30) - 1), min_size=bits, max_size=bits))
    xs = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=8))
    return values, xs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values_and_bit_sets())
def test_byte_fold_equals_a_loop_over_the_set_bits(case):
    values, xs = case
    full = (1 << 30) - 1
    meet, join = byte_fold(values, and_, full), byte_fold(values, or_, 0)
    # 14 values at most keep the subset tables at 16k entries
    k = min(len(values), 14)
    meets, joins = subset_table(values[:k], and_, full), subset_table(values[:k], or_, 0)
    assert subset_table([], and_, full) == [full] and subset_table([], or_, 0) == [0]
    for x in xs:
        on = [values[j] for j in members(x)]
        assert meet(x) == reduce(and_, on, full)
        assert join(x) == reduce(or_, on, 0)
        part = x & (1 << k) - 1
        on = [values[j] for j in members(part)]
        assert meets[part] == reduce(and_, on, full)
        assert joins[part] == reduce(or_, on, 0)


def _neighborliness_cases():
    from conftest import cyclic_facets, pyramid, tkn_model, type4_model
    from galehull import oracle_lattice

    for name, p in GRADING_INSTANCES:
        yield name, lambda p=p: analyze_polytope(p).lattice
    for n, k in ((2, 1), (4, 1), (5, 2), (6, 3)):
        yield f"tkn_model({n},{k})", lambda n=n, k=k: tkn_model(n, k)
    for m in (2, 3):
        yield f"type4_model({m})", lambda m=m: type4_model(m)
    yield "pyramid(cyclic_facets(6,4),2)", lambda: pyramid(cyclic_facets(6, 4), 2)
    yield "pyramid(tkn_model(4,1),1)", lambda: pyramid(tkn_model(4, 1), 1)
    # the added points lie inside, on an edge or on a 2-face: not vertices
    octahedron = [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)]
    yield "octahedron+centre+midpoint", lambda: oracle_lattice(
        octahedron + [(0, 0, 0), (1, 1, 0)]
    )
    simplex = [(0, 0, 0, 0), (6, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6)]
    yield "4-simplex+edge-midpoint", lambda: oracle_lattice(simplex + [(3, 0, 0, 0)])
    yield "4-simplex+triangle-centre", lambda: oracle_lattice(simplex + [(2, 2, 0, 0)])


NEIGHBORLINESS_CASES = list(_neighborliness_cases())


@pytest.mark.parametrize(
    "name,build", NEIGHBORLINESS_CASES, ids=[n for n, _ in NEIGHBORLINESS_CASES]
)
def test_neighborliness_equals_the_combinations_form(name, build):
    lattice = build()
    assert neighborliness(lattice) == neighborliness_by_combinations(lattice)
    # the one walk behind all three counts equals the three walks it replaced
    assert lattice.counts == counts_by_walks(lattice)
    assert (fvector(lattice), simpliciality_check(lattice), neighborliness(lattice)) == (
        lattice.counts
    )


# the added points are not vertices: the centre of a square, the midpoint
# of a triangle's edge
NON_VERTEX_CASES = [
    ("square+centre", [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)], ((4, 4), True, 1)),
    ("triangle+edge-midpoint", [(0, 0), (2, 0), (0, 2), (1, 0)], ((3, 3), True, 1)),
]


@pytest.mark.parametrize(
    "name,pts,expected", NON_VERTEX_CASES, ids=[n for n, *_ in NON_VERTEX_CASES]
)
def test_one_walk_with_points_that_are_not_vertices(name, pts, expected):
    """Both are simplicial. The square is 1-neighborly; so is the triangle,
    whose edge through the midpoint is a simplex but whose two vertices
    alone are no face."""
    lattice = oracle_lattice(pts)
    assert lattice.vertex_indices != tuple(range(len(pts)))
    assert lattice.counts == counts_by_walks(lattice) == expected


@pytest.mark.parametrize(
    "points", [None, NON_VERTEX_CASES[1][1]], ids=["cube", "triangle+edge-midpoint"]
)
def test_a_bumped_dimension_flips_simplicial(points, cube_analysis):
    """One edge graded as a vertex: its vertex count no longer fits, on a
    lattice of vertices only and on one through a point that is not."""
    lattice = cube_analysis.lattice if points is None else oracle_lattice(points)
    assert simpliciality_check(lattice) is True
    edge = max(f for f, d in lattice.faces.items() if d == 1)
    bumped = replace(lattice, faces={**lattice.faces, edge: 0})
    assert bumped.counts == counts_by_walks(bumped)
    assert simpliciality_check(bumped) is False


def test_simpliciality_counts_vertices_not_points():
    # points on an edge, on a 2-face or inside leave a simplicial polytope
    # simplicial; a square pyramid stays non-simplicial with its base centre
    from galehull import oracle_lattice

    cases = dict(NEIGHBORLINESS_CASES)
    for name in (
        "octahedron+centre+midpoint",
        "4-simplex+edge-midpoint",
        "4-simplex+triangle-centre",
    ):
        assert simpliciality_check(cases[name]()) is True
    square_pyramid = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 1)]
    assert simpliciality_check(oracle_lattice(square_pyramid)) is False
    assert simpliciality_check(oracle_lattice(square_pyramid + [(1, 1, 0)])) is False


def test_lattice_intersection_closed(cube_analysis):
    faces = set(cube_analysis.lattice.faces)
    for a in faces:
        for b in faces:
            assert (a & b) in faces


def test_lattice_json_dump_golden():
    import json

    from conftest import cyclic_facets, lattice_to_json

    dump = lattice_to_json(cyclic_facets(4, 2))
    assert dump == {
        "dim": 2,
        "faces": [
            {"vertices": [], "dim": -1},
            {"vertices": [0], "dim": 0},
            {"vertices": [1], "dim": 0},
            {"vertices": [2], "dim": 0},
            {"vertices": [3], "dim": 0},
            {"vertices": [0, 1], "dim": 1},
            {"vertices": [0, 3], "dim": 1},
            {"vertices": [1, 2], "dim": 1},
            {"vertices": [2, 3], "dim": 1},
            {"vertices": [0, 1, 2, 3], "dim": 2},
        ],
    }
    json.dumps(dump)  # serializable as-is


def test_lattice_json_dump_deterministic(prism6_analysis):
    from conftest import lattice_to_json

    once = lattice_to_json(prism6_analysis.lattice)
    again = lattice_to_json(prism6_analysis.lattice)
    assert once == again
