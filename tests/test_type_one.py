"""Property suite for hulls whose three class sizes are pairwise distinct,
run against the constructed n = 13 instance with sizes (4, 5, 6)."""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import galehull.oracle
import galehull.pipeline
from galehull import (
    analyze_polytope,
    catalog,
    equivalence_witness,
    members,
    oracle_lattice,
    three_color,
    validate,
    verify_polytope,
)
from conftest import gen, lattice_isomorphic, simplex_beyond_count, tkn_model
from galehull.cli import _verify_report
from galehull.errors import CriterionMismatch, StructureMismatch
from galehull.gale import hull_model, rref_gale_points
from galehull.linalg import affine_coordinates
from galehull.pipeline import type_one_checks
from instances import type_one_polytope, type_one_polytope_mirror


def _glued(sizes):
    return lambda: validate(gen.glued(random.Random(1), sizes).faces)


# the two hand-built (4,5,6) gluings and two generated ones with other m2
TYPE_ONE_BUILDERS = {
    "type_one_polytope": type_one_polytope,
    "type_one_polytope_mirror": type_one_polytope_mirror,
    "glued-4.6.7": _glued((4, 6, 7)),
    "glued-5.6.7": _glued((5, 6, 7)),
}


def _beyond_by_oracle_facets(facets, npoints: int, v: int) -> int:
    """The facets of the simplex S of the other points that v is beyond:
    all N-1 of them less those that miss v, which are facets of S with v
    strictly beneath."""
    return npoints - 1 - sum(1 for f in facets if not f >> v & 1)


@pytest.fixture(scope="module")
def type_one():
    return type_one_polytope()


@pytest.fixture(scope="module")
def verification(type_one):
    return verify_polytope(type_one)


def test_construction_is_valid(type_one):
    assert type_one.fvector == (26, 39, 15)


def test_coloring_sizes_all_distinct(type_one):
    c = three_color(type_one)
    assert c.class_sizes == (4, 5, 6)
    assert c.essential_colorings == 1


def test_classified_with_distinct_sizes(verification):
    r = verification.analysis.report
    assert r.hull_type == "I"
    assert r.dim == 13
    assert r.k == Fraction(2)
    assert r.structure == "T^13_4"


def test_simplicial(verification):
    assert verification.analysis.report.simplicial


def test_faces_match_oracle(verification):
    assert verification.analysis.lattice.faces == verification.oracle.faces


def test_a_lattice_off_the_oracle_fails_before_the_suite(type_one, monkeypatch):
    # verify_polytope's comparison is the one check of facesMatchOracle;
    # the type I suite reports it without comparing again
    exact = galehull.pipeline.oracle_lattice

    def dropping_vertex_zero(points, *elimination):
        lattice = exact(points, *elimination)
        return replace(lattice, faces={f: d for f, d in lattice.faces.items() if f != 1})

    suites = []
    monkeypatch.setattr(galehull.pipeline, "oracle_lattice", dropping_vertex_zero)
    monkeypatch.setattr(galehull.pipeline, "type_one_checks", suites.append)
    with pytest.raises(
        CriterionMismatch, match=r"oracle lattices differ: criterion-only: \[\[0\]\]$"
    ):
        verify_polytope(type_one)
    assert suites == []


@pytest.mark.parametrize("branch", ["oracle-only", "dimension disagreements"])
def test_a_lattice_off_the_oracle_names_its_first_faces(type_one, branch, monkeypatch):
    exact = galehull.pipeline.oracle_lattice
    found = {}

    def changed(points, *elimination):
        lattice = exact(points, *elimination)
        faces = dict(lattice.faces)
        if branch == "oracle-only":
            found["face"] = next(m for m in range(lattice.top) if m not in faces)
            faces[found["face"]] = 0
        else:
            found["face"] = 1
            faces[1] = 1
        return replace(lattice, faces=faces)

    monkeypatch.setattr(galehull.pipeline, "oracle_lattice", changed)
    with pytest.raises(CriterionMismatch) as caught:
        verify_polytope(type_one)
    assert str(caught.value) == (
        f"criterion and oracle lattices differ: {branch}: [{members(found['face'])}]"
    )


def test_distinct_size_suite_runs_and_passes(verification):
    report = _verify_report(verification)["verify"]["typeOne"]
    assert report is not None
    assert report["expectedBeyond"] == 4
    assert all(v == 4 for v in report["beyondCounts"].values())


def test_middle_class_vertices_beyond_m2_minus_1():
    for build in TYPE_ONE_BUILDERS.values():
        s = analyze_polytope(build()).system
        m2 = sorted(s.coloring.class_sizes)[1]
        facets = oracle_lattice(s.vectors).facets
        for v0 in s.class_indices(1):
            assert _beyond_by_oracle_facets(facets, len(s.vectors), v0) == m2 - 1


def test_gale_values_follow_k(verification):
    s = verification.analysis.system
    g = verification.analysis.diagram
    k = verification.analysis.report.k
    v1 = g.points[s.class_indices(0)[0]][0]
    v2 = g.points[s.class_indices(1)[0]][0]
    v3 = g.points[s.class_indices(2)[0]][0]
    assert v1 / v3 == k - 1
    assert v2 / v3 == -k


def test_reference_is_simplex_plus_point_model(verification):
    ref = tkn_model(13, 4)
    assert lattice_isomorphic(verification.analysis.lattice, ref) is not None


def test_dropping_a_middle_vertex_leaves_a_simplex(verification):
    s = verification.analysis.system
    v0 = s.class_indices(1)[0]
    rest = [s.vectors[j] for j in range(len(s.vectors)) if j != v0]
    lat = oracle_lattice(rest)
    assert lat.dim == 13 and len(rest) == 14
    assert len(lat.facets) == len([f for f, d in lat.faces.items() if d == 12]) == 14
    # v0 is beyond the facets of the simplex that the hull keeps neither
    # as they are nor as pyramids with apex v0: the recount's identity,
    # checked on a second scan of a second polytope
    def lifted(f):
        return sum(1 << (i if i < v0 else i + 1) for i in range(len(rest)) if f >> i & 1)

    hull = set(verification.oracle.facets)
    beyond = [f for f in lat.facets if not {lifted(f), lifted(f) | 1 << v0} & hull]
    assert len(beyond) == _beyond_by_oracle_facets(hull, len(s.vectors), v0) == 4


@pytest.mark.parametrize("build", TYPE_ONE_BUILDERS.values(), ids=TYPE_ONE_BUILDERS)
def test_barycentric_count_equals_facet_scan(build):
    """The counts read off one affine dependency equal the per-vertex
    solve of the reference and the facets of the scan."""
    analysis = analyze_polytope(build())
    s = analysis.system
    facets = oracle_lattice(s.vectors).facets
    counts = type_one_checks(analysis)
    assert sorted(counts) == list(s.class_indices(1))
    for v0 in s.class_indices(1):
        rest = [s.vectors[j] for j in range(len(s.vectors)) if j != v0]
        assert counts[v0] == simplex_beyond_count(s.vectors[v0], rest)
        assert counts[v0] == _beyond_by_oracle_facets(facets, len(s.vectors), v0)


def test_barycentric_count_on_a_triangle():
    triangle = [(0, 0), (3, 0), (0, 3)]
    for point, count in [((1, 1), 0), ((4, 4), 1), ((-1, -1), 2), ((0, 1), 0)]:
        assert simplex_beyond_count(point, triangle) == count


def test_a_dropped_facet_fails_the_recount(type_one, verification, monkeypatch):
    """Facet 0 misses one middle-class vertex, which then looks beyond one
    facet more than its barycentric coordinates say. The facets do not take
    part in lattice equality, so the witness onto T^13_4 catches the drop
    before the type I suite runs."""
    middle = set(verification.analysis.system.class_indices(1))
    assert [v for v in middle if not verification.oracle.facets[0] >> v & 1]
    exact = galehull.pipeline.oracle_lattice

    def dropping_facet_zero(points, *elimination):
        lattice = exact(points, *elimination)
        return replace(lattice, facets=lattice.facets[1:])

    suites = []
    monkeypatch.setattr(galehull.pipeline, "oracle_lattice", dropping_facet_zero)
    monkeypatch.setattr(galehull.pipeline, "type_one_checks", suites.append)
    with pytest.raises(
        StructureMismatch, match=r"^witness onto T\^13_4: 49 facets against 50 in the image$"
    ):
        verify_polytope(type_one)
    assert suites == []


@pytest.mark.parametrize(
    "point,others",
    [
        ((1, 1), [(0, 0), (2, 0), (2, 2), (0, 2)]),        # four points in the plane
        ((1, 0), [(0, 0), (0, 0), (2, 0)]),                # a repeated point
        ((0, 0, 1), [(0, 0, 0), (1, 0, 0), (0, 1, 0)]),    # point off the plane
        ((0, 1), [(0, 0), (1, 0), (2, 0)]),                # one dependency, mu = 0
    ],
)
def test_degenerate_others_raise(point, others):
    with pytest.raises(StructureMismatch, match="no simplex"):
        simplex_beyond_count(point, others)
    # the same points as a hull whose one middle-class vertex is the point,
    # with the RREF route's Gale points, which type_one_checks reads
    points = [*others, point]
    analysis = SimpleNamespace(
        report=hull_model((4, 5, 6)),
        system=SimpleNamespace(vectors=points, class_indices=lambda slot: (len(others),)),
        diagram=SimpleNamespace(points=rref_gale_points(*affine_coordinates(points))),
    )
    with pytest.raises(
        StructureMismatch, match="^the other points are no simplex whose affine hull holds the point$"
    ):
        type_one_checks(analysis)


def test_one_facet_scan_and_no_fraction_elimination(verification, monkeypatch):
    """No elimination of a point configuration and no null_vector inside
    type_one_checks; one per scan, one scan per hull, and verify's scan and
    Gale cross-check share one: 1 per verify, 2 per compare."""
    calls = {"_facet_supports": 0, "affine_coordinates": 0, "null_vector": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(galehull.oracle, "_facet_supports")
    # every module that imports the one elimination of a point configuration,
    # or the null vector of a linear system
    for name, module in list(sys.modules.items()):
        if name.startswith("galehull."):
            for attr in ("affine_coordinates", "null_vector"):
                if hasattr(module, attr):
                    counted(module, attr)
    beyond = type_one_checks(verification.analysis)
    assert beyond == verification.beyond
    assert calls == {"_facet_supports": 0, "affine_coordinates": 0, "null_vector": 0}
    oracle_lattice(verification.analysis.system.vectors)
    assert calls["_facet_supports"] == 1 and calls["affine_coordinates"] == 1
    # one scan per hull: one per verify of every type, two per compare
    for p in (catalog("cube"), catalog("prism", 6), catalog("truncated-octahedron"),
              type_one_polytope()):
        calls.update(_facet_supports=0, affine_coordinates=0)
        verify_polytope(p)
        assert (calls["_facet_supports"], calls["affine_coordinates"]) == (1, 1)
        a = analyze_polytope(p)
        equivalence_witness(a, a)
        assert (calls["_facet_supports"], calls["affine_coordinates"]) == (3, 3)
