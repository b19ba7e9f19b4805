"""Property suite for hulls whose three class sizes are pairwise distinct,
run against the constructed n = 13 instance with sizes (4, 5, 6)."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

import galehull.linalg
import galehull.pipeline
from galehull import (
    analyze_polytope,
    beyond_facets,
    oracle_lattice,
    three_color,
    verify_polytope,
)
from conftest import lattice_isomorphic, tkn_model
from galehull.errors import CriterionMismatch, StructureMismatch
from galehull.pipeline import _simplex_beyond_count, type_one_checks
from instances import type_one_polytope, type_one_polytope_mirror


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
    assert verification.analysis.simplicial


def test_faces_match_oracle(verification):
    assert verification.analysis.lattice.faces == verification.oracle.faces


def test_a_lattice_off_the_oracle_fails_before_the_suite(type_one, monkeypatch):
    # verify_polytope's comparison is the one check of facesMatchOracle;
    # the type I suite reports it without comparing again
    exact = galehull.pipeline.oracle_lattice

    def dropping_vertex_zero(points):
        lattice = exact(points)
        return replace(lattice, faces={f: d for f, d in lattice.faces.items() if f != 1})

    suites = []
    monkeypatch.setattr(galehull.pipeline, "oracle_lattice", dropping_vertex_zero)
    monkeypatch.setattr(galehull.pipeline, "type_one_checks", suites.append)
    with pytest.raises(
        CriterionMismatch, match=r"oracle lattices differ: criterion-only: \[\[0\]\]$"
    ):
        verify_polytope(type_one)
    assert suites == []


def test_distinct_size_suite_runs_and_passes(verification):
    report = verification.type_one_report
    assert report is not None
    assert report["expectedBeyond"] == 4
    assert all(v == 4 for v in report["beyondCounts"].values())


def test_middle_class_vertices_beyond_m2_minus_1(verification):
    s = verification.analysis.system
    m2 = verification.analysis.report.sorted_sizes[1]
    for v0 in s.class_indices(1):
        rest = [s.vectors[j] for j in range(len(s.vectors)) if j != v0]
        assert beyond_facets(s.vectors[v0], rest) == m2 - 1


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
    assert len([f for f, d in lat.faces.items() if d == 12]) == 14


@pytest.mark.parametrize("build", [type_one_polytope, type_one_polytope_mirror])
def test_barycentric_count_equals_facet_scan(build):
    s = analyze_polytope(build()).system
    for v0 in s.class_indices(1):
        rest = [s.vectors[j] for j in range(len(s.vectors)) if j != v0]
        assert _simplex_beyond_count(s.vectors[v0], rest) == beyond_facets(
            s.vectors[v0], rest
        )


def test_barycentric_count_on_a_triangle():
    triangle = [(0, 0), (3, 0), (0, 3)]
    for point, count in [((1, 1), 0), ((4, 4), 1), ((-1, -1), 2), ((0, 1), 0)]:
        assert _simplex_beyond_count(point, triangle) == count
        assert beyond_facets(point, triangle) == count


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
        _simplex_beyond_count(point, others)


def test_one_facet_scan_and_no_fraction_elimination(verification, monkeypatch):
    calls = {"beyond_facets": 0, "rref": 0, "null_space_basis": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(galehull.pipeline, "beyond_facets")
    counted(galehull.linalg, "rref")
    counted(galehull.linalg, "null_space_basis")
    report = type_one_checks(verification.analysis)
    assert report == verification.type_one_report
    assert calls == {"beyond_facets": 1, "rref": 0, "null_space_basis": 0}
    oracle_lattice(verification.analysis.system.vectors)
    assert calls["rref"] == calls["null_space_basis"] == 0
