"""End-to-end verification across instance families beyond the catalog:
the full even-prism sweep and the glued-bipyramid instances, which
between them hit every classification type with at least two distinct
inputs each."""

from __future__ import annotations

import pytest

from galehull import (
    analyze_polytope,
    catalog,
    equivalence_witness,
    equivalent,
    verify_polytope,
)
from galehull.cli import _verify_report
from conftest import lattice_isomorphic, type4_model
from instances import (
    all_equal_polytope,
    largest_distinct_polytope,
    smallest_distinct_polytope,
    type_one_polytope,
    type_one_polytope_mirror,
)


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_prism_sweep(k):
    p = catalog("prism", k)
    v = verify_polytope(p)
    a = v.analysis
    assert a.coloring.class_sizes == (2, k // 2, k // 2)
    if k == 4:
        assert a.report.hull_type == "IV"
        assert a.report.dim == k - 1
    else:
        assert a.report.hull_type == "II"
        assert a.report.dim == k
        assert _verify_report(v)["verify"]["pyramid"]["apexCount"] == 2


def test_all_equal_glued_instance():
    p = all_equal_polytope()
    assert p.fvector == (14, 21, 9)
    v = verify_polytope(p)
    a = v.analysis
    assert a.coloring.class_sizes == (3, 3, 3)
    assert a.report.hull_type == "IV"
    assert a.report.dim == 6
    assert a.report.neighborly == 2
    assert a.report.simplicial
    assert lattice_isomorphic(a.lattice, type4_model(3)) is not None


def test_smallest_distinct_glued_instance():
    p = smallest_distinct_polytope()
    assert p.fvector == (22, 33, 13)
    v = verify_polytope(p)
    a = v.analysis
    assert a.coloring.class_sizes == (3, 5, 5)
    assert a.report.hull_type == "II"
    assert a.report.dim == 11
    assert a.report.structure == "3-fold 11-pyramid over C(10,8)"
    assert _verify_report(v)["verify"]["pyramid"]["apexCount"] == 3
    assert not a.report.simplicial


def test_largest_distinct_glued_instance():
    p = largest_distinct_polytope()
    assert p.fvector == (22, 33, 13)
    v = verify_polytope(p)
    a = v.analysis
    assert a.coloring.class_sizes == (4, 4, 5)
    assert a.report.hull_type == "III"
    assert a.report.dim == 11
    assert a.report.structure == "5-fold 11-pyramid over C(8,6)"
    assert _verify_report(v)["verify"]["pyramid"]["apexCount"] == 5
    assert not a.report.simplicial


def test_type_one_mirror_instance():
    p = type_one_polytope_mirror()
    v = verify_polytope(p)
    a = v.analysis
    assert a.coloring.class_sizes == (4, 5, 6)
    assert a.report.hull_type == "I"
    assert v.beyond is not None


def test_equivalent_hulls_from_different_gluings():
    # same face count, same type, same middle class: the hulls must be
    # combinatorially equivalent even though the inputs differ
    aa, ab = analyze_polytope(type_one_polytope()), analyze_polytope(type_one_polytope_mirror())
    assert equivalent(aa.report, ab.report)
    witness = equivalence_witness(aa, ab)
    assert witness is not None


def test_inequivalent_same_type_same_m2():
    # largest_distinct vs truncated octahedron: both type III with m2 = 4,
    # but 13 vs 14 faces
    aa = analyze_polytope(largest_distinct_polytope())
    ab = analyze_polytope(catalog("truncated-octahedron"))
    assert aa.report.hull_type == ab.report.hull_type == "III"
    assert aa.report.sizes[1] == ab.report.sizes[1] == 4
    assert not equivalent(aa.report, ab.report)
    assert equivalence_witness(aa, ab) is None


def test_inequivalent_same_type_same_m2_prism():
    # smallest_distinct vs prism:10: both type II with m2 = 5, 13 vs 12 faces
    aa, ab = analyze_polytope(smallest_distinct_polytope()), analyze_polytope(catalog("prism", 10))
    assert aa.report.hull_type == ab.report.hull_type == "II"
    assert aa.report.sizes[1] == ab.report.sizes[1] == 5
    assert not equivalent(aa.report, ab.report)
    assert equivalence_witness(aa, ab) is None


def test_all_equal_vs_cube_inequivalent():
    aa, ab = analyze_polytope(all_equal_polytope()), analyze_polytope(catalog("cube"))
    assert aa.report.hull_type == ab.report.hull_type == "IV"
    assert not equivalent(aa.report, ab.report)
    assert equivalence_witness(aa, ab) is None
