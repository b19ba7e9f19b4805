from __future__ import annotations

from math import comb

import pytest

import instances
from galehull import (
    analyze_polytope,
    equivalence_witness,
    equivalent,
)
from galehull.errors import CriterionMismatch
from galehull.gale import TypeReport
from galehull.oracle import POINT_CAP


def _report(hull_type, sizes, dim):
    return TypeReport(
        hull_type=hull_type,
        sorted_sizes=sizes,
        dim=dim,
        k=None,
        structure="",
        patterns=None,  # equivalent reads the type, sizes and dimension only
    )


def test_equivalent_relabeled_prism(prism6, prism6_analysis, relabeled):
    other = relabeled["prism:6"]
    oa = analyze_polytope(other)
    assert equivalent(
        prism6_analysis.report, prism6.fvector, oa.report, other.fvector
    )
    assert equivalence_witness(prism6_analysis.system, oa.system) is not None


def test_equivalent_rejects_different_face_count(cube, cube_analysis, prism6, prism6_analysis):
    assert not equivalent(
        prism6_analysis.report, prism6.fvector, cube_analysis.report, cube.fvector
    )


def test_equivalent_rejects_different_type():
    a = _report("II", (2, 3, 3), 6)
    b = _report("III", (3, 3, 2 + 3 + 3 - 6), 6)  # same f2 = 8, same m2 = 3
    fvec = (12, 18, 8)
    assert not equivalent(a, fvec, b, fvec)


def test_equivalent_rejects_different_m2():
    a = _report("II", (2, 3, 3), 6)
    b = _report("II", (2, 4, 2), 6)
    fvec = (12, 18, 8)
    assert not equivalent(a, fvec, b, fvec)


def test_equivalent_is_reflexive_and_symmetric(cube, cube_analysis, prism6, prism6_analysis):
    pairs = [(cube_analysis, cube.fvector), (prism6_analysis, prism6.fvector)]
    for a, fa in pairs:
        assert equivalent(a.report, fa, a.report, fa)
    for a, fa in pairs:
        for b, fb in pairs:
            assert equivalent(a.report, fa, b.report, fb) == equivalent(
                b.report, fb, a.report, fa
            )


def test_oracle_equivalence_cube_vs_prism(cube_analysis, prism6_analysis):
    # hull dimensions 3 vs 6 differ
    assert equivalence_witness(cube_analysis.system, prism6_analysis.system) is None


def test_oracle_witness_for_relabeled_cube(cube_analysis, relabeled):
    oa = analyze_polytope(relabeled["cube"])
    phi = equivalence_witness(cube_analysis.system, oa.system)
    assert phi is not None
    assert sorted(phi) == list(range(6)) and sorted(phi.values()) == list(range(6))


def _comb(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def _closed_fvector(sizes) -> tuple[int, ...]:
    """Hull f-vector (dimensions 0 .. d-1) from the sorted class sizes,
    counting the subsets that contain no minimal non-face: all three
    classes (type IV); class 2, or classes 1 and 3 together (type I); the
    two equal classes, under an apex pyramid over the rest (types II, III)."""
    m1, m2, m3 = sizes
    N = m1 + m2 + m3
    if m1 == m2 == m3:
        return tuple(
            _comb(N, j) - 3 * _comb(2 * m2, j - m2) + 3 * _comb(m2, j - 2 * m2)
            for j in range(1, N - 2)
        )
    if m1 < m2 < m3:
        return tuple(
            _comb(N, j) - _comb(N - m2, j - m2) - _comb(m2, j - N + m2)
            for j in range(1, N - 1)
        )
    apexes, base = (m1 if m2 == m3 else m3), 2 * m2

    def base_faces(j: int) -> int:  # j-faces of C(2 m2, 2 m2 - 2), itself included
        return 1 if j == base - 2 else _comb(base, j + 1) - 2 * _comb(m2, j + 1 - m2)

    return tuple(
        sum(_comb(apexes, a) * base_faces(k - a) for a in range(apexes + 1) if k - a <= base - 2)
        for k in range(N - 2)
    )


def _type_of(sizes) -> str:
    m1, m2, m3 = sizes
    return "I" if m1 < m2 < m3 else "II" if m1 < m2 else "III" if m2 < m3 else "IV"


def test_closed_fvector_equals_the_analysis(cube, prism6, prism8, trunc_oct):
    for p in (cube, prism6, prism8, trunc_oct, *(b() for b in instances.INSTANCE_BUILDERS)):
        a = analyze_polytope(p)
        assert _closed_fvector(a.report.sorted_sizes) == a.hull_fvector


def test_fvectors_certify_every_inequivalence_up_to_the_point_cap():
    """equivalence_witness answers None only on differing oracle f-vectors.
    Within the oracle's cap that always holds: the hulls of one (n, type,
    m2) share an f-vector, and the 211 such classes have 211 f-vectors."""
    groups: dict[tuple, set] = {}
    for total in range(6, POINT_CAP + 1):
        for m1 in range(2, total // 3 + 1):
            for m2 in range(m1, (total - m1) // 2 + 1):
                sizes = (m1, m2, total - m1 - m2)
                key = (total - 2, _type_of(sizes), m2)
                groups.setdefault(key, set()).add(_closed_fvector(sizes))
    assert all(len(fvectors) == 1 for fvectors in groups.values())
    assert len(groups) == len({fvectors.pop() for fvectors in groups.values()}) == 211


def test_equal_fvectors_on_inequivalent_hulls_raise(cube_analysis, prism6_analysis, monkeypatch):
    import galehull.equivalence as equivalence_module

    monkeypatch.setattr(equivalence_module, "fvector", lambda lattice: (1, 2))
    with pytest.raises(CriterionMismatch, match=r"share the f-vector \(1, 2\)"):
        equivalence_witness(cube_analysis.system, prism6_analysis.system)
