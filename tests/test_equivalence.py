from __future__ import annotations

import random
from math import comb

import pytest

import galehull.equivalence as equivalence_module
import galehull.oracle as oracle_module
import gen
import instances
from galehull import (
    analyze_polytope,
    catalog,
    equivalence_witness,
    equivalent,
    hull_model,
    model_facets,
    summarize_polytope,
    validate,
)
from galehull.equivalence import facet_invariant
from galehull.errors import CriterionMismatch
from galehull.oracle import POINT_CAP, oracle_facets

ORACLE_CASES = [
    ("cube", lambda: catalog("cube")),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
    *((f"prism:{k}", lambda k=k: catalog("prism", k)) for k in range(6, 23, 2)),
    *((b.__name__, b) for b in instances.INSTANCE_BUILDERS),
]


def test_equivalent_relabeled_prism(prism6_analysis, relabeled):
    other = relabeled["prism:6"]
    oa = analyze_polytope(other)
    assert equivalent(prism6_analysis.report, oa.report)
    assert equivalence_witness(prism6_analysis, oa) is not None


def test_equivalent_rejects_different_face_count(cube_analysis, prism6_analysis):
    assert not equivalent(prism6_analysis.report, cube_analysis.report)


def test_equivalent_rejects_different_type():
    a, b = hull_model((3, 4, 5)), hull_model((4, 4, 4))   # 12 faces, m2 = 4
    assert (a.hull_type, b.hull_type) == ("I", "IV")
    assert not equivalent(a, b)


def test_equivalent_rejects_different_m2():
    # 18 and 20 faces, all type I; the second pair shares m1 and differs in m2
    for a, b in (((4, 6, 8), (3, 7, 8)), ((5, 6, 9), (5, 7, 8))):
        a, b = hull_model(a), hull_model(b)
        assert a.hull_type == b.hull_type == "I"
        assert not equivalent(a, b)


def test_equivalent_is_reflexive_and_symmetric(cube_analysis, prism6_analysis):
    models = [cube_analysis.report, prism6_analysis.report]
    for a in models:
        assert equivalent(a, a)
    for a in models:
        for b in models:
            assert equivalent(a, b) == equivalent(b, a)


def test_oracle_equivalence_cube_vs_prism(cube_analysis, prism6_analysis):
    # hull dimensions 3 vs 6 differ
    assert equivalence_witness(cube_analysis, prism6_analysis) is None


def test_oracle_witness_for_relabeled_cube(cube_analysis, relabeled):
    oa = analyze_polytope(relabeled["cube"])
    phi = equivalence_witness(cube_analysis, oa)
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
        assert _closed_fvector(a.report.sizes) == a.report.fvector


def _by_class(invariant) -> dict[tuple, set]:
    """invariant(sizes) of every sorted class-size triple within the
    oracle's cap, grouped by the hull's (n, type, m2)."""
    groups: dict[tuple, set] = {}
    for total in range(6, POINT_CAP + 1):
        for m1 in range(2, total // 3 + 1):
            for m2 in range(m1, (total - m1) // 2 + 1):
                sizes = (m1, m2, total - m1 - m2)
                groups.setdefault((total - 2, _type_of(sizes), m2), set()).add(invariant(sizes))
    return groups


def _model_invariant(sizes):
    return facet_invariant(model_facets(hull_model(sizes)))


def test_fvectors_certify_every_inequivalence_up_to_the_point_cap():
    """Within the oracle's cap the hulls of one (n, type, m2) share an
    f-vector, and the 211 such classes have 211 f-vectors."""
    groups = _by_class(_closed_fvector)
    assert all(len(fvectors) == 1 for fvectors in groups.values())
    assert len(groups) == len({fvectors.pop() for fvectors in groups.values()}) == 211


def test_facet_sizes_certify_every_inequivalence_up_to_the_point_cap():
    """equivalence_witness answers None only on differing facet invariants.
    Within the oracle's cap that always holds: the hulls of one (n, type,
    m2) share the vertex count and sorted facet sizes, and the 211 such
    classes have 211 invariants. The vertex and facet counts alone do not
    separate them: (10, I, 3) and (10, II, 5) both have 27 facets on 12
    vertices."""
    groups = _by_class(_model_invariant)
    assert all(len(invariants) == 1 for invariants in groups.values())
    invariants = {key: invariants.pop() for key, invariants in groups.items()}
    assert len(set(invariants.values())) == 211
    counts = {key: (vertices, len(sizes)) for key, (vertices, sizes) in invariants.items()}
    assert counts[(10, "I", 3)] == counts[(10, "II", 5)] == (12, 27)


@pytest.mark.parametrize("name,build", ORACLE_CASES, ids=[n for n, _ in ORACLE_CASES])
def test_oracle_facet_invariant_is_the_models(name, build):
    a = summarize_polytope(build())
    _, facets = oracle_facets(a.system.vectors)
    assert facet_invariant(facets) == _model_invariant(a.report.sizes)


def test_equivalence_witness_builds_no_lattice(monkeypatch):
    """Every pair of hulls of all four types, equivalent or not, is
    certified on facets alone: any oracle_lattice call fails the test."""

    def refuse(points):
        raise AssertionError("equivalence_witness built an oracle lattice")

    monkeypatch.setattr(oracle_module, "oracle_lattice", refuse)
    monkeypatch.setattr(equivalence_module, "oracle_lattice", refuse, raising=False)
    builds = (
        lambda: catalog("cube"),
        lambda: catalog("prism", 6),
        lambda: catalog("truncated-octahedron"),
        instances.type_one_polytope,
        lambda: validate([list(f) for f in gen.glued(random.Random(1), (4, 5, 6)).faces]),
    )
    analyses = [summarize_polytope(build()) for build in builds]
    keys = [(a.system.n, a.report.hull_type, a.report.sizes[1]) for a in analyses]
    assert sorted({k[1] for k in keys}) == ["I", "II", "III", "IV"]
    for a, key_a in zip(analyses, keys):
        for b, key_b in zip(analyses, keys):
            assert (equivalence_witness(a, b) is not None) == (key_a == key_b)


def test_equal_facet_invariants_on_inequivalent_hulls_raise(
    cube_analysis, prism6_analysis, monkeypatch
):
    monkeypatch.setattr(equivalence_module, "facet_invariant", lambda facets: (6, (4, 4)))
    with pytest.raises(
        CriterionMismatch,
        match=r"^hulls of sizes \(2, 2, 2\) and \(2, 3, 3\) differ in n, type or m2 "
        r"but their oracle facets share the invariant \(6, \(4, 4\)\)$",
    ):
        equivalence_witness(cube_analysis, prism6_analysis)
