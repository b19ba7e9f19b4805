from __future__ import annotations

import inspect
import json
import re
from functools import reduce
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galehull import (
    catalog,
    fvector,
    hull_model,
    members,
    model_facets,
    neighborliness,
    oracle_lattice,
    simpliciality_check,
    summarize_polytope,
)
from conftest import (
    _face_counts,
    _facets,
    cyclic_facets,
    lattice_isomorphic,
    proper_faces,
    pyramid,
    reference_model,
    tkn_model,
    type4_model,
)
from galehull import reference
from galehull.errors import BadParameters
from galehull.gale import FaceLattice


def _mask(indices):
    return sum(1 << i for i in indices)


def _criterion_faces(v):
    """Independent count of C(v, v-2) faces via the two-parity-class rule:
    a subset is a face iff it contains neither parity class entirely."""
    odd = frozenset(range(0, v, 2))
    even = frozenset(range(1, v, 2))
    out = set()
    for size in range(v):
        for sub in combinations(range(v), size):
            s = frozenset(sub)
            if not (odd <= s) and not (even <= s):
                out.add(_mask(s))
    return out


def test_cyclic_c64_fvector_and_faces():
    lat = cyclic_facets(6, 4)
    assert fvector(lat) == (6, 15, 18, 9)
    expected = _criterion_faces(6)
    assert set(proper_faces(lat)) | {0} == expected | {0}
    assert lat.faces[0] == -1


def test_cyclic_c42_is_square():
    lat = cyclic_facets(4, 2)
    facets = {f for f, d in lat.faces.items() if d == 1}
    assert facets == {
        _mask({0, 1}),
        _mask({1, 2}),
        _mask({2, 3}),
        _mask({0, 3}),
    }
    assert fvector(lat) == (4, 4)


def test_cyclic_neighborliness_family():
    for m in (2, 3, 4):
        lat = cyclic_facets(2 * m, 2 * m - 2)
        assert simpliciality_check(lat)
        assert neighborliness(lat) == m - 1
        facets = [f for f, d in lat.faces.items() if d == lat.dim - 1]
        assert all(f.bit_count() == 2 * m - 2 for f in facets)


def test_cyclic_bad_parameters():
    with pytest.raises(BadParameters):
        cyclic_facets(4, 4)
    with pytest.raises(BadParameters):
        cyclic_facets(3, 1)


def test_pyramid_square_gives_square_pyramid():
    lat = pyramid(cyclic_facets(4, 2), 1)
    assert lat.dim == 3
    assert fvector(lat) == (5, 8, 5)
    assert not simpliciality_check(lat)


def test_pyramid_zero_apexes_is_identity():
    base = cyclic_facets(6, 4)
    lat = pyramid(base, 0)
    assert lat.faces == base.faces
    assert lat.dim == base.dim


def test_pyramid_fvector_recurrence():
    # one apex: dim-j faces are base faces of dim j (full base included,
    # it becomes a facet) plus cones over base faces of dim j-1
    from collections import Counter

    base = cyclic_facets(6, 4)
    pyr = pyramid(base, 1)
    fp = fvector(pyr)
    count = Counter(base.faces.values())  # includes dim -1 and the full base
    for j in range(pyr.dim):
        assert fp[j] == count[j] + count[j - 1]


def test_tkn_model_facets():
    for n, k in ((4, 1), (4, 2), (5, 2)):
        lat = tkn_model(n, k)
        assert lat.top.bit_count() == n + 2
        assert simpliciality_check(lat)
        facets = [f for f, d in lat.faces.items() if d == n - 1]
        assert len(facets) == (k + 1) * (n + 1 - k)
        a = range(k + 1)  # class A is vertices 0..k, class B the rest
        b = range(k + 1, n + 2)
        # facets are complements of one A-vertex and one B-vertex
        assert {lat.top & ~_mask({x, y}) for x in a for y in b} == set(facets)


def test_tkn_class_is_not_a_face():
    lat = tkn_model(4, 1)
    assert _mask(range(2)) not in lat.faces  # class A


def test_tkn_bad_parameters():
    with pytest.raises(BadParameters):
        tkn_model(4, 0)
    with pytest.raises(BadParameters):
        tkn_model(4, 3)


def test_type4_model_octahedron():
    lat = type4_model(2)
    assert lat.top.bit_count() == 6 and lat.dim == 3
    assert fvector(lat) == (6, 12, 8)
    assert simpliciality_check(lat)
    assert neighborliness(lat) == 1
    for i in range(3):  # class i is the block 2i, 2i + 1
        assert _mask(range(2 * i, 2 * i + 2)) not in lat.faces


def test_type4_every_small_subset_is_a_face():
    m = 3
    lat = type4_model(m)
    assert neighborliness(lat) == m - 1
    for sub in combinations(range(3 * m), m - 1):
        assert _mask(sub) in lat.faces


def test_type4_bad_parameters():
    with pytest.raises(BadParameters):
        type4_model(1)


# frozenset constructions straight from the documented criteria: the
# reference the bitmask models are checked against

def _simplicial_by_sets(v, facets, dim):
    faces = {}
    for facet in facets:
        for size in range(len(facet) + 1):
            for sub in combinations(sorted(facet), size):
                faces[frozenset(sub)] = size - 1
    faces[frozenset(range(v))] = dim
    return dim, faces


def _cyclic_by_sets(v, d):
    def even(subset):
        outside = [i for i in range(v) if i not in subset]
        return all(
            sum(1 for x in subset if a < x < b) % 2 == 0
            for a, b in combinations(outside, 2)
        )

    facets = [frozenset(c) for c in combinations(range(v), d) if even(frozenset(c))]
    return _simplicial_by_sets(v, facets, d)


def _pyramid_by_sets(base, apex_count):
    dim, base_faces = base
    nbase = max(map(len, base_faces))
    apexes = range(nbase, nbase + apex_count)
    faces = {}
    for size in range(apex_count + 1):
        for aset in combinations(apexes, size):
            for g, gdim in base_faces.items():
                faces[g | frozenset(aset)] = gdim + size
    faces[frozenset(range(nbase + apex_count))] = dim + apex_count
    return dim + apex_count, faces


def _no_class_entirely_by_sets(npts, dim, classes):
    """Proper faces are the subsets containing no class entirely."""
    faces = {
        frozenset(sub): size - 1
        for size in range(npts)
        for sub in combinations(range(npts), size)
        if not any(c <= frozenset(sub) for c in classes)
    }
    faces[frozenset(range(npts))] = dim
    return dim, faces


def _tkn_by_sets(n, k):
    classes = (frozenset(range(k + 1)), frozenset(range(k + 1, n + 2)))
    return _no_class_entirely_by_sets(n + 2, n, classes)


def _type4_by_sets(m):
    classes = [frozenset(range(i * m, (i + 1) * m)) for i in range(3)]
    return _no_class_entirely_by_sets(3 * m, 3 * m - 3, classes)


def _model_cases():
    for n, k in ((2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (7, 2)):
        yield f"tkn_model({n},{k})", tkn_model(n, k), _tkn_by_sets(n, k)
    for m in (2, 3, 4):
        yield f"type4_model({m})", type4_model(m), _type4_by_sets(m)
    for v, d in ((4, 2), (5, 2), (5, 3), (6, 2), (6, 4), (7, 4), (8, 6)):
        yield f"cyclic_facets({v},{d})", cyclic_facets(v, d), _cyclic_by_sets(v, d)
    pyramids = (((4, 2), 0), ((4, 2), 1), ((4, 2), 2), ((5, 3), 1), ((6, 4), 2))
    for (v, d), apexes in pyramids:
        yield (
            f"pyramid(cyclic_facets({v},{d}),{apexes})",
            pyramid(cyclic_facets(v, d), apexes),
            _pyramid_by_sets(_cyclic_by_sets(v, d), apexes),
        )
    yield "pyramid(tkn_model(4,1),1)", pyramid(tkn_model(4, 1), 1), _pyramid_by_sets(
        _tkn_by_sets(4, 1), 1
    )


MODEL_CASES = list(_model_cases())


@pytest.mark.parametrize(
    "name,lat,by_sets", MODEL_CASES, ids=[name for name, *_ in MODEL_CASES]
)
def test_models_equal_frozenset_construction(name, lat, by_sets):
    dim, faces = by_sets
    assert lat.dim == dim
    assert lat.top == _mask(max(faces, key=len))
    assert lat.faces == {_mask(f): d for f, d in faces.items()}


def test_isomorphism_reflexive_and_symmetric():
    lats = [cyclic_facets(6, 4), pyramid(cyclic_facets(4, 2), 1), type4_model(2)]
    for lat in lats:
        ident = lattice_isomorphic(lat, lat)
        assert ident is not None
    a, b = type4_model(2), oracle_lattice(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    fwd = lattice_isomorphic(a, b)
    back = lattice_isomorphic(b, a)
    assert fwd is not None and back is not None


def test_isomorphism_witness_is_face_bijection():
    a = type4_model(2)
    b = oracle_lattice(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    phi = lattice_isomorphic(a, b)
    mapped = {
        _mask(phi[v] for v in members(f)): d for f, d in a.faces.items() if f != a.top
    }
    expected = {f: d for f, d in b.faces.items() if f != b.top}
    assert mapped == expected


def test_isomorphism_rejects_a_map_that_moves_one_face_dim():
    a = type4_model(2)
    b = oracle_lattice(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    edge = next(f for f, d in b.faces.items() if d == 1)
    # the facets and every vertex signature stay, so only the full check fails
    bad = FaceLattice(dim=b.dim, top=b.top, faces={**b.faces, edge: 0})
    assert lattice_isomorphic(a, b) is not None
    assert lattice_isomorphic(a, bad) is None


def test_non_isomorphic_simpliciality_differs():
    assert lattice_isomorphic(cyclic_facets(6, 4), pyramid(cyclic_facets(4, 2), 2)) is None


def test_non_isomorphic_different_dims():
    assert lattice_isomorphic(cyclic_facets(6, 4), cyclic_facets(6, 2)) is None


def _face_counts_by_loop(lattice):
    return [
        sum(1 for f in lattice.faces if f >> v & 1)
        for v in range(lattice.top.bit_length())
    ]


@st.composite
def lattices_of_width(draw):
    """Random face sets under a top of 1-26 bits; dimensions play no part."""
    bits = draw(st.integers(1, 26))
    top = (1 << bits) - 1
    masks = draw(st.lists(st.integers(0, top), max_size=40))
    return FaceLattice(dim=bits, top=top, faces={m: 0 for m in masks + [top]})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattices_of_width())
def test_face_counts_equal_a_loop_per_vertex(lattice):
    assert _face_counts(lattice) == _face_counts_by_loop(lattice)


def test_face_counts_on_models():
    for _, lat, _ in MODEL_CASES:
        assert _face_counts(lat) == _face_counts_by_loop(lat)


# --- closed-form model facets against the lattice models --------------------

def _sorted_sizes(npts_max):
    """Every sorted class-size triple with m1 >= 2 and at most npts_max
    vertices."""
    for total in range(6, npts_max + 1):
        for m1 in range(2, total // 3 + 1):
            for m2 in range(m1, (total - m1) // 2 + 1):
                yield m1, m2, total - m1 - m2


SIZES_UP_TO_16 = list(_sorted_sizes(16))


@pytest.mark.parametrize(
    "sizes", SIZES_UP_TO_16, ids=[f"{hull_model(s).hull_type}-{s}" for s in SIZES_UP_TO_16]
)
def test_model_facets_are_the_facets_of_the_lattice_models(sizes):
    report = hull_model(sizes)
    hull_type = report.hull_type
    m1, m2, m3 = sizes
    facets = reference.model_facets(report)
    model = reference_model(report, sum(sizes) - 2)
    assert len(set(facets)) == len(facets)
    assert set(facets) == set(_facets(model))
    # C(2 m2, 2 m2 - 2) has m2**2 facets, and each apex adds the base
    expected = {"I": m2 * (m1 + m3), "II": m2**2 + m1, "III": m2**2 + m3, "IV": m2**3}
    assert len(facets) == expected[hull_type]



def _pattern_size(sizes, pattern):
    return sum(m for i, m in enumerate(sizes) if pattern >> i & 1)


def test_every_model_is_a_pyramid_over_a_free_sum_of_simplices():
    """Per type, the summand sizes and the apex count the classification
    names, the dimension of a pyramid over a free sum of simplices, and
    its facet count: one per choice of a missed vertex in every summand,
    plus one per apex."""
    triples = list(_sorted_sizes(26))
    assert len(triples) == 358
    for sizes in triples:
        m1, m2, m3 = sizes
        model = hull_model(sizes)
        summands = sorted(_pattern_size(sizes, s) for s in model.summands)
        apexes = _pattern_size(sizes, model.apexes)
        assert (summands, apexes) == {
            "I": (sorted((m2, m1 + m3)), 0),
            "II": ([m2, m2], m1),
            "III": ([m2, m2], m3),
            "IV": ([m2] * 3, 0),
        }[model.hull_type], sizes
        assert model.dim == sum(m - 1 for m in summands) + apexes, sizes
        assert len(model_facets(model)) == reduce(mul, summands) + apexes, sizes


# --- the free-sum f-polynomial against the pattern counts -------------------

def test_free_sum_fvector_equals_the_pattern_counts():
    triples = list(_sorted_sizes(40))
    assert len(triples) == 1461
    for sizes in triples:
        model = hull_model(sizes)
        assert reference.free_sum_fvector(model) == model.fvector, sizes


def test_free_sum_fvector_of_prism16():
    # two 7-simplices on 8 vertices each, and the two 16-gons as apexes
    model = summarize_polytope(catalog("prism", 16)).report
    assert sum(reference.free_sum_fvector(model)) + 2 == 4 * ((2**8 - 1) ** 2 + 1) == 260_104


# (text in free_sum_fvector's source, its replacement)
FREE_SUM_MUTANTS = {
    "summand off by one": (
        "sizes, apex_count = _vertex_counts(model)\n",
        "sizes, apex_count = _vertex_counts(model)\n    sizes[0] += 1\n",
    ),
    "missing apex factor": ("range(apex_count)", "range(apex_count - 1)"),
    "base term at the wrong dimension": ("poly.append(1)", "poly[-1] += 1"),
}


@pytest.mark.parametrize("mutant", sorted(FREE_SUM_MUTANTS))
def test_verify_fails_on_a_free_sum_mutant(mutant, capsys, monkeypatch):
    import galehull.pipeline as pipeline_module
    from galehull.cli import main

    old, new = FREE_SUM_MUTANTS[mutant]
    source = inspect.getsource(reference.free_sum_fvector)
    assert source.count(old) == 1
    namespace = dict(vars(reference))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(pipeline_module, "free_sum_fvector", namespace["free_sum_fvector"])
    # prism:6 has sizes (2, 3, 3): two summands and two apexes
    assert main(["verify", "--catalog", "prism:6"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "CriterionMismatch"
    assert re.fullmatch(
        r"f-vector at dimension \d+: class patterns count \d+ faces, "
        r"the free-sum f-polynomial (\d+|None)",
        error["message"],
    ), error["message"]
