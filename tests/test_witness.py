"""Class-block witnesses: the vertex map of a hull onto its model, and of
one oracle lattice onto another, read off the sorted color classes and
checked on the facets, whatever the face order of the input. The
face-by-face check in conftest is the reference for the verdicts."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galehull.equivalence as equivalence_module
import galehull.pipeline as pipeline_module
import instances
from conftest import (
    UP_TO_14,
    _facets,
    check_witness_by_bytes,
    check_witness_by_faces,
    gluings,
    reference_model,
    relabel_faces,
)
from galehull import (
    FaceLattice,
    analyze_polytope,
    catalog,
    equivalence_witness,
    members,
    oracle_lattice,
    validate,
    verify_polytope,
)
from galehull.errors import StructureMismatch
from galehull.reference import block_order, check_witness, model_facets

BASE = [
    ("cube", lambda: catalog("cube")),
    ("prism:6", lambda: catalog("prism", 6)),
    ("prism:8", lambda: catalog("prism", 8)),
    ("prism:12", lambda: catalog("prism", 12)),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
] + [(build.__name__, build) for build in instances.INSTANCE_BUILDERS]

# 5 is prime to every vertex count above: 8, 12, 16, 24, 14, 22, 24, 26, 26
CASES = BASE + [
    (f"{name}/relabeled", lambda build=build: validate(relabel_faces(build(), mult=5)))
    for name, build in BASE
]


def _shuffled(p, seed: int):
    faces = [list(f) for f in p.faces]
    random.Random(seed).shuffle(faces)
    return validate(faces)


def _maps_faces_onto(a, b, phi) -> bool:
    """The images of a's faces under phi are exactly b's faces, with
    their dimensions: a face-set bijection, checked without byte tables."""
    return {
        sum(1 << phi[v] for v in members(f)): d for f, d in a.faces.items()
    } == b.faces


@pytest.mark.parametrize("name,build", CASES, ids=[n for n, _ in CASES])
def test_verify_witness_is_a_face_bijection(name, build):
    v = verify_polytope(build())
    model = reference_model(v.analysis.report, v.analysis.polytope.n)
    assert sorted(v.reference) == sorted(_facets(model))
    assert _maps_faces_onto(v.analysis.lattice, model, v.reference_witness)


@pytest.fixture
def shared_oracle():
    """oracle_lattice cached per vector tuple: each lattice is built once."""
    return lru_cache(maxsize=None)(oracle_lattice)


@pytest.mark.parametrize("name,build", BASE, ids=[n for n, _ in BASE])
def test_equivalence_witness_is_a_face_bijection(name, build, shared_oracle):
    p = build()
    a = analyze_polytope(p)
    for other in (validate(relabel_faces(p, mult=5)), _shuffled(p, 1)):
        b = analyze_polytope(other)
        phi = equivalence_witness(a, b)
        assert _maps_faces_onto(
            shared_oracle(a.system.vectors), shared_oracle(b.system.vectors), phi
        )


def test_equivalence_witness_between_distinct_gluings_of_one_size(shared_oracle):
    a = analyze_polytope(instances.type_one_polytope())
    b = analyze_polytope(instances.type_one_polytope_mirror())
    phi = equivalence_witness(a, b)
    assert _maps_faces_onto(shared_oracle(a.system.vectors), shared_oracle(b.system.vectors), phi)


def _swap_across_classes(order, system):
    """The block order with the first vertices of sorted classes 1 and 2
    exchanged: they sit in different blocks of every model."""
    i = order.index(system.class_indices(0)[0])
    j = order.index(system.class_indices(1)[0])
    order[i], order[j] = order[j], order[i]
    return order


ONE_PER_TYPE = [
    ("I", instances.type_one_polytope),
    ("II", lambda: catalog("prism", 6)),
    ("III", instances.largest_distinct_polytope),
    ("IV", lambda: catalog("cube")),
]


@pytest.mark.parametrize("hull_type,build", ONE_PER_TYPE, ids=[t for t, _ in ONE_PER_TYPE])
def test_a_witness_swapped_across_classes_names_a_face(hull_type, build, monkeypatch):
    exact = pipeline_module.block_order
    monkeypatch.setattr(
        pipeline_module,
        "block_order",
        lambda system, t: _swap_across_classes(exact(system, t), system),
    )
    with pytest.raises(
        StructureMismatch,
        match=r"^witness onto .*: facet \[[\d, ]*\] maps to \[[\d, ]*\], no facet of the image$",
    ):
        verify_polytope(build())


DROPPED_FACET_CASES = [
    ("prism:6", lambda: catalog("prism", 6)),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
    ("type_one_polytope", instances.type_one_polytope),
    ("cube", lambda: catalog("cube")),
]


@pytest.mark.parametrize("name,build", DROPPED_FACET_CASES, ids=[n for n, _ in DROPPED_FACET_CASES])
def test_a_dropped_facet_fails_the_witness(name, build, monkeypatch):
    """The oracle's faces with one entry gone from its facets: the facets
    take no part in lattice equality, so the equality check and the walks
    pass, and the witness onto the model is what refuses it."""
    exact = pipeline_module.oracle_lattice

    def dropping(points, *elimination):
        lattice = exact(points, *elimination)
        return replace(lattice, facets=lattice.facets[1:])

    monkeypatch.setattr(pipeline_module, "oracle_lattice", dropping)
    p = build()
    count = analyze_polytope(p).report.fvector[-1]
    with pytest.raises(
        StructureMismatch,
        match=rf"^witness onto .*: {count - 1} facets against {count} in the image$",
    ):
        verify_polytope(p)


@pytest.mark.parametrize("hull_type,build", ONE_PER_TYPE, ids=[t for t, _ in ONE_PER_TYPE])
def test_compare_catches_a_witness_swapped_across_classes(hull_type, build, monkeypatch):
    """The second hull's block order swapped across classes: the composed
    witness maps some facet of the first oracle to no facet of the second."""
    p = build()
    a = analyze_polytope(p)
    b = analyze_polytope(_shuffled(p, 3))
    exact = equivalence_module.block_order
    monkeypatch.setattr(
        equivalence_module,
        "block_order",
        lambda system, t: (
            _swap_across_classes(exact(system, t), system)
            if system is b.system
            else exact(system, t)
        ),
    )
    with pytest.raises(StructureMismatch, match=r"^equivalence witness: facet \[[\d, ]*\] maps to "):
        equivalence_witness(a, b)


def test_a_swapped_equivalence_witness_names_a_face(prism6):
    a = analyze_polytope(prism6)
    b = analyze_polytope(_shuffled(prism6, 2))
    phi = equivalence_witness(a, b)
    u, w = a.system.class_indices(0)[0], a.system.class_indices(1)[0]
    phi[u], phi[w] = phi[w], phi[u]
    with pytest.raises(StructureMismatch, match=r"^equivalence witness: facet \["):
        check_witness(oracle_lattice(a.system.vectors).facets,
                      oracle_lattice(b.system.vectors).facets, phi, "equivalence witness")


def test_check_witness_wants_a_vertex_bijection_and_equal_face_counts(prism6_analysis):
    facets = oracle_lattice(prism6_analysis.system.vectors).facets
    ident = {v: v for v in range(8)}
    check_witness(facets, facets, ident, "identity")
    with pytest.raises(StructureMismatch, match="^collapsed: the witness is no bijection"):
        check_witness(facets, facets, {**ident, 1: 0}, "collapsed")
    with pytest.raises(StructureMismatch, match="^short: 11 facets against 10 in the image$"):
        check_witness(facets, facets[1:], ident, "short")


# --- check_witness against the face-level references ------------------------

def _verdict(check, a, b, phi) -> str | None:
    """The StructureMismatch text of one witness check, None if it passes."""
    try:
        check(a, b, phi, "witness")
    except StructureMismatch as e:
        return str(e)
    return None


def _face_verdict(a, b, phi) -> str | None:
    """The verdict of the face-by-face check, the same text through the
    per-half subset tables and through the per-byte tables."""
    verdict = _verdict(check_witness_by_faces, a, b, phi)
    assert verdict == _verdict(check_witness_by_bytes, a, b, phi)
    return verdict


def _same_verdict(analysis, model, phi) -> str | None:
    """The face-level verdict on the hull's lattice and its model lattice;
    check_witness on the hull's facets and the closed-form model facets
    must pass or fail with it."""
    verdict = _face_verdict(analysis.lattice, model, phi)
    facets = model_facets(analysis.report)
    by_facets = _verdict(check_witness, _facets(analysis.lattice), facets, phi)
    assert (by_facets is None) == (verdict is None)
    return verdict


def _block_witness(p):
    """A hull's analysis, its model lattice and the block witness between
    them."""
    analysis = analyze_polytope(p)
    report = analysis.report
    order = block_order(analysis.system, report)
    model = reference_model(report, p.n)
    return analysis, model, {v: i for i, v in enumerate(order)}


ROUTE_CASES = [
    ("cube", lambda: catalog("cube")),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
] + [(f"prism:{k}", lambda k=k: catalog("prism", k)) for k in range(6, 15, 2)] + [
    (build.__name__, build) for build in instances.INSTANCE_BUILDERS
]


@pytest.mark.parametrize("name,build", ROUTE_CASES, ids=[n for n, _ in ROUTE_CASES])
def test_check_witness_matches_the_byte_tables_on_block_witnesses(name, build):
    analysis, model, phi = _block_witness(build())
    assert _same_verdict(analysis, model, phi) is None
    u, w = analysis.system.class_indices(0)[0], analysis.system.class_indices(1)[0]
    phi[u], phi[w] = phi[w], phi[u]
    assert _same_verdict(analysis, model, phi) is not None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gluings(UP_TO_14), st.none() | st.integers(0, 2**16))
def test_check_witness_matches_the_byte_tables_on_permuted_witnesses(inst, seed):
    """The block witness, or its images permuted by a drawn seed: most
    permutations are no automorphism of the model."""
    analysis, model, phi = _block_witness(validate([list(f) for f in inst.faces]))
    if seed is not None:
        images = list(phi.values())
        random.Random(seed).shuffle(images)
        phi = dict(zip(phi, images))
    _same_verdict(analysis, model, phi)


def test_check_witness_matches_the_byte_tables_on_tiny_lattices():
    empty = FaceLattice(dim=-1, top=0, faces={0: -1})
    point = FaceLattice(dim=0, top=1, faces={0: -1, 1: 0})
    segment = FaceLattice(dim=1, top=3, faces={0: -1, 1: 0, 2: 0, 3: 1})
    # with no point both half tables are [0]; with one, low = 0 and the
    # low half's table is [0]. The facet check reads a polytope's vertices
    # off its facets, so it takes the segment and no smaller one.
    assert _face_verdict(empty, empty, {}) is None
    assert _face_verdict(point, point, {0: 0}) is None
    assert _face_verdict(segment, segment, {0: 1, 1: 0}) is None
    raised = FaceLattice(dim=1, top=1, faces={0: -1, 1: 1})
    assert _face_verdict(point, raised, {0: 0}) == (
        "witness: face [0] of dimension 0 maps to [0], no face of that dimension"
    )
    flat = FaceLattice(dim=1, top=3, faces={0: -1, 1: 0, 2: 0, 3: 0})
    assert _face_verdict(segment, flat, {0: 0, 1: 1}) == (
        "witness: face [0, 1] of dimension 1 maps to [0, 1], no face of that dimension"
    )
    assert _face_verdict(segment, segment, {0: 0, 1: 0}) is not None
    assert _verdict(check_witness, [1, 2], [1, 2], {0: 1, 1: 0}) is None
    assert _verdict(check_witness, [1, 2], [2, 1], {0: 0, 1: 1}) is None
    assert _verdict(check_witness, [1, 2], [1, 2], {0: 0, 1: 0}) == (
        "witness: the witness is no bijection of the vertices"
    )
    assert _verdict(check_witness, [1, 2], [3], {0: 0, 1: 1}) == (
        "witness: 2 facets against 1 in the image"
    )
    assert _verdict(check_witness, [1, 2], [1, 3], {0: 0, 1: 1}) == (
        "witness: facet [1] maps to [1], no facet of the image"
    )
