"""The hull model of the sorted class sizes: the triples it accepts, the
size bound that every realized instance obeys, and the closed form of
perfbench/expect.py, which never calls galehull."""

from __future__ import annotations

import random

import pytest

import expect
import gen
import instances
from galehull import catalog, hull_model, model_facets, three_color, validate, verify_polytope
from galehull.errors import BadParameters, CriterionMismatch, DiagramMismatch


@pytest.mark.parametrize(
    "sizes", [(3, 2, 4), (2, 4, 3), (3, 3, 2), (1, 2, 3), (1, 1, 1), (0, 0, 0), (2, 3)]
)
def test_hull_model_refuses_unsorted_or_small_sizes(sizes):
    with pytest.raises(BadParameters, match=r"^hull model needs sorted class sizes 2 <= m1"):
        hull_model(sizes)


def _realized():
    """Every realized polytope the tests build, and 240 generated ones,
    60 per hull type."""
    yield catalog("cube")
    yield catalog("truncated-octahedron")
    for k in range(4, 69, 2):
        yield catalog("prism", k)
    for build in (*instances.INSTANCE_BUILDERS, instances.two_cubes_polytope):
        yield build()
    rng = random.Random(0)
    for hull_type in ("I", "II", "III", "IV"):
        for _ in range(60):
            yield validate(gen.random_instance(rng, hull_type, 4, 40).faces)


def test_realized_sizes_obey_the_bound():
    """Every face is even, so it has at least 4 vertices, and each class
    covers each of the 2n vertices once: 4 m3 <= 2n = 2 (m1 + m2 + m3 - 2).
    Equality holds when every face of the largest class is a square, as in
    the prisms and the truncated octahedron. The model does not ask for
    the bound: it builds the triples past it as well."""
    tight = set()
    for p in _realized():
        m1, m2, m3 = three_color(p).class_sizes
        assert 2 <= m1 <= m2 <= m3 <= m1 + m2 - 2, (m1, m2, m3)
        if m3 == m1 + m2 - 2:
            tight.add((m1, m2, m3))
    assert {(2, 3, 3), (4, 4, 6)} <= tight
    assert hull_model((2, 2, 5)).hull_type == "III"   # m3 = 5 > m1 + m2 - 2 = 2


def _under_the_bound(max_faces):
    for total in range(6, max_faces + 1):
        for m1 in range(2, total // 3 + 1):
            for m2 in range(m1, (total - m1) // 2 + 1):
                m3 = total - m1 - m2
                if m3 <= m1 + m2 - 2:
                    yield m1, m2, m3


UNDER_THE_BOUND = list(_under_the_bound(26))


def test_hull_model_equals_the_independent_closed_form():
    assert len(UNDER_THE_BOUND) == 108
    for sizes in UNDER_THE_BOUND:
        m = hull_model(sizes)
        assert m.sizes == sizes
        assert m.hull_type == gen.hull_type(sizes), sizes
        assert m.dim == expect.hull_dim(sizes), sizes
        assert m.k == expect.k_ratio(sizes), sizes
        assert m.fvector == expect.fvector(sizes), sizes
        assert m.simplicial == expect.simplicial(sizes), sizes
        assert m.neighborly == expect.neighborly(sizes), sizes
        assert len(model_facets(m)) == m.fvector[-1], sizes


@pytest.mark.parametrize("name,param,wrong,error,message", [
    ("prism", 6, (2, 2, 4), CriterionMismatch, r"^subset \d+ of sizes \(2, 2, 4\): Gale rank"),
    ("truncated-octahedron", None, (4, 5, 5), CriterionMismatch, r"of sizes \(4, 5, 5\): Gale"),
    ("truncated-octahedron", None, (3, 5, 6), DiagramMismatch, r"^Gale point 0: class sizes give"),
])
def test_a_model_of_other_sizes_fails_verify(name, param, wrong, error, message, monkeypatch):
    """The model of another triple with the same face count: the anchors
    catch a wrong grading, and the RREF cross-check a diagram that grades
    every anchor right."""
    import galehull.pipeline as pipeline_module

    exact = pipeline_module.hull_model
    monkeypatch.setattr(pipeline_module, "hull_model", lambda sizes: exact(wrong))
    with pytest.raises(error, match=message):
        verify_polytope(catalog(name, param))
