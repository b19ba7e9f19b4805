from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
from conftest import matvec, primitive_vector_by_fractions, rref_by_fractions
from galehull import incidence_system, three_color
from galehull.errors import DimensionMismatch
from galehull.linalg import (
    affine_dimension,
    dot,
    null_space_basis,
    null_vector,
    pivot_columns,
    primitive_vector,
    rank,
    rref,
    spanning_hyperplane,
)
from galehull.oracle import _project_to_hull_coordinates

F = Fraction


def random_matrix(rng, rows, cols, span=4):
    return [
        [F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert rank([[0] * 5, [0] * 5]) == 0


def test_rank_cube_incidence_is_n(cube_analysis):
    # 6x8 incidence matrix of the cube has rank n = 4
    assert rank(cube_analysis.system.vectors) == 4


def test_rank_transpose_property():
    rng = random.Random(20240811)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        mt = [[m[i][j] for i in range(r)] for j in range(c)]
        assert rank(m) == rank(mt)


def test_null_space_one_dim():
    assert null_space_basis([[1, 1]]) == [(F(1), F(-1))] or null_space_basis(
        [[1, 1]]
    ) == [(F(-1), F(1))]
    # canonical convention: free column 1 carries the 1
    (vec,) = null_space_basis([[1, 1]])
    assert vec[1] == 1


def test_null_space_identity_empty():
    assert null_space_basis([[1, 0], [0, 1]]) == []


def test_null_space_hand_solved():
    # x + y + z = 0, y + 2z = 0  =>  (x, y, z) = z * (1, -2, 1)
    basis = null_space_basis([[1, 1, 1], [0, 1, 2]])
    assert basis == [(F(1), F(-2), F(1))]


def test_null_space_properties_random():
    rng = random.Random(7)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 6)
        m = random_matrix(rng, r, c)
        basis = null_space_basis(m)
        assert len(basis) == c - rank(m)
        for vec in basis:
            assert all(x == 0 for x in matvec(m, vec))
        # canonical: each vector carries 1 at its own free column, 0 at others
        _, pivots = rref(m)
        free = [j for j in range(c) if j not in pivots]
        for vec, fcol in zip(basis, free):
            assert vec[fcol] == 1
            assert all(vec[other] == 0 for other in free if other != fcol)


def null_space_by_fractions(rows):
    """The canonical null space basis read off rref_by_fractions."""
    R, pivots = rref_by_fractions(rows)
    basis = []
    for f in range(len(rows[0])):
        if f not in pivots:
            v = [F(0)] * len(rows[0])
            v[f] = F(1)
            for r_idx, c in enumerate(pivots):
                v[c] = -R[r_idx][f]
            basis.append(tuple(v))
    return basis


def test_pivot_columns_and_null_vector_match_the_rref_route():
    rng = random.Random(11)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, r, c, span=2)
        assert pivot_columns(m) == rref_by_fractions(m)[1]
        basis = null_space_by_fractions(m)
        vec = null_vector(m)
        if len(basis) == 1:
            assert vec == primitive_vector(basis[0])
            assert all(x == 0 for x in matvec(m, vec))
        else:
            assert vec is None


_coordinate = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices_with_zero_rows(draw):
    """1-7 x 1-7 matrices of ints or Fractions, some rows zero or repeated."""
    cols = draw(st.integers(1, 7))
    entry = draw(st.sampled_from([st.integers(-3, 3), _coordinate]))
    rows = draw(
        st.lists(
            st.one_of(
                st.lists(entry, min_size=cols, max_size=cols),
                st.just([0] * cols),
            ),
            min_size=1,
            max_size=7,
        )
    )
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    return rows[:7]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices_with_zero_rows())
@example([[0, 0], [0, 0]])
@example([[F(1, 2), 1, 0], [0, 0, 0], [1, 2, 0]])
def test_rref_and_null_space_equal_the_fraction_route(m):
    R, pivots = rref(m)
    assert (R, pivots) == rref_by_fractions(m)
    assert all(type(x) is F for row in R for x in row)
    assert null_space_basis(m) == null_space_by_fractions(m)


def reference_hyperplane(points, ambient_dim):
    """spanning_hyperplane by the Fraction RREF null space, normalized as
    the fraction-free route promises."""
    rows = [[F(x) for x in p] + [F(-1)] for p in points]
    basis = null_space_by_fractions(rows)
    if len(basis) != 1:
        return None
    normal, offset = basis[0][:ambient_dim], basis[0][ambient_dim]
    if all(x == 0 for x in normal):
        return None
    prim = primitive_vector(normal)
    base = next(i for i, x in enumerate(normal) if x != 0)
    offset = offset * prim[base] / normal[base]
    if next(x for x in prim if x != 0) < 0:
        prim, offset = tuple(-x for x in prim), -offset
    return prim, offset


def _assert_matches_reference(points, ambient_dim):
    hp = spanning_hyperplane(points, ambient_dim)
    assert hp == reference_hyperplane(points, ambient_dim)
    if hp is not None and all(isinstance(x, int) for p in points for x in p):
        assert type(hp[1]) is int


@pytest.mark.parametrize(
    "build", instances.INSTANCE_BUILDERS, ids=[b.__name__ for b in instances.INSTANCE_BUILDERS]
)
def test_spanning_hyperplane_matches_fraction_reference_on_every_subset(build):
    p = build()
    qpts, d = _project_to_hull_coordinates(list(incidence_system(p, three_color(p)).vectors))
    for subset in combinations(qpts, d):
        _assert_matches_reference(subset, d)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_spanning_hyperplane_matches_fraction_reference(data):
    d = data.draw(st.integers(1, 4))
    coordinate = data.draw(st.sampled_from([st.integers(-3, 3), _coordinate]))
    points = data.draw(
        st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=d + 1)
    )
    _assert_matches_reference(points, d)


def test_affine_dimension_conventions():
    assert affine_dimension([]) == -1
    assert affine_dimension([(3, 4)]) == 0
    assert affine_dimension([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_dimension([(0, 0), (1, 0), (0, 1)]) == 2


def test_affine_dimension_cube_incidence(cube_analysis):
    assert affine_dimension(cube_analysis.system.vectors) == 3


def test_spanning_hyperplane_x_axis():
    normal, offset = spanning_hyperplane([(0, 0), (1, 0)], 2)
    assert normal == (0, 1) and offset == 0


def test_spanning_hyperplane_unit_triangle():
    normal, offset = spanning_hyperplane([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert normal == (1, 1, 1) and offset == 1


def test_spanning_hyperplane_full_span_is_none():
    assert spanning_hyperplane([(0, 0), (1, 1), (2, 2), (0, 1)], 2) is None


def test_spanning_hyperplane_underspan_is_none():
    assert spanning_hyperplane([(1, 1)], 2) is None


def test_spanning_hyperplane_evaluates_exactly():
    rng = random.Random(99)
    for _ in range(25):
        d = rng.randint(2, 4)
        pts = [
            tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(d - 1)) + (F(1),)
            for _ in range(d)
        ]
        # lift to a hyperplane: last coordinate constant 1
        hp = spanning_hyperplane(pts, d)
        if hp is None:
            continue
        normal, offset = hp
        for p in pts:
            assert dot(normal, p) == offset
        g = 0
        from math import gcd
        for x in normal:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in normal if x != 0) > 0


def test_spanning_hyperplane_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        spanning_hyperplane([(1, 2, 3)], 2)


def test_fraction_round_trip_exact():
    rng = random.Random(3)
    for _ in range(200):
        a = F(rng.randint(-999, 999), rng.randint(1, 999))
        b = F(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
        if b != 0:
            assert (a / b) * b == a


def test_primitive_vector():
    assert primitive_vector((F(2, 3), F(-4, 3))) == (1, -2)
    assert primitive_vector((0, 0)) == (0, 0)
    assert primitive_vector((F(-1, 2),)) == (-1,)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(
    st.one_of(st.integers(-60, 60), st.fractions(min_value=-60, max_value=60, max_denominator=12)),
    max_size=6,
))
@example([0, 0, 0])
@example([F(0), 0])
def test_primitive_vector_equals_the_fraction_reference(vec):
    assert primitive_vector(vec) == primitive_vector_by_fractions(vec)
