from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
from conftest import (
    matvec,
    null_space_by_fractions,
    primitive_vector_by_fractions,
    project_to_hull_coordinates,
    rref_by_fractions,
    spanning_hyperplane,
)
from galehull import incidence_system, three_color
from galehull.errors import DimensionMismatch
from galehull.linalg import (
    affine_coordinates,
    affine_dimension,
    dot,
    null_vector,
    pivot_columns,
    primitive_vector,
    rank,
)

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


_BIG = 10**30
_entry = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-_BIG, _BIG),
    st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, 10**6)),
)


@st.composite
def small_systems(draw):
    """1 x 2 and 2 x 3 matrices, the facet scan's shapes, with zero, equal
    and proportional second rows among the independent ones."""
    r = draw(st.integers(1, 2))
    first = draw(st.lists(_entry, min_size=r + 1, max_size=r + 1))
    if r == 1:
        return [first]
    second = draw(st.one_of(
        st.lists(_entry, min_size=3, max_size=3),
        st.just([0, 0, 0]),
        st.just(list(first)),
        _entry.map(lambda c: [c * x for x in first]),
    ))
    return [first, second]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_systems())
@example([[0, 0]])
@example([[0, 5]])
@example([[-3, 0]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 0, 1], [0, 0, -2]])
@example([[0, 2, 0], [0, 0, 3]])
@example([[2, 4, -6], [-1, -2, 3]])
@example([[F(1, 2), 0], [0, 1]])
def test_null_vector_of_one_or_two_rows_equals_the_fraction_reference(rows):
    """The cross-product answer for integer 1 x 2 and 2 x 3 systems (and the
    elimination for Fraction ones) equals the primitive multiple of the
    Fraction RREF's canonical vector, 1 at the free column, and is None
    exactly when that null space is not one-dimensional."""
    basis = null_space_by_fractions(rows)
    vec = null_vector(rows)
    if len(basis) == 1:
        assert vec == primitive_vector_by_fractions(basis[0])
        assert all(x == 0 for x in matvec(rows, vec))
    else:
        assert vec is None


_coordinate = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


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
    qpts, d = project_to_hull_coordinates(list(incidence_system(p, three_color(p)).vectors))
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_affine_coordinates_are_scaled_barycentric_coordinates(data):
    """Each point is the table's combination of the base points, divided
    by one positive scale, and the base is affinely independent and spans
    the affine hull of the points."""
    d = data.draw(st.integers(1, 4))
    coordinate = data.draw(st.sampled_from([st.integers(-3, 3), _coordinate]))
    points = data.draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=8))
    base, table = affine_coordinates(points)
    assert len(base) == affine_dimension(points) + 1
    assert affine_dimension([points[b] for b in base]) == len(base) - 1
    assert all(type(x) is int for row in table for x in row)
    scale = table[base[0]][0]
    assert scale > 0
    for j, row in enumerate(table):
        assert sum(row) == scale
        for c in range(d):
            assert sum(x * points[b][c] for x, b in zip(row, base)) == scale * points[j][c]
    assert [table[b] for b in base] == [
        tuple(scale * (i == k) for k in range(len(base))) for i in range(len(base))
    ]


def test_affine_coordinates_take_the_first_independent_points():
    base, table = affine_coordinates([(0, 0), (2, 2), (1, 1), (0, 2), (1, 2)])
    assert base == [0, 1, 3]
    assert table[2] == (1, 1, 0) and table[4] == (0, 1, 1)
    points = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert affine_coordinates(points)[0] == [0, 1, 4, 5]


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
