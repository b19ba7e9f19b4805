"""Exact rational linear algebra on top of fractions.Fraction.

Matrices are plain sequences of rows; entries may be int or Fraction and
are never floats. Rank, pivot columns, one-dimensional null spaces and
barycentric coordinates run fraction-free: each row is scaled to integers,
then eliminated by integer cross-multiplication with per-row gcd
stripping (after Bareiss, Math. Comp. 1968), so integer inputs never
build a Fraction. One or two integer rows, the facet scan's systems on
galehull's hulls, take a cross product for their null vector instead.
affine_coordinates is the one Gauss-Jordan pass over a point
configuration: its table is the RREF of the homogenized points times one
common multiple, so the canonical basis of their affine dependencies
(free columns in increasing index order, so Gale transforms are
reproducible) is read off it by dividing by that multiple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch

Row = Sequence[Fraction | int]


def _to_int_rows(rows: Sequence[Row]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        if all(isinstance(x, int) for x in row):
            out.append(list(row))
            continue
        fr = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in fr)) if fr else 1
        out.append([int(x * mult) for x in fr])
    return out


def _strip_gcd(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    return row if g <= 1 else [x // g for x in row]


def _eliminate(rows: Sequence[Row], reduce: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free echelon form: (integer rows, pivot column indices).

    With reduce, each pivot column is also cleared above its pivot
    (Gauss-Jordan), so pivot row i reads m[i][c] x_c + (free columns) = 0.
    """
    if not rows:
        raise ValueError("elimination of an empty matrix")
    m = _to_int_rows(rows)
    nrows = len(m)
    pivots: list[int] = []
    for c in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        pv = pr[c]
        for i in range(0 if reduce else r + 1, nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _strip_gcd([pv * a - f * b for a, b in zip(m[i], pr)])
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return m, pivots


def pivot_columns(rows: Sequence[Row]) -> list[int]:
    """Echelon pivot columns, the same as the RREF's, fraction-free."""
    return _eliminate(rows, reduce=False)[1]


def rank(rows: Sequence[Row]) -> int:
    """Exact rank over the rationals, fraction-free elimination."""
    return len(pivot_columns(rows))


def null_vector(rows: Sequence[Row]) -> Optional[tuple[int, ...]]:
    """The primitive integer vector spanning {x : Mx = 0}, fraction-free.

    It is the positive multiple of the canonical basis vector, the one
    that is 1 at the free column. Returns None unless the null space is
    one-dimensional. An integer r x (r + 1) matrix, r <= 2, takes its cross
    product, (-b, a) or r1 x r2: zero iff the rank is short, else zero past
    the free column like the canonical vector, so its last nonzero entry is
    made positive."""
    r = len(rows)
    if r in (1, 2) and all(len(row) == r + 1 and all(type(x) is int for x in row) for row in rows):
        if r == 1:
            v = (-rows[0][1], rows[0][0])
        else:
            (a0, a1, a2), (b0, b1, b2) = rows
            v = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        g = gcd(*v) if (v[-1] or v[-2] or v[0]) > 0 else -gcd(*v)  # the last nonzero > 0
        return tuple([x // g for x in v]) if g else None
    m, pivots = _eliminate(rows, reduce=True)
    ncols = len(m[0])
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    scale = lcm(*(m[i][c] for i, c in enumerate(pivots)))
    v = [0] * ncols
    v[free] = scale
    for i, c in enumerate(pivots):
        v[c] = -m[i][free] * (scale // m[i][c])
    return tuple(_strip_gcd(v))


def affine_dimension(points: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the difference matrix; -1 for the empty set by convention."""
    if not points:
        return -1
    if len(points) == 1:
        return 0
    p0 = points[0]
    if any(len(p) != len(p0) for p in points):
        raise DimensionMismatch("points of unequal length")
    diffs = [[a - b for a, b in zip(p, p0)] for p in points[1:]]
    return rank(diffs)


def primitive_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Positive scaling of a rational vector to primitive integer form.

    Direction (sign) is preserved; the zero vector maps to itself.
    """
    return tuple(_strip_gcd(_to_int_rows([vec])[0]))


def affine_coordinates(
    points: Sequence[Sequence[Fraction | int]],
) -> tuple[list[int], list[tuple[int, ...]]]:
    """A base of affinely independent points and every point's barycentric
    coordinates in it, times one positive common multiple, as ints.

    One fraction-free Gauss-Jordan pass over the matrix whose columns are
    the points (q, 1): its pivot columns are the base, and reduced column
    j divided by the pivots is point j's coordinates. The base spans the
    affine hull of the points, so it has one point more than its dimension.
    """
    m, base = _eliminate([*zip(*points), [1] * len(points)], reduce=True)
    pivots = [row[c] for row, c in zip(m, base)]
    scale = [lcm(*pivots) // p for p in pivots]
    return base, [tuple(row[j] * s for row, s in zip(m, scale)) for j in range(len(points))]


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction | int:
    """Exact dot product; an int when both vectors are integer."""
    return sum(map(mul, u, v))

