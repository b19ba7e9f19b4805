"""Exact rational linear algebra on top of fractions.Fraction.

Matrices are plain sequences of rows; entries may be int or Fraction and
are never floats. Rank, pivot columns, one-dimensional null spaces and
spanning hyperplanes run fraction-free: each row is scaled to integers,
then eliminated by integer cross-multiplication with per-row gcd
stripping (after Bareiss, Math. Comp. 1968), so integer inputs never
build a Fraction. The RREF is eliminated the same way and divides each
pivot row by its pivot only at the end; the general null space reads
its canonical basis off it (free columns in increasing index order, so
Gale transforms are reproducible).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch

Row = Sequence[Fraction | int]
Point = tuple[Fraction, ...]


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

    It is the positive multiple of the null_space_basis vector (positive
    at the free column). Returns None unless the null space is
    one-dimensional.
    """
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


def rref(rows: Sequence[Row]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Eliminated fraction-free, then each pivot row divided by its pivot.
    """
    m, pivots = _eliminate(rows, reduce=True)
    R = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    R += [[Fraction(0)] * len(m[0]) for _ in range(len(m) - len(pivots))]
    return R, pivots


def null_space_basis(rows: Sequence[Row]) -> list[Point]:
    """Canonical basis of {x : Mx = 0}, one vector per RREF free column."""
    if not rows:
        raise ValueError("null space of an empty matrix")
    R, pivots = rref(rows)
    ncols = len(rows[0])
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r_idx, c in enumerate(pivots):
            v[c] = -R[r_idx][f]
        basis.append(tuple(v))
    return basis


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


def spanning_hyperplane(
    points: Sequence[Sequence[Fraction | int]], ambient_dim: int
) -> Optional[tuple[tuple[int, ...], Fraction | int]]:
    """Normal and offset of the hyperplane affinely spanned by the points.

    Returns None unless the points span exactly a hyperplane of the ambient
    space. The normal is a primitive integer vector with positive leading
    nonzero entry; normal . p == offset for every input point, and the
    offset is an int when the points are. The hyperplane is the one null
    vector of the rows [p | -1], found fraction-free.
    """
    if not points:
        return None
    for p in points:
        if len(p) != ambient_dim:
            raise DimensionMismatch(
                f"point of length {len(p)} in ambient dimension {ambient_dim}"
            )
    vec = null_vector([list(p) + [-1] for p in points])
    if vec is None:
        return None
    g = gcd(*vec[:ambient_dim])
    if g == 0:
        return None
    lead = next(x for x in vec if x != 0)
    normal = tuple(x // g for x in vec[:ambient_dim])
    if lead < 0:
        normal = tuple(-x for x in normal)
    return normal, dot(normal, points[0])


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction | int:
    """Exact dot product; an int when both vectors are integer."""
    return sum(map(mul, u, v))

