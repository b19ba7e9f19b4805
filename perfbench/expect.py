"""Closed-form hull facts from the sorted class sizes, and report checks.

The hull of the n+2 face indicator vectors has a Gale diagram that is
constant on color classes, with one of four shapes fixed by the equality
pattern of (m1, m2, m3). A vertex subset J is a proper face exactly when
0 lies in the relative interior of the Gale points of its complement,
and then dim aff(J) = |J| - 1 - a + rank(Gale points of the complement),
with a = n + 1 - dim the dimension of the diagram. Both facts depend on
J only through which classes its complement meets, so the f-vector is a
sum over the class-count triples (a1, a2, a3) weighted by
C(m1, a1) C(m2, a2) C(m3, a3). Nothing here calls the program.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from gen import hull_type


def hull_dim(sizes) -> int:
    n = sum(sizes) - 2
    return n - 1 if hull_type(sizes) == "IV" else n


def k_ratio(sizes) -> Optional[Fraction]:
    m1, m2, m3 = sizes
    return Fraction(m3 - m1, m2 - m1) if hull_type(sizes) == "I" else None


def class_points(sizes) -> list[tuple[Fraction, ...]]:
    """One Gale point per sorted class, in the paper's normal form."""
    t = hull_type(sizes)
    if t == "I":
        k = k_ratio(sizes)
        return [(1 - k,), (k,), (Fraction(-1),)]
    if t == "II":
        return [(Fraction(0),), (Fraction(1),), (Fraction(-1),)]
    if t == "III":
        return [(Fraction(1),), (Fraction(-1),), (Fraction(0),)]
    return [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(-1))]


def _rank(points) -> int:
    nonzero = [p for p in points if any(p)]
    if not nonzero:
        return 0
    if len(nonzero[0]) == 1:
        return 1
    p = nonzero[0]
    return 2 if any(p[0] * q[1] - p[1] * q[0] for q in nonzero) else 1


def _zero_in_relint(points) -> bool:
    """0 in the relative interior of conv(points), for at most three
    distinct points in dimension one or two."""
    pts = sorted(set(points))
    r = _rank(pts)
    if r == 0:
        return bool(pts)
    if r == 1:
        axis = next(p for p in pts if any(p))
        i = 0 if axis[0] else 1
        signs = {(p[i] > 0) - (p[i] < 0) for p in pts}
        return 1 in signs and -1 in signs
    if len(pts) != 3:
        return False   # a segment or a single point off the origin
    crosses = [
        pts[i][0] * pts[(i + 1) % 3][1] - pts[i][1] * pts[(i + 1) % 3][0]
        for i in range(3)
    ]
    return all(c > 0 for c in crosses) or all(c < 0 for c in crosses)


def face_classes(sizes):
    """(class counts, dim) for every class-count triple that is a proper
    face, the empty face included."""
    pts = class_points(sizes)
    a = sum(sizes) - 1 - hull_dim(sizes)
    out = []
    for a1 in range(sizes[0] + 1):
        for a2 in range(sizes[1] + 1):
            for a3 in range(sizes[2] + 1):
                counts = (a1, a2, a3)
                comp = [pts[i] for i in range(3) if counts[i] < sizes[i]]
                if comp and _zero_in_relint(comp):
                    out.append((counts, sum(counts) - 1 - a + _rank(comp)))
    return out


def _weight(sizes, counts) -> int:
    return comb(sizes[0], counts[0]) * comb(sizes[1], counts[1]) * comb(sizes[2], counts[2])


def fvector(sizes) -> tuple[int, ...]:
    """Face counts of the hull by dimension 0 .. dim-1."""
    f = [0] * hull_dim(sizes)
    for counts, d in face_classes(sizes):
        if d >= 0:
            f[d] += _weight(sizes, counts)
    return tuple(f)


def simplicial(sizes) -> bool:
    return all(sum(c) == d + 1 for c, d in face_classes(sizes))


def neighborly(sizes) -> int:
    """Largest k such that every k-subset of hull vertices is a face."""
    faces = {c for c, _ in face_classes(sizes)}
    best = 0
    for k in range(1, sum(sizes)):
        triples = [
            (a1, a2, k - a1 - a2)
            for a1 in range(min(k, sizes[0]) + 1)
            for a2 in range(min(k - a1, sizes[1]) + 1)
            if k - a1 - a2 <= sizes[2]
        ]
        if not all(t in faces for t in triples):
            break
        best = k
    return best


# --- report checks --------------------------------------------------------
# Each returns a list of problems; an empty list means the report is right.

def _is_permutation(pairs, size) -> bool:
    return (
        isinstance(pairs, list)
        and sorted(p[0] for p in pairs) == list(range(size))
        and sorted(p[1] for p in pairs) == list(range(size))
    )


def check_analysis(doc: dict, sizes) -> list[str]:
    n = sum(sizes) - 2
    d = hull_dim(sizes)
    t = hull_type(sizes)
    problems = []

    def want(what, got, expected):
        if got != expected:
            problems.append(f"{what}: got {got!r}, expected {expected!r}")

    poly, hull = doc.get("polytope", {}), doc.get("hull", {})
    want("polytope.n", poly.get("n"), n)
    want("polytope.fvector", poly.get("fvector"), [2 * n, 3 * n, n + 2])
    want("polytope.classSizes", poly.get("classSizes"), list(sizes))
    want("hull.type", hull.get("type"), t)
    want("hull.dim", hull.get("dim"), d)
    want("hull.m", hull.get("m"), list(sizes))
    k = k_ratio(sizes)
    want("hull.k", hull.get("k"), str(k) if k is not None else None)
    f = list(fvector(sizes))
    want("hull.fvector", hull.get("fvector"), f)
    got_f = hull.get("fvector") or [0]
    want("hull f0", got_f[0], n + 2)
    euler = sum((-1) ** i * x for i, x in enumerate(got_f))
    want("Euler-Poincare sum", euler, 1 - (-1) ** d)
    want("hull.simplicial", hull.get("simplicial"), simplicial(sizes))
    want("hull.neighborly", hull.get("neighborly"), neighborly(sizes))

    gale = hull.get("galeDiagram") or []
    want("gale point count", len(gale), n + 2)
    by_color: dict = {}
    for entry in gale:
        by_color.setdefault(entry.get("color"), set()).add(tuple(entry.get("point", ())))
    if any(len(pts) != 1 for pts in by_color.values()) or len(by_color) != 3:
        problems.append("Gale points are not constant on three color classes")
    return problems


def check_verify(doc: dict, sizes) -> list[str]:
    problems = check_analysis(doc, sizes)
    n = sum(sizes) - 2
    t = hull_type(sizes)
    f = fvector(sizes)
    v = doc.get("verify", {})

    def want(what, got, expected):
        if got != expected:
            problems.append(f"verify.{what}: got {got!r}, expected {expected!r}")

    want("facesMatchOracle", v.get("facesMatchOracle"), True)
    want("oracleFaceCount", v.get("oracleFaceCount"), sum(f) + 2)
    want("simplicialAgrees", v.get("simplicialAgrees"), True)
    want("referenceIsomorphic", v.get("referenceIsomorphic"), True)
    if not _is_permutation(v.get("witnessBijection"), n + 2):
        problems.append("verify.witnessBijection is not a vertex bijection")
    pyramid = v.get("pyramid")
    if t in ("II", "III"):
        apexes = sizes[0] if t == "II" else sizes[2]
        want("pyramid.apexCount", (pyramid or {}).get("apexCount"), apexes)
        want("pyramid.facetCount", (pyramid or {}).get("facetCount"), f[-1])
    else:
        want("pyramid", pyramid, None)
    want("neighborlinessMatches", v.get("neighborlinessMatches"),
         True if t == "IV" else None)
    one = v.get("typeOne")
    if t == "I":
        m2 = sizes[1]
        want("typeOne.expectedBeyond", (one or {}).get("expectedBeyond"), m2 - 1)
        counts = list(((one or {}).get("beyondCounts") or {}).values())
        want("typeOne.beyondCounts", counts, [m2 - 1] * m2)
    else:
        want("typeOne", one, None)
    return problems


def equivalent(sizes_a, sizes_b) -> bool:
    """Same face count, same type, same m2."""
    return (
        sum(sizes_a) == sum(sizes_b)
        and hull_type(sizes_a) == hull_type(sizes_b)
        and sizes_a[1] == sizes_b[1]
    )


def check_compare(doc: dict, sizes_a, sizes_b) -> list[str]:
    expected = equivalent(sizes_a, sizes_b)
    problems = []
    if expected and fvector(sizes_a) != fvector(sizes_b):
        problems.append("equivalent pair with different closed-form f-vectors")
    for key in ("equivalentByTheorem", "equivalentByOracle"):
        if doc.get(key) is not expected:
            problems.append(f"{key}: got {doc.get(key)!r}, expected {expected!r}")
    witness = doc.get("witnessBijection")
    if expected and not _is_permutation(witness, sum(sizes_a)):
        problems.append("witnessBijection is not a vertex bijection")
    if not expected and witness is not None:
        problems.append("witnessBijection given for inequivalent hulls")
    return problems
