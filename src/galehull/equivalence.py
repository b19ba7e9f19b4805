"""Combinatorial equivalence of two incidence-vector hulls.

Two hulls are combinatorially equivalent exactly when the underlying
polytopes have the same face count, the same class-size type, and the
same middle class size. The diagram-multiset criterion behind that fact
is already enforced structurally by classify(), so the triple comparison
is complete. The oracle route scans each hull's facets once and certifies
the verdict on them: equivalent hulls share a model, so one class-block
map composed with the inverse of the other is an explicit isomorphism to
check; inequivalent hulls must differ in their facet_invariant.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .errors import CriterionMismatch
from .gale import IncidenceSystem, TypeReport, size_type
from .oracle import oracle_facets
from .reference import block_order, check_witness


def equivalent(
    a: TypeReport,
    fvector_a: Sequence[int],
    b: TypeReport,
    fvector_b: Sequence[int],
) -> bool:
    """Three-condition criterion: same face count, same type, same m2."""
    return (
        fvector_a[2] == fvector_b[2]
        and a.hull_type == b.hull_type
        and a.sorted_sizes[1] == b.sorted_sizes[1]
    )


def facet_invariant(facets: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The vertex count of the union of the facets and the sorted facet sizes."""
    return reduce(or_, facets, 0).bit_count(), tuple(sorted(f.bit_count() for f in facets))


def equivalence_witness(
    a: IncidenceSystem, b: IncidenceSystem
) -> Optional[dict[int, int]]:
    """A vertex bijection between the oracle facets of a and b, checked on
    them, when n, type and m2 agree; None otherwise, certified by differing
    facet invariants. A failed check raises StructureMismatch, equal
    invariants on hulls the classes call inequivalent CriterionMismatch."""
    (_, facets_a), (_, facets_b) = oracle_facets(a.vectors), oracle_facets(b.vectors)
    sizes_a, sizes_b = a.coloring.class_sizes, b.coloring.class_sizes
    type_a, type_b = size_type(sizes_a), size_type(sizes_b)
    if (a.n, type_a, sizes_a[1]) != (b.n, type_b, sizes_b[1]):
        shared = facet_invariant(facets_a)
        if shared == facet_invariant(facets_b):
            raise CriterionMismatch(
                f"hulls of sizes {sizes_a} and {sizes_b} differ in n, type or m2 "
                f"but their oracle facets share the invariant {shared}"
            )
        return None
    order_a, order_b = block_order(a, type_a), block_order(b, type_b)
    witness = dict(zip(order_a, order_b))
    check_witness(facets_a, facets_b, witness, "equivalence witness")
    return witness
