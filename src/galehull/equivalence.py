"""Combinatorial equivalence of two incidence-vector hulls.

The hull is a function of the sorted class sizes (gale.hull_model), and
two hulls are combinatorially equivalent exactly when the underlying
polytopes have the same face count m1 + m2 + m3, the same class-size type
and the same middle class size m2: equivalent() compares two models on
that triple. The oracle route scans each hull's facets once and certifies
the verdict on them: equivalent hulls share a model, so one class-block
map composed with the inverse of the other is an explicit isomorphism to
check; inequivalent hulls must differ in their facet_invariant.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .errors import CriterionMismatch
from .gale import HullModel
from .oracle import oracle_facets
from .pipeline import Analysis
from .reference import block_order, check_witness


def equivalent(a: HullModel, b: HullModel) -> bool:
    """Three-condition criterion: same face count, same type, same m2."""
    return (sum(a.sizes), a.hull_type, a.sizes[1]) == (sum(b.sizes), b.hull_type, b.sizes[1])


def facet_invariant(facets: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The vertex count of the union of the facets and the sorted facet sizes."""
    return reduce(or_, facets, 0).bit_count(), tuple(sorted(f.bit_count() for f in facets))


def equivalence_witness(a: Analysis, b: Analysis) -> Optional[dict[int, int]]:
    """A vertex bijection between the oracle facets of a and b, checked on
    them, when their models are equivalent; None otherwise, certified by
    differing facet invariants. A failed check raises StructureMismatch,
    equal invariants on hulls the models call inequivalent
    CriterionMismatch."""
    (_, facets_a), (_, facets_b) = oracle_facets(a.system.vectors), oracle_facets(b.system.vectors)
    if not equivalent(a.report, b.report):
        shared = facet_invariant(facets_a)
        if shared == facet_invariant(facets_b):
            raise CriterionMismatch(
                f"hulls of sizes {a.report.sizes} and {b.report.sizes} differ in n, type or m2 "
                f"but their oracle facets share the invariant {shared}"
            )
        return None
    order_a = block_order(a.system, a.report)
    order_b = block_order(b.system, b.report)
    witness = dict(zip(order_a, order_b))
    check_witness(facets_a, facets_b, witness, "equivalence witness")
    return witness
