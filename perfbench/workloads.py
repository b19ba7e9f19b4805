"""The benchmark's workloads: seeded instances and the CLI calls on them.

Runs on different seeds must cost the same, up to noise, for their
figures to be comparable. How much work an instance takes depends on its
class sizes and also on its labels: vertex order changes the fill-in of
the exact eliminations, face order the isomorphism search. So:

- catalog instances keep the catalog's labels;
- the mid workloads' gluings are built from a fixed stream per slot,
  and the seed turns their face cycles: a different input file for the
  same work. Two bipyramids glue to the same polytope whichever
  triangles are chosen, so for them this loses no variety;
- the large workload's gluings take their structure from the seed; four
  of them per pass average out the differences in sparsity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import expect
import gen


@dataclass(frozen=True)
class Call:
    name: str
    command: str                 # analyze | verify | compare
    files: tuple[str, ...]       # instance names, resolved to JSON paths
    check: Callable[[dict], list[str]]
    may_refuse: bool = False     # exit 4 (size cap) is an allowed answer


def _analyze(inst, may_refuse=False):
    return Call(f"analyze {inst.name}", "analyze", (inst.name,),
                lambda doc: expect.check_analysis(doc, inst.sizes), may_refuse)


def _verify(inst):
    return Call(f"verify {inst.name}", "verify", (inst.name,),
                lambda doc: expect.check_verify(doc, inst.sizes))


def _compare(a, b):
    return Call(f"compare {a.name} {b.name}", "compare", (a.name, b.name),
                lambda doc: expect.check_compare(doc, a.sizes, b.sizes))


def _catalog(galehull, name, parameter=None):
    p = galehull.catalog(name, parameter)
    sizes = galehull.three_color(p).class_sizes
    label = f"{name}{parameter}" if parameter else name
    return gen.Instance(label, p.faces, sizes)


def _fixed(rng, sizes, pieces, name):
    """A gluing built from a fixed stream; the seed only turns its cycles."""
    inst = gen.glued(random.Random(f"{name}/{sizes}"), sizes, pieces, name)
    return gen.turned(rng, inst)


def analyze_mid(rng, galehull):
    """9-15 hull vertices, all four types: face enumeration dominates."""
    instances = [
        _catalog(galehull, "prism", 12),                        # II
        _catalog(galehull, "truncated-octahedron"),             # III
        _fixed(rng, (4, 5, 6), 2, "type-I"),
        _fixed(rng, (3, 5, 5), 2, "type-II"),
        _fixed(rng, (4, 4, 5), 2, "type-III"),
        _fixed(rng, (4, 4, 4), 3, "type-IV"),
    ]
    return instances, [_analyze(i) for i in instances]


def verify_mid(rng, galehull):
    """verify on all four types, and compare with the oracle on an
    equivalent and an inequivalent pair: the oracle, the reference models
    and lattice isomorphism dominate."""
    instances = [
        _fixed(rng, (4, 5, 6), 2, "type-I"),
        _catalog(galehull, "prism", 10),                        # II
        _fixed(rng, (4, 4, 5), 2, "type-III"),
        _fixed(rng, (3, 3, 3), 2, "type-IV"),
        _fixed(rng, (4, 4, 5), 2, "type-III-b"),
        _fixed(rng, (3, 5, 5), 2, "type-II-b"),
    ]
    calls = [_verify(i) for i in instances[:4]]
    calls += [
        _compare(instances[2], instances[4]),   # equivalent
        _compare(instances[2], instances[5]),   # same face count, inequivalent
    ]
    return instances, calls


def analyze_large(rng, galehull):
    """n from 24 to 70, past the enumeration cap: validation, coloring and
    the Gale transform do all the work. Prisms and gluings differ in the
    sparsity that the elimination sees."""
    instances = [
        _catalog(galehull, "prism", 24),                        # II
        _catalog(galehull, "prism", 48),
        _catalog(galehull, "prism", 64),
        gen.glued(rng, (20, 22, 24), pieces=9, name="type-I-64"),
        gen.glued(rng, (20, 26, 26), pieces=5, name="type-II-70"),
        gen.glued(rng, (22, 22, 26), pieces=9, name="type-III-68"),
        gen.glued(rng, (24, 24, 24), pieces=11, name="type-IV-70"),
    ]
    return instances, [_analyze(i, may_refuse=True) for i in instances]


WORKLOADS = {
    "analyze-mid": analyze_mid,
    "verify-mid": verify_mid,
    "analyze-large": analyze_large,
}
