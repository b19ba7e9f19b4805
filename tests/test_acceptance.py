"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a single PASS/FAIL line (run with -s or look at
captured output); stated runtime budgets are asserted with perf_counter.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations
from time import perf_counter

from galehull import (
    analyze_polytope,
    catalog,
    cyclic_facets,
    equivalence_witness,
    equivalent,
    fvector,
    hamiltonian_cycle,
    oracle_lattice,
    pyramid,
    relint_contains_zero,
    simpliciality_check,
    three_color,
    type4_model,
    validate,
    verify_polytope,
)
from galehull.linalg import rank
from conftest import lattice_isomorphic, relabel_faces
from instances import type_one_polytope

OCTAHEDRON = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]

@contextmanager
def criterion(num: int, desc: str):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc} ({perf_counter() - start:.2f}s)")

def test_criterion_1_cube_end_to_end():
    with criterion(1, "cube end-to-end"):
        start = perf_counter()
        p = catalog("cube")
        v = verify_polytope(p)
        a = v.analysis
        assert a.coloring.class_sizes == (2, 2, 2)
        assert a.report.dim == 3 == p.n - 1
        assert a.report.hull_type == "IV"

        g = a.diagram
        assert g.ambient == 2
        rays: dict = {}
        for j, norm in enumerate(g.normalized):
            rays.setdefault(norm, []).append(g.colors[j])
        assert len(rays) == 3
        assert all(len(cols) == 2 and len(set(cols)) == 1 for cols in rays.values())
        assert relint_contains_zero(g.points)

        oracle = oracle_lattice(a.system.vectors)
        assert a.lattice.faces == oracle.faces
        assert a.hull_fvector == (6, 12, 8)
        assert lattice_isomorphic(a.lattice, oracle_lattice(OCTAHEDRON)) is not None
        assert lattice_isomorphic(a.lattice, type4_model(2)) is not None
        elapsed = perf_counter() - start
        assert elapsed < 1.0, f"cube pipeline took {elapsed:.2f}s, budget 1s"

def test_criterion_2_hexagonal_prism():
    with criterion(2, "hexagonal prism vs pyramid over C(6,4)"):
        start = perf_counter()
        p = catalog("prism", 6)
        v = verify_polytope(p)
        a = v.analysis
        assert a.coloring.class_sizes == (2, 3, 3)
        assert a.report.hull_type == "II"
        assert a.report.dim == 6

        c64 = cyclic_facets(6, 4)
        assert fvector(c64) == (6, 15, 18, 9)
        predicted = pyramid(c64, 2)
        assert lattice_isomorphic(a.lattice, predicted) is not None
        oracle = oracle_lattice(a.system.vectors)
        assert a.lattice.faces == oracle.faces
        assert lattice_isomorphic(oracle, predicted) is not None

        # moment-curve-free realization of C(6,4): the hull of the two
        # equal-size classes is a face of the big hull
        base_vertices = a.system.class_indices(1) + a.system.class_indices(2)
        q = oracle_lattice([a.system.vectors[j] for j in sorted(base_vertices)])
        assert q.dim == 4
        assert fvector(q) == (6, 15, 18, 9)
        assert lattice_isomorphic(q, c64) is not None
        elapsed = perf_counter() - start
        assert elapsed < 10.0, f"prism:6 pipeline took {elapsed:.2f}s, budget 10s"

def test_criterion_3_octagonal_prism():
    with criterion(3, "octagonal prism vs pyramid over C(8,6)"):
        start = perf_counter()
        p = catalog("prism", 8)
        v = verify_polytope(p)
        a = v.analysis
        assert a.coloring.class_sizes == (2, 4, 4)
        assert a.report.hull_type == "II"
        assert a.report.dim == 8
        predicted = pyramid(cyclic_facets(8, 6), 2)
        assert lattice_isomorphic(a.lattice, predicted) is not None
        assert a.lattice.faces == v.oracle.faces
        elapsed = perf_counter() - start
        assert elapsed < 30.0, f"prism:8 pipeline took {elapsed:.2f}s, budget 30s"

def test_criterion_4_truncated_octahedron():
    with criterion(4, "truncated octahedron vs 6-fold pyramid over C(8,6)"):
        start = perf_counter()
        p = catalog("truncated-octahedron")
        v = verify_polytope(p)
        a = v.analysis
        assert a.coloring.class_sizes == (4, 4, 6)
        assert a.report.hull_type == "III"
        assert a.report.dim == 12
        assert len(a.system.vectors) == 14
        assert all(len(vec) == 24 for vec in a.system.vectors)
        predicted = pyramid(cyclic_facets(8, 6), 6)
        assert lattice_isomorphic(a.lattice, predicted) is not None
        assert a.lattice.faces == v.oracle.faces
        elapsed = perf_counter() - start
        assert elapsed < 120.0, f"pipeline took {elapsed:.2f}s, budget 120s"

def test_criterion_5_equivalence_cross_validation():
    with criterion(5, "equivalence criterion == oracle over all catalog pairs"):
        originals = {
            "cube": catalog("cube"),
            "prism:6": catalog("prism", 6),
            "prism:8": catalog("prism", 8),
            "truncated-octahedron": catalog("truncated-octahedron"),
        }
        systems = {}
        for name, p in originals.items():
            systems[name] = (p, analyze_polytope(p))
            relabeled = validate(relabel_faces(p))
            systems[name + "/relabeled"] = (relabeled, analyze_polytope(relabeled))

        lattices = {
            name: oracle_lattice(a.system.vectors) for name, (p, a) in systems.items()
        }
        names = sorted(systems)
        for x, y in combinations(names, 2):
            px, ax = systems[x]
            py, ay = systems[y]
            by_theorem = equivalent(ax.report, px.fvector, ay.report, py.fvector)
            by_oracle = lattice_isomorphic(lattices[x], lattices[y]) is not None
            assert by_theorem == by_oracle, f"{x} vs {y}: {by_theorem} != {by_oracle}"
        for name in originals:
            px, ax = systems[name]
            py, ay = systems[name + "/relabeled"]
            assert equivalent(ax.report, px.fvector, ay.report, py.fvector)
            assert lattice_isomorphic(lattices[name], lattices[name + "/relabeled"])

        # the op itself (recomputing lattices) on representative pairs
        assert equivalence_witness(
            systems["cube"][1].system, systems["cube/relabeled"][1].system
        ) is not None
        assert equivalence_witness(
            systems["cube"][1].system, systems["prism:6"][1].system
        ) is None

def _mask(indices):
    return sum(1 << i for i in indices)

def _closed_form_faces(a):
    """Independent closed-form face sets, straight from the class rules."""
    npts = a.polytope.n + 2
    v1 = frozenset(a.system.class_indices(0))
    v2 = frozenset(a.system.class_indices(1))
    v3 = frozenset(a.system.class_indices(2))
    t = a.report.hull_type
    out = set()
    for size in range(npts):
        for sub in combinations(range(npts), size):
            j = frozenset(sub)
            if t == "I":
                ok = not (v2 <= j) and not ((v1 | v3) <= j)
            elif t == "II":
                ok = (not (v2 <= j) and not (v3 <= j)) or ((v2 | v3) <= j)
            elif t == "III":
                ok = (not (v1 <= j) and not (v2 <= j)) or ((v1 | v2) <= j)
            else:
                ok = not (v1 <= j) and not (v2 <= j) and not (v3 <= j)
            if ok:
                out.add(j)
    return out

def _relint_faces(a):
    """Independent coface-criterion face sets from the computed diagram."""
    npts = a.polytope.n + 2
    out = set()
    for size in range(npts):
        for sub in combinations(range(npts), size):
            j = frozenset(sub)
            comp = [a.diagram.points[i] for i in range(npts) if i not in j]
            if relint_contains_zero(comp):
                out.add(j)
    return out

def test_criterion_6_invariant_suite():
    with criterion(6, "invariant suite over the catalog"):
        instances = [
            catalog("cube"),
            catalog("prism", 6),
            catalog("prism", 8),
            catalog("truncated-octahedron"),
        ]
        for p in instances:
            a = analyze_polytope(p)
            s = a.system
            V = p.num_vertices
            for slot in range(3):
                members = s.class_indices(slot)
                assert all(
                    sum(s.vectors[i][v] for i in members) == 1 for v in range(V)
                )
            assert rank(s.vectors) == p.n
            assert all(sum(vec[v] for vec in s.vectors) == 3 for v in range(V))
            assert a.coloring.class_sizes[0] >= 2

            closed = _closed_form_faces(a)
            byrelint = _relint_faces(a)
            assert closed == byrelint
            assert {_mask(f) for f in closed} == set(a.lattice.proper_faces()) | {0}

            simplicial = simpliciality_check(a.lattice)
            assert simplicial == (a.report.hull_type in ("I", "IV"))
            if a.report.hull_type == "IV":
                assert a.neighborly == a.report.sorted_sizes[1] - 1

def test_criterion_7_distinct_sizes_property_suite():
    with criterion(7, "distinct-class-sizes suite on a live instance"):
        # the always-on hook: classification I triggers the checks inside
        # verify_polytope; no catalog instance reaches it
        for name, param in (("cube", None), ("prism", 6)):
            a = analyze_polytope(catalog(name, param) if param else catalog(name))
            assert a.report.hull_type != "I"

        p = type_one_polytope()
        assert three_color(p).class_sizes == (4, 5, 6)
        v = verify_polytope(p)
        assert v.analysis.report.hull_type == "I"
        report = v.type_one_report
        assert report is not None
        assert report["simplicial"] and report["facesMatchOracle"]
        assert report["kRatioVerified"]
        m2 = v.analysis.report.sorted_sizes[1]
        assert len(report["beyondCounts"]) == m2
        assert all(c == m2 - 1 for c in report["beyondCounts"].values())
        assert v.analysis.lattice.faces == v.oracle.faces

def test_criterion_8_hamiltonicity():
    with criterion(8, "Hamiltonian cycles on every catalog instance"):
        expected = {
            ("cube", None): 8,
            ("prism", 6): 12,
            ("prism", 8): 16,
            ("truncated-octahedron", None): 24,
        }
        for (name, param), length in expected.items():
            p = catalog(name, param) if param else catalog(name)
            start = perf_counter()
            cycle = hamiltonian_cycle(p)
            elapsed = perf_counter() - start
            assert elapsed < 5.0, f"{name} search took {elapsed:.2f}s, budget 5s"
            assert cycle is not None and len(cycle) == length
            assert len(set(cycle)) == length
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                assert frozenset((x, y)) in p.edges
