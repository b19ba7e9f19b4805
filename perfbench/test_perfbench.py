"""Tests of the benchmark's generator, closed form, report checks and spans."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import galehull  # noqa: E402
import galehull.pipeline as pipeline  # noqa: E402
import expect  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
import spans  # noqa: E402
from galehull import (  # noqa: E402
    catalog,
    cli,
    fvector,
    incidence_system,
    neighborliness,
    oracle_lattice,
    simpliciality_check,
    three_color,
    validate,
)

SIZES = [(2, 2, 2), (2, 5, 5), (3, 3, 3), (3, 5, 5), (4, 4, 5), (4, 5, 6),
         (5, 5, 5), (8, 10, 12), (12, 12, 14), (16, 16, 16)]


def _sizes_of(faces):
    return three_color(validate([list(f) for f in faces])).class_sizes


@pytest.mark.parametrize("sizes", SIZES)
def test_glued_instance_has_the_sizes_asked_for(sizes):
    for seed in range(3):
        inst = gen.glued(random.Random(seed), sizes)
        assert inst.sizes == sizes
        assert _sizes_of(inst.faces) == sizes


def test_generator_is_deterministic_per_seed():
    a = gen.glued(random.Random(7), (4, 5, 6))
    b = gen.glued(random.Random(7), (4, 5, 6))
    c = gen.glued(random.Random(8), (4, 5, 6))
    assert a == b
    assert a.faces != c.faces


@pytest.mark.parametrize("want", ["I", "II", "III", "IV"])
def test_random_instance_targets_type_and_n_range(want):
    for seed in range(4):
        inst = gen.random_instance(random.Random(seed), want, 9, 30)
        assert 9 <= inst.n <= 30
        assert gen.hull_type(inst.sizes) == want
        assert _sizes_of(inst.faces) == inst.sizes


def test_impossible_sizes_are_refused():
    with pytest.raises(ValueError):
        gen.glued(random.Random(0), (4, 4, 6))     # no bipyramid sum reaches it
    with pytest.raises(ValueError):
        gen.glued(random.Random(0), (4, 5, 6), pieces=3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_instances_are_valid_and_seeded(workload):
    first, calls = workloads.WORKLOADS[workload](random.Random(3), galehull)
    again, _ = workloads.WORKLOADS[workload](random.Random(3), galehull)
    assert first == again
    assert {n for c in calls for n in c.files} <= {i.name for i in first}
    for inst in first:
        assert _sizes_of(inst.faces) == inst.sizes


def _polytopes():
    yield "cube", catalog("cube")
    yield "prism8", catalog("prism", 8)
    for sizes in [(3, 3, 3), (3, 5, 5), (4, 4, 5), (4, 5, 6)]:
        inst = gen.glued(random.Random(1), sizes)
        yield inst.name, validate([list(f) for f in inst.faces])


@pytest.mark.parametrize("name,polytope", list(_polytopes()))
def test_closed_form_matches_the_oracle(name, polytope):
    coloring = three_color(polytope)
    sizes = coloring.class_sizes
    lattice = oracle_lattice(incidence_system(polytope, coloring).vectors)
    assert lattice.dim == expect.hull_dim(sizes)
    assert fvector(lattice) == expect.fvector(sizes)
    assert simpliciality_check(lattice) == expect.simplicial(sizes)
    assert neighborliness(lattice) == expect.neighborly(sizes)


def _report(tmp_path, *argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    return json.loads(out.read_text())


def test_report_checks_accept_right_and_reject_wrong_reports(tmp_path):
    doc = _report(tmp_path, "verify", "--catalog", "prism:6")
    sizes = (2, 3, 3)
    assert expect.check_verify(doc, sizes) == []
    doc["hull"]["fvector"][1] += 1
    assert expect.check_analysis(doc, sizes)
    assert expect.check_analysis(doc, (3, 3, 3))


def test_compare_check(tmp_path):
    doc = _report(tmp_path, "compare", "catalog:cube", "catalog:prism:6")
    assert expect.check_compare(doc, (2, 2, 2), (2, 3, 3)) == []
    assert expect.check_compare(doc, (2, 3, 3), (2, 3, 3))


def test_tracer_nests_spans_and_restores_the_program():
    original = pipeline.enumerate_faces
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("cli.main", instance="cube"):
        pipeline.analyze_polytope(catalog("cube"))
    assert pipeline.enumerate_faces is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["cli.main", "pipeline.analyze_polytope", "polytopes.three_color"]
    enum = next(s for s in tracer.spans if s.name == "gale.enumerate_faces")
    assert enum.counts == {"gale.faces_graded": 28, "gale.subsets_scanned": 64,
                           "gale.relint_supports": 7}
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs.values()) == pytest.approx(root.duration)


def test_metric_names_and_units_match_benchmark_json():
    import run
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    call = workloads.Call("analyze x", "analyze", ("x",), lambda doc: [])
    traced, untraced = (run.Results([call], ["key"]) for _ in range(2))
    for results in (traced, untraced):
        results.add(0, run.Outcome(0, 1.0, "answered", "d", ""))
    tracer = spans.Tracer()
    with tracer.span("cli.main", instance="x"):
        pass
    e2e = run.end_to_end(0.1, traced, [1.0])
    layer = run.per_layer([call], tracer, {0: [(0, 1, 0)]}, [1.0], traced, untraced)
    for got, want in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {k: u for k, (_, u) in got.items()} == {m["name"]: m["unit"] for m in want}
