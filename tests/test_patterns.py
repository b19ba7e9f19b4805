"""The hull's f-vector, simpliciality and neighborliness counted from the
class-pattern table, against walks over enumerated and oracle lattices."""

from __future__ import annotations

import json
import random
import tempfile
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
from conftest import (
    OVER_CAP,
    UP_TO_14,
    counts_by_walks,
    enumerate_faces_by_mask_scan,
    gen,
    gluings,
)
from galehull import (
    FaceLattice,
    PlanarPolytope,
    analyze_polytope,
    catalog,
    enumerate_faces,
    fvector,
    gale_transform,
    hull_model,
    incidence_system,
    neighborliness,
    simpliciality_check,
    summarize_polytope,
    three_color,
    validate,
    verify_polytope,
)
from galehull.cli import main
from galehull.errors import CriterionMismatch, TheoremViolation, TooManyPoints
from galehull.gale import IncidenceSystem, criterion_counts


def _walked(lattice):
    return fvector(lattice), simpliciality_check(lattice), neighborliness(lattice)


def _counted(a):
    return a.report.fvector, a.report.simplicial, a.report.neighborly


FIXED = [
    ("cube", lambda: catalog("cube")),
    ("prism:6", lambda: catalog("prism", 6)),
    ("prism:8", lambda: catalog("prism", 8)),
    ("prism:12", lambda: catalog("prism", 12)),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
] + [(build.__name__, build) for build in instances.INSTANCE_BUILDERS]


@pytest.mark.parametrize("name,build", FIXED, ids=[n for n, _ in FIXED])
def test_pattern_counts_equal_the_walks(name, build):
    a = analyze_polytope(build())
    assert _counted(a) == _walked(a.lattice)


def test_generated_sizes_cover_all_four_types():
    assert sorted(UP_TO_14) == ["I", "II", "III", "IV"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gluings(UP_TO_14))
def test_generated_pattern_counts_equal_the_walks(inst):
    a = analyze_polytope(validate([list(f) for f in inst.faces]))
    assert a.report.sizes == inst.sizes
    assert _counted(a) == _walked(a.lattice)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(gluings(UP_TO_14), st.integers(0, 2**16))
def test_generated_half_mask_scan_equals_the_per_mask_scan(inst, shuffle_seed):
    """Faces, dimensions and insertion order, with the faces list (the hull
    vertex labels) shuffled by a drawn seed."""
    faces = [list(f) for f in inst.faces]
    random.Random(shuffle_seed).shuffle(faces)
    p = validate(faces)
    s = incidence_system(p, three_color(p))
    t = hull_model(s.coloring.class_sizes)
    g = gale_transform(s, t)
    lattice = enumerate_faces(s, g, t)
    assert list(lattice.faces.items()) == list(enumerate_faces_by_mask_scan(s, g, t).faces.items())


@settings(derandomize=True, max_examples=15, deadline=None)
@given(gluings(UP_TO_14), st.none() | st.integers(0, 2**16))
@example(gen.glued(random.Random(1), (4, 4, 4)), None)
@example(gen.glued(random.Random(1), (4, 6, 6)), 1)
def test_generated_gluings_verify(inst, shuffle_seed):
    """verify answers every gluable size up to n = 14, in the generator's
    face order or with the faces list shuffled by a drawn seed. The two
    explicit gluings took the lattice isomorphism search that verify used
    to run 20 s and over 60 s."""
    faces = [list(f) for f in inst.faces]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(faces)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        path.write_text(json.dumps({"faces": faces}))
        assert main(["verify", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["hull"]["m"] == list(inst.sizes)


@pytest.fixture
def no_walks(monkeypatch):
    """The walks over a lattice's faces raise: the three public counts and
    FaceLattice.vertex_indices, which FaceLattice.counts reads first."""
    import galehull.gale as gale_module

    def walking(*args, **kwargs):
        raise AssertionError("a pass over the enumerated faces")

    for name in ("fvector", "simpliciality_check", "neighborliness"):
        monkeypatch.setattr(gale_module, name, walking)
    monkeypatch.setattr(FaceLattice, "vertex_indices", property(walking))


@pytest.mark.parametrize("spec", [("cube",), ("prism", 6)])
def test_analyze_makes_no_pass_over_the_faces(spec, no_walks):
    a = analyze_polytope(catalog(*spec))
    assert a.report.simplicial == (spec == ("cube",))


@pytest.mark.parametrize("build", [
    lambda: catalog("cube"),
    lambda: catalog("prism", 6),
    lambda: catalog("truncated-octahedron"),
    instances.type_one_polytope,
], ids=["cube", "prism:6", "truncated-octahedron", "type_one_polytope"])
def test_verify_makes_no_pass_over_the_faces_for_its_counts(build, no_walks):
    """verify enumerates the lattice and the oracle's, and compares them
    face by face, but counts from the enumeration's rows."""
    v = verify_polytope(build())
    assert v.oracle.faces == v.analysis.lattice.faces


ROW_COUNTED = [
    ("cube", lambda: catalog("cube")),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
    *((f"prism:{k}", lambda k=k: catalog("prism", k)) for k in range(4, 17, 2)),
    *((b.__name__, b) for b in (*instances.INSTANCE_BUILDERS, instances.two_cubes_polytope)),
]


@pytest.mark.parametrize("name,build", ROW_COUNTED, ids=[n for n, _ in ROW_COUNTED])
def test_row_counts_equal_the_walks_of_both_lattices(name, build):
    """criterion_counts, read off the enumeration's rows, equals the walks
    over the criterion lattice and over the oracle lattice, in the built-in
    face order and in three shuffled ones, which split the classes at the
    half mask differently."""
    faces = [list(f) for f in build().faces]
    for seed in (None, 1, 2, 3):
        if seed is not None:
            random.Random(seed).shuffle(faces)
        v = verify_polytope(validate(faces))
        counts = criterion_counts(v.analysis.system, v.analysis.report)
        assert counts == counts_by_walks(v.analysis.lattice) == counts_by_walks(v.oracle)
        assert counts == v.analysis.report.counts


def _perturbing(monkeypatch, change):
    import galehull.pipeline as pipeline_module

    exact = pipeline_module.hull_model

    def perturbed(sizes):
        model = exact(sizes)
        model.__dict__["counts"] = change(*model.counts)
        return model

    monkeypatch.setattr(pipeline_module, "hull_model", perturbed)


def test_verify_names_the_first_differing_dimension(prism6, monkeypatch):
    def one_more_ridge(fv, simplicial, neighborly):
        return fv[:2] + (fv[2] + 1,) + fv[3:], simplicial, neighborly

    _perturbing(monkeypatch, one_more_ridge)
    with pytest.raises(CriterionMismatch, match="f-vector at dimension 2: class patterns count 55 faces, the oracle lattice 54"):
        verify_polytope(prism6)


@pytest.mark.parametrize("quantity,change", [
    ("neighborliness", lambda fv, simplicial, neighborly: (fv, simplicial, neighborly + 1)),
    ("simpliciality", lambda fv, simplicial, neighborly: (fv, not simplicial, neighborly)),
])
def test_verify_names_the_differing_quantity(quantity, change, prism6, monkeypatch):
    _perturbing(monkeypatch, change)
    with pytest.raises(CriterionMismatch, match=f"{quantity}: class patterns give"):
        verify_polytope(prism6)


# mutant -> (a fragment of criterion_counts, its replacement, verify's message)
ROW_COUNT_MUTANTS = {
    "one edge too many": (
        "Counter({(s.n + 2, model.dim): 1})",
        "Counter({(s.n + 2, model.dim): 1, (2, 1): 1})",
        r"f-vector at dimension 1: class patterns count (\d+) faces, the oracle lattice (\d+)",
    ),
    "no top face": (
        "Counter({(s.n + 2, model.dim): 1})",
        "Counter()",
        r"neighborliness: class patterns give \d+, the oracle lattice 0",
    ),
}


@pytest.mark.parametrize("spec", ["cube", "prism:6", "truncated-octahedron"])
@pytest.mark.parametrize("mutant", sorted(ROW_COUNT_MUTANTS))
def test_a_row_count_mutant_fails_verify(mutant, spec, capsys, monkeypatch):
    import inspect
    import re

    import galehull.gale as gale_module
    import galehull.pipeline as pipeline_module

    old, new, message = ROW_COUNT_MUTANTS[mutant]
    source = inspect.getsource(gale_module.criterion_counts)
    assert source.count(old) == 1
    namespace = dict(vars(gale_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(pipeline_module, "criterion_counts", namespace["criterion_counts"])
    assert main(["verify", "--catalog", spec]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "CriterionMismatch"
    found = re.fullmatch(message, error["message"])
    assert found, error["message"]
    if found.groups():
        assert int(found[2]) == int(found[1]) + 1


def test_pattern_simpliciality_is_checked_against_the_type(cube, monkeypatch):
    import galehull.gale as gale_module

    exact = gale_module._rank
    # hull_model builds the table, so the rank it grades by is patched first.
    # For type I this is the one simpliciality check: verify's type I
    # suite reports it without checking it again.
    monkeypatch.setattr(gale_module, "_rank", lambda points: exact(points) + 1)
    for p, hull_type in ((cube, "IV"), (instances.type_one_polytope(), "I")):
        t = hull_model(three_color(p).class_sizes)
        with pytest.raises(TheoremViolation, match=f"type {hull_type} hull has simpliciality False"):
            t.counts


def test_input_cap_refuses_before_the_incidence_vectors(monkeypatch):
    import galehull.gale as gale_module
    import galehull.pipeline as pipeline_module

    def building(self):
        raise AssertionError("the incidence vectors are being built")

    def color_then_forbid_the_build(p):
        c = color(p)
        monkeypatch.setattr(PlanarPolytope, "num_vertices", property(building))
        return c

    monkeypatch.setattr(gale_module, "INCIDENCE_FACE_CAP", 8)
    assert analyze_polytope(catalog("cube")).report.hull_type == "IV"  # 8 faces
    color = pipeline_module.three_color
    monkeypatch.setattr(pipeline_module, "three_color", color_then_forbid_the_build)
    with pytest.raises(TooManyPoints, match="10 faces exceeds cap 8"):
        analyze_polytope(catalog("prism", 8))


@pytest.fixture
def nothing_built(monkeypatch):
    """Building or validating any input raises."""
    import galehull.cli as cli_module
    import galehull.polytopes as polytopes_module

    def building(*args):
        raise AssertionError("an input is being built or validated")

    monkeypatch.setattr(polytopes_module, "_prism_faces", building)
    for module in (cli_module, polytopes_module):
        monkeypatch.setattr(module, "validate", building)


@pytest.mark.parametrize("argv,faces", [
    (["analyze", "--catalog", "prism:200000"], 200002),
    (["verify", "--catalog", "prism:100000000"], 100000002),
    (["compare", "catalog:prism:1000", "catalog:cube"], 1002),
    (["analyze", "FILE"], 1001),
    (["verify", "FILE"], 1001),
    (["compare", "FILE", "catalog:cube"], 1001),
])
def test_input_cap_refuses_before_building_or_validating(argv, faces, nothing_built, capsys, tmp_path):
    # malformed as well as over the cap: the cap answers first
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"faces": [[0, 1]] * 1001}))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "TooManyPoints",
        "message": f"{faces} faces exceeds cap 1000",
        "source": "galehull.gale",
    }


@pytest.mark.parametrize("argv,vertices", [
    (["hamilton", "--catalog", "prism:100000"], 200000),
    (["hamilton", "--catalog", "prism:16"], 32),
    (["hamilton", "FILE"], 32),
])
def test_hamilton_cap_refuses_before_building_or_validating(argv, vertices, nothing_built, capsys, tmp_path):
    # 18 faces, malformed: a map with F faces has 2(F - 2) vertices
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"faces": [[0, 1]] * 18}))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "TooLarge",
        "message": f"{vertices} vertices exceeds the cap of 30",
        "source": "galehull.polytopes",
    }


def test_hamilton_cap_answers_as_the_search_did(capsys):
    from galehull.errors import TooLarge
    from galehull.polytopes import hamiltonian_cycle

    with pytest.raises(TooLarge) as refused:
        hamiltonian_cycle(catalog("prism", 16))
    assert main(["hamilton", "--catalog", "prism:16"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["message"] == str(refused.value)
    # malformed as well as over the cap: the cap answers first, as for analyze
    assert main(["hamilton", "--catalog", "prism:100001"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "TooLarge"
    assert main(["hamilton", "--catalog", "prism:15"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "OddPrism"
    assert main(["hamilton", "--catalog", "prism:14"]) == 0


def test_catalog_dump_takes_its_own_face_cap(capsys, monkeypatch):
    import galehull.cli as cli_module

    from galehull.polytopes import CATALOG_FACE_CAP

    # above INCIDENCE_FACE_CAP, a dump is still analyze-ready JSON
    assert main(["catalog", "prism:1000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["faces"]) == 1002
    # past its own cap it is refused from the face count, before any build
    monkeypatch.setattr(cli_module, "catalog", lambda *args: pytest.fail("built the instance"))
    for k in (CATALOG_FACE_CAP, 100000000):
        assert main(["catalog", f"prism:{k}"]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": {
                "code": "TooManyPoints",
                "message": f"{k + 2} faces exceeds catalog cap {CATALOG_FACE_CAP}",
                "source": "galehull.polytopes",
            }
        }


def test_long_faces_are_refused_from_their_vertex_slots(tmp_path, capsys, monkeypatch):
    """A valid map of F faces has 6(F - 2) vertex slots, so a file of few
    faces and many slots needs more faces than the cap allows: it is
    refused before validation, by analyze, hamilton and compare alike."""
    import galehull.cli as cli_module
    from galehull.gale import INCIDENCE_FACE_CAP
    from galehull.polytopes import HAMILTON_VERTEX_CAP

    monkeypatch.setattr(cli_module, "validate", lambda faces: pytest.fail("validated the input"))

    def three_faces(slots, name):
        path = tmp_path / name
        third = slots // 3
        faces = [list(range(third))] * 2 + [list(range(slots - 2 * third))]
        path.write_text(json.dumps({"faces": faces}))
        return str(path)

    most = 6 * (INCIDENCE_FACE_CAP - 2)
    for argv in (["analyze"], ["compare", "catalog:cube"]):
        with pytest.raises(pytest.fail.Exception, match="validated the input"):
            main([*argv, three_faces(most, "most.json")])
        assert main([*argv, three_faces(most + 1, "over.json")]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == {
            "code": "TooManyPoints",
            "message": f"{most + 1} vertex slots exceed the cap: "
            "a valid map of F faces has 6(F - 2)",
            "source": "galehull.cli",
        }
    # a cubic map of F faces has 2(F - 2) vertices, a third of its slots
    most = 3 * HAMILTON_VERTEX_CAP
    with pytest.raises(pytest.fail.Exception, match="validated the input"):
        main(["hamilton", three_faces(most, "most.json")])
    assert main(["hamilton", three_faces(most + 1, "over.json")]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "TooLarge"
    capsys.readouterr()


def test_input_cap_sits_above_every_analysis(capsys):
    from galehull.gale import ANALYSIS_VERTEX_CAP, INCIDENCE_FACE_CAP

    assert INCIDENCE_FACE_CAP > ANALYSIS_VERTEX_CAP
    assert main(["analyze", "--catalog", "prism:1000"]) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {
        "code": "TooManyPoints",
        "message": f"1002 faces exceeds cap {INCIDENCE_FACE_CAP}",
        "source": "galehull.gale",
    }


@pytest.fixture
def never_enumerating(monkeypatch):
    """Entering enumerate_faces raises."""
    import galehull.gale as gale_module
    import galehull.pipeline as pipeline_module

    def enumerating(*args):
        raise AssertionError("the face lattice is being enumerated")

    for module in (gale_module, pipeline_module):
        monkeypatch.setattr(module, "enumerate_faces", enumerating)


# every catalog instance under ANALYSIS_VERTEX_CAP, and the gluings
SUMMARIZED = [
    ("cube", lambda: catalog("cube")),
    ("truncated-octahedron", lambda: catalog("truncated-octahedron")),
    *((f"prism:{k}", lambda k=k: catalog("prism", k)) for k in range(4, 23, 2)),
    *((b.__name__, b) for b in (*instances.INSTANCE_BUILDERS, instances.two_cubes_polytope)),
]


@pytest.mark.parametrize("name,build", SUMMARIZED, ids=[n for n, _ in SUMMARIZED])
def test_analyze_and_compare_never_enumerate(name, build, never_enumerating, tmp_path, capsys):
    p = build()
    a = summarize_polytope(p)
    assert len(a.report.fvector) == a.report.dim
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"faces": [list(f) for f in p.faces]}))
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["hull"]["fvector"] == list(a.report.fvector)
    # the oracle route scans the facets of each hull once and builds no lattice
    assert main(["compare", str(path), "catalog:cube"]) == 0
    like_the_cube = (p.n, a.report.hull_type) == (4, "IV")
    assert json.loads(capsys.readouterr().out)["equivalentByTheorem"] == like_the_cube


def test_verify_enumerates_once(monkeypatch, capsys):
    import galehull.pipeline as pipeline_module

    exact = pipeline_module.enumerate_faces
    calls = []

    def counting(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(pipeline_module, "enumerate_faces", counting)
    for p in (catalog("cube"), catalog("prism", 6), instances.type_one_polytope()):
        calls.clear()
        v = verify_polytope(p)
        assert v.analysis.lattice is v.analysis.lattice  # cached on the one read
        assert len(calls) == 1
    calls.clear()
    assert main(["verify", "--catalog", "truncated-octahedron"]) == 0
    assert len(calls) == 1


# prism:20 and prism:22 would enumerate 2^22 and 2^24 faces twice
ENUMERATED = [(n, b) for n, b in SUMMARIZED if n not in ("prism:20", "prism:22")]


@pytest.mark.parametrize("name,build", ENUMERATED, ids=[n for n, _ in ENUMERATED])
def test_lazy_lattice_equals_direct_enumeration(name, build):
    a = summarize_polytope(build())
    assert "lattice" not in vars(a)
    direct = enumerate_faces(a.system, a.diagram, a.report)
    assert (a.lattice.dim, a.lattice.top) == (direct.dim, direct.top)
    # same faces, dimensions and insertion order
    assert list(a.lattice.faces.items()) == list(direct.faces.items())


def test_over_cap_analyze_refuses_before_the_anchors(monkeypatch, capsys):
    import galehull.gale as gale_module

    def ranking(points):
        raise AssertionError("an exact rank ran above the cap")

    monkeypatch.setattr(gale_module, "affine_dimension", ranking)
    error = {
        "code": "TooManyPoints",
        "message": "26 hull vertices exceeds cap 24",
        "source": "galehull.gale",
    }
    for argv in (["analyze", "--catalog", "prism:24"], ["compare", "catalog:prism:24", "catalog:cube"]):
        assert main(argv) == 4
        assert json.loads(capsys.readouterr().out) == {"error": error}
    # enumerate_faces keeps its own check, with the same message
    p = catalog("prism", 24)
    s = incidence_system(p, three_color(p))
    t = hull_model(s.coloring.class_sizes)
    g = gale_transform(s, t)
    with pytest.raises(TooManyPoints, match=error["message"]):
        enumerate_faces(s, g, t)


@pytest.mark.parametrize("name,build", OVER_CAP, ids=[n for n, _ in OVER_CAP])
def test_over_cap_analyze_and_compare_build_no_dense_vectors(
    name, build, monkeypatch, tmp_path, capsys
):
    def densifying(self):
        raise AssertionError("the dense incidence vectors are being built")

    monkeypatch.setattr(IncidenceSystem, "vectors", property(densifying))
    p = build()
    error = {
        "code": "TooManyPoints",
        "message": f"{p.n + 2} hull vertices exceeds cap 24",
        "source": "galehull.gale",
    }
    with pytest.raises(TooManyPoints, match=error["message"]):
        summarize_polytope(p)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"faces": [list(f) for f in p.faces]}))
    for argv in (["analyze", str(path)], ["compare", str(path), "catalog:cube"]):
        assert main(argv) == 4
        assert json.loads(capsys.readouterr().out) == {"error": error}


@pytest.mark.parametrize("name,build", SUMMARIZED, ids=[n for n, _ in SUMMARIZED])
def test_the_anchors_read_the_dense_vectors_first(name, build, monkeypatch):
    import galehull.pipeline as pipeline_module

    exact, anchors = IncidenceSystem.vectors.func, pipeline_module.grade_anchors
    anchoring, reads = [], []

    def reading(self):
        reads.append(bool(anchoring))
        return exact(self)

    def entering(s, t):
        anchoring.append(True)
        anchors(s, t)
        anchoring.clear()

    prop = cached_property(reading)
    prop.__set_name__(IncidenceSystem, "vectors")
    monkeypatch.setattr(IncidenceSystem, "vectors", prop)
    monkeypatch.setattr(pipeline_module, "grade_anchors", entering)
    summarize_polytope(build())
    # built at most once, inside grade_anchors; an empty-face anchor reads none
    assert reads in ([], [True])
