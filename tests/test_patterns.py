"""The hull's f-vector, simpliciality and neighborliness counted from the
class-pattern table, against walks over enumerated and oracle lattices."""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
from galehull import (
    FaceLattice,
    PlanarPolytope,
    analyze_polytope,
    catalog,
    classify,
    fvector,
    gale_transform,
    incidence_system,
    neighborliness,
    pattern_counts,
    simpliciality_check,
    three_color,
    validate,
    verify_polytope,
)
from galehull.cli import main
from galehull.errors import CriterionMismatch, TheoremViolation, TooManyPoints

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


def _walked(lattice):
    return fvector(lattice), simpliciality_check(lattice), neighborliness(lattice)


def _counted(a):
    return a.hull_fvector, a.simplicial, a.neighborly


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


def _sizes_by_type(n_max: int) -> dict[str, list[tuple[int, int, int]]]:
    """Every sorted class-size triple with n <= n_max that gen can glue."""
    out: dict[str, list[tuple[int, int, int]]] = {}
    for total in range(6, n_max + 3):
        for m1 in range(2, total // 3 + 1):
            for m2 in range(m1, (total - m1) // 2 + 1):
                sizes = (m1, m2, total - m1 - m2)
                if gen.plans(sizes):
                    out.setdefault(gen.hull_type(sizes), []).append(sizes)
    return out


def gluings(sizes_by_type):
    return st.builds(
        lambda sizes, seed: gen.glued(random.Random(seed), sizes),
        st.sampled_from(sorted(sizes_by_type)).flatmap(
            lambda t: st.sampled_from(sizes_by_type[t])
        ),
        st.integers(0, 2**16),
    )


UP_TO_14 = _sizes_by_type(14)


def test_generated_sizes_cover_all_four_types():
    assert sorted(UP_TO_14) == ["I", "II", "III", "IV"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gluings(UP_TO_14))
def test_generated_pattern_counts_equal_the_walks(inst):
    a = analyze_polytope(validate([list(f) for f in inst.faces]))
    assert a.report.sorted_sizes == inst.sizes
    assert _counted(a) == _walked(a.lattice)


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
    import galehull.gale as gale_module
    import galehull.pipeline as pipeline_module

    def walking(*args, **kwargs):
        raise AssertionError("a pass over the enumerated faces")

    for module in (gale_module, pipeline_module):
        for name in ("fvector", "simpliciality_check", "neighborliness"):
            monkeypatch.setattr(module, name, walking)
    monkeypatch.setattr(FaceLattice, "vertex_indices", property(walking))


@pytest.mark.parametrize("spec", [("cube",), ("prism", 6)])
def test_analyze_makes_no_pass_over_the_faces(spec, no_walks):
    a = analyze_polytope(catalog(*spec))
    assert a.simplicial == (spec == ("cube",))


def _perturbing(monkeypatch, change):
    import galehull.pipeline as pipeline_module

    exact = pipeline_module.pattern_counts

    def perturbed(*args):
        return change(*exact(*args))

    monkeypatch.setattr(pipeline_module, "pattern_counts", perturbed)


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


def test_pattern_simpliciality_is_checked_against_the_type(cube, monkeypatch):
    import galehull.gale as gale_module

    s = incidence_system(cube, three_color(cube))
    g = gale_transform(s)
    t = classify(s, g)
    exact = gale_module.rank
    monkeypatch.setattr(gale_module, "rank", lambda points: exact(points) + 1)
    with pytest.raises(TheoremViolation, match="type IV hull has simpliciality False"):
        pattern_counts(s, g, t)


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
