from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import instances
from galehull import catalog
from galehull.cli import build_parser, main

TETRAHEDRON = {"faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}

def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out

def test_analyze_cube(capsys):
    code, out = run(capsys, ["analyze", "--catalog", "cube"])
    assert code == 0
    doc = json.loads(out)
    assert doc["polytope"]["n"] == 4
    assert doc["polytope"]["classSizes"] == [2, 2, 2]
    assert doc["hull"]["type"] == "IV"
    assert doc["hull"]["dim"] == 3
    assert doc["hull"]["fvector"] == [6, 12, 8]
    assert list(doc["polytope"]) == [
        "n", "fvector", "colors", "classSizes", "essentialColorings",
    ]
    assert list(doc["hull"]) == [
        "dim", "type", "m", "k", "galeDiagram", "fvector",
        "simplicial", "neighborly", "structure",
    ]

def test_analyze_prism6(capsys):
    code, out = run(capsys, ["analyze", "--catalog", "prism:6"])
    doc = json.loads(out)
    assert code == 0
    assert doc["hull"]["type"] == "II"
    assert doc["hull"]["dim"] == 6
    assert doc["hull"]["k"] is None

def test_analyze_is_byte_deterministic(capsys):
    _, first = run(capsys, ["analyze", "--catalog", "prism:6"])
    _, second = run(capsys, ["analyze", "--catalog", "prism:6"])
    assert first == second

def _fresh_process(argv, cwd):
    """argv run as `python -m galehull` in a new process, on this galehull."""
    import galehull

    path = [str(Path(galehull.__file__).resolve().parents[1])]
    path += filter(None, [os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "galehull", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )

def test_python_dash_m_matches_main(tmp_path, capsys):
    argv = ["analyze", "--catalog", "cube"]
    proc = _fresh_process(argv, tmp_path)
    _, out = run(capsys, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.encode()

def test_analyze_file_input(tmp_path, capsys):
    path = tmp_path / "tet.json"
    path.write_text(json.dumps(TETRAHEDRON))
    code, out = run(capsys, ["analyze", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["code"] == "NotThreeColorable"
    assert doc["error"]["source"] == "galehull.polytopes"

def test_verify_cube(capsys):
    code, out = run(capsys, ["verify", "--catalog", "cube"])
    assert code == 0
    doc = json.loads(out)
    v = doc["verify"]
    assert v["facesMatchOracle"] and v["referenceIsomorphic"]
    assert v["pyramid"] is None
    assert v["neighborlinessMatches"] is True
    assert len(v["witnessBijection"]) == 6

def test_verify_two_cubes(tmp_path, capsys):
    """Not 3-connected, so no polytope's map, yet every certificate of
    verify holds: the rank certificate needs only a connected 1-skeleton
    and one face of each class at every vertex."""
    path = tmp_path / "two-cubes.json"
    path.write_text(json.dumps({"faces": [list(f) for f in instances.two_cubes_polytope().faces]}))
    code, out = run(capsys, ["verify", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["hull"]["type"] == "III" and doc["verify"]["referenceIsomorphic"] is True

def test_verify_prism6_pyramid(capsys):
    code, out = run(capsys, ["verify", "--catalog", "prism:6"])
    doc = json.loads(out)
    assert code == 0
    assert doc["verify"]["pyramid"]["apexCount"] == 2
    assert doc["verify"]["reference"] == "2-fold 6-pyramid over C(6,4)"

def test_compare_catalog_specs(capsys):
    code, out = run(capsys, ["compare", "catalog:prism:6", "catalog:prism:8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalentByTheorem"] is False
    assert doc["equivalentByOracle"] is False
    assert doc["witnessBijection"] is None

def test_compare_file_and_catalog(tmp_path, capsys):
    code, out = run(capsys, ["catalog", "prism:6"])
    path = tmp_path / "p6.json"
    path.write_text(out)
    code, out = run(capsys, ["compare", str(path), "catalog:prism:6"])
    doc = json.loads(out)
    assert doc["equivalentByTheorem"] is True and doc["equivalentByOracle"] is True
    assert doc["witnessBijection"] is not None

def test_hamilton(capsys):
    code, out = run(capsys, ["hamilton", "--catalog", "truncated-octahedron"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hamiltonian"] is True
    assert len(doc["cycle"]) == 24

def test_hamilton_too_large(capsys):
    code, out = run(capsys, ["hamilton", "--catalog", "prism:16"])
    assert code == 4
    assert json.loads(out)["error"]["code"] == "TooLarge"

def test_catalog_listing(capsys):
    code, out = run(capsys, ["catalog"])
    doc = json.loads(out)
    assert code == 0
    assert doc["names"] == ["prism", "cube", "truncated-octahedron"]

def test_catalog_dump_composes_with_analyze(tmp_path, capsys):
    _, out = run(capsys, ["catalog", "truncated-octahedron"])
    path = tmp_path / "to.json"
    path.write_text(out)
    code, out = run(capsys, ["analyze", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["hull"]["type"] == "III"
    assert doc["hull"]["m"] == [4, 4, 6]

CATALOG_ENTRY_POINTS = {
    "analyze": lambda spec: ["analyze", "--catalog", spec],
    "compare": lambda spec: ["compare", f"catalog:{spec}", "catalog:cube"],
    "catalog": lambda spec: ["catalog", spec],
}

@pytest.mark.parametrize("entry", sorted(CATALOG_ENTRY_POINTS))
@pytest.mark.parametrize("param,code,message", [
    # int() takes all four, as prism:10 and prism:6
    pytest.param("1_0", "BadInput", "catalog parameter '1_0' is not an integer", id="underscore"),
    pytest.param("+6", "BadInput", "catalog parameter '+6' is not an integer", id="plus"),
    pytest.param(" 6", "BadInput", "catalog parameter ' 6' is not an integer", id="space"),
    pytest.param("٦", "BadInput", "catalog parameter '٦' is not an integer", id="arabic-6"),
    pytest.param("--4", "BadInput", "catalog parameter '--4' is not an integer", id="two-minus"),
    pytest.param("-4", "BadParameters", "prism parameter must be >= 4, got -4", id="minus"),
    pytest.param("9" * 5000, "BadInput", "is not an integer", id="past-digit-limit"),
])
def test_a_catalog_parameter_is_ascii_digits(entry, param, code, message, capsys):
    exit_code, out = run(capsys, CATALOG_ENTRY_POINTS[entry](f"prism:{param}"))
    assert exit_code == 2
    error = json.loads(out)["error"]
    assert error["code"] == code and message in error["message"]

def test_output_flag_and_pretty(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(capsys, ["analyze", "--catalog", "cube", "--output", str(target)])
    assert code == 0
    compact = target.read_text()
    assert json.loads(compact)["hull"]["type"] == "IV"
    code, _ = run(
        capsys,
        ["analyze", "--catalog", "cube", "--output", str(target), "--pretty"],
    )
    pretty = target.read_text()
    assert json.loads(pretty) == json.loads(compact)
    assert pretty.count("\n") > compact.count("\n")

@pytest.mark.parametrize("case", ["directory", "missing-parent"])
def test_unwritable_output_is_bad_input(case, tmp_path, capsys):
    target = tmp_path if case == "directory" else tmp_path / "missing" / "report.json"
    code, out = run(capsys, ["analyze", "--catalog", "cube", "--output", str(target)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "BadInput" and str(target) in error["message"]
    assert list(tmp_path.iterdir()) == []

def test_bad_inputs(tmp_path, capsys):
    code, out = run(capsys, ["analyze", "missing.json"])
    assert code == 2 and json.loads(out)["error"]["code"] == "BadInput"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, ["analyze", str(bad)])
    assert code == 2 and json.loads(out)["error"]["code"] == "BadInput"
    noface = tmp_path / "noface.json"
    noface.write_text("{}")
    code, out = run(capsys, ["analyze", str(noface)])
    assert code == 2
    code, out = run(capsys, ["analyze"])
    assert code == 2
    code, out = run(capsys, ["analyze", "--catalog", "prism:6", str(noface)])
    assert code == 2

def _unreadable(case, tmp_path):
    if case == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes('{"faces": [], "note": "caf\u00e9"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_unreadable_inputs_are_bad_input(case, tmp_path, capsys):
    path = str(_unreadable(case, tmp_path))
    for argv in (
        ["analyze", path],
        ["verify", path],
        ["hamilton", path],
        ["compare", path, "catalog:cube"],
        ["compare", "catalog:cube", path],
    ):
        code, out = run(capsys, argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["code"] == "BadInput" and path in error["message"], argv


def _unparsable(case, tmp_path):
    path = tmp_path / f"{case}.json"
    if case == "too-deep":
        depth = 200_000
        path.write_text('{"faces": ' + "[" * depth + "]" * depth + "}")
    else:
        faces = json.dumps(_cube_with("ID")["faces"]).replace('"ID"', "9" * 5000)
        path.write_text('{"faces": ' + faces + "}")
    return str(path)


@pytest.mark.parametrize("case", ["too-deep", "too-many-digits"])
def test_unparsable_inputs_are_bad_input(case, tmp_path, capsys):
    path = _unparsable(case, tmp_path)
    for argv in (["analyze", path], ["compare", "catalog:cube", path]):
        code, out = run(capsys, argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["code"] == "BadInput" and path in error["message"], argv


def test_unknown_catalog(capsys):
    code, out = run(capsys, ["analyze", "--catalog", "icosahedron"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "UnknownName"


def _cube_with(first_id):
    faces = [list(f) for f in catalog("cube").faces]
    faces[0][0] = first_id
    return {"faces": faces}


MALFORMED = {
    "faces-not-a-list": {"faces": 5},
    "string-vertex-id": {"faces": [["a", 1, 2]]},
    "null-face": {"faces": [[0, 1, 2], None]},
    "float-vertex-id": _cube_with(0.25),
    "bool-vertex-id": _cube_with(False),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_are_bad_input(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, out = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "BadInput"


def _faces_file(tmp_path, name, faces):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"faces": [list(f) for f in faces]}))
    return str(path)


def _golden_cases(tmp_path):
    """(case name, argv) for every report whose bytes are pinned below."""
    for spec in ("cube", "prism:6", "prism:8", "prism:12", "truncated-octahedron"):
        yield f"analyze {spec}", ["analyze", "--catalog", spec]
    for build in instances.INSTANCE_BUILDERS:
        path = _faces_file(tmp_path, build.__name__, build().faces)
        yield f"analyze {build.__name__}", ["analyze", path]
    for spec in ("cube", "prism:6", "prism:8"):
        yield f"verify {spec}", ["verify", "--catalog", spec]
    yield "verify truncated-octahedron", ["verify", "--catalog", "truncated-octahedron"]
    path = _faces_file(tmp_path, "all_equal", instances.all_equal_polytope().faces)
    yield "verify all_equal_polytope", ["verify", path]
    path = _faces_file(tmp_path, "type_one", instances.type_one_polytope().faces)
    yield "verify type_one_polytope", ["verify", path]
    cube = catalog("cube")
    reversed_cube = [list(reversed(f)) for f in reversed(cube.faces)]
    path = _faces_file(tmp_path, "reversed_cube", reversed_cube)
    yield "compare cube reversed_cube", ["compare", "catalog:cube", path]
    yield "compare catalog:cube catalog:prism:6", ["compare", "catalog:cube", "catalog:prism:6"]


# sha256 of stdout; reports, witness bijections included, must not move
GOLDEN_DIGESTS = {
    "analyze cube": "7675c7ca84edc68f82d011ee28d72ba64a220ec033cbcb0e7c5a1ce062146025",
    "analyze prism:6": "f2b99848e125efec55385f4d1be46c0dc8c7d7749f702a4b46512e63b37ebc07",
    "analyze prism:8": "2726eb1c44f4fa2052d18dd5f6d214ace582089dadb669004d662331bfce7bcd",
    "analyze prism:12": "b1c8d0dbf13e875db7173ff3e8310513446ee9da8b8c3639572be8b3734da3ec",
    "analyze truncated-octahedron":
        "c1ac565946cd80094e24a7d8c3d285b90a2de23551fb5766f693d0caa9f02889",
    "analyze all_equal_polytope":
        "75e7db5182a07f0b80344e583f9301675269eb42755d041c4b8774b1272c7860",
    "analyze smallest_distinct_polytope":
        "e64fbad40828af2f1c2aadac397fb07e718351d3f6aad51fb4ff3ccc8228bad5",
    "analyze largest_distinct_polytope":
        "f3a19f8822b4677c311ad5e16d23febf26e992168de4dc1da4b5a6fcc787a9db",
    "analyze type_one_polytope":
        "7806b92edbf61240ecaf2eb2737f45319bc5f65b22b4836cbde8ea800002b2bf",
    "analyze type_one_polytope_mirror":
        "63550382d7d5246b936e6d9b3de9d2c649d879ce4dd2a167333fe6f346166600",
    "verify cube": "db5356006e77d7dc77d25be242c8103626b856d0f7e9a9742239327fc5244bb7",
    "verify prism:6": "f90e1c6d4d51aed10ddc8505b13aa40fb0e9e5a73529b241cbc648da545058c6",
    "verify prism:8": "93c673bce32267989d9d2d88afcb36646306ff54cf57456ad5c001af18fd3e7b",
    "verify truncated-octahedron":
        "fb9ff021fc0f09a09e52ffde668a6f939cacb79c655f8bb0e915d5029eaec005",
    "verify all_equal_polytope":
        "104c3c2f2fa133886be23ef59fdaf02c13ece8a33a24b3f83a26c9e722665d27",
    "verify type_one_polytope":
        "fdc7c78b3b024acc65745adf71e2f85f4bd765898c04af57d40f98547b336f71",
    "compare cube reversed_cube":
        "bd8248c98f9e1790a592dbb8ec6f6c038886edba48bc81c254c5645ef85e930b",
    "compare catalog:cube catalog:prism:6":
        "0e7e86f1d118713dc9b341552204c08e72541545e37ac6af4b5ea9185999ad84",
}


def test_report_bytes_are_golden(tmp_path, capsys):
    seen = {}
    for name, argv in _golden_cases(tmp_path):
        code, out = run(capsys, argv)
        assert code == 0, name
        seen[name] = hashlib.sha256(out.encode()).hexdigest()
    assert seen == GOLDEN_DIGESTS


# --- one parser per process ---------------------------------------------------

def test_main_builds_its_parser_once(monkeypatch, capsys):
    import argparse

    run(capsys, ["catalog"])  # the first call may build the shared parser
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["analyze", "--catalog", "cube"], ["verify", "--catalog", "cube"], ["catalog"]):
        assert run(capsys, argv)[0] == 0
    assert built == []
    assert build_parser() is not build_parser()
    assert built


def _interleaved(out_dir):
    """(name, argv) of commands whose flags differ from one call to the next."""
    def to(name):
        return ["--output", str(out_dir / name)]

    yield "verify-pretty-file", ["verify", "--catalog", "cube", "--pretty", *to("a.json")]
    yield "analyze", ["analyze", "--catalog", "prism:6"]
    yield "compare-file", ["compare", "catalog:cube", "catalog:prism:6", *to("b.json")]
    yield "hamilton", ["hamilton", "--catalog", "cube"]
    yield "verify-pretty", ["verify", "--catalog", "prism:6", "--pretty"]
    yield "catalog-file", ["catalog", "prism:8", *to("c.json")]
    yield "compare", ["compare", "catalog:cube", "catalog:cube"]
    yield "catalog", ["catalog"]
    yield "analyze-pretty-file", ["analyze", "--catalog", "cube", "--pretty", *to("d.json")]
    yield "verify", ["verify", "--catalog", "cube"]


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_interleaved_calls_equal_fresh_processes(tmp_path, capsys):
    """--pretty and --output of one in-process call leak into no later call."""
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()
    seen = {}
    for name, argv in _interleaved(inproc):
        code = main(argv)
        captured = capsys.readouterr()
        seen[name] = (code, captured.out.encode(), captured.err.encode())
    for name, argv in _interleaved(fresh):
        proc = _fresh_process(argv, tmp_path)
        assert seen[name] == (proc.returncode, proc.stdout, proc.stderr), name
    assert all(code == 0 for code, _, _ in seen.values())
    assert _outputs(inproc) == _outputs(fresh)
    assert sorted(_outputs(inproc)) == ["a.json", "b.json", "c.json", "d.json"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--catalog", "cube", "--bogus"],
    ["verify", "--pretty", "--pretty=yes"],
    [],
    ["frobnicate"],
])
def test_argument_errors_leave_the_parser_as_it_was(argv, capsys):
    valid = ["analyze", "--catalog", "cube", "--pretty"]
    expected = run(capsys, valid)
    assert expected[0] == 0
    with pytest.raises(SystemExit) as fresh_exit:
        build_parser().parse_args(argv)
    usage = capsys.readouterr().err
    assert fresh_exit.value.code == 2 and usage.startswith("usage: galehull")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert (captured.out, captured.err) == ("", usage)
        assert run(capsys, valid) == expected


def test_help_follows_columns_after_the_first_build(monkeypatch, capsys):
    run(capsys, ["catalog"])  # the first call may build the shared parser
    helps = []
    for columns in ("50", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
        assert helps[-1] == build_parser().format_help()
    assert helps[0] != helps[1]
