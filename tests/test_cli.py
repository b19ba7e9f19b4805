from __future__ import annotations

import json

import pytest

from galehull import catalog
from galehull.cli import main

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

def test_compare_no_oracle(capsys):
    code, out = run(capsys, ["compare", "catalog:cube", "catalog:cube", "--no-oracle"])
    doc = json.loads(out)
    assert doc["equivalentByTheorem"] is True
    assert doc["equivalentByOracle"] == "skipped"

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
