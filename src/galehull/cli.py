"""Command-line interface.

Subcommands: analyze, verify, compare, hamilton, catalog. Inputs are JSON
documents {"faces": [[int, ...], ...]} or built-in catalog specs. All
reports are JSON with fixed key order, so identical inputs produce
byte-identical output. Exit codes: 0 success, 2 invalid input, 3 internal
cross-check failure (a bug indicator), 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

from .equivalence import equivalence_witness, equivalent
from .errors import BadInput, GalehullError
from .gale import require_face_cap
from .pipeline import Analysis, summarize_polytope, verify_polytope
from .polytopes import (
    CATALOG_NAMES,
    PlanarPolytope,
    catalog,
    hamiltonian_cycle,
    require_hamilton_cap,
    validate,
)


def _load_faces(path: str) -> list[list[int]]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise BadInput(f"no such file: {path}")
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path} is not UTF-8 text: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise BadInput(f"{path} nests too deeply to parse")
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise BadInput(f"{path} cannot be parsed: {exc}")
    if not isinstance(doc, dict) or "faces" not in doc:
        raise BadInput(f'{path} must be a JSON object with a "faces" key')
    return doc["faces"]


def _parse_catalog_spec(spec: str, cap: Optional[Callable[[int], None]] = None) -> PlanarPolytope:
    name, _, param = spec.partition(":")
    if param:
        try:
            parameter: Optional[int] = int(param)
        except ValueError:
            raise BadInput(f"catalog parameter {param!r} is not an integer")
    else:
        parameter = None
    if cap is not None and name == "prism" and parameter is not None:
        cap(parameter + 2)  # two k-gons and k squares
    return catalog(name, parameter)


def _validate_faces(faces, cap: Callable[[int], None]) -> PlanarPolytope:
    if isinstance(faces, list):
        cap(len(faces))
    return validate(faces)


def _resolve_input(args, cap: Callable[[int], None]) -> PlanarPolytope:
    """The input polytope of args, refused by cap from its face count before
    anything is built or validated, even when it is malformed."""
    if getattr(args, "catalog", None):
        if args.input:
            raise BadInput("give either a file or --catalog, not both")
        return _parse_catalog_spec(args.catalog, cap)
    if not args.input:
        raise BadInput("missing input: give a JSON file or --catalog name[:param]")
    return _validate_faces(_load_faces(args.input), cap)


def _resolve_spec(spec: str) -> PlanarPolytope:
    """A compare operand: either catalog:name[:param] or a JSON file path."""
    if spec.startswith("catalog:"):
        return _parse_catalog_spec(spec[len("catalog:"):], require_face_cap)
    return _validate_faces(_load_faces(spec), require_face_cap)


def _polytope_report(a: Analysis) -> dict:
    p, c = a.polytope, a.coloring
    return {
        "n": p.n,
        "fvector": list(p.fvector),
        "colors": list(c.colors),
        "classSizes": list(c.class_sizes),
        "essentialColorings": c.essential_colorings,
    }


def _hull_report(a: Analysis) -> dict:
    r, g = a.report, a.diagram
    return {
        "dim": r.dim,
        "type": r.hull_type,
        "m": list(r.sorted_sizes),
        "k": str(r.k) if r.k is not None else None,
        "galeDiagram": [
            {
                "index": j,
                "color": g.colors[j],
                "point": [str(x) for x in g.points[j]],
                "normalized": list(g.normalized[j]),
            }
            for j in range(len(g.points))
        ],
        "fvector": list(a.hull_fvector),
        "simplicial": a.simplicial,
        "neighborly": a.neighborly,
        "structure": r.structure,
    }


def _analysis_report(a: Analysis) -> dict:
    return {"polytope": _polytope_report(a), "hull": _hull_report(a)}


def cmd_analyze(args) -> dict:
    return _analysis_report(summarize_polytope(_resolve_input(args, require_face_cap)))


def cmd_verify(args) -> dict:
    v = verify_polytope(_resolve_input(args, require_face_cap))
    report = _analysis_report(v.analysis)
    report["verify"] = {
        "facesMatchOracle": True,
        "oracleFaceCount": len(v.oracle.faces),
        "simplicialAgrees": True,
        "pyramid": v.pyramid_report,
        "neighborlinessMatches": v.neighborliness_matches,
        "typeOne": v.type_one_report,
        "reference": v.analysis.report.structure,
        "referenceIsomorphic": True,
        "witnessBijection": [
            [i, j] for i, j in sorted(v.reference_witness.items())
        ],
    }
    return report


def cmd_compare(args) -> dict:
    pa = _resolve_spec(args.inputA)
    pb = _resolve_spec(args.inputB)
    aa = summarize_polytope(pa)
    ab = summarize_polytope(pb)
    by_theorem = equivalent(aa.report, pa.fvector, ab.report, pb.fvector)
    if args.no_oracle:
        by_oracle: object = "skipped"
        witness = None
    else:
        mapping = equivalence_witness(aa.system, ab.system)
        by_oracle = mapping is not None
        witness = [[i, j] for i, j in sorted(mapping.items())] if mapping else None
    return {
        "equivalentByTheorem": by_theorem,
        "equivalentByOracle": by_oracle,
        "witnessBijection": witness,
    }


def cmd_hamilton(args) -> dict:
    # a cubic map of F faces has 2(F - 2) vertices
    p = _resolve_input(args, lambda faces: require_hamilton_cap(2 * (faces - 2)))
    cycle = hamiltonian_cycle(p)
    return {
        "n": p.n,
        "vertices": p.num_vertices,
        "hamiltonian": cycle is not None,
        "cycle": cycle if cycle is not None else "none",
    }


def cmd_catalog(args) -> dict:
    if not args.name:
        return {
            "names": list(CATALOG_NAMES),
            "parameters": {"prism": "even k >= 4, e.g. prism:6"},
        }
    p = _parse_catalog_spec(args.name)
    return {"faces": [list(f) for f in p.faces]}


def _error_origin(exc: BaseException) -> str:
    origin = "galehull"
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("galehull"):
            origin = mod
        tb = tb.tb_next
    return origin


def _error_report(exc: GalehullError) -> dict:
    return {
        "error": {"code": exc.code, "message": str(exc), "source": _error_origin(exc)}
    }


def _emit(doc: dict, args) -> None:
    if getattr(args, "pretty", False):
        text = json.dumps(doc, indent=2)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    if not getattr(args, "output", None):
        sys.stdout.write(text + "\n")
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise BadInput(f"cannot write {args.output}: {exc.strerror or exc}")


def _add_io_flags(sub) -> None:
    sub.add_argument("--output", help="write the JSON report to this path")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="compact JSON (default)")
    group.add_argument("--pretty", action="store_true", help="indented JSON")


def _add_input_args(sub) -> None:
    sub.add_argument("input", nargs="?", help="JSON file with {\"faces\": [...]}")
    sub.add_argument("--catalog", help="built-in instance, e.g. cube or prism:6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galehull",
        description="Exact combinatorial analysis of the convex hull of the "
        "face-vertex incidence vectors of a 3-face-colorable simple 3-polytope.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("analyze", help="classify the hull and count its faces")
    _add_input_args(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("verify", help="analyze plus all oracle cross-checks")
    _add_input_args(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("compare", help="combinatorial equivalence of two hulls")
    sub.add_argument("inputA", help="JSON file or catalog:name[:param]")
    sub.add_argument("inputB", help="JSON file or catalog:name[:param]")
    sub.add_argument("--no-oracle", action="store_true",
                     help="skip the oracle lattices and the witness check")
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_compare)

    sub = subs.add_parser("hamilton", help="search for a Hamiltonian cycle")
    _add_input_args(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_hamilton)

    sub = subs.add_parser("catalog", help="list built-ins or dump one as JSON")
    sub.add_argument("name", nargs="?", help="catalog spec, e.g. prism:8")
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args), 0
    except GalehullError as exc:
        doc, code = _error_report(exc), exc.exit_code
    try:
        _emit(doc, args)
    except BadInput as exc:
        args.output = None  # report the unwritable path on stdout instead
        _emit(_error_report(exc), args)
        return exc.exit_code
    return code


if __name__ == "__main__":
    raise SystemExit(main())
