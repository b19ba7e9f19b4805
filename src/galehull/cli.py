"""Command-line interface.

Subcommands: analyze, verify, compare, hamilton, catalog. Inputs are JSON
documents {"faces": [[int, ...], ...]} or built-in catalog specs. All
reports are JSON with fixed key order, so identical inputs produce
byte-identical output. Exit codes: 0 success, 2 invalid input, 3 internal
cross-check failure (a bug indicator), 4 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Optional, Sequence

from .equivalence import equivalence_witness, equivalent
from .errors import BadInput, GalehullError, ResourceLimitError
from .gale import require_face_cap
from .pipeline import Analysis, summarize_polytope, verify_polytope
from .polytopes import (
    CATALOG_NAMES,
    PlanarPolytope,
    catalog,
    hamiltonian_cycle,
    require_catalog_cap,
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


def _parse_catalog_spec(spec: str, cap: Callable[[int], None]) -> PlanarPolytope:
    name, _, param = spec.partition(":")
    if param:
        try:
            parameter: Optional[int] = int(param)
        except ValueError:
            raise BadInput(f"catalog parameter {param!r} is not an integer")
    else:
        parameter = None
    if name == "prism" and parameter is not None:
        cap(parameter + 2)  # two k-gons and k squares
    return catalog(name, parameter)


def _validate_faces(faces, cap: Callable[[int], None]) -> PlanarPolytope:
    """The polytope of a parsed face list, refused by cap first from its
    face count and then from its vertex slots: a valid map of F faces has
    exactly 6(F - 2), so long faces cannot slip past the cap."""
    if isinstance(faces, list):
        cap(len(faces))
        slots = sum(len(face) for face in faces if isinstance(face, list))
        try:
            cap(-(-slots // 6) + 2)
        except ResourceLimitError as exc:
            raise type(exc)(
                f"{slots} vertex slots exceed the cap: a valid map of F faces has 6(F - 2)"
            ) from None
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
    r, g, colors = a.report, a.diagram, a.coloring.colors
    return {
        "dim": r.dim,
        "type": r.hull_type,
        "m": list(r.sizes),
        "k": str(r.k) if r.k is not None else None,
        "galeDiagram": [
            {
                "index": j,
                "color": colors[j],
                "point": [str(x) for x in g.points[j]],
                "normalized": list(g.normalized[j]),
            }
            for j in range(len(g.points))
        ],
        "fvector": list(r.fvector),
        "simplicial": r.simplicial,
        "neighborly": r.neighborly,
        "structure": r.structure,
    }


def _analysis_report(a: Analysis) -> dict:
    return {"polytope": _polytope_report(a), "hull": _hull_report(a)}


def cmd_analyze(args) -> dict:
    return _analysis_report(summarize_polytope(_resolve_input(args, require_face_cap)))


def cmd_verify(args) -> dict:
    v = verify_polytope(_resolve_input(args, require_face_cap))
    model = v.analysis.report
    report = _analysis_report(v.analysis)
    report["verify"] = {
        "facesMatchOracle": True,
        "oracleFaceCount": len(v.oracle.faces),
        "simplicialAgrees": True,
        "pyramid": v.pyramid_report,
        # verify raises on a type IV hull whose neighborliness is not m2 - 1
        "neighborlinessMatches": True if model.hull_type == "IV" else None,
        "typeOne": v.type_one_report,
        "reference": model.structure,
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
    mapping = equivalence_witness(aa, ab)
    return {
        "equivalentByTheorem": equivalent(aa.report, ab.report),
        "equivalentByOracle": mapping is not None,
        "witnessBijection": [[i, j] for i, j in sorted(mapping.items())] if mapping else None,
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
    p = _parse_catalog_spec(args.name, require_catalog_cap)
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
    sub.add_argument("--pretty", action="store_true", help="indented JSON")


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


_shared_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code. Every call parses with
    one parser per process, built on the first call: the first build binds
    the cmd_* functions, but the module globals they call (validate,
    catalog, verify_polytope, ...) are still looked up at call time, so
    patching those takes effect on the next call. build_parser() itself
    returns a fresh parser each time, so no caller can change this one."""
    args = _shared_parser().parse_args(argv)
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
