"""Spans around the calls that cross galehull's module boundaries.

Each galehull module calls into another through a name it imported, so
rebinding that name in the calling module's namespace puts a wrapper on
exactly the cross-module calls the pipeline makes, in the order it makes
them, without changing the program's files. Three calls inside a module
are stages of their own and are wrapped the same way: verify_polytope's
calls of analyze_polytope and type_one_checks, and verify_pyramid_structure's
second oracle_lattice. Other calls inside one module are not wrapped;
linalg is reached only from inside gale and oracle, so it shows only
through the counts below.

A wrapper records a span (name, start, end, parent span, instance) and,
for some layers, counts derived from the call's arguments and result.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb


def _enumerate_counts(args, result) -> dict:
    diagram = args[1]
    return {
        "gale.faces_graded": len(result.faces),
        "gale.subsets_scanned": 2 ** len(diagram.points),
        # every nonempty set of distinct Gale points is some complement's
        # support, and each support costs one relint test
        "gale.relint_supports": 2 ** len(set(diagram.points)) - 1,
    }


def _oracle_counts(args, result) -> dict:
    facets = sum(1 for d in result.faces.values() if d == result.dim - 1)
    return {
        "oracle.hyperplane_subsets": comb(len(args[0]), result.dim),
        "oracle.facets": facets,
        # the intersection closure holds every face but the polytope itself
        "oracle.closure_size": len(result.faces) - 1,
    }


def _model_counts(args, result) -> dict:
    return {"reference.model_faces": len(result.faces)}


# (module, imported name) -> (span name, counts from (args, result))
BOUNDARIES = {
    ("cli", "validate"): ("polytopes.validate", None),
    ("cli", "analyze_polytope"): ("pipeline.analyze_polytope", None),
    ("cli", "verify_polytope"): ("pipeline.verify_polytope", None),
    ("cli", "equivalence_witness"): ("equivalence.equivalence_witness", None),
    ("pipeline", "three_color"): ("polytopes.three_color", None),
    ("pipeline", "incidence_system"): ("gale.incidence_system", None),
    ("pipeline", "gale_transform"): ("gale.gale_transform", None),
    ("pipeline", "classify"): ("gale.classify", None),
    ("pipeline", "enumerate_faces"): ("gale.enumerate_faces", _enumerate_counts),
    ("pipeline", "fvector"): ("gale.fvector", None),
    ("pipeline", "simpliciality_check"): ("gale.simpliciality_check", None),
    ("pipeline", "neighborliness"): ("gale.neighborliness", None),
    ("pipeline", "analyze_polytope"): ("pipeline.analyze_polytope", None),
    ("pipeline", "type_one_checks"): ("pipeline.type_one_checks", None),
    ("pipeline", "oracle_lattice"): ("oracle.oracle_lattice", _oracle_counts),
    ("pipeline", "verify_pyramid_structure"): ("oracle.verify_pyramid_structure", None),
    ("pipeline", "beyond_facets"): ("oracle.beyond_facets", None),
    ("pipeline", "cyclic_facets"): ("reference.cyclic_facets", None),
    ("pipeline", "pyramid"): ("reference.pyramid", _model_counts),
    ("pipeline", "tkn_model"): ("reference.tkn_model", _model_counts),
    ("pipeline", "type4_model"): ("reference.type4_model", _model_counts),
    ("pipeline", "lattice_isomorphic"): ("reference.lattice_isomorphic", None),
    ("oracle", "gale_transform"): ("gale.gale_transform", None),
    ("oracle", "oracle_lattice"): ("oracle.oracle_lattice", _oracle_counts),
    ("equivalence", "oracle_lattice"): ("oracle.oracle_lattice", _oracle_counts),
    ("equivalence", "lattice_isomorphic"): ("reference.lattice_isomorphic", None),
}

LAYERS = ("cli", "pipeline", "polytopes", "gale", "oracle", "reference", "equivalence")


@dataclass
class Span:
    id: int
    parent: int          # 0 for the root span of an instance call
    name: str
    instance: str
    start: float
    end: float = 0.0
    error: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `installed()` wraps the boundaries for one block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._instance = ""

    @contextmanager
    def span(self, name: str, instance: str = ""):
        if instance:
            self._instance = instance
        parent = self._stack[-1].id if self._stack else 0
        s = Span(len(self.spans) + 1, parent, name, self._instance, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counter is not None:
                    s.counts = counter(args, result)
                return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary in BOUNDARIES that the program still has,
        restoring them on exit."""
        saved = []
        try:
            for (module, attr), (name, counter) in BOUNDARIES.items():
                mod = importlib.import_module(f"galehull.{module}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-span-name self time: duration minus the time of its children."""
    child_time: dict[int, float] = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out
