"""Benchmark of the galehull CLI, driven in-process.

    python3 perfbench/run.py --workload analyze-mid --seed 1 --seconds 40 --trace 0

One process, one closed-loop client, no threads: each call to
galehull.cli.main([...]) starts only after the previous one returned and
its report was checked. The seed drives the instance generator; the
program sees only the JSON files written in set-up.

The timed loop runs the workload's calls in order, pass after pass, and
stops before a call that would end after --seconds. Every call runs at
least once.

Host speed. The host is shared, and its speed swings by a third for
seconds at a time. The loop therefore brackets every call with a fixed
probe that does not use galehull, sized to PROBE_SHARE of the call's
expected time, and scales the call's wall time by PROBE_S / (mean of the
two probes). A time reported here is that scaled wall time: what the call
would take on a host that runs the probe in PROBE_S. Per call the
benchmark keeps the median of the scaled times, so `wall_s` is the time
of one pass and `max_call_s` that of the slowest instance. The raw times
and the probes are written to .perfbench_out/ with each run.

Every report is checked against the closed form of perfbench/expect.py
and digested; a digest that differs from an earlier pass, or from an
earlier run on the same sources, command and input, fails the call.

--trace 1 alternates an untraced and a traced run of each call and
reports the per-layer metrics from the spans of perfbench/spans.py,
which it writes to .perfbench_out/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
PROBE_S = 0.028     # one probe unit on a quiet 2-vCPU Xeon, Python 3.11
PROBE_SHARE = 0.04  # probe time before and after a call, as a share of it


# --- set-up -------------------------------------------------------------------

def _import_galehull():
    """A fresh import of galehull from this checkout's src/."""
    for name in [m for m in sys.modules if m == "galehull" or m.startswith("galehull.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    galehull = importlib.import_module("galehull")
    importlib.import_module("galehull.cli")
    if Path(galehull.__file__).resolve().parent != SRC / "galehull":
        raise ImportError(f"galehull imported from {galehull.__file__}, not {SRC}")
    return galehull


def setup(workload: str, seed: int, work: Path):
    """Import galehull, generate the workload's instances and write them.

    Repeated SETUP_REPEATS times, each scaled by the probes around it;
    returns the median and the last repetition's calls and files.
    """
    times, probes = [], []
    for rep in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        galehull = _import_galehull()
        instances, calls = WORKLOADS[workload](random.Random(seed), galehull)
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        paths = {}
        for inst in instances:
            paths[inst.name] = rep_dir / f"{inst.name}.json"
            paths[inst.name].write_text(json.dumps({"faces": [list(f) for f in inst.faces]}))
        times.append(time.perf_counter() - t0)
        probes.append((before, probe()))
    scaled = [t * f for t, f in zip(times, host_factors(probes))]
    return statistics.median(scaled), calls, paths


# --- one call -----------------------------------------------------------------

@dataclass
class Outcome:
    step: int
    seconds: float
    status: str        # answered | refused | failed
    digest: str
    detail: str


def run_call(cli, call: Call, paths, out: Path, step: int, tracer=None) -> Outcome:
    argv = [call.command, *(str(paths[name]) for name in call.files), "--output", str(out)]
    out.unlink(missing_ok=True)
    gc.collect()
    detail = ""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.installed(), tracer.span("cli.main", instance=call.name):
                rc = cli.main(argv)
    except SystemExit as exc:       # argparse rejected the arguments
        rc, detail = exc.code, "argument error"
    except Exception as exc:        # any other escape is a failed call
        rc, detail = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0

    data = out.read_bytes() if out.exists() else b""
    digest = hashlib.sha256(data).hexdigest()[:16]

    def outcome(status, text=""):
        return Outcome(step, seconds, status, digest, text)

    if rc is None or detail:
        return outcome("failed", detail)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError:
        return outcome("failed", f"exit {rc}, report is not JSON")
    if rc == 4 and call.may_refuse and doc.get("error", {}).get("code") == "TooManyPoints":
        return outcome("refused")
    if rc != 0:
        return outcome("failed", f"exit {rc}: {doc.get('error')}")
    problems = call.check(doc)
    if problems:
        return outcome("failed", "; ".join(problems[:3]))
    return outcome("answered")


# --- the timed loop -------------------------------------------------------------

def probe(units: int = 1) -> float:
    """Seconds per unit of fixed pure-Python work that does not use
    galehull: an exact rational elimination and a dict of frozensets, the
    two kinds of work galehull's hot loops do."""
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(units):
        _probe_unit()
    return (time.perf_counter() - t0) / units


def _probe_unit() -> None:
    rows = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 5) for j in range(14)]
            for i in range(13)]
    for c in range(13):
        piv = next((r for r in range(c, 13) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(13):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    faces = {}
    for m in range(1 << 13):
        faces[frozenset(j for j in range(13) if m >> j & 1)] = m.bit_count()


def closed_loop(n_calls: int, seconds: float, step) -> list[tuple[float, float]]:
    """Run step(call index, step number) -> seconds over the calls, pass
    after pass. Every call runs once; after that the loop stops before a
    call whose median time so far would end after the budget.

    Each step is bracketed by two probes sized to PROBE_SHARE of the
    call's expected time, so that they see the host's load over a span
    comparable to the call's. Returns the (before, after) probes per step.
    """
    deadline = time.perf_counter() + seconds
    taken: list[list[float]] = [[] for _ in range(n_calls)]
    probes = []
    done = 0
    while done < n_calls or (
        time.perf_counter() + statistics.median(taken[done % n_calls]) <= deadline
    ):
        i = done % n_calls
        guess = statistics.median(taken[i]) if taken[i] else PROBE_S
        units = max(1, round(PROBE_SHARE * guess / PROBE_S))
        before = probe(units)
        taken[i].append(step(i, done))
        probes.append((before, probe(units)))
        done += 1
    return probes


def host_factors(probes: list[tuple[float, float]]) -> list[float]:
    """Per step, PROBE_S over the mean of the probes around it."""
    return [2 * PROBE_S / (before + after) for before, after in probes]


class Results:
    """Outcomes per call, digest checks, and the persisted digests."""

    def __init__(self, calls, keys):
        self.calls = calls
        self.keys = keys       # per call: digest of the sources, command and input
        self.outcomes: dict[int, list[Outcome]] = {i: [] for i in range(len(calls))}
        self.failures: list[str] = []
        self.known = _load_digests()

    def add(self, i: int, o: Outcome) -> None:
        call = self.calls[i]
        first = self.outcomes[i][0].digest if self.outcomes[i] else self.known.get(self.keys[i])
        if o.status != "failed" and first is not None and o.digest != first:
            o.status, o.detail = "failed", f"report digest {o.digest} != {first}"
        self.outcomes[i].append(o)
        if o.status == "failed":
            self.failures.append(f"{call.name}: {o.detail}")

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(o.status == "failed" for v in self.outcomes.values() for o in v)

    def call_time(self, i: int, factors: list[float]) -> float:
        """Median host-scaled time of call i."""
        return statistics.median(o.seconds * factors[o.step] for o in self.outcomes[i])

    def pass_time(self, factors: list[float]) -> float:
        return sum(self.call_time(i, factors) for i in self.outcomes)

    def save_digests(self) -> None:
        if self.failed:
            return
        known = _load_digests()
        known.update({self.keys[i]: v[0].digest for i, v in self.outcomes.items()})
        OUT.mkdir(exist_ok=True)
        (OUT / "digests.json").write_text(json.dumps(known, indent=1, sort_keys=True))

    def save(self, path: Path, probes: list[tuple[float, float]]) -> None:
        path.write_text(json.dumps({
            "probes": probes,
            "calls": {
                c.name: [[o.step, o.seconds, o.status, o.digest] for o in self.outcomes[i]]
                for i, c in enumerate(self.calls)
            },
        }, indent=1))


def _load_digests() -> dict:
    try:
        return json.loads((OUT / "digests.json").read_text())
    except FileNotFoundError:
        return {}


def _call_keys(calls, paths) -> list[str]:
    """Per call, a digest of galehull's sources, the command and its input:
    the same key must always give the same report."""
    code = hashlib.sha256()
    for path in sorted((SRC / "galehull").glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    keys = []
    for call in calls:
        h = code.copy()
        h.update(call.command.encode())
        for name in call.files:
            h.update(b"\0" + paths[name].read_bytes())
        keys.append(h.hexdigest()[:24])
    return keys


def timed_run(cli, calls, paths, work, seconds, results: Results) -> list[tuple[float, float]]:
    out = work / "report.json"

    def step(i, number):
        o = run_call(cli, calls[i], paths, out, number)
        results.add(i, o)
        return o.seconds

    return closed_loop(len(calls), seconds, step)


def traced_run(cli, calls, paths, work, seconds, traced: Results, untraced: Results):
    """Each step runs the call untraced and traced, alternating which goes
    first, so both see the same host state. Returns the tracer, the span
    index range of every traced run per call, and the probes."""
    out = work / "report.json"
    tracer = spans.Tracer()
    rounds: dict[int, list[tuple[int, int, int]]] = {}

    def step(i, number):
        took = 0.0
        for with_spans in ((False, True) if number % 2 == 0 else (True, False)):
            if with_spans:
                start = len(tracer.spans)
                o = run_call(cli, calls[i], paths, out, number, tracer)
                rounds.setdefault(i, []).append((start, len(tracer.spans), number))
                traced.add(i, o)
            else:
                o = run_call(cli, calls[i], paths, out, number)
                untraced.add(i, o)
            took += o.seconds
        return took

    probes = closed_loop(len(calls), seconds, step)
    return tracer, rounds, probes


# --- metrics --------------------------------------------------------------------

def end_to_end(setup_s: float, results: Results, factors) -> dict:
    times = [results.call_time(i, factors) for i in range(len(results.calls))]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "max_call_s": (max(times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


# metric -> the span names whose inclusive time it sums
TIMED_SPANS = {
    "cli.main_s": ("cli.main",),
    "pipeline.analyze_polytope_s": ("pipeline.analyze_polytope",),
    "pipeline.verify_polytope_s": ("pipeline.verify_polytope",),
    "pipeline.type_one_checks_s": ("pipeline.type_one_checks",),
    "polytopes.validate_s": ("polytopes.validate",),
    "polytopes.three_color_s": ("polytopes.three_color",),
    "gale.incidence_system_s": ("gale.incidence_system",),
    "gale.gale_transform_s": ("gale.gale_transform",),
    "gale.classify_s": ("gale.classify",),
    "gale.enumerate_faces_s": ("gale.enumerate_faces",),
    "gale.post_s": ("gale.fvector", "gale.simpliciality_check", "gale.neighborliness"),
    "oracle.oracle_lattice_s": ("oracle.oracle_lattice",),
    "oracle.verify_pyramid_structure_s": ("oracle.verify_pyramid_structure",),
    "oracle.beyond_facets_s": ("oracle.beyond_facets",),
    "reference.model_s": ("reference.cyclic_facets", "reference.pyramid",
                          "reference.tkn_model", "reference.type4_model"),
    "reference.lattice_isomorphic_s": ("reference.lattice_isomorphic",),
    "equivalence.equivalence_witness_s": ("equivalence.equivalence_witness",),
}

COUNTS = (
    "gale.faces_graded", "gale.subsets_scanned", "gale.relint_supports",
    "oracle.hyperplane_subsets", "oracle.facets", "oracle.closure_size",
    "reference.model_faces",
)


def _span_row(group, command: str, factor: float) -> dict[str, float]:
    """Host-scaled span times of one traced call, by metric name."""
    inclusive: dict[str, float] = {}
    for s in group:
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
    row = {m: sum(inclusive.get(n, 0.0) for n in names) for m, names in TIMED_SPANS.items()}
    row[f"cli.{command}_s"] = inclusive.get("cli.main", 0.0)
    for name, t in spans.self_times(group).items():
        key = "cli.overhead_s" if name == "cli.main" else f"{name.split('.', 1)[0]}.self_s"
        row[key] = row.get(key, 0.0) + t
    return {k: v * factor for k, v in row.items()}


def per_layer(calls, tracer, rounds, factors, traced: Results, untraced: Results) -> dict:
    """Per call, the median over its traced runs of each span metric; the
    metrics sum those medians over the calls, like wall_s. Counts come from
    one traced run per call."""
    totals = dict.fromkeys(TIMED_SPANS, 0.0)
    for name in ("cli.analyze_s", "cli.verify_s", "cli.compare_s", "cli.overhead_s"):
        totals[name] = 0.0
    for layer in spans.LAYERS[1:]:
        totals[f"{layer}.self_s"] = 0.0
    counts = dict.fromkeys(COUNTS, 0)
    for i, call in enumerate(calls):
        rows = [
            _span_row(tracer.spans[start:end], call.command, factors[number])
            for start, end, number in rounds[i]
        ]
        for key in totals:
            totals[key] += statistics.median(r.get(key, 0.0) for r in rows)
        start, end, _ = rounds[i][0]
        for s in tracer.spans[start:end]:
            for key, value in s.counts.items():
                counts[key] += value

    out = {k: (v, "s") for k, v in totals.items()}
    out.update({k: (v, "count") for k, v in counts.items()})
    subsets, hyper = counts["gale.subsets_scanned"], counts["oracle.hyperplane_subsets"]
    out["gale.face_yield"] = (counts["gale.faces_graded"] / subsets if subsets else 0.0, "ratio")
    out["oracle.facet_yield"] = (counts["oracle.facets"] / hyper if hyper else 0.0, "ratio")
    out["trace.overhead_s"] = (traced.pass_time(factors) - untraced.pass_time(factors), "s")
    out["trace.spans"] = (sum(e - s for s, e, _ in (r[0] for r in rounds.values())), "count")
    return out


def _write_spans(tracer, path: Path) -> None:
    path.write_text(json.dumps([
        {"id": s.id, "parent": s.parent, "name": s.name, "instance": s.instance,
         "start": s.start, "end": s.end, "error": s.error, "counts": s.counts}
        for s in tracer.spans
    ]))


# --- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "galehull" / "__init__.py").is_file():
        print(f"perfbench: no galehull sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{time.time_ns()}"
    try:
        setup_s, calls, paths = setup(args.workload, args.seed, work)
        cli = sys.modules["galehull.cli"]
        keys = _call_keys(calls, paths)
        results = Results(calls, keys)
        if args.trace:
            untraced = Results(calls, keys)
            tracer, rounds, probes = traced_run(
                cli, calls, paths, work, args.seconds, results, untraced)
            factors = host_factors(probes)
            metrics = per_layer(calls, tracer, rounds, factors, results, untraced)
            _write_spans(tracer, OUT / f"spans-{tag}.json")
            results.failures += untraced.failures
            attempted = results.attempted + untraced.attempted
            failed = results.failed + untraced.failed
        else:
            probes = timed_run(cli, calls, paths, work, args.seconds, results)
            factors = host_factors(probes)
            metrics = end_to_end(setup_s, results, factors)
            attempted, failed = results.attempted, results.failed
            results.save_digests()
        results.save(OUT / f"calls-{tag}.json", probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit = statistics.median(x for pair in probes for x in pair)
    print(f"probe unit median {unit * 1e3:.1f} ms (nominal {PROBE_S * 1e3:.1f})")
    for i, call in enumerate(calls):
        outs = results.outcomes[i]
        raw = statistics.median(o.seconds for o in outs)
        statuses = "/".join(sorted({o.status for o in outs}))
        print(f"{call.name:34s} runs={len(outs):3d} raw={raw:8.4f}s "
              f"scaled={results.call_time(i, factors):8.4f}s {statuses:9s} "
              f"digest={outs[0].digest}")
    for line in results.failures[:20]:
        print(f"FAILED {line}")
    answered = sum(o.status == "answered" for v in results.outcomes.values() for o in v)
    print(f"answered {answered} of {results.attempted} calls")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
