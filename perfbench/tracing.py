"""The traced run: the workload's real CLI requests, with spans.

instrument() wraps, for the length of one job, the public functions the
CLI calls (through the module attribute it calls them by) in spans, and
restores them afterwards; the library itself is not changed.  Each
`cli.run` call is a request span, and the wrapped calls inside it are
its layer spans.  Spans are kept in memory and written out at the end.

Per-layer metrics are sums over the spans, counts derived from what the
wrapped calls returned, and micro-timings of the exact-number, geometry
and quadrature kernels on operands drawn from the workload's outputs.
Span times are wall seconds; they include the speed samples of the job's
clock (speed.py), about 1% of the job.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import random
import statistics
import time
from collections import defaultdict

from packinglab import catalog, cli, coxeter, geometry, lobachevsky
from packinglab.exactnum import QNum

# (span name, module, attribute, keep): the calls that are traced.  With
# keep, the call's arguments and result are kept for the metrics.
TARGETS = (
    ("cli.run", cli, "run", False),
    ("catalog.get_builtin", catalog, "get_builtin", False),
    ("catalog.validate", catalog, "validate", False),
    ("geometry.gram", geometry, "gram", True),
    ("coxeter.diagram", coxeter, "diagram", False),
    ("coxeter.enumerate_clusters", coxeter, "enumerate_clusters", False),
    ("coxeter.validate_cluster", coxeter, "validate_cluster", False),
    ("orbit.generate_packing", cli, "generate_packing", True),
    ("orbit.export_tsv", cli, "export_tsv", True),
    ("orbit.parse_tsv", cli, "parse_tsv", False),
    ("orbit.verify_empty_interior", cli, "verify_empty_interior", True),
    ("render.render_svg", cli, "render_svg", True),
    ("integrality.prove_integral", cli, "prove_integral", False),
    ("integrality.check_bounded_rational", cli, "check_bounded_rational", False),
    ("integrality.prove_nonintegral", cli, "prove_nonintegral", False),
    ("integrality.growth_probe", cli, "denominator_growth_probe", False),
    ("lobachevsky.lob", lobachevsky, "lobachevsky", False),
    ("lobachevsky.lob", lobachevsky, "lobachevsky_quadrature", False),
    ("lobachevsky.lob", lobachevsky, "lobachevsky_asymptotic", False),
)

# Span names that give a "<name>_s" metric.
LAYER_SPANS = tuple(dict.fromkeys(name for name, *_ in TARGETS if name != "cli.run"))

MICRO_OPERANDS = 256
MICRO_REPEATS = 5


class Tracer:
    """Spans in memory: name, start, end, parent span and error."""

    def __init__(self):
        self.spans = []
        self.kept = defaultdict(list)  # span name -> [(args, result)]
        self._open = []

    def wrap(self, name, fn, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "error": None,
            }
            self.spans.append(rec)
            self._open.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                rec["error"] = "%s: %s" % (type(e).__name__, e)
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
            if keep:
                self.kept[name].append((args, result))
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer):
    saved = []
    try:
        for name, module, attr, keep in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, keep))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def orbit_work(orbit, mirrors):
    """(candidates, parent-mirror candidates) of a packing orbit, derived
    from the returned circles alone.

    Every circle of a generation below the limit was expanded: one
    candidate per mirror that is not +-the circle.  For a circle of
    generation >= 1, one of those candidates is its parent again (the
    reflection in the mirror that made it).
    """
    negated = [tuple(-x for x in m) for m in mirrors]
    candidates = parents = 0
    for c in orbit.circles:
        if c.generation >= orbit.limits.max_generation:
            continue
        v = c.vector
        candidates += sum(1 for m, n in zip(mirrors, negated) if m != v and n != v)
        if c.generation >= 1:
            parents += 1
    return candidates, parents


def layer_metrics(tracer, job_s, traced_s):
    """Per-layer metrics of a traced job (set-up metrics excluded).

    job_s and traced_s are the normalised seconds of the untraced and
    the traced job; their difference is the tracing overhead.

    A span nested in a span of the same name (lobachevsky() calls the
    asymptotic expansion) is not counted twice.  cli.overhead_s is the
    time in requests outside their direct layer spans: argument parsing,
    formatting and writing the output.
    """
    spans = tracer.spans
    by_name = defaultdict(float)
    request_s = layer_s = 0.0
    for s in spans:
        d = s["end"] - s["start"]
        parent = None if s["parent"] is None else spans[s["parent"]]
        if s["name"] == "cli.run":
            request_s += d
        elif parent is not None and parent["name"] == "cli.run":
            layer_s += d
        if parent is None or parent["name"] != s["name"]:
            by_name[s["name"]] += d
    kept = tracer.kept
    circles = candidates = parents = new = 0
    for (_, cocluster, *_), orbit in kept["orbit.generate_packing"]:
        c, p = orbit_work(orbit, cocluster)
        circles += len(orbit.circles)
        candidates += c
        parents += p
        new += sum(1 for x in orbit.circles if x.generation > 0)
    reports = [(args[1], report) for args, report in kept["orbit.verify_empty_interior"]]
    samples = sum(n for n, _ in reports)
    svgs = [svg for _, svg in kept["render.render_svg"]]
    m = {name + "_s": by_name[name] for name in LAYER_SPANS}
    m.update({
        "cli.overhead_s": request_s - layer_s,
        "catalog.get_builtin_calls": sum(1 for s in spans if s["name"] == "catalog.get_builtin"),
        "orbit.circles": circles,
        "orbit.candidates": candidates,
        "orbit.parent_mirror_candidates": parents,
        "orbit.new_ratio": new / candidates if candidates else 0.0,
        "orbit.tsv_bytes": sum(len(t.encode("utf-8")) for _, t in kept["orbit.export_tsv"]),
        "orbit.exact_check_ratio": (
            sum(r.exact_checks for _, r in reports) / samples if samples else 0.0
        ),
        "render.svg_bytes": sum(len(svg.encode("utf-8")) for svg in svgs),
        "render.elements": sum(
            svg.count(tag) for svg in svgs for tag in ("<circle ", "<line ", "<text ")
        ),
        "trace.job_s": job_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - job_s,
    })
    return m


# -- micro-timings ----------------------------------------------------


def per_op_us(fn, args):
    """Median over repeats of the time per call, in microseconds."""
    runs = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter_ns()
        for a in args:
            fn(*a)
        runs.append(time.perf_counter_ns() - start)
    return statistics.median(runs) / len(args) / 1000


def _reflect_pairs(rng, vectors, entry_id):
    """Pairs of (vector, mirror): orbit vectors when the workload made
    some of this dimension, else the entry's walls, against its walls."""
    rows = catalog.get_builtin(entry_id).configuration.rows
    vectors = vectors or rows
    return [(rng.choice(vectors), rng.choice(rows)) for _ in range(MICRO_OPERANDS)]


def micro_timings(tracer, seed):
    rng = random.Random(seed)
    by_dim = defaultdict(list)
    for _, orbit in tracer.kept["orbit.generate_packing"]:
        for c in orbit.circles:
            by_dim[len(c.vector) - 2].append(c.vector)
    values = [x for _, g in tracer.kept["geometry.gram"] for row in g for x in row]
    values.extend(x for vectors in by_dim.values() for v in vectors for x in v)
    values = [x for x in values if x] or [QNum(1)]
    sample = [rng.choice(values) for _ in range(MICRO_OPERANDS)]
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(MICRO_OPERANDS)]
    thetas = [(rng.uniform(0.05, 3.0),) for _ in range(32)]
    return {
        "exactnum.mul_us": per_op_us(operator.mul, pairs),
        "exactnum.add_us": per_op_us(operator.add, pairs),
        "exactnum.sign_us": per_op_us(QNum.sign, [(x,) for x in sample]),
        "exactnum.inverse_us": per_op_us(QNum.inverse, [(x,) for x in sample]),
        "exactnum.str_us": per_op_us(str, [(x,) for x in sample]),
        "exactnum.parse_us": per_op_us(QNum, [(str(x),) for x in sample]),
        "geometry.reflect_us.n2": per_op_us(
            geometry.reflect, _reflect_pairs(rng, by_dim.get(2), "bi10-example")
        ),
        "geometry.reflect_us.n12": per_op_us(
            geometry.reflect, _reflect_pairs(rng, by_dim.get(12), "d3n13")
        ),
        "lobachevsky.quadrature_us": per_op_us(lobachevsky.lobachevsky_quadrature, thetas),
    }
