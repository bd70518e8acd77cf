"""Per-layer spans and counters, recorded from outside the package.

The package binds layer functions with ``from .x import y``, so a function
is reachable under several module attributes. ``Tracer`` wraps each public
layer function once and installs the wrapper under every polyzeros module
attribute that holds the original; ``installed()`` puts the originals back
on exit, so untraced solves run the unmodified code.

Layer functions get a span (name, start, end, parent span, problem id)
plus attributes read off their result. The hot kernels ``evaluate``,
``pade_eval`` and ``halley_eval`` get a counter only, and so do
``iterate_test_nu`` (counted into its enclosing detect span) and
``polynomial_matrix``. Spans stay in memory; ``layer_metrics`` reduces
them when the run ends.
"""

import contextlib
import sys
import time
from collections import Counter

# Counter-only functions: module, function, counter name.
COUNTED = (
    ("poly", "evaluate", "poly.evaluate.calls"),
    ("poly", "pade_eval", "poly.pade_eval.calls"),
    ("poly", "halley_eval", "poly.halley_eval.calls"),
    ("matpoly", "polynomial_matrix", "matpoly.polynomial_matrix.calls"),
)


def _converged(args, trace):
    return {"iters": len(trace.rows), "converged": trace.status.value == "converged"}


def _scan(args, result):
    return {"samples": len(result.samples), "brackets": len(result.brackets),
            "seeds": len(result.seeds)}


def _aberth(args, result):
    return {"seeds": len(result.values), "low_confidence": result.low_confidence}


def _charpoly(args, result):
    return {"deficit": args[0].nominal_char_degree - result.degree}


def _diagonal(args, result):
    return {"seeds": len(result.values)}


def _detect(args, result):
    return {"winner_iters": len(result.probes[result.multiplicity].rows)}


def _evolve(args, result):
    return {"evolutions": len(result)}


def _disks(args, result):
    return {"disks": len(result), "separated": sum(d.separated for d in result)}


def _eigenvalue(args):
    return {"lam": complex(args[1])}


# Spanned functions: module, function, layer, reader of the result (called
# on return) and reader of the arguments (called on entry, so that it also
# describes calls that raise).
SPANNED = (
    ("explore", "scan_sign_changes", "explore.scan", _scan, None),
    ("explore", "companion_seed_all", "explore.aberth", _aberth, None),
    ("refine", "iterate_pade", "refine.pade", _converged, None),
    ("refine", "iterate_halley", "refine.halley", _converged, None),
    ("refine", "detect_multiplicity", "refine.detect", _detect, None),
    ("ecp", "build_ecp_list", "ecp.build", None, None),
    ("ecp", "evolve_until", "ecp.evolve", _evolve, None),
    ("ecp", "gershgorin_enclosures", "ecp.gershgorin", _disks, None),
    ("ecp", "rayleigh_iterate", "ecp.list_iterate", _converged, None),
    ("ecp", "reduced_pade_iterate", "ecp.list_iterate", _converged, None),
    ("matpoly", "characteristic_polynomial", "matpoly.charpoly", _charpoly,
     None),
    ("matpoly", "diagonal_seeds", "matpoly.diagonal_seeds", _diagonal, None),
    ("matpoly", "extract_eigenvectors", "matpoly.eigvec", None, _eigenvalue),
    ("matpoly", "left_eigenvectors", "matpoly.eigvec", None, None),
    ("pipeline", "run_pipeline", "pipeline.run", None, None),
)


class Span:
    __slots__ = ("layer", "problem", "parent", "outer", "start", "end",
                 "ok", "attrs")

    def __init__(self, layer, problem, parent, outer):
        self.layer = layer
        self.problem = problem
        self.parent = parent
        self.outer = outer
        self.ok = False
        self.attrs = {}

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


PACKAGE = "polyzeros"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.problem = None
        self._stack = []
        self._open = Counter()
        self._patches = []
        self._mark = (0, Counter())
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod, fn, counter in COUNTED:
            original = getattr(sys.modules[PACKAGE + "." + mod], fn)
            wrappers[id(original)] = (original, self._counter(counter, original))
        test_nu = sys.modules[PACKAGE + ".refine"].iterate_test_nu
        wrappers[id(test_nu)] = (test_nu, self._probe(test_nu))
        for mod, fn, layer, reader, arg_reader in SPANNED:
            original = getattr(sys.modules[PACKAGE + "." + mod], fn)
            wrappers[id(original)] = (
                original, self._span(layer, original, reader, arg_reader))
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value,
                                          wrappers[id(value)][1]))

    @contextlib.contextmanager
    def installed(self, problem):
        """Route every call into the package's layers through the tracer."""
        self.problem = problem
        self._mark = (len(self.spans), Counter(self.counts))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._stack.clear()
            self._open.clear()

    def discard(self):
        """Forget what the last installed() block recorded.

        A solve cut by the deadline stops at an arbitrary point, so its
        counts would change from run to run.
        """
        del self.spans[self._mark[0]:]
        self.counts.clear()
        self.counts.update(self._mark[1])

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _probe(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["refine.test_nu.calls"] += 1
            if self._stack:
                parent = self.spans[self._stack[-1]]
                if parent.layer == "refine.detect":
                    parent.attrs["probes"] = parent.attrs.get("probes", 0) + 1
                    parent.attrs["probe_iters"] = (
                        parent.attrs.get("probe_iters", 0) + len(result.rows))
            return result

        return wrapper

    def _span(self, layer, fn, reader, arg_reader):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, self.problem, parent, self._open[layer] == 0)
            if arg_reader is not None:
                span.attrs.update(arg_reader(args))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open[layer] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open[layer] -= 1
                self._stack.pop()
            span.ok = True
            if reader is not None:
                span.attrs.update(reader(args, result))
            return result

        return wrapper

    def record(self, layer, start, end):
        """Add a span measured by the caller (the report serialisation)."""
        span = Span(layer, self.problem, None, True)
        span.start, span.end, span.ok = start, end, True
        self.spans.append(span)


# name, unit: every per-layer metric, in report order.
LAYER_METRICS = (
    ("poly.evaluate.calls", "count"),
    ("poly.pade_eval.calls", "count"),
    ("poly.halley_eval.calls", "count"),
    ("explore.scan.ms", "ms"),
    ("explore.scan.samples", "count"),
    ("explore.scan.brackets", "count"),
    ("explore.scan.seed_yield", "frac"),
    ("explore.aberth.ms", "ms"),
    ("explore.aberth.calls", "count"),
    ("explore.aberth.low_confidence_frac", "frac"),
    ("refine.pade.ms", "ms"),
    ("refine.pade.iters", "count"),
    ("refine.pade.converged_frac", "frac"),
    ("refine.halley.ms", "ms"),
    ("refine.halley.iters", "count"),
    ("refine.halley.converged_frac", "frac"),
    ("refine.test_nu.calls", "count"),
    ("refine.detect.ms", "ms"),
    ("refine.detect.probes", "count"),
    ("refine.detect.probe_iters", "count"),
    ("refine.detect.wasted_iter_frac", "frac"),
    ("refine.detect.won_frac", "frac"),
    ("ecp.build.ms", "ms"),
    ("ecp.build.calls", "count"),
    ("ecp.evolutions", "count"),
    ("ecp.gershgorin.ms", "ms"),
    ("ecp.list_iterate.ms", "ms"),
    ("ecp.list_iterate.iters", "count"),
    ("ecp.list_iterate.converged_frac", "frac"),
    ("ecp.separated_frac", "frac"),
    ("matpoly.charpoly.ms", "ms"),
    ("matpoly.charpoly.degree_deficit", "count"),
    ("matpoly.diagonal_seeds.ms", "ms"),
    ("matpoly.eigvec.ms", "ms"),
    ("matpoly.eigvec.calls", "count"),
    ("matpoly.eigvec.pivot_retries", "count"),
    ("matpoly.polynomial_matrix.calls", "count"),
    ("pipeline.run.ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("pipeline.report.ms", "ms"),
    ("pipeline.errors", "count"),
    ("pipeline.seeds_lost_frac", "frac"),
    ("trace.overhead_ms_p50", "ms"),
)


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, solves, passes, seeds_used, errors, overhead_ms):
    """Reduce the recorded spans to the per-layer metrics.

    ``.ms`` values are mean milliseconds per traced solve; counts are
    totals over one pass of the workload's problems (every pass solves the
    same problems, so totals are divided by ``passes``); ``_frac`` values
    are ratios over the events named in README.md. ``seeds_used`` counts,
    over all kept traced solves, the seeds the reports cite for their roots
    ("all", and "explore" for scan-seeded problems) and the seeds handed in
    from outside ("external"); ``errors`` is the total length of their
    error lists.
    """
    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(span.layer, []).append(span)

    def spans(layer, outer_only=True):
        return [s for s in by_layer.get(layer, ()) if s.outer or not outer_only]

    def ms(layer):
        return sum(s.ms for s in spans(layer)) / solves

    def total(layer, key):
        return sum(s.attrs.get(key, 0) for s in spans(layer)) / passes

    def count(name):
        return tracer.counts[name] / passes

    def share(layer, key):
        done = [s for s in spans(layer) if s.ok]
        return _frac(sum(bool(s.attrs[key]) for s in done), len(done))

    runs = {i for i, s in enumerate(tracer.spans) if s.layer == "pipeline.run"}
    child_ms = sum(s.ms for s in tracer.spans if s.parent in runs)
    acquired = 0
    for s in tracer.spans:
        if s.parent in runs and s.ok and "seeds" in s.attrs:
            acquired += s.attrs["seeds"]
    acquired += seeds_used["external"]
    scan_seeds = sum(s.attrs.get("seeds", 0) for s in spans("explore.scan"))
    detect = spans("refine.detect")
    probe_iters = sum(s.attrs.get("probe_iters", 0) for s in detect)
    won_iters = sum(s.attrs.get("winner_iters", 0) for s in detect if s.ok)
    eigvec = [s for s in spans("matpoly.eigvec") if "lam" in s.attrs]
    retries = sum(a.problem == b.problem and a.attrs["lam"] == b.attrs["lam"]
                  for a, b in zip(eigvec, eigvec[1:]))
    disks = spans("ecp.gershgorin")
    values = {
        "poly.evaluate.calls": count("poly.evaluate.calls"),
        "poly.pade_eval.calls": count("poly.pade_eval.calls"),
        "poly.halley_eval.calls": count("poly.halley_eval.calls"),
        "explore.scan.ms": ms("explore.scan"),
        "explore.scan.samples": total("explore.scan", "samples"),
        "explore.scan.brackets": total("explore.scan", "brackets"),
        "explore.scan.seed_yield": _frac(seeds_used["explore"], scan_seeds),
        "explore.aberth.ms": ms("explore.aberth"),
        "explore.aberth.calls": len(spans("explore.aberth")) / passes,
        "explore.aberth.low_confidence_frac": share(
            "explore.aberth", "low_confidence"),
        "refine.pade.ms": ms("refine.pade"),
        "refine.pade.iters": total("refine.pade", "iters"),
        "refine.pade.converged_frac": share("refine.pade", "converged"),
        "refine.halley.ms": ms("refine.halley"),
        "refine.halley.iters": total("refine.halley", "iters"),
        "refine.halley.converged_frac": share("refine.halley", "converged"),
        "refine.test_nu.calls": count("refine.test_nu.calls"),
        "refine.detect.ms": ms("refine.detect"),
        "refine.detect.probes": total("refine.detect", "probes"),
        "refine.detect.probe_iters": probe_iters / passes,
        "refine.detect.wasted_iter_frac": _frac(probe_iters - won_iters,
                                                probe_iters),
        "refine.detect.won_frac": _frac(sum(s.ok for s in detect), len(detect)),
        "ecp.build.ms": ms("ecp.build"),
        "ecp.build.calls": len(spans("ecp.build", False)) / passes,
        "ecp.evolutions": total("ecp.evolve", "evolutions"),
        "ecp.gershgorin.ms": ms("ecp.gershgorin"),
        "ecp.list_iterate.ms": ms("ecp.list_iterate"),
        "ecp.list_iterate.iters": total("ecp.list_iterate", "iters"),
        "ecp.list_iterate.converged_frac": share("ecp.list_iterate",
                                                 "converged"),
        "ecp.separated_frac": _frac(
            sum(s.attrs.get("separated", 0) for s in disks),
            sum(s.attrs.get("disks", 0) for s in disks)),
        "matpoly.charpoly.ms": ms("matpoly.charpoly"),
        "matpoly.charpoly.degree_deficit": total("matpoly.charpoly", "deficit"),
        "matpoly.diagonal_seeds.ms": ms("matpoly.diagonal_seeds"),
        "matpoly.eigvec.ms": ms("matpoly.eigvec"),
        "matpoly.eigvec.calls": len(spans("matpoly.eigvec")) / passes,
        "matpoly.eigvec.pivot_retries": retries / passes,
        "matpoly.polynomial_matrix.calls": count(
            "matpoly.polynomial_matrix.calls"),
        "pipeline.run.ms": ms("pipeline.run"),
        "pipeline.self_ms": (ms("pipeline.run") - child_ms / solves),
        "pipeline.report.ms": ms("pipeline.report"),
        "pipeline.errors": errors / passes,
        "pipeline.seeds_lost_frac": 1.0 - _frac(seeds_used["all"], acquired)
        if acquired else 0.0,
        "trace.overhead_ms_p50": overhead_ms,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS}
