"""Time two trees of the package against each other in one process.

    python3 tools/ab_timing.py BASE CHANGE WORKLOAD[,WORKLOAD...] SEED[,SEED...] [REPS]
    python3 tools/ab_timing.py ../parent . multiple-roots,real-scan 301,4242 7

BASE and CHANGE are directories that each hold ``src/polyzeros``. Both
are imported, as the packages ``polyzeros_base`` and
``polyzeros_change``, and the problem lists come from this repository's
``perfbench/``. The first workload argument may be ``all``. BLAS runs on
one thread, as in the benchmark.

Every problem is solved REPS times (default 5) by each tree, the two
alternating: base first on even rounds, change first on odd ones. Each
solve gets a spec built fresh from the problem file, as ``polyzeros
solve`` parses one, so nothing a solve derives and keeps is reused. The
timed unit is the benchmark's own ``solve`` (``run_pipeline``,
``report_to_dict`` and ``json.dumps(indent=2, sort_keys=True)`` under its
per-problem deadline). The time spent in each of the pipeline's stages
``characteristic_polynomial`` (det F of a matrix problem solved on it),
``_linearisation_records`` (the eigenvalues of a matrix problem solved
on its linearisation, certified on F), ``_acquire_seeds``, ``_outcomes``
(every seed's refinement, detect's ``detect_clusters`` included),
``detect_clusters``, ``_ecp_phase`` (the
interpolation-list diagnostics) and ``_eigenvector_phase`` is also summed
per side, in one process for both trees; the benchmark's tracer spans
none of ``_outcomes``, ``detect_clusters``, ``_ecp_phase`` and
``_eigenvector_phase`` whole, nor the batched refinement calls.

Per workload the tool prints, for each side, the p50 and p90 over the
problems of each problem's median solve time, their total, the stage
totals per rep, how many report texts differ between the trees (each
problem's first solve), and how many of those reports differ in outcome:
a root that is not the same root (``refine.same_root`` on the problem's
polynomial), or a
multiplicity, iteration count, pass flag, eigenvector count, error line,
solve label, evolution count or disk separation that differs
(:func:`outcome`). The last line is the same as JSON, which also
holds the totals per problem family (the problem name without a trailing
``-<index>``, e.g. ``quad-n7`` for the matrix-eig problems of order 7).
The exit status is 1 when any report text differs.
"""

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

# The benchmark launcher pins BLAS to one thread when imported, so it
# comes before anything that loads numpy.
import run  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from specs import build_spec  # noqa: E402

SIDES = ("base", "change")
DEFAULT_REPS = 5


def load_tree(tree, name):
    """Import ``tree``/src/polyzeros as the package ``name``."""
    init = Path(tree).resolve() / "src" / "polyzeros" / "__init__.py"
    if not init.is_file():
        sys.exit("ab_timing: no package source at %s" % init.parent)
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


STAGES = ("characteristic_polynomial", "_linearisation_records",
          "_acquire_seeds", "_outcomes", "detect_clusters", "_ecp_phase",
          "_eigenvector_phase")


class StageClock:
    """Sums the time of every call to each of the pipeline's STAGES, by
    the names the package's pipeline binds, while installed; each
    installation starts from zero. A stage the tree does not have (an
    older tree's) stays at zero."""

    def __init__(self, pz):
        self.pipeline = pz.pipeline
        self.originals = {name: getattr(pz.pipeline, name) for name in STAGES
                          if hasattr(pz.pipeline, name)}
        self.timed = {name: self._timed(name, fn)
                      for name, fn in self.originals.items()}

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
        return timed

    def __enter__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        for name, fn in self.timed.items():
            setattr(self.pipeline, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self.originals.items():
            setattr(self.pipeline, name, fn)


def solve(pz, problem):
    """(ms, outcome) of one fresh-spec solve; the outcome is the report
    text, or the status of a solve that raised or missed its deadline."""
    spec = build_spec(pz, problem.file)
    t0 = time.perf_counter()
    outcome = run.solve(pz, spec)
    return (time.perf_counter() - t0) * 1e3, outcome.text or outcome.status


def outcome(text):
    """(rest, roots) of a report text: the report's solve labels, flags,
    degrees, error lines, eigenvector counts and, when it has an ``"ecp"``
    section, its evolution count and each disk's ``separated`` flag; and
    each root's value and the fields beside it that decide the answer
    (multiplicity and iterations). A solve that raised or missed its
    deadline is its status."""
    try:
        report = json.loads(text)
    except ValueError:
        return text, ()
    roots = [(complex(*r["value"]), r["multiplicity"], r["iterations"])
             for r in report["roots"]]
    ecp = report["ecp"] and (report["ecp"]["evolutions"],
                             [d["separated"] for d in report["ecp"]["disks"]])
    rest = tuple(report[key] for key in (
        "algorithm", "seed_source", "effective_degree", "multiplicity_sum",
        "conserved", "all_residuals_pass", "errors", "eigenvectors")) + (ecp,)
    return rest, roots


def same_outcome(pz, problem, a, b):
    """Whether two report texts have the same :func:`outcome`, root values
    compared by the root identity of ``pz`` on the problem's polynomial
    (det F for a matrix problem, also where the reports took their
    eigenvalues from F's linearisation), each root with its
    multiplicity."""
    if a == b:
        return True
    (rest_a, roots_a), (rest_b, roots_b) = outcome(a), outcome(b)
    if rest_a != rest_b or len(roots_a) != len(roots_b):
        return False
    f = pz.pipeline.spec_polynomial(build_spec(pz, problem.file))
    return all(
        pz.refine.same_root(f, x[0], y[0], x[1], y[1]) and x[1:] == y[1:]
        for x, y in zip(roots_a, roots_b))


def family(name):
    """A problem's family: its name without a trailing ``-<index>``."""
    head, _, tail = name.rpartition("-")
    return head if head and tail.isdigit() else name


def _stage_key(name):
    """A stage's key in the JSON, e.g. ``acquire_seeds_ms``."""
    return name.lstrip("_") + "_ms"


def _timings(per_problem, stages, members, reps):
    """Total of the members' median solve times, and of their time per
    rep in each stage, in ms."""
    timings = {"total_ms": round(sum(per_problem[i] for i in members), 2)}
    for name in STAGES:
        timings[_stage_key(name)] = round(
            sum(stages[name][i] for i in members) * 1e3 / reps, 2)
    return timings


def run_workload(packages, workload, seeds, reps):
    problems = [(seed, p) for seed in seeds
                for p in workloads.generate(workload, seed)]
    times = {side: [[] for _ in problems] for side in SIDES}
    texts = {side: [None] * len(problems) for side in SIDES}
    clocks = {side: StageClock(packages[side]) for side in SIDES}
    # Per side and stage, each problem's stage seconds over all reps.
    stages = {side: {name: [0.0] * len(problems) for name in STAGES}
              for side in SIDES}
    for rep in range(reps):
        for i, (_, problem) in enumerate(problems):
            order = SIDES if (rep + i) % 2 == 0 else SIDES[::-1]
            for side in order:
                with clocks[side]:
                    ms, text = solve(packages[side], problem)
                for name in STAGES:
                    stages[side][name][i] += clocks[side].seconds[name]
                times[side][i].append(ms)
                if texts[side][i] is None:
                    texts[side][i] = text
    result = {"problems": len(problems), "reps": reps}
    families = {}
    for i, (_, problem) in enumerate(problems):
        families.setdefault(family(problem.name), []).append(i)
    result["families"] = {name: {} for name in families}
    for side in SIDES:
        per_problem = [statistics.median(t) for t in times[side]]
        result[side] = _timings(per_problem, stages[side],
                                range(len(problems)), reps)
        result[side].update(
            p50_ms=round(float(np.percentile(per_problem, 50)), 4),
            p90_ms=round(float(np.percentile(per_problem, 90)), 4))
        for name, members in families.items():
            result["families"][name][side] = _timings(
                per_problem, stages[side], members, reps)
    differ = [("%d/%s" % (seed, p.name)) for (seed, p), a, b in zip(
        problems, texts["base"], texts["change"]) if a != b]
    result["reports_differ"] = differ
    result["outcomes_differ"] = [
        ("%d/%s" % (seed, p.name)) for (seed, p), a, b in zip(
            problems, texts["base"], texts["change"])
        if not same_outcome(packages["change"], p, a, b)]
    return result


def main(argv):
    usage = ("usage: ab_timing.py BASE CHANGE {all|WORKLOAD[,WORKLOAD...]} "
             "SEED[,SEED...] [REPS]\nworkloads: %s"
             % ",".join(workloads.WORKLOADS))
    if len(argv) not in (4, 5):
        sys.exit(usage)
    chosen = (workloads.WORKLOADS if argv[2] == "all"
              else argv[2].split(","))
    if not set(chosen) <= set(workloads.WORKLOADS):
        sys.exit(usage)
    seeds = [int(s) for s in argv[3].split(",")]
    reps = int(argv[4]) if len(argv) == 5 else DEFAULT_REPS
    if reps < 1:
        sys.exit(usage)
    packages = {side: load_tree(tree, "polyzeros_" + side)
                for side, tree in zip(SIDES, argv[:2])}
    results = {}
    for workload in chosen:
        r = run_workload(packages, workload, seeds, reps)
        results[workload] = r
        print("%s: %d problems x %d reps, seeds %s"
              % (workload, r["problems"], reps, argv[3]))
        for side in SIDES:
            s = r[side]
            print("  %-6s p50 %8.3f ms  p90 %8.3f ms  total %9.1f ms" % (
                side, s["p50_ms"], s["p90_ms"], s["total_ms"]))
            print("         " + "  ".join(
                "%s %.1f ms" % (name.lstrip("_"), s[_stage_key(name)])
                for name in STAGES))
        for key in ("reports_differ", "outcomes_differ"):
            print("  %s: %d%s" % (
                key.replace("_", " "), len(r[key]),
                " (%s)" % ", ".join(r[key][:10]) if r[key] else ""))
    print(json.dumps(results, sort_keys=True))
    return 1 if any(r["reports_differ"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
