"""Benchmark launcher: solve one workload's problems, grade, time, report.

    python3 perfbench/run.py --workload simple-roots --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. One
process, one thread, one caller in a closed loop: each problem is solved
only after the previous one returned. A solve is what ``polyzeros solve``
does after parsing: run_pipeline(spec), report_to_dict, and
json.dumps(indent=2, sort_keys=True). Every problem runs under a
per-problem deadline; a miss counts as a failed problem.

The run solves the workload's problem list in whole passes (shuffled by
the seed) until the next pass would overrun --seconds; the first pass
always completes. --trace 0 reports the end-to-end metrics; --trace 1
solves every problem untraced and then traced, checks that both give the
same report bytes, and reports the per-layer metrics. The last line of
stdout is the JSON result; the lines before it name every failing problem
with its reasons and print each metric with its unit and sample count.
"""

import os

# Pin BLAS to one thread before numpy loads; the benchmark is single-thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads
from specs import build_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 2.0
SETUP_REPEATS = 7
# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 110
# CPU speed on a shared host drifts by +-20% over minutes, which swamps
# code changes between runs. Every CALIBRATE_EVERY solves a run times a
# fixed kernel that does not touch the package, and scales its solve times
# to the speed at which the kernel takes REFERENCE_KERNEL_MS (its median on
# the 2-vCPU Xeon VM the baseline was measured on).
CALIBRATE_EVERY = 4
REFERENCE_KERNEL_MS = 3.0
KERNEL_COEFFS = tuple(complex(k % 7 - 3, k % 5 - 2) for k in range(21))

END_TO_END = (
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("problems_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("no_false_pass_frac", "frac"),
    ("roots_recovered_frac", "frac"),
    ("root_digits_p10", "digits"),
    ("setup_s", "s"),
)


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no package handler eats it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def import_package():
    """Import polyzeros from ./src, refusing any other copy."""
    if not (SRC / "polyzeros" / "__init__.py").is_file():
        sys.exit("perfbench: no package source at %s; run from the "
                 "repository root" % SRC)
    sys.path.insert(0, str(SRC))
    import polyzeros

    if Path(polyzeros.__file__).resolve().parent != SRC / "polyzeros":
        sys.exit("perfbench: imported polyzeros from %s, not %s"
                 % (polyzeros.__file__, SRC))
    return polyzeros


class Outcome:
    """One solve: status, report bytes, and what the grader needs."""

    def __init__(self, status, text=None, report=None):
        self.status = status
        self.text = text
        self.report = report

    def key(self):
        return self.status, self.text


def calibration_kernel():
    """Pure-Python complex Horner work shaped like the package's hot loop."""
    acc = 0j
    for j in range(600):
        z = complex((j % 37) / 37.0, (j % 11) / 11.0)
        v = d = 0j
        for a in KERNEL_COEFFS:
            d = d * z + v
            v = v * z + a
        acc += v / (d + 1.0)
    return acc


def solve(pz, spec, tracer=None):
    """The timed unit of work, under the per-problem deadline.

    With a tracer, the report serialisation is recorded as its span.
    """
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        report = pz.run_pipeline(spec)
        t0 = time.perf_counter()
        text = json.dumps(pz.report_to_dict(report), indent=2, sort_keys=True)
        if tracer is not None:
            tracer.record("pipeline.report", t0, time.perf_counter())
    except DeadlineExceeded:
        return Outcome("deadline")
    except Exception:
        return Outcome("raised")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome("ok", text, report)


def grade(problem, outcome):
    if outcome.status != "ok":
        return oracle.Verdict({outcome.status}, 0, [], 0)
    report = outcome.report
    return oracle.grade(
        problem.oracle,
        [(r.value, r.multiplicity) for r in report.roots],
        report.all_residuals_pass,
    )


def measure_setup(problems):
    """Median seconds, in fresh interpreters, to import and build specs."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        data = Path(tmp) / "problems.json"
        data.write_text(json.dumps([p.file for p in problems]))
        samples = []
        for _ in range(SETUP_REPEATS):
            out = subprocess.run(
                [sys.executable, "-E", "-s", str(HERE / "setup_child.py"),
                 str(SRC), str(data)],
                check=True, capture_output=True, text=True, timeout=60,
            )
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_passes(problems, seconds, one_pass, min_samples):
    """Whole passes until the next one would overrun ``seconds``, and at
    least ``min_samples`` solves.

    Returns the per-pass results.
    """
    results = []
    started = time.perf_counter()
    solved = 0
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        took = time.perf_counter() - t0
        solved += len(problems)
        elapsed = time.perf_counter() - started
        if elapsed + took > seconds and solved >= min_samples:
            return results


def check_cli_parity(pz, problems, outcomes):
    """Per traffic mix, the fastest finished problem goes through the CLI.

    The CLI must write the in-process report bytes and exit 0 exactly when
    the report says all residuals pass. Not timed.
    """
    fastest = {}
    for i, (problem, (outcome, ms)) in enumerate(zip(problems, outcomes)):
        if outcome.status == "ok":
            best = fastest.get(problem.mix)
            if best is None or ms < best[1]:
                fastest[problem.mix] = (i, ms)
    mismatches = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for i, _ in sorted(fastest.values()):
            problem, outcome = problems[i], outcomes[i][0]
            path = Path(tmp) / ("%d.json" % i)
            out = Path(tmp) / ("%d.out" % i)
            path.write_text(json.dumps(problem.file))
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                code = pz.main(["solve", str(path), "--out", str(out)])
            except DeadlineExceeded:
                code = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            expected = 0 if outcome.report.all_residuals_pass else 1
            if (code != expected or not out.is_file()
                    or out.read_text() != outcome.text + "\n"):
                mismatches.append(problem.name)
    return len(fastest), mismatches


def end_to_end(problems, verdicts, times, setup):
    """Rows (name, value, unit, samples): every END_TO_END metric, then the
    failure shares and root error they are the complements of."""
    n = len(verdicts)
    roots = sum(p.oracle.degree for p in problems)
    errors = [e for v in verdicts for e in v.errors]
    fail = sum(v.failed for v in verdicts) / n
    false_pass = sum(v.false_pass for v in verdicts) / n
    err_p90 = float(np.percentile(errors, 90)) if errors else 0.0
    values = {
        "solve_ms_p50": (float(np.percentile(times, 50)), len(times)),
        "solve_ms_p90": (float(np.percentile(times, 90)), len(times)),
        "problems_per_s": (1e3 * len(times) / sum(times), len(times)),
        "ok_frac": (1.0 - fail, n),
        "no_false_pass_frac": (1.0 - false_pass, n),
        "roots_recovered_frac": (
            sum(v.recovered for v in verdicts) / roots, roots),
        "root_digits_p10": (-err_p90, len(errors)),
        "setup_s": (setup[0], len(setup[1])),
    }
    rows = [(name, values[name][0], unit, values[name][1])
            for name, unit in END_TO_END]
    return rows + [("fail_frac", fail, "frac", n),
                   ("false_pass_frac", false_pass, "frac", n),
                   ("root_err_log10_p90", err_p90, "log10", len(errors))]


def run_untraced(pz, problems, specs, order, seconds):
    """Returns the passes, the solve times scaled to reference speed, and
    the kernel times."""
    kernel_ms = []

    def one_pass():
        done = [None] * len(problems)
        for n, i in enumerate(order):
            if n % CALIBRATE_EVERY == 0:
                t0 = time.perf_counter()
                calibration_kernel()
                kernel_ms.append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            outcome = solve(pz, specs[i])
            done[i] = (outcome, (time.perf_counter() - t0) * 1e3)
        return done

    passes = run_passes(problems, seconds, one_pass, MIN_SAMPLES)
    scale = REFERENCE_KERNEL_MS / statistics.median(kernel_ms)
    times = [ms * scale for done in passes for _, ms in done]
    return passes, times, kernel_ms


def run_traced(pz, problems, specs, order, seconds):
    """Untraced then traced solve of each problem, pass after pass."""
    tracer = tracing.Tracer()
    plain_ms, traced_ms = [], []
    mismatched = set()
    # Seeds the reports attribute to roots (all, and from scans), seeds
    # handed in from outside, and report error lines.
    seeds = {"all": 0, "explore": 0, "external": 0}
    errors = [0]
    kept = [0]

    def one_pass():
        done = [None] * len(problems)
        for i in order:
            spec = specs[i]
            t0 = time.perf_counter()
            outcome = solve(pz, spec)
            plain_ms.append((time.perf_counter() - t0) * 1e3)
            done[i] = (outcome, plain_ms[-1])
            with tracer.installed(i):
                t0 = time.perf_counter()
                traced = solve(pz, spec, tracer)
                traced_ms.append((time.perf_counter() - t0) * 1e3)
                if traced.status == "deadline":
                    tracer.discard()
                else:
                    kept[0] += 1
            if traced.key() != outcome.key():
                mismatched.add(problems[i].name)
            seeds["external"] += len(spec.external_seeds)
            if traced.report is not None:
                used = sum(len(r.seeds) for r in traced.report.roots)
                seeds["all"] += used
                if spec.seed_source.value == "explore":
                    seeds["explore"] += used
                errors[0] += len(traced.report.errors)
        return done

    passes = run_passes(problems, seconds, one_pass, 0)
    overhead = float(np.percentile(traced_ms, 50) - np.percentile(plain_ms, 50))
    metrics = tracing.layer_metrics(
        tracer, kept[0], len(passes), seeds, errors[0], overhead)
    return passes, metrics, sorted(mismatched)


def run_workload(workload, seed, seconds, trace):
    pz = import_package()
    problems = workloads.generate(workload, seed)
    setup = None if trace else measure_setup(problems)
    signal.signal(signal.SIGALRM, _alarm)
    specs = [build_spec(pz, p.file) for p in problems]
    order = np.random.default_rng(seed).permutation(len(problems)).tolist()
    if trace:
        passes, metrics, mismatched = run_traced(
            pz, problems, specs, order, seconds)
    else:
        passes, times, kernel_ms = run_untraced(
            pz, problems, specs, order, seconds)
        mismatched = []
    first = passes[0]
    verdicts = [grade(p, outcome) for p, (outcome, _) in zip(problems, first)]
    nondeterministic = [
        problems[i].name for done in passes[1:]
        for i, (outcome, _) in enumerate(done)
        if outcome.key() != first[i][0].key()
    ]
    checked, cli_mismatches = check_cli_parity(pz, problems, first)

    print("workload %s, seed %d: %d problems, %d passes"
          % (workload, seed, len(problems), len(passes)))
    for problem, verdict, (outcome, _) in zip(problems, verdicts, first):
        if verdict.reasons:
            print("  FAIL %-24s %-20s %s (%d of %d roots)"
                  % (problem.name, problem.mix, ",".join(verdict.reasons),
                     verdict.found, problem.oracle.degree))
    for label, names in (("report bytes differ between passes",
                          nondeterministic),
                         ("traced report differs from untraced", mismatched),
                         ("CLI output differs from in-process", cli_mismatches)):
        if names:
            print("  CHECK FAILED: %s: %s" % (label, ", ".join(sorted(set(names)))))
    print("  CLI parity checked on %d problems" % checked)

    if trace:
        result_metrics = metrics
        for name, m in metrics.items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        result_metrics = {}
        print("  calibration kernel median %.4g ms over %d runs "
              "(reference %g ms)" % (statistics.median(kernel_ms),
                                     len(kernel_ms), REFERENCE_KERNEL_MS))
        for name, value, unit, samples in end_to_end(
                problems, verdicts, times, setup):
            if name in dict(END_TO_END):
                result_metrics[name] = {"value": value, "unit": unit}
            print("  %-22s %14.6g %-7s n=%d" % (name, value, unit, samples))
    return {
        "correct": not (nondeterministic or mismatched or cli_mismatches),
        "attempted": len(problems),
        "failed": sum(v.failed for v in verdicts),
        "metrics": result_metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in workloads.WORKLOADS}
        print(json.dumps(results, sort_keys=True))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
