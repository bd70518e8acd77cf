"""Seed -> refine -> report orchestration shared by the CLI and library users.

A ProblemSpec bundles one polynomial (scalar or matrix) with a seed source
and an algorithm choice. The problem polynomial (:func:`spec_polynomial`)
is the user's coefficients as given, or det F for a matrix problem.
run_pipeline acquires seeds, refines them in one loop whatever the
algorithm, merges duplicate roots, and assembles a deterministic report
ordered lexicographically by (re, im). Pade, Halley and the two list
iterations refine all seeds in one batch call, each step taken by every
seed still running at once. Detect and test-nu refine each seed on its
own, except that detect on companion or external seeds first settles
clusters of seeds by a zero count and one probe each, and the cluster's
root record lists all its seeds. Hard errors in
any stage are recorded on the report and the remaining seeds still run. A
report passes only when its multiplicities sum to the full degree and
every root passes its residual test.
"""

import enum
from dataclasses import dataclass, field, replace
from functools import partial

from .ecp import (
    EcpList,
    SumControl,
    build_ecp_list,
    evolve_until,
    gershgorin_enclosures,
    rayleigh_iterate_all,
    reduced_pade_iterate_all,
    sum_control,
)
from .errors import NotAnEigenvalueError, PolyzerosError, ProblemFormatError
from .explore import companion_seed_all, scan_sign_changes
from .matpoly import (
    characteristic_polynomial,
    diagonal_seeds,
    eigenvectors_all,
)
from .poly import evaluate  # noqa: F401  (perfbench's tracer test patches it)
from .refine import (
    DEFAULT_SETTINGS,
    IterationSettings,
    TraceStatus,
    detect_clusters,
    detect_multiplicity,
    iterate_halley_all,
    iterate_pade_all,
    iterate_test_nu,
    group_roots,
)


class SeedSource(enum.Enum):
    EXPLORE = "explore"
    DIAGONAL = "diagonal"
    COMPANION = "companion"
    EXTERNAL = "external"


class Algorithm(enum.Enum):
    DETECT = "detect"
    PADE = "pade"
    HALLEY = "halley"
    TEST_NU = "test-nu"
    RAYLEIGH = "rayleigh"
    REDUCED = "reduced"


@dataclass(frozen=True)
class ProblemSpec:
    """One solve request: payload, seed source, algorithm, knobs.

    Exactly one of ``polynomial``/``matrix`` is set. ``nu`` is the probe
    order used by the test-nu algorithm only; detect counts the zeros near
    each seed and runs the probe of the counted order, which must lie in
    1..nu_max (defaulting to the degree). Rayleigh and reduced algorithms
    build one
    interpolation list from all seeds and refine each row's main value.
    """

    polynomial: object = None
    matrix: object = None
    seed_source: SeedSource = SeedSource.EXPLORE
    external_seeds: tuple = ()
    algorithm: Algorithm = Algorithm.DETECT
    delta: float = 0.1
    settings: IterationSettings = DEFAULT_SETTINGS
    nu_max: int = None
    nu: int = 1
    ecp: bool = False

    def __post_init__(self):
        if (self.polynomial is None) == (self.matrix is None):
            raise ProblemFormatError(
                "exactly one of polynomial/matrix must be given"
            )
        if self.seed_source is SeedSource.EXTERNAL and not self.external_seeds:
            raise ProblemFormatError("external seed source needs seeds")
        if self.seed_source is not SeedSource.EXTERNAL and self.external_seeds:
            raise ProblemFormatError("seeds given but source is not external")
        if self.seed_source is SeedSource.DIAGONAL and self.matrix is None:
            raise ProblemFormatError("diagonal seeds need a matrix problem")
        if not self.delta > 0:
            raise ProblemFormatError("delta must be positive")
        if self.nu < 1:
            raise ProblemFormatError("nu must be >= 1")
        if self.nu_max is not None and self.nu_max < 1:
            raise ProblemFormatError("nu_max must be >= 1")


@dataclass(frozen=True)
class RootRecord:
    value: complex
    multiplicity: int
    residual: float
    algorithm: Algorithm
    iterations: int
    seeds: tuple
    source: SeedSource
    residual_pass: bool


@dataclass(frozen=True)
class EigenpairRecord:
    """Eigenvector data for one distinct eigenvalue of a matrix problem.

    ``defective`` marks rank deficiency below the detected multiplicity
    (fewer independent eigenvectors than the algebraic count)."""

    value: complex
    multiplicity: int
    right: object
    left: object
    defective: bool


@dataclass(frozen=True)
class EcpDiagnostics:
    final_list: EcpList
    evolutions: int
    defect_history: tuple
    control: SumControl
    disks: tuple


@dataclass(frozen=True)
class RootReport:
    roots: tuple
    effective_degree: int
    multiplicity_sum: int
    conserved: bool
    all_residuals_pass: bool
    errors: tuple = field(default_factory=tuple)
    ecp: EcpDiagnostics = None
    eigenvectors: tuple = field(default_factory=tuple)


def _acquire_seeds(spec, f, errors):
    """The seeds of the spec's source. A source that fails leaves an error
    line and no seeds."""
    source = spec.seed_source
    if source is SeedSource.EXTERNAL:
        return tuple(complex(v) for v in spec.external_seeds)
    try:
        if source is SeedSource.DIAGONAL:
            report = diagonal_seeds(spec.matrix)
            if report.degenerate_entries:
                errors.append(
                    "diagonal entries %s have degenerate degree"
                    % (list(report.degenerate_entries),)
                )
            return report.values
        if source is SeedSource.COMPANION:
            companion = companion_seed_all(f)
            if companion.low_confidence:
                errors.append("companion seeds carry large residuals")
            return companion.values
        return scan_sign_changes(f, spec.delta).seeds
    except PolyzerosError as exc:
        errors.append("%s: %s" % ("exploration" if source is SeedSource.EXPLORE
                                  else "%s seeds" % source.value, exc))
        return ()


def _batch(run):
    """step(k) for an algorithm that refines all seeds in one call
    ``run()``, returning a trace per seed. An error of that call (a degree
    check) is every seed's error."""
    try:
        traces = run()
    except PolyzerosError as exc:
        error = exc

        def fail(k):
            raise error
        return fail
    return lambda k: (traces[k], 1)


def _refiner(spec, f, seeds):
    """``(group, refine)`` pairs in seed order, one per record to be made.

    ``group`` holds seed indices and ``refine()`` returns ``(trace, nu)``:
    the trace's final iterate is the root and nu its multiplicity. Pade
    and Halley refine all seeds in one batch. Rayleigh and reduced refine
    every row's main value of one interpolation list, built here from all
    seeds, in one batch. Detect probes each seed on its own and answers
    with its winning probe; on companion or external seeds it first
    settles clusters of seeds (:func:`detect_clusters`), one group and one
    probe each, and probes only the seeds left over.
    """
    settings = spec.settings
    if spec.algorithm in (Algorithm.RAYLEIGH, Algorithm.REDUCED):
        lst = build_ecp_list(f, seeds)
        iterate = (rayleigh_iterate_all if spec.algorithm is Algorithm.RAYLEIGH
                   else reduced_pade_iterate_all)
        step = _batch(partial(iterate, lst, f, lst.main_values, settings))
    elif spec.algorithm is Algorithm.DETECT:
        def step(k):
            verdict = detect_multiplicity(f, seeds[k], spec.nu_max, settings)
            return verdict.probes[verdict.multiplicity], verdict.multiplicity
    elif spec.algorithm is Algorithm.TEST_NU:
        def step(k):
            return iterate_test_nu(f, spec.nu, seeds[k], settings), spec.nu
    else:
        iterate = (iterate_pade_all if spec.algorithm is Algorithm.PADE
                   else iterate_halley_all)
        step = _batch(partial(iterate, f, seeds, settings))
    singles = range(len(seeds))
    units = []
    if spec.algorithm is Algorithm.DETECT and spec.seed_source in (
            SeedSource.COMPANION, SeedSource.EXTERNAL):
        clusters, singles = detect_clusters(f, seeds, spec.nu_max, settings)
        units = [(c.seeds, lambda c=c: (c.probe, c.multiplicity))
                 for c in clusters]
    units += [((k,), partial(step, k)) for k in singles]
    return sorted(units, key=lambda unit: unit[0][0])


def _refine(spec, f, seeds, errors):
    """One record per group whose refinement converges, with the group's
    seeds as provenance. A group that fails is a single seed, and it
    leaves an error line. The residual is the one the convergence test
    passed."""
    try:
        units = _refiner(spec, f, seeds)
    except PolyzerosError as exc:  # only the list build raises here
        errors.append("interpolation list: %s" % exc)
        return []
    records = []
    for group, refine_group in units:
        try:
            trace, nu = refine_group()
        except PolyzerosError as exc:
            errors.append("seed %r: %s" % (seeds[group[0]], exc))
            continue
        if trace.status is not TraceStatus.CONVERGED:
            notes = " (%s)" % "; ".join(trace.notes) if trace.notes else ""
            errors.append("seed %r: %s%s"
                          % (seeds[group[0]], trace.status.value, notes))
            continue
        records.append(RootRecord(
            complex(trace.final), nu, trace.residual, spec.algorithm,
            len(trace.rows),
            tuple(dict.fromkeys(complex(seeds[k]) for k in group)),
            spec.seed_source, trace.residual <= spec.settings.residual_tol,
        ))
    return records


def _dedupe(records):
    """Merge records within the root-identity radius, keeping the best.

    The representative is the member with the smallest residual; seed
    provenance accumulates across the merged group."""
    ordered = sorted(
        records, key=lambda r: (r.value.real, r.value.imag, r.residual)
    )
    merged = []
    for group in group_roots(ordered, lambda r: r.value):
        if len(group) == 1:
            merged.extend(group)
            continue
        best = min(group, key=lambda r: r.residual)
        seeds = dict.fromkeys(s for member in group for s in member.seeds)
        merged.append(replace(best, seeds=tuple(seeds)))
    merged.sort(key=lambda r: (r.value.real, r.value.imag))
    return merged


def ecp_diagnostics(f, values):
    """Interpolation list at the given values, evolved to the threshold,
    with its sum control and Gershgorin disks."""
    lst = build_ecp_list(f, values)
    defect_history = [max(abs(d) for d in lst.defects)]
    evolved = evolve_until(lst, f)
    for item in evolved:
        defect_history.append(max(abs(d) for d in item.defects))
    final = evolved[-1] if evolved else lst
    return EcpDiagnostics(
        final,
        len(evolved),
        tuple(defect_history),
        sum_control(final),
        gershgorin_enclosures(final),
    )


def _ecp_phase(f, records, errors):
    try:
        return ecp_diagnostics(f, [r.value for r in records])
    except PolyzerosError as exc:
        errors.append("ecp phase: %s" % exc)
        return None


EIGENVECTOR_PIVOT_LADDER = (1e-10, 1e-8, 1e-6)


def _eigenvector_phase(matrix, records, errors):
    """Extract both-sided eigenvectors, loosening the pivot tolerance when
    the eigenvalue carries interpolation noise from the recomputed
    characteristic coefficients. A loosened tolerance is noted; the per
    column residuals in the bundles stay the honest quality measure.

    Each rung is one :func:`eigenvectors_all` call over the records still
    open: one stacked elimination of their F(lambda), and one of the
    transposes where the right side succeeded. A record leaves the ladder
    at its first success, and skips a rung where its last failure would
    repeat exactly (:meth:`NotAnEigenvalueError.repeated_at`): every pivot
    it accepted lies above the looser threshold. An extraction that
    succeeds at one rung succeeds at every looser rung, so the skipped rung
    would fail with the same error line. Error lines follow record order."""
    found = [None] * len(records)
    rung = {}
    for pivot_tol in EIGENVECTOR_PIVOT_LADDER:
        found = [r.repeated_at(pivot_tol)
                 if isinstance(r, NotAnEigenvalueError) else r for r in found]
        open_ = [i for i, result in enumerate(found) if result is None]
        values = [records[i].value for i in open_]
        for i, result in zip(open_, eigenvectors_all(matrix, values,
                                                     pivot_tol)):
            found[i], rung[i] = result, pivot_tol
    pairs = []
    for i, (record, result) in enumerate(zip(records, found)):
        if not isinstance(result, tuple):
            errors.append("eigenvectors at %r: %s" % (record.value, result))
            continue
        if rung[i] != EIGENVECTOR_PIVOT_LADDER[0]:
            errors.append(
                "eigenvectors at %r: pivot tolerance loosened to %g"
                % (record.value, rung[i])
            )
        right, left = result
        pairs.append(EigenpairRecord(
            record.value, record.multiplicity, right, left,
            right.rank_deficiency < record.multiplicity))
    return tuple(pairs)


def spec_polynomial(spec):
    """The problem's polynomial: the user's coefficients as given, or det F
    from :func:`characteristic_polynomial` for a matrix problem."""
    if spec.polynomial is not None:
        return spec.polynomial
    return characteristic_polynomial(spec.matrix)


def run_pipeline(spec):
    """Solve one problem end to end; see the module docstring for stages."""
    errors = []
    try:
        f = spec_polynomial(spec)
    except PolyzerosError as exc:
        return RootReport((), 0, 0, False, False, (str(exc),))
    seeds = _acquire_seeds(spec, f, errors)
    records = _dedupe(_refine(spec, f, seeds, errors))
    ecp_diag = _ecp_phase(f, records, errors) if spec.ecp and records else None
    eigenvectors = ()
    if spec.matrix is not None and records:
        eigenvectors = _eigenvector_phase(spec.matrix, records, errors)
    total = sum(r.multiplicity for r in records)
    conserved = total == f.degree
    if not conserved:
        errors.append(
            "multiplicity sum %d does not match effective degree %d"
            % (total, f.degree)
        )
    if (spec.matrix is not None and spec.matrix.leading_regular
            and f.degree < spec.matrix.nominal_char_degree):
        conserved = False
        errors.append(
            "effective degree %d is below rho*n = %d although the leading "
            "matrix is regular" % (f.degree, spec.matrix.nominal_char_degree)
        )
    # An eigenvalue must also make F(lambda) singular; unlike the residual,
    # that check does not read the interpolated det F.
    residuals_pass = (
        conserved and bool(records)
        and all(r.residual_pass for r in records)
        and (spec.matrix is None or len(eigenvectors) == len(records))
    )
    return RootReport(
        tuple(records),
        f.degree,
        total,
        conserved,
        residuals_pass,
        tuple(errors),
        ecp_diag,
        eigenvectors,
    )


def complex_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def ecp_to_dict(diag):
    """JSON-ready form of EcpDiagnostics."""
    return {
        "evolutions": diag.evolutions,
        "defect_history": [float(d) for d in diag.defect_history],
        "sum_control": {
            "expected": complex_pair(diag.control.expected),
            "actual": complex_pair(diag.control.actual),
            "discrepancy": float(diag.control.discrepancy),
        },
        "final_list": {
            "sigmas": [complex_pair(s) for s in diag.final_list.sigmas],
            "defects": [complex_pair(d) for d in diag.final_list.defects],
            "main_values": [
                complex_pair(h) for h in diag.final_list.main_values
            ],
        },
        "disks": [
            {
                "center": complex_pair(d.center),
                "radius": float(d.radius),
                "separated": d.separated,
                "interval": list(d.interval) if d.interval else None,
                "box": [list(b) for b in d.box] if d.box else None,
            }
            for d in diag.disks
        ],
    }


def _bundle_columns(vectors):
    if vectors is None:
        return None
    return [
        [complex_pair(vectors[i, k]) for i in range(vectors.shape[0])]
        for k in range(vectors.shape[1])
    ]


def eigenpair_to_dict(value, right, left):
    """JSON-ready right and left eigenvectors at one eigenvalue; callers
    add their own keys."""
    return {
        "value": complex_pair(value),
        "rank_deficiency": right.rank_deficiency,
        "right": _bundle_columns(right.right_vectors),
        "left": _bundle_columns(left.left_vectors),
        "right_residuals": [float(x) for x in right.right_residuals],
        "left_residuals": [float(x) for x in left.left_residuals],
    }


def report_to_dict(report):
    """JSON-ready form of a report; complex numbers become [re, im]."""
    data = {
        "roots": [
            {
                "value": complex_pair(r.value),
                "multiplicity": r.multiplicity,
                "residual": float(r.residual),
                "algorithm": r.algorithm.value,
                "iterations": r.iterations,
                "seeds": [complex_pair(s) for s in r.seeds],
                "source": r.source.value,
                "residual_pass": r.residual_pass,
            }
            for r in report.roots
        ],
        "effective_degree": report.effective_degree,
        "multiplicity_sum": report.multiplicity_sum,
        "conserved": report.conserved,
        "all_residuals_pass": report.all_residuals_pass,
        "errors": list(report.errors),
        "ecp": ecp_to_dict(report.ecp) if report.ecp else None,
        "eigenvectors": [
            dict(eigenpair_to_dict(p.value, p.right, p.left),
                 multiplicity=p.multiplicity, defective=p.defective)
            for p in report.eigenvectors
        ],
    }
    return data
