"""Seed -> refine -> report orchestration shared by the CLI and library users.

A ProblemSpec bundles one polynomial (scalar or matrix) with a seed source
and an algorithm choice. A matrix problem solved by Pade from companion
seeds, with a regular leading matrix, takes its eigenvalues from F's
linearisation, certified on F itself (:func:`_linearisation_records`),
and no problem polynomial. Every other problem is solved on its problem
polynomial (:func:`spec_polynomial`): the user's coefficients as given,
in a new object per solve, or det F for a matrix problem. An exact root
at 0 (a_0 = 0) is recorded as it is, and the other roots are solved for
on f / lambda**k (:func:`_zero_root`). run_pipeline acquires seeds,
refines them into one list of outcomes whatever the algorithm
(:func:`_outcomes`), reads that list in one loop, merges the records
that are one root (:func:`_dedupe`), and assembles a deterministic
report ordered lexicographically by (re, im). Pade, Halley and the two
list iterations refine all seeds in one batch call, each step taken by
every seed still running at once. Detect and test-nu refine each seed on
its own, except that detect on companion or external seeds first settles
clusters of seeds by a zero count and one probe each, and the cluster's
root record lists all its seeds. Hard errors in any stage are recorded
on the report and the remaining seeds still run. Every root was refined
until f vanished there to working precision. Both routes share one
tail: the ecp phase, a diagnostic that makes det F itself on a
linearisation report (:func:`_ecp_phase`), then the verdict. A report
passes only when its multiplicities sum to the full degree, rho*n for a
matrix with a regular lead and deg f otherwise, which is at least 1,
and, for a matrix, every root makes F singular: the report gives F's
rank deficiency there, from singular values alone (a simple eigenvalue
certified on the linearisation counts one).
"""

import enum
import math
import numbers
from dataclasses import dataclass, field, replace

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
    linearisation_eigenpairs,
    rank_residuals_all,
    singular_ranks_all,
)
from .poly import Polynomial, degree_error_bound
from .poly import evaluate  # noqa: F401  (perfbench's tracer test patches it)
from .refine import (
    TraceStatus,
    _smallest_count,
    detect_clusters,
    detect_multiplicity,
    iterate_halley_all,
    iterate_pade_all,
    iterate_test_nu,
    group_roots,
    root_radii,
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
    """One solve request: payload, seed source and algorithm.

    Exactly one of ``polynomial``/``matrix`` is set. ``delta`` is the
    real-axis scan step of explore seeds, and ``ecp`` adds the
    interpolation-list phase to the report. ``nu`` is the probe
    order used by the test-nu algorithm only; detect counts the zeros near
    each seed and runs the probe of the counted order, which must lie in
    1..deg f. Rayleigh and reduced algorithms build one interpolation list
    from all seeds and refine each row's main value.
    """

    polynomial: object = None
    matrix: object = None
    seed_source: SeedSource = SeedSource.EXPLORE
    external_seeds: tuple = ()
    algorithm: Algorithm = Algorithm.DETECT
    delta: float = 0.1
    nu: int = 1
    ecp: bool = False

    def __post_init__(self):
        if (self.polynomial is None) == (self.matrix is None):
            raise ProblemFormatError(
                "exactly one of polynomial/matrix must be given"
            )
        if self.polynomial is not None and self.polynomial.is_zero:
            raise ProblemFormatError("zero polynomial")
        if self.seed_source is SeedSource.EXTERNAL and not self.external_seeds:
            raise ProblemFormatError("external seed source needs seeds")
        if self.seed_source is not SeedSource.EXTERNAL and self.external_seeds:
            raise ProblemFormatError("seeds given but source is not external")
        if self.seed_source is SeedSource.DIAGONAL and self.matrix is None:
            raise ProblemFormatError("diagonal seeds need a matrix problem")
        if not 0 < self.delta < math.inf:
            raise ProblemFormatError(
                "delta must be positive and finite, got %r" % (self.delta,))
        try:
            finite = all(abs(s) < math.inf for s in self.external_seeds)
        except OverflowError:  # a modulus beyond the float range
            finite = False
        if not finite:  # NaN fails too
            raise ProblemFormatError("external seeds must be finite")
        if (not isinstance(self.nu, numbers.Integral)
                or isinstance(self.nu, bool) or self.nu < 1):
            raise ProblemFormatError("nu must be an integer >= 1")


@dataclass(frozen=True)
class RootRecord:
    value: complex
    multiplicity: int
    residual: float
    iterations: int
    seeds: tuple


@dataclass(frozen=True)
class EcpDiagnostics:
    final_list: EcpList
    evolutions: int
    defect_history: tuple
    control: SumControl
    disks: tuple


@dataclass(frozen=True)
class RootReport:
    """One solve's answer. ``algorithm`` and ``seed_source`` are the
    spec's, set on every path, and label every root at once. For a matrix
    problem ``eigenvectors`` holds, per root, the rank deficiency of F
    there: its count of eigenvectors (:func:`matpoly.eigenvectors_all`
    gives them), 0 where F is not singular, and 1 at a simple eigenvalue
    certified on F's linearisation. A root is defective when
    0 < count < multiplicity. A scalar problem has none."""

    algorithm: Algorithm
    seed_source: SeedSource
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
            # det F of a real F has real coefficients
            # (characteristic_polynomial), so its seeds come in exact
            # conjugate pairs; a scalar polynomial keeps complex seeding.
            companion = companion_seed_all(
                f, real=spec.matrix is not None and f.is_real())
            if companion.low_confidence:
                errors.append("companion seeds carry large residuals")
            return companion.values
        return scan_sign_changes(f, spec.delta).seeds
    except PolyzerosError as exc:
        errors.append("%s: %s" % ("exploration" if source is SeedSource.EXPLORE
                                  else "%s seeds" % source.value, exc))
        return ()


def _outcomes(spec, f, seeds, errors):
    """``(group, found, nu)`` per record to be made, in seed order.

    ``group`` holds seed indices, and ``found`` is the trace whose final
    iterate is the group's root, of multiplicity nu, or the PolyzerosError
    that ended its refinement. Pade and Halley refine all seeds in one
    batch call, and rayleigh and reduced every row's main value of one
    interpolation list, built here from all seeds; a batch call that
    raises is every seed's error, and a list that cannot be built leaves
    an error line and no outcome. Test-nu probes each seed on its own.
    Detect answers with each seed's winning probe; on companion or
    external seeds it first settles clusters of seeds
    (:func:`detect_clusters`), one group and one probe each, and probes
    only the seeds left over.
    """
    algorithm = spec.algorithm
    if algorithm in (Algorithm.DETECT, Algorithm.TEST_NU):
        outcomes, singles = [], range(len(seeds))
        if algorithm is Algorithm.DETECT and spec.seed_source in (
                SeedSource.COMPANION, SeedSource.EXTERNAL):
            clusters, singles = detect_clusters(f, seeds)
            outcomes = [(c.seeds, c.probe, c.multiplicity) for c in clusters]
        for k in singles:
            nu = spec.nu
            try:
                if algorithm is Algorithm.TEST_NU:
                    found = iterate_test_nu(f, nu, seeds[k])
                else:
                    verdict = detect_multiplicity(f, seeds[k])
                    nu = verdict.multiplicity
                    found = verdict.probes[nu]
            except PolyzerosError as exc:
                found = exc
            outcomes.append(((k,), found, nu))
        return sorted(outcomes, key=lambda outcome: outcome[0][0])
    if algorithm in (Algorithm.RAYLEIGH, Algorithm.REDUCED):
        try:
            lst = build_ecp_list(f, seeds)
        except PolyzerosError as exc:
            errors.append("interpolation list: %s" % exc)
            return []
    try:
        if algorithm is Algorithm.PADE:
            found = iterate_pade_all(f, seeds)
        elif algorithm is Algorithm.HALLEY:
            found = iterate_halley_all(f, seeds)
        elif algorithm is Algorithm.RAYLEIGH:
            found = rayleigh_iterate_all(lst, f, lst.main_values)
        else:
            found = reduced_pade_iterate_all(lst, f, lst.main_values)
    except PolyzerosError as exc:
        found = [exc] * len(seeds)
    return [((k,), trace, 1) for k, trace in enumerate(found)]


def _refine(spec, f, seeds, errors):
    """One record per group whose refinement converges, with the group's
    seeds as provenance. A group that fails is a single seed, and it
    leaves an error line. The residual is the one the stopping test
    passed, so it is within f's rounding floor
    (:func:`poly.power_error_bound`).

    A run that stopped at the rounding floor (AT_FLOOR) makes a record
    only where its multiplicity is known there: detect's probes settled
    their zero count already, and every other algorithm's final iterate
    needs a zero count (:func:`_smallest_count`) that rounds to the
    record's multiplicity. A simple-root step that creeps onto a multiple
    root therefore leaves an error line, not nu records of one root."""
    records = []
    for group, found, nu in _outcomes(spec, f, seeds, errors):
        seed = seeds[group[0]]
        if isinstance(found, PolyzerosError):
            errors.append("seed %r: %s" % (seed, found))
            continue
        at_floor = found.status is TraceStatus.AT_FLOOR
        if at_floor and spec.algorithm is not Algorithm.DETECT:
            counted = _smallest_count(f, found.final)
            at_floor = counted is not None and round(counted[0].real) == nu
        if not (found.status is TraceStatus.CONVERGED or at_floor):
            notes = " (%s)" % "; ".join(found.notes) if found.notes else ""
            errors.append("seed %r: %s%s" % (seed, found.status.value, notes))
            continue
        records.append(RootRecord(
            complex(found.final), nu, found.residual, len(found.rows),
            tuple(dict.fromkeys(complex(seeds[k]) for k in group))))
    return records


def _dedupe(f, records):
    """Merge the records that are one root, keeping the best.

    Two records are one root when they lie within the sum of their
    attainable radii (:func:`refine.same_root`). The radii of all records
    come from one :func:`refine.root_radii` pass on f, the problem's own
    polynomial, not on the g = f / lambda**k the records were refined on,
    at the residual each record attained (the same on f as on g): so the
    exact zero root's radius is 0 and it takes no neighbour. The
    representative is the member with the smallest residual; seed
    provenance accumulates across the merged group."""
    ordered = sorted(
        records, key=lambda r: (r.value.real, r.value.imag, r.residual)
    )
    if len(ordered) < 2:
        return ordered
    values = [r.value for r in ordered]
    groups = group_roots(values, root_radii(
        f, values, [r.multiplicity for r in ordered],
        [r.residual for r in ordered]))
    if len(groups) == len(ordered):
        return ordered
    merged = []
    for indices in groups:
        if len(indices) == 1:
            merged.append(ordered[indices[0]])
            continue
        group = [ordered[i] for i in indices]
        best = min(group, key=lambda r: r.residual)
        seeds = dict.fromkeys(s for member in group for s in member.seeds)
        merged.append(replace(best, seeds=tuple(seeds)))
    merged.sort(key=lambda r: (r.value.real, r.value.imag))
    return merged


def ecp_diagnostics(f, values):
    """Interpolation list at the given values, evolved until they are
    roots of f to working precision (:func:`evolve_until`), with its
    sum control and Gershgorin disks."""
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


def _ecp_phase(spec, f, records, errors):
    """ecp_diagnostics at the records' values on f, or on det F made here
    when f is None (a linearisation report); a failure is one error line."""
    try:
        if f is None:
            f = spec_polynomial(spec)
        return ecp_diagnostics(f, [r.value for r in records])
    except PolyzerosError as exc:
        errors.append("ecp phase: %s" % exc)
        return None


def _eigenvector_phase(matrix, records, errors):
    """Per record, the rank deficiency of F at its value, from one
    :func:`singular_ranks_all` call. A value where F(lambda) is not
    singular counts 0 and leaves its error line, in record order."""
    counts = []
    for rank in singular_ranks_all(matrix, [r.value for r in records]):
        if isinstance(rank, NotAnEigenvalueError):
            errors.append(str(rank))
            rank = 0
        counts.append(rank)
    return tuple(counts)


def spec_polynomial(spec):
    """The problem's polynomial for one solve: a new Polynomial with the
    user's coefficients, or det F from :func:`characteristic_polynomial`
    for a matrix problem. What a solve derives from it and keeps on it
    (root bound, Horner terms, test polynomials) so goes when the solve
    ends, and never lands on the spec's own polynomial."""
    if spec.polynomial is not None:
        return Polynomial(spec.polynomial.coeffs)
    return characteristic_polynomial(spec.matrix)


def _zero_root(f):
    """(records, g): when a_0 = ... = a_{k-1} = 0 exactly, lambda = 0 is a
    root of multiplicity exactly k. It gets a record with residual 0 and
    no iteration or seed (:func:`_take_zero_seeds` may give it seeds), and
    g = f / lambda**k holds the other roots, or is None when there are
    none. Otherwise no record, and g is f."""
    k = next((j for j, a in enumerate(f.coeffs) if a != 0), 0)
    if not k:
        return [], f
    g = Polynomial(f.coeffs[k:])
    return [RootRecord(0j, k, 0.0, 0, ())], g if g.degree else None


def _take_zero_seeds(record, seeds, degree):
    """The zero root's record and the seeds left for g, when the seeds
    were not made from g (external or diagonal ones). The seeds beyond
    g's degree, at most the zero root's multiplicity of them, those
    nearest 0, go to the record: refined on g they would converge to its
    other roots, and the interpolation list of rayleigh and reduced needs
    exactly deg g seeds."""
    surplus = min(record.multiplicity, len(seeds) - degree)
    if surplus <= 0:
        return record, seeds
    nearest = sorted(range(len(seeds)), key=lambda k: abs(seeds[k]))[:surplus]
    taken = tuple(dict.fromkeys(complex(seeds[k]) for k in sorted(nearest)))
    rest = tuple(s for k, s in enumerate(seeds) if k not in nearest)
    return replace(record, seeds=taken), rest


def _on_linearisation(spec):
    """Whether the spec's eigenvalues come from F's linearisation
    (:func:`_linearisation_records`): a matrix problem with companion
    seeds, algorithm pade and a regular leading matrix. Every other matrix
    problem is solved on det F."""
    return (spec.matrix is not None and spec.matrix.leading_regular
            and spec.seed_source is SeedSource.COMPANION
            and spec.algorithm is Algorithm.PADE)


def _linearisation_records(matrix, errors):
    """(records, counts) of F's eigenvalues from its linearisation
    (:func:`matpoly.linearisation_eigenpairs`), with no det F.

    A value is certified when its backward error eta is within
    gamma_{4m+1}, m = rho n (:func:`poly.degree_error_bound`), and its
    radius is finite; any other value leaves an error line naming why and
    makes no record, so the report cannot be conserved. The certified
    values are grouped by their radii (:func:`refine.group_roots`). A
    value alone is a simple eigenvalue: multiplicity 1, one eigenvector,
    residual eta, no iteration, and itself as its seed. A group of nu
    values is one record at their mean, of multiplicity nu, with the
    members as its seeds; its residual is eta at the mean and its count
    the rank deficiency of F there, from one SVD without vectors at the
    means of all groups (:func:`matpoly.rank_residuals_all`), and a mean
    where F is not singular counts 0 and leaves its error line. A radius
    that is not finite joins no group and passes no value, so the values
    of one multiple eigenvalue never pass as simple ones through it."""
    try:
        values, residuals, radii = linearisation_eigenpairs(matrix)
    except PolyzerosError as exc:
        errors.append(str(exc))
        return [], []
    floor = degree_error_bound(matrix.nominal_char_degree)
    kept = []
    for value, eta, radius in zip(values, residuals, radii):
        if not eta <= floor:
            errors.append("%r: backward error %.3g exceeds the floor %.3g"
                          % (value, eta, floor))
        elif not radius < math.inf:
            errors.append("%r: radius %r is not finite" % (value, radius))
        else:
            kept.append((value, eta, radius))
    pairs = []
    multiple = []
    for group in group_roots([k[0] for k in kept], [k[2] for k in kept]):
        if len(group) == 1:
            value, eta, _ = kept[group[0]]
            pairs.append((RootRecord(value, 1, eta, 0, (value,)), 1))
        else:
            members = tuple(kept[i][0] for i in group)
            multiple.append((sum(members) / len(members), members))
    at_means = (rank_residuals_all(matrix, [mean for mean, _ in multiple])
                if multiple else ())
    for (mean, members), (eta, rank) in zip(multiple, at_means):
        if isinstance(rank, NotAnEigenvalueError):
            errors.append(str(rank))
            rank = 0
        pairs.append((RootRecord(mean, len(members), eta, 0, members), rank))
    pairs.sort(key=lambda pair: (pair[0].value.real, pair[0].value.imag))
    return [pair[0] for pair in pairs], tuple(pair[1] for pair in pairs)


def _verdict(spec, records, degree, errors, ecp_diag, eigenvectors):
    """The report on the records of a polynomial of the given effective
    degree: it is conserved when their multiplicities sum to that degree;
    it passes when it is conserved, has a record and, for a matrix, every
    eigenvector count is at least 1."""
    total = sum(r.multiplicity for r in records)
    conserved = total == degree
    if not conserved:
        errors.append(
            "multiplicity sum %d does not match effective degree %d"
            % (total, degree)
        )
    if not degree:
        errors.append("the polynomial has degree 0 and so no zeros")
    # An eigenvalue must also make F(lambda) singular; unlike the residual,
    # that check does not read the interpolated det F.
    residuals_pass = conserved and bool(records) and all(eigenvectors)
    return RootReport(
        spec.algorithm,
        spec.seed_source,
        tuple(records),
        degree,
        total,
        conserved,
        residuals_pass,
        tuple(errors),
        ecp_diag,
        eigenvectors,
    )


def run_pipeline(spec):
    """Solve one problem end to end; see the module docstring for stages."""
    errors = []
    f, counts = None, ()
    if _on_linearisation(spec):
        records, counts = _linearisation_records(spec.matrix, errors)
    else:
        try:
            f = spec_polynomial(spec)
        except PolyzerosError as exc:
            return RootReport(spec.algorithm, spec.seed_source, (), 0, 0,
                              False, False, (str(exc),))
        records, g = _zero_root(f)
        if g is not None:
            seeds = _acquire_seeds(spec, g, errors)
            if records and spec.seed_source in (SeedSource.EXTERNAL,
                                                SeedSource.DIAGONAL):
                records[0], seeds = _take_zero_seeds(records[0], seeds,
                                                     g.degree)
            records += _refine(spec, g, seeds, errors)
        records = _dedupe(f, records)
    ecp_diag = (_ecp_phase(spec, f, records, errors)
                if spec.ecp and records else None)
    if f is not None and spec.matrix is not None and records:
        counts = _eigenvector_phase(spec.matrix, records, errors)
    degree = (spec.matrix.nominal_char_degree if spec.matrix is not None
              and spec.matrix.leading_regular else f.degree)
    return _verdict(spec, records, degree, errors, ecp_diag, counts)


def complex_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def ecp_to_dict(diag):
    """JSON-ready form of EcpDiagnostics. Disk k is its radius and
    ``separated`` flag: its center is ``final_list.main_values[k]``, and a
    separated disk encloses one root within center +- radius, an interval
    for a real list and a box for a complex one."""
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
        "disks": [{"radius": float(d.radius), "separated": d.separated}
                  for d in diag.disks],
    }


def _bundle_columns(vectors):
    return [[[z.real, z.imag] for z in col] for col in vectors.T.tolist()]


def eigenpair_to_dict(value, bundle):
    """JSON-ready right and left eigenvectors at one eigenvalue, as
    ``polyzeros eigvec`` writes them; callers add their own keys."""
    return {
        "value": complex_pair(value),
        "rank_deficiency": bundle.rank_deficiency,
        "right": _bundle_columns(bundle.right_vectors),
        "left": _bundle_columns(bundle.left_vectors),
        "right_residuals": [float(x) for x in bundle.right_residuals],
        "left_residuals": [float(x) for x in bundle.left_residuals],
    }


def report_to_dict(report):
    """JSON-ready form of a report; complex numbers become [re, im]. The
    solve's ``algorithm`` and ``seed_source`` are written once, beside
    ``roots``, whose entries hold what differs from root to root."""
    return {
        "algorithm": report.algorithm.value,
        "seed_source": report.seed_source.value,
        "roots": [
            {
                "value": complex_pair(r.value),
                "multiplicity": r.multiplicity,
                "residual": float(r.residual),
                "iterations": r.iterations,
                "seeds": [complex_pair(s) for s in r.seeds],
            }
            for r in report.roots
        ],
        "effective_degree": report.effective_degree,
        "multiplicity_sum": report.multiplicity_sum,
        "conserved": report.conserved,
        "all_residuals_pass": report.all_residuals_pass,
        "errors": list(report.errors),
        "ecp": ecp_to_dict(report.ecp) if report.ecp else None,
        "eigenvectors": list(report.eigenvectors),
    }
