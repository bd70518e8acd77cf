"""Fixed-point refinement iterations with trace recording.

Every iteration runs one stopping rule, written once as a loop over the
state of all the seeds still running (:func:`_run_batch`): each round it
takes the step of every running seed from one call, and the residuals its
stopping test needs from one more; one seed is a batch of one. A run
stops only where f vanishes to working precision, its relative residual
within the rounding floor; its step test and its step budget are the
fixed module constants STEP_TOL and MAX_ITERS. No test here has an
absolute floor: f(lambda / 2**k) is refined from 2**k s exactly as f
from s, every iterate times 2**k. The Pade step
Lambda += p(Lambda) and the Halley step Lambda += h(Lambda) take array
steps: f, f' and f'' at all iterates come from one power matrix
(:func:`evaluate_all`), and the kernel decides from those arrays alone,
point by point, the step or the exception that ends the seed. Their
residuals come from one array pass too (:func:`poly.relative_residual_all`);
the interpolation-list steps of :mod:`ecp` run under the same rule
(:func:`_run_steps`). The test-polynomial step
Lambda += P_nu(Lambda)*Lambda, whose fixed points reveal root
multiplicity, keeps its scalar Horner step and residual and runs one
seed at a time. Every floor, here and in the zero counts, is
:func:`poly.power_error_bound`, which bounds both kernels' rounding.
Traces mirror printed iteration tables row by row.

Multiplicity is counted, not guessed: the argument principle counts the
zeros on a circle (:func:`count_zeros`), and one probe of the counted
order finds the root. A probe is accepted only where it converges inside
the circle to a point that is a root of that multiplicity to working
precision. The per-seed detector counts on the smallest circle around the
seed that rounding allows (:func:`detect_multiplicity`). Given
approximations of all the roots, such as companion-matrix eigenvalues, a
nu-fold root shows up as a cluster of nu seeds, counted on a circle
around the cluster's mean (:func:`detect_clusters`); every seed's own
circle is counted in one array pass (:func:`count_zeros_all`).

Root identity reads no fixed tolerance either. Two records of f's roots
are one root when they lie within the sum of their attainable radii
(:func:`same_root`): a record's radius (:func:`root_radii`) is that of
the disk around it that holds the roots of every polynomial within the
unit roundoff plus the record's own relative residual of f, given its
multiplicity. :func:`group_roots` groups a solve's records by that rule.
"""

import cmath
import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DerivativeUnderflowError,
    HalleyDenominatorError,
    NoMultiplicityError,
    OriginSeedError,
    ProbeOverflowError,
    ZeroPolynomialError,
)
from .poly import (
    ARRAY_PASS_DEGREE,
    UNIT_ROUNDOFF,
    evaluate,
    evaluate_all,
    power_error_bound,
    power_matrix,
    power_rows,
    relative_residual,
    relative_residual_all,
    test_polynomial,
)

# The stopping rule's step test and step budget (:func:`_run_batch`).
MAX_ITERS = 100
STEP_TOL = 1e-12
DIVERGENCE_FACTOR = 10.0

# Trapezoidal nodes of a zero count. Zeros at distance rho inside, or rho
# outside, a circle of radius r move the count by about (rho/r)**N and
# (r/rho)**N; a group circle has its nearest outside seed at 2r.
COUNT_NODES = 16
_COUNT_UNITS = tuple(cmath.exp(2j * math.pi * k / COUNT_NODES)
                     for k in range(COUNT_NODES))
_COUNT_UNIT_ROW = np.array(_COUNT_UNITS)


class TraceStatus(enum.Enum):
    CONVERGED = "converged"
    AT_FLOOR = "at-floor"
    MAX_ITERS = "max-iters"
    DIVERGED = "diverged"
    NUMERICAL_ERROR = "numerical-error"


@dataclass(frozen=True)
class TraceRow:
    """One printed table row: the iterate, the function value driving the
    step, and the step actually taken. For fixed-point iterations value and
    step coincide; the accelerated bracketing scheme stores p(lambda) in
    value and the move to the next point in step."""

    lam: complex
    value: complex
    step: complex


@dataclass(frozen=True)
class IterationTrace:
    """The rows of one iteration and how it ended. ``residual`` is the
    relative residual at the final iterate, at most the rounding floor the
    run stopped on (None unless CONVERGED or AT_FLOOR)."""

    rows: tuple
    status: TraceStatus
    notes: tuple = field(default_factory=tuple)
    residual: float = None

    @property
    def final(self):
        """The iterate after the last recorded step."""
        if not self.rows:
            raise ValueError("empty trace has no final iterate")
        last = self.rows[-1]
        return last.lam + last.step


def _run_batch(steps_fn, residuals_fn, floor, seeds, root_bound):
    """Refine every seed at once: one IterationTrace per seed, in order.

    The stopping rule of every refinement iteration, written once over the
    state of every seed still running. ``steps_fn(lams)`` gets their
    current iterates, as a list of complex, and returns their steps in the
    same order: each a complex, or the exception that ends that seed as
    NUMERICAL_ERROR with its text as the note; a step with a NaN part
    ends its seed so at once, as no later step can leave NaN. A run stops
    only where the new iterate's relative residual is at most ``floor``,
    the rounding bound of ``residuals_fn``, so that f is zero there to
    working precision. It stops CONVERGED after two consecutive steps of
    at most ``STEP_TOL * |lambda|``, and AT_FLOOR after a step that
    does not halve the previous one: then the steps are rounding noise (at
    an ill-conditioned root) or a linear creep with ratio at least 1/2 (at
    a root of higher multiplicity than the step assumes); a zero count
    tells the two apart, not the steps. The residual is kept on the trace.
    Each round makes one ``residuals_fn(lams)`` call, over the new iterates
    of the seeds whose steps call for the test, and it returns their
    residuals in order.
    Iterates beyond ``DIVERGENCE_FACTOR * root_bound``, or whose
    modulus or step passes the float range, end the run as DIVERGED, and
    a seed still running after ``MAX_ITERS`` steps ends as MAX_ITERS. Both
    constants are read at each call. Neither test has an absolute floor,
    so no run converges onto the root 0 (a solve divides it out first),
    and on a lambda**m, whose root bound is 0, a run ends DIVERGED at its
    first step.

    A seed's steps and residuals do not depend on the other seeds in the
    call, so its trace is the one it gets as a batch of one.
    """
    divergence_bound = DIVERGENCE_FACTOR * root_bound
    lams = [complex(s) for s in seeds]
    rows = [[] for _ in lams]
    prev_small = [False] * len(lams)
    prev_step_mag = [math.inf] * len(lams)  # no first step is "not halved"
    traces = [None] * len(lams)
    active = list(range(len(lams)))
    for _ in range(MAX_ITERS):
        if not active:
            break
        tested = []
        running = []
        for i, step in zip(active, steps_fn([lams[i] for i in active])):
            lam = lams[i]
            if not isinstance(step, Exception) and cmath.isnan(step):
                step = ArithmeticError("step is not a number at %r" % (lam,))
            if isinstance(step, Exception):
                rows[i].append(TraceRow(lam, complex("nan"), 0j))
                traces[i] = IterationTrace(tuple(rows[i]),
                                           TraceStatus.NUMERICAL_ERROR,
                                           (str(step),))
                continue
            rows[i].append(TraceRow(lam, step, step))
            nxt = lam + step
            try:
                step_mag = abs(step)
                small = step_mag <= STEP_TOL * abs(nxt)
            except OverflowError:  # a modulus beyond the float range
                traces[i] = IterationTrace(tuple(rows[i]),
                                           TraceStatus.DIVERGED)
                continue
            converging = small and prev_small[i]
            stalled = 2.0 * step_mag > prev_step_mag[i]
            prev_small[i] = small
            prev_step_mag[i] = step_mag
            lams[i] = nxt
            if converging or stalled:
                tested.append((i, converging))
            elif abs(nxt) > divergence_bound:
                traces[i] = IterationTrace(tuple(rows[i]),
                                           TraceStatus.DIVERGED)
            else:
                running.append(i)
        if tested:
            residuals = residuals_fn([lams[i] for i, _ in tested])
            for (i, converging), residual in zip(tested, residuals):
                if residual <= floor:
                    traces[i] = IterationTrace(
                        tuple(rows[i]), TraceStatus.CONVERGED if converging
                        else TraceStatus.AT_FLOOR, residual=residual)
                elif abs(lams[i]) > divergence_bound:
                    traces[i] = IterationTrace(tuple(rows[i]),
                                               TraceStatus.DIVERGED)
                else:
                    running.append(i)
        active = running
    for i in active:
        traces[i] = IterationTrace(tuple(rows[i]), TraceStatus.MAX_ITERS)
    return traces


def _horner_residuals(f, lams):
    """:func:`poly.relative_residual` at each point, one at a time: the
    residuals of a batch of one."""
    return [relative_residual(f, lam) for lam in lams]


def _taylor_coefficients(f, nu):
    """The coefficients C(j, nu) a_j, j = nu..m, of f^(nu)/nu!, ascending,
    as a list, empty when nu exceeds the degree. C(j, nu) is a running
    product in floats, so one beyond the float range is inf."""
    coeffs = f.coeffs
    weight = 1.0
    taylor = list(coeffs[nu:nu + 1])
    for j in range(nu + 1, len(coeffs)):
        weight = weight * j / (j - nu)
        taylor.append(coeffs[j] * weight)
    return taylor


def _horner_radius(f, lam, nu, residual, taylor):
    """The radius of :func:`root_radii` at one record, from Horner's rule
    on ``taylor``, the coefficients of f^(nu)/nu! from the leading one
    down, and on ``f.terms`` for S."""
    lam = complex(lam)
    r = abs(lam)
    t = 0j
    for c in taylor:
        t = t * lam + c
    s = 0.0
    for _, mag in f.terms:
        s = s * r + mag
    try:
        rho = ((UNIT_ROUNDOFF + residual) * s / abs(t)) ** (1.0 / nu)
    except (ZeroDivisionError, OverflowError):
        return 0.0
    return rho if rho < math.inf else 0.0


def root_radii(f, values, multiplicities, residuals):
    """The attainable radius of each root record (value lambda,
    multiplicity nu, relative residual r = |f(lambda)| / S(lambda)):
    rho = ((u + r) S(lambda) / |f^(nu)(lambda)/nu!|)**(1/nu), with
    u = :data:`poly.UNIT_ROUNDOFF` and S(lambda) = sum |a_j| |lambda|**j,
    the scale of :func:`poly.relative_residual`.

    lambda is an exact root of a polynomial whose coefficients lie within
    r of f's, relative (its backward error as a root), and f's stored
    coefficients are themselves right only to u. Near a nu-fold root,
    f(lambda + h) is about f^(nu)(lambda)/nu! h**nu, so the roots of the
    polynomials within u + r of f lie on about the disk |h| <= rho: the
    root neighbourhood of f at that level (Mosier 1986, Math. Comp. 47;
    Zeng 2005, Math. Comp. 74), inside which no computed value is a
    better root than another. r is the residual the record attained, not
    the worst case :func:`poly.power_error_bound` that the stopping test
    allows: that bound is 81 u at degree 20, and its disks join the roots
    10 to 19 of Wilkinson 20, whose disks at u + r lie apart. r does not change
    when f is divided by a power of lambda, so a record refined on
    g = f / lambda**k brings its residual on g. rho scales with lambda
    and does not change with a factor on f. The exact zero root of f gets
    0, as S(0) = |a_0| = 0. A radius that is not finite (f^(nu) is
    exactly 0 at the value, a sum overflows, or r is inf where S is 0) is
    0: such a record reaches no other record, and so cannot join records
    that lie apart; a record whose own radius reaches it still can.

    f^(nu)/nu! is the polynomial with coefficients C(j, nu) a_j. Below
    :data:`poly.ARRAY_PASS_DEGREE` it and S are taken by Horner's rule,
    record by record. From it on both come from one complex
    :func:`poly.power_matrix` of the values, S from its moduli, point by
    point without BLAS; a radius that is not finite there is taken by
    Horner's rule.
    """
    taylor = {nu: _taylor_coefficients(f, nu) for nu in set(multiplicities)}
    if f.degree < ARRAY_PASS_DEGREE:
        taylor = {nu: c[::-1] for nu, c in taylor.items()}
        return [_horner_radius(f, lam, nu, r, taylor[nu])
                for lam, nu, r in zip(values, multiplicities, residuals)]
    points = np.array(values, dtype=complex)
    nus = np.array(multiplicities)
    with np.errstate(all="ignore"):
        powers = power_matrix(points, f.degree)
        s = np.einsum("ij,j->i", np.abs(powers), f.coeff_moduli)
        derivative = 0.0
        for nu, c in taylor.items():
            derivative = np.where(nus == nu, np.abs(np.einsum(
                "ij,j->i", powers[:, :len(c)], np.array(c))), derivative)
        radii = ((UNIT_ROUNDOFF + np.array(residuals)) * s
                 / derivative) ** (1.0 / nus)
    for i in np.flatnonzero(~(radii < math.inf)).tolist():
        nu = multiplicities[i]
        radii[i] = _horner_radius(f, points[i], nu, residuals[i],
                                  taylor[nu][::-1])
    return radii.tolist()


def same_root(f, a, b, nu_a, nu_b):
    """Root identity, the one rule: the records (a, nu_a) and (b, nu_b) of
    f's roots are one root when |a - b| is at most the sum of their
    attainable radii (:func:`root_radii`, each at its relative residual
    :func:`poly.relative_residual`)."""
    rho_a, rho_b = root_radii(
        f, (a, b), (nu_a, nu_b),
        (relative_residual(f, a), relative_residual(f, b)))
    return abs(a - b) <= rho_a + rho_b


def group_roots(values, radii):
    """Group the indices of ``values`` greedily, in input order: value i
    joins the first group whose first member j is the same root,
    |values[i] - values[j]| <= radii[i] + radii[j] (:func:`same_root`,
    given the finite radii of :func:`root_radii`).

    Value i can only be the same root as a head whose real part lies
    within radii[i] plus the largest head radius. The group heads are
    kept sorted by real part, and only the heads inside twice that window
    (so that rounding cannot hide one) are tested, oldest group first.
    Input sorted by real part keeps that window short.
    """
    groups = []
    head_re = []
    head_index = []
    widest = 0.0
    for i, (x, rho) in enumerate(zip(values, radii)):
        xr = x.real
        reach = 2.0 * (rho + widest)
        lo = bisect_left(head_re, xr - reach)
        hi = bisect_right(head_re, xr + reach, lo)
        for k in sorted(head_index[lo:hi]):
            group = groups[k]
            j = group[0]
            if abs(values[j] - x) <= radii[j] + rho:
                group.append(i)
                break
        else:
            at = bisect_right(head_re, xr, lo, hi)
            head_re.insert(at, xr)
            head_index.insert(at, len(groups))
            groups.append([i])
            if rho > widest:
                widest = rho
    return groups


def _pade_steps(f, lams):
    """The Pade steps p = f/(-f') at every point, from one
    :func:`evaluate_all`, and the error of :func:`poly.pade_eval`."""
    with np.errstate(all="ignore"):
        v, d = evaluate_all(f, lams, 1)
        steps = (v / -d).tolist()
    for i in np.flatnonzero(d == 0):
        steps[i] = DerivativeUnderflowError(
            "derivative vanishes at %r" % (lams[i],))
    return steps


def _halley_steps(f, lams):
    """The Halley steps h = p/(1 + p f''/f') at every point, from one
    :func:`evaluate_all`, and the errors of :func:`poly.halley_eval`."""
    with np.errstate(all="ignore"):
        v, d1, d2 = evaluate_all(f, lams, 2)
        p = v / -d1
        den = 1.0 + p * (d2 / d1)
        steps = (p / den).tolist()
    flat = d1 == 0
    for i in np.flatnonzero(flat | (den == 0)):
        steps[i] = (
            DerivativeUnderflowError("derivative vanishes at %r" % (lams[i],))
            if flat[i] else HalleyDenominatorError(
                "halley denominator 1+pq vanishes at %r" % (lams[i],)))
    return steps


def _run_steps(f, steps, seeds):
    """:func:`_run_batch` of the array step ``steps(f, lams)`` from every
    seed, with f's array residual (:func:`poly.relative_residual_all`),
    its floor :func:`poly.power_error_bound` and f's root bound."""
    return _run_batch(partial(steps, f), partial(relative_residual_all, f),
                      power_error_bound(f), seeds, f.root_bound)


def iterate_pade_all(f, seeds):
    """:func:`iterate_pade` from every seed at once, one trace per seed."""
    if f.degree < 1:
        raise ZeroPolynomialError("pade iteration needs degree >= 1")
    return _run_steps(f, _pade_steps, seeds)


def iterate_halley_all(f, seeds):
    """:func:`iterate_halley` from every seed at once, one trace per
    seed."""
    if f.degree < 2:
        raise ZeroPolynomialError("halley iteration needs degree >= 2")
    return _run_steps(f, _halley_steps, seeds)


def iterate_pade(f, seed):
    """Iterate Lambda += p(Lambda) from the seed; quadratic at simple roots,
    linear with ratio 1 - 1/nu at nu-fold roots."""
    return iterate_pade_all(f, (seed,))[0]


def iterate_halley(f, seed):
    """Iterate Lambda += h(Lambda) from the seed."""
    return iterate_halley_all(f, (seed,))[0]


def iterate_test_nu(f, nu, seed):
    """Iterate the nu-probe: step = (f_{nu-1}/f_nu)(Lambda) * Lambda.

    Converges quadratically from nearby seeds exactly when nu equals the
    root's multiplicity; under-probes creep linearly, over-probes move away.
    Raises ProbeOverflowError when f_nu has a coefficient beyond the float
    range, and OriginSeedError from a seed at 0, a fixed point of every
    probe whatever f.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if complex(seed) == 0:
        raise OriginSeedError(
            "seed too close to origin for p_nu; shift the polynomial by "
            "lambda -> lambda + c first"
        )
    f_hi = test_polynomial(f, nu)
    if f_hi.is_zero:
        raise ZeroPolynomialError("test polynomial f_%d is identically zero" % nu)
    f_lo = test_polynomial(f, nu - 1)

    def steps(lams):
        # A batch of one, in scalar Horner: one evaluate_all point costs
        # ten times what evaluate does.
        lam = lams[0]
        v_lo = evaluate(f_lo, lam)[0]
        v_hi = evaluate(f_hi, lam)[0]
        if v_hi == 0:
            return [ZeroDivisionError("f_%d vanishes at %r" % (nu, lam))]
        return [(v_lo / v_hi) * lam]

    return _run_batch(steps, partial(_horner_residuals, f),
                      power_error_bound(f), (seed,), f.root_bound)[0]


@dataclass(frozen=True)
class MultiplicityVerdict:
    """A root and its multiplicity from one seed.

    ``count`` is the unrounded zero count that named ``multiplicity``.
    ``probes`` holds the probes that ran, keyed by order, the winner
    ``probes[multiplicity]`` included; a later probe of an order replaces
    an earlier one."""

    root: complex
    multiplicity: int
    probes: dict
    count: complex


def count_zeros(f, center, radius):
    """The zeros of f in |lambda - center| < radius, (1/2 pi i) oint f'/f,
    by the trapezoidal rule on COUNT_NODES nodes; None when rounding could
    move it by half a zero.

    Node k adds term_k / N, term_k = w f'(z)/f(z) with w = radius * omega**k
    and z = center + w. Horner gets f(z) right to gamma_2m S and f'(z) to
    about gamma_2m S_1, where S = coefficient_scale(f, z) and
    S_1 = sum j |a_j| |z|**(j-1); so for any g at least gamma_2m, here
    g = power_error_bound(f), they are right to g S and g S_1. That moves
    term_k by at most (|term_k| g S + |w| g S_1) / (|f(z)| - g S), which
    is below 1/2, and so is the error of the mean, exactly when the node's
    relative residual |f(z)|/S exceeds g (1 + 2 |term_k| + 2 |w| S_1/S). A
    node at or inside that margin of the rounding floor declines the whole
    count.
    """
    center = complex(center)
    floor = power_error_bound(f)
    terms = f.terms
    total = 0j
    for unit in _COUNT_UNITS:
        w = radius * unit
        z = center + w
        r = abs(z)
        v = d = 0j
        s = s1 = 0.0
        for a, mag in terms:
            d = d * z + v
            v = v * z + a
            s1 = s1 * r + s
            s = s * r + mag
        magnitude = abs(v)
        if magnitude == 0.0:
            return None
        term = w * d / v
        margin = 1.0 + 2.0 * (abs(term) + radius * s1 / s)
        if not magnitude > floor * s * margin:  # NaN declines too
            return None
        total += term
    return total / COUNT_NODES


def count_zeros_all(f, centers, radii):
    """:func:`count_zeros` on every circle (centers[i], radii[i]) in one
    array pass: a list with each circle's count, or None where it is
    declined.

    The nodes, the trapezoidal sum and the decline test, with its g from
    :func:`poly.power_error_bound`, are count_zeros's. f and f' at all
    nodes come from one complex power matrix (:func:`poly.power_rows`),
    and S and S_1 from its real form over |a_j| and |z|; that bound is
    proven for this pass. A node whose power row overflows declines its
    circle. Every product and sum runs circle by circle, so a circle's
    count does not depend on the other circles in the call.
    """
    radii = np.array(radii, dtype=float)[:, None]
    w = radii * _COUNT_UNIT_ROW
    z = np.array(centers, dtype=complex)[:, None] + w
    with np.errstate(all="ignore"):
        v, d = power_rows(f.coeff_array, z.ravel(), 1).reshape(2, *z.shape)
        s, s1 = power_rows(f.coeff_moduli, np.abs(z).ravel(),
                           1).reshape(2, *z.shape)
        terms = w * d / v
        margin = 1.0 + 2.0 * (np.abs(terms) + radii * s1 / s)
        accepted = (np.abs(v) > power_error_bound(f) * s * margin).all(axis=1)
        counts = (terms.sum(axis=1) / COUNT_NODES).tolist()
    return [c if ok else None for c, ok in zip(counts, accepted.tolist())]


def _settles(f, nu, trace, center, radius):
    """True when a nu-probe settles the circle it was counted on: it
    converged, or stopped at the rounding floor, inside the circle at a
    point where f_0..f_{nu-2} vanish to working precision (relative
    residuals within ``power_error_bound(f)``).

    The probe's own convergence only makes f_{nu-1} vanish, which also
    happens between distinct roots whose multiplicities add up to nu.
    """
    if (trace.status not in (TraceStatus.CONVERGED, TraceStatus.AT_FLOOR)
            or not abs(trace.final - center) < radius):
        return False
    floor = power_error_bound(f)
    return not any(
        relative_residual(test_polynomial(f, k), trace.final) > floor
        for k in range(nu - 1))


def _enclosing_radius(f, center):
    """The radius of a circle around ``center`` that holds every zero of
    f: each lies within root_bound of the origin."""
    return 2.0 * (f.root_bound + abs(center))


def _smallest_count(f, s):
    """(count, radius): the zeros of f on the smallest circle around s
    whose count is not declined, or None when every circle is.

    The first radius is m |f(s)/f'(s)|, m = deg f, and at least u |s|:
    f'/f = sum 1/(s - r_j) puts some zero r_j that close to s. At s = 0
    exactly that floor is u root_bound, f's own scale. The radius doubles
    up to 2 (root_bound + |s|), where the circle holds every zero; where
    that limit is 0 too, every circle is declined.
    """
    limit = _enclosing_radius(f, s)
    v, d = evaluate(f, s, 1)
    try:
        radius = f.degree * abs(v / d)
    except ZeroDivisionError:
        radius = 0.0
    radius = max(radius, UNIT_ROUNDOFF * (abs(s) or f.root_bound))
    while True:
        last = not radius < limit  # an infinite or NaN radius included
        if last:
            radius = limit
        count = count_zeros(f, s, radius)
        if count is not None:
            return count, radius
        if last:
            return None
        radius *= 2.0


def _probe_circle(f, nu, center, radius, probes=None):
    """The nu-probe from ``center`` when it settles the circle
    (:func:`_settles`), else None. A probe that runs is added to
    ``probes``; a center at the origin, or a test polynomial that
    overflows or vanishes, settles nothing."""
    try:
        trace = iterate_test_nu(f, nu, center)
    except (OriginSeedError, ProbeOverflowError, ZeroPolynomialError):
        return None
    if probes is not None:
        probes[nu] = trace
    return trace if _settles(f, nu, trace, center, radius) else None


def _detect_at(f, s, probes):
    """The MultiplicityVerdict of the counted probe from s, or None when
    no count is made, it names no order in 1..deg f, or the probe does
    not settle its circle. Adds the probe to ``probes``."""
    counted = _smallest_count(f, s)
    if counted is None:
        return None
    count, radius = counted
    nu = round(count.real)
    if not 1 <= nu <= f.degree:
        return None
    trace = _probe_circle(f, nu, s, radius, probes)
    if trace is None:
        return None
    return MultiplicityVerdict(trace.final, nu, probes, count)


def detect_multiplicity(f, seed):
    """A root and its multiplicity from one seed: a zero count and one
    probe.

    The zeros of f are counted on the smallest circle around the seed that
    rounding allows, and the probe of the counted order nu runs from the
    seed. Its root is accepted when the probe settles the circle
    (:func:`_settles`). Otherwise the nu = 1 probe walks from the seed,
    and the count and its probe run again where the walk ends. A seed at
    the origin raises the walk's OriginSeedError.
    """
    probes = {}
    verdict = _detect_at(f, complex(seed), probes)
    if verdict is None:
        walk = iterate_test_nu(f, 1, seed)
        probes[1] = walk
        verdict = _detect_at(f, walk.final, probes)
    if verdict is None:
        raise NoMultiplicityError(
            "no multiplicity identified from seed %r; improve the seed"
            % (seed,))
    return verdict


@dataclass(frozen=True)
class ClusterVerdict:
    """One group of seeds settled by a zero count and a single probe.

    ``seeds`` holds the group's indices into the seed list, ascending.
    ``count`` is the unrounded count on the circle with ``center`` (the
    seeds' mean) and ``radius``; it rounds to ``multiplicity``, the
    group's size. The probe of that order from the center converged to
    ``root`` inside the circle."""

    seeds: tuple
    center: complex
    radius: float
    count: complex
    root: complex
    multiplicity: int
    probe: IterationTrace


def _circle(f, seeds, group):
    """(center, radius): the circle a group is counted on, around its
    seeds' mean with radius half the distance to the nearest seed outside
    it; with no seed outside, a circle that holds every zero."""
    members = [seeds[i] for i in group]
    center = sum(members) / len(members)
    outside = [abs(s - center) for k, s in enumerate(seeds) if k not in group]
    if outside:
        return center, 0.5 * min(outside)
    return center, _enclosing_radius(f, center)


def detect_clusters(f, seeds):
    """Multiplicities by counting, from approximations of all the roots.

    A nu-fold root shows up among the eigenvalues of a companion matrix as
    a cluster of nu seeds. Each seed starts as a group of its own, and
    each group is counted on a circle around its mean, with radius half
    the distance to the nearest seed outside it (:func:`_circle`). Every
    seed's own circle is counted before the first group is settled, in one
    :func:`count_zeros_all` pass; a merged group is counted when it forms
    (:func:`count_zeros`). A group whose count is declined, or is not its
    size nu, merges with the nearest group not yet settled (single
    linkage) and is counted again. Otherwise one probe of order nu runs
    from the mean, and the group is settled if that probe settles the
    circle (:func:`_probe_circle`). A group whose probe does not settle
    it (or whose size exceeds the degree), or that has no group left to
    merge with, is left over.

    Returns (verdicts, leftover): the ClusterVerdicts in the order they
    were settled and the leftover seed indices, ascending. The caller runs
    :func:`detect_multiplicity` on each leftover seed.
    """
    seeds = [complex(s) for s in seeds]
    circles = [_circle(f, seeds, (i,)) for i in range(len(seeds))]
    counts = count_zeros_all(f, [c for c, _ in circles],
                             [r for _, r in circles])
    queue = [(i,) for i in range(len(seeds))]
    verdicts = []
    leftover = []
    while queue:
        group = queue.pop(0)
        nu = len(group)
        if nu == 1:
            (center, radius), count = circles[group[0]], counts[group[0]]
        else:
            center, radius = _circle(f, seeds, group)
            count = count_zeros(f, center, radius)
        trace = None
        if count is None or abs(count - nu) >= 0.5:
            if queue:
                # Single linkage: the distance of the two closest members.
                nearest = min(queue, key=lambda g: min(
                    abs(seeds[i] - seeds[j]) for i in group for j in g))
                queue.remove(nearest)
                queue.insert(0, tuple(sorted(group + nearest)))
                continue
        elif nu <= f.degree:
            trace = _probe_circle(f, nu, center, radius)
        if trace is None:
            leftover.extend(group)
        else:
            verdicts.append(ClusterVerdict(tuple(group), center, radius,
                                           count, trace.final, nu, trace))
    return verdicts, sorted(leftover)
