"""Fixed-point refinement iterations with trace recording.

Every iteration runs one stopping rule, written once as a per-seed
generator that yields its iterate and is sent its step (:func:`_iteration`).
A batch driver sends every seed still running the step computed for all
of them in one call (:func:`_run_batch`), and one seed is a batch of one.
The Pade step Lambda += p(Lambda) and the Halley step Lambda += h(Lambda)
take array steps: f, f' and f'' at all iterates come from one power
matrix (:func:`evaluate_all`), and the kernel decides from those arrays
alone, point by point, the step or the exception that ends the seed. The
test-polynomial step Lambda += P_nu(Lambda)*Lambda, whose fixed points
reveal root multiplicity, keeps its scalar Horner step and runs one seed
at a time.
Traces mirror printed iteration tables row by row, and a probe classifier
separates genuine (quadratic) convergence from the slow linear creep a
wrong-multiplicity probe produces.

Multiplicity is counted, not guessed: the argument principle counts the
zeros on a circle (:func:`count_zeros`), and one probe of the counted
order finds the root. A probe is accepted only where it converges inside
the circle to a point that is a root of that multiplicity to working
precision. The per-seed detector counts on the smallest circle around the
seed that rounding allows (:func:`detect_multiplicity`). Given
approximations of all the roots, such as companion-matrix eigenvalues, a
nu-fold root shows up as a cluster of nu seeds, counted on a circle
around the cluster's mean (:func:`detect_clusters`).
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
    ZeroPolynomialError,
)
from .poly import (
    DERIVATIVE_UNDERFLOW,
    UNIT_ROUNDOFF,
    evaluate,
    evaluate_all,
    horner_error_bound,
    relative_residual,
    test_polynomial,
)

DEFAULT_MAX_ITERS = 100
DEFAULT_STEP_TOL = 1e-12
DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_DIVERGENCE_FACTOR = 10.0

# A wrong-multiplicity probe contracts linearly with ratio (nu-k)/(nu-k+1)
# for some k, never below 1/2; ratios at or above SLOW_RATIO sustained for
# SLOW_KILL_COUNT consecutive steps terminate the iteration early.
SLOW_RATIO = 0.4
SLOW_KILL_COUNT = 20
# Each last significant step of a converged probe shrinks by this ratio.
PROBE_CONTRACTION = 10.0

ROOT_IDENTITY_REL = 1e-8
ORIGIN_GUARD_REL = 1e-8

# Trapezoidal nodes of a zero count. Zeros at distance rho inside, or rho
# outside, a circle of radius r move the count by about (rho/r)**N and
# (r/rho)**N; a group circle has its nearest outside seed at 2r.
COUNT_NODES = 16
_COUNT_UNITS = tuple(cmath.exp(2j * math.pi * k / COUNT_NODES)
                     for k in range(COUNT_NODES))


class TraceStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"
    DIVERGED = "diverged"
    NUMERICAL_ERROR = "numerical-error"


@dataclass(frozen=True)
class IterationSettings:
    max_iters: int = DEFAULT_MAX_ITERS
    step_tol: float = DEFAULT_STEP_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    divergence_factor: float = DEFAULT_DIVERGENCE_FACTOR

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if min(self.step_tol, self.residual_tol) <= 0:
            raise ValueError("tolerances must be > 0")
        if self.divergence_factor <= 1:
            raise ValueError("divergence_factor must be > 1")


DEFAULT_SETTINGS = IterationSettings()


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
    relative residual the convergence test passed at the final iterate
    (None unless CONVERGED)."""

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


def _iteration(seed, residual_fn, settings, divergence_bound):
    """The stopping rule of every refinement iteration, for one seed.

    A generator: it yields each iterate and is sent the step taken there,
    or the exception the step kernel found there instead; it returns the
    IterationTrace. Convergence needs two consecutive relatively small
    steps plus a relative residual ``residual_fn(lam)`` at most
    ``residual_tol``, which the trace keeps; sustained slow step ratios
    (>= SLOW_RATIO for SLOW_KILL_COUNT steps) end the run as MAX_ITERS;
    iterates beyond ``divergence_bound``, or whose modulus or step passes
    the float range, end it as DIVERGED, and an exception ends it as
    NUMERICAL_ERROR with its text as the note.
    """
    lam = complex(seed)
    rows = []
    prev_small = False
    prev_step_mag = None
    slow_run = 0
    step_tol = settings.step_tol
    residual_tol = settings.residual_tol
    for _ in range(settings.max_iters):
        step = yield lam
        if isinstance(step, Exception):
            rows.append(TraceRow(lam, complex("nan"), 0j))
            return IterationTrace(tuple(rows), TraceStatus.NUMERICAL_ERROR,
                                  (str(step),))
        rows.append(TraceRow(lam, step, step))
        nxt = lam + step
        try:
            step_mag = abs(step)
            small = step_mag <= step_tol * (1.0 + abs(nxt))
        except OverflowError:  # a modulus beyond the float range
            return IterationTrace(tuple(rows), TraceStatus.DIVERGED)
        if small and prev_small:
            residual = residual_fn(nxt)
            if residual <= residual_tol:
                return IterationTrace(tuple(rows), TraceStatus.CONVERGED,
                                      residual=residual)
        if prev_step_mag:
            ratio = step_mag / prev_step_mag
            slow_run = slow_run + 1 if ratio >= SLOW_RATIO else 0
            if slow_run >= SLOW_KILL_COUNT:
                return IterationTrace(
                    tuple(rows),
                    TraceStatus.MAX_ITERS,
                    ("terminated early: %d consecutive step ratios >= %g"
                     % (SLOW_KILL_COUNT, SLOW_RATIO),),
                )
        prev_small = small
        prev_step_mag = step_mag
        lam = nxt
        if abs(lam) > divergence_bound:
            return IterationTrace(tuple(rows), TraceStatus.DIVERGED)
    return IterationTrace(tuple(rows), TraceStatus.MAX_ITERS)


def _run_batch(steps_fn, residual_fn, seeds, settings, root_bound):
    """Refine every seed at once: one IterationTrace per seed, in order.

    ``steps_fn(lams)`` gets the current iterates of the seeds still
    running, as a list of complex, and returns their steps in the same
    order: each a complex, or the exception that ends that seed as
    NUMERICAL_ERROR. Each seed runs the stopping rule of
    :func:`_iteration`, so a seed's trace is the one the same step
    function gives it alone. Iterates beyond
    ``divergence_factor * (1 + root_bound)`` diverge.
    """
    divergence_bound = settings.divergence_factor * (1.0 + root_bound)
    runs = [_iteration(s, residual_fn, settings, divergence_bound)
            for s in seeds]
    lams = [next(run) for run in runs]
    traces = [None] * len(runs)
    active = list(range(len(runs)))
    while active:
        steps = steps_fn([lams[i] for i in active])
        running = []
        for i, step in zip(active, steps):
            try:
                lams[i] = runs[i].send(step)
            except StopIteration as stop:
                traces[i] = stop.value
            else:
                running.append(i)
        active = running
    return traces


def same_root(a, b):
    """Root identity: a and b agree to ROOT_IDENTITY_REL relative."""
    return abs(a - b) <= ROOT_IDENTITY_REL * (1.0 + min(abs(a), abs(b)))


def group_roots(items, value):
    """Group items greedily, in input order: an item joins the first group
    whose first member is the same root (``same_root`` on ``value(item)``).

    The group heads are kept sorted by real part. A head whose real part
    lies further than twice the identity radius from the item's cannot be
    the same root, so only the heads inside that window are tested, oldest
    group first. Input sorted by real part keeps the window short.
    """
    groups = []
    head_re = []
    head_index = []
    for item in items:
        x = value(item)
        reach = 2.0 * ROOT_IDENTITY_REL * (1.0 + abs(x))
        lo = bisect_left(head_re, x.real - reach)
        hi = bisect_right(head_re, x.real + reach)
        for k in sorted(head_index[lo:hi]):
            if same_root(value(groups[k][0]), x):
                groups[k].append(item)
                break
        else:
            at = bisect_right(head_re, x.real, lo, hi)
            head_re.insert(at, x.real)
            head_index.insert(at, len(groups))
            groups.append([item])
    return groups


def _pade_steps(f, lams):
    """The Pade steps p = f/(-f') at every point, from one
    :func:`evaluate_all`, and the error of :func:`poly.pade_eval`."""
    with np.errstate(all="ignore"):
        v, d = evaluate_all(f, lams, 1)
        steps = (v / -d).tolist()
    for i in np.flatnonzero(np.abs(d) <= DERIVATIVE_UNDERFLOW):
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
    flat = np.abs(d1) <= DERIVATIVE_UNDERFLOW
    for i in np.flatnonzero(flat | (np.abs(den) <= DERIVATIVE_UNDERFLOW)):
        steps[i] = (
            DerivativeUnderflowError("derivative vanishes at %r" % (lams[i],))
            if flat[i] else HalleyDenominatorError(
                "halley denominator 1+pq vanishes at %r" % (lams[i],)))
    return steps


def iterate_pade_all(f, seeds, settings=DEFAULT_SETTINGS):
    """:func:`iterate_pade` from every seed at once, one trace per seed."""
    if f.degree < 1:
        raise ZeroPolynomialError("pade iteration needs degree >= 1")
    return _run_batch(partial(_pade_steps, f), partial(relative_residual, f),
                     seeds, settings, f.root_bound)


def iterate_halley_all(f, seeds, settings=DEFAULT_SETTINGS):
    """:func:`iterate_halley` from every seed at once, one trace per
    seed."""
    if f.degree < 2:
        raise ZeroPolynomialError("halley iteration needs degree >= 2")
    return _run_batch(partial(_halley_steps, f), partial(relative_residual, f),
                     seeds, settings, f.root_bound)


def iterate_pade(f, seed, settings=DEFAULT_SETTINGS):
    """Iterate Lambda += p(Lambda) from the seed; quadratic at simple roots,
    linear with ratio 1 - 1/nu at nu-fold roots."""
    return iterate_pade_all(f, (seed,), settings)[0]


def iterate_halley(f, seed, settings=DEFAULT_SETTINGS):
    """Iterate Lambda += h(Lambda) from the seed."""
    return iterate_halley_all(f, (seed,), settings)[0]


def iterate_test_nu(f, nu, seed, settings=DEFAULT_SETTINGS):
    """Iterate the nu-probe: step = (f_{nu-1}/f_nu)(Lambda) * Lambda.

    Converges quadratically from nearby seeds exactly when nu equals the
    root's multiplicity; under-probes creep linearly, over-probes move away.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    root_bound = f.root_bound
    if abs(complex(seed)) <= ORIGIN_GUARD_REL * (1.0 + root_bound):
        raise OriginSeedError(
            "seed too close to origin for p_nu; shift the polynomial by "
            "lambda -> lambda + c first"
        )
    lo = test_polynomial(f, nu - 1).coeffs
    hi = test_polynomial(f, nu).coeffs
    if not hi:
        raise ZeroPolynomialError("test polynomial f_%d is identically zero" % nu)
    # One Horner pass evaluates f_{nu-1} and f_nu together. Trimming can
    # leave them of different lengths (f_nu of a degree-1 f is a constant):
    # the longer one's extra top coefficients are run alone first, so each
    # value gets exactly the operations of evaluate().
    n = min(len(lo), len(hi))
    lo_top = tuple(reversed(lo[n:]))
    hi_top = tuple(reversed(hi[n:]))
    pairs = tuple(zip(reversed(lo[:n]), reversed(hi[:n])))

    def steps(lams):
        # A batch of one, in scalar Horner: one evaluate_all point costs
        # ten times what this loop does.
        lam = lams[0]
        v_lo = 0j
        for a in lo_top:
            v_lo = v_lo * lam + a
        v_hi = 0j
        for b in hi_top:
            v_hi = v_hi * lam + b
        for a, b in pairs:
            v_lo = v_lo * lam + a
            v_hi = v_hi * lam + b
        try:
            if abs(v_hi) <= 1e-290 * max(1.0, abs(v_lo)):
                return [ZeroDivisionError("f_%d vanishes at %r" % (nu, lam))]
        except OverflowError as exc:  # a modulus beyond the float range
            return [exc]
        return [(v_lo / v_hi) * lam]

    return _run_batch(steps, partial(relative_residual, f), (seed,),
                      settings, root_bound)[0]


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


def probe_strictly_converged(trace, settings=DEFAULT_SETTINGS):
    """True when a probe trace shows genuine (fast) convergence.

    On top of the engine's CONVERGED status the last significant steps
    (those above the relative step tolerance) must each contract by
    PROBE_CONTRACTION; a linear creep that merely stalled into the residual
    test fails this. With at most one significant step the check passes
    vacuously (the seed was already at the root).
    """
    if trace.status is not TraceStatus.CONVERGED:
        return False
    significant = [
        abs(r.step)
        for r in trace.rows
        if abs(r.step) > settings.step_tol * (1.0 + abs(r.lam))
    ]
    tail = significant[-3:]
    for a, b in zip(tail, tail[1:]):
        if a > 0.0 and b / a > 1.0 / PROBE_CONTRACTION:
            return False
    return True


def count_zeros(f, center, radius):
    """The zeros of f in |lambda - center| < radius, (1/2 pi i) oint f'/f,
    by the trapezoidal rule on COUNT_NODES nodes; None when rounding could
    move it by half a zero.

    Node k adds term_k / N, term_k = w f'(z)/f(z) with w = radius * omega**k
    and z = center + w. Horner gets f(z) right to g S and f'(z) to about
    g S_1, where g = horner_error_bound(f), S = coefficient_scale(f, z) and
    S_1 = sum j |a_j| |z|**(j-1). That moves term_k by at most
    (|term_k| g S + |w| g S_1) / (|f(z)| - g S), which is below 1/2, and so
    is the error of the mean, exactly when the node's relative residual
    |f(z)|/S exceeds g (1 + 2 |term_k| + 2 |w| S_1/S). A node at or inside
    that margin of the rounding floor declines the whole count.
    """
    center = complex(center)
    floor = horner_error_bound(f)
    terms = tuple((a, abs(a)) for a in reversed(f.coeffs))
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


def _settles(f, nu, trace, center, radius):
    """True when a nu-probe settles the circle it was counted on: it
    converged inside the circle to a point where f_0..f_{nu-2} vanish to
    working precision (relative residuals within ``horner_error_bound(f)``).

    The probe's own convergence only makes f_{nu-1} vanish, which also
    happens between distinct roots whose multiplicities add up to nu.
    """
    if (trace.status is not TraceStatus.CONVERGED
            or not abs(trace.final - center) < radius):
        return False
    floor = horner_error_bound(f)
    return not any(
        relative_residual(test_polynomial(f, k), trace.final) > floor
        for k in range(nu - 1))


def _smallest_count(f, s):
    """(count, radius): the zeros of f on the smallest circle around s
    whose count is not declined, or None when every circle is.

    The first radius is m |f(s)/f'(s)|, m = deg f, and at least
    u (1 + |s|): f'/f = sum 1/(s - r_j) puts some zero r_j that close to
    s. The radius doubles up to 2 (root_bound + |s|), where the circle
    holds every zero.
    """
    limit = 2.0 * (f.root_bound + abs(s))
    v, d = evaluate(f, s, 1)
    try:
        radius = f.degree * abs(v / d)
    except ZeroDivisionError:
        radius = 0.0
    radius = max(radius, UNIT_ROUNDOFF * (1.0 + abs(s)))
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


def _detect_at(f, s, nu_max, settings, probes):
    """The MultiplicityVerdict of the counted probe from s, or None when
    no count is made, it names no order in 1..nu_max, or the probe does
    not settle its circle. Adds the probe to ``probes``."""
    counted = _smallest_count(f, s)
    if counted is None:
        return None
    count, radius = counted
    nu = round(count.real)
    if not 1 <= nu <= nu_max:
        return None
    try:
        trace = iterate_test_nu(f, nu, s, settings)
    except ZeroPolynomialError:
        return None
    probes[nu] = trace
    if not _settles(f, nu, trace, s, radius):
        return None
    return MultiplicityVerdict(trace.final, nu, probes, count)


def detect_multiplicity(f, seed, nu_max=None, settings=DEFAULT_SETTINGS):
    """A root and its multiplicity from one seed: a zero count and one
    probe.

    The zeros of f are counted on the smallest circle around the seed that
    rounding allows, and the probe of the counted order nu runs from the
    seed. Its root is accepted when the probe settles the circle
    (:func:`_settles`). Otherwise the nu = 1 probe walks from the seed,
    and the count and its probe run again where the walk ends.
    """
    if nu_max is None:
        nu_max = f.degree
    if nu_max < 1:
        raise ValueError("nu_max must be >= 1")
    probes = {}
    verdict = _detect_at(f, complex(seed), nu_max, settings, probes)
    if verdict is None:
        walk = iterate_test_nu(f, 1, seed, settings)
        probes[1] = walk
        verdict = _detect_at(f, walk.final, nu_max, settings, probes)
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


# How detect_clusters goes on with a group _settle_group does not accept.
_MERGE = "merge"
_LEAVE_OVER = "leave over"


def _settle_group(f, seeds, group, nu_max, settings):
    """A ClusterVerdict for the group; otherwise _MERGE when its count is
    declined or is not its size, and _LEAVE_OVER when the count is its
    size but the probe of that order from the seeds' mean does not settle
    the circle (:func:`_settles`).
    """
    members = [seeds[i] for i in group]
    center = sum(members) / len(members)
    outside = [abs(s - center) for k, s in enumerate(seeds) if k not in group]
    if outside:
        radius = 0.5 * min(outside)
    else:
        # Every zero lies within root_bound of the origin.
        radius = 2.0 * (f.root_bound + abs(center))
    count = count_zeros(f, center, radius)
    nu = len(group)
    if count is None or abs(count - nu) >= 0.5:
        return _MERGE
    if nu > nu_max:
        return _LEAVE_OVER
    try:
        trace = iterate_test_nu(f, nu, center, settings)
    except (OriginSeedError, ZeroPolynomialError):
        return _LEAVE_OVER
    if not _settles(f, nu, trace, center, radius):
        return _LEAVE_OVER
    return ClusterVerdict(tuple(group), center, radius, count, trace.final,
                          nu, trace)


def detect_clusters(f, seeds, nu_max=None, settings=DEFAULT_SETTINGS):
    """Multiplicities by counting, from approximations of all the roots.

    A nu-fold root shows up among the eigenvalues of a companion matrix as
    a cluster of nu seeds. Each seed starts as a group of its own, and
    each group is counted on a circle around its mean, with radius half
    the distance to the nearest seed outside it. When the count rounds to
    the group's size nu, one probe of order nu runs from the mean, and
    the group is settled if that probe settles the circle
    (:func:`_settle_group`). A group whose count is declined, or is not
    its size, merges with the nearest group not yet settled (single
    linkage) and is counted again. A group whose probe does not settle it,
    or that has no group left to merge with, is left over.

    Returns (verdicts, leftover): the ClusterVerdicts in the order they
    were settled and the leftover seed indices, ascending. The caller runs
    :func:`detect_multiplicity` on each leftover seed.
    """
    if nu_max is None:
        nu_max = f.degree
    if nu_max < 1:
        raise ValueError("nu_max must be >= 1")
    seeds = [complex(s) for s in seeds]
    queue = [(i,) for i in range(len(seeds))]
    verdicts = []
    leftover = []
    while queue:
        group = queue.pop(0)
        outcome = _settle_group(f, seeds, group, nu_max, settings)
        if isinstance(outcome, ClusterVerdict):
            verdicts.append(outcome)
        elif outcome is _MERGE and queue:
            # Single linkage: the distance of the two closest members.
            nearest = min(queue, key=lambda g: min(
                abs(seeds[i] - seeds[j]) for i in group for j in g))
            queue.remove(nearest)
            queue.insert(0, tuple(sorted(group + nearest)))
        else:
            leftover.extend(group)
    return verdicts, sorted(leftover)
