"""Fixed-point refinement iterations with trace recording.

Three iterations share one engine: the Pade step Lambda += p(Lambda), the
Halley step Lambda += h(Lambda), and the test-polynomial step
Lambda += P_nu(Lambda)*Lambda whose fixed points reveal root multiplicity.
Traces mirror printed iteration tables row by row, and a probe classifier
separates genuine (quadratic) convergence from the slow linear creep a
wrong-multiplicity probe produces. The multiplicity detector tries the
probes nearest the guess nu-hat = 1/(1 - f f''/f'^2) first and stops at
the first one the classifier and the Taylor ladder accept.
"""

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

from .errors import (
    DerivativeUnderflowError,
    HalleyDenominatorError,
    NoMultiplicityError,
    OriginSeedError,
    RayleighDenominatorError,
    TaylorRejectionError,
    ZeroPolynomialError,
)
from .poly import (
    TaylorVerdict,
    evaluate,
    halley_eval,
    pade_eval,
    relative_residual,
    taylor_multiplicity_test,
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
    rows: tuple
    status: TraceStatus
    notes: tuple = field(default_factory=tuple)

    @property
    def final(self):
        """The iterate after the last recorded step."""
        if not self.rows:
            raise ValueError("empty trace has no final iterate")
        last = self.rows[-1]
        return last.lam + last.step


def _run_iteration(step_fn, residual_fn, seed, settings, root_bound):
    """Shared fixed-point engine.

    Convergence needs two consecutive relatively small steps plus a
    relative residual ``residual_fn(lam)`` at most ``residual_tol``;
    sustained slow step ratios (>= SLOW_RATIO for SLOW_KILL_COUNT steps)
    end the run as MAX_ITERS; iterates beyond the divergence bound
    ``divergence_factor * (1 + root_bound)`` end it as DIVERGED.
    """
    divergence_bound = settings.divergence_factor * (1.0 + root_bound)
    lam = complex(seed)
    rows = []
    prev_small = False
    prev_step_mag = None
    slow_run = 0
    status = TraceStatus.MAX_ITERS
    step_tol = settings.step_tol
    residual_tol = settings.residual_tol
    for _ in range(settings.max_iters):
        try:
            step = step_fn(lam)
        except (DerivativeUnderflowError, HalleyDenominatorError,
                RayleighDenominatorError, ZeroDivisionError,
                OverflowError) as exc:
            status = TraceStatus.NUMERICAL_ERROR
            rows.append(TraceRow(lam, complex("nan"), 0j))
            return IterationTrace(tuple(rows), status, (str(exc),))
        rows.append(TraceRow(lam, step, step))
        nxt = lam + step
        step_mag = abs(step)
        small = step_mag <= step_tol * (1.0 + abs(nxt))
        if small and prev_small:
            if residual_fn(nxt) <= residual_tol:
                return IterationTrace(tuple(rows), TraceStatus.CONVERGED)
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
    return IterationTrace(tuple(rows), status)


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


def iterate_pade(f, seed, settings=DEFAULT_SETTINGS):
    """Iterate Lambda += p(Lambda) from the seed; quadratic at simple roots,
    linear with ratio 1 - 1/nu at nu-fold roots."""
    if f.degree < 1:
        raise ZeroPolynomialError("pade iteration needs degree >= 1")
    return _run_iteration(lambda lam: pade_eval(f, lam),
                          partial(relative_residual, f), seed, settings,
                          f.root_bound)


def iterate_halley(f, seed, settings=DEFAULT_SETTINGS):
    """Iterate Lambda += h(Lambda) from the seed."""
    if f.degree < 2:
        raise ZeroPolynomialError("halley iteration needs degree >= 2")
    return _run_iteration(lambda lam: halley_eval(f, lam),
                          partial(relative_residual, f), seed, settings,
                          f.root_bound)


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

    def step_fn(lam):
        v_lo = 0j
        for a in lo_top:
            v_lo = v_lo * lam + a
        v_hi = 0j
        for b in hi_top:
            v_hi = v_hi * lam + b
        for a, b in pairs:
            v_lo = v_lo * lam + a
            v_hi = v_hi * lam + b
        if abs(v_hi) <= 1e-290 * max(1.0, abs(v_lo)):
            raise ZeroDivisionError("f_%d vanishes at %r" % (nu, lam))
        return (v_lo / v_hi) * lam

    return _run_iteration(step_fn, partial(relative_residual, f), seed,
                          settings, root_bound)


@dataclass(frozen=True)
class MultiplicityVerdict:
    root: complex
    multiplicity: int
    probes: dict
    taylor: TaylorVerdict


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


def _guess_multiplicity(f, seed, nu_max):
    """nu-hat = |1/(1 - f f''/f'^2)| at the seed, rounded into 1..nu_max.

    Near a nu-fold root the Pade line p = f/(-f') has slope
    p' = -(1 - f f''/f'^2) = -1/nu. An undefined or non-finite guess
    gives 1.
    """
    v, d1, d2 = evaluate(f, seed, 2)
    try:
        guess = abs(1.0 / (1.0 - v * d2 / (d1 * d1)))
    except (ZeroDivisionError, OverflowError):
        return 1
    if not math.isfinite(guess):
        return 1
    return min(max(round(guess), 1), nu_max)


def detect_multiplicity(f, seed, nu_max=None, settings=DEFAULT_SETTINGS):
    """Probe nu = 1..nu_max from one seed, nearest the guess nu-hat first.

    The probes run in order of |nu - nu-hat| (the smaller nu first on ties)
    and detection stops at the first one that converges quadratically and
    whose root passes the Taylor ladder. The ladder accepts exactly one nu
    at a given root, so that probe gives both the root and its
    multiplicity. ``probes`` holds the probes that ran, the winner
    included.
    """
    if nu_max is None:
        nu_max = f.degree
    if nu_max < 1:
        raise ValueError("nu_max must be >= 1")
    guess = _guess_multiplicity(f, seed, nu_max)
    probes = {}
    for nu in sorted(range(1, nu_max + 1), key=lambda k: (abs(k - guess), k)):
        try:
            trace = iterate_test_nu(f, nu, seed, settings)
        except ZeroPolynomialError:
            continue
        probes[nu] = trace
        if not probe_strictly_converged(trace, settings):
            continue
        try:
            verdict = taylor_multiplicity_test(f, trace.final, nu)
        except TaylorRejectionError:
            continue
        return MultiplicityVerdict(trace.final, nu, probes, verdict)
    raise NoMultiplicityError(
        "no multiplicity identified from seed %r; improve the seed" % (seed,)
    )
