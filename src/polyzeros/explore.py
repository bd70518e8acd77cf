"""Seed generation on the real axis, plus an all-roots seed provider.

Near a nu-fold root the Pade function p = f/(-f') is a line of slope
-1/nu, so p falls through every real root whatever its multiplicity. One
step-delta scan of p over [-B, B] therefore sees every real root: a
downward sign change brackets one, and a grid point that is a root to
working precision is a seed itself. The scan evaluates the whole grid in
one real Horner pass over numpy arrays, with the same bits as the scalar
:func:`pade_eval` at each point. The plain regula-falsi point of a
bracket is its seed; accelerated regula falsi refines a bracket further
on request. For spectra without real-axis structure the
eigenvalues of the companion matrix of f supply approximate roots, as
MATLAB's ``roots`` does; they are seeds, never the reported answer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompanionMatrixError,
    FlatSecantError,
    RealScanError,
    ZeroPolynomialError,
)
from .poly import DERIVATIVE_UNDERFLOW, UNIT_ROUNDOFF, power_error_bound
from .poly import evaluate, pade_eval, relative_residual, relative_residual_all
from .refine import IterationTrace, TraceRow, TraceStatus

DEFAULT_SIGMA = 5
ACCELERATED_MAX_ROUNDS = 60
COMPANION_RESIDUAL_REL = 1e-8
# From this degree on the companion-seed check takes its residuals from one
# relative_residual_all call; below it Horner's loop over the seeds costs
# less than that call's fixed cost of tens of microseconds (measured
# crossover near degree 16, real and complex coefficients alike).
COMPANION_ARRAY_DEGREE = 16


@dataclass(frozen=True)
class Bracket:
    """Two consecutive scan points with opposite Pade-function signs."""

    lam_lo: float
    lam_hi: float
    p_lo: float
    p_hi: float

    def __post_init__(self):
        if not self.lam_lo < self.lam_hi:
            raise ValueError("bracket endpoints must be ordered")
        if not self.p_lo * self.p_hi < 0:
            raise ValueError("bracket endpoints must have opposite signs")


@dataclass(frozen=True)
class ExplorationReport:
    """Scan samples (lam, p or None), downward brackets, and the seeds in
    increasing order."""

    samples: tuple
    brackets: tuple
    seeds: tuple


def _positive_root_bound(coeffs):
    """Kioustelidis' bound on the positive roots of sum a_j x**j, real
    a_j: 2 max (-a_j/a_m)**(1/(m-j)) over the a_j whose sign is opposite
    to a_m's, and 0 when there is none (Kioustelidis 1986, JCAM 16). Each
    term is formed as in :func:`fujiwara_root_bound`, so a term both
    bounds share gets the same bits."""
    m = len(coeffs) - 1
    lead = abs(coeffs[m])
    top = 0.0
    log_top = -math.inf
    for j, a in enumerate(coeffs[:m]):
        if a != 0.0 and (a < 0.0) != (coeffs[m] < 0.0):
            if j == m - 1:
                top = abs(a) / lead
            else:
                log_top = max(log_top,
                              (math.log(abs(a)) - math.log(lead)) / (m - j))
    try:
        return 2.0 * max(top, math.exp(log_top))
    except OverflowError:
        return math.inf


def _real_root_bound(f):
    """No real root of the real polynomial f lies beyond the smaller of
    ``f.root_bound`` and Kioustelidis' bounds on the positive roots of
    f(lambda) and of f(-lambda)."""
    coeffs = [a.real for a in f.coeffs]
    mirrored = [-a if j % 2 else a for j, a in enumerate(coeffs)]
    return min(f.root_bound, max(_positive_root_bound(coeffs),
                                 _positive_root_bound(mirrored)))


def _pade_on_grid(f, lams):
    """p = f/(-f') at every point of the real array ``lams`` in one real
    Horner pass, the mask of the points where :func:`pade_eval`'s
    derivative guard fires, and f itself (read only where p is finite).

    At a real lambda with real coefficients, :func:`evaluate`'s complex
    Horner keeps an imaginary part of +-0, so its real part runs exactly
    the real multiply/add sequence below, which float64 arrays round as
    Python's floats do; abs(f') is then |f'| and the complex quotient is
    f/(-f'). Those zero imaginary parts can flip the sign of a p that is
    exactly 0, the one bit this pass does not reproduce. Overflow differs
    too: an infinite real part times the imaginary 0 of lambda gives a
    NaN imaginary part, which the next step spreads to f and f', so a
    point whose f or f' is not finite before the last step gets NaN. A
    degree-0 f has f' = 0 and is guarded everywhere. numpy's complex
    multiply rounds differently, so the pass stays real.
    """
    coeffs = [a.real for a in f.coeffs]
    v = np.full(len(lams), coeffs[-1])
    d = np.zeros(len(lams))
    finite = True
    with np.errstate(all="ignore"):
        for k in range(len(coeffs) - 2, -1, -1):
            if k == 0:
                finite = np.isfinite(v) & np.isfinite(d)
            d = d * lams + v
            v = v * lams + coeffs[k]
        p = np.where(finite, v / -d, np.nan)
    return p, np.abs(d) <= DERIVATIVE_UNDERFLOW, v


def scan_sign_changes(f, delta):
    """Sample p(lambda) on j*delta, j = -N..N, and seed every real root the
    grid sees.

    N = ceil(B/delta) + 1, where B is the smaller of ``f.root_bound``
    (Fujiwara's bound) and Kioustelidis' bounds on the real roots
    (:func:`_real_root_bound`): every real root lies in [-B, B], and the
    extra step still brackets a root that sits exactly on the bound. A
    delta that is not positive and finite raises ValueError. A bound that
    is infinite, or so large that delta <= u*B (u = 2**-53) and the grid
    j*delta can no longer advance, raises RealScanError.

    p falls through every real root, so only a downward crossing
    p_lo > 0 > p_hi makes a bracket, and its plain regula-falsi point is a
    seed; a pole of p at a stationary point of f is crossed upward and
    makes none. A grid point can sit on a root, where p is 0 or, at a
    multiple root, the derivative guard fires (the sample is recorded with
    value None). Such a point whose relative residual is within the
    rounding floor (:func:`power_error_bound`) is itself a seed. A root
    can also share its cell with a pole of p, which a heavier root nearby
    pulls in: p then falls through the root and rises through the pole,
    and keeps its sign across the cell. f changes sign across such a cell
    when the root is of odd multiplicity, so a cell whose ends are not on
    a root, where f changes sign and p has no downward crossing, is seeded
    from regula falsi on f (:func:`_root_in_cell`); it makes no bracket.

    The whole grid is evaluated in one array pass (:func:`_pade_on_grid`)
    that gives the bits of :func:`pade_eval` at every point. The brackets
    and seeds are read from array masks in grid order. Only the few points
    where p is 0 or None, and the cells where p falls or f changes sign,
    are visited one by one: such a point takes the scalar residual test,
    and a p of 0 takes its sign from :func:`pade_eval`.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if not f.is_real():
        raise RealScanError(
            "real-axis scan needs real coefficients; supply external seeds "
            "or the fallback seed provider for complex spectra"
        )
    bound = _real_root_bound(f)
    if not math.isfinite(bound) or delta <= UNIT_ROUNDOFF * bound:
        raise RealScanError(
            "root bound %r is out of reach of a scan with step %r; supply "
            "external seeds or the fallback seed provider" % (bound, delta)
        )
    steps = max(2, int(math.ceil(bound / delta)) + 1)
    floor = power_error_bound(f)
    lams = np.arange(-steps, steps + 1) * delta
    p, guarded, fv = _pade_on_grid(f, lams)
    p[guarded] = np.nan
    on_root = guarded | (p == 0.0)
    down = np.zeros_like(on_root)
    down[1:] = (p[1:] < 0.0) & (p[:-1] > 0.0)
    negative = fv < 0.0
    flip = np.zeros_like(on_root)
    flip[1:] = negative[1:] != negative[:-1]
    grid, values = lams.tolist(), p.tolist()
    brackets, seeds = [], []
    for j in np.flatnonzero(on_root | down | flip).tolist():
        lam = grid[j]
        if on_root[j]:
            values[j] = None if guarded[j] else pade_eval(f, lam).real
            if relative_residual(f, lam) <= floor:
                seeds.append(complex(lam))
        elif down[j]:
            bracket = Bracket(grid[j - 1], lam, values[j - 1], values[j])
            brackets.append(bracket)
            seeds.append(complex(regula_falsi_step(bracket)))
        elif not on_root[j - 1] and math.isfinite(values[j - 1] + values[j]):
            # f changes sign where p does not fall: a pole shares the cell.
            seeds.append(complex(_root_in_cell(f, grid[j - 1], lam,
                                               fv[j - 1], fv[j], floor)))
    return ExplorationReport(tuple(zip(grid, values)), tuple(brackets),
                             tuple(seeds))


def _root_in_cell(f, lo, hi, f_lo, f_hi, floor):
    """A root of the real f in a cell [lo, hi] across which f changes
    sign: regula falsi on f, halving the value kept at an end that stays
    twice in a row (the Illinois rule). It stops at the first secant point
    whose relative residual is within ``floor``, that no longer falls
    strictly inside the cell, or that is the ACCELERATED_MAX_ROUNDS-th.

    The first secant point alone can lie on the far side of a pole of p,
    where a probe from it runs to the heavier root that made the pole.
    """
    moved = 0
    for _ in range(ACCELERATED_MAX_ROUNDS):
        lam = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < lam < hi or relative_residual(f, lam) <= floor:
            break
        value = evaluate(f, lam, 0)[0].real
        if (value < 0.0) == (f_lo < 0.0):
            lo, f_lo = lam, value
            f_hi = f_hi / 2.0 if moved > 0 else f_hi
            moved = 1
        else:
            hi, f_hi = lam, value
            f_lo = f_lo / 2.0 if moved < 0 else f_lo
            moved = -1
    return lam


def regula_falsi_step(bracket):
    """The secant point lambda_3 = lambda_1 - p_1/Delta_2 inside the bracket."""
    delta2 = (bracket.p_hi - bracket.p_lo) / (bracket.lam_hi - bracket.lam_lo)
    if delta2 == 0.0:
        raise FlatSecantError("flat secant over %r" % (bracket,))
    return bracket.lam_lo - bracket.p_lo / delta2


def accelerated_regula_falsi(f, bracket, sigma=DEFAULT_SIGMA):
    """Three-point accelerated bracketing with the 10**-sigma stopping rule.

    Starting from the bracket endpoints and the plain secant point, each
    round builds lambda_4 from ratio weights Q_2, Q_3 and difference
    quotients Delta_2, Delta_3, then shifts all indices by one. Stops when
    the newest |p| <= 10**-sigma or after ACCELERATED_MAX_ROUNDS rounds. A
    vanishing denominator falls back to a plain secant step on the two most
    recent opposite-sign points and is noted in the trace.
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")

    def pfun(lam):
        return pade_eval(f, lam).real

    tol = 10.0 ** (-sigma)
    notes = []
    l1, l2 = bracket.lam_lo, bracket.lam_hi
    p1, p2 = bracket.p_lo, bracket.p_hi
    l3 = regula_falsi_step(bracket)
    p3 = pfun(l3)
    points = [(l3, p3)]
    status = TraceStatus.MAX_ITERS
    if abs(p3) <= tol:
        status = TraceStatus.CONVERGED
    else:
        for _ in range(ACCELERATED_MAX_ROUNDS):
            delta2 = (p2 - p1) / (l2 - l1)
            delta3 = (p3 - p1) / (l3 - l1)
            q2 = p2 / p1
            q3 = p3 / p1
            denom = q2 * delta3 - q3 * delta2
            if denom == 0.0:
                fallback = None
                for (la, pa), (lb, pb) in (((l2, p2), (l3, p3)),
                                           ((l1, p1), (l3, p3)),
                                           ((l1, p1), (l2, p2))):
                    if pa * pb < 0:
                        lo, hi = sorted(((la, pa), (lb, pb)))
                        fallback = regula_falsi_step(
                            Bracket(lo[0], hi[0], lo[1], hi[1])
                        )
                        break
                if fallback is None:
                    notes.append("flat acceleration denominator; no "
                                 "opposite-sign pair to fall back on")
                    break
                notes.append("plain regula falsi fallback after flat "
                             "acceleration denominator")
                l4 = fallback
            else:
                l4 = l1 - (p2 - p3) / denom
            p4 = pfun(l4)
            points.append((l4, p4))
            if abs(p4) <= tol:
                status = TraceStatus.CONVERGED
                break
            l1, p1, l2, p2, l3, p3 = l2, p2, l3, p3, l4, p4

    rows = []
    for i, (lam, value) in enumerate(points):
        nxt = points[i + 1][0] if i + 1 < len(points) else lam
        rows.append(TraceRow(complex(lam), complex(value), complex(nxt - lam)))
    return IterationTrace(tuple(rows), status, tuple(notes))


@dataclass(frozen=True)
class CompanionSeeds:
    values: tuple
    low_confidence: bool


def companion_seed_all(f, real=False):
    """All roots at once: the eigenvalues of the companion matrix of f.

    Returns exactly degree-many values ordered by (re, im). Accuracy is a
    seed-provider target (about 1e-8 relative residual); multiple roots
    limit the attainable accuracy to the usual eps**(1/nu) cluster radius,
    which downstream multiplicity probing resolves. With ``real`` the
    companion matrix holds the real parts of f's coefficients and its
    eigenvalues come from real LAPACK, as exact conjugate pairs and
    exactly real values; the caller passes it only for an f whose
    coefficients are real by construction (det F of a real F). The seeds
    are low-confidence when a seed's relative residual is not at most
    COMPANION_RESIDUAL_REL (a NaN residual counts). From degree
    COMPANION_ARRAY_DEGREE on the residuals come from one
    :func:`poly.relative_residual_all` pass. Below it they come from
    :func:`poly.relative_residual`, seed by seed.
    """
    if f.degree < 1:
        raise ZeroPolynomialError("need degree >= 1 to seed roots")
    coeffs = f.coeffs[::-1]
    if real:
        coeffs = [a.real for a in coeffs]
    try:
        with np.errstate(over="ignore"):
            z = np.roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise CompanionMatrixError(
            "companion matrix is not finite: making f monic overflows"
        ) from exc
    z = sorted((complex(w) for w in z), key=lambda w: (w.real, w.imag))
    if f.degree >= COMPANION_ARRAY_DEGREE:
        residuals = relative_residual_all(f, z)
    else:
        residuals = (relative_residual(f, w) for w in z)
    low_confidence = any(not r <= COMPANION_RESIDUAL_REL for r in residuals)
    return CompanionSeeds(tuple(z), low_confidence)
