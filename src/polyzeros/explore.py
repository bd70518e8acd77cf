"""Seed generation on the real axis, plus an all-roots seed provider.

Near a nu-fold root the Pade function p = f/(-f') is a line of slope
-1/nu, so p falls through every real root whatever its multiplicity. One
step-delta scan of p over [-B, B] therefore sees every real root: a
downward sign change brackets one, and a grid point that is a root to
working precision is a seed itself. The plain regula-falsi point of a
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
    DerivativeUnderflowError,
    FlatSecantError,
    RealScanError,
    ZeroPolynomialError,
)
from .poly import UNIT_ROUNDOFF, horner_error_bound
from .poly import pade_eval, relative_residual
from .refine import IterationTrace, TraceRow, TraceStatus

DEFAULT_SIGMA = 5
ACCELERATED_MAX_ROUNDS = 60
COMPANION_RESIDUAL_REL = 1e-8


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


def scan_sign_changes(f, delta):
    """Sample p(lambda) on j*delta, j = -N..N, and seed every real root the
    grid sees.

    N = ceil(B/delta) + 1, where B is the smaller of ``f.root_bound``
    (Fujiwara's bound) and Kioustelidis' bounds on the real roots
    (:func:`_real_root_bound`): every real root lies in [-B, B], and the
    extra step still brackets a root that sits exactly on the bound. A bound that is infinite, or so
    large that delta <= u*B (u = 2**-53) and the grid j*delta can no longer
    advance, raises RealScanError.

    p falls through every real root, so only a downward crossing
    p_lo > 0 > p_hi makes a bracket, and its plain regula-falsi point is a
    seed; a pole of p at a stationary point of f is crossed upward and
    makes none. A grid point can sit on a root, where p is 0 or, at a
    multiple root, the derivative guard fires (the sample is recorded with
    value None). Such a point whose relative residual is within Horner's
    rounding error (:func:`horner_error_bound`) is itself a seed.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
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
    floor = horner_error_bound(f)
    samples, brackets, seeds = [], [], []
    lo = p_lo = None
    for j in range(-steps, steps + 1):
        lam = j * delta
        try:
            p = pade_eval(f, lam).real
        except (ZeroPolynomialError, DerivativeUnderflowError):
            p = None
        if not p:  # p is 0 or undefined: lam may be a root itself
            if relative_residual(f, lam) <= floor:
                seeds.append(complex(lam))
        elif p < 0.0 < (p_lo or 0.0):
            bracket = Bracket(lo, lam, p_lo, p)
            brackets.append(bracket)
            seeds.append(complex(regula_falsi_step(bracket)))
        samples.append((lam, p))
        lo, p_lo = lam, p
    return ExplorationReport(tuple(samples), tuple(brackets), tuple(seeds))


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


def companion_seed_all(f):
    """All roots at once: the eigenvalues of the companion matrix of f.

    Returns exactly degree-many values ordered by (re, im). Accuracy is a
    seed-provider target (about 1e-8 relative residual); multiple roots
    limit the attainable accuracy to the usual eps**(1/nu) cluster radius,
    which downstream multiplicity probing resolves.
    """
    if f.degree < 1:
        raise ZeroPolynomialError("need degree >= 1 to seed roots")
    try:
        with np.errstate(over="ignore"):
            z = np.roots(f.coeffs[::-1])
    except np.linalg.LinAlgError as exc:
        raise CompanionMatrixError(
            "companion matrix is not finite: making f monic overflows"
        ) from exc
    z = sorted((complex(w) for w in z), key=lambda w: (w.real, w.imag))
    low_confidence = any(
        relative_residual(f, w) > COMPANION_RESIDUAL_REL for w in z
    )
    return CompanionSeeds(tuple(z), low_confidence)
