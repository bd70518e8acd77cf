"""Seed generation on the real axis, plus an all-roots seed provider.

A step-delta scan watches the Pade function for sign changes; each change
brackets either a real root (the plain sweep crosses downward, the
reflected sweep upward) or, occasionally, a pole of p at a stationary point
of f. Plain and accelerated regula falsi turn brackets into seeds. For
spectra without real-axis structure the eigenvalues of the companion matrix
of f supply approximate roots, as MATLAB's ``roots`` does; they are seeds,
never the reported answer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompanionMatrixError,
    DerivativeUnderflowError,
    FlatSecantError,
    RealScanError,
    ZeroPolynomialError,
)
from .poly import pade_eval, relative_residual
from .refine import IterationTrace, TraceRow, TraceStatus

DEFAULT_SIGMA = 5
ACCELERATED_MAX_ROUNDS = 60
COMPANION_RESIDUAL_REL = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53


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
    """Scan samples (lam, p or None), brackets, and one complex seed per
    bracket."""

    samples: tuple
    brackets: tuple
    seeds: tuple = field(default_factory=tuple)
    co: bool = False


def scan_sign_changes(f, delta, co=False):
    """Sample p(lambda), or p(-lambda) on the reflected sweep, on j*delta
    and bracket every consecutive sign change.

    The grid runs from 0 to one step past ceil(B/delta)*delta, where B is
    ``f.root_bound`` (Fujiwara's bound): every root, and by Gauss-Lucas
    every pole of p, lies within B, so no bracket can start beyond it, and
    the extra step still brackets a root that sits exactly on B. A bound
    that is infinite, or so large that delta <= u*B (u = 2**-53) and the
    grid j*delta can no longer advance, raises RealScanError.

    Both sign orders are accepted; a downward crossing marks a root of the
    swept function, an upward one on the plain sweep can also be a pole of
    p between roots (it refines into a neighbouring root and is removed by
    deduplication downstream). Samples where the derivative guard fires are
    recorded with value None and scanning continues. Each bracket also
    yields a plain regula-falsi seed; on a reflected sweep the seed is
    negated back into the polynomial's own variable while samples and
    brackets stay in the sweep variable.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if not f.is_real():
        raise RealScanError(
            "real-axis scan needs real coefficients; supply external seeds "
            "or the fallback seed provider for complex spectra"
        )
    bound = f.root_bound
    if not math.isfinite(bound) or delta <= UNIT_ROUNDOFF * bound:
        raise RealScanError(
            "root bound %r is out of reach of a scan with step %r; supply "
            "external seeds or the fallback seed provider" % (bound, delta)
        )
    max_steps = max(2, int(math.ceil(bound / delta)) + 1)
    samples = []
    for j in range(max_steps + 1):
        lam = j * delta
        try:
            value = pade_eval(f, -lam if co else lam).real
        except (ZeroPolynomialError, DerivativeUnderflowError):
            value = None
        samples.append((lam, value))
    brackets = []
    seeds = []
    for (lo, p_lo), (hi, p_hi) in zip(samples, samples[1:]):
        if p_lo is None or p_hi is None:
            continue
        if p_lo * p_hi < 0:
            bracket = Bracket(lo, hi, p_lo, p_hi)
            brackets.append(bracket)
            value = regula_falsi_step(bracket)
            if co:
                value = -value
            seeds.append(complex(value))
    return ExplorationReport(tuple(samples), tuple(brackets), tuple(seeds), co)


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
