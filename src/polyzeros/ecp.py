"""Defect lists: interpolation values, main values, and their machinery.

Given pairwise distinct interpolation values sigma_1..sigma_m for a degree-m
polynomial, the list holds three columns: the sigma_k, the defects d_k =
f(sigma_k) / (a_m * prod_{j!=k} (sigma_k - sigma_j)) and the main values
H_k = sigma_k - d_k.
The list determines the polynomial completely: the accompanying matrix
E = Diag(sigma) - ones * d^T has exactly the roots of f as eigenvalues, the
main values sum to -a_{m-1}/a_m (the control identity), the rational
function S_1(lambda) - 1 vanishes exactly at the roots, and replacing the
interpolation values by the main values (an evolution) contracts the
defects quadratically near simple roots. Gershgorin disks around the main
values give computable enclosures.

The list iterations (the Rayleigh quotient and the reduced Pade step)
refine main values through the partial sums S_1, S_2, S_sigma, all rows'
at once: one kernel takes the sums at every iterate from one iterates x
rows matrix of 1/(sigma_k - Lambda), and decides from them alone each
iterate's step or the error that ends it. They stop on f's own relative
residual, the test every reported root is graded by, taken for all
iterates in one array pass (:func:`poly.relative_residual_all`, floor
:func:`poly.power_error_bound`): |S_1 - 1| cancels near an interpolation
value that already sits on a root, so it cannot tell a converged row from
a creeping one.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    EvolutionCollisionError,
    InterpolationValueError,
    RayleighDenominatorError,
    ZeroPolynomialError,
)
from .poly import evaluate_all, power_error_bound, relative_residual
from .refine import _run_steps

SEPARATION_REL = 1e-12
DENOMINATOR_UNDERFLOW = 1e-290
EVOLUTION_THRESHOLD_REL = 1e-12
MAX_EVOLUTIONS = 20


@dataclass(frozen=True)
class EcpList:
    """The list as three columns; row k is (sigmas[k], defects[k],
    main_values[k])."""

    sigmas: tuple
    defects: tuple
    main_values: tuple
    degree: int
    leading_coeff: complex
    subleading_coeff: complex

    def is_real(self):
        return all(s.imag == 0.0 and d.imag == 0.0
                   for s, d in zip(self.sigmas, self.defects))


def _check_separation(values, label):
    """Raise on the first pair i < j (in row-major order) of values within
    SEPARATION_REL * (1 + max|v|) of each other."""
    values = np.array(values, dtype=complex)
    scale = 1.0 + np.abs(values).max()
    close = np.abs(values[:, None] - values[None, :]) <= SEPARATION_REL * scale
    pairs = np.argwhere(np.triu(close, 1))
    if len(pairs):
        i, j = (int(k) for k in pairs[0])
        raise InterpolationValueError(
            "%s %d and %d coincide" % (label, i, j), (i, j)
        )


def build_ecp_list(f, sigmas):
    """Build the (sigma, defect, main value) list for f at the given values.

    Each denominator a_m prod_{j!=k} (sigma_k - sigma_j) is multiplied out
    in fixed row order, and every f(sigma_k) comes from one
    :func:`poly.evaluate_all` pass, good to gamma_{4m+1} times
    sum |a_j| |sigma_k|**j (:func:`poly.power_error_bound`); neither
    depends on the order of the other rows' arithmetic, so repeated builds
    are bit-reproducible. Coincident or clustered interpolation values
    raise with the offending indices.
    """
    m = f.degree
    if m < 1:
        raise ZeroPolynomialError("need degree >= 1")
    sigmas = np.array(sigmas, dtype=complex)
    if len(sigmas) != m:
        raise InterpolationValueError(
            "expected %d interpolation values, got %d" % (m, len(sigmas))
        )
    _check_separation(sigmas, "interpolation values")
    a_m = f.coeffs[m]
    a_m1 = f.coeffs[m - 1]
    # Row k: a_m, then sigma_k - sigma_j for every j, with 1 at j = k.
    factors = np.empty((m, m + 1), dtype=complex)
    factors[:, 0] = a_m
    factors[:, 1:] = sigmas[:, None] - sigmas[None, :]
    factors[:, 1:][np.diag_indices(m)] = 1.0
    with np.errstate(all="ignore"):
        denoms = np.multiply.reduce(factors, axis=1)
        clustered = np.flatnonzero(np.abs(denoms) <= DENOMINATOR_UNDERFLOW)
        if len(clustered):
            k = int(clustered[0])
            raise InterpolationValueError(
                "interpolation values too clustered around index %d" % k, (k,)
            )
    defects = tuple(v / denom for v, denom in zip(
        evaluate_all(f, sigmas)[0].tolist(), denoms.tolist()))
    sigmas = tuple(sigmas.tolist())
    main_values = tuple(sk - d for sk, d in zip(sigmas, defects))
    return EcpList(sigmas, defects, main_values, m, a_m, a_m1)


@dataclass(frozen=True)
class SumControl:
    expected: complex
    actual: complex
    discrepancy: float


def sum_control(lst):
    """Check the control identity: sum of main values = -a_{m-1}/a_m."""
    expected = -lst.subleading_coeff / lst.leading_coeff
    actual = 0j
    for h in lst.main_values:
        actual += h
    discrepancy = abs(actual - expected) / (1.0 + abs(expected))
    return SumControl(expected, actual, discrepancy)


def ecp_matrix(lst):
    """The accompanying matrix E = Diag(sigma) - ones * d^T.

    Its diagonal is the main-value column; every column k repeats -d_k off
    the diagonal, and the spectrum equals the roots of the underlying
    polynomial.
    """
    return (np.diag(np.array(lst.sigmas, dtype=complex))
            - np.array(lst.defects, dtype=complex))


def _list_steps(rayleigh, sigmas, defects, f, lams):
    """The Rayleigh steps (``rayleigh``) or the reduced Pade steps at
    every point, from one points x rows matrix of 1/(sigma_k - Lambda)
    summed point by point without BLAS.

    A point within DENOMINATOR_UNDERFLOW (1 + |sigma_k|) of an
    interpolation value (the first such row k) takes step 0 if sigma_k is
    a root of f to working precision, and otherwise gets a
    RayleighDenominatorError, as where S_2 is at underflow level. S_2
    overflows there unless |sigma_k| exceeds about 1e136, so only points
    whose S_2 is not finite or at underflow level are looked at again.
    """
    points = np.array(lams)
    with np.errstate(all="ignore"):
        inverse = 1.0 / (sigmas[None, :] - points[:, None])
        s1 = np.einsum("ij,j->i", inverse, defects)
        inverse *= inverse
        s2 = np.einsum("ij,j->i", inverse, defects)
        scale = 1.0 + np.abs(s1)
        if rayleigh:
            s_sigma = np.einsum("ij,j->i", inverse, defects * sigmas)
            scale += np.abs(s_sigma)
            steps = (s_sigma - s1 * s1) / s2 - points
        else:
            steps = (s1 - 1.0) / -s2
        vanished = np.abs(s2) <= DENOMINATOR_UNDERFLOW * scale
    steps = steps.tolist()
    for i in np.flatnonzero(vanished | ~np.isfinite(s2)):
        near = np.flatnonzero(np.abs(sigmas - points[i]) <= DENOMINATOR_UNDERFLOW
                              * (1.0 + np.abs(sigmas)))
        if len(near):
            sigma = complex(sigmas[near[0]])
            if relative_residual(f, sigma) <= power_error_bound(f):
                steps[i] = 0j
            else:
                steps[i] = RayleighDenominatorError(
                    "iterate coincides with interpolation value %r" % (sigma,))
        elif vanished[i]:
            steps[i] = RayleighDenominatorError(
                "%s denominator S_2 vanished"
                % ("rayleigh" if rayleigh else "reduced"))
    return steps


def _iterate_list(rayleigh, lst, f, seeds):
    """Every seed's trace under one list iteration."""
    sigmas = np.array(lst.sigmas, dtype=complex)
    defects = np.array(lst.defects, dtype=complex)
    return _run_steps(f, partial(_list_steps, rayleigh, sigmas, defects),
                      seeds)


def rayleigh_iterate_all(lst, f, seeds):
    """:func:`rayleigh_iterate` from every seed at once, one trace per
    seed."""
    return _iterate_list(True, lst, f, seeds)


def reduced_pade_iterate_all(lst, f, seeds):
    """:func:`reduced_pade_iterate` from every seed at once, one trace per
    seed."""
    return _iterate_list(False, lst, f, seeds)


def rayleigh_iterate(lst, f, seed):
    """Iterate the list Rayleigh quotient R = (S_sigma - S_1^2)/S_2.

    R reproduces its argument exactly at every eigenvalue, so the iteration
    replaces the iterate by R (the recorded step is R - Lambda). Residuals
    are measured on f, the polynomial the list was built from, with
    :func:`poly.relative_residual_all`: the test that grades every
    reported root.
    An iterate on the interpolation value of a row that is a root of f to
    working precision takes step 0; on any other interpolation value the
    iteration ends as NUMERICAL_ERROR.
    """
    return rayleigh_iterate_all(lst, f, (seed,))[0]


def reduced_pade_iterate(lst, f, seed):
    """Iterate Lambda += p_E with p_E = (S_1 - 1)/(-S_2).

    S_1 - 1 is the reduced eigenvalue equation; its derivative is exactly
    S_2, so p_E is the Pade function of the reduced equation and the
    iteration inherits quadratic convergence at simple roots. Residuals
    and coincidences are handled as in :func:`rayleigh_iterate`.
    """
    return reduced_pade_iterate_all(lst, f, (seed,))[0]


def evolve(lst, f):
    """One evolution: rebuild the list at the current main values."""
    try:
        _check_separation(lst.main_values, "main values")
    except InterpolationValueError as exc:
        raise EvolutionCollisionError(
            "evolution collision: clustered roots; switch to multiplicity "
            "probing",
            exc.indices,
        ) from exc
    return build_ecp_list(f, lst.main_values)


def defects_below_threshold(lst):
    """True when max|d| <= EVOLUTION_THRESHOLD_REL * (1 + max|H|)."""
    max_d = max(abs(d) for d in lst.defects)
    max_h = max(abs(h) for h in lst.main_values)
    return max_d <= EVOLUTION_THRESHOLD_REL * (1.0 + max_h)


def evolve_until(lst, f):
    """Evolve repeatedly until :func:`defects_below_threshold`, at most
    MAX_EVOLUTIONS times.

    Returns the list of evolved lists (not including the input); empty when
    the input already meets the threshold.
    """
    history = []
    current = lst
    for _ in range(MAX_EVOLUTIONS):
        if defects_below_threshold(current):
            break
        current = evolve(current, f)
        history.append(current)
    return history


@dataclass(frozen=True)
class GershgorinDisk:
    """Column disk of the accompanying matrix: center H_k, radius
    (m-1)|d_k|. ``interval`` carries the open real enclosure when the whole
    list is real and the disk is separated; ``box`` carries the open
    rectangle bounds on (re, im) for a separated disk of a complex list."""

    center: complex
    radius: float
    separated: bool
    interval: tuple = None
    box: tuple = None


def gershgorin_enclosures(lst):
    """Disks around the main values; their union contains every eigenvalue.

    A disk disjoint from all others contains exactly one eigenvalue; for a
    real list that eigenvalue is real and lies in the open interval, and
    for a complex list its real and imaginary parts obey the open rectangle
    bounds.
    """
    m = lst.degree
    centers = [complex(h) for h in lst.main_values]
    radii = [(m - 1) * abs(d) for d in lst.defects]
    at = np.array(centers)
    reach = np.array(radii)
    apart = np.abs(at[:, None] - at[None, :]) > reach[:, None] + reach[None, :]
    np.fill_diagonal(apart, True)
    real_list = lst.is_real()
    disks = []
    for k, separated in enumerate(apart.all(axis=1).tolist()):
        interval = None
        box = None
        if separated:
            u, v, r = centers[k].real, centers[k].imag, radii[k]
            if real_list:
                interval = (u - r, u + r)
            else:
                box = ((u - r, u + r), (v - r, v + r))
        disks.append(GershgorinDisk(centers[k], radii[k], separated, interval, box))
    return tuple(disks)
