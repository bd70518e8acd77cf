"""Complex polynomial arithmetic and the scalar iteration functions.

Polynomials are stored densely with ascending coefficients, coeffs[j] being
the coefficient of lambda**j. The module provides Horner evaluation with
derivative propagation, its array form over many points at once (the
kernel of the batched Pade and Halley steps), the Pade function
p = f/(-f'), Halley's function, the multiplicity-revealing test-polynomial
transform, Horner's rounding error bound and synthetic-division deflation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeUnderflowError,
    HalleyDenominatorError,
    ZeroPolynomialError,
)

STRUCTURAL_ZERO = 1e-300
DERIVATIVE_UNDERFLOW = 1e-290
DEGREE_TRIM_REL = 1e-10
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial, ascending coefficient order.

    The stored tuple is trimmed of structurally zero leading terms
    (magnitude <= STRUCTURAL_ZERO) so that ``degree`` always refers to a
    genuinely nonzero leading coefficient. No magnitude-based trimming of
    user data happens here; relative-threshold degree detection is the
    separate :func:`effective_degree` operation.
    """

    coeffs: tuple

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and abs(trimmed[-1]) <= STRUCTURAL_ZERO:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(complex(a) for a in trimmed))
        for a in self.coeffs:
            if a != a or abs(a) == float("inf"):
                raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self):
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial")
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def is_real(self):
        return all(a.imag == 0.0 for a in self.coeffs)

    @property
    def root_bound(self):
        """:func:`fujiwara_root_bound`, computed on first use and kept.

        It is kept with ``object.__setattr__``. ``functools.cached_property``
        writes through ``__dict__``, which on CPython 3.11 takes the instance
        off the specialised attribute path and slows every later read of
        ``coeffs``.
        """
        try:
            return self._root_bound
        except AttributeError:
            object.__setattr__(self, "_root_bound", fujiwara_root_bound(self))
            return self._root_bound


def polynomial_from_roots(roots, leading=1.0):
    """Expand prod (lambda - r) * leading into ascending coefficients."""
    coeffs = [complex(leading)]
    for r in roots:
        r = complex(r)
        nxt = [0j] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i + 1] += a
            nxt[i] -= r * a
        coeffs = nxt
    return Polynomial(tuple(coeffs))


def evaluate(f, lam, order=0):
    """Evaluate f and its first ``order`` derivatives at lam.

    Nested (Horner) evaluation with derivative propagation; returns a tuple
    (f(lam), f'(lam), ..., f^(order)(lam)) with the factorials included.
    Orders 0 to 2 run as straight-line loops over local variables; they do
    the same operations in the same order as the general loop (the integer
    factor k of ``k * vals[k-1]`` included), so every order rounds alike.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if order < 0:
        raise ValueError("order must be >= 0")
    lam = complex(lam)
    v = 0j
    if order == 0:
        for a in reversed(f.coeffs):
            v = v * lam + a
        return (v,)
    d1 = 0j
    if order == 1:
        for a in reversed(f.coeffs):
            d1 = d1 * lam + 1 * v
            v = v * lam + a
        return (v, d1)
    d2 = 0j
    if order == 2:
        for a in reversed(f.coeffs):
            d2 = d2 * lam + 2 * d1
            d1 = d1 * lam + 1 * v
            v = v * lam + a
        return (v, d1, d2)
    vals = [0j] * (order + 1)
    for a in reversed(f.coeffs):
        for k in range(order, 0, -1):
            vals[k] = vals[k] * lam + k * vals[k - 1]
        vals[0] = vals[0] * lam + a
    return tuple(vals)


def evaluate_all(f, lams, order=0):
    """f and its first ``order`` derivatives at every point of ``lams``:
    an array of shape (order + 1, len(lams)), row k holding f^(k).

    Row i of one power matrix holds 1, z_i, ..., z_i**m (``cumprod``), and
    f^(k)(z_i) is its product with the coefficients j (j-1) ... (j-k+1) a_j.
    The products run point by point without BLAS, so a point's values do
    not depend on the other points. Each value is good to about
    gamma_{2m+1} times the magnitude sum of its terms, as Horner's is. A
    point with a value that is not finite (its power row overflowed, say)
    is evaluated with :func:`evaluate` instead, so no point that Horner's
    rule evaluates finitely turns into inf or NaN.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if order < 0:
        raise ValueError("order must be >= 0")
    points = np.array(lams, dtype=complex)
    powers = np.empty((len(points), len(f.coeffs)), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = points[:, None]
    coeffs = np.array(f.coeffs)
    values = np.empty((order + 1, len(points)), dtype=complex)
    with np.errstate(all="ignore"):
        np.cumprod(powers, axis=1, out=powers)
        for k in range(order + 1):
            values[k] = np.einsum("ij,j->i", powers[:, :len(coeffs)], coeffs)
            coeffs = coeffs[1:] * np.arange(1, len(coeffs))
    for i in np.flatnonzero(~np.isfinite(values).all(axis=0)):
        values[:, i] = evaluate(f, points[i], order)
    return values


def coefficient_scale(f, lam):
    """Magnitude sum of the terms, sum |a_j| |lam|**j.

    Shared scale for relative residual tests: |f(lam)| is "numerically zero"
    when it is small against this sum (see :func:`relative_residual`).
    """
    r = abs(complex(lam))
    s = 0.0
    for a in reversed(f.coeffs):
        s = s * r + abs(a)
    return s


def relative_residual(f, lam):
    """|f(lam)| / coefficient_scale(f, lam), or 0 when f(lam) is exactly 0.

    The one residual used by refinement, seeding and reporting. One loop
    computes both sums with the operations of :func:`evaluate` and
    :func:`coefficient_scale`."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    lam = complex(lam)
    r = abs(lam)
    v = 0j
    s = 0.0
    for a in reversed(f.coeffs):
        v = v * lam + a
        s = s * r + abs(a)
    magnitude = abs(v)
    if magnitude == 0.0:
        return 0.0
    return magnitude / max(s, 1e-300)


def horner_error_bound(f):
    """gamma_2m = 2mu/(1 - 2mu), u = UNIT_ROUNDOFF and m = deg f: Horner's
    rule gets f(lam) right to gamma_2m times :func:`coefficient_scale`
    (Higham, Accuracy and Stability of Numerical Algorithms, section 5.1),
    so a point whose :func:`relative_residual` is at most this is a root
    to working precision."""
    k = 2 * f.degree * UNIT_ROUNDOFF
    return k / (1.0 - k)


def fujiwara_root_bound(f):
    """Fujiwara's bound: no root lies beyond

        2 * max(|a_{m-k}/a_m|**(1/k) for k = 1..m-1, |a_0/(2 a_m)|**(1/m)).

    It overestimates the largest root modulus R by at most a factor 2m,
    because |a_{m-k}/a_m| <= C(m, k) R**k; at degree 1 it is the root's
    modulus itself. The k = 1 term is a plain quotient: if it overflows,
    so does the bound. Every k >= 2 term is formed from logarithms, so
    finite coefficients whose ratio leaves the float range still give a
    finite bound when the bound itself is representable; inf means it is
    not. Zero coefficients contribute nothing; a degree-0 f gets 1.0.
    """
    m = f.degree
    if m == 0:
        return 1.0
    lead = abs(f.coeffs[m])
    top = abs(f.coeffs[m - 1]) / lead
    if m == 1:
        top /= 2.0
    log_lead = math.log(lead)
    log_top = -math.inf
    for k in range(2, m + 1):
        a = abs(f.coeffs[m - k])
        if a != 0.0:
            log_ratio = math.log(a) - log_lead
            if k == m:
                log_ratio -= math.log(2.0)
            log_top = max(log_top, log_ratio / k)
    try:
        return 2.0 * max(top, math.exp(log_top))
    except OverflowError:
        return math.inf


def pade_eval(f, lam):
    """The Pade function p(lambda) = f(lambda)/(-f'(lambda))."""
    if f.degree < 1:
        raise ZeroPolynomialError("pade function needs degree >= 1")
    v, d = evaluate(f, lam, 1)
    if abs(d) <= DERIVATIVE_UNDERFLOW:
        raise DerivativeUnderflowError("derivative vanishes at %r" % (lam,))
    return v / (-d)


def halley_eval(f, lam):
    """Halley's function h = p/(1 + p q) with q = f''/f'."""
    if f.degree < 2:
        raise ZeroPolynomialError("halley function needs degree >= 2")
    v, d1, d2 = evaluate(f, lam, 2)
    if abs(d1) <= DERIVATIVE_UNDERFLOW:
        raise DerivativeUnderflowError("derivative vanishes at %r" % (lam,))
    p = v / (-d1)
    q = d2 / d1
    den = 1.0 + p * q
    if abs(den) <= DERIVATIVE_UNDERFLOW:
        raise HalleyDenominatorError("halley denominator 1+pq vanishes at %r" % (lam,))
    return p / den


def test_polynomial(f, k):
    """The k-th test polynomial: coefficient rule a_j -> (1-j)^k a_j.

    f_0 is f itself; for every k >= 1 the j=1 coefficient is annihilated.
    The ratio chain P_nu = f_{nu-1}/f_nu isolates nu-fold roots as simple
    zeros of the associated iteration step.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return f
    return Polynomial(
        tuple(a * complex(1 - j) ** k for j, a in enumerate(f.coeffs))
    )


def deflate_horner(f, root):
    """Synthetic division by (lambda - root).

    Returns (quotient, remainder) with f = (lambda-root)*quotient + remainder
    identically; the remainder equals f(root).
    """
    if f.degree < 1:
        raise ZeroPolynomialError("cannot deflate a constant")
    root = complex(root)
    out = [0j] * len(f.coeffs)
    acc = 0j
    for j in range(len(f.coeffs) - 1, -1, -1):
        acc = acc * root + f.coeffs[j]
        out[j] = acc
    remainder = out[0]
    quotient = Polynomial(tuple(out[1:]))
    return quotient, remainder


def effective_degree(f):
    """Degree after trimming trailing coefficients below
    DEGREE_TRIM_REL * max|a|.

    Relative-threshold degree detection for computed coefficient lists
    only (a leading matrix can be singular, dropping the true degree below
    the nominal one); user coefficients are taken as given. Returns a new
    Polynomial.
    """
    if f.is_zero:
        return f
    top = max(abs(a) for a in f.coeffs)
    coeffs = list(f.coeffs)
    while len(coeffs) > 1 and abs(coeffs[-1]) <= DEGREE_TRIM_REL * top:
        coeffs.pop()
    return Polynomial(tuple(coeffs))
