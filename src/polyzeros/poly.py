"""Complex polynomial arithmetic and the scalar iteration functions.

Polynomials are stored densely with ascending coefficients, coeffs[j] being
the coefficient of lambda**j. The module provides Horner evaluation with
derivative propagation, its array form over many points at once (the
kernel of the batched Pade and Halley steps), the Pade function
p = f/(-f'), Halley's function, the multiplicity-revealing test-polynomial
transform, the one rounding error bound that every test of "f vanishes to
working precision" reads, and synthetic-division deflation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeUnderflowError,
    HalleyDenominatorError,
    ProbeOverflowError,
    ZeroPolynomialError,
)

STRUCTURAL_ZERO = 1e-300
DERIVATIVE_UNDERFLOW = 1e-290
DEGREE_TRIM_REL = 1e-10
UNIT_ROUNDOFF = 2.0 ** -53


class _kept:
    """A Polynomial attribute computed on first use and kept on the
    instance, under the same name, so later reads are plain attribute
    reads.

    It is kept with ``object.__setattr__``, as the dataclass is frozen.
    ``functools.cached_property`` writes through ``__dict__``, which on
    CPython 3.11 takes the instance off the specialised attribute path and
    slows every later read of ``coeffs``. A solve derives these on its own
    copy of the problem's polynomial (``pipeline.spec_polynomial``), so
    none of them outlives it.
    """

    def __init__(self, make):
        self.make = make
        self.__doc__ = make.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, f, owner=None):
        if f is None:
            return self
        value = self.make(f)
        object.__setattr__(f, self.name, value)
        return value


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
        coeffs = [complex(a) for a in self.coeffs]
        try:
            moduli = [abs(a) for a in coeffs]
        except OverflowError:  # a modulus beyond the float range
            moduli = [math.inf]
        if not all(r < math.inf for r in moduli):  # NaN fails too
            raise ValueError("polynomial coefficients must be finite")
        while coeffs and moduli[len(coeffs) - 1] <= STRUCTURAL_ZERO:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

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

    @_kept
    def root_bound(self):
        """:func:`fujiwara_root_bound`, kept."""
        return fujiwara_root_bound(self)

    @_kept
    def terms(self):
        """The pairs (a_j, |a_j|) from the leading coefficient down, in
        Horner's order, kept."""
        return tuple((a, abs(a)) for a in reversed(self.coeffs))

    @_kept
    def coeff_array(self):
        """The coefficients as a read-only complex array, kept for the
        array kernels."""
        array = np.array(self.coeffs, dtype=complex)
        array.flags.writeable = False
        return array

    @_kept
    def coeff_moduli(self):
        """The coefficient moduli |a_j| as a read-only array, kept for the
        magnitude sums of the array kernels."""
        moduli = np.abs(self.coeff_array)
        moduli.flags.writeable = False
        return moduli

    @_kept
    def _tests(self):
        """The test polynomials f_k made so far, by k
        (:func:`test_polynomial`)."""
        return {}


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
    Order 0, which the nu-probe calls twice per step (f_{nu-1} and f_nu
    at the iterate), runs as a straight-line loop over a local variable;
    it does the operations of the general loop, so it rounds alike.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if order < 0:
        raise ValueError("order must be >= 0")
    lam = complex(lam)
    if order == 0:
        v = 0j
        for a in reversed(f.coeffs):
            v = v * lam + a
        return (v,)
    vals = [0j] * (order + 1)
    for a in reversed(f.coeffs):
        for k in range(order, 0, -1):
            vals[k] = vals[k] * lam + k * vals[k - 1]
        vals[0] = vals[0] * lam + a
    return tuple(vals)


def power_rows(coeffs, points, order):
    """Rows k = 0..order of sum_j j (j-1) ... (j-k+1) c_j x**(j-k) at
    every point x, in the points' dtype: the k-th derivative of the
    polynomial with ascending coefficients ``coeffs`` (an array).

    Row i of one power matrix holds 1, x_i, ..., x_i**m (``cumprod``), and
    each row k is its product with the coefficients j (j-1) ... (j-k+1) c_j.
    The products run point by point without BLAS, so a point's values do
    not depend on the other points. Overflow gives inf or NaN, silently.
    """
    points = np.asarray(points)
    powers = np.empty((len(points), len(coeffs)), dtype=points.dtype)
    powers[:, 0] = 1.0
    powers[:, 1:] = points[:, None]
    values = np.empty((order + 1, len(points)), dtype=points.dtype)
    with np.errstate(all="ignore"):
        np.multiply.accumulate(powers, axis=1, out=powers)
        for k in range(order + 1):
            if k:
                coeffs = coeffs[1:] * np.arange(1, len(coeffs))
            values[k] = np.einsum("ij,j->i", powers[:, :len(coeffs)], coeffs)
    return values


def evaluate_all(f, lams, order=0):
    """f and its first ``order`` derivatives at every point of ``lams``:
    an array of shape (order + 1, len(lams)), row k holding f^(k).

    The values come from one complex power matrix (:func:`power_rows`), so
    a point's values do not depend on the other points. Each value is good
    to about gamma_{2m+1} times the magnitude sum of its terms, as
    Horner's is (:func:`power_error_bound` proves a bound for f and f'). A
    point with a value that is not finite (its power row overflowed, say)
    is evaluated with :func:`evaluate` instead, so no point that Horner's
    rule evaluates finitely turns into inf or NaN.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if order < 0:
        raise ValueError("order must be >= 0")
    points = np.array(lams, dtype=complex)
    values = power_rows(f.coeff_array, points, order)
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

    The residual at one point, in Horner's rule; a point whose residual is
    at most :func:`power_error_bound` is a root to working precision. The
    callers that test one point at a time take it: the test-nu probe, the
    real-axis scan, the settling test of a probe, the list iterations'
    coincidence check and the companion-seed check at low degree. The
    batched refinement iterations take :func:`relative_residual_all`. One
    loop over ``f.terms`` computes both sums with the operations of
    :func:`evaluate` and :func:`coefficient_scale`."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    lam = complex(lam)
    r = abs(lam)
    v = 0j
    s = 0.0
    for a, mag in f.terms:
        v = v * lam + a
        s = s * r + mag
    magnitude = abs(v)
    if magnitude == 0.0:
        return 0.0
    return magnitude / max(s, 1e-300)


def relative_residual_all(f, lams):
    """:func:`relative_residual` at every point of ``lams``, as a list,
    from one array pass; a point whose residual is at most
    :func:`power_error_bound` is a root to working precision.

    f(z) comes from one complex power matrix and S = sum |a_j| |z|**j from
    its real form over |a_j| and |z| (:func:`power_rows`), the pass
    :func:`power_error_bound` is proven for and the one
    :func:`refine.count_zeros_all` makes, so a point's residual does not
    depend on the other points. A point whose residual is not finite (its
    powers overflowed, say) takes :func:`relative_residual` instead, as
    :func:`evaluate_all` falls back to :func:`evaluate`. The batched
    refinement iterations (Pade, Halley, Rayleigh, reduced) stop on it,
    and the companion-seed check reads it from degree 16 on
    (:func:`explore.companion_seed_all`).
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    points = np.array(lams, dtype=complex)
    magnitude = np.abs(power_rows(f.coeff_array, points, 0)[0])
    s = power_rows(f.coeff_moduli, np.abs(points), 0)[0]
    with np.errstate(all="ignore"):
        residuals = (magnitude / np.maximum(s, 1e-300)).tolist()
    if not math.isfinite(sum(residuals)):
        for i, residual in enumerate(residuals):
            if not math.isfinite(residual):
                residuals[i] = relative_residual(f, points[i])
    return residuals


def power_error_bound(f):
    """gamma_{4m+1}, u = UNIT_ROUNDOFF and m = deg f: the computed f(z)
    and f'(z) of :func:`power_rows` are within gamma_{4m+1} times the
    computed S = sum |a_j| |z|**j and S_1 = sum j |a_j| |z|**(j-1) of the
    same pass over |a_j| and |z|.

    Proof (Higham, Accuracy and Stability of Numerical Algorithms, lemmas
    3.1 and 3.5): a complex product is right to sqrt(2) gamma_2 < 3u
    relative, a complex sum to u, and factors 1 + delta_i with |delta_i|
    <= k_i u multiply to 1 + theta, |theta| <= gamma_K, K = sum k_i. The
    term a_j z**j takes j - 1 products in the ``cumprod`` and one with a_j,
    and any order of summing m + 1 terms puts each through at most m
    additions: K <= 3j + m <= 4m. The term j a_j z**(j-1) of f' takes one
    rounding in j a_j, j - 1 products and m - 1 additions: fewer. So f(z)
    and f'(z) are right to gamma_4m times the exact S and S_1. In the
    real pass |a_j| and |z| are within an ulp (2u), and each term of S or
    S_1 gets K <= 4m + 2 from real operations alone, so the exact sums are
    at most the computed ones over 1 - gamma_{4m+2}. gamma_4m / (1 -
    gamma_{4m+2}) is below gamma_{4m+1} while 4 (2m + 1)**2 u < 1, for
    every degree below 2e7.

    It bounds Horner's rule too, which gets f(lam) right to gamma_2m <
    gamma_{4m+1} times :func:`coefficient_scale` (Higham, section 5.1), so
    it is the one floor of every test that f, or a test polynomial f_k,
    vanishes to working precision, whichever kernel evaluated it.
    """
    k = (4 * f.degree + 1) * UNIT_ROUNDOFF
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
    zeros of the associated iteration step. Each f_k is made once and kept
    on f. A coefficient beyond the float range raises ProbeOverflowError.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return f
    made = f._tests.get(k)
    if made is None:
        try:
            made = Polynomial(tuple(a * complex(1 - j) ** k
                                    for j, a in enumerate(f.coeffs)))
        except (OverflowError, ValueError):  # (1-j)**k or a product overflows
            raise ProbeOverflowError(
                "test polynomial f_%d overflows" % k) from None
        f._tests[k] = made
    return made


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
