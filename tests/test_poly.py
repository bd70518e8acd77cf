"""Coefficient-level operations: evaluation, derived polynomials, deflation."""

import math
from fractions import Fraction

import numpy as np
import pytest

import cases
import oracles
from polyzeros import (
    DerivativeUnderflowError,
    Polynomial,
    ProbeOverflowError,
    ZeroPolynomialError,
    coefficient_scale,
    deflate_horner,
    effective_degree,
    evaluate,
    evaluate_all,
    fujiwara_root_bound,
    halley_eval,
    pade_eval,
    polynomial_from_roots,
    relative_residual,
    relative_residual_all,
)
from polyzeros import test_polynomial as derived_polynomial
from polyzeros.poly import power_error_bound, power_rows

EVAL_RTOL = 1e-12
DEFLATE_RTOL = 1e-13
CASES = 60


def test_evaluate_matches_term_sum():
    """Horner with derivative propagation against direct power sums."""
    rng = np.random.default_rng(20250811)
    for _ in range(CASES):
        degree = int(rng.integers(1, 9))
        coeffs = tuple(
            complex(a, b)
            for a, b in zip(rng.normal(size=degree + 1),
                            rng.normal(size=degree + 1))
        )
        f = Polynomial(coeffs)
        lam = complex(rng.normal(), rng.normal())
        vals = evaluate(f, lam, order=3)
        for order in range(4):
            want = oracles.eval_derivative_terms(coeffs, lam, order)
            scale = max(1.0, abs(want))
            assert abs(vals[order] - want) <= EVAL_RTOL * scale * 10


def test_evaluate_order_zero_is_plain_value():
    f = Polynomial((1.0, -3.0, 2.0))
    (value,) = evaluate(f, 0.5)
    assert value == 1.0 - 1.5 + 0.5


def test_zero_polynomial_rejected():
    z = Polynomial(())
    assert z.is_zero
    with pytest.raises(ZeroPolynomialError):
        z.degree
    with pytest.raises(ZeroPolynomialError):
        evaluate(z, 1.0)


def test_structural_trim_keeps_small_but_real_coefficients():
    kept = Polynomial((1.0, 1e-200))
    assert kept.degree == 1
    trimmed = Polynomial((1.0, 0.0, 0.0))
    assert trimmed.degree == 0


def test_polynomial_from_roots_matches_convolution():
    rng = np.random.default_rng(41)
    for _ in range(CASES):
        k = int(rng.integers(1, 7))
        roots = [complex(a, b) for a, b in
                 zip(rng.normal(size=k), rng.normal(size=k))]
        f = polynomial_from_roots(roots)
        want = oracles.coeffs_from_roots(roots)
        np.testing.assert_allclose(
            np.array(f.coeffs), np.array(want), rtol=0, atol=1e-12
        )


def test_coefficient_scale_bounds_value():
    rng = np.random.default_rng(99)
    for _ in range(CASES):
        coeffs = tuple(rng.normal(size=int(rng.integers(1, 8))))
        f = Polynomial(coeffs)
        if f.is_zero:
            continue
        lam = complex(rng.normal(), rng.normal())
        assert abs(evaluate(f, lam)[0]) <= coefficient_scale(f, lam) * (1 + 1e-12)


def test_fujiwara_bound_lies_between_r_and_2m_r():
    """R <= bound <= 2m*R for R the largest root modulus (np.roots as the
    oracle), since |a_{m-k}/a_m| <= C(m, k) R**k <= (m R)**k."""
    rng = np.random.default_rng(7)
    for _ in range(CASES):
        m = int(rng.integers(1, 101))
        scale = 10.0 ** rng.uniform(-6, 6)
        coeffs = scale * (rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
        if rng.integers(2):
            coeffs = coeffs.real
        f = Polynomial(tuple(coeffs))
        big_r = float(np.max(np.abs(np.roots(coeffs[::-1]))))
        bound = fujiwara_root_bound(f)
        assert big_r <= bound * (1 + 1e-9)
        assert bound <= 2 * m * big_r * (1 + 1e-9)
        assert f.root_bound == bound


@pytest.mark.parametrize("n, bound", ((10, 110.0), (20, 420.0)))
def test_fujiwara_bound_of_wilkinson(n, bound):
    """Twice the root sum |a_{m-1}/a_m| = m(m+1)/2 dominates."""
    f = Polynomial(tuple(float(c) for c in oracles.wilkinson_coeffs(n)))
    np.testing.assert_allclose(f.root_bound, bound, rtol=1e-12)


def test_fujiwara_bound_survives_out_of_range_ratios():
    """|a_0/a_2| = 1e400 overflows, but its square root does not."""
    f = Polynomial((1e200, 0.0, 1e-200))
    np.testing.assert_allclose(f.root_bound, 2.0 * math.sqrt(0.5) * 1e200,
                               rtol=1e-12)
    assert Polynomial((1e200, 1e-200)).root_bound == math.inf


def test_pade_is_ratio_of_value_and_negated_derivative():
    f = Polynomial(cases.DOUBLE_QUAD_SEXTIC)
    lam = 0.7
    v, d = evaluate(f, lam, order=1)
    assert pade_eval(f, lam) == v / (-d)


def test_pade_degree_and_underflow_guards():
    """Constants are rejected outright; a flat spot trips the derivative
    underflow guard."""
    with pytest.raises(ZeroPolynomialError):
        pade_eval(Polynomial((5.0,)), 1.0)
    plateau = Polynomial((1.0, 0.0, 0.0, 1.0))
    with pytest.raises(DerivativeUnderflowError):
        pade_eval(plateau, 0.0)


def test_halley_combines_pade_and_curvature():
    """h = p / (1 + p*q) with q = f''/f', straight from the definitions."""
    f = Polynomial((-6.0, 11.0, -6.0, 1.0))
    lam = 0.7
    v, d, dd = evaluate(f, lam, order=2)
    p = v / -d
    q = dd / d
    np.testing.assert_allclose(halley_eval(f, lam), p / (1 + p * q), rtol=1e-15)


def test_derived_polynomial_ladder_matches_recurrence():
    """f_{k+1} = f_k - lambda f_k' computed two independent ways."""
    rng = np.random.default_rng(2024)
    for _ in range(CASES):
        coeffs = tuple(rng.normal(size=int(rng.integers(2, 8))))
        f = Polynomial(coeffs)
        if f.is_zero:
            continue
        ladder = list(coeffs)
        for k in range(1, 4):
            ladder = oracles.descend_once(ladder)
            got = derived_polynomial(f, k)
            width = max(len(got.coeffs), len(ladder))
            g = list(got.coeffs) + [0] * (width - len(got.coeffs))
            w = list(ladder) + [0] * (width - len(ladder))
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_derived_polynomial_annihilates_linear_term():
    f = Polynomial((3.0, 5.0, 7.0, 2.0))
    for k in (1, 2, 3):
        fk = derived_polynomial(f, k)
        assert fk.coeffs[1] == 0.0
    assert derived_polynomial(f, 0) is f


def test_deflation_round_trip():
    rng = np.random.default_rng(314)
    for _ in range(CASES):
        k = int(rng.integers(2, 7))
        roots = [complex(a, b) for a, b in
                 zip(rng.normal(size=k), rng.normal(size=k))]
        f = polynomial_from_roots(roots)
        quotient, remainder = deflate_horner(f, roots[0])
        assert abs(remainder) <= DEFLATE_RTOL * coefficient_scale(f, roots[0])
        rebuilt = np.convolve(
            np.array(quotient.coeffs), np.array([-roots[0], 1.0])
        )
        np.testing.assert_allclose(
            rebuilt, np.array(f.coeffs), rtol=0,
            atol=DEFLATE_RTOL * max(1.0, np.max(np.abs(f.coeffs))),
        )


def test_effective_degree_trims_relative_noise():
    f = Polynomial((1.0, 2.0, 3.0, 1e-14))
    g = effective_degree(f)
    assert g.degree == 2
    h = effective_degree(Polynomial((1.0, 2.0, 3.0, 0.5)))
    assert h.degree == 3


def test_pade_finite_at_ordinary_points():
    f = Polynomial(cases.QUINTIC_15)
    for lam, want in cases.QUINTIC_15_SCAN_VALUES.items():
        got = pade_eval(f, lam)
        assert math.isfinite(got.real)
        np.testing.assert_allclose(got.real, want, rtol=1e-10)


def _general_horner(f, lam, order):
    """The list-based loop evaluate() runs for orders above 2."""
    lam = complex(lam)
    vals = [0j] * (order + 1)
    for a in reversed(f.coeffs):
        for k in range(order, 0, -1):
            vals[k] = vals[k] * lam + k * vals[k - 1]
        vals[0] = vals[0] * lam + a
    return tuple(vals)


def _bits(values):
    """Bit patterns of complex values: tells -0.0 from 0.0 and keeps NaN."""
    return tuple((z.real.hex(), z.imag.hex()) for z in map(complex, values))


def test_straight_line_kernels_round_like_the_general_loop():
    """evaluate's order-0 loop, its general loop at orders 1-3 and the
    fused residual give exactly the bits of the reference loop and of
    evaluate + coefficient_scale."""
    rng = np.random.default_rng(30)
    random30 = Polynomial(tuple(
        complex(a, b) for a, b in zip(rng.normal(size=31), rng.normal(size=31))
    ))
    wilkinson20 = polynomial_from_roots(range(1, 21))
    points = (0.0, -0.5, -3.0, -19.0, complex(0.3, -1.2), complex(-2.5, 4.0))
    # At lam = 0 the real parts of this quadratic's Horner values are -0.0,
    # where k * vals[k-1] and vals[k-1] round to zeros of opposite sign.
    signed_zeros = Polynomial((complex(-0.0, 1.0), complex(-0.0, -2.0),
                               complex(-1.0, 1.0)))
    polys = (
        (signed_zeros, ()),
        (Polynomial((-3.0, 2.0)), (1.5,)),
        (Polynomial(cases.DOUBLE_QUAD_SEXTIC), (2.0, -1.0)),
        (wilkinson20, (1.0, 7.0, 20.0)),
        (random30, tuple(np.roots(random30.coeffs[::-1])[:3])),
    )
    for f, roots in polys:
        for lam in points + roots:
            for order in range(4):
                assert _bits(evaluate(f, lam, order)) == _bits(
                    _general_horner(f, lam, order))
            want = abs(evaluate(f, lam)[0]) / max(coefficient_scale(f, lam),
                                                   1e-300)
            assert _bits([relative_residual(f, lam)]) == _bits([want])


def _derivative_scale(f, lam, k):
    """The magnitude sum of f^(k)'s terms,
    sum j (j-1) ... (j-k+1) |a_j| |lam|**(j-k)."""
    r = abs(complex(lam))
    return sum(math.perm(j, k) * abs(a) * r ** (j - k)
               for j, a in enumerate(f.coeffs) if j >= k)


@pytest.mark.parametrize("n, k, cause", [(140, 137, ValueError),
                                         (150, 150, OverflowError)])
def test_test_polynomial_overflow_is_a_probe_overflow_error(n, k, cause):
    """(lambda - 1)**n (lambda + 2): at n = 140 the product a_j (1-j)**k
    passes the float range, at n = 150 and k = 150 the power (1-j)**k
    itself does. Both are a ProbeOverflowError, not a ValueError or an
    OverflowError."""
    f = polynomial_from_roots([1.0] * n + [-2.0])
    with pytest.raises(ProbeOverflowError, match="f_%d overflows" % k) as info:
        derived_polynomial(f, k)
    assert isinstance(info.value.__context__, cause)
    assert not isinstance(info.value, (ValueError, OverflowError))


def test_test_polynomials_are_made_once_per_polynomial():
    f = Polynomial((3.0, 5.0, 7.0, 2.0))
    assert derived_polynomial(f, 2) is derived_polynomial(f, 2)
    assert derived_polynomial(Polynomial(f.coeffs), 2) == \
        derived_polynomial(f, 2)


def _within(computed, exact, bound):
    dr = Fraction(computed.real) - exact[0]
    di = Fraction(computed.imag) - exact[1]
    return dr * dr + di * di <= Fraction(bound) ** 2


def test_power_error_bound_holds_against_exact_values():
    """power_rows's f and f' lie within power_error_bound(f) times the
    computed magnitude sums S and S_1 of its real pass, against rational
    arithmetic: on random coefficients at random points, and on
    polynomials with clustered roots at points beside the cluster, where
    the values are all rounding."""
    rng = np.random.default_rng(1915)
    polys = []
    for m in range(1, 25):
        coeffs = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        points = rng.uniform(0.2, 2.0, 6) * np.exp(
            2j * np.pi * rng.uniform(size=6))
        polys.append((Polynomial(tuple(coeffs)), points))
        root = complex(rng.normal(), rng.normal())
        cluster = polynomial_from_roots([root] * min(m, 4) + list(
            rng.normal(size=m - min(m, 4))))
        polys.append((cluster, root + 1e-5 * np.exp(
            2j * np.pi * rng.uniform(size=6))))
    for f, points in polys:
        coeffs = np.array(f.coeffs)
        v, d = power_rows(coeffs, np.asarray(points), 1)
        s, s1 = power_rows(np.abs(coeffs), np.abs(points), 1)
        g = power_error_bound(f)
        for i, z in enumerate(points.tolist()):
            assert _within(v[i], oracles.exact_derivative(f.coeffs, z, 0),
                           g * s[i])
            assert _within(d[i], oracles.exact_derivative(f.coeffs, z, 1),
                           g * s1[i])


def test_array_values_agree_with_horner():
    """evaluate_all's f, f' and f'' lie within gamma_{2m+1} times the
    matching magnitude sum of Horner's, at degrees 1 to 100."""
    rng = np.random.default_rng(77)
    for m in range(1, 101):
        f = Polynomial(tuple(rng.standard_normal(m + 1)
                             + 1j * rng.standard_normal(m + 1)))
        radius = rng.uniform(0.2, 1.5, 8)
        points = radius * np.exp(2j * np.pi * rng.uniform(size=8))
        gamma = oracles.gamma(2 * m + 1)
        values = evaluate_all(f, points, 2)
        assert values.shape == (3, len(points))
        for i, lam in enumerate(points):
            want = evaluate(f, lam, 2)
            for k in range(3):
                assert abs(values[k, i] - want[k]) <= gamma * \
                    _derivative_scale(f, lam, k)


def test_array_values_fall_back_to_horner_where_powers_overflow():
    """At 1e160 the power 1e320 of this quadratic overflows, but Horner
    forms 1e-290 * 1e160 * 1e160 + 1 finitely: that point takes Horner's
    values exactly, and the finite point beside it keeps its own."""
    f = Polynomial((1.0, 0.0, 1e-290))
    values = evaluate_all(f, [1e160, 0.5], 2)
    assert np.isfinite(values).all()
    assert tuple(values[:, 0]) == evaluate(f, 1e160, 2)
    assert tuple(evaluate_all(f, [0.5], 2)[:, 0]) == tuple(values[:, 1])


def test_array_residuals_agree_with_horner():
    """relative_residual_all gives each point the residual it gets alone,
    within the two passes' bounds of relative_residual's, at degrees 1 to
    100, on random points and on points beside the roots, where the
    residual is all rounding; an exact root gets 0 from both."""
    rng = np.random.default_rng(2027)
    for m in range(1, 101):
        f = Polynomial(tuple(rng.standard_normal(m + 1)
                             + 1j * rng.standard_normal(m + 1)))
        radius = rng.uniform(0.2, 1.5, 6)
        points = list(radius * np.exp(2j * np.pi * rng.uniform(size=6)))
        points += list(np.roots(f.coeffs[::-1])[:6])
        got = relative_residual_all(f, points)
        assert len(got) == len(points)
        slack = power_error_bound(f) + oracles.gamma(2 * m)
        for lam, r in zip(points, got):
            assert r == relative_residual_all(f, [lam])[0]
            want = relative_residual(f, lam)
            assert abs(r - want) <= slack * (1.0 + 2.0 * want)
    f = Polynomial((-1.0, 0.0, 1.0))
    assert relative_residual_all(f, [1.0, -1.0]) == [0.0, 0.0]


def test_array_residuals_fall_back_to_horner_where_powers_overflow():
    """At 1e160 the power row overflows but Horner's sums are finite: that
    point takes relative_residual exactly, and the point beside it keeps
    the residual it gets alone."""
    f = Polynomial((1.0, 0.0, 1e-290))
    got = relative_residual_all(f, [1e160, 0.5])
    assert got[0] == relative_residual(f, 1e160)
    assert math.isfinite(got[0])
    assert got[1] == relative_residual_all(f, [0.5])[0]
