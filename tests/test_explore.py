"""Real-axis exploration: sign scans, bracketing, seed generation."""

import numpy as np
import pytest

import cases
import oracles
from polyzeros import (
    Bracket,
    Polynomial,
    PolyzerosError,
    RealScanError,
    TraceStatus,
    accelerated_regula_falsi,
    companion_seed_all,
    polynomial_from_roots,
    regula_falsi_step,
    scan_sign_changes,
)

SCAN_VALUE_RTOL = 1e-10
SEED_RTOL = 1e-8
CASES = 25


def _sample_at(report, lam):
    """Grid points accumulate as start + j*delta, so match by distance."""
    return next(val for l, val in report.samples if abs(l - lam) < 1e-9)


def test_scan_reproduces_reference_values(double_quad_sextic):
    report = scan_sign_changes(double_quad_sextic, 0.3)
    for lam, want in cases.DOUBLE_QUAD_SCAN_VALUES.items():
        np.testing.assert_allclose(_sample_at(report, lam), want,
                                   rtol=SCAN_VALUE_RTOL)


def test_scan_brackets_the_double_root(double_quad_sextic):
    """The double root at 2 and, at negative lambda, the quadruple root at
    -1 each get one downward bracket and one secant seed; the poles of p
    in between get none."""
    report = scan_sign_changes(double_quad_sextic, 0.3)
    spans = [(b.lam_lo, b.lam_hi) for b in report.brackets]
    np.testing.assert_allclose(spans, [(-1.2, -0.9), (1.8, 2.1)], atol=1e-12)
    np.testing.assert_allclose(
        report.seeds, [cases.DOUBLE_QUAD_SEED_NU4, cases.DOUBLE_QUAD_SEED_NU2],
        atol=1e-5)


def test_co_scan_reproduces_reference_values(double_quad_sextic):
    """The co-axis half of the single scan samples p at negative lambda in
    f's own variable, so the values there are p's, not those of p(-l)."""
    report = scan_sign_changes(double_quad_sextic, 0.3)
    for lam, want in cases.DOUBLE_QUAD_CO_SCAN_VALUES.items():
        np.testing.assert_allclose(_sample_at(report, lam), want,
                                   rtol=SCAN_VALUE_RTOL)


def test_co_scan_seed_lands_in_original_variable(double_quad_sextic):
    """The quadruple root at -1 is bracketed by (-1.2, -0.9) on the
    co-axis; its secant seed lies inside that bracket, in f's own variable,
    so that refinement runs on the polynomial itself."""
    report = scan_sign_changes(double_quad_sextic, 0.3)
    co = [b for b in report.brackets if b.lam_hi < 0]
    assert len(co) == 1
    lo, hi = co[0].lam_lo, co[0].lam_hi
    np.testing.assert_allclose((lo, hi), (-1.2, -0.9), atol=1e-12)
    near = [s for s in report.seeds
            if abs(s - cases.DOUBLE_QUAD_SEED_NU4) < 1e-5]
    assert len(near) == 1
    assert lo < near[0].real < hi


def test_scan_seeds_roots_on_the_grid(double_quad_sextic):
    """At delta = 0.1 both multiple roots are grid points, where f' also
    vanishes and p is undefined: the grid points themselves are the
    seeds."""
    report = scan_sign_changes(double_quad_sextic, 0.1)
    assert report.brackets == ()
    assert report.seeds == (-1.0, 2.0)


def test_scan_requires_real_coefficients():
    f = Polynomial((1j, 1.0, 1.0))
    with pytest.raises(RealScanError):
        scan_sign_changes(f, 0.1)


def test_scan_delta_validation(double_quad_sextic):
    with pytest.raises(ValueError):
        scan_sign_changes(double_quad_sextic, 0.0)


def test_scan_records_guard_gaps():
    """A flat spot inside the sweep shows up as a None sample, not a crash."""
    plateau = Polynomial((1.0, 0.0, 0.0, 1.0))
    report = scan_sign_changes(plateau, 0.5)
    assert _sample_at(report, 0.0) is None
    assert 0.0 not in report.seeds


def test_scan_brackets_a_root_on_the_bound():
    """At degree 1 the bound is the root itself. Here 0.9000000000000001
    divides by 0.1 to exactly 9, so the grid point 9*0.1 = 0.9 falls one
    ulp short of the root; the step past it still brackets the root."""
    root = 0.9000000000000001
    f = Polynomial((-root, 1.0))
    assert f.root_bound == root
    report = scan_sign_changes(f, 0.1)
    assert [(b.lam_lo, b.lam_hi) for b in report.brackets] == [(0.9, 1.0)]
    assert report.seeds == (complex(root),)


def test_wilkinson10_scan_stops_at_the_bound(wilkinson10):
    """The scan runs from one step before -110 to one step past the bound
    of 110. The bound is checked first: a loose bound would make the scan
    itself take minutes."""
    np.testing.assert_allclose(wilkinson10.root_bound, 110.0, rtol=1e-12)
    report = scan_sign_changes(wilkinson10, 0.1)
    assert len(report.samples) <= 2203
    assert report.samples[0][0] == -report.samples[-1][0] <= -110.0


def test_wilkinson10_grid_roots_are_seeds(wilkinson10):
    """Every root k = 1..10 is the grid point 10k*0.1, where f evaluates to
    exactly 0, so the scan makes no bracket and seeds each root exactly."""
    report = scan_sign_changes(wilkinson10, 0.1)
    assert report.brackets == ()
    assert report.seeds == tuple(complex(k) for k in range(1, 11))


def test_scan_brackets_only_downward_and_seeds_isolated_roots():
    """Random real polynomials: real roots of multiplicity 1..3 in [-3, 3]
    plus up to two complex pairs. Every bracket goes downward. A nu-fold
    real root r whose other roots all lie farther than m*delta/nu (m the
    degree) has no pole of p within delta, since there
    nu/|x - r| > sum nu_k/|x - r_k|; so p falls through r between two grid
    points, or r is a grid point, and a seed lands within delta of it."""
    rng = np.random.default_rng(2718)
    delta = 0.1
    isolated = 0
    for _ in range(CASES * 4):
        k = int(rng.integers(1, 6))
        real = rng.uniform(-3.0, 3.0, k)
        mult = rng.integers(1, 4, k)
        pairs = int(rng.integers(0, 3))
        upper = rng.uniform(-3.0, 3.0, pairs) + 1j * rng.uniform(0.05, 2.0,
                                                                  pairs)
        distinct = list(real) + list(upper) + list(upper.conjugate())
        f = polynomial_from_roots(
            list(np.repeat(real, mult)) + distinct[k:])
        f = Polynomial(tuple(c.real for c in f.coeffs))
        report = scan_sign_changes(f, delta)
        assert all(b.p_lo > 0.0 > b.p_hi for b in report.brackets)
        for i, (r, nu) in enumerate(zip(real, mult)):
            gap = min((abs(r - z) for j, z in enumerate(distinct) if j != i),
                      default=np.inf)
            if gap * nu > f.degree * delta:
                isolated += 1
                assert any(abs(s - r) <= delta for s in report.seeds)
    assert isolated >= CASES


@pytest.mark.parametrize("coeffs", ((-1e200, 0.0, 1e-200), (1e200, 1e-200)))
def test_scan_rejects_a_bound_out_of_reach(coeffs):
    """A bound of 1.4e200 on the real roots +-1e200 leaves 0.1 below its
    rounding unit, and an infinite bound gives no grid at all."""
    with pytest.raises(RealScanError):
        scan_sign_changes(Polynomial(coeffs), 0.1)


def test_scan_stops_at_a_bound_on_the_real_roots():
    """lambda^2 + 1e6 has no real root: no coefficient has a sign opposite
    to the leading one in f(lambda) or f(-lambda), so Kioustelidis' bound
    on the real roots is 0 and the scan takes its 5 points around 0
    instead of running to Fujiwara's bound of 1414."""
    f = Polynomial((1e6, 0.0, 1.0))
    report = scan_sign_changes(f, 0.1)
    assert len(report.samples) <= 5
    assert report.seeds == ()


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(1.0, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(0.5, 1.0, 1.0, 2.0)


def test_regula_falsi_step_linear_interpolation():
    bracket = Bracket(0.9, 1.2, 8.366965417990657e-02, -3.884787018255549e-01)
    got = regula_falsi_step(bracket)
    np.testing.assert_allclose(got, cases.QUINTIC_15_RF, rtol=1e-12)


def test_accelerated_regula_falsi_reaches_exact_zero(quintic_15):
    """With a tight exponent the scheme lands on a floating-point zero of
    the Pade function; the default exponent stops one row earlier."""
    bracket = Bracket(0.9, 1.2, 8.366965417990657e-02, -3.884787018255549e-01)
    trace = accelerated_regula_falsi(quintic_15, bracket, sigma=16)
    assert trace.status is TraceStatus.CONVERGED
    assert abs(trace.rows[-1].value) == 0.0
    assert abs(trace.final - 1.0) <= 1e-14

    default = accelerated_regula_falsi(quintic_15, bracket, sigma=5)
    assert default.status is TraceStatus.CONVERGED
    np.testing.assert_allclose(default.final, 1.000000002011310, rtol=1e-12)
    assert abs(default.rows[-1].value) <= 1e-5


def test_accelerated_regula_falsi_respects_sigma(quintic_15):
    """A loose exponent stops earlier than a tight one."""
    bracket = Bracket(0.9, 1.2, 8.366965417990657e-02, -3.884787018255549e-01)
    loose = accelerated_regula_falsi(quintic_15, bracket, sigma=2)
    tight = accelerated_regula_falsi(quintic_15, bracket, sigma=10)
    assert loose.status is TraceStatus.CONVERGED
    assert len(loose.rows) <= len(tight.rows)


def test_companion_seeds_recover_simple_roots():
    rng = np.random.default_rng(808)
    for _ in range(CASES):
        k = int(rng.integers(2, 7))
        roots = sorted(
            (complex(a, b) for a, b in
             zip(3 * rng.normal(size=k), 3 * rng.normal(size=k))),
            key=lambda z: (z.real, z.imag),
        )
        if min(
            abs(a - b) for i, a in enumerate(roots)
            for b in roots[i + 1:]
        ) < 0.2:
            continue
        f = polynomial_from_roots(roots)
        seeds = companion_seed_all(f)
        assert not seeds.low_confidence
        got = sorted(seeds.values, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(
            np.array(got), np.array(roots), rtol=0, atol=1e-7
        )


def test_companion_seeds_deterministic(wilkinson10):
    a = companion_seed_all(wilkinson10)
    b = companion_seed_all(wilkinson10)
    assert a.values == b.values


def test_companion_seeds_wilkinson_accuracy(wilkinson10):
    seeds = sorted(s.real for s in companion_seed_all(wilkinson10).values)
    np.testing.assert_allclose(seeds, np.arange(1.0, 11.0), rtol=0, atol=1e-6)


def test_companion_seeds_wilkinson20_are_finite_and_near_integers():
    """Wilkinson 20's coefficients reach 1.4e19 times its leading one, yet
    every companion eigenvalue lies within 0.1 of one of the integers
    1..20."""
    f = Polynomial(tuple(float(c) for c in oracles.wilkinson_coeffs(20)))
    seeds = companion_seed_all(f).values
    assert len(seeds) == 20
    assert all(np.isfinite(s) for s in seeds)
    for s in seeds:
        nearest = min(max(round(s.real), 1), 20)
        assert abs(s - nearest) < 0.1


def test_companion_seeds_raise_when_monic_form_overflows():
    with pytest.raises(PolyzerosError):
        companion_seed_all(Polynomial((1e200, 1e-200)))


def test_companion_seeds_cluster_layout(cluster_decic):
    """Repeated roots come back as tight clusters with the right counts."""
    seeds = companion_seed_all(cluster_decic).values
    targets = {
        complex(0.0, 1.0): 2,
        complex(0.0, -1.0): 2,
        complex(-0.5, +8.660254037844386e-01): 3,
        complex(-0.5, -8.660254037844386e-01): 3,
    }
    for target, count in targets.items():
        near = [s for s in seeds if abs(s - target) < 1e-2]
        assert len(near) == count
