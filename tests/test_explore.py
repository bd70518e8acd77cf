"""Real-axis exploration: sign scans, bracketing, seed generation."""

import math

import numpy as np
import pytest

import cases
import oracles
from polyzeros import (
    Bracket,
    DerivativeUnderflowError,
    Polynomial,
    PolyzerosError,
    RealScanError,
    TraceStatus,
    ZeroPolynomialError,
    accelerated_regula_falsi,
    companion_seed_all,
    pade_eval,
    polynomial_from_roots,
    regula_falsi_step,
    relative_residual,
    scan_sign_changes,
)
from polyzeros import explore
from polyzeros.explore import (
    COMPANION_ARRAY_DEGREE,
    ExplorationReport,
    _real_root_bound,
)
from polyzeros import poly
from polyzeros.poly import power_error_bound

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
    """An infinite delta would make the grid -inf, nan, inf."""
    for delta in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            scan_sign_changes(double_quad_sextic, delta)


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


def test_scan_seeds_a_root_that_shares_its_cell_with_a_pole():
    """Roots 0.03, 0.24 (triple) and -2 at delta 0.1: the triple root pulls
    a pole of p to 0.0825, so p is positive at both 0 and 0.1 and falls
    through 0.03 and rises through the pole inside one cell. f changes sign
    across that cell, so its secant point is a seed; p keeps its sign, so
    the cell is no bracket."""
    f = polynomial_from_roots([0.03, 0.24, 0.24, 0.24, -2.0])
    f = Polynomial(tuple(c.real for c in f.coeffs))
    report = scan_sign_changes(f, 0.1)
    assert _sample_at(report, 0.0) > 0.0 and _sample_at(report, 0.1) > 0.0
    assert all(b.lam_lo != 0.0 for b in report.brackets)
    inside = [s for s in report.seeds if 0.0 < s.real < 0.1]
    assert len(inside) == 1 and inside[0].imag == 0.0
    assert [s.real for s in report.seeds] == sorted(s.real
                                                    for s in report.seeds)


def test_scan_seeds_every_isolated_root_of_odd_multiplicity():
    """Random real roots of multiplicity 1..3 in [-3, 3]: a root of odd
    multiplicity with no other root within 2 delta is the only root of its
    cell, so f changes sign across the cell, and a seed lands within delta
    of it whether p falls through the root between grid points or keeps
    its sign across a pole of p in the same cell."""
    rng = np.random.default_rng(11)
    delta = 0.1
    checked = 0
    for _ in range(CASES * 20):
        k = int(rng.integers(2, 6))
        real = rng.uniform(-3.0, 3.0, k)
        mult = rng.integers(1, 4, k)
        f = polynomial_from_roots(list(np.repeat(real, mult)))
        seeds = scan_sign_changes(
            Polynomial(tuple(c.real for c in f.coeffs)), delta).seeds
        for i, (r, nu) in enumerate(zip(real, mult)):
            if nu % 2 and all(abs(r - z) >= 2 * delta
                              for j, z in enumerate(real) if j != i):
                checked += 1
                assert any(abs(s - r) <= delta for s in seeds)
    assert checked >= CASES * 20


@pytest.mark.xfail(
    strict=True, reason="p is positive at both ends of the cell "
    "[-0.5, -0.4]: it falls through the double root and rises through a "
    "pole of p in the same cell, and f keeps its sign across it, so the "
    "scan makes no seed there (ROADMAP item 6)")
def test_scan_seeds_an_isolated_double_root_that_shares_its_cell_with_a_pole():
    """Case 1015 of the generator of
    test_scan_seeds_every_isolated_root_of_odd_multiplicity: the double
    root -0.4979 lies at least 0.2 from every other root. The scan seeds
    -0.2856, 1.6101 and 2.0813, and the explore+detect report of this f
    fails, with multiplicity sum 5 of 7."""
    double = -0.49789808542185776
    f = polynomial_from_roots([double, double, 2.0721266436974854,
                               1.6102980103133113] + [-0.2878114631124431] * 3)
    seeds = scan_sign_changes(Polynomial(tuple(c.real for c in f.coeffs)),
                              0.1).seeds
    assert any(abs(s - double) <= 0.1 for s in seeds)


def _reference_scan(f, delta):
    """The scan as a loop of scalar Pade evaluations, one per grid point,
    as it ran before the array pass."""
    bound = _real_root_bound(f)
    steps = max(2, int(math.ceil(bound / delta)) + 1)
    floor = power_error_bound(f)
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


def _bits(report):
    """Every float of a scan as float.hex, so -0.0, NaN and None count."""
    def hexed(x):
        if x is None:
            return None
        if isinstance(x, complex):
            return x.real.hex(), x.imag.hex()
        return float(x).hex()
    return ([(hexed(lam), hexed(p)) for lam, p in report.samples],
            [tuple(map(hexed, (b.lam_lo, b.lam_hi, b.p_lo, b.p_hi)))
             for b in report.brackets],
            [hexed(s) for s in report.seeds])


def _scan_parity_cases():
    wilkinson = Polynomial(tuple(float(c)
                                 for c in oracles.wilkinson_coeffs(10)))
    sextic = Polynomial(cases.DOUBLE_QUAD_SEXTIC)
    spread = polynomial_from_roots([-300.0, -200.0, -100.0, 0.0, 100.0,
                                    200.0, 300.0])
    fixed = {
        "wilkinson10": (wilkinson, 0.1),
        "sextic-0.1": (sextic, 0.1),
        "sextic-0.3": (sextic, 0.3),
        "plateau": (Polynomial((1.0, 0.0, 0.0, 1.0)), 0.5),
        "overflow": (Polynomial((0j,) * 120 + spread.coeffs), 1.0),
        "negative-zero-imag": (Polynomial(
            tuple(complex(a, -0.0) for a in cases.DOUBLE_QUAD_SEXTIC)), 0.1),
        "negative-zero-root": (Polynomial(
            (complex(-0.0, -0.0), complex(-1.0, -0.0), -1.0)), 0.5),
        "degree-1": (Polynomial((-0.9000000000000001, 1.0)), 0.1),
        "degree-0": (Polynomial((2.0,)), 0.1),
    }
    for name, (f, delta) in fixed.items():
        yield pytest.param(f, delta, id=name)
    rng = np.random.default_rng(4)
    for k in range(6):
        coeffs = rng.integers(-4, 5, int(rng.integers(3, 9))).astype(float)
        coeffs[-1] = rng.choice((-1.0, 1.0))
        yield pytest.param(Polynomial(tuple(coeffs)), 0.25,
                           id="integer-%d" % k)
        yield pytest.param(Polynomial(tuple(rng.uniform(-5.0, 5.0, k + 2))),
                           0.05, id="uniform-%d" % k)


@pytest.mark.parametrize("f, delta", _scan_parity_cases())
def test_array_scan_keeps_the_scalar_bits(f, delta):
    """The array pass gives every sample, bracket and seed of the scalar
    loop bit for bit: exact zeros of f on the grid (Wilkinson 10 at 0.1),
    guarded points (the sextic's multiple roots, the plateau), overflow
    (inf and NaN samples), a p of -0.0 and zero imaginary parts of
    either sign."""
    assert _bits(scan_sign_changes(f, delta)) == \
        _bits(_reference_scan(f, delta))


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


@pytest.mark.parametrize("degree", [COMPANION_ARRAY_DEGREE - 1,
                                    COMPANION_ARRAY_DEGREE])
@pytest.mark.parametrize("real", [False, True])
def test_companion_check_flags_a_far_seed_on_both_paths(monkeypatch,
                                                        degree, real):
    """Below COMPANION_ARRAY_DEGREE the low-confidence check runs Horner's
    rule seed by seed, from it on one relative_residual_all pass. Both pass
    the companion eigenvalues and flag a seed moved 0.1 off its root."""
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1)
    if not real:
        coeffs = coeffs + 1j * rng.standard_normal(degree + 1)
    f = Polynomial(tuple(coeffs))
    calls = []

    def recording(g, lams):
        calls.append(len(lams))
        return poly.relative_residual_all(g, lams)

    monkeypatch.setattr(explore, "relative_residual_all", recording)
    assert not companion_seed_all(f).low_confidence
    assert calls == ([degree] if degree >= COMPANION_ARRAY_DEGREE else [])
    eigenvalues = np.roots

    def moved(coeffs):
        values = eigenvalues(coeffs)
        values[0] += 0.1
        return values

    monkeypatch.setattr(np, "roots", moved)
    assert companion_seed_all(f).low_confidence


def test_companion_check_flags_a_seed_whose_residual_is_nan():
    """f = 1 + z + ... + z**39 + 1e-12 z**40 has a root near -1e12, where
    the power matrix's sums overflow and the seed's relative residual is
    NaN. A residual that cannot be evaluated does not count as small."""
    f = Polynomial((1.0,) * 40 + (1e-12,))
    seeds = companion_seed_all(f)
    residuals = poly.relative_residual_all(f, seeds.values)
    assert sum(math.isnan(r) for r in residuals) == 1
    assert seeds.low_confidence


@pytest.mark.parametrize("degree", [COMPANION_ARRAY_DEGREE - 1,
                                    COMPANION_ARRAY_DEGREE])
def test_companion_check_flags_a_nan_residual_on_both_paths(monkeypatch,
                                                            degree):
    """Horner's rule below COMPANION_ARRAY_DEGREE and the array pass from
    it on both flag a seed moved to 1e300, where the residual is NaN."""
    f = Polynomial(tuple(np.random.default_rng(degree).standard_normal(
        degree + 1)))
    eigenvalues = np.roots

    def moved(coeffs):
        values = eigenvalues(coeffs)
        values[0] = 1e300
        return values

    monkeypatch.setattr(np, "roots", moved)
    seeds = companion_seed_all(f)
    assert math.isnan(relative_residual(f, 1e300))
    assert math.isnan(poly.relative_residual_all(f, [1e300])[0])
    assert seeds.low_confidence
