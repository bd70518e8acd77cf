"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each function pins the published values at their stated
tolerances; the property suites in criterion 8 run against independent
oracles from oracles.py.
"""

import numpy as np

import cases
import oracles
from polyzeros import (
    Bracket,
    Polynomial,
    ProblemSpec,
    SeedSource,
    TraceStatus,
    accelerated_regula_falsi,
    build_ecp_list,
    characteristic_polynomial,
    deflate_horner,
    detect_multiplicity,
    ecp_matrix,
    eval_matrix,
    evolve,
    extract_eigenvectors,
    gershgorin_enclosures,
    iterate_halley,
    iterate_pade,
    iterate_test_nu,
    left_eigenvectors,
    pade_eval,
    polynomial_from_roots,
    polynomial_matrix,
    reduced_pade_iterate,
    regula_falsi_step,
    run_pipeline,
    scan_sign_changes,
    sum_control,
)
from polyzeros import test_polynomial as derived_polynomial

EIGENVECTOR_RTOL = 1e-8
PROPERTY_CASES = 120


def _first_hit(trace, target, tol):
    """1-indexed first iterate within tol of target (row 0 is the seed)."""
    for i, row in enumerate(trace.rows):
        if i == 0:
            continue
        if abs(row.lam - target) <= tol:
            return i
    return None


def test_criterion_1_exploration_pipeline_and_probe(double_quad_sextic):
    report = run_pipeline(ProblemSpec(polynomial=double_quad_sextic,
                                      delta=0.3))
    assert report.conserved and report.all_residuals_pass
    found = sorted((round(r.value.real), r.multiplicity)
                   for r in report.roots)
    assert found == [(-1, 4), (2, 2)]
    for record, exact in zip(report.roots, (-1.0, 2.0)):
        assert abs(record.value - exact) <= 1e-12

    probe = iterate_test_nu(double_quad_sextic, 2,
                            cases.DOUBLE_QUAD_SEED_NU2)
    hit = _first_hit(probe, 2.0, 1e-14)
    assert hit is not None and hit <= 5


def test_criterion_2_pade_on_the_derived_degree_ten_polynomial(sparse_penta_char):
    target = cases.SPARSE_PENTA_EIGENVALUE
    direct = iterate_pade(sparse_penta_char, cases.SPARSE_PENTA_SEED)
    assert direct.status is TraceStatus.CONVERGED
    assert abs(direct.final - target) / abs(target) <= 1e-12

    general = iterate_test_nu(sparse_penta_char, 1, cases.SPARSE_PENTA_SEED)
    assert general.status is TraceStatus.CONVERGED
    assert abs(direct.final - general.final) / abs(target) <= 1e-12


def test_criterion_3_ecp_list_and_evolutions(wilkinson10):
    # The first row's defect is rounding noise: it is pinned to its
    # rounding bound gamma_{4m+1} S(sigma_0)/|denom_0|, not to its digits.
    lst1 = build_ecp_list(wilkinson10, cases.WILKINSON10_SEEDS)
    assert abs(lst1.defects[0]) <= oracles.defect_noise(
        wilkinson10.coeffs, lst1.sigmas, 0)[1]

    lst2 = evolve(lst1, wilkinson10)
    lst3 = evolve(lst2, wilkinson10)
    first = max(abs(d) for d in lst1.defects)
    for lst in (lst2, lst3):
        assert max(abs(d) for d in lst.defects) <= 1e-9 < first

    control = sum_control(lst1)
    assert control.expected == 55.0 + 0j
    # The published sum table reports an actual of 49.466, which does not
    # match the defect column it accompanies; the computed sum lands on 55
    # to ten digits, so only the exact expected value is asserted above and
    # the computed discrepancy is bounded rather than pinned.
    assert control.discrepancy <= 1e-9


def test_criterion_4_triple_root_detection(cluster_decic):
    verdict = detect_multiplicity(cluster_decic,
                                  cases.CLUSTER_DECIC_SEED_NU3)
    assert verdict.multiplicity == 3
    assert abs(verdict.root - cases.CLUSTER_DECIC_ROOT_NU3) <= 1e-12
    for nu in (1, 2):
        probe = iterate_test_nu(cluster_decic, nu,
                                cases.CLUSTER_DECIC_SEED_NU3)
        assert probe.status is not TraceStatus.CONVERGED


def test_criterion_5_singular_lead_characteristic_and_refinement(singular_lead):
    char = characteristic_polynomial(singular_lead)
    assert char.degree == 5
    scale = max(abs(c) for c in cases.SINGULAR_LEAD_CHAR)
    np.testing.assert_allclose(
        [c.real for c in char.coeffs],
        cases.SINGULAR_LEAD_CHAR,
        atol=1e-9 * scale,
    )

    scan = scan_sign_changes(char, 0.1)
    bracket = scan.brackets[-1]
    assert (bracket.lam_lo, bracket.lam_hi) == (3.0, 3.1)
    accelerated = accelerated_regula_falsi(char, bracket, sigma=5)
    assert abs(accelerated.final - cases.SINGULAR_LEAD_ACCEL_SEED) <= 1e-6

    refined = iterate_pade(char, accelerated.final)
    assert refined.status is TraceStatus.CONVERGED
    assert abs(refined.final - cases.SINGULAR_LEAD_REAL_ROOT) <= 1e-12


def test_criterion_6_halley_and_regula_falsi_family(quintic_15):
    halley = iterate_halley(quintic_15, 0.9)
    hit = _first_hit(halley, 1.0, 1e-14)
    assert hit is not None and hit <= 10

    bracket = Bracket(0.9, 1.2,
                      pade_eval(quintic_15, 0.9).real,
                      pade_eval(quintic_15, 1.2).real)
    plain = regula_falsi_step(bracket)
    assert abs(plain - cases.QUINTIC_15_RF) <= 1e-12

    accelerated = accelerated_regula_falsi(quintic_15, bracket, sigma=16)
    assert accelerated.status is TraceStatus.CONVERGED
    assert abs(accelerated.rows[-1].value) == 0.0
    assert abs(accelerated.final - 1.0) <= 1e-14


def test_criterion_7_reduced_iteration_on_a_recomputed_list(wilkinson10):
    lst = build_ecp_list(wilkinson10, cases.PERTURBED_WILKINSON_SIGMAS)
    trace = reduced_pade_iterate(lst, wilkinson10,
                                 cases.PERTURBED_WILKINSON_SEED)
    assert trace.status is TraceStatus.CONVERGED
    assert abs(trace.final - 3.0) <= 1e-12
    converged_at = _first_hit(trace, 3.0, 1e-12)
    assert converged_at is not None and converged_at <= 4
    first_step = abs(trace.rows[0].step)
    pin = abs(cases.PERTURBED_WILKINSON_FIRST_STEP)
    assert pin / 2 <= first_step <= pin * 2


def _property_slope_at_multiple_roots(rng):
    """p has a simple zero of slope -1/nu at every nu-fold root."""
    checked = 0
    while checked < PROPERTY_CASES:
        nu = int(rng.integers(1, 5))
        z = complex(rng.normal(), rng.normal())
        others = [
            w
            for w in (complex(a, b) for a, b in
                      zip(2 + rng.uniform(1, 3, size=2),
                          rng.normal(size=2)))
        ]
        roots = [z] * nu + [z + w for w in others]
        f = polynomial_from_roots(roots)
        # |f| ~ h**nu near the root, so the step must grow with nu to keep
        # the evaluation above rounding noise; curvature error stays O(h^2).
        h = (1.0 + abs(z)) * 10.0 ** (-11.0 / nu)
        slope = (pade_eval(f, z + h) - pade_eval(f, z - h)) / (2 * h)
        np.testing.assert_allclose(slope, -1.0 / nu, rtol=5e-3)
        checked += 1
    assert checked >= 100


def _property_first_derived_identity(rng):
    """The k=1 derived polynomial equals f - lambda*f'."""
    for _ in range(60):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        f = Polynomial(tuple(coeffs))
        got = derived_polynomial(f, 1).coeffs
        fp = oracles.derivative_coeffs(list(coeffs))
        lam_fp = oracles.shift_up(fp)
        want = [c - (lam_fp[j] if j < len(lam_fp) else 0.0)
                for j, c in enumerate(coeffs)]
        np.testing.assert_allclose(got, want[: len(got)], atol=1e-15)


def _property_deflation_round_trip(rng):
    for _ in range(60):
        deg = int(rng.integers(2, 8))
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        f = polynomial_from_roots(roots)
        quotient, remainder = deflate_horner(f, roots[0])
        rebuilt = oracles.convolve_coeffs(
            [-roots[0], 1.0], list(quotient.coeffs)
        )
        rebuilt[0] += remainder
        scale = max(abs(c) for c in f.coeffs)
        np.testing.assert_allclose(rebuilt, f.coeffs, atol=1e-13 * scale)


def _property_ecp_equivalences(rng):
    """E's spectrum is the root set and 1 - S_1 matches f/(a_m prod)."""
    checked = 0
    while checked < 40:
        m = int(rng.integers(2, 7))
        roots = rng.normal(size=m) + 1j * rng.normal(size=m)
        if min(abs(a - b) for i, a in enumerate(roots)
               for b in roots[i + 1:]) < 0.3:
            continue
        lead = complex(rng.normal(), rng.normal())
        if abs(lead) < 0.1:
            continue
        f = polynomial_from_roots(roots, leading=lead)
        sigmas = roots + 0.2 * (rng.normal(size=m)
                                + 1j * rng.normal(size=m))
        lst = build_ecp_list(f, sigmas)

        got = sorted(np.linalg.eigvals(ecp_matrix(lst)),
                     key=lambda v: (round(v.real, 6), round(v.imag, 6)))
        want = sorted(roots,
                      key=lambda v: (round(v.real, 6), round(v.imag, 6)))
        np.testing.assert_allclose(got, want, atol=1e-8)

        for _ in range(3):
            lam = complex(rng.normal(), rng.normal())
            if min(abs(lam - s) for s in sigmas) < 0.1:
                continue
            s1 = sum(d / (s - lam) for s, d in zip(lst.sigmas, lst.defects))
            denom = lead * complex(np.prod([lam - s for s in sigmas]))
            f_val = oracles.eval_terms(list(f.coeffs), lam)
            np.testing.assert_allclose(1.0 - s1, f_val / denom, rtol=1e-8)
        checked += 1


def _property_gershgorin_containment(rng):
    checked = 0
    while checked < 40:
        m = int(rng.integers(2, 6))
        roots = rng.normal(size=m) + 1j * rng.normal(size=m)
        if min(abs(a - b) for i, a in enumerate(roots)
               for b in roots[i + 1:]) < 0.3:
            continue
        f = polynomial_from_roots(roots)
        sigmas = roots + 0.05 * (rng.normal(size=m)
                                 + 1j * rng.normal(size=m))
        disks = gershgorin_enclosures(build_ecp_list(f, sigmas))
        for root in roots:
            assert any(abs(root - d.center) <= d.radius + 1e-12
                       for d in disks)
        checked += 1


def _property_characteristic_vs_cofactor(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        rho = int(rng.integers(1, 4))
        mats = [rng.normal(size=(n, n)) for _ in range(rho + 1)]
        pm = polynomial_matrix(mats)
        char = characteristic_polynomial(pm)
        want = oracles.poly_det_cofactor(oracles.poly_matrix_entries(mats))
        scale = max(abs(c) for c in want) or 1.0
        np.testing.assert_allclose(
            [c.real for c in char.coeffs],
            want[: char.degree + 1],
            atol=1e-9 * scale,
        )


def _eigenvector_residuals_pass(pm, lam):
    right = extract_eigenvectors(pm, lam)
    left = left_eigenvectors(pm, lam)
    scale = 1.0 + float(np.max(np.abs(eval_matrix(pm, lam))))
    bound = EIGENVECTOR_RTOL * scale
    assert right.right_residuals and left.left_residuals
    assert all(r <= bound for r in right.right_residuals)
    assert all(r <= bound for r in left.left_residuals)


def test_criterion_8_property_suites(sparse_penta, pencil5, singular_lead,
                                     sparse_penta_char):
    rng = np.random.default_rng(20260815)
    _property_slope_at_multiple_roots(rng)
    _property_first_derived_identity(rng)
    _property_deflation_round_trip(rng)
    _property_ecp_equivalences(rng)
    _property_gershgorin_containment(rng)
    _property_characteristic_vs_cofactor(rng)

    lam2 = iterate_pade(sparse_penta_char, cases.SPARSE_PENTA_SEED).final
    _eigenvector_residuals_pass(sparse_penta, lam2)
    _eigenvector_residuals_pass(pencil5, -1.0)
    lam7 = iterate_pade(characteristic_polynomial(singular_lead),
                        cases.SINGULAR_LEAD_ACCEL_SEED).final
    _eigenvector_residuals_pass(singular_lead, lam7)


def test_criterion_9_dual_reading_of_the_shifted_pencil(pencil5, quad_quint):
    bundle = extract_eigenvectors(pencil5, -1.0)
    assert bundle.rank_deficiency == 1
    assert all(r <= 1e-12 for r in bundle.right_residuals)

    double = detect_multiplicity(quad_quint, cases.QUAD_QUINT_SEED_NU2)
    assert double.multiplicity == 2
    assert abs(double.root - (-1.0)) <= 1e-10

    simple = detect_multiplicity(quad_quint, cases.QUAD_QUINT_SEED_NU1)
    assert simple.multiplicity == 1
    assert abs(simple.root - (-2.0)) <= 1e-10
