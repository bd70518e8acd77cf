"""Defect lists, the accompanying matrix, evolutions, and enclosures."""

import cmath

import numpy as np
import pytest

import cases
import oracles
from polyzeros import (
    EcpList,
    EvolutionCollisionError,
    InterpolationValueError,
    Polynomial,
    RayleighDenominatorError,
    TraceStatus,
    build_ecp_list,
    ecp_matrix,
    evaluate,
    evaluate_all,
    evolve,
    evolve_until,
    gershgorin_enclosures,
    polynomial_from_roots,
    rayleigh_iterate,
    rayleigh_iterate_all,
    reduced_pade_iterate,
    reduced_pade_iterate_all,
    relative_residual,
    relative_residual_all,
    sum_control,
)
from polyzeros import refine
from polyzeros.poly import power_error_bound

LIST_RTOL = 1e-12
# Rows 1-8 of the Wilkinson 10 list carry defects of 3e-11 to 4e-9, and a
# float evaluation of f(sigma_k) reads them to about 11% (the power
# matrix) or 12% (Horner's rule). Their proven rounding bound,
# gamma_{4m+1} S(sigma_k)/|denom_k|, is 10 to 20 times the defects, so it
# cannot tell a wrong defect from a right one; a defect off by a fifth
# fails.
DEFECT_RTOL = 0.2
# The evolved Wilkinson 10 lists' defects (up to 5.1e-10) against the
# first list's largest, 3.6e-9.
EVOLVED_DEFECT_MAX = 1e-9
ROOT_ATOL = 1e-10
CASES = 30
QUADRATIC = Polynomial((-1.0, 0.0, 1.0))


def _quadratic_list():
    return build_ecp_list(QUADRATIC, (0.0, 3.0))


def test_hand_built_quadratic_list():
    """f = lam^2 - 1 at sigma = {0, 3}: d = (1/3, 8/3), H = (-1/3, 1/3)."""
    lst = _quadratic_list()
    np.testing.assert_allclose(lst.defects, (1.0 / 3.0, 8.0 / 3.0),
                               rtol=LIST_RTOL)
    np.testing.assert_allclose(lst.main_values, (-1.0 / 3.0, 1.0 / 3.0),
                               rtol=LIST_RTOL)
    assert lst.degree == 2
    assert lst.is_real()


def test_accompanying_matrix_spectrum_is_the_root_set():
    lst = _quadratic_list()
    e = ecp_matrix(lst)
    np.testing.assert_allclose(e[0, 0], lst.main_values[0], rtol=LIST_RTOL)
    np.testing.assert_allclose(e[1, 1], lst.main_values[1], rtol=LIST_RTOL)
    got = sorted(oracles.two_by_two_eigs(e), key=lambda z: z.real)
    np.testing.assert_allclose(got, (-1.0, 1.0), atol=1e-14)


def test_accompanying_matrix_spectrum_random():
    rng = np.random.default_rng(515)
    for _ in range(CASES):
        m = int(rng.integers(2, 6))
        roots = rng.normal(size=m) + 1j * rng.normal(size=m)
        if min(abs(a - b) for i, a in enumerate(roots)
               for b in roots[i + 1:]) < 0.3:
            continue
        f = polynomial_from_roots(roots)
        sigmas = roots + 0.2 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        lst = build_ecp_list(f, sigmas)
        got = sorted(np.linalg.eigvals(ecp_matrix(lst)),
                     key=lambda z: (z.real, z.imag))
        want = sorted(roots, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_sum_control_is_exact_for_integer_coefficients():
    lst = _quadratic_list()
    control = sum_control(lst)
    assert control.expected == 0j
    np.testing.assert_allclose(control.actual, 0.0, atol=1e-15)

    wilkinson = Polynomial([float(c) for c in oracles.wilkinson_coeffs(10)])
    lst10 = build_ecp_list(wilkinson, cases.WILKINSON10_SEEDS)
    control10 = sum_control(lst10)
    assert control10.expected == 55.0 + 0j
    assert control10.discrepancy < 1e-9


def test_list_rejects_wrong_count_and_coincident_values():
    f = Polynomial((-1.0, 0.0, 1.0))
    with pytest.raises(InterpolationValueError):
        build_ecp_list(f, (0.0, 1.0, 2.0))
    with pytest.raises(InterpolationValueError) as info:
        build_ecp_list(f, (2.0, 2.0))
    assert info.value.indices == (0, 1)


@pytest.mark.parametrize("k", (-300, 0, 300))
def test_values_one_ulp_apart_build_and_equal_values_are_refused(k):
    """Only equal values make a denominator 0: at scale 2**k, values one
    ulp apart build a finite list, and an equal pair is refused by its
    indices."""
    scale = 2.0 ** k
    f = polynomial_from_roots((scale, 2.0 * scale, 3.0 * scale))
    near = np.nextafter(2.0 * scale, 3.0 * scale)
    lst = build_ecp_list(f, (2.0 * scale, near, 3.5 * scale))
    assert all(cmath.isfinite(d) for d in lst.defects)
    assert lst.defects[0] == 0
    with pytest.raises(InterpolationValueError) as info:
        build_ecp_list(f, (2.0 * scale, 3.5 * scale, 2.0 * scale))
    assert info.value.indices == (0, 2)


def test_wilkinson_list_matches_recorded_defects(wilkinson10):
    """Rows 1-8 read the recorded exact defects to DEFECT_RTOL. Row 0's
    defect is rounding noise: it is pinned to its rounding bound,
    gamma_{4m+1} S(sigma_0)/|denom_0|, not to its digits. Row 9's seed is
    the root 1, so its defect is 0. The main values keep the recorded
    digits."""
    lst = build_ecp_list(wilkinson10, cases.WILKINSON10_SEEDS)
    recorded = cases.WILKINSON10_LIST1_DEFECTS
    exact, bound = oracles.defect_noise(wilkinson10.coeffs, lst.sigmas, 0)
    assert exact == recorded[0]
    assert abs(lst.defects[0]) <= bound
    assert abs(lst.defects[0] - recorded[0]) <= bound
    np.testing.assert_allclose(lst.defects[1:], recorded[1:],
                               rtol=DEFECT_RTOL, atol=0.0)
    np.testing.assert_allclose(lst.main_values, cases.WILKINSON10_LIST1_MAIN,
                               atol=1e-9)


def test_two_evolutions_stay_at_the_noise_floor(wilkinson10):
    """Near-root interpolation values give defects at the evaluation noise
    level, so evolutions hold the defects small instead of shrinking them
    further: after one evolution and after two, every defect is at most
    EVOLVED_DEFECT_MAX, below the first list's largest."""
    lst1 = build_ecp_list(wilkinson10, cases.WILKINSON10_SEEDS)
    lst2 = evolve(lst1, wilkinson10)
    assert lst2.sigmas == lst1.main_values
    lst3 = evolve(lst2, wilkinson10)
    assert lst3.sigmas == lst2.main_values
    first = max(abs(d) for d in lst1.defects)
    for lst in (lst2, lst3):
        assert max(abs(d) for d in lst.defects) <= EVOLVED_DEFECT_MAX < first


def _roots_to_working_precision(f, lst):
    return all(r <= power_error_bound(f)
               for r in relative_residual_all(f, lst.sigmas))


def test_evolve_until_reaches_the_threshold():
    """Evolutions stop at the first list whose interpolation values are
    all roots of f to working precision."""
    f = polynomial_from_roots((1.0, 2.0, 3.0))
    lst = build_ecp_list(f, (0.9, 2.2, 3.4))
    history = evolve_until(lst, f)
    assert 0 < len(history) < refine.MAX_ITERS
    assert [_roots_to_working_precision(f, item)
            for item in [lst] + history] == [False] * len(history) + [True]
    final = history[-1]
    np.testing.assert_allclose(
        sorted(h.real for h in final.main_values),
        (1.0, 2.0, 3.0),
        atol=1e-12,
    )
    assert evolve_until(final, f) == []


def test_evolve_until_stops_after_the_refinement_budget(monkeypatch):
    """A list that does not reach the floor evolves refine.MAX_ITERS
    times, the budget of every refinement loop."""
    f = polynomial_from_roots((1.0, 2.0, 3.0))
    lst = build_ecp_list(f, (0.9, 2.2, 3.4))
    monkeypatch.setattr(refine, "MAX_ITERS", 1)
    history = evolve_until(lst, f)
    assert len(history) == 1
    assert not _roots_to_working_precision(f, history[0])


def test_evolve_until_plateaus_on_an_ill_conditioned_list(wilkinson10):
    """The WILKINSON10_SEEDS values are roots of Wilkinson 10 to working
    precision, so no evolution runs: their defects of up to 3.6e-9 are
    rounding noise, which evolving does not shrink
    (test_two_evolutions_stay_at_the_noise_floor)."""
    lst = build_ecp_list(wilkinson10, cases.WILKINSON10_SEEDS)
    assert max(abs(d) for d in lst.defects) > 1e-9
    assert _roots_to_working_precision(wilkinson10, lst)
    assert evolve_until(lst, wilkinson10) == []


@pytest.mark.parametrize("k", (-60, -30, 30, 60))
def test_list_of_a_lambda_scaled_f_evolves_like_f(k):
    """For s = 2**k, the list of g(lambda) = f(lambda/s) at s*sigma has
    the defects s*d and main values s*H of f's list at sigma, bit for bit,
    and the same relative residuals, so it evolves as often as f's list
    does."""
    s = 2.0 ** k
    f = polynomial_from_roots((1.0, 2.0, 3.0))
    g = Polynomial(tuple(a / s ** j for j, a in enumerate(f.coeffs)))
    sigmas = (0.9, 2.2, 3.4)
    lst = build_ecp_list(f, sigmas)
    scaled = build_ecp_list(g, tuple(s * v for v in sigmas))
    history = [lst] + evolve_until(lst, f)
    scaled_history = [scaled] + evolve_until(scaled, g)
    assert len(history) > 1
    assert len(scaled_history) == len(history)
    for a, b in zip(history, scaled_history):
        assert b.main_values == tuple(s * h for h in a.main_values)
        assert b.defects == tuple(s * d for d in a.defects)


def test_evolution_collision_reports_indices():
    lst = EcpList((0.0 + 0j, 1.0 + 0j), (-0.5 + 0j, 0.5 + 0j),
                  (0.5 + 0j, 0.5 + 0j), 2, 1.0 + 0j, 0j)
    with pytest.raises(EvolutionCollisionError) as info:
        evolve(lst, Polynomial((-1.0, 0.0, 1.0)))
    assert info.value.indices == (0, 1)


def test_rayleigh_iterate_converges_to_a_root():
    lst = _quadratic_list()
    trace = rayleigh_iterate(lst, QUADRATIC, 0.8)
    assert trace.status is TraceStatus.CONVERGED
    np.testing.assert_allclose(trace.final, 1.0, atol=ROOT_ATOL)


def test_rayleigh_reproduces_an_eigenvalue_immediately():
    lst = _quadratic_list()
    trace = rayleigh_iterate(lst, QUADRATIC, 1.0)
    assert trace.status is TraceStatus.CONVERGED
    assert abs(trace.rows[0].step) <= 1e-14


def test_reduced_pade_iterate_converges_to_a_root():
    lst = _quadratic_list()
    trace = reduced_pade_iterate(lst, QUADRATIC, -0.7)
    assert trace.status is TraceStatus.CONVERGED
    np.testing.assert_allclose(trace.final, -1.0, atol=ROOT_ATOL)


def test_reduced_and_rayleigh_agree_from_the_same_seed(wilkinson10):
    """Both list iterations find the same fixed point on a list whose
    interpolation values sit a safe distance from the roots."""
    lst = build_ecp_list(wilkinson10, cases.PERTURBED_WILKINSON_SIGMAS)
    for seed, root in ((3.0000004, 3.0), (7.0000002, 7.0)):
        a = rayleigh_iterate(lst, wilkinson10, seed)
        b = reduced_pade_iterate(lst, wilkinson10, seed)
        assert a.status is TraceStatus.CONVERGED
        assert b.status is TraceStatus.CONVERGED
        np.testing.assert_allclose(a.final, b.final, atol=1e-12)
        np.testing.assert_allclose(a.final, root, atol=1e-8)


def test_iterate_on_an_interpolation_value_is_a_numerical_error():
    lst = _quadratic_list()
    trace = rayleigh_iterate(lst, QUADRATIC, 3.0)
    assert trace.status is TraceStatus.NUMERICAL_ERROR
    assert any("coincides" in note for note in trace.notes)


def test_vanishing_s2_ends_both_list_iterations():
    """lambda^2 + 4 at sigma = (1, -1) has defects 2.5 and -2.5, so S_2 is
    0 at lambda = 0."""
    f = Polynomial((4.0, 0.0, 1.0))
    lst = build_ecp_list(f, (1.0, -1.0))
    assert lst.defects == (2.5, -2.5)
    for iterate, name in ((rayleigh_iterate, "rayleigh"),
                          (reduced_pade_iterate, "reduced")):
        trace = iterate(lst, f, 0.0)
        assert trace.status is TraceStatus.NUMERICAL_ERROR
        assert trace.notes == ("%s denominator S_2 vanished" % name,)


def test_companion_seeded_rows_converge_at_once():
    """From np.roots values every interpolation value sits within rounding
    of a root, so sigma_k - Lambda cancels in |S_1 - 1|; on f's residual
    every row converges within three iterations."""
    rng = np.random.default_rng(30)
    coeffs = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    f = Polynomial(tuple(coeffs))
    lst = build_ecp_list(f, np.roots(coeffs[::-1]))
    for iterate in (rayleigh_iterate, reduced_pade_iterate):
        for main_value in lst.main_values:
            trace = iterate(lst, f, main_value)
            assert trace.status is TraceStatus.CONVERGED
            assert len(trace.rows) <= 3


def test_iterate_on_a_root_interpolation_value_stays_there():
    """sigma = 1 is a root of (x-1)(x-2)(x-3), so its defect is 0: an
    iterate on it takes step 0 and converges there."""
    f = polynomial_from_roots((1.0, 2.0, 3.0))
    lst = build_ecp_list(f, (1.0, 2.2, 3.3))
    assert lst.defects[0] == 0
    for iterate in (rayleigh_iterate, reduced_pade_iterate):
        trace = iterate(lst, f, 1.0)
        assert trace.status is TraceStatus.CONVERGED
        assert [r.step for r in trace.rows] == [0j, 0j]
        assert trace.final == 1.0


def test_iterate_on_an_interpolation_value_at_the_rounding_floor_stays():
    """sigma_0 = fl(sqrt 2) is a root of lam^2 - 2 to working precision
    (relative residual 1.1e-16, within gamma_4), but its neighbour
    sigma_1 = sigma_0 - 1e-3 makes its defect 4.4e-13, far above
    2u |sigma_0|. An iterate started on sigma_0 takes step 0 and converges
    there instead of ending as NUMERICAL_ERROR."""
    f = Polynomial((-2.0, 0.0, 1.0))
    sigma = 2.0 ** 0.5
    lst = build_ecp_list(f, (sigma, sigma - 1e-3))
    assert relative_residual(f, sigma) <= oracles.gamma(2 * f.degree)
    assert abs(lst.defects[0]) > 1e3 * 2.0 ** -53 * sigma
    for iterate in (rayleigh_iterate, reduced_pade_iterate):
        trace = iterate(lst, f, sigma)
        assert trace.status is TraceStatus.CONVERGED
        assert [r.step for r in trace.rows] == [0j, 0j]
        assert trace.final == sigma


def _trace_bits(trace):
    """Rows bit for bit (NaN included), status, notes and residual."""
    rows = [tuple((z.real.hex(), z.imag.hex())
                  for z in (r.lam, r.value, r.step)) for r in trace.rows]
    return rows, trace.status, trace.notes, trace.residual


def test_list_batch_traces_equal_their_batches_of_one():
    """All rows' iterations at once give each seed its own trace: from the
    main values of random companion-seeded lists, from a non-root
    interpolation value (NUMERICAL_ERROR) and from a root one."""
    rng = np.random.default_rng(2718)
    for m in (2, 7, 30, 64):
        coeffs = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        f = Polynomial(tuple(coeffs))
        sigmas = np.roots(coeffs[::-1]) * (1 + 1e-4 * rng.standard_normal(m))
        lst = build_ecp_list(f, sigmas)
        seeds = list(lst.main_values) + [lst.sigmas[0], 10.0 * f.root_bound]
        for batch, one in ((rayleigh_iterate_all, rayleigh_iterate),
                           (reduced_pade_iterate_all, reduced_pade_iterate)):
            traces = batch(lst, f, seeds)
            assert [_trace_bits(t) for t in traces] == \
                [_trace_bits(one(lst, f, seed)) for seed in seeds]
            assert traces[m].status is TraceStatus.NUMERICAL_ERROR
            assert all(t.status is TraceStatus.CONVERGED for t in traces[:m])
    lst = build_ecp_list(QUADRATIC, (1.0, 3.0))
    traces = rayleigh_iterate_all(lst, QUADRATIC, (1.0, 3.0, 0.9))
    assert [t.status for t in traces] == [
        TraceStatus.CONVERGED, TraceStatus.NUMERICAL_ERROR,
        TraceStatus.CONVERGED]


def _reference_list_error(f, sigmas):
    """The indices of the first build error, from the pairwise loops the
    list build replaced; None when the list builds."""
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            if sigmas[i] == sigmas[j]:
                return (i, j)
    for k, sk in enumerate(sigmas):
        denom = f.coeffs[-1]
        for j, sj in enumerate(sigmas):
            if j != k:
                denom *= sk - sj
        if denom == 0 or not cmath.isfinite(evaluate(f, sk)[0] / denom):
            return (k,)
    return None


def test_list_build_names_the_first_offending_pair_or_index():
    """Coincident pairs and defects that are not finite (their
    denominators underflow) raise with the indices the pairwise loops
    named, and the defects are bit for bit theirs, with every f(sigma_k)
    from one evaluate_all."""
    rng = np.random.default_rng(99)
    outcomes = set()
    for _ in range(40):
        m = int(rng.integers(3, 9))
        lead = 10.0 ** -float(rng.integers(290, 320))
        f = Polynomial(tuple(rng.standard_normal(m)) + (lead,))
        sigmas = [complex(v) for v in rng.standard_normal(m)]
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.choice(m, 2, replace=False)
            sigmas[i] = sigmas[j] * (1 + 1e-13 * round(rng.standard_normal()))
        want = _reference_list_error(f, sigmas)
        outcomes.add(None if want is None else len(want))
        if want is None:
            lst = build_ecp_list(f, sigmas)
            for k, defect in enumerate(lst.defects):
                denom = f.coeffs[-1]
                for j, sj in enumerate(sigmas):
                    if j != k:
                        denom *= sigmas[k] - sj
                assert defect == evaluate_all(f, sigmas)[0][k].item() / denom
            continue
        with pytest.raises(InterpolationValueError) as info:
            build_ecp_list(f, sigmas)
        assert info.value.indices == want
    assert outcomes == {None, 1, 2}


def test_gershgorin_separation_is_the_pairwise_test():
    rng = np.random.default_rng(4)
    seen = set()
    for m in (2, 5, 20):
        for spread in (1e-3, 1e-1, 1.0):
            sigmas = tuple(rng.standard_normal(m)
                           + 1j * rng.standard_normal(m))
            defects = tuple(spread * (rng.standard_normal(m)
                                      + 1j * rng.standard_normal(m)))
            mains = tuple(s - d for s, d in zip(sigmas, defects))
            lst = EcpList(sigmas, defects, mains, m, 1.0 + 0j, 0j)
            disks = gershgorin_enclosures(lst)
            radii = [(m - 1) * abs(d) for d in defects]
            for k, disk in enumerate(disks):
                assert disk.radius == radii[k]
                assert disk.separated == all(
                    abs(mains[k] - mains[j])
                    > radii[k] + radii[j] for j in range(m) if j != k)
                seen.add(disk.separated)
    assert seen == {True, False}


def test_gershgorin_intervals_for_a_real_list(wilkinson10):
    lst = build_ecp_list(wilkinson10, cases.WILKINSON10_SEEDS)
    disks = gershgorin_enclosures(lst)
    assert len(disks) == 10
    for disk, root in zip(disks, range(10, 0, -1)):
        assert disk.separated
        assert disk.interval is not None and disk.box is None
        if disk.radius == 0.0:
            assert disk.center == root
            continue
        lo, hi = disk.interval
        assert lo < root < hi


def test_gershgorin_boxes_for_a_complex_list():
    roots = (1j, -1j, 2.0 + 0j)
    f = polynomial_from_roots(roots)
    sigmas = (0.95j + 0.01, -1.02j, 2.05 + 0.01j)
    lst = build_ecp_list(f, sigmas)
    disks = gershgorin_enclosures(lst)
    for disk, root in zip(disks, roots):
        if not disk.separated:
            continue
        assert disk.box is not None and disk.interval is None
        (re_lo, re_hi), (im_lo, im_hi) = disk.box
        assert re_lo < root.real < re_hi
        assert im_lo < root.imag < im_hi


def test_gershgorin_union_contains_every_root():
    rng = np.random.default_rng(626)
    for _ in range(CASES):
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
