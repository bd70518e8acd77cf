"""Fixed-point refinement: traces, probes, multiplicity detection."""

import cmath
import math
from functools import partial

import numpy as np
import pytest

import cases
from polyzeros import (
    IterationSettings,
    NoMultiplicityError,
    OriginSeedError,
    Polynomial,
    TaylorRejectionError,
    TraceStatus,
    companion_seed_all,
    detect_multiplicity,
    evaluate,
    iterate_halley,
    iterate_pade,
    iterate_test_nu,
    polynomial_from_roots,
    probe_strictly_converged,
    relative_residual,
    taylor_multiplicity_test,
)
from polyzeros import test_polynomial as derived_polynomial
from polyzeros import refine
from polyzeros.refine import (
    DEFAULT_SETTINGS,
    ROOT_IDENTITY_REL,
    _run_iteration,
    group_roots,
    same_root,
)

ROOT_ATOL = 1e-12
CASES = 40


def _chained(trace):
    rows = trace.rows
    return all(
        rows[i + 1].lam == rows[i].lam + rows[i].step
        for i in range(len(rows) - 1)
    )


def test_pade_iteration_simple_root():
    f = Polynomial((-6.0, 11.0, -6.0, 1.0))
    trace = iterate_pade(f, 0.8)
    assert trace.status is TraceStatus.CONVERGED
    assert abs(trace.final - 1.0) <= ROOT_ATOL
    assert _chained(trace)


def test_pade_iteration_multiple_root_is_slow():
    """On a triple root the plain iteration contracts by only 2/3 per step
    and the slow-progress cutoff reports it as not converged."""
    f = polynomial_from_roots([1.0, 1.0, 1.0, 4.0])
    trace = iterate_pade(f, 1.2)
    assert trace.status is TraceStatus.MAX_ITERS
    assert any("step ratios" in note for note in trace.notes)


def test_halley_iteration_cubic_speed():
    f = Polynomial((-6.0, 11.0, -6.0, 1.0))
    trace = iterate_halley(f, 0.8)
    assert trace.status is TraceStatus.CONVERGED
    assert abs(trace.final - 1.0) <= ROOT_ATOL
    assert len(trace.rows) <= 8


def test_probe_order_matches_multiplicity():
    rng = np.random.default_rng(5150)
    for _ in range(CASES):
        nu = int(rng.integers(1, 5))
        root = complex(rng.normal(), rng.normal())
        other = root + 2.0 + abs(rng.normal())
        f = polynomial_from_roots([root] * nu + [other])
        seed = root + 0.01 * cmath.exp(2j * math.pi * rng.random())
        trace = iterate_test_nu(f, nu, seed)
        assert trace.status is TraceStatus.CONVERGED
        assert abs(trace.final - root) <= 1e-10 * (1 + abs(root))
        assert probe_strictly_converged(trace)


def test_underprobe_stalls_and_classifier_rejects():
    f = polynomial_from_roots([2.0, 2.0, 2.0, -1.0])
    trace = iterate_test_nu(f, 1, 2.1)
    assert trace.status is not TraceStatus.CONVERGED
    assert not probe_strictly_converged(trace)


def test_origin_seed_rejected():
    f = Polynomial((-1.0, 0.0, 1.0))
    with pytest.raises(OriginSeedError):
        iterate_test_nu(f, 1, 0.0)


def test_numerical_error_keeps_offending_row():
    """A derivative-underflow mid-iteration downgrades the trace instead of
    raising; the offending iterate is retained with a NaN value."""
    f = Polynomial((-1.0, 0.0, 1.0))
    trace = iterate_pade(f, 0.0)
    assert trace.status is TraceStatus.NUMERICAL_ERROR
    last = trace.rows[-1]
    assert math.isnan(last.value.real) or math.isnan(abs(last.value))


def test_divergence_detected_outside_root_bound():
    f = Polynomial((-1.0, 0.0, 1.0))
    trace = iterate_test_nu(f, 4, 50.0)
    assert trace.status in (TraceStatus.DIVERGED, TraceStatus.MAX_ITERS,
                            TraceStatus.NUMERICAL_ERROR)


def test_settings_validation():
    with pytest.raises(ValueError):
        IterationSettings(max_iters=0)
    with pytest.raises(ValueError):
        IterationSettings(step_tol=-1.0)


def test_detect_double_root(double_quad_sextic):
    verdict = detect_multiplicity(double_quad_sextic, cases.DOUBLE_QUAD_SEED_NU2)
    assert verdict.multiplicity == 2
    assert abs(verdict.root - 2.0) <= ROOT_ATOL


def test_detect_quadruple_root(double_quad_sextic):
    verdict = detect_multiplicity(double_quad_sextic, cases.DOUBLE_QUAD_SEED_NU4)
    assert verdict.multiplicity == 4
    assert abs(verdict.root - (-1.0)) <= ROOT_ATOL


def test_detect_reports_probe_traces(double_quad_sextic):
    verdict = detect_multiplicity(double_quad_sextic, cases.DOUBLE_QUAD_SEED_NU2)
    assert verdict.multiplicity in verdict.probes
    assert len(verdict.probes) < 6
    assert verdict.taylor.multiplicity == 2


def test_detect_from_a_seed_where_the_guess_is_undefined():
    """At a double root f = f' = 0, so nu-hat falls back to 1; that probe
    fails and the next one still finds the root."""
    f = polynomial_from_roots([1.0, 1.0, 4.0])
    verdict = detect_multiplicity(f, 1.0)
    assert verdict.multiplicity == 2
    assert verdict.root == 1.0
    assert verdict.probes[1].status is TraceStatus.NUMERICAL_ERROR


def test_detect_rejects_when_no_probe_converges():
    f = polynomial_from_roots([1.0, 1.0, 3.0])
    with pytest.raises(NoMultiplicityError):
        detect_multiplicity(f, 1.05, nu_max=1)


@pytest.mark.xfail(strict=True, raises=NoMultiplicityError,
                   reason="TAYLOR_TOL = 1e-7 rejects nu = 1: |f'|/S_1 is "
                   "7.2e-8 at 7 and 8.2e-8 at 8")
@pytest.mark.parametrize("root", [7.0, 8.0])
def test_detect_wilkinson10_root_seeded_on_the_root(wilkinson10, root):
    """The scan at delta = 0.1 seeds Wilkinson 10 exactly at its roots; at
    7 and 8 the Taylor ladder takes the simple root's small but nonzero
    derivative for zero."""
    verdict = detect_multiplicity(wilkinson10, root)
    assert (verdict.root, verdict.multiplicity) == (root, 1)


def test_taylor_arbiter_overrides_accidental_fixed_point(quad_quint):
    """A degenerate high-order probe can converge onto a lower-multiplicity
    root; the derivative ladder at the root settles the claim."""
    verdict = detect_multiplicity(quad_quint, cases.QUAD_QUINT_SEED_NU2)
    assert verdict.multiplicity == 2
    assert abs(verdict.root - (-1.0)) <= ROOT_ATOL
    converged = {
        nu for nu in range(1, quad_quint.degree + 1)
        if probe_strictly_converged(
            iterate_test_nu(quad_quint, nu, cases.QUAD_QUINT_SEED_NU2))
    }
    assert len(converged) >= 2


def test_nearest_group_wins_for_simple_root(quad_quint):
    verdict = detect_multiplicity(quad_quint, cases.QUAD_QUINT_SEED_NU1)
    assert verdict.multiplicity == 1
    assert abs(verdict.root - (-2.0)) <= ROOT_ATOL


def test_detect_triple_conjugate_root(cluster_decic):
    verdict = detect_multiplicity(cluster_decic, cases.CLUSTER_DECIC_SEED_NU3)
    assert verdict.multiplicity == 3
    assert abs(verdict.root - cases.CLUSTER_DECIC_ROOT_NU3) <= ROOT_ATOL


def test_trace_chaining_invariant_across_algorithms(cluster_decic):
    for maker in (iterate_pade, iterate_halley):
        trace = maker(cluster_decic, cases.CLUSTER_DECIC_SEED_NU3)
        assert _chained(trace)
    trace = iterate_test_nu(cluster_decic, 3, cases.CLUSTER_DECIC_SEED_NU3)
    assert _chained(trace)


def _reference_probe(f, nu, seed):
    """The nu-probe with f_{nu-1} and f_nu evaluated one at a time."""
    f_lo = derived_polynomial(f, nu - 1)
    f_hi = derived_polynomial(f, nu)

    def step_fn(lam):
        v_lo = evaluate(f_lo, lam)[0]
        v_hi = evaluate(f_hi, lam)[0]
        if abs(v_hi) <= 1e-290 * max(1.0, abs(v_lo)):
            raise ZeroDivisionError("f_%d vanishes at %r" % (nu, lam))
        return (v_lo / v_hi) * lam

    return _run_iteration(step_fn, partial(relative_residual, f), seed,
                          DEFAULT_SETTINGS, f.root_bound)


def _row_bits(trace):
    return [tuple((z.real.hex(), z.imag.hex()) for z in (r.lam, r.value, r.step))
            for r in trace.rows]


def test_fused_probe_step_gives_the_reference_traces():
    """The one-pass f_{nu-1}, f_nu evaluation changes no bit of any probe,
    also where f_nu is shorter than f_{nu-1} (degree 1)."""
    for coeffs, seed in (
        ((-3.0, 2.0), 1.4),
        (cases.DOUBLE_QUAD_SEXTIC, cases.DOUBLE_QUAD_SEED_NU2),
        (cases.CLUSTER_DECIC, cases.CLUSTER_DECIC_SEED_NU3),
    ):
        f = Polynomial(coeffs)
        for nu in range(1, f.degree + 1):
            got = iterate_test_nu(f, nu, seed)
            want = _reference_probe(f, nu, seed)
            assert got.status is want.status
            assert _row_bits(got) == _row_bits(want)
            assert got.notes == want.notes


def _reference_detect(f, seed):
    """The full sweep: every probe nu = 1..degree runs, and the largest
    Taylor-validated nu in the group of winners nearest the seed wins.

    Returns (nu, winning trace), or None where the sweep finds no answer.
    """
    probes = {nu: iterate_test_nu(f, nu, seed)
              for nu in range(1, f.degree + 1)}
    winners = {nu: trace.final for nu, trace in probes.items()
               if probe_strictly_converged(trace)}
    if not winners:
        return None
    groups = group_roots(sorted(winners.items()), lambda w: w[1])
    seed = complex(seed)
    if len(groups) > 1:
        distances = sorted(abs(g[0][1] - seed) for g in groups)
        if distances[1] - distances[0] <= ROOT_IDENTITY_REL * (1.0 + distances[0]):
            return None
        groups.sort(key=lambda g: abs(g[0][1] - seed))
    for nu, root in sorted(groups[0], reverse=True):
        try:
            taylor_multiplicity_test(f, root, nu)
        except TaylorRejectionError:
            continue
        return nu, probes[nu]
    return None


def _reference_group_roots(items, value):
    """The greedy grouping that tests every group head, oldest first."""
    groups = []
    for item in items:
        for group in groups:
            if same_root(value(group[0]), value(item)):
                group.append(item)
                break
        else:
            groups.append([item])
    return groups


def _grouping_inputs():
    rng = np.random.default_rng(808)
    for degree in (20, 50, 100):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(
            degree + 1)
        roots = np.roots(coeffs)
        # Each root twice, as two seeds refined to it would give it.
        yield np.concatenate((roots, roots * (1.0 + 3e-9 * rng.standard_normal(
            degree))))
    # Chains spaced 1e-9 apart: a group's reach spans about ten of them.
    yield np.concatenate([c + 1e-9 * np.arange(40) * (1.0 + 0.5j)
                          for c in (0.0, 1.0 - 2.0j, -1e3 + 1e3j)])
    # Ties in real part, on both sides of a head and across groups.
    yield np.concatenate((1.0 + 1e-9 * np.arange(-20, 20) * 1j,
                          1.0 + np.array([0.5, -0.5, 1e-8, -1e-8]) * 1j,
                          np.full(3, 2.0 + 0j)))
    # The last value is the same root as both heads; the older one, with
    # the larger real part, takes it.
    yield np.array([1.0 + 2.2e-8, 1.0 - 1e-9, 1.0 + 1.1e-8])


def test_windowed_grouping_gives_the_greedy_groups():
    """group_roots tests only the heads near an item's real part; its groups
    are those of the loop over every head, for sorted and unsorted input."""
    rng = np.random.default_rng(809)
    for values in _grouping_inputs():
        items = [(k, complex(v)) for k, v in enumerate(values)]
        orders = [sorted(items, key=lambda it: (it[1].real, it[1].imag)),
                  items]
        orders += [[items[k] for k in rng.permutation(len(items))]
                   for _ in range(4)]
        for order in orders:
            got = group_roots(order, lambda it: it[1])
            want = _reference_group_roots(order, lambda it: it[1])
            assert got == want
            assert len(want) < len(order)


def test_guided_detect_gives_the_full_sweep_answer():
    """Trying nu-hat first and stopping at the first verified probe gives
    the sweep's root, multiplicity and winning trace bit for bit."""
    mult_d8 = Polynomial(cases.MULT_D8_82)
    inputs = [
        (Polynomial(cases.DOUBLE_QUAD_SEXTIC), cases.DOUBLE_QUAD_SEED_NU2),
        (Polynomial(cases.DOUBLE_QUAD_SEXTIC), cases.DOUBLE_QUAD_SEED_NU4),
        (Polynomial(cases.CLUSTER_DECIC), cases.CLUSTER_DECIC_SEED_NU3),
        (Polynomial(cases.QUAD_QUINT), cases.QUAD_QUINT_SEED_NU2),
        (Polynomial(cases.QUAD_QUINT), cases.QUAD_QUINT_SEED_NU1),
    ]
    resolved = 0
    for seed in companion_seed_all(mult_d8).values:
        try:
            detect_multiplicity(mult_d8, seed)
        except NoMultiplicityError:
            continue
        inputs.append((mult_d8, seed))
        resolved += 1
    assert resolved >= 4
    for f, seed in inputs:
        verdict = detect_multiplicity(f, seed)
        nu, trace = _reference_detect(f, seed)
        assert verdict.multiplicity == nu
        assert verdict.root == trace.final
        assert _row_bits(verdict.probes[nu]) == _row_bits(trace)


@pytest.mark.parametrize("seed", [cases.DOUBLE_QUAD_SEED_NU2,
                                  cases.DOUBLE_QUAD_SEED_NU4])
def test_detect_stops_at_the_first_verified_probe(double_quad_sextic,
                                                  monkeypatch, seed):
    calls = []

    def counting(f, nu, *args):
        calls.append(nu)
        return iterate_test_nu(f, nu, *args)

    monkeypatch.setattr(refine, "iterate_test_nu", counting)
    detect_multiplicity(double_quad_sextic, seed)
    assert 1 <= len(calls) <= 2
