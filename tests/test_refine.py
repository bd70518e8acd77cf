"""Fixed-point refinement: traces, probes, multiplicity detection."""

import cmath
import math

import numpy as np
import pytest

import cases
import oracles
from polyzeros import (
    NoMultiplicityError,
    OriginSeedError,
    Polynomial,
    TraceStatus,
    companion_seed_all,
    count_zeros,
    count_zeros_all,
    detect_clusters,
    detect_multiplicity,
    iterate_halley,
    iterate_halley_all,
    iterate_pade,
    iterate_pade_all,
    iterate_test_nu,
    polynomial_from_roots,
    relative_residual_all,
)
from polyzeros import poly, refine
from polyzeros.poly import power_error_bound
from polyzeros.refine import group_roots, same_root

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
    """On a triple root the plain iteration contracts by only 2/3 per step:
    it never meets the step test, and stops at the rounding floor of its
    array residual."""
    f = polynomial_from_roots([1.0, 1.0, 1.0, 4.0])
    trace = iterate_pade(f, 1.2)
    assert trace.status is TraceStatus.AT_FLOOR
    assert trace.residual == relative_residual_all(f, [trace.final])[0]
    assert trace.residual <= power_error_bound(f)
    steps = [abs(r.step) for r in trace.rows]
    assert all(b > 0.5 * a for a, b in zip(steps, steps[1:]))


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


def test_underprobe_stalls_at_the_floor():
    """The nu = 1 probe creeps onto a triple root by ratio 2/3 per step and
    stops at the rounding floor, not CONVERGED."""
    f = polynomial_from_roots([2.0, 2.0, 2.0, -1.0])
    trace = iterate_test_nu(f, 1, 2.1)
    assert trace.status is TraceStatus.AT_FLOOR


def test_origin_seed_rejected():
    f = Polynomial((-1.0, 0.0, 1.0))
    with pytest.raises(OriginSeedError):
        iterate_test_nu(f, 1, 0.0)


def test_nu_probe_runs_from_a_seed_near_the_origin():
    """Only lambda = 0 itself is refused: it is a fixed point of every
    probe. From 1e-9 the nu = 1 probe on (lambda - 1)(lambda - 2) walks to
    the root 1, as it would from any other seed."""
    trace = iterate_test_nu(Polynomial((2.0, -3.0, 1.0)), 1, 1e-9)
    assert trace.status is TraceStatus.CONVERGED
    assert trace.final == 1.0
    assert len(trace.rows) == 38


def test_nan_step_ends_the_run_at_once():
    """On lambda^3 + 1, f and f' overflow at 1e200, so the Pade step is
    inf/inf, and so is Halley's at 1e103: a NaN, which no later step can
    leave. The run ends NUMERICAL_ERROR after that one row, not at
    MAX_ITERS."""
    f = Polynomial((1.0, 0.0, 0.0, 1.0))
    for trace, seed in ((iterate_pade(f, 1e200), 1e200),
                        (iterate_halley(f, 1e103), 1e103)):
        assert trace.status is TraceStatus.NUMERICAL_ERROR
        assert len(trace.rows) == 1
        assert trace.notes == (
            "step is not a number at %r" % (complex(seed),),)


def test_numerical_error_keeps_offending_row():
    """A step the kernel cannot take downgrades the trace instead of
    raising; the offending iterate is retained with a NaN value, and the
    error's text is the note. f' vanishes at 0 (Pade); at 1, lambda^2 + 1
    has p = -1 and f''/f' = 1, so 1 + pq vanishes (Halley); and at
    1.5+1.5j, the probe's step f(lambda) lambda on 1 + 1e308 lambda has
    the real part inf - inf, a NaN."""
    for trace, note in (
        (iterate_pade(Polynomial((-1.0, 0.0, 1.0)), 0.0),
         "derivative vanishes at 0j"),
        (iterate_halley(Polynomial((1.0, 0.0, 1.0)), 1.0),
         "halley denominator 1+pq vanishes at (1+0j)"),
        (iterate_test_nu(Polynomial((1.0, 1e308)), 1, 1.5 + 1.5j),
         "step is not a number at (1.5+1.5j)"),
    ):
        assert trace.status is TraceStatus.NUMERICAL_ERROR
        assert trace.notes == (note,)
        last = trace.rows[-1]
        assert math.isnan(last.value.real) or math.isnan(abs(last.value))


def test_divergence_detected_outside_root_bound():
    f = Polynomial((-1.0, 0.0, 1.0))
    trace = iterate_test_nu(f, 4, 50.0)
    assert trace.status in (TraceStatus.DIVERGED, TraceStatus.MAX_ITERS,
                            TraceStatus.NUMERICAL_ERROR)


def test_step_beyond_the_float_range_diverges():
    """Both parts of the Pade step -(1+i) 1.5e308 are finite, but its
    modulus is not: abs() raises, and the run ends as DIVERGED instead of
    raising, as a step that overflows outright does."""
    trace = iterate_pade(Polynomial(((1 + 1j) * 1.5e298, 1e-10)), 0.0)
    assert trace.status is TraceStatus.DIVERGED
    assert len(trace.rows) == 1


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
    assert abs(verdict.count - 2) < 0.5


def test_detect_from_a_seed_on_a_double_root_counts_from_the_rounding_radius():
    """At a double root f = f' = 0, so the Newton radius m|f/f'| is
    undefined; the count starts at the rounding radius, grows until it is
    not declined, counts 2, and the nu = 2 probe stays on the root."""
    f = polynomial_from_roots([1.0, 1.0, 4.0])
    verdict = detect_multiplicity(f, 1.0)
    assert verdict.multiplicity == 2
    assert verdict.root == 1.0
    assert list(verdict.probes) == [2]


def test_detect_rejects_when_no_probe_converges():
    """Around 1.05 the smallest circle not declined holds all 141 zeros
    of (lambda - 1)**140 (lambda + 2), and f_141 overflows; so it does
    where the nu = 1 walk ends."""
    f = polynomial_from_roots([1.0] * 140 + [-2.0])
    with pytest.raises(NoMultiplicityError):
        detect_multiplicity(f, 1.05)


def test_walk_to_the_origin_names_no_multiplicity():
    """From 2.0 the nu = 1 walk on (lambda - 1)**2 (lambda - 3) ends at
    the probe's spurious fixed point 0. The probe counted there cannot
    start at the origin, so that is no multiplicity, not a seed error."""
    f = polynomial_from_roots([1.0, 1.0, 3.0])
    with pytest.raises(NoMultiplicityError):
        detect_multiplicity(f, 2.0)


def test_count_above_the_degree_names_no_multiplicity(monkeypatch):
    """A count that rounds above the degree runs no probe of its order;
    only the nu = 1 walk runs."""
    f = polynomial_from_roots([1.0, 1.0, 3.0])
    calls = []

    def counting(f, nu, *args):
        calls.append(nu)
        return iterate_test_nu(f, nu, *args)

    monkeypatch.setattr(refine, "_smallest_count",
                        lambda f, s: (complex(f.degree + 1), 0.5))
    monkeypatch.setattr(refine, "iterate_test_nu", counting)
    with pytest.raises(NoMultiplicityError):
        detect_multiplicity(f, 1.05)
    assert calls == [1]


@pytest.mark.parametrize("root", [7.0, 8.0])
def test_detect_wilkinson10_root_seeded_on_the_root(wilkinson10, root):
    """The scan at delta = 0.1 seeds Wilkinson 10 exactly at its roots.
    At 7 and 8 f' is small against its terms (|f'|/S_1 is 7.2e-8 and
    8.2e-8), but the zero count around the root is 1."""
    verdict = detect_multiplicity(wilkinson10, root)
    assert (verdict.root, verdict.multiplicity) == (root, 1)


def test_zero_count_picks_the_probe_where_several_probes_converge(quad_quint):
    """A degenerate high-order probe can converge onto a lower-multiplicity
    root; the zero count around the seed names the one probe that runs."""
    verdict = detect_multiplicity(quad_quint, cases.QUAD_QUINT_SEED_NU2)
    assert verdict.multiplicity == 2
    assert abs(verdict.root - (-1.0)) <= ROOT_ATOL
    converged = {
        nu for nu in range(1, quad_quint.degree + 1)
        if iterate_test_nu(quad_quint, nu, cases.QUAD_QUINT_SEED_NU2).status
        is TraceStatus.CONVERGED
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


def _row_bits(trace):
    return [tuple((z.real.hex(), z.imag.hex()) for z in (r.lam, r.value, r.step))
            for r in trace.rows]


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


def test_detect_settles_each_seed_with_one_probe_of_the_counted_order():
    """The full sweep of probes nu = 1..m, judged root by root, gave these
    seeds the known root and multiplicity of the case. Detect gives them
    too, with one probe of the counted order from the seed. That includes
    the companion seed of mult-d8-82's simple root, which lies at the
    noise floor and which the sweep could not settle."""
    inputs = [
        (cases.DOUBLE_QUAD_SEXTIC, cases.DOUBLE_QUAD_SEED_NU2, 2.0, 2),
        (cases.DOUBLE_QUAD_SEXTIC, cases.DOUBLE_QUAD_SEED_NU4, -1.0, 4),
        (cases.CLUSTER_DECIC, cases.CLUSTER_DECIC_SEED_NU3,
         cases.CLUSTER_DECIC_ROOT_NU3, 3),
        (cases.QUAD_QUINT, cases.QUAD_QUINT_SEED_NU2, -1.0, 2),
        (cases.QUAD_QUINT, cases.QUAD_QUINT_SEED_NU1, -2.0, 1),
    ]
    for seed in companion_seed_all(Polynomial(cases.MULT_D8_82)).values:
        root, nu = min(cases.MULT_D8_82_ROOTS, key=lambda r: abs(r[0] - seed))
        inputs.append((cases.MULT_D8_82, seed, root, nu))
    assert len(inputs) == 5 + 8
    for coeffs, seed, root, nu in inputs:
        verdict = detect_multiplicity(Polynomial(coeffs), seed)
        assert verdict.multiplicity == nu
        assert abs(verdict.root - root) <= 1e-10 * (1.0 + abs(root))
        assert list(verdict.probes) == [nu]
        assert verdict.probes[nu].rows[0].lam == seed


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


def test_count_sees_a_triple_root():
    f = polynomial_from_roots([1.0, 1.0, 1.0, 2.0])
    assert abs(count_zeros(f, 1.0, 0.4) - 3.0) <= 1e-5


@pytest.mark.parametrize("root", [7.0, 8.0])
def test_count_sees_wilkinson10_simple_roots(wilkinson10, root):
    """At 7 and 8, where f' is small against its terms, the count on a
    circle of radius 0.4 is 1."""
    assert abs(count_zeros(wilkinson10, root, 0.4) - 1.0) <= 1e-3


def test_count_declines_a_circle_at_the_rounding_floor():
    """A singleton of one of mult-d8-2's quadruple roots: its circle passes
    within the root's rounding cluster, where f is noise. The count is
    declined rather than rounded; the whole cluster of four counts 4."""
    f = Polynomial(cases.MULT_D8_2)
    seeds = companion_seed_all(f).values
    root = cases.MULT_D8_2_ROOTS[0][0]
    cluster = sorted(seeds, key=lambda s: abs(s - root))[:4]
    seed = cluster[0]
    radius = 0.5 * min(abs(s - seed) for s in seeds if s != seed)
    assert count_zeros(f, seed, radius) is None
    center = sum(cluster) / 4
    radius = 0.5 * min(abs(s - center) for s in seeds if s not in cluster)
    assert abs(count_zeros(f, center, radius) - 4.0) <= 1e-3


def _sweep_circles(seed, polynomials):
    """(f, centers, radii): random polynomials with roots of
    multiplicity 1 to 3, with nine circles at each companion seed whose
    radii run from 1e-6 to 3 times the gap to the nearest other seed."""
    rng = np.random.default_rng(seed)
    for _ in range(polynomials):
        mult = rng.integers(1, 4, size=int(rng.integers(2, 6))).tolist()
        roots = [complex(rng.normal(), rng.normal()) for _ in mult]
        f = polynomial_from_roots([r for r, m in zip(roots, mult)
                                   for _ in range(m)])
        seeds = companion_seed_all(f).values
        centers, radii = [], []
        for i, s in enumerate(seeds):
            gap = min(abs(t - s) for j, t in enumerate(seeds) if j != i)
            for r in np.geomspace(1e-6, 3.0 * gap, 9).tolist():
                centers.append(s)
                radii.append(r)
        yield f, centers, radii


def test_array_count_rounds_as_the_scalar_count_on_every_circle_it_counts():
    """Wherever count_zeros_all counts a circle, count_zeros counts it too
    and rounds to the same number of zeros. Both decline at one floor
    (power_error_bound, gamma_{4m+1}), so they differ only where the two
    kernels' rounding puts a node on either side of its margin, near the
    rounding cluster of a multiple root."""
    agree = array_only_declines = both_decline = 0
    for f, centers, radii in _sweep_circles(2020, 40):
        batch = count_zeros_all(f, centers, radii)
        for c, r, got in zip(centers, radii, batch):
            want = count_zeros(f, c, r)
            if got is None:
                if want is None:
                    both_decline += 1
                else:
                    array_only_declines += 1
                continue
            assert want is not None
            assert round(got.real) == round(want.real)
            agree += 1
    # 2,709 circles: 803 counted alike, 1,905 declined by both, 1 by the
    # array pass alone (129 when count_zeros declined at Horner's gamma_2m).
    assert agree > 500 and both_decline > 500
    assert array_only_declines < agree / 100


def test_array_count_of_a_circle_does_not_depend_on_the_batch():
    for f, centers, radii in _sweep_circles(4040, 10):
        batch = count_zeros_all(f, centers, radii)
        for c, r, got in zip(centers, radii, batch):
            assert count_zeros_all(f, [c], [r]) == [got]
        assert count_zeros_all(f, centers[::-1], radii[::-1]) == batch[::-1]
    assert count_zeros_all(f, [], []) == []


def test_array_count_declines_a_circle_whose_powers_overflow():
    """Horner evaluates this quadratic finitely at 1e160, where its power
    1e320 overflows; the array pass declines rather than use a value it
    has no bound for."""
    f = Polynomial((1.0, 0.0, 1e-290))
    assert count_zeros_all(f, [1e160, 0.0], [1.0, 1.0]) == [
        None, count_zeros_all(f, [0.0], [1.0])[0]]


MULTIPLE_ROOT_CASES = sorted(name for name in dir(cases)
                             if name.startswith("MULT_D")
                             and name.count("_") == 2)


def _settled(f, seeds):
    verdicts, leftover = detect_clusters(Polynomial(f.coeffs), seeds)
    return ([(v.seeds, v.center, v.radius, round(v.count.real), v.root,
              v.multiplicity, v.probe) for v in verdicts], leftover)


@pytest.mark.parametrize("name", MULTIPLE_ROOT_CASES)
def test_singleton_table_settles_as_counting_one_singleton_at_a_time(
        name, monkeypatch):
    """detect_clusters counts every singleton circle in one
    count_zeros_all pass; counting each with count_zeros instead gives
    the same verdicts, probes and leftovers, and counts that round
    alike."""
    f = Polynomial(getattr(cases, name))
    seeds = companion_seed_all(f).values
    table = _settled(f, seeds)
    assert table[0]
    monkeypatch.setattr(refine, "count_zeros_all", lambda f, centers, radii: [
        count_zeros(f, c, r) for c, r in zip(centers, radii)])
    assert _settled(f, seeds) == table


def test_probe_that_escapes_its_circle_leaves_its_seed_over():
    """The seed -0.3 counts one zero (0.3) on its circle of radius 1.45,
    but its nu = 1 probe converges to -3.3, outside the circle."""
    f = polynomial_from_roots([-3.3, 0.3])
    seeds = (-3.2, -0.3)
    escaped = iterate_test_nu(f, 1, seeds[1])
    assert escaped.status is TraceStatus.CONVERGED
    assert abs(escaped.final + 3.3) <= ROOT_ATOL
    verdicts, leftover = detect_clusters(f, seeds)
    assert [(v.seeds, v.multiplicity) for v in verdicts] == [((0,), 1)]
    assert abs(verdicts[0].root + 3.3) <= ROOT_ATOL
    assert leftover == [1]


@pytest.mark.parametrize("name", ["MULT_D10_24", "MULT_D10_34", "MULT_D9_28"])
def test_clusters_settle_every_companion_seed(name):
    """Each group's probe stays inside its circle here, so no seed is left
    for per-seed detect and the multiplicities are the problem's."""
    f = Polynomial(getattr(cases, name))
    seeds = companion_seed_all(f).values
    verdicts, leftover = detect_clusters(f, seeds)
    assert leftover == []
    assert sorted(v.multiplicity for v in verdicts) == list(
        getattr(cases, name + "_MULTIPLICITIES"))
    for v in verdicts:
        assert abs(v.root - v.center) < v.radius


def test_roots_that_only_add_up_to_the_count_are_left_over():
    """A quadruple and a triple root 0.02 apart: their seven seeds count 7
    and the nu = 7 probe from their mean converges between the two roots,
    where only f_6 vanishes. f_0..f_5 are not zero to working precision
    there, so per-seed detect gets the seven seeds."""
    a = complex(1.183740558376844, -0.494020022335134)
    b = complex(1.2010574275728878, -0.4847334394633565)
    f = polynomial_from_roots([a] * 4 + [b] * 3 + [complex(-0.6, 0.16)])
    seeds = companion_seed_all(f).values
    pair = [k for k, s in enumerate(seeds) if abs(s - a) < 0.1]
    assert len(pair) == 7
    center = sum(seeds[k] for k in pair) / 7
    merged = iterate_test_nu(f, 7, center)
    assert merged.status is TraceStatus.CONVERGED
    assert abs(merged.final - center) < 1e-3
    verdicts, leftover = detect_clusters(f, seeds)
    assert [v.multiplicity for v in verdicts] == [1]
    assert leftover == pair


def test_one_probe_per_cluster(monkeypatch):
    """mult-d8-82 has three distinct roots, so three probes run in all."""
    calls = []

    def counting(f, nu, *args):
        calls.append(nu)
        return iterate_test_nu(f, nu, *args)

    monkeypatch.setattr(refine, "iterate_test_nu", counting)
    f = Polynomial(cases.MULT_D8_82)
    verdicts, leftover = detect_clusters(f, companion_seed_all(f).values)
    assert leftover == []
    assert sorted(calls) == [1, 3, 4]
    assert sorted(v.multiplicity for v in verdicts) == [1, 3, 4]


def test_cluster_count_is_group_size_and_multiplicity():
    """For polynomials from random roots with multiplicities 1 to 4, every
    settled group counts its own size, and that is the multiplicity of the
    root its probe finds."""
    rng = np.random.default_rng(6060)
    settled = total = 0
    for _ in range(CASES):
        mult = rng.integers(1, 5, size=int(rng.integers(2, 5))).tolist()
        roots = [complex(rng.normal(), rng.normal()) for _ in mult]
        f = polynomial_from_roots([r for r, m in zip(roots, mult)
                                   for _ in range(m)])
        verdicts, _ = detect_clusters(f, companion_seed_all(f).values)
        for v in verdicts:
            k = min(range(len(roots)), key=lambda i: abs(roots[i] - v.root))
            assert same_root(v.root, roots[k])
            assert v.multiplicity == len(v.seeds) == mult[k]
            assert abs(v.count - mult[k]) < 0.5
        settled += sum(v.multiplicity for v in verdicts)
        total += sum(mult)
    assert settled >= 0.9 * total


def test_probe_from_a_seed_at_the_noise_floor_stops_at_the_floor():
    """mult-d8-82's companion seed of its simple root lies 1e-11 from it.
    The probe's steps there are rounding noise that never halves, so it
    stops at the floor, and detect settles the root with it."""
    f = Polynomial(cases.MULT_D8_82)
    root = cases.MULT_D8_82_ROOTS[2][0]
    seed = min(companion_seed_all(f).values, key=lambda s: abs(s - root))
    trace = iterate_test_nu(f, 1, seed)
    assert trace.status is TraceStatus.AT_FLOOR
    assert trace.residual <= oracles.gamma(2 * f.degree)
    verdict = detect_multiplicity(f, seed)
    assert verdict.multiplicity == 1
    assert verdict.probes[1].status is TraceStatus.AT_FLOOR
    assert same_root(verdict.root, root)


def _same_trace(a, b):
    """Rows bit for bit (NaN included), status, notes and residual."""
    return (_row_bits(a) == _row_bits(b) and a.status is b.status
            and a.notes == b.notes and a.residual == b.residual)


def test_batch_traces_equal_their_batches_of_one():
    """Each trace of one batch is the trace its seed gets alone, for
    random polynomials and for seeds that end every way: converged, on a
    critical point (f'(0) = a_1 = 0: NUMERICAL_ERROR), beyond the
    divergence bound (DIVERGED) and at a triple root (AT_FLOOR). Both
    stops keep their residual, which is within the rounding floor."""
    rng = np.random.default_rng(1414)
    ends = set()
    for degree in (3, 8, 21, 40, 77):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(
            degree + 1)
        coeffs[1] = 0.0
        roots = np.roots(coeffs[::-1])
        f = Polynomial(tuple(coeffs))
        seeds = list(roots * (1 + 1e-3 * rng.standard_normal(degree)))
        seeds += [0.0, 50.0 * f.root_bound]
        triple = polynomial_from_roots(
            list(roots[:degree - 2]) + [roots[0]] * 2)
        for g, starts in ((f, seeds), (triple, [roots[0] + 0.1] + seeds[1:3])):
            for batch, one in ((iterate_pade_all, iterate_pade),
                               (iterate_halley_all, iterate_halley)):
                traces = batch(g, starts)
                assert len(traces) == len(starts)
                for seed, trace in zip(starts, traces):
                    assert _same_trace(trace, one(g, seed))
                    ends.add(trace.notes[0].split(":")[0] if trace.notes
                             else trace.status.value)
                    if trace.status in (TraceStatus.CONVERGED,
                                        TraceStatus.AT_FLOOR):
                        assert trace.residual == relative_residual_all(
                            g, [trace.final])[0] <= power_error_bound(g)
                    else:
                        assert trace.residual is None
    assert ends >= {"converged", "at-floor", "diverged",
                    "derivative vanishes at 0j"}


def test_each_round_takes_its_residuals_from_one_call(monkeypatch):
    """The batched stopping rule makes at most one relative_residual_all
    call per round, never an empty one, over only the iterates whose
    convergence or floor test reads a residual, and each trace keeps the
    residual that call gave its final iterate."""
    calls = []

    def recording(f, lams):
        got = poly.relative_residual_all(f, lams)
        calls.append(dict(zip(lams, got)))
        return got

    monkeypatch.setattr(refine, "relative_residual_all", recording)
    rng = np.random.default_rng(2028)
    coeffs = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    f = Polynomial(tuple(coeffs))
    seeds = np.roots(coeffs[::-1]) * (1 + 1e-3 * rng.standard_normal(30))
    for batch in (iterate_pade_all, iterate_halley_all):
        calls.clear()
        traces = batch(f, seeds)
        assert 0 < len(calls) <= max(len(t.rows) for t in traces)
        assert all(calls)
        assert sum(len(c) for c in calls) < sum(len(t.rows) for t in traces)
        for trace in traces:
            assert trace.status is TraceStatus.CONVERGED
            assert any(c.get(trace.final) == trace.residual for c in calls)


def test_every_member_of_a_conjugate_pair_gets_its_own_trace():
    """For a real f, each member of an exact conjugate pair of seeds is
    refined on its own iterates: under Pade and Halley every trace of the
    batch is bit for bit the one its seed gets alone. The seeds are near
    the roots of random real polynomials, and three pairs touch a zero
    part: x**3 + 3x from +-i, where f' vanishes and the error names each
    member's own iterate, (x - 1)(x + 3) from 0.5 +- i, whose iterates
    land on the real root 1, and x**2 + 1 from +-i, where f(i) = 0 + 0j
    but f(-i) has the zero parts' other signs. On the random polynomials
    each pair's finals are exact conjugates, the pairs that
    :func:`matpoly.conjugate_pairs` finds among a real F's eigenvalues."""
    rng = np.random.default_rng(3131)
    problems = []
    for degree in (4, 9, 20, 41):
        f = Polynomial(tuple(rng.standard_normal(degree + 1)))
        seeds = []
        for z in companion_seed_all(f, real=True).values:
            if z.imag > 0:
                s = z + 1e-3 * complex(*rng.standard_normal(2))
                seeds += [s, s.conjugate()]
            elif z.imag == 0:
                seeds.append(z + 1e-3 * rng.standard_normal())
        rng.shuffle(seeds)
        problems.append((f, seeds, True))
    problems.append((Polynomial((0.0, 3.0, 0.0, 1.0)), [1j, -1j], False))
    problems.append((polynomial_from_roots([1.0, -3.0]),
                     [0.5 + 1j, 0.5 - 1j], False))
    problems.append((Polynomial((1.0, 0.0, 1.0)), [1j, -1j], False))
    conjugate = 0
    for f, seeds, random in problems:
        pairs = [(i, j) for i, s in enumerate(seeds)
                 for j, t in enumerate(seeds) if s.imag < 0
                 and t == s.conjugate()]
        assert pairs
        for batch, one in ((iterate_pade_all, iterate_pade),
                           (iterate_halley_all, iterate_halley)):
            traces = batch(f, seeds)
            for seed, trace in zip(seeds, traces):
                assert _same_trace(trace, one(f, seed))
            if random:
                for i, j in pairs:
                    assert traces[i].final == traces[j].final.conjugate()
                    conjugate += 1
    assert conjugate >= 20
