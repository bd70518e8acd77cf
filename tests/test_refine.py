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
    TraceStatus,
    companion_seed_all,
    count_zeros,
    detect_clusters,
    detect_multiplicity,
    evaluate,
    iterate_halley,
    iterate_halley_all,
    iterate_pade,
    iterate_pade_all,
    iterate_test_nu,
    polynomial_from_roots,
    probe_strictly_converged,
    relative_residual,
)
from polyzeros import test_polynomial as derived_polynomial
from polyzeros import refine
from polyzeros.refine import (
    DEFAULT_SETTINGS,
    _run_batch,
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
    """A step the kernel cannot take downgrades the trace instead of
    raising; the offending iterate is retained with a NaN value, and the
    error's text is the note. f' vanishes at 0 (Pade); at 1, lambda^2 + 1
    has p = -1 and f''/f' = 1, so 1 + pq vanishes (Halley); and at
    1.5+1.5j, 1 + 1e308 lambda has a modulus beyond the float range
    (the probe's abs() overflows)."""
    for trace, note in (
        (iterate_pade(Polynomial((-1.0, 0.0, 1.0)), 0.0),
         "derivative vanishes at 0j"),
        (iterate_halley(Polynomial((1.0, 0.0, 1.0)), 1.0),
         "halley denominator 1+pq vanishes at (1+0j)"),
        (iterate_test_nu(Polynomial((1.0, 1e308)), 1, 1.5 + 1.5j),
         "absolute value too large"),
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
    assert abs(verdict.count - 2) < 0.5


def test_detect_from_a_seed_where_the_guess_is_undefined():
    """At a double root f = f' = 0, so the Newton radius m|f/f'| is
    undefined; the count starts at the rounding radius, grows until it is
    not declined, counts 2, and the nu = 2 probe stays on the root."""
    f = polynomial_from_roots([1.0, 1.0, 4.0])
    verdict = detect_multiplicity(f, 1.0)
    assert verdict.multiplicity == 2
    assert verdict.root == 1.0
    assert list(verdict.probes) == [2]


def test_detect_rejects_when_no_probe_converges():
    f = polynomial_from_roots([1.0, 1.0, 3.0])
    with pytest.raises(NoMultiplicityError):
        detect_multiplicity(f, 1.05, nu_max=1)


@pytest.mark.parametrize("root", [7.0, 8.0])
def test_detect_wilkinson10_root_seeded_on_the_root(wilkinson10, root):
    """The scan at delta = 0.1 seeds Wilkinson 10 exactly at its roots.
    At 7 and 8 f' is small against its terms (|f'|/S_1 is 7.2e-8 and
    8.2e-8), but the zero count around the root is 1."""
    verdict = detect_multiplicity(wilkinson10, root)
    assert (verdict.root, verdict.multiplicity) == (root, 1)


def test_taylor_arbiter_overrides_accidental_fixed_point(quad_quint):
    """A degenerate high-order probe can converge onto a lower-multiplicity
    root; the zero count around the seed names the one probe that runs."""
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

    def steps(lams):
        lam = lams[0]
        v_lo = evaluate(f_lo, lam)[0]
        v_hi = evaluate(f_hi, lam)[0]
        if abs(v_hi) <= 1e-290 * max(1.0, abs(v_lo)):
            return [ZeroDivisionError("f_%d vanishes at %r" % (nu, lam))]
        return [(v_lo / v_hi) * lam]

    return _run_batch(steps, partial(relative_residual, f), (seed,),
                      DEFAULT_SETTINGS, f.root_bound)[0]


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


@pytest.mark.xfail(strict=True, reason="steps of a few 1e-12 count as "
                   "significant and do not contract tenfold (ROADMAP item 4)")
def test_probe_from_a_seed_at_the_noise_floor_is_strictly_converged():
    """mult-d8-82's companion seed of its simple root lies 1e-11 from it.
    Detect by counting accepts the converged probe, but the classifier
    still rejects it."""
    f = Polynomial(cases.MULT_D8_82)
    root = cases.MULT_D8_82_ROOTS[2][0]
    seed = min(companion_seed_all(f).values, key=lambda s: abs(s - root))
    trace = iterate_test_nu(f, 1, seed)
    assert trace.status is TraceStatus.CONVERGED
    assert probe_strictly_converged(trace)


def _same_trace(a, b):
    """Rows bit for bit (NaN included), status, notes and residual."""
    return (_row_bits(a) == _row_bits(b) and a.status is b.status
            and a.notes == b.notes and a.residual == b.residual)


def test_batch_traces_equal_their_batches_of_one():
    """Each trace of one batch is the trace its seed gets alone, for
    random polynomials and for seeds that end every way: converged, on a
    critical point (f'(0) = a_1 = 0: NUMERICAL_ERROR), beyond the
    divergence bound (DIVERGED) and at a triple root (MAX_ITERS by the
    slow-ratio kill)."""
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
                    if trace.status is TraceStatus.CONVERGED:
                        assert trace.residual == relative_residual(
                            g, trace.final)
                    else:
                        assert trace.residual is None
    assert ends >= {"converged", "diverged", "derivative vanishes at 0j",
                    "terminated early"}
