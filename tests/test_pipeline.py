"""Seed acquisition, refinement, dedupe, and report assembly."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cases
import oracles
from polyzeros import matpoly, pipeline, refine
from polyzeros import (
    Algorithm,
    GershgorinDisk,
    NotAnEigenvalueError,
    ProblemFormatError,
    Polynomial,
    ProblemSpec,
    SeedSource,
    ecp_diagnostics,
    ecp_to_dict,
    gershgorin_enclosures,
    main,
    polynomial_from_roots,
    polynomial_matrix,
    problem_spec_to_dict,
    relative_residual,
    relative_residual_all,
    report_to_dict,
    run_pipeline,
    same_root,
)
from polyzeros.poly import power_error_bound

ROOT_ATOL = 1e-10
CASES = 10


def test_spec_requires_exactly_one_payload(double_quad_sextic, pencil5):
    with pytest.raises(ProblemFormatError):
        ProblemSpec()
    with pytest.raises(ProblemFormatError):
        ProblemSpec(polynomial=double_quad_sextic, matrix=pencil5)
    with pytest.raises(ProblemFormatError):
        ProblemSpec(polynomial=double_quad_sextic,
                    seed_source=SeedSource.EXTERNAL)
    with pytest.raises(ProblemFormatError):
        ProblemSpec(polynomial=double_quad_sextic, external_seeds=(1.0,))
    with pytest.raises(ProblemFormatError):
        ProblemSpec(polynomial=double_quad_sextic,
                    seed_source=SeedSource.DIAGONAL)
    with pytest.raises(ProblemFormatError):
        ProblemSpec(polynomial=double_quad_sextic, delta=0.0)


def test_spec_refuses_a_zero_polynomial():
    """A zero polynomial has no degree to solve to: the spec refuses it
    with the problem file's words, so run_pipeline never raises on it."""
    with pytest.raises(ProblemFormatError, match="zero polynomial"):
        ProblemSpec(polynomial=Polynomial((0.0,)),
                    seed_source=SeedSource.COMPANION)


def test_spec_takes_an_integer_probe_order(double_quad_sextic):
    """A fractional nu would run a probe of no order from every seed."""
    for nu in (2.5, True, 0, 2.0):
        with pytest.raises(ProblemFormatError, match="nu must be an integer"):
            ProblemSpec(polynomial=double_quad_sextic, nu=nu)
    assert ProblemSpec(polynomial=double_quad_sextic, nu=2).nu == 2


def test_exploration_pipeline_finds_both_multiplicities(double_quad_sextic):
    spec = ProblemSpec(polynomial=double_quad_sextic, delta=0.3)
    report = run_pipeline(spec)
    assert report.effective_degree == 6
    assert report.multiplicity_sum == 6
    assert report.conserved
    assert report.all_residuals_pass
    assert report.errors == ()
    assert len(report.roots) == 2
    minus_one, two = report.roots
    np.testing.assert_allclose(minus_one.value, -1.0, atol=ROOT_ATOL)
    assert minus_one.multiplicity == 4
    np.testing.assert_allclose(two.value, 2.0, atol=ROOT_ATOL)
    assert two.multiplicity == 2


def test_report_is_ordered_lexicographically(double_quad_sextic):
    report = run_pipeline(ProblemSpec(polynomial=double_quad_sextic,
                                      delta=0.3))
    keys = [(r.value.real, r.value.imag) for r in report.roots]
    assert keys == sorted(keys)


def test_external_seed_detects_a_triple_root(cluster_decic):
    spec = ProblemSpec(
        polynomial=cluster_decic,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(cases.CLUSTER_DECIC_SEED_NU3,),
    )
    report = run_pipeline(spec)
    assert len(report.roots) == 1
    record = report.roots[0]
    assert record.multiplicity == 3
    np.testing.assert_allclose(record.value, cases.CLUSTER_DECIC_ROOT_NU3,
                               atol=1e-12)
    assert not report.conserved


def test_companion_source_conserves_multiplicity(quad_quint):
    spec = ProblemSpec(polynomial=quad_quint,
                       seed_source=SeedSource.COMPANION)
    report = run_pipeline(spec)
    assert report.conserved
    assert report.multiplicity_sum == 5
    values = sorted(r.value.real for r in report.roots)
    np.testing.assert_allclose(values, (-2.0, -1.0, 1.0), atol=1e-8)
    mult = {round(r.value.real): r.multiplicity for r in report.roots}
    assert mult == {-2: 1, -1: 2, 1: 2}


def test_dedupe_merges_seed_evidence(quad_quint):
    """Two seeds converging to the simple root at -2 fold into one record."""
    spec = ProblemSpec(
        polynomial=quad_quint,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(-2.1, -1.95),
        algorithm=Algorithm.PADE,
    )
    report = run_pipeline(spec)
    assert len(report.roots) == 1
    record = report.roots[0]
    assert len(record.seeds) == 2
    np.testing.assert_allclose(record.value, -2.0, atol=1e-8)


# Every scalar polynomial of tests/cases.py, Wilkinson 10, and one with an
# exact double root at 0, which is refined as g = f / lambda**2.
FLOOR_POLYNOMIALS = [getattr(cases, name) for name in """DOUBLE_QUAD_SEXTIC
    QUAD_QUINT CLUSTER_DECIC QUINTIC_15 SPARSE_PENTA_CHAR SINGULAR_LEAD_CHAR
    MULT_D8_82 MULT_D8_2 MULT_D9_8 MULT_D10_29 MULT_D7_31 MULT_D10_74
    MULT_D8_32 MULT_D9_13 MULT_D10_24 MULT_D10_34 MULT_D9_28 REAL_D9_90
    RAND_D55_63 RAND_D73_95""".split()] + [
    tuple(float(c) for c in oracles.wilkinson_coeffs(10)),
    (0.0, 0.0) + cases.QUAD_QUINT]


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_reported_residual_is_the_one_the_stopping_rule_passed(algorithm):
    """The record's residual is the engine's residual at the root, bit for
    bit: the stopping test computed it at the same point. The batched
    iterations take relative_residual_all, a point's residual alone; the
    probes of detect and test-nu take relative_residual. A run stops only
    where f vanishes to working precision, so under every algorithm that
    residual is within power_error_bound(g) of the polynomial g refined
    (the exact zero root's is 0), on a random degree 23 polynomial and on
    FLOOR_POLYNOMIALS, from companion and scan seeds."""
    rng = np.random.default_rng(61)
    coeffs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    report = run_pipeline(ProblemSpec(
        polynomial=Polynomial(tuple(coeffs)),
        seed_source=SeedSource.COMPANION, algorithm=algorithm))
    assert report.all_residuals_pass
    probes = algorithm in (Algorithm.DETECT, Algorithm.TEST_NU)
    checked = 0
    for c in [tuple(coeffs)] + FLOOR_POLYNOMIALS:
        g = pipeline._zero_root(Polynomial(c))[1]
        for source in (SeedSource.COMPANION, SeedSource.EXPLORE):
            report = run_pipeline(ProblemSpec(
                polynomial=Polynomial(c), seed_source=source,
                algorithm=algorithm))
            for record in report.roots:
                if not record.value:  # the exact zero root
                    want = 0.0
                elif probes:
                    want = relative_residual(g, record.value)
                else:
                    want = relative_residual_all(g, [record.value])[0]
                assert record.residual == want <= power_error_bound(g)
                checked += 1
    assert checked > 100


def test_dedupe_keeps_a_lone_record_as_it_is(quad_quint):
    records = pipeline._refine(
        ProblemSpec(polynomial=quad_quint, seed_source=SeedSource.EXTERNAL,
                    external_seeds=(-2.1, 0.9), algorithm=Algorithm.PADE),
        quad_quint, (-2.1, 0.9), [])
    merged = pipeline._dedupe(quad_quint, records)
    assert any(r is records[0] for r in merged)


def test_a_record_where_f_nu_vanishes_joins_no_records_that_lie_apart():
    """f = (lambda - 1)**2 (lambda + 1) has f'(1) = 0 exactly, so the
    radius formula is infinite for a simple-root record at 1; it is 0.
    Such a record is the same root only as a record whose own radius
    reaches it (1 + 1e-12, where f' is 4e-12), so it does not join -1,
    which lies apart from it, into one group."""
    f = polynomial_from_roots((1.0, 1.0, -1.0))
    assert refine.root_radii(f, [1.0], [1], [0.0]) == [0.0]
    assert same_root(f, 1.0, 1.0 + 1e-12, 1, 1)
    assert not same_root(f, 1.0, -1.0, 1, 1)
    records = [pipeline.RootRecord(complex(v), 1, 0.0, 1, (complex(v),))
               for v in (-1.0, 1.0, 1.0 + 1e-12)]
    merged = pipeline._dedupe(f, records)
    assert [r.seeds for r in merged] == [(-1.0 + 0j,),
                                         (1.0 + 0j, 1.0 + 1e-12 + 0j)]


@pytest.mark.parametrize("algorithm", [Algorithm.PADE, Algorithm.HALLEY])
def test_batched_degree_check_gives_one_error_line_per_seed(algorithm):
    f = Polynomial((3.0,) if algorithm is Algorithm.PADE else (3.0, 1.0))
    report = run_pipeline(ProblemSpec(
        polynomial=f, seed_source=SeedSource.EXTERNAL,
        external_seeds=(0.5, -0.5), algorithm=algorithm))
    need = "pade iteration needs degree >= 1" if algorithm is \
        Algorithm.PADE else "halley iteration needs degree >= 2"
    assert report.errors[:2] == ("seed %r: %s" % (0.5 + 0j, need),
                                 "seed %r: %s" % (-0.5 + 0j, need))


def test_pade_record_carries_iteration_count(quad_quint):
    spec = ProblemSpec(
        polynomial=quad_quint,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(-2.1,),
        algorithm=Algorithm.PADE,
    )
    report = run_pipeline(spec)
    assert report.algorithm is Algorithm.PADE
    assert report.roots[0].iterations >= 1
    assert report.seed_source is SeedSource.EXTERNAL


def test_test_nu_algorithm_uses_the_probe_order(double_quad_sextic):
    spec = ProblemSpec(
        polynomial=double_quad_sextic,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(cases.DOUBLE_QUAD_SEED_NU2,),
        algorithm=Algorithm.TEST_NU,
        nu=2,
    )
    record = run_pipeline(spec).roots[0]
    np.testing.assert_allclose(record.value, 2.0, atol=1e-12)


def test_probe_beyond_the_float_range_is_a_seed_error():
    """At 1.5+1.5j, the probe's step on 1 + 1e308 lambda passes the float
    range with a NaN part: the probe ends as a numerical error, and the
    seed gets an error line instead of raising out of run_pipeline."""
    report = run_pipeline(ProblemSpec(
        polynomial=Polynomial((1.0, 1e308)), seed_source=SeedSource.EXTERNAL,
        external_seeds=(1.5 + 1.5j,), algorithm=Algorithm.TEST_NU, nu=1))
    assert report.roots == ()
    assert report.errors[0] == (
        "seed (1.5+1.5j): numerical-error (step is not a number at "
        "(1.5+1.5j))")


SCALE_SOLVES = (
    (Algorithm.PADE, SeedSource.COMPANION),
    (Algorithm.HALLEY, SeedSource.COMPANION),
    (Algorithm.DETECT, SeedSource.COMPANION),
    (Algorithm.DETECT, SeedSource.EXPLORE),
    (Algorithm.RAYLEIGH, SeedSource.COMPANION),
    (Algorithm.REDUCED, SeedSource.COMPANION),
)


@pytest.mark.parametrize("k", (-1000, -970, -500, 500, 900))
@pytest.mark.parametrize("name", ("quadratic", "sextic", "wilkinson10"))
def test_c_times_f_solves_like_f(name, k, wilkinson10):
    """Every test of a solve compares f with f' or with the magnitude sum
    of its terms, so c f has the roots, multiplicities and verdicts of f;
    c = 2**k scales the coefficients exactly. Fixed thresholds at
    underflow level broke that: at k = -970 every step on the quadratic
    read as a vanishing derivative, and at k = -1000 every coefficient of
    the quadratic read as zero."""
    coeffs = {"quadratic": (2.0, -3.0, 1.0),
              "sextic": cases.DOUBLE_QUAD_SEXTIC,
              "wilkinson10": wilkinson10.coeffs}[name]
    scaled = tuple(a * 2.0 ** k for a in coeffs)
    for algorithm, source in SCALE_SOLVES:
        want, got = (run_pipeline(ProblemSpec(
            polynomial=Polynomial(c), algorithm=algorithm,
            seed_source=source)) for c in (coeffs, scaled))
        case = (algorithm.value, source.value)
        assert len(got.roots) == len(want.roots), case
        for r, w in zip(got.roots, want.roots):
            assert same_root(Polynomial(coeffs), r.value, w.value,
                             r.multiplicity, w.multiplicity), case
            assert r.multiplicity == w.multiplicity, case
        assert got.conserved == want.conserved, case
        assert got.all_residuals_pass == want.all_residuals_pass, case


# f(lambda / 2**k) for k = -60, -50, ..., 60, and the algorithms under
# which each f is solved like f; under the others no scaled report passes
# where f's report fails.
LAMBDA_SCALES = range(-60, 61, 10)
LAMBDA_SCALED = {
    "wilkinson10": (oracles.wilkinson_coeffs(10), (
        Algorithm.PADE, Algorithm.HALLEY, Algorithm.DETECT,
        Algorithm.RAYLEIGH, Algorithm.REDUCED)),
    "quintic": (polynomial_from_roots((1, -2, 3, 0.5 + 1j, 0.5 - 1j)).coeffs,
                (Algorithm.PADE, Algorithm.HALLEY, Algorithm.DETECT,
                 Algorithm.RAYLEIGH, Algorithm.REDUCED)),
    "triple": (polynomial_from_roots((1, 1, 1, 2, 2, 3)).coeffs,
               (Algorithm.DETECT,)),
    "sextic": (cases.DOUBLE_QUAD_SEXTIC, (Algorithm.DETECT,)),
}


def _lambda_scaled(coeffs, k):
    """The coefficients a_j 2**(-k j) of f(lambda / 2**k), exact."""
    return tuple(complex(a) * 2.0 ** (-k * j) for j, a in enumerate(coeffs))


@pytest.mark.parametrize("name", sorted(LAMBDA_SCALED))
def test_lambda_scaled_f_solves_like_f(name):
    """f(lambda / s), s = 2**k, has the roots s r of f, and every test of a
    solve, root identity included, reads a rounding floor that scales
    with lambda. So from companion seeds, at every k, it is solved as f
    is: the roots of f's report times s, each the same root as one of the
    scaled report with its multiplicity, and the same verdicts. The roots
    match as sets: the real parts of the quintic's pair 1/2 +- i can
    differ in the last bit, which flips their order in the report. Under
    every algorithm, no scaled report passes where f's fails. An identity
    tolerance with an absolute floor, such as 1e-8 (1 + |lambda|), would
    merge the roots of Wilkinson 10 and of the quintic into one from
    k = -30 down."""
    coeffs, solved_alike = LAMBDA_SCALED[name]
    for algorithm in (Algorithm.PADE, Algorithm.HALLEY, Algorithm.DETECT,
                      Algorithm.RAYLEIGH, Algorithm.REDUCED):
        want = run_pipeline(ProblemSpec(
            polynomial=Polynomial(tuple(coeffs)), algorithm=algorithm,
            seed_source=SeedSource.COMPANION))
        for k in LAMBDA_SCALES:
            f = Polynomial(_lambda_scaled(coeffs, k))
            got = run_pipeline(ProblemSpec(
                polynomial=f, algorithm=algorithm,
                seed_source=SeedSource.COMPANION))
            case = (algorithm.value, k)
            assert want.all_residuals_pass or not got.all_residuals_pass, case
            if algorithm in solved_alike:
                _assert_solved_alike(f, k, want, got, case)


def _assert_solved_alike(f, k, want, got, case):
    """got, the report on f = (want's polynomial)(lambda / 2**k), has
    want's verdicts and, for each of want's roots r, one root of its
    multiplicity that is the same root of f as 2**k r."""
    assert got.conserved == want.conserved, case
    assert got.all_residuals_pass == want.all_residuals_pass, case
    left = list(got.roots)
    assert len(left) == len(want.roots), case
    for w in want.roots:
        scaled = w.value * 2.0 ** k
        match = [r for r in left if r.multiplicity == w.multiplicity
                 and same_root(f, r.value, scaled, r.multiplicity,
                               w.multiplicity)]
        assert len(match) == 1, (case, w.value)
        left.remove(match[0])


@pytest.mark.xfail(
    strict=True, reason="the step test |step| <= STEP_TOL (1 + |lambda|) "
    "has an absolute floor below |lambda| = 1: from k = -20 down the "
    "creeping Pade runs at the triple and double roots end CONVERGED "
    "instead of AT_FLOOR, skip the zero count, and stay in the report as "
    "simple roots (ROADMAP item 8)")
def test_lambda_scaled_triple_solves_like_f_under_pade():
    """(lambda - 1)**3 (lambda - 2)**2 (lambda - 3) with its roots scaled
    by 2**k, from companion seeds under pade: at every k its report is
    f's, one record and five at-floor lines, scaled. Today k <= -30
    gives three simple records and k = -20 two."""
    coeffs = LAMBDA_SCALED["triple"][0]
    spec = ProblemSpec(polynomial=Polynomial(tuple(coeffs)),
                       algorithm=Algorithm.PADE,
                       seed_source=SeedSource.COMPANION)
    want = run_pipeline(spec)
    for k in LAMBDA_SCALES:
        f = Polynomial(_lambda_scaled(coeffs, k))
        got = run_pipeline(replace(spec, polynomial=f))
        _assert_solved_alike(f, k, want, got, k)
        assert len(got.errors) == len(want.errors), k


def test_lambda_scaled_sextic_does_not_pass_under_rayleigh():
    """(lambda + 1)**4 (lambda - 2)**2 with its roots scaled by 2**10:
    rayleigh from companion seeds ends its four rows at the 4-fold root
    about 1e-4 apart, relative, each a simple root. Their radii reach each
    other, so they are one root, and the report fails, as the unscaled
    report does. A tolerance of 1e-8 (1 + |lambda|) would keep them apart,
    and six simple roots would pass."""
    report = run_pipeline(ProblemSpec(
        polynomial=Polynomial(_lambda_scaled(cases.DOUBLE_QUAD_SEXTIC, 10)),
        algorithm=Algorithm.RAYLEIGH, seed_source=SeedSource.COMPANION))
    assert not report.conserved and not report.all_residuals_pass
    near = [r for r in report.roots if abs(r.value + 1024.0) < 1.0]
    assert len(near) == 1 and len(near[0].seeds) == 4


def test_roots_scaled_by_1e_minus_9_stay_apart():
    """The roots 1, 2 and 3 scaled by 1e-9 come back as three simple
    roots, as 1, 2 and 3 do: root identity reads each record's attainable
    radius, which scales with lambda, and no absolute floor."""
    report = run_pipeline(ProblemSpec(
        polynomial=polynomial_from_roots((1e-9, 2e-9, 3e-9)),
        algorithm=Algorithm.DETECT, seed_source=SeedSource.COMPANION))
    assert report.conserved
    assert [r.multiplicity for r in report.roots] == [1, 1, 1]
    for r, want in zip(report.roots, (1e-9, 2e-9, 3e-9)):
        assert abs(r.value - want) <= 1e-6 * want


def test_rayleigh_algorithm_refines_through_one_list(wilkinson10):
    spec = ProblemSpec(
        polynomial=wilkinson10,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=cases.PERTURBED_WILKINSON_SIGMAS,
        algorithm=Algorithm.RAYLEIGH,
    )
    report = run_pipeline(spec)
    assert report.conserved
    values = sorted(r.value.real for r in report.roots)
    np.testing.assert_allclose(values, np.arange(1.0, 11.0), atol=1e-7)


def test_list_row_that_does_not_converge_is_one_seed_error(monkeypatch):
    """Rayleigh refines the list rows in the same per-seed loop as every
    other algorithm: with six iterations the row of seed 1.001 stops at
    max-iters, gets the usual seed error line, and the other rows still
    give their roots."""
    spec = ProblemSpec(
        polynomial=polynomial_from_roots((1.0, 2.0, 3.0)),
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(1.001, 1.5, 3.2),
        algorithm=Algorithm.RAYLEIGH,
    )
    monkeypatch.setattr(refine, "MAX_ITERS", 6)
    report = run_pipeline(spec)
    assert "seed (1.001+0j): max-iters" in report.errors
    values = [r.value for r in report.roots]
    np.testing.assert_allclose(values, (2.0, 3.0), atol=1e-10)
    assert [r.seeds for r in report.roots] == [(1.5 + 0j,), (3.2 + 0j,)]


@pytest.mark.parametrize("algorithm", (Algorithm.RAYLEIGH, Algorithm.REDUCED))
@pytest.mark.parametrize("offset", (0.0, 1e-9))
def test_list_row_at_a_root_keeps_it(algorithm, offset):
    """An interpolation value at a root (defect 0) or 1e-9 from it: the
    row converges on f's residual instead of creeping or hitting its own
    pole."""
    spec = ProblemSpec(
        polynomial=polynomial_from_roots((1.0, 2.0, 3.0)),
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(1.0 + offset, 2.2, 3.3),
        algorithm=algorithm,
    )
    report = run_pipeline(spec)
    assert report.all_residuals_pass
    values = [r.value for r in report.roots]
    np.testing.assert_allclose(values, (1.0, 2.0, 3.0), atol=1e-10)


@pytest.mark.parametrize("algorithm", (Algorithm.RAYLEIGH, Algorithm.REDUCED))
@pytest.mark.parametrize("name", ("RAND_D55_63", "RAND_D73_95"))
def test_companion_list_keeps_every_root(name, algorithm):
    """A Rayleigh step that lands exactly on a rounding-level row's
    interpolation value converges there; every root is kept and agrees
    with np.roots."""
    coeffs = getattr(cases, name)
    report = run_pipeline(ProblemSpec(polynomial=Polynomial(coeffs),
                                      seed_source=SeedSource.COMPANION,
                                      algorithm=algorithm))
    assert report.multiplicity_sum == len(coeffs) - 1
    assert report.conserved and report.all_residuals_pass
    want = np.roots(coeffs[::-1])
    for r in report.roots:
        assert np.min(np.abs(want - r.value)) <= 1e-8 * (1.0 + abs(r.value))


@pytest.mark.parametrize("algorithm", (Algorithm.RAYLEIGH, Algorithm.REDUCED))
def test_list_iterations_keep_every_linearisation_eigenvalue(sparse_penta,
                                                             algorithm):
    """The sparse 5x5 seeded with its linearisation's eigenvalues: the rows
    start within rounding of the roots of det F, and all ten are kept."""
    eigenvalues = _sparse_penta_linearisation_eigenvalues()
    report = run_pipeline(ProblemSpec(
        matrix=sparse_penta, seed_source=SeedSource.EXTERNAL,
        external_seeds=tuple(eigenvalues), algorithm=algorithm,
    ))
    assert report.multiplicity_sum == 10 and report.conserved
    assert len(report.roots) == 10
    for r in report.roots:
        assert np.min(np.abs(eigenvalues - r.value)) <= 1e-6


def _written_disks(ecp):
    """The GershgorinDisk of every disk an ``ecp`` dict writes: center
    ``main_values[k]`` and, for a separated disk, center +- radius as an
    interval of a real list or a box of a complex one."""
    lst = ecp["final_list"]
    real = all(s[1] == 0.0 and d[1] == 0.0
               for s, d in zip(lst["sigmas"], lst["defects"]))
    disks = []
    for (u, v), disk in zip(lst["main_values"], ecp["disks"]):
        r, separated = disk["radius"], disk["separated"]
        enclosure = {}
        if separated and real:
            enclosure = {"interval": (u - r, u + r)}
        elif separated:
            enclosure = {"box": ((u - r, u + r), (v - r, v + r))}
        disks.append(GershgorinDisk(complex(u, v), r, separated, **enclosure))
    return tuple(disks)


@pytest.mark.parametrize("roots, seeds, enclosure", [
    ((1.0, 2.0, -3.0), (0.9, 2.2, -3.3), "interval"),
    ((1 + 1j, 1 - 1j, -2.0, 0.5j), (1.1 + 0.9j, 0.9 - 1.1j, -2.2, 0.1 + 0.6j),
     "box"),
])
def test_written_disks_rebuild_every_enclosure(roots, seeds, enclosure):
    """Each written disk is its radius and separated flag; with the main
    values beside them they rebuild the disks of the final list field for
    field, and ``polyzeros ecp`` writes this same dict."""
    diag = ecp_diagnostics(polynomial_from_roots(roots), seeds)
    data = json.loads(json.dumps(ecp_to_dict(diag)))
    assert all(set(d) == {"radius", "separated"} for d in data["disks"])
    disks = gershgorin_enclosures(diag.final_list)
    assert _written_disks(data) == disks
    assert all(d.separated and getattr(d, enclosure) for d in disks)


def test_solve_report_disks_rebuild_every_enclosure(tmp_path):
    """A ``solve`` report with the ECP phase writes the same disk form; the
    disks it rebuilds are those of the report's own final list."""
    coeffs = polynomial_from_roots((1.1 + 0.7j, 0.3 - 1.3j, -2.2, 2.9)).coeffs
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "kind": "polynomial", "coefficients": [[c.real, c.imag]
                                               for c in coeffs],
        "seed_source": "companion", "algorithm": "pade", "ecp": True}))
    out = tmp_path / "report.json"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    report = run_pipeline(ProblemSpec(polynomial=Polynomial(coeffs),
                                      seed_source=SeedSource.COMPANION,
                                      algorithm=Algorithm.PADE, ecp=True))
    disks = gershgorin_enclosures(report.ecp.final_list)
    assert len(disks) == 4 and all(d.radius > 0 and d.box for d in disks)
    assert _written_disks(data["ecp"]) == disks


def test_ecp_phase_attaches_diagnostics(quad_quint):
    roots = (1.0, 2.0, -3.0)
    f = polynomial_from_roots(roots)
    spec = ProblemSpec(
        polynomial=f,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(0.9, 2.2, -3.3),
        algorithm=Algorithm.PADE,
        ecp=True,
    )
    report = run_pipeline(spec)
    assert report.ecp is not None
    assert report.ecp.control.expected == report.ecp.control.expected
    assert len(report.ecp.disks) == 3
    assert report.ecp.defect_history[0] >= report.ecp.defect_history[-1]
    final_max = max(abs(d) for d in report.ecp.final_list.defects)
    assert final_max <= 1e-10


def test_erroring_seed_is_recorded_and_skipped(quad_quint):
    """Plain Pade creeps linearly onto the double root and stops at the
    rounding floor, where the zero count is 2, not 1: that seed lands in
    the error list while the simple-root seed still produces a record."""
    spec = ProblemSpec(
        polynomial=quad_quint,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(-2.1, 0.93),
        algorithm=Algorithm.PADE,
    )
    report = run_pipeline(spec)
    assert len(report.roots) == 1
    np.testing.assert_allclose(report.roots[0].value, -2.0, atol=1e-8)
    assert "seed (0.93+0j): at-floor" in report.errors
    assert not report.conserved


def test_report_that_lost_roots_does_not_pass(quad_quint, tmp_path):
    """Every found root is within the rounding floor, but two of the five
    roots are missing: the report must not pass and solve must exit 1."""
    spec = ProblemSpec(
        polynomial=quad_quint,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(-2.1,),
        algorithm=Algorithm.PADE,
    )
    report = run_pipeline(spec)
    assert report.roots
    assert all(r.residual <= power_error_bound(quad_quint)
               for r in report.roots)
    assert report.conserved is False
    assert report.all_residuals_pass is False
    path = tmp_path / "one_seed.json"
    path.write_text(json.dumps(problem_spec_to_dict(spec)))
    assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 1


def test_every_failing_report_says_why(monkeypatch):
    """A report that does not pass has at least one error line: each
    benchmark problem at seed 1, and a nonzero constant, which has degree
    0 and so no zeros to report."""
    monkeypatch.syspath_prepend(Path(__file__).parents[1] / "perfbench")
    import polyzeros
    import workloads
    from specs import build_spec
    specs = [build_spec(polyzeros, problem.file)
             for workload in workloads.WORKLOADS
             for problem in workloads.generate(workload, 1)]
    specs.append(ProblemSpec(polynomial=Polynomial((5.0,))))
    failing = [report for report in map(run_pipeline, specs)
               if not report.all_residuals_pass]
    assert len(failing) > 1
    assert all(report.errors for report in failing)
    assert failing[-1].errors == (
        "the polynomial has degree 0 and so no zeros",)


def test_user_coefficients_keep_their_full_degree():
    """Wilkinson 15's largest coefficient is 6.2e12 times its leading one.
    That leading term is the user's data, not noise to trim, so the report
    keeps degree 15. Plain Pade from the companion seeds steps at rounding
    level on most roots; it stops at the floor there, and the report keeps
    all 15 roots."""
    f = Polynomial(tuple(float(c) for c in oracles.wilkinson_coeffs(15)))
    report = run_pipeline(ProblemSpec(
        polynomial=f, seed_source=SeedSource.COMPANION,
        algorithm=Algorithm.PADE,
    ))
    assert report.effective_degree == 15
    assert report.conserved
    assert sum(r.multiplicity for r in report.roots) == 15


def _bundles(matrix, records):
    """eigenvectors_all at the records' values, the solve's rank test with
    vectors, less the values it refuses: one bundle per eigenpair."""
    return [b for b in matpoly.eigenvectors_all(
        matrix, [r.value for r in records])
        if not isinstance(b, NotAnEigenvalueError)]


def test_matrix_problem_attaches_eigenvectors(singular_lead):
    """Every root of the singular-lead pencil makes F singular; its
    vectors come from eigenvectors_all at the report's values."""
    spec = ProblemSpec(matrix=singular_lead,
                       seed_source=SeedSource.COMPANION)
    report = run_pipeline(spec)
    assert report.effective_degree == 5
    assert report.conserved
    assert len(report.eigenvectors) == len(report.roots)
    bundles = _bundles(spec.matrix, report.roots)
    assert len(bundles) == len(report.eigenvectors)
    for record, count, bundle in zip(report.roots, report.eigenvectors,
                                     bundles):
        assert bundle.right_vectors is not None
        assert bundle.left_vectors is not None
        assert not 0 < count < record.multiplicity  # not defective
        assert bundle.rank_deficiency >= 1
        assert count == bundle.rank_deficiency


def test_diagonal_seed_matrix_run(sparse_penta):
    """Diagonal seeds on the pentadiagonal pencil find most of the spectrum
    at the accuracy the recomputed characteristic coefficients allow."""
    spec = ProblemSpec(matrix=sparse_penta, seed_source=SeedSource.DIAGONAL)
    report = run_pipeline(spec)
    assert report.effective_degree == 10
    values = [r.value for r in report.roots]
    assert any(abs(v - cases.SPARSE_PENTA_EIGENVALUE) < 1e-6 for v in values)
    assert report.eigenvectors
    bundles = _bundles(spec.matrix, report.roots)
    assert len(bundles) == len(report.eigenvectors)
    for bundle in bundles:
        assert all(r <= 1e-5 for r in bundle.right_residuals)


@pytest.mark.xfail(
    strict=True, reason="the diagonal seeds are 1, 0, 0, 0, 1: the three at "
    "exactly 0 hit the nu-probe's origin guard, and the two at the double "
    "eigenvalue 1 count all five zeros on their first circle (radius "
    "m|f/f'| = 4.09): their nu = 5 probe runs to max-iters and the "
    "nu = 1 walk ends at -1 (ROADMAP item 4, the per-seed circle)")
def test_pencil_from_diagonal_seeds_finds_every_eigenvalue(pencil5):
    """Diagonal seeds are the default for a matrix problem file; on the
    5x5 pencil they should find all five eigenvalues, 1 twice."""
    report = run_pipeline(ProblemSpec(matrix=pencil5,
                                      seed_source=SeedSource.DIAGONAL))
    assert report.multiplicity_sum == 5 and report.all_residuals_pass


def _order_40_matrix():
    rng = np.random.default_rng(1)
    n = 40
    return polynomial_matrix([rng.standard_normal((n, n)),
                              rng.standard_normal((n, n)), np.eye(n)])


def test_regular_lead_degree_shortfall_is_not_conserved():
    """A regular leading matrix fixes deg det F at rho*n, so the report's
    effective degree is rho*n on every route. At n = 40 the interpolated
    characteristic polynomial falls short of 80, and the multiplicities
    summing to that short degree must not pass as conserved. Halley still
    solves on det F."""
    pm = _order_40_matrix()
    assert pm.leading_regular
    assert matpoly.characteristic_polynomial(pm).degree < 80
    report = run_pipeline(ProblemSpec(
        matrix=pm, seed_source=SeedSource.COMPANION,
        algorithm=Algorithm.HALLEY))
    assert report.effective_degree == pm.nominal_char_degree == 80
    assert report.multiplicity_sum < 80
    assert report.conserved is False
    assert report.all_residuals_pass is False
    assert ("multiplicity sum %d does not match effective degree 80"
            % report.multiplicity_sum) in report.errors


def test_linearisation_solves_the_order_40_quadratic():
    """From the linearisation the same F gets all 80 eigenvalues, each
    certified on F and simple, and the report passes."""
    report = run_pipeline(ProblemSpec(
        matrix=_order_40_matrix(), seed_source=SeedSource.COMPANION,
        algorithm=Algorithm.PADE))
    assert report.effective_degree == report.multiplicity_sum == 80
    assert report.eigenvectors == (1,) * 80
    assert report.all_residuals_pass and report.errors == ()


def _order_14_spec():
    """Random monic quadratic at n = 14, seeded from its linearisation."""
    rng = np.random.default_rng(1)
    n = 14
    a0, a1 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    linearisation = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -a1]])
    return ProblemSpec(
        matrix=polynomial_matrix([a0, a1, np.eye(n)]),
        seed_source=SeedSource.EXTERNAL,
        external_seeds=tuple(np.linalg.eigvals(linearisation)),
        algorithm=Algorithm.PADE,
    )


def test_eigenvalue_without_eigenvectors_fails_the_report(tmp_path):
    """At n = 14 Pade converges from the linearisation's eigenvalues to
    roots of the interpolated det F that sit up to 3e-4 away; F(lambda)
    stays regular at 5 of them, so the report must not pass."""
    spec = _order_14_spec()
    report = run_pipeline(spec)
    assert len(report.eigenvectors) == len(report.roots)
    assert report.eigenvectors.count(0) == 5
    assert report.all_residuals_pass is False
    path = tmp_path / "n14.json"
    path.write_text(json.dumps(problem_spec_to_dict(spec)))
    assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 1


def test_matrix_report_writes_one_eigenvector_count_per_root(
        singular_lead):
    """A matrix report's "eigenvectors" holds one int per root, the rank
    deficiency of F at its value. A value where F is regular counts 0 and
    leaves one error line, which names the value first, and a conserved
    report passes exactly when no count is 0. A scalar report writes
    none."""
    outcomes = set()
    for spec in (_order_14_spec(), _order_20_spec(),
                 ProblemSpec(matrix=singular_lead,
                             seed_source=SeedSource.COMPANION)):
        report = run_pipeline(spec)
        counts = report_to_dict(report)["eigenvectors"]
        assert len(counts) == len(report.roots) > 0
        ranks = matpoly.singular_ranks_all(
            spec.matrix, [r.value for r in report.roots])
        for record, count, rank in zip(report.roots, counts, ranks):
            assert type(count) is int
            if isinstance(rank, NotAnEigenvalueError):
                assert count == 0
                assert report.errors.count(str(rank)) == 1
                assert str(rank).startswith(
                    "%r is not an eigenvalue:" % record.value)
            else:
                assert count == rank >= 1
        assert report.all_residuals_pass == (
            report.conserved and 0 not in counts)
        outcomes.add((report.conserved, 0 in counts))
    assert {(True, True), (True, False)} <= outcomes
    scalar = run_pipeline(ProblemSpec(polynomial=Polynomial((2.0, -3.0, 1.0)),
                                      seed_source=SeedSource.COMPANION))
    assert report_to_dict(scalar)["eigenvectors"] == []


def _partner(matrix, records, value):
    """The exact conjugate of value when F is real, Im value < 0 and that
    conjugate is a record's value too; value itself otherwise."""
    if (matrix.is_real() and value.imag < 0
            and value.conjugate() in {r.value for r in records}):
        return value.conjugate()
    return value


def _reference_eigenvector_phase(matrix, records):
    """Eigenpairs and error lines of the eigenvector phase, one value at a
    time through the one-sided wrappers. A value with a partner
    (:func:`_partner`) takes the partner's singular values, rank and
    conjugated vectors, and residuals from its own F(lambda)."""
    pairs, errors = [], []
    for record in records:
        value = record.value
        partner = _partner(matrix, records, value)
        try:
            right = matpoly.extract_eigenvectors(matrix, partner)
            left = matpoly.left_eigenvectors(matrix, partner)
        except NotAnEigenvalueError as exc:
            exc = NotAnEigenvalueError(value, exc.eta, matpoly.SINGULAR_REL)
            errors.append(str(exc))
            continue
        x, y = right.right_vectors, left.left_vectors
        if partner != value:
            x, y = x.conj(), y.conj()
        evaluated = matpoly.eval_matrix(matrix, value)
        pairs.append((value, record.multiplicity,
                      right.rank_deficiency, x.tobytes(), y.tobytes(),
                      tuple(np.max(np.abs(evaluated @ x), axis=0)),
                      tuple(np.max(np.abs(evaluated.T @ y), axis=0)),
                      right.rank_deficiency < record.multiplicity))
    return pairs, errors


def test_eigenvector_phase_pairs_what_one_value_extraction_finds(
        sparse_penta, singular_lead):
    """The phase's one stacked rank test gives every record the rank (0
    where F is regular), defective flag and error line, and
    eigenvectors_all over the records' values the vectors and residuals,
    that extracting at its value alone gives, except that on a real F a
    value below the real axis whose exact conjugate is a record too gets
    the conjugate's, conjugated."""
    partners = 0
    for spec in (
        _order_14_spec(),
        ProblemSpec(matrix=sparse_penta, seed_source=SeedSource.DIAGONAL),
        ProblemSpec(matrix=singular_lead, seed_source=SeedSource.COMPANION),
    ):
        records = run_pipeline(spec).roots
        partners += sum(_partner(spec.matrix, records, r.value) != r.value
                        for r in records)
        errors = []
        counts = pipeline._eigenvector_phase(spec.matrix, records, errors)
        assert len(counts) == len(records)
        accepted = [(r, c) for r, c in zip(records, counts) if c]
        bundles = _bundles(spec.matrix, records)
        assert len(bundles) == len(accepted)
        assert all(b.eigenvalue == r.value and b.rank_deficiency == c
                   for (r, c), b in zip(accepted, bundles))
        got = [(r.value, r.multiplicity, c,
                b.right_vectors.tobytes(), b.left_vectors.tobytes(),
                b.right_residuals, b.left_residuals, c < r.multiplicity)
               for (r, c), b in zip(accepted, bundles)]
        assert (got, errors) == _reference_eigenvector_phase(spec.matrix,
                                                             records)
    assert partners > 0


def _sparse_penta_linearisation_eigenvalues():
    a0, a1, a2 = (np.array(a, dtype=float) for a in (
        cases.SPARSE_PENTA_A0, cases.SPARSE_PENTA_A1, cases.SPARSE_PENTA_A2))
    lead = np.linalg.inv(a2)
    linearisation = np.block([[np.zeros((5, 5)), np.eye(5)],
                              [-lead @ a0, -lead @ a1]])
    return np.linalg.eigvals(linearisation)


@pytest.mark.parametrize("algorithm", (Algorithm.PADE, Algorithm.RAYLEIGH,
                                       Algorithm.REDUCED))
def test_linearisation_seeds_give_every_eigenpair_of_the_sparse_pencil(
        sparse_penta, algorithm):
    """Seeded with its linearisation's eigenvalues, the sparse 5x5 gets
    all ten eigenvalues, up to 4.3e-7 off, where sigma_min / sigma_max of
    F(lambda) reaches 2.3e-7. Each gets both-sided eigenvectors, and the
    report passes with no error line."""
    report = run_pipeline(ProblemSpec(
        matrix=sparse_penta, seed_source=SeedSource.EXTERNAL,
        external_seeds=tuple(_sparse_penta_linearisation_eigenvalues()),
        algorithm=algorithm,
    ))
    assert len(report.eigenvectors) == 10
    assert report.all_residuals_pass
    assert report.errors == ()


def test_quad_n7_eigenvalues_get_their_eigenvectors():
    """quad-n7-0 of the matrix-eig workload: its linearisation gives its
    14 eigenvalues, each certified on F with one eigenvector, so the
    report passes."""
    n = 7
    a0, a1 = np.array(cases.QUAD_N7_A0), np.array(cases.QUAD_N7_A1)
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([a0, a1, np.eye(n)]),
        seed_source=SeedSource.COMPANION, algorithm=Algorithm.PADE,
    ))
    linearisation = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -a1]])
    eigenvalues = np.linalg.eigvals(linearisation)
    assert len(report.roots) == 14
    for r in report.roots:
        assert np.min(np.abs(eigenvalues - r.value)) <= 1e-12
    assert report.eigenvectors == (1,) * 14
    assert report.all_residuals_pass
    assert report.errors == ()


def test_real_matrix_eigenvalues_come_in_exact_conjugate_pairs():
    """For a real F, its real linearisation, whose eigenvalues come from
    real LAPACK, keeps every complex eigenvalue's exact conjugate in the
    report."""
    n = 7
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([np.array(cases.QUAD_N7_A0),
                                  np.array(cases.QUAD_N7_A1), np.eye(n)]),
        seed_source=SeedSource.COMPANION, algorithm=Algorithm.PADE))
    values = [r.value for r in report.roots]
    assert any(v.imag != 0.0 for v in values)
    assert all(v.conjugate() in values for v in values)


_DET_F_SPLITS_THE_DOUBLE_ZERO = pytest.mark.xfail(
    strict=True, reason="halley and detect still solve on det F, which is "
    "interpolated: at F = lambda * I_2 it comes out as lambda^2 + 7.4e-16, "
    "so the double eigenvalue 0 splits into +-2.7e-8i, where F's backward "
    "error sigma_min / S is 1, and both values fail the rank test. "
    "Refining on F itself (ROADMAP item 1, part A) would find 0 twice")


@pytest.mark.parametrize("algorithm", (
    Algorithm.PADE,
    pytest.param(Algorithm.HALLEY, marks=_DET_F_SPLITS_THE_DOUBLE_ZERO),
    pytest.param(Algorithm.DETECT, marks=_DET_F_SPLITS_THE_DOUBLE_ZERO)))
def test_double_eigenvalue_of_a_scaled_identity(algorithm):
    """F(lambda) = lambda * I_2 has the one eigenvalue 0, of multiplicity
    2 and with two eigenvectors. Pade from companion seeds takes F's
    linearisation, where both values are exactly 0 and F(0) = 0."""
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([np.zeros((2, 2)), np.eye(2)]),
        seed_source=SeedSource.COMPANION, algorithm=algorithm))
    assert [(r.value, r.multiplicity) for r in report.roots] == [(0j, 2)]
    assert report.eigenvectors == (2,)
    assert report.all_residuals_pass


@pytest.mark.parametrize("source, algorithm", (
    (SeedSource.DIAGONAL, Algorithm.DETECT),
    (SeedSource.COMPANION, Algorithm.HALLEY),
    (SeedSource.COMPANION, Algorithm.DETECT)))
def test_one_by_one_f_passes_on_det_f(source, algorithm):
    """F = (lambda - 1)(lambda - 2) as a 1 x 1 matrix, solved on det F:
    at each root F(lambda) is its own largest singular value, but it is
    small against its terms, sum |lambda|**i |a_i|, so the rank test
    counts one eigenvector at each and the report passes."""
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([[[2.0]], [[-3.0]], [[1.0]]]),
        seed_source=source, algorithm=algorithm))
    assert [round(r.value.real, 9) for r in report.roots] == [1.0, 2.0]
    assert report.eigenvectors == (1, 1)
    assert report.all_residuals_pass and report.errors == ()


@pytest.mark.parametrize("algorithm", (Algorithm.PADE, Algorithm.DETECT))
def test_eigenvalue_of_geometric_multiplicity_n_counts_n_vectors(algorithm):
    """F = P (lambda - 1)(lambda - 2) I_3 P^-1, P from default_rng(0): F
    is 0 at 1 and 2 up to rounding, so every singular value there is
    rounding noise, and none is small against the largest. Against the
    scale of F's terms all three are, so from companion seeds, on the
    linearisation (pade) and on det F (detect), each eigenvalue counts
    three vectors and the report passes."""
    p = np.random.default_rng(0).standard_normal((3, 3))
    inverse = np.linalg.inv(p)
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([a * p @ inverse for a in (2.0, -3.0, 1.0)]),
        seed_source=SeedSource.COMPANION, algorithm=algorithm))
    assert [round(r.value.real, 6) for r in report.roots] == [1.0, 2.0]
    assert [r.multiplicity for r in report.roots] == [3, 3]
    assert report.eigenvectors == (3, 3)
    assert report.all_residuals_pass and report.errors == ()


def _triple_eigenvalue_matrix():
    """cases.TRIPLE_EIG_*: det F is a multiple of
    (lambda - 1/2)**3 (lambda + 1)(lambda**2 + 4)."""
    p, q = np.array(cases.TRIPLE_EIG_P), np.array(cases.TRIPLE_EIG_Q)
    return polynomial_matrix([p @ np.diag(d) @ q
                              for d in cases.TRIPLE_EIG_DIAGONALS])


_DET_F_SPLITS_THE_TRIPLE = pytest.mark.xfail(
    strict=True, reason="every algorithm but pade still solves on det F, "
    "which is interpolated, so companion seeds split the triple eigenvalue "
    "1/2 into three roots of det F about 3e-4 apart; F's backward error "
    "is below the eigenvector threshold at each, so three simple "
    "eigenvalues pass. Eigenvalues from F itself (ROADMAP item 1, part A), "
    "guards derived from rounding errors (item 3) and a zero-count "
    "certificate on the report (item 4) would each fail it")


@pytest.mark.parametrize("algorithm", (Algorithm.PADE,) + tuple(
    pytest.param(a, marks=_DET_F_SPLITS_THE_TRIPLE) for a in (
        Algorithm.HALLEY, Algorithm.RAYLEIGH, Algorithm.REDUCED,
        Algorithm.DETECT)))
def test_real_matrix_triple_eigenvalue_is_not_three_simple_ones(algorithm):
    """A report on F with the triple eigenvalue 1/2 passes only if it
    names that eigenvalue once, with multiplicity 3. Pade from companion
    seeds takes F's linearisation and groups the triple's three values by
    their radii."""
    report = run_pipeline(ProblemSpec(
        matrix=_triple_eigenvalue_matrix(),
        seed_source=SeedSource.COMPANION, algorithm=algorithm))
    near = [r for r in report.roots if abs(r.value - 0.5) < 1e-2]
    assert not report.all_residuals_pass or [
        r.multiplicity for r in near] == [3]


# The monic diagonal factors D(lambda), coefficients of l**0, l**1 and
# l**2 per entry, of F = P D Q with P, Q = cases.TRIPLE_EIG_P/Q: a
# semisimple double 1/2, a defective double 1/2 and a triple 1/2 of
# geometric multiplicity 2, with (multiplicity, eigenvector count) at 1/2.
_MULTIPLE_EIGENVALUES = {
    "semisimple-double": ((((-0.5, 0.5, 1.0), (1.0, -2.5, 1.0),
                            (4.0, 0.0, 1.0))), (2, 2)),
    "defective-double": ((((0.25, -1.0, 1.0), (1.0, 0.0, 1.0),
                           (-3.0, -2.0, 1.0))), (2, 1)),
    "triple": ((((0.25, -1.0, 1.0), (-0.5, 0.5, 1.0), (4.0, 0.0, 1.0))),
               (3, 2)),
}


def _multiple_eigenvalue_spec(name):
    p, q = np.array(cases.TRIPLE_EIG_P), np.array(cases.TRIPLE_EIG_Q)
    entries = np.array(_MULTIPLE_EIGENVALUES[name][0])
    return ProblemSpec(matrix=polynomial_matrix([p @ np.diag(d) @ q
                                                 for d in entries.T]),
                       seed_source=SeedSource.COMPANION,
                       algorithm=Algorithm.PADE)


@pytest.mark.parametrize("name", sorted(_MULTIPLE_EIGENVALUES))
def test_multiple_eigenvalue_with_a_regular_lead_is_one_record(name):
    """The linearisation splits a multiple eigenvalue 1/2 into close
    values; their radii group them into one record at their mean, whose
    count is the rank deficiency of F there. The report names 1/2 once,
    with its multiplicity and eigenvector count, and passes; no value
    near 1/2 passes as a simple one."""
    multiplicity, count = _MULTIPLE_EIGENVALUES[name][1]
    report = run_pipeline(_multiple_eigenvalue_spec(name))
    near = [(r.multiplicity, c) for r, c in zip(report.roots,
                                                report.eigenvectors)
            if abs(r.value - 0.5) < 1e-3]
    assert near == [(multiplicity, count)]
    half = next(r for r in report.roots if abs(r.value - 0.5) < 1e-3)
    assert abs(half.value - 0.5) <= 1e-14
    assert len(half.seeds) == multiplicity and half.iterations == 0
    assert report.all_residuals_pass and report.errors == ()


@pytest.mark.xfail(
    strict=True, reason="the linearisation splits the triple 1/2 into 1/2 "
    "and 1/2 +- 6.5e-8i, each certified by its backward error; the "
    "first-order radii (3.7e-15 and 5.5e-8) do not reach across the "
    "split of the size-2 Jordan block, so no value is grouped, and a "
    "singleton takes no rank test: three simple eigenvalues pass "
    "(ROADMAP item 14)")
def test_split_triple_eigenvalue_does_not_pass_as_three_simple_ones():
    """F = P diag((l - 1/2)**2, (l - 1/2)(l - 2), l**2 + 4, (l + 1)(l - 3))
    Q, with P and Q the first two 4 x 4 standard normal draws of
    default_rng(18), has the triple eigenvalue 1/2 of geometric
    multiplicity 2. Its report passes only if it names 1/2 once, with
    multiplicity 3. P and Q from seeds 60, 135, 137, 229, 269 and 312
    fail the same way."""
    rng = np.random.default_rng(18)
    p, q = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    entries = np.array(((0.25, -1.0, 1.0), (1.0, -2.5, 1.0), (4.0, 0.0, 1.0),
                        (-3.0, -2.0, 1.0)))
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([p @ np.diag(d) @ q for d in entries.T]),
        seed_source=SeedSource.COMPANION, algorithm=Algorithm.PADE))
    near = [r.multiplicity for r in report.roots if abs(r.value - 0.5) < 1e-3]
    assert not report.all_residuals_pass or near == [3]


@pytest.mark.parametrize("radius", (math.inf, math.nan))
def test_radius_that_is_not_finite_passes_no_value(monkeypatch, radius):
    """Were the two values of the semisimple double 1/2 to get a radius
    that is not finite, neither may pass as a simple eigenvalue: each
    leaves an error line and no record, and the report fails."""
    original = pipeline.linearisation_eigenpairs

    def spoiled(pm):
        values, residuals, radii = original(pm)
        return values, residuals, [radius if abs(v - 0.5) < 1e-3 else r
                                   for v, r in zip(values, radii)]

    monkeypatch.setattr(pipeline, "linearisation_eigenpairs", spoiled)
    report = run_pipeline(_multiple_eigenvalue_spec("semisimple-double"))
    assert all(abs(r.value - 0.5) > 1e-3 for r in report.roots)
    assert sum("is not finite" in e for e in report.errors) == 2
    assert report.multiplicity_sum == 4 and not report.all_residuals_pass


def _linearisation_spec(matrices):
    return ProblemSpec(matrix=polynomial_matrix(matrices),
                       seed_source=SeedSource.COMPANION,
                       algorithm=Algorithm.PADE)


def test_linearisation_route_interpolates_no_det_f(monkeypatch, pencil5,
                                                   singular_lead):
    """Pade from companion seeds with a regular lead makes no det F,
    refines nothing and runs no eigenvector phase; each record is a simple
    eigenvalue of F with itself as its seed and no iteration. With an ecp
    phase det F is made inside that phase only, as its diagnostic. Every
    other matrix route still solves on det F."""
    calls = []

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("characteristic_polynomial", "_refine",
                 "_eigenvector_phase", "_ecp_phase"):
        monkeypatch.setattr(pipeline, name, counted(name))
    spec = _linearisation_spec([np.array(cases.QUAD_N7_A0),
                                np.array(cases.QUAD_N7_A1), np.eye(7)])
    report = run_pipeline(spec)
    assert calls == [] and report.all_residuals_pass
    assert all(r.seeds == (r.value,) and r.iterations == 0
               for r in report.roots)
    with_ecp = run_pipeline(replace(spec, ecp=True))
    assert calls == ["_ecp_phase", "characteristic_polynomial"]
    assert with_ecp.ecp is not None
    assert replace(with_ecp, ecp=None) == report
    for other in (replace(spec, algorithm=Algorithm.HALLEY),
                  replace(spec, seed_source=SeedSource.DIAGONAL),
                  ProblemSpec(matrix=pencil5,
                              seed_source=SeedSource.EXTERNAL,
                              external_seeds=(1.0, 2.0, 3.0, 4.0, 5.0),
                              algorithm=Algorithm.PADE),
                  ProblemSpec(matrix=singular_lead,
                              seed_source=SeedSource.COMPANION,
                              algorithm=Algorithm.PADE)):
        calls.clear()
        run_pipeline(other)
        assert "characteristic_polynomial" in calls


def _monic_quadratic(n, scale=1.0):
    """scale (A_0 + lambda A_1 + lambda**2 I), A_0 and A_1 standard normal
    from default_rng([n, 0])."""
    rng = np.random.default_rng([n, 0])
    return [scale * rng.standard_normal((n, n)),
            scale * rng.standard_normal((n, n)), scale * np.eye(n)]


@pytest.mark.parametrize("n", (12, 16, 20))
def test_pade_with_ecp_keeps_the_linearisation(n):
    """The ecp phase is a diagnostic: pade from companion seeds with it
    takes the same records and counts from F's linearisation as without
    it, and passes. At n = 20 the interpolated det F falls short of
    degree 40, so the list on the 40 eigenvalues is refused: ecp is None
    and one error line names the refusal."""
    spec = _linearisation_spec(_monic_quadratic(n))
    report = run_pipeline(replace(spec, ecp=True))
    assert report.all_residuals_pass
    assert replace(report, ecp=None, errors=()) == run_pipeline(spec)
    if n < 20:
        assert report.ecp is not None and report.errors == ()
    else:
        assert report.ecp is None
        assert len(report.errors) == 1
        assert report.errors[0].startswith("ecp phase: expected ")
        assert report.errors[0].endswith(" interpolation values, got 40")


def test_scaled_quadratic_with_ecp_passes_without_det_f(tmp_path, capsys):
    """1e20 times the n = 10 quadratic: det F's sample radius overflows,
    so the ecp phase leaves its one error line, and the report, from the
    linearisation, passes; solve exits 0 with no traceback."""
    problem = tmp_path / "scaled.json"
    problem.write_text(json.dumps({
        "kind": "matrix", "seed_source": "companion", "algorithm": "pade",
        "ecp": True,
        "matrices": [a.tolist() for a in _monic_quadratic(10, 1e20)]}))
    out = tmp_path / "report.json"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text())
    assert data["ecp"] is None and data["multiplicity_sum"] == 20
    assert len(data["errors"]) == 1
    assert data["errors"][0].startswith("ecp phase: sample radius ")


@pytest.mark.parametrize("name", ("quad-n7", "companion-n20"))
def test_linearisation_singletons_count_what_the_rank_test_finds(name):
    """Each simple eigenvalue counts one eigenvector, which is what the
    SVD rank test of singular_ranks_all finds at its value."""
    spec = _order_20_spec() if name == "companion-n20" else (
        _linearisation_spec([np.array(cases.QUAD_N7_A0),
                             np.array(cases.QUAD_N7_A1), np.eye(7)]))
    report = run_pipeline(spec)
    assert all(r.multiplicity == 1 for r in report.roots)
    ranks = matpoly.singular_ranks_all(spec.matrix,
                                       [r.value for r in report.roots])
    assert list(report.eigenvectors) == ranks == [1] * len(ranks)


def test_overflowing_linearisation_leaves_an_error_line(tmp_path):
    """A_2 = 1e-200 I is a regular lead, but A_2^-1 A_1 overflows: the
    report names that, fails, and solve exits 1 with no traceback."""
    spec = _linearisation_spec([np.eye(2), 1e200 * np.eye(2),
                                1e-200 * np.eye(2)])
    report = run_pipeline(spec)
    assert report.roots == () and not report.all_residuals_pass
    assert report.errors[0] == (
        "linearisation is not finite: A_rho^-1 overflows")
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(problem_spec_to_dict(spec)))
    assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("k", (2, 4, 6, 10, 30))
def test_badly_scaled_linearisation_passes_no_wrong_answer(k):
    """quad-n7 with A_1 scaled by 2**k: the companion's eigenpairs lose
    backward stability on F, so values whose eta exceeds the floor leave
    an error line and no record, and the report fails; a report that
    passes holds exactly the eigenvalues of the scaled F. Scaling lambda
    instead, F(lambda / 2**k), is exact and changes nothing."""
    a0, a1 = np.array(cases.QUAD_N7_A0), np.array(cases.QUAD_N7_A1)
    scaled = [a0, a1 * 2.0 ** k, np.eye(7)]
    reference = np.linalg.eigvals(np.block([[np.zeros((7, 7)), np.eye(7)],
                                            [-a0, -scaled[1]]]))
    report = run_pipeline(_linearisation_spec(scaled))
    uncertified = [e for e in report.errors if "exceeds the floor" in e]
    assert report.multiplicity_sum == 14 - len(uncertified)
    assert report.all_residuals_pass == (not uncertified)
    for r in report.roots:
        assert np.min(np.abs(reference - r.value)) <= 1e-12 * abs(r.value)
    s = 2.0 ** k
    lam_scaled = run_pipeline(_linearisation_spec([a0, a1 / s,
                                                   np.eye(7) / s ** 2]))
    assert lam_scaled.all_residuals_pass


def _order_20_spec():
    """Random monic quadratic at n = 20 with companion seeds and Pade: its
    40 eigenvalues come from its linearisation, each certified on F."""
    rng = np.random.default_rng(1)
    n = 20
    a0, a1 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return ProblemSpec(matrix=polynomial_matrix([a0, a1, np.eye(n)]),
                       seed_source=SeedSource.COMPANION,
                       algorithm=Algorithm.PADE)


def test_explore_detect_keeps_every_triple_root():
    report = run_pipeline(ProblemSpec(polynomial=Polynomial(cases.REAL_D9_90)))
    assert [r.value for r in report.roots] == list(cases.REAL_D9_90_ROOTS)
    assert [r.multiplicity for r in report.roots] == [3, 3, 3]
    assert report.multiplicity_sum == 9
    assert report.conserved
    assert report.all_residuals_pass


_MULTIPLE_ROOTS = {
    "quadruple": [1.0] * 4 + [-2.0],
    "triple": [0.5] * 3 + [-1.0, 2j, -2j],
    "double": [1.0] * 2 + [-3.0, 0.25 + 1j],
}


@pytest.mark.parametrize("name, algorithm", [
    (name, algorithm) for name in sorted(_MULTIPLE_ROOTS)
    for algorithm in (Algorithm.PADE, Algorithm.HALLEY, Algorithm.RAYLEIGH,
                      Algorithm.REDUCED)])
def test_simple_root_algorithms_pass_no_multiple_root(name, algorithm):
    """Only detect names multiplicities. From companion seeds, which split
    a nu-fold root into nu seeds, every other algorithm either stops at the
    rounding floor, where the zero count is nu and not 1, or reports nu
    simple roots; neither report may pass. Under the list Rayleigh
    quotient two of the triple root's three seeds, 2e-6 apart, stop at
    the floor of the array residual, and their zero count refuses them."""
    report = run_pipeline(ProblemSpec(
        polynomial=polynomial_from_roots(_MULTIPLE_ROOTS[name]),
        seed_source=SeedSource.COMPANION, algorithm=algorithm))
    assert not report.all_residuals_pass
    if (name, algorithm) == ("triple", Algorithm.RAYLEIGH):
        assert sum(e.endswith(": at-floor") for e in report.errors) == 2
        assert not report.conserved


def test_seed_at_the_noise_floor_keeps_its_simple_root():
    spec = ProblemSpec(polynomial=Polynomial(cases.MULT_D8_82),
                       seed_source=SeedSource.COMPANION)
    assert run_pipeline(spec).conserved


@pytest.mark.parametrize("name", [
    "MULT_D8_2",
    "MULT_D8_32",
    "MULT_D8_82",
    "MULT_D10_29",
    "MULT_D9_8",
    "MULT_D7_31",
    "MULT_D10_74",
])
def test_companion_detect_solves_a_multiple_roots_problem(name):
    """Benchmark problems that per-seed detect fails: every oracle root is
    found once with its multiplicity, and the report passes."""
    f = Polynomial(getattr(cases, name))
    roots = getattr(cases, name + "_ROOTS")
    report = run_pipeline(ProblemSpec(polynomial=f,
                                      seed_source=SeedSource.COMPANION))
    assert report.conserved
    assert len(report.roots) == len(roots)
    for root, nu in roots:
        found = min(report.roots, key=lambda r: abs(r.value - root))
        assert same_root(f, found.value, root, found.multiplicity, nu)
        assert found.multiplicity == nu
    assert report.all_residuals_pass


def test_detect_claims_no_wrong_multiplicity_on_mult_d9_13():
    """Every root the report of mult-d9-13 claims is an oracle root with
    its multiplicity; no quadruple root between the simple and the triple
    root makes a wrong report pass."""
    report = run_pipeline(ProblemSpec(polynomial=Polynomial(cases.MULT_D9_13),
                                      seed_source=SeedSource.COMPANION))
    assert report.roots
    for record in report.roots:
        root, nu = min(cases.MULT_D9_13_ROOTS,
                       key=lambda r: abs(r[0] - record.value))
        assert same_root(Polynomial(cases.MULT_D9_13), record.value, root,
                         record.multiplicity, nu)
        assert record.multiplicity == nu


def test_explore_detect_conserves_wilkinson10(wilkinson10):
    """The scan seeds Wilkinson 10 exactly at its roots, and detect keeps
    all ten, 7 and 8 included, each as a simple root."""
    report = run_pipeline(ProblemSpec(polynomial=wilkinson10))
    assert [(r.value, r.multiplicity) for r in report.roots] == [
        (complex(k), 1) for k in range(1, 11)]
    assert report.conserved
    assert report.all_residuals_pass


def test_report_to_dict_is_json_ready(double_quad_sextic):
    report = run_pipeline(ProblemSpec(polynomial=double_quad_sextic,
                                      delta=0.3))
    payload = report_to_dict(report)
    text = json.dumps(payload, sort_keys=True)
    assert "roots" in payload
    assert json.loads(text) == payload


def test_pipeline_is_deterministic(double_quad_sextic):
    spec = ProblemSpec(polynomial=double_quad_sextic, delta=0.3, ecp=True)
    first = json.dumps(report_to_dict(run_pipeline(spec)), sort_keys=True)
    second = json.dumps(report_to_dict(run_pipeline(spec)), sort_keys=True)
    assert first == second


def test_a_spec_solved_twice_keeps_nothing_derived(monkeypatch):
    """A solve derives the root bound, Horner's terms, the test
    polynomials and the probe terms once, on its own copy of the
    polynomial: the same spec solves to the same bytes twice, each solve
    computes the root bound once, and the spec's polynomial carries only
    its coefficients afterwards."""
    from polyzeros import poly

    calls = []
    bound = poly.fujiwara_root_bound
    monkeypatch.setattr(poly, "fujiwara_root_bound",
                        lambda f: calls.append(f) or bound(f))
    for spec in (ProblemSpec(polynomial=Polynomial(cases.MULT_D8_82),
                             seed_source=SeedSource.COMPANION),
                 ProblemSpec(polynomial=Polynomial(cases.DOUBLE_QUAD_SEXTIC),
                             delta=0.3)):
        texts = []
        for _ in range(2):
            calls.clear()
            texts.append(json.dumps(report_to_dict(run_pipeline(spec)),
                                    sort_keys=True))
            assert len(calls) == 1
        assert texts[0] == texts[1]
        assert vars(spec.polynomial) == {"coeffs": spec.polynomial.coeffs}


@pytest.mark.parametrize("coeffs, source, want", [
    ((0.0, -1.0, 0.0, 1.0), SeedSource.EXPLORE, [(-1, 1), (0, 1), (1, 1)]),
    ((0.0, -1.0, 0.0, 1.0), SeedSource.COMPANION, [(-1, 1), (0, 1), (1, 1)]),
    ((0.0, 0.0, -2.0, 1.0), SeedSource.EXPLORE, [(0, 2), (2, 1)]),
    ((0.0, 0.0, -2.0, 1.0), SeedSource.COMPANION, [(0, 2), (2, 1)]),
    ((0.0, 0.0, 0.0, -1.5, 1.0), SeedSource.EXPLORE, [(0, 3), (1.5, 1)]),
    ((0.0, 0.0, 0.0, -1.5, 1.0), SeedSource.COMPANION, [(0, 3), (1.5, 1)]),
    ((0.0, 0.0, 0.0, 2.0), SeedSource.COMPANION, [(0, 3)]),
])
def test_exact_root_at_zero_is_recorded_with_its_multiplicity(coeffs, source,
                                                              want):
    """a_0 = ... = a_{k-1} = 0 makes lambda = 0 a root of multiplicity
    exactly k. The nu-probe cannot start at its seed 0, so it is recorded
    as it is, with residual 0 and no iteration, and the other roots come
    from a_k..a_m."""
    report = run_pipeline(ProblemSpec(polynomial=Polynomial(coeffs),
                                      seed_source=source))
    assert [(r.value, r.multiplicity) for r in report.roots] == pytest.approx(
        [(complex(v), m) for v, m in want], abs=1e-12)
    zero = next(r for r in report.roots if r.value == 0)
    assert (zero.residual, zero.iterations, zero.seeds) == (0.0, 0, ())
    assert report.errors == ()
    assert report.conserved and report.all_residuals_pass


ZERO_ROOT_EXTERNAL_CASES = [
    ((0.0, -1.0, 0.0, 1.0), (-1.1, 0.1, 1.1),
     [(-1, 1, (-1.1,)), (0, 1, (0.1,)), (1, 1, (1.1,))]),
    ((0.0, 0.0, -2.0, -1.0, 1.0), (-1.1, -0.1, 0.1, 2.1),
     [(-1, 1, (-1.1,)), (0, 2, (-0.1, 0.1)), (2, 1, (2.1,))]),
    ((0.0, 0.0, -2.0, 1.0), (-0.1, 0.1, 2.1),
     [(0, 2, (-0.1, 0.1)), (2, 1, (2.1,))]),
]


@pytest.mark.parametrize("coeffs, seeds, want, algorithm", [
    case + (algorithm,) for case in ZERO_ROOT_EXTERNAL_CASES
    for algorithm in Algorithm
    # Halley needs degree 2, and the quotient lambda - 2 has degree 1.
    if not (algorithm is Algorithm.HALLEY and len(case[0]) == 4
            and case[0][1] == 0.0)])
def test_external_seeds_nearest_an_exact_zero_root_are_its_seeds(
        coeffs, seeds, want, algorithm):
    """External seeds are not made from f / lambda**k: the k of them
    nearest 0 go to the exact zero root's record, and the others, as many
    as the quotient's degree, refine its roots; the interpolation list of
    rayleigh and reduced needs exactly that many."""
    report = run_pipeline(ProblemSpec(
        polynomial=Polynomial(coeffs), seed_source=SeedSource.EXTERNAL,
        external_seeds=seeds, algorithm=algorithm))
    assert [r.value for r in report.roots] == pytest.approx(
        [complex(v) for v, _, _ in want], abs=1e-12)
    assert [(r.multiplicity, r.seeds) for r in report.roots] == [
        (m, tuple(complex(s) for s in taken)) for _, m, taken in want]
    assert report.errors == ()
    assert report.conserved and report.all_residuals_pass


def test_exact_zero_root_carries_no_label_of_a_search_that_did_not_find_it():
    """lambda**2 (lambda - 1) under pade: the algorithm and seed source
    are the solve's, written once at the top level; the exact zero root
    was neither seeded nor iterated, and its entry says just that."""
    data = report_to_dict(run_pipeline(ProblemSpec(
        polynomial=Polynomial((0.0, 0.0, -1.0, 1.0)),
        algorithm=Algorithm.PADE)))
    assert (data["algorithm"], data["seed_source"]) == ("pade", "explore")
    assert all(set(r).isdisjoint({"algorithm", "source"})
               for r in data["roots"])
    zero = next(r for r in data["roots"] if r["value"] == [0.0, 0.0])
    assert (zero["multiplicity"], zero["iterations"], zero["seeds"]) == (
        2, 0, [])
    assert data["conserved"] and data["all_residuals_pass"]


def test_report_of_a_problem_without_a_polynomial_keeps_its_labels():
    """F = diag(1 + lambda, 0) is singular for every lambda, so det F
    cannot be formed; the report still names the solve's algorithm and
    seed source."""
    matrix = polynomial_matrix([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    data = report_to_dict(run_pipeline(ProblemSpec(
        matrix=matrix, seed_source=SeedSource.COMPANION,
        algorithm=Algorithm.HALLEY)))
    assert (data["algorithm"], data["seed_source"]) == ("halley",
                                                        "companion")
    assert data["roots"] == [] and not data["conserved"]
    assert data["errors"][0].startswith("all determinant samples vanished")


def test_fewer_external_seeds_than_the_quotient_degree_all_refine_it():
    """With no seed beyond the degree of f / lambda**k, none is taken for
    the zero root."""
    report = run_pipeline(ProblemSpec(
        polynomial=Polynomial((0.0, -1.0, 0.0, 1.0)),
        seed_source=SeedSource.EXTERNAL, external_seeds=(0.1,)))
    assert [(r.value, r.multiplicity, r.seeds) for r in report.roots] == [
        (0j, 1, ()), (pytest.approx(1.0, abs=1e-12), 1, (0.1 + 0j,))]


def test_probe_whose_test_polynomial_overflows_leaves_an_error_line():
    """(lambda - 1)**140 (lambda + 2) from companion seeds: no group
    settles, and around each seed per-seed detect's first undeclined count
    is the whole degree, 141, whose probe needs f_141, beyond the float
    range. Each of those seeds gets an error line, nothing raises out of
    run_pipeline, and the report does not pass."""
    f = polynomial_from_roots([1.0] * 140 + [-2.0])
    report = run_pipeline(ProblemSpec(polynomial=f,
                                      seed_source=SeedSource.COMPANION))
    assert not report.conserved and not report.all_residuals_pass
    assert any(same_root(f, r.value, -2.0, r.multiplicity, 1)
               for r in report.roots)
    assert report.errors[-1] == ("multiplicity sum %d does not match "
                                 "effective degree 141"
                                 % report.multiplicity_sum)


def _pinned_specs():
    return {
        "mult-d8-82": ProblemSpec(polynomial=Polynomial(cases.MULT_D8_82),
                                  seed_source=SeedSource.COMPANION),
        "rand-d55-63": ProblemSpec(polynomial=Polynomial(cases.RAND_D55_63),
                                   seed_source=SeedSource.COMPANION,
                                   algorithm=Algorithm.PADE),
        "real-d9-90": ProblemSpec(polynomial=Polynomial(cases.REAL_D9_90)),
        "sparse-penta": ProblemSpec(
            matrix=polynomial_matrix([cases.SPARSE_PENTA_A0,
                                      cases.SPARSE_PENTA_A1,
                                      cases.SPARSE_PENTA_A2]),
            seed_source=SeedSource.DIAGONAL),
        "order-14": _order_14_spec(),
        "companion-n20": _order_20_spec(),
        "sextic-delta0.1": ProblemSpec(
            polynomial=Polynomial(cases.DOUBLE_QUAD_SEXTIC)),
        "wilkinson-10": ProblemSpec(polynomial=Polynomial(
            tuple(float(c) for c in oracles.wilkinson_coeffs(10)))),
    }


# SHA-256 of json.dumps(report_to_dict(report), sort_keys=True) (x86-64,
# numpy 2), of problems from the four benchmark workloads. mult-d8-82 settles
# its companion-seed clusters by a zero count and one probe; rand-d55-63
# steps all 55 Pade seeds at once. real-d9-90, sextic-delta0.1 (both
# multiple roots are guarded grid points) and wilkinson-10 (every root is
# a grid point where f is exactly 0) are seeded by the real-axis scan,
# explore+detect at delta 0.1. sparse-penta (diagonal seeds) and order-14
# (five not-an-eigenvalue lines) are matrix problems solved on det F, and
# companion-n20 one solved on its linearisation (40 certified simple
# eigenvalues in exact conjugate pairs from real LAPACK), each with one
# eigenvector count per root. Their values, counts and error lines come
# from LAPACK, so these three hashes hold for one numpy and LAPACK build
# (here numpy 2.4 with OpenBLAS 0.3.31). CHANGES.md records each re-pin.
PINNED_REPORT_SHA256 = {
    "companion-n20":
        "78a32cba5a44540dbeb2e4eae706e4af6c2af8d6d80bb0ac2494badc9fcf1f69",
    "mult-d8-82":
        "b25b2523997760c0083cbdb27451edb131b640007e10116f203e713e96873f13",
    "order-14":
        "7dfd767e67cb67232c88f3a55031674a5c864c5520c9f61b7b3da921913bdc76",
    "rand-d55-63":
        "0863be8d141bf2b47282d9ba5a9e490c59b8797113abdf5ffd57ba5c5a6c76df",
    "real-d9-90":
        "0b46e03544f9d05d705a3925d329993a7cbf6c871006aa20445be86b4012a160",
    "sparse-penta":
        "554ca059dbeceb266ced073564141a2a1e790e64c8eb45cefeddaccb7d45d338",
    "sextic-delta0.1":
        "d484f094a9677b644b950defced051ec3968fef5ec86411821c1587993c5047c",
    "wilkinson-10":
        "09110568742cbd055063c641451fecaeb6114336a9ec9365eda2a2ae17c00b47",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORT_SHA256))
def test_report_bytes_outlive_the_root_bound(name):
    """The divergence bound and the scan length read ``root_bound``;
    tightening it must not move a report byte of a multiple-roots,
    simple-roots, real-scan or matrix problem."""
    assert _report_sha256(_pinned_specs()[name]) == PINNED_REPORT_SHA256[name]


def _report_sha256(spec):
    text = json.dumps(report_to_dict(run_pipeline(spec)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 as in PINNED_REPORT_SHA256 of order-14 and sparse-penta with
# their eigenvector counts replaced by the eigenpair_to_dict list of
# eigenvectors_all at the report's roots, less the values it refuses. The
# vectors come from LAPACK's SVD too.
VECTOR_REPORT_SHA256 = {
    "order-14":
        "1b014a2a9eda6ba6968630d47ed7d55d78827071132b915d1ea356f6a921cdc7",
    "sparse-penta":
        "0f17dde46fa8778c72264e8ea858e57b880bf8b16a10b3234a7bc2fd53d3ad74",
}


@pytest.mark.parametrize("name", sorted(VECTOR_REPORT_SHA256))
def test_report_vectors_come_back_bit_for_bit_from_eigenvectors_all(name):
    """A report's eigenvector counts are the rank deficiencies of
    eigenvectors_all at its root values, and the vectors there keep their
    bytes."""
    spec = _pinned_specs()[name]
    report = run_pipeline(spec)
    data = report_to_dict(report)
    bundles = _bundles(spec.matrix, report.roots)
    assert [b.rank_deficiency for b in bundles] == \
        [count for count in data["eigenvectors"] if count] != []
    data["eigenvectors"] = [pipeline.eigenpair_to_dict(b.eigenvalue, b)
                            for b in bundles]
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        VECTOR_REPORT_SHA256[name]


def _branch_specs():
    """One problem per way the pipeline reaches refinement and reads its
    outcome."""
    wilkinson = Polynomial(tuple(float(c)
                                 for c in oracles.wilkinson_coeffs(10)))
    sextic = Polynomial(cases.DOUBLE_QUAD_SEXTIC)
    return {
        "halley-wilkinson-10": ProblemSpec(
            polynomial=wilkinson, seed_source=SeedSource.COMPANION,
            algorithm=Algorithm.HALLEY),
        "pade-ecp-wilkinson-10": ProblemSpec(
            polynomial=wilkinson, seed_source=SeedSource.COMPANION,
            algorithm=Algorithm.PADE, ecp=True),
        "pade-ecp-mult-d8-82": ProblemSpec(
            polynomial=Polynomial(cases.MULT_D8_82),
            seed_source=SeedSource.COMPANION, algorithm=Algorithm.PADE,
            ecp=True),
        "reduced-wilkinson-10": ProblemSpec(
            polynomial=wilkinson, seed_source=SeedSource.EXTERNAL,
            external_seeds=cases.WILKINSON10_SEEDS,
            algorithm=Algorithm.REDUCED),
        "test-nu-sextic": ProblemSpec(polynomial=sextic, delta=0.3,
                                      algorithm=Algorithm.TEST_NU, nu=2),
        "halley-degree-1": ProblemSpec(
            polynomial=Polynomial((1.0, 2.0)),
            seed_source=SeedSource.EXTERNAL, external_seeds=(0.3, -1.0),
            algorithm=Algorithm.HALLEY),
        "rayleigh-short-list": ProblemSpec(
            polynomial=sextic, seed_source=SeedSource.EXTERNAL,
            external_seeds=(1.0, 2.0), algorithm=Algorithm.RAYLEIGH),
        "detect-origin-seed": ProblemSpec(
            polynomial=sextic, seed_source=SeedSource.EXTERNAL,
            external_seeds=(0.0, 2.01, -1.0)),
    }


# SHA-256 as in PINNED_REPORT_SHA256. halley-wilkinson-10 and
# pade-ecp-wilkinson-10 keep 7 roots each that stop at the rounding floor,
# where a zero count rounds to 1; the second also carries the
# interpolation-list diagnostics, whose values are already roots to
# working precision, so no evolution runs. pade-ecp-mult-d8-82 refuses 7
# of its 8 runs that stop there (their counts are not 1), and its ECP
# phase fails. reduced-wilkinson-10 refines the list rows of
# WILKINSON10_SEEDS. test-nu-sextic's nu = 2 probe converges at the double
# root and stops at the floor by the quadruple one, where the count is
# not 2. halley-degree-1 is a batch call that raises: each seed gets its
# error line. rayleigh-short-list gives two seeds to a degree 6
# interpolation list, whose build fails. detect-origin-seed: the seed at 0
# is left over by the clusters and then fails per-seed detect with an
# origin-guard error line.
BRANCH_REPORT_SHA256 = {
    "detect-origin-seed":
        "1b9999d47c0882fa50a3402c933df6e00d83e359b8ab98a5aefc57a4a741c2c0",
    "halley-degree-1":
        "9c38f21f5045d89c493cfea3a56c341b9555e13616ada4a593db26de100fae99",
    "halley-wilkinson-10":
        "12c17457a72f2b247eaa71efc1ade51ee8d124fa82e4371f8a7b3883c813eb52",
    "pade-ecp-mult-d8-82":
        "8e879d897fad2a91b6688dc9d0a8325316c9db22110c4a0f58e4cea0798bf0e6",
    "pade-ecp-wilkinson-10":
        "3fe07a9e2b265d5791d084907bad8a8e4fa2b597ac7865f1def7dbfe63d83411",
    "rayleigh-short-list":
        "fc16803ef3c38ed41c634c9b624cf0e86dafccf2a5c067561dbfdaabd4c5bbd1",
    "reduced-wilkinson-10":
        "017213add0952dec17c83e2d49e08f8da707a64811c59ddd0a5cb1e83bb1a9c1",
    "test-nu-sextic":
        "676b933d48df90c88bbff17cfab6648368c661bbfa7b54a5738623b00d32a2ba",
}


@pytest.mark.parametrize("name", sorted(BRANCH_REPORT_SHA256))
def test_report_bytes_of_each_refinement_branch(name):
    """Every algorithm, a batch call that raises and a failed list build
    each keep their report bytes."""
    assert _report_sha256(_branch_specs()[name]) == BRANCH_REPORT_SHA256[name]
