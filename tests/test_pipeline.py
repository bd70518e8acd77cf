"""Seed acquisition, refinement, dedupe, and report assembly."""

import hashlib
import json
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
    merged = pipeline._dedupe(records)
    assert any(r is records[0] for r in merged)


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
    """At 1.5+1.5j, 1 + 1e308 lambda has a modulus beyond the float range:
    the probe ends as a numerical error with abs()'s text, and the seed
    gets an error line instead of raising out of run_pipeline."""
    report = run_pipeline(ProblemSpec(
        polynomial=Polynomial((1.0, 1e308)), seed_source=SeedSource.EXTERNAL,
        external_seeds=(1.5 + 1.5j,), algorithm=Algorithm.TEST_NU, nu=1))
    assert report.roots == ()
    assert report.errors[0] == (
        "seed (1.5+1.5j): numerical-error (absolute value too large)")


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
    for pair, bundle in zip(report.eigenvectors, bundles):
        assert bundle.right_vectors is not None
        assert bundle.left_vectors is not None
        assert not pair.defective
        assert bundle.rank_deficiency >= 1
        assert pair.rank_deficiency == bundle.rank_deficiency


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


def test_regular_lead_degree_shortfall_is_not_conserved():
    """A regular leading matrix fixes deg det F at rho*n. At n = 40 the
    interpolated characteristic polynomial falls short of 80, and the
    multiplicities summing to that short degree must not pass as
    conserved."""
    rng = np.random.default_rng(1)
    n = 40
    pm = polynomial_matrix([rng.standard_normal((n, n)),
                            rng.standard_normal((n, n)), np.eye(n)])
    assert pm.leading_regular
    report = run_pipeline(ProblemSpec(
        matrix=pm, seed_source=SeedSource.COMPANION, algorithm=Algorithm.PADE
    ))
    assert report.effective_degree < pm.nominal_char_degree
    assert report.conserved is False
    assert report.all_residuals_pass is False
    assert any("below rho*n = 80" in e for e in report.errors)


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
    assert len(report.eigenvectors) < len(report.roots)
    assert report.all_residuals_pass is False
    path = tmp_path / "n14.json"
    path.write_text(json.dumps(problem_spec_to_dict(spec)))
    assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 1


def _partner(matrix, records, value):
    """The exact conjugate of value when F is real, Im value < 0 and that
    conjugate is a record's value too; value itself otherwise."""
    if (matrix.is_real() and value.imag < 0
            and value.conjugate() in {r.value for r in records}):
        return value.conjugate()
    return value


def _reference_eigenvector_phase(matrix, records):
    """Pairs and error lines of the eigenvector phase, one value at a time
    through the one-sided wrappers. A value with a partner
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
            exc = NotAnEigenvalueError(value, exc.sigma_min, exc.sigma_max,
                                       matpoly.SINGULAR_REL)
            errors.append("eigenvectors at %r: %s" % (value, exc))
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
    """The phase's one stacked rank test gives every record the rank,
    defective flag and error line, and eigenvectors_all over the records'
    values the vectors and residuals, that extracting at its value alone
    gives, except that on a real F a value below the real axis whose exact
    conjugate is a record too gets the conjugate's, conjugated."""
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
        pairs = pipeline._eigenvector_phase(spec.matrix, records, errors)
        bundles = _bundles(spec.matrix, records)
        assert len(bundles) == len(pairs)
        assert all(b.eigenvalue == p.value
                   and b.rank_deficiency == p.rank_deficiency
                   for p, b in zip(pairs, bundles))
        got = [(p.value, p.multiplicity, p.rank_deficiency,
                b.right_vectors.tobytes(), b.left_vectors.tobytes(),
                b.right_residuals, b.left_residuals, p.defective)
               for p, b in zip(pairs, bundles)]
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
    """quad-n7-0 of the matrix-eig workload: companion seeds and Pade find
    its 14 eigenvalues up to 1.5e-7 off, and each gets its eigenvectors,
    so the report passes."""
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
        assert np.min(np.abs(eigenvalues - r.value)) <= 4e-7
    assert len(report.eigenvectors) == 14
    assert report.all_residuals_pass
    assert report.errors == ()


def test_real_matrix_eigenvalues_come_in_exact_conjugate_pairs():
    """For a real F, the companion seeds of its real det F and Pade keep
    every complex eigenvalue's exact conjugate in the report."""
    n = 7
    report = run_pipeline(ProblemSpec(
        matrix=polynomial_matrix([np.array(cases.QUAD_N7_A0),
                                  np.array(cases.QUAD_N7_A1), np.eye(n)]),
        seed_source=SeedSource.COMPANION, algorithm=Algorithm.PADE))
    values = [r.value for r in report.roots]
    assert any(v.imag != 0.0 for v in values)
    assert all(v.conjugate() in values for v in values)


def _triple_eigenvalue_matrix():
    """cases.TRIPLE_EIG_*: det F is a multiple of
    (lambda - 1/2)**3 (lambda + 1)(lambda**2 + 4)."""
    p, q = np.array(cases.TRIPLE_EIG_P), np.array(cases.TRIPLE_EIG_Q)
    return polynomial_matrix([p @ np.diag(d) @ q
                              for d in cases.TRIPLE_EIG_DIAGONALS])


@pytest.mark.xfail(
    strict=True, reason="det F is interpolated, so companion seeds split "
    "the triple eigenvalue 1/2 into three roots of det F about 3e-4 apart; "
    "sigma_min / sigma_max of F is below the eigenvector threshold at each, "
    "so three simple eigenvalues pass. Eigenvalues from F itself (ROADMAP "
    "item 1), guards derived from rounding errors (item 3) and a "
    "zero-count certificate on the report (item 4) would each fail it")
@pytest.mark.parametrize("algorithm", (
    Algorithm.PADE, Algorithm.HALLEY, Algorithm.RAYLEIGH, Algorithm.REDUCED,
    Algorithm.DETECT))
def test_real_matrix_triple_eigenvalue_is_not_three_simple_ones(algorithm):
    """A report on F with the triple eigenvalue 1/2 passes only if it
    names that eigenvalue once, with multiplicity 3."""
    report = run_pipeline(ProblemSpec(
        matrix=_triple_eigenvalue_matrix(),
        seed_source=SeedSource.COMPANION, algorithm=algorithm))
    near = [r for r in report.roots if abs(r.value - 0.5) < 1e-2]
    assert not report.all_residuals_pass or [
        r.multiplicity for r in near] == [3]


def _order_20_spec():
    """Random monic quadratic at n = 20 with companion seeds; F(lambda) is
    regular at every eigenvalue the interpolated det F gives."""
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
        assert same_root(found.value, root)
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
        assert same_root(record.value, root)
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
    assert any(same_root(r.value, -2.0) for r in report.roots)
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


# SHA-256 of json.dumps(report_to_dict(report), sort_keys=True), recorded
# when the root bound was Cauchy's 1 + max|a_j/a_m| (x86-64, numpy 2).
# real-d9-90 was re-pinned when the scan stopped bracketing poles of p.
# The pole seed at 1.40 and its error line are gone, and the pole seed at
# -1.10 no longer joins, and wins, the root at -1.93 (20 iterations, now
# 5). The roots and multiplicities are unchanged.
# mult-d8-82 was re-pinned when detect began settling clusters of
# companion seeds by a zero count and one probe. The report gains the
# simple root at 0.758-0.853j, and with it conserved, all_residuals_pass
# and an empty error list. Each root lists its group's seeds in seed order,
# and the triple and quadruple roots take 2 iterations (4 and 5 before).
# Both roots it had moved by less than 3e-13, within same_root.
# mult-d8-82 was re-pinned again when every iteration began stopping at
# the rounding floor. The probe of the simple root at 0.758-0.853j stops
# there after 2 iterations (4 before, the last two rounding noise); the
# root moves by 2.2e-12, within same_root, and its residual in the last
# digits. Everything else is unchanged.
# sparse-penta was re-pinned when per-seed detect began counting zeros
# instead of guessing nu-hat. Its diagonal seeds now settle where the
# nu = 1 probe's walk ends, so six roots take 2 iterations (8 or 9
# before) and one takes 6 (7 before). The same 8 eigenvalues move by less
# than 1e-14, with the same multiplicities, seeds and error lines; one
# root lists its two seeds in the other order, and the values quoted in
# the error lines and the eigenvectors move in the last digits.
# rand-d55-63 was re-pinned when Pade began stepping all seeds at once,
# with f and f' from a power matrix instead of Horner's rule. The same 55
# roots move by at most 2.4e-16, and their residuals in the last digits;
# multiplicities, iteration counts, seeds, flags and the (empty) error list
# are unchanged.
# order-14 (five not-an-eigenvalue lines), companion-n20 (every
# eigenvalue fails) and sparse-penta were re-pinned when eigenvectors
# began coming from one batched SVD with a single threshold. Their roots,
# multiplicities and flags are unchanged. The eigenvector columns are unit
# 2-norm singular vectors, the not-an-eigenvalue lines quote sigma_min and
# sigma_max, and the loosened-tolerance lines are gone; order-14 gains 6
# eigenpairs and sparse-penta 2. Those bytes come from LAPACK's SVD, so
# these three hashes hold for one numpy and LAPACK build (here numpy 2.4
# with OpenBLAS 0.3.31).
# companion-n20, order-14 and sparse-penta were re-pinned when det F of a
# real F began keeping only the real parts of its interpolated
# coefficients (the complex ones were kept before, as their imaginary
# parts reached 0.98, 3.2e-6 and 2.7e-8 of the largest coefficient),
# companion seeds of it began coming from real LAPACK and eigenvectors
# began coming from one SVD per exact conjugate pair. Multiplicities, flags, root,
# eigenpair and error-line counts are unchanged. companion-n20 (no
# eigenpair before or after) now lists 18 exact conjugate pairs and one
# exactly real root; its roots stay 0.086 (0.117 before) off the
# linearisation's eigenvalues in the median. order-14's roots move by at
# most 5.3e-5, sparse-penta's by at most 3.3e-7; the worst relative
# distance to the linearisation's eigenvalues goes 3.35e-4 -> 3.30e-4 and
# 3.3e-7 -> 1.8e-7, and sparse-penta takes 20 iterations (24 before).
# sextic-delta0.1 (both multiple roots are guarded grid points) and
# wilkinson-10 (every root is a grid point where f is exactly 0), both
# explore+detect at delta 0.1, were pinned from the scalar scan loop when
# the scan became one array pass; their seeds come from the grid itself.
# companion-n20, order-14 and rand-d55-63 were pinned again when the
# batched iterations began to stop on the array residual
# (poly.relative_residual_all): only their residual fields moved.
# order-14 and sparse-penta were pinned again when matrix reports stopped
# carrying eigenvectors: each "eigenvectors" entry keeps value,
# multiplicity, rank_deficiency and defective and loses right, left and
# their residuals. Their earlier pins, taken with the vectors, are
# VECTOR_REPORT_SHA256; companion-n20 accepts no eigenvalue and keeps its
# bytes.
# All eight were re-pinned when the solve's algorithm and seed source
# moved from every root entry to the report's top level. Their earlier
# pins are PRE_TRIM_REPORT_SHA256, which each report mapped back matches.
# All eight were re-pinned again when root entries lost
# ``"residual_pass": true``, which the mapping back puts in.
PINNED_REPORT_SHA256 = {
    "companion-n20":
        "f2e76e4f40c34c012ba5f26b644894f91a27fc393c9c73f7312e9db4aa20b7fa",
    "mult-d8-82":
        "b25b2523997760c0083cbdb27451edb131b640007e10116f203e713e96873f13",
    "order-14":
        "7fcc2d4c276c89005191a6fddce9468c545b3664673928dc94369e43f5e5e76f",
    "rand-d55-63":
        "0863be8d141bf2b47282d9ba5a9e490c59b8797113abdf5ffd57ba5c5a6c76df",
    "real-d9-90":
        "0b46e03544f9d05d705a3925d329993a7cbf6c871006aa20445be86b4012a160",
    "sparse-penta":
        "8777ae930ec04876beff249a92c2185b246f3d91ceb12999f1829cc68d000d2c",
    "sextic-delta0.1":
        "d484f094a9677b644b950defced051ec3968fef5ec86411821c1587993c5047c",
    "wilkinson-10":
        "09110568742cbd055063c641451fecaeb6114336a9ec9365eda2a2ae17c00b47",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORT_SHA256))
def test_report_bytes_outlive_the_root_bound(name):
    """The divergence bound, the nu-probe origin guard and the scan length
    all read ``root_bound``; tightening it must not move a report byte of a
    multiple-roots, simple-roots, real-scan or matrix problem."""
    assert _report_sha256(_pinned_specs()[name]) == PINNED_REPORT_SHA256[name]


def _report_sha256(spec, form=lambda data: data):
    text = json.dumps(form(report_to_dict(run_pipeline(spec))),
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 as in PINNED_REPORT_SHA256 of order-14 and sparse-penta while
# every "eigenvectors" entry also held both sides' vectors and residuals
# (eigenpair_to_dict of the eigenvectors_all bundle at its value).
VECTOR_REPORT_SHA256 = {
    "order-14":
        "911b9a6f2a1a66c4fcdf30e67008e7d5d4c8c301c0d784029c4546eb6ba59bc7",
    "sparse-penta":
        "5b5a25a0ec153984f11474948099b18c4a135a8f8f2cfb4c806de61414a69424",
}


@pytest.mark.parametrize("name", sorted(VECTOR_REPORT_SHA256))
def test_report_vectors_come_back_bit_for_bit_from_eigenvectors_all(name):
    """A report's vectors are eigenvectors_all at its root values: merged
    into the eigen entries of the report in its pre-trim form
    (:func:`_pre_trim`) they give the bytes of the report that carried
    them."""
    spec = _pinned_specs()[name]
    report = run_pipeline(spec)
    data = _pre_trim(report_to_dict(report))
    bundles = _bundles(spec.matrix, report.roots)
    assert len(bundles) == len(data["eigenvectors"]) > 0
    data["eigenvectors"] = [
        dict(entry, **pipeline.eigenpair_to_dict(pair.value, bundle))
        for entry, pair, bundle in zip(data["eigenvectors"],
                                       report.eigenvectors, bundles)]
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


# SHA-256 as in PINNED_REPORT_SHA256, recorded before the pipeline began
# reading every algorithm's outcomes from one list (x86-64, numpy 2).
# halley-wilkinson-10 and pade-ecp-wilkinson-10 keep 7 roots each that
# stop at the rounding floor, where a zero count rounds to 1; the second
# also carries the interpolation-list diagnostics. pade-ecp-mult-d8-82
# refuses 7 of its 8 runs that stop there (their counts are not 1), and
# its ECP phase fails. test-nu-sextic's nu = 2 probe converges at the
# double root and stops at the floor by the quadruple one, where the
# count is not 2. halley-degree-1 is a batch
# call that raises: each seed gets its error line. rayleigh-short-list
# gives two seeds to a degree 6 interpolation list, whose build fails.
# detect-origin-seed: the seed at 0 is left over by the clusters and then
# fails per-seed detect with an origin-guard error line.
# halley-wilkinson-10, pade-ecp-wilkinson-10, pade-ecp-mult-d8-82 and
# reduced-wilkinson-10 were pinned again when the batched iterations began
# to stop on the array residual and the list took f(sigma_k) from
# evaluate_all: their residual fields and pade-ecp-wilkinson-10's list
# moved, and reduced-wilkinson-10's roots moved by at most 8.5e-11
# relative, the noise of its list's defects; no multiplicity, iteration
# count, flag or error line moved.
# All eight were re-pinned when the solve's algorithm and seed source
# moved to the report's top level and each disk of pade-ecp-wilkinson-10
# was cut to its radius and separated flag. Their earlier pins are
# PRE_TRIM_REPORT_SHA256, which each report mapped back matches.
# The six with roots were re-pinned again when root entries lost
# ``"residual_pass": true``.
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
        "d1228a72be7fae0aaffcf2c943d0224c3205027fba4a8f6dd095c393b02614b2",
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


def _pre_trim(data):
    """A report dict in the form written while every root entry carried
    the solve's ``algorithm`` and ``source`` and ``"residual_pass": true``
    (the one value it could take), and every disk its center and its
    enclosure (``interval`` or ``box``, else null) as well."""
    data = dict(data)
    labels = dict(algorithm=data.pop("algorithm"),
                  source=data.pop("seed_source"), residual_pass=True)
    data["roots"] = [dict(r, **labels) for r in data["roots"]]
    if data["ecp"]:
        data["ecp"] = dict(data["ecp"], disks=[
            dict(center=pipeline.complex_pair(d.center), radius=d.radius,
                 separated=d.separated,
                 interval=list(d.interval) if d.interval else None,
                 box=[list(b) for b in d.box] if d.box else None)
            for d in _written_disks(data["ecp"])])
    return data


# SHA-256 as in PINNED_REPORT_SHA256 and BRANCH_REPORT_SHA256, recorded
# before the solve's algorithm and seed source moved from every root entry
# to the report's top level, each disk was cut to its radius and
# separated flag, and root entries lost ``"residual_pass": true``.
PRE_TRIM_REPORT_SHA256 = {
    "companion-n20":
        "792fd8e3daf4faf50e50fdd3d3e1fe72e26c557087ebc3711417b0dcef809e0f",
    "mult-d8-82":
        "fdc9efb2650127316443d8149526fe894a083e88412ee714099575cdd4464d85",
    "order-14":
        "ea20e3379334da177a5ad56e85587389c7b2ece865881faecde4869da193a6e9",
    "rand-d55-63":
        "a683a501f5b28d1d2001ad0916e6f2a6722997eb44260dca962b96122e198493",
    "real-d9-90":
        "99f85b45f86cbb62d0c0f4e037e7b517cc22bc2eff4f8acd56e2f21829735d07",
    "sparse-penta":
        "4c6325e11ce7edf138fff65f78cc600aa2b36dd54f51d861552c0eecc78ac029",
    "sextic-delta0.1":
        "a6b81b902f03090f851f91d7bffb8df6f7df67af601992c12c8fb8bfd170b39a",
    "wilkinson-10":
        "8d7d80ff12ef6a5662da10b5e3d532f798c6b0a19b578d0e2ffa97543cc8a924",
    "detect-origin-seed":
        "490f194089ed06224272ea5e7a1c00365a90a09de267f8a3c0263c8fa703f628",
    "halley-degree-1":
        "c79419fb7aed2d61a0180dd5e4c7d83a74ea177474cc0f603c2462263cd4430b",
    "halley-wilkinson-10":
        "eab69b2a7048814165fd412116f413dc8662081e41fae2c7e5cd49d20b4a95ac",
    "pade-ecp-mult-d8-82":
        "f5d782579ef95ba5a27d19b8e8590cb507203cc211ca9d0b3d0143775860767d",
    "pade-ecp-wilkinson-10":
        "5e1d9ed294d0a9aa0bb28906a6d871310a95e1dc7c94dacb256ea1a6622c1ea7",
    "rayleigh-short-list":
        "27e66134a81d89b4b306e71ff371334bd8b67f8d43df653cfa01c08dca3390a2",
    "reduced-wilkinson-10":
        "472b92eb3b7eb67377b77db95dce093331b6af606b12a7547425fdac14d8df9e",
    "test-nu-sextic":
        "ddcbbf44680c7e1d8d60b31fdb636dd3db2ea1d87afda97ff3c7818767c07c2c",
}


@pytest.mark.parametrize("name", sorted(PRE_TRIM_REPORT_SHA256))
def test_trimmed_report_maps_back_to_its_pre_trim_bytes(name):
    """The labels written once, the disks written as radius and flag and
    the dropped pass flag lose no fact: mapped back, each report has its
    earlier bytes."""
    spec = {**_pinned_specs(), **_branch_specs()}[name]
    assert _report_sha256(spec, _pre_trim) == PRE_TRIM_REPORT_SHA256[name]

