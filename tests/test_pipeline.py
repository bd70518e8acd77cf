"""Seed acquisition, refinement, dedupe, and report assembly."""

import hashlib
import json

import numpy as np
import pytest

import cases
import oracles
from polyzeros import matpoly, pipeline
from polyzeros import (
    Algorithm,
    EigenpairRecord,
    IterationSettings,
    PolyzerosError,
    ProblemFormatError,
    Polynomial,
    ProblemSpec,
    SeedSource,
    main,
    polynomial_from_roots,
    polynomial_matrix,
    problem_spec_to_dict,
    relative_residual,
    report_to_dict,
    run_pipeline,
    same_root,
)

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


@pytest.mark.parametrize("algorithm", [Algorithm.PADE, Algorithm.HALLEY,
                                       Algorithm.RAYLEIGH, Algorithm.REDUCED,
                                       Algorithm.DETECT])
def test_reported_residual_is_the_one_the_stopping_rule_passed(algorithm):
    """The record's residual is relative_residual(f, root), bit for bit:
    the engine's convergence test computed it at the same point."""
    rng = np.random.default_rng(61)
    coeffs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    f = Polynomial(tuple(coeffs))
    report = run_pipeline(ProblemSpec(
        polynomial=f, seed_source=SeedSource.COMPANION, algorithm=algorithm))
    assert report.all_residuals_pass
    for record in report.roots:
        assert record.residual == relative_residual(f, record.value)


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
    record = run_pipeline(spec).roots[0]
    assert record.algorithm is Algorithm.PADE
    assert record.iterations >= 1
    assert record.source is SeedSource.EXTERNAL


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


def test_list_row_that_does_not_converge_is_one_seed_error():
    """Rayleigh refines the list rows in the same per-seed loop as every
    other algorithm: with six iterations the row of seed 1.001 stops at
    max-iters, gets the usual seed error line, and the other rows still
    give their roots."""
    spec = ProblemSpec(
        polynomial=polynomial_from_roots((1.0, 2.0, 3.0)),
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(1.001, 1.5, 3.2),
        algorithm=Algorithm.RAYLEIGH,
        settings=IterationSettings(max_iters=6),
    )
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
    a0, a1, a2 = (np.array(a, dtype=float) for a in (
        cases.SPARSE_PENTA_A0, cases.SPARSE_PENTA_A1, cases.SPARSE_PENTA_A2))
    lead = np.linalg.inv(a2)
    linearisation = np.block([[np.zeros((5, 5)), np.eye(5)],
                              [-lead @ a0, -lead @ a1]])
    eigenvalues = np.linalg.eigvals(linearisation)
    report = run_pipeline(ProblemSpec(
        matrix=sparse_penta, seed_source=SeedSource.EXTERNAL,
        external_seeds=tuple(eigenvalues), algorithm=algorithm,
    ))
    assert report.multiplicity_sum == 10 and report.conserved
    assert len(report.roots) == 10
    for r in report.roots:
        assert np.min(np.abs(eigenvalues - r.value)) <= 1e-6


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
    """Plain Pade stalls linearly at the double root, so that seed lands in
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
    assert any("0.93" in e and "step ratios" in e for e in report.errors)
    assert not report.conserved


def test_report_that_lost_roots_does_not_pass(quad_quint, tmp_path):
    """Every found root passes its residual test, but two of the five roots
    are missing: the report must not pass and solve must exit 1."""
    spec = ProblemSpec(
        polynomial=quad_quint,
        seed_source=SeedSource.EXTERNAL,
        external_seeds=(-2.1,),
        algorithm=Algorithm.PADE,
    )
    report = run_pipeline(spec)
    assert all(r.residual_pass for r in report.roots)
    assert report.conserved is False
    assert report.all_residuals_pass is False
    path = tmp_path / "one_seed.json"
    path.write_text(json.dumps(problem_spec_to_dict(spec)))
    assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 1


def test_user_coefficients_keep_their_full_degree():
    """Wilkinson 15's largest coefficient is 6.2e12 times its leading one.
    That leading term is the user's data, not noise to trim, so the report
    keeps degree 15 and does not pass (plain Pade from the companion seeds
    stalls at rounding level on most roots and keeps 4 of the 15)."""
    f = Polynomial(tuple(float(c) for c in oracles.wilkinson_coeffs(15)))
    report = run_pipeline(ProblemSpec(
        polynomial=f, seed_source=SeedSource.COMPANION,
        algorithm=Algorithm.PADE,
    ))
    assert report.effective_degree == 15
    assert report.all_residuals_pass is False


def test_matrix_problem_attaches_eigenvectors(singular_lead):
    spec = ProblemSpec(matrix=singular_lead,
                       seed_source=SeedSource.COMPANION)
    report = run_pipeline(spec)
    assert report.effective_degree == 5
    assert report.conserved
    assert len(report.eigenvectors) == len(report.roots)
    for pair in report.eigenvectors:
        assert pair.right is not None and pair.left is not None
        assert not pair.defective
        assert pair.right.rank_deficiency >= 1


def test_diagonal_seed_matrix_run(sparse_penta):
    """Diagonal seeds on the pentadiagonal pencil find most of the spectrum
    at the accuracy the recomputed characteristic coefficients allow."""
    spec = ProblemSpec(matrix=sparse_penta, seed_source=SeedSource.DIAGONAL)
    report = run_pipeline(spec)
    assert report.effective_degree == 10
    values = [r.value for r in report.roots]
    assert any(abs(v - cases.SPARSE_PENTA_EIGENVALUE) < 1e-6 for v in values)
    assert report.eigenvectors
    for pair in report.eigenvectors:
        assert all(r <= 1e-5 for r in pair.right.right_residuals)


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
    stays regular at 11 of them, so the report must not pass."""
    spec = _order_14_spec()
    report = run_pipeline(spec)
    assert len(report.eigenvectors) < len(report.roots)
    assert report.all_residuals_pass is False
    path = tmp_path / "n14.json"
    path.write_text(json.dumps(problem_spec_to_dict(spec)))
    assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 1


def _reference_eigenvector_phase(matrix, records, errors):
    """The eigenvector phase without rung skipping: both extractions at
    every rung of the pivot ladder until one succeeds."""
    pairs = []
    for record in records:
        right = None
        left = None
        failure = None
        for pivot_tol in pipeline.EIGENVECTOR_PIVOT_LADDER:
            try:
                right = matpoly.extract_eigenvectors(matrix, record.value,
                                                     pivot_tol=pivot_tol)
                left = matpoly.left_eigenvectors(matrix, record.value,
                                                 pivot_tol=pivot_tol)
            except PolyzerosError as exc:
                failure = exc
                continue
            if pivot_tol != pipeline.EIGENVECTOR_PIVOT_LADDER[0]:
                errors.append(
                    "eigenvectors at %r: pivot tolerance loosened to %g"
                    % (record.value, pivot_tol)
                )
            break
        if right is None or left is None:
            errors.append("eigenvectors at %r: %s" % (record.value, failure))
            continue
        pairs.append(
            EigenpairRecord(
                record.value,
                record.multiplicity,
                right,
                left,
                right.rank_deficiency < record.multiplicity,
            )
        )
    return tuple(pairs)


def _pair_bits(pair):
    def bits(z):
        return complex(z).real.hex(), complex(z).imag.hex()

    def bundle(b):
        return (bits(b.eigenvalue), b.rank_deficiency,
                None if b.right_vectors is None else b.right_vectors.tobytes(),
                None if b.left_vectors is None else b.left_vectors.tobytes(),
                tuple(r.hex() for r in b.right_residuals),
                tuple(r.hex() for r in b.left_residuals))

    return (bits(pair.value), pair.multiplicity, bundle(pair.right),
            bundle(pair.left), pair.defective)


def _ladder_runs(spec, monkeypatch):
    """Eigenpair bits, error lines and the number of matrices eliminated by
    the reference ladder and by the pipeline's, on the records of one
    report."""
    records = run_pipeline(spec).roots
    eliminated = []
    kernel = matpoly._null_space_stack

    def counted(matrices, pivot_tol):
        eliminated.append(len(matrices))
        return kernel(matrices, pivot_tol)

    runs = []
    with monkeypatch.context() as patch:
        patch.setattr(matpoly, "_null_space_stack", counted)
        for phase in (_reference_eigenvector_phase,
                      pipeline._eigenvector_phase):
            del eliminated[:]
            errors = []
            pairs = phase(spec.matrix, records, errors)
            runs.append(([_pair_bits(p) for p in pairs], errors,
                         sum(eliminated)))
    return runs


def test_pivot_ladder_skips_only_rungs_that_repeat(monkeypatch, sparse_penta,
                                                   singular_lead):
    """Skipping a rung whose failure would repeat leaves every eigenpair
    and error line as the full ladder gives them."""
    for spec in (
        _order_14_spec(),
        ProblemSpec(matrix=sparse_penta, seed_source=SeedSource.DIAGONAL),
        ProblemSpec(matrix=singular_lead, seed_source=SeedSource.COMPANION),
    ):
        (want, want_errors, _), (got, got_errors, _) = _ladder_runs(
            spec, monkeypatch)
        assert got_errors == want_errors
        assert got == want


def test_pivot_ladder_skips_eliminations_that_would_repeat(monkeypatch):
    """At n = 14, 11 eigenvalues fail at every rung; most of those rungs
    repeat the first elimination's decisions and are skipped, so fewer
    matrices are eliminated."""
    (_, errors, full_ladder), (_, _, skipping) = _ladder_runs(
        _order_14_spec(), monkeypatch)
    assert sum("is not an eigenvalue" in e for e in errors) == 11
    assert skipping < full_ladder


def _order_20_spec():
    """Random monic quadratic at n = 20 with companion seeds; F(lambda) is
    regular at every eigenvalue the interpolated det F gives."""
    rng = np.random.default_rng(1)
    n = 20
    a0, a1 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return ProblemSpec(matrix=polynomial_matrix([a0, a1, np.eye(n)]),
                       seed_source=SeedSource.COMPANION,
                       algorithm=Algorithm.PADE)


def test_transposes_wait_for_a_right_side_success(monkeypatch):
    """At n = 20 every record fails its first right-side elimination and
    skips the looser rungs, so each F(lambda) is eliminated once and no
    F(lambda) transposed at all."""
    (_, errors, _), (pairs, got_errors, eliminated) = _ladder_runs(
        _order_20_spec(), monkeypatch)
    records = run_pipeline(_order_20_spec()).roots
    assert pairs == []
    assert got_errors == errors
    assert sum("is not an eigenvalue" in e for e in errors) == len(records)
    assert eliminated == len(records)


def test_explore_detect_keeps_every_triple_root():
    report = run_pipeline(ProblemSpec(polynomial=Polynomial(cases.REAL_D9_90)))
    assert [r.value for r in report.roots] == list(cases.REAL_D9_90_ROOTS)
    assert [r.multiplicity for r in report.roots] == [3, 3, 3]
    assert report.multiplicity_sum == 9
    assert report.conserved
    assert report.all_residuals_pass


def test_divergence_factor_leaves_probe_verdicts_alone(double_quad_sextic):
    """A looser divergence bound must not make the probe classifier demand
    a faster contraction and reject every converging probe."""
    spec = ProblemSpec(polynomial=double_quad_sextic, delta=0.3,
                       settings=IterationSettings(divergence_factor=1000.0))
    report = run_pipeline(spec)
    assert [(r.value, r.multiplicity) for r in report.roots] == [(-1.0, 4),
                                                                 (2.0, 2)]
    assert report.all_residuals_pass


def test_seed_at_the_noise_floor_keeps_its_simple_root():
    spec = ProblemSpec(polynomial=Polynomial(cases.MULT_D8_82),
                       seed_source=SeedSource.COMPANION)
    assert run_pipeline(spec).conserved


_NEXT_TO_A_TRIPLE = pytest.mark.xfail(
    strict=True, reason="the nu = 1 probe of a simple root next to a triple "
    "root stalls, from its group and from its seed alike (rounding-level "
    "stops, ROADMAP item 4)")


@pytest.mark.parametrize("name", [
    "MULT_D8_2",
    "MULT_D8_32",
    "MULT_D8_82",
    "MULT_D10_29",
    pytest.param("MULT_D9_8", marks=pytest.mark.xfail(
        strict=True, reason="the nu = 3 probe from the mean of the triple "
        "root's seeds steps at rounding level (1e-11) until max-iters, and "
        "per-seed detect then settles none of its seeds (ROADMAP item 4)")),
    pytest.param("MULT_D7_31", marks=_NEXT_TO_A_TRIPLE),
    pytest.param("MULT_D10_74", marks=_NEXT_TO_A_TRIPLE),
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
# order-14 (not-an-eigenvalue and loosened-tolerance lines) and
# companion-n20 (every eigenvalue fails) were pinned when the eigenvector
# ladder began eliminating all open records in one stack, from reports
# recorded before that change; they check the whole ladder end to end.
PINNED_REPORT_SHA256 = {
    "companion-n20":
        "324e66228d347c7da699a130711418cde7f74eb9290b2c7f843ba2de062ab844",
    "mult-d8-82":
        "c019854fcd91cf8b52c4ebe70d32165e06f83fab1b438fad4981eb2d5bc99204",
    "order-14":
        "5107816b4ad0b2fad5f3edac66d1c52741b226a69caf16bf7dfdc5ef761b89ac",
    "rand-d55-63":
        "52d6b4e276a05ecd0317bbc44bbab7533d8323cccc9db0e6513a04f42555c2dc",
    "real-d9-90":
        "99f85b45f86cbb62d0c0f4e037e7b517cc22bc2eff4f8acd56e2f21829735d07",
    "sparse-penta":
        "c542bb060f0488d493f66db4c00b461491abe624d62480eec5871483e583b662",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORT_SHA256))
def test_report_bytes_outlive_the_root_bound(name):
    """The divergence bound, the nu-probe origin guard and the scan length
    all read ``root_bound``; tightening it must not move a report byte of a
    multiple-roots, simple-roots, real-scan or matrix problem."""
    report = run_pipeline(_pinned_specs()[name])
    text = json.dumps(report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_REPORT_SHA256[name]
