"""Polynomial matrices: determinant interpolation, seeds, ranks, vectors."""

import math
import warnings

import numpy as np
import pytest

import cases
import oracles
from polyzeros import matpoly, refine
from polyzeros import (
    NotAnEigenvalueError,
    Polynomial,
    ProblemFormatError,
    characteristic_polynomial,
    diagonal_seeds,
    eval_matrix,
    extract_eigenvectors,
    left_eigenvectors,
    polynomial_matrix,
    relative_residual,
    singular_ranks_all,
)
from polyzeros.poly import UNIT_ROUNDOFF, degree_error_bound

CHAR_RTOL = 1e-9
CASES = 25


def test_polynomial_matrix_validation():
    with pytest.raises(ProblemFormatError):
        polynomial_matrix([np.eye(2)])
    with pytest.raises(ProblemFormatError):
        polynomial_matrix([np.eye(2), np.zeros((2, 3))])
    with pytest.raises(ProblemFormatError):
        polynomial_matrix([np.eye(2), np.eye(3)])


def test_polynomial_matrix_of_order_zero_is_refused():
    """A 0 x 0 F has no eigenvalue and no det F to interpolate: it is
    refused where it is built, not met by a reduction over no entries."""
    with pytest.raises(ProblemFormatError, match="order 0"):
        polynomial_matrix([np.zeros((0, 0))] * 2)


def test_polynomial_matrix_records_shape(singular_lead):
    assert singular_lead.order == 2
    assert singular_lead.degree == 4
    assert singular_lead.nominal_char_degree == 8
    assert not singular_lead.leading_regular
    assert singular_lead.is_real()

    pencil = polynomial_matrix([np.diag((1.0, 2.0)), -np.eye(2)])
    assert pencil.leading_regular


def test_scaled_leads_keep_their_regularity():
    """Regularity is scale-free: det(c * I) = c**n under- or overflows at
    n = 20 for c = 1e-20 or 1e20, and so does the Hadamard product of the
    column norms, but neither makes the lead singular."""
    n = 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-20, 1e20):
            assert polynomial_matrix([np.eye(n), c * np.eye(n)]).leading_regular
            lead = c * np.diag([1.0] * (n - 1) + [0.0])
            assert not polynomial_matrix([np.eye(n), lead]).leading_regular


def test_eval_matrix_hand_sum(singular_lead):
    got = eval_matrix(singular_lead, 1.0)
    want = np.zeros((2, 2), dtype=complex)
    for a in cases.SINGULAR_LEAD_MATRICES:
        want += np.array(a, dtype=complex)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert got[0, 0] == 4.0 + 0j


def test_characteristic_polynomial_of_the_singular_lead_case(singular_lead):
    char = characteristic_polynomial(singular_lead)
    assert char.degree == 5
    np.testing.assert_allclose(
        [c.real for c in char.coeffs],
        cases.SINGULAR_LEAD_CHAR,
        atol=CHAR_RTOL,
    )
    assert all(c.imag == 0.0 for c in char.coeffs)


def test_characteristic_polynomial_matches_cofactor_oracle():
    rng = np.random.default_rng(737)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        rho = int(rng.integers(1, 3))
        mats = [rng.normal(size=(n, n)) for _ in range(rho + 1)]
        pm = polynomial_matrix(mats)
        char = characteristic_polynomial(pm)
        entries = oracles.poly_matrix_entries(mats)
        want = oracles.poly_det_cofactor(entries)
        want = want[: char.degree + 1]
        scale = max(abs(c) for c in want) or 1.0
        np.testing.assert_allclose(
            [c.real for c in char.coeffs], want, atol=CHAR_RTOL * scale
        )


def test_characteristic_polynomial_complex_pencil():
    a = np.array([[1.0 + 1j, 0.5], [0.0, 2.0 - 1j]])
    pm = polynomial_matrix([a, -np.eye(2)])
    char = characteristic_polynomial(pm)
    roots = sorted(np.roots(list(char.coeffs)[::-1]),
                   key=lambda z: (z.real, z.imag))
    want = sorted(np.linalg.eigvals(a), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(roots, want, atol=1e-9)


def test_diagonal_seeds_of_the_sparse_pencil(sparse_penta):
    report = diagonal_seeds(sparse_penta)
    assert report.degenerate_entries == ()

    def key(z):
        return (round(z.real, 6), round(z.imag, 6))

    got = sorted(report.values, key=key)
    want = sorted(cases.SPARSE_PENTA_DIAGONAL_ZEROS, key=key)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_diagonal_seeds_flags_degenerate_entries():
    a0 = np.diag((1.0, 2.0))
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    report = diagonal_seeds(polynomial_matrix([a0, a1]))
    assert report.degenerate_entries == (1,)
    np.testing.assert_allclose(report.values, (-1.0,), atol=1e-14)


def test_extract_eigenvectors_on_the_shifted_pencil(pencil5):
    bundle = extract_eigenvectors(pencil5, -1.0)
    assert bundle.rank_deficiency == 1
    assert bundle.right_vectors.shape == (5, 1)
    assert bundle.left_vectors is None
    assert all(r <= 1e-12 for r in bundle.right_residuals)
    evaluated = eval_matrix(pencil5, -1.0)
    np.testing.assert_allclose(
        np.abs(evaluated @ bundle.right_vectors[:, 0]), 0.0, atol=1e-12
    )


def test_left_eigenvectors_annihilate_from_the_left(pencil5):
    bundle = left_eigenvectors(pencil5, -1.0)
    assert bundle.rank_deficiency == 1
    assert bundle.right_vectors is None
    evaluated = eval_matrix(pencil5, -1.0)
    np.testing.assert_allclose(
        np.abs(bundle.left_vectors[:, 0] @ evaluated), 0.0, atol=1e-12
    )


def test_left_eigenvectors_do_not_rebuild_the_matrix(monkeypatch):
    """Left vectors come from F(lam) transposed; no transposed polynomial
    matrix (and no determinant) is built per call."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    assert not np.allclose(a, a.T)
    pm = polynomial_matrix([a, -np.eye(5)])

    def rebuilt(matrices):
        raise AssertionError("left_eigenvectors rebuilt a polynomial matrix")

    monkeypatch.setattr(matpoly, "polynomial_matrix", rebuilt)
    for lam in np.linalg.eigvals(a):
        bundle = left_eigenvectors(pm, lam)
        evaluated = eval_matrix(pm, lam)
        for k in range(bundle.rank_deficiency):
            y = bundle.left_vectors[:, k]
            scale = np.abs(evaluated).max() * np.abs(y).max()
            assert np.abs(y @ evaluated).max() <= 1e-10 * scale


def test_full_rank_deficiency_yields_a_basis():
    pm = polynomial_matrix([-2.0 * np.eye(3), np.eye(3)])
    bundle = extract_eigenvectors(pm, 2.0)
    assert bundle.rank_deficiency == 3
    assert np.linalg.matrix_rank(bundle.right_vectors) == 3


def test_not_an_eigenvalue_raises(pencil5):
    with pytest.raises(NotAnEigenvalueError):
        extract_eigenvectors(pencil5, 100.0)


def test_not_an_eigenvalue_text_ignores_the_scalar_type(pencil5):
    """The error names the value as a Python complex, whether the caller
    passed a numpy scalar, a float or a complex."""
    texts = {str(found) for lams in ([5 + 0j], np.array([5 + 0j]), [5.0])
             for found in matpoly.eigenvectors_all(pencil5, lams)}
    assert texts == {"(5+0j) is not an eigenvalue: backward error 0.473 "
                     "exceeds 1e-06"}
    with pytest.raises(NotAnEigenvalueError) as caught:
        extract_eigenvectors(pencil5, np.float64(100.0))
    assert caught.value.lam == 100 and type(caught.value.lam) is complex


def test_random_pencil_eigenvectors_match_numpy():
    rng = np.random.default_rng(949)
    hits = 0
    for _ in range(CASES):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        values = np.linalg.eigvals(a)
        if min(abs(u - v) for i, u in enumerate(values)
               for v in values[i + 1:]) < 1e-3:
            continue
        pm = polynomial_matrix([a, -np.eye(n)])
        lam = values[int(rng.integers(0, n))]
        bundle = extract_eigenvectors(pm, lam)
        assert bundle.rank_deficiency == 1
        x = bundle.right_vectors[:, 0]
        np.testing.assert_allclose(
            np.abs(a @ x - lam * x), 0.0, atol=1e-6 * (1.0 + abs(lam))
        )
        hits += 1
    assert hits >= CASES // 2


def test_characteristic_polynomial_determinism(sparse_penta):
    a = characteristic_polynomial(sparse_penta)
    b = characteristic_polynomial(sparse_penta)
    assert a.coeffs == b.coeffs


def _value_stacks(pencil5, sparse_penta):
    """(pm, values) pairs: random complex quadratics at eigenvalues of
    their linearisations and at a value that is none, the shifted pencil
    and the sparse 5x5 at eigenvalues and elsewhere, and a matrix
    polynomial that vanishes at 2."""
    rng = np.random.default_rng(41)
    for n in (3, 7, 12, 20, 40):
        a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        linearisation = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -a1]])
        yield (polynomial_matrix([a0, a1, np.eye(n)]),
               list(np.linalg.eigvals(linearisation)[:5]) + [100.0])
    yield pencil5, [-1.0, 100.0, 5.0]
    yield sparse_penta, [cases.SPARSE_PENTA_EIGENVALUE,
                         cases.SPARSE_PENTA_SEED]
    yield polynomial_matrix([-2.0 * np.eye(3), np.eye(3)]), [2.0, 1.0]


def _bits(found):
    if isinstance(found, NotAnEigenvalueError):
        return str(found), found.eta
    return (found.eigenvalue, found.rank_deficiency,
            found.right_vectors.tobytes(), found.left_vectors.tobytes(),
            found.right_residuals, found.left_residuals)


def _reference_bundle(pm, lam):
    """One value's eigenvectors from the SVD of F(lam) alone: the rank
    from its singular values against S = sum |lam|**i ||A_i||_2, the
    vectors from its full SVD."""
    matrix = eval_matrix(pm, lam)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    scale = matpoly.norm_scales(pm, np.abs([lam]))[0]
    r = int(np.sum(sigma <= matpoly.SINGULAR_REL * scale))
    if not r:
        return str(lam), sigma[-1] / scale
    u, _, vh = np.linalg.svd(matrix)
    x, y = vh[-r:].conj().T, u[:, -r:].conj()
    return (complex(lam), r, x.tobytes(), y.tobytes(),
            tuple(np.max(np.abs(matrix @ x), axis=0)),
            tuple(np.max(np.abs(y.T @ matrix), axis=1)))


def test_stacked_members_get_their_batch_of_one_bits(pencil5, sparse_penta):
    """Each member of a stack, in either order, gets the bits of its batch
    of one; that batch decides and takes its vectors as the SVD of F(lam)
    alone does, and names the same backward error when it fails."""
    ranks = set()
    for pm, lams in _value_stacks(pencil5, sparse_penta):
        stack = [_bits(found) for found in matpoly.eigenvectors_all(pm, lams)]
        flipped = matpoly.eigenvectors_all(pm, lams[::-1])[::-1]
        assert [_bits(found) for found in flipped] == stack
        for lam, got in zip(lams, stack):
            assert got == _bits(matpoly.eigenvectors_all(pm, [lam])[0])
            want = _reference_bundle(pm, lam)
            if len(got) == 2:
                assert got[1:] == want[1:]
            else:
                assert got[:4] == want[:4]
                np.testing.assert_allclose(got[4:], want[4:], rtol=1e-12)
            ranks.add("none" if len(got) == 2 else got[1])
    assert ranks == {"none", 1, 3}


@pytest.mark.parametrize("jordan, rank", ((0.0, 2), (1.0, 1)))
def test_rank_counts_the_eigenvectors_of_a_double_eigenvalue(jordan, rank):
    """F = A - lambda I where A has the double eigenvalue 1, semisimple
    (two eigenvectors) or in one Jordan block (one). The vectors are
    orthonormal and annihilate F(1) from their sides."""
    rng = np.random.default_rng(53)
    v = rng.standard_normal((4, 4))
    j = np.diag((1.0, 1.0, 2.0, -3.0))
    j[0, 1] = jordan
    pm = polynomial_matrix([v @ j @ np.linalg.inv(v), -np.eye(4)])
    bundle = matpoly.eigenvectors_all(pm, [1.0])[0]
    assert bundle.rank_deficiency == rank
    evaluated = eval_matrix(pm, 1.0)
    for vectors in (bundle.right_vectors, bundle.left_vectors):
        assert vectors.shape == (4, rank)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(rank),
                                   atol=1e-14)
    np.testing.assert_allclose(evaluated @ bundle.right_vectors, 0.0,
                               atol=1e-13)
    np.testing.assert_allclose(bundle.left_vectors.T @ evaluated, 0.0,
                               atol=1e-13)


def test_not_an_eigenvalue_names_its_backward_error(pencil5, sparse_penta):
    """The error carries eta = sigma_min(F(lam)) / sum |lam|**i ||A_i||_2,
    here from numpy alone, and quotes it with the threshold; a value where
    F is not finite has NaN."""
    sigma = np.linalg.svd(eval_matrix(pencil5, 100.0), compute_uv=False)
    a0, a1 = pencil5.coefficient_matrices
    eta = sigma[-1] / (np.linalg.norm(a0, 2) + 100.0 * np.linalg.norm(a1, 2))
    with pytest.raises(NotAnEigenvalueError) as caught:
        extract_eigenvectors(pencil5, 100.0)
    assert caught.value.eta == pytest.approx(eta, rel=1e-14, abs=0.0)
    assert str(caught.value) == (
        "(100+0j) is not an eigenvalue: backward error %.3g exceeds 1e-06"
        % eta)
    huge = matpoly.eigenvectors_all(sparse_penta, [1e200])[0]
    assert math.isnan(huge.eta)


def test_ranks_count_against_the_scale_of_the_backward_error(
        pencil5, sparse_penta):
    """The rank counts the singular values at most SINGULAR_REL * S, S =
    sum |lam|**i ||A_i||_2, which is at least ||F(lam)||_2: every count of
    the test against sigma_max stands. A 1 x 1 F is its own sigma_max,
    yet a rounding error away from its roots it is small against S, and
    counts 1. Where S is 0 (lam = 0 with A_0 = 0) F is 0: eta is 0 and
    the rank is n. Where S overflows, eta is NaN even if F(lam) is
    finite: F = 1e308 (1 - lam) I at 1.5 would otherwise read eta 0."""
    for pm, lams in _value_stacks(pencil5, sparse_penta):
        for lam, found in zip(lams, singular_ranks_all(pm, lams)):
            sigma = np.linalg.svd(eval_matrix(pm, lam), compute_uv=False)
            counted = 0 if isinstance(found, NotAnEigenvalueError) else found
            assert counted >= np.sum(sigma <= matpoly.SINGULAR_REL * sigma[0])
    scalar = polynomial_matrix([[[2.0]], [[-3.0]], [[1.0]]])
    assert singular_ranks_all(scalar, [1 + 2.0**-50, 2 - 2.0**-50]) == [1, 1]
    pm = polynomial_matrix([np.zeros((3, 3)), np.eye(3)])
    assert matpoly.rank_residuals_all(pm, [0.0]) == [(0.0, 3)]
    huge = polynomial_matrix([1e308 * np.eye(2), -1e308 * np.eye(2)])
    assert np.isfinite(eval_matrix(huge, 1.5)).all()
    assert math.isnan(singular_ranks_all(huge, [1.5])[0].eta)


def _quad_n7(shift=0.0):
    """quad-n7-0 of the matrix-eig workload, with shift added to A_0's
    diagonal, and its linearisation's eigenvalues."""
    n = 7
    a0 = np.array(cases.QUAD_N7_A0) + shift * np.eye(n)
    a1 = np.array(cases.QUAD_N7_A1)
    linearisation = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -a1]])
    return (polynomial_matrix([a0, a1, np.eye(n)]),
            np.linalg.eigvals(linearisation))


def test_real_f_has_a_real_characteristic_polynomial():
    """det F of a real F keeps the real parts of its interpolated
    coefficients, whatever the size of the imaginary ones."""
    pm, _ = _quad_n7()
    assert all(c.imag == 0.0 for c in characteristic_polynomial(pm).coeffs)


def test_conjugate_partner_takes_the_pair_svd():
    """On a real F, the value of a conjugate pair below the real axis gets
    its partner's rank, conjugated vectors and residuals, in either order,
    and those residuals are the ones of its own F(lambda); the partner gets
    what it gets alone."""
    pm, values = _quad_n7()
    lam = next(v for v in values if v.imag > 0)
    alone = matpoly.eigenvectors_all(pm, [lam])[0]
    for lams, k in (([lam, lam.conjugate()], 1), ([lam.conjugate(), lam], 0)):
        found = matpoly.eigenvectors_all(pm, lams)
        partner, own = found[1 - k], found[k]
        assert _bits(partner) == _bits(alone)
        assert own.eigenvalue == lam.conjugate()
        assert own.rank_deficiency == partner.rank_deficiency == 1
        assert np.array_equal(own.right_vectors, partner.right_vectors.conj())
        assert np.array_equal(own.left_vectors, partner.left_vectors.conj())
        evaluated = eval_matrix(pm, lam.conjugate())
        assert own.right_residuals == tuple(
            np.max(np.abs(evaluated @ own.right_vectors), axis=0))
        assert own.left_residuals == tuple(
            np.max(np.abs(evaluated.T @ own.left_vectors), axis=0))
        assert max(own.right_residuals + own.left_residuals) <= 1e-12


def test_ranks_are_the_bundles_ranks_from_one_svd_without_vectors(
        monkeypatch, pencil5, sparse_penta):
    """singular_ranks_all gives every value of every stack, and of the
    conjugate pairs of a real F, the rank of its eigenvectors_all bundle,
    or the same error, from two SVD calls that compute no vectors: one of
    the A_i for the scale S of eta, one of F at the values."""
    pm, values = _quad_n7()
    stacks = list(_value_stacks(pencil5, sparse_penta))
    stacks.append((pm, list(values) + [100.0]))
    svd = np.linalg.svd
    calls = []

    def recording(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    kinds = set()
    for pm, lams in stacks:
        bundles = matpoly.eigenvectors_all(pm, lams)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", recording)
            ranks = singular_ranks_all(pm, lams)
        assert calls == [False, False]
        calls.clear()
        for rank, bundle in zip(ranks, bundles):
            if isinstance(bundle, NotAnEigenvalueError):
                assert isinstance(rank, NotAnEigenvalueError)
                assert _bits(rank) == _bits(bundle)
            else:
                assert type(rank) is int
                assert rank == bundle.rank_deficiency
            kinds.add(type(rank))
    assert kinds == {int, NotAnEigenvalueError}


def test_complex_f_takes_no_partner():
    """F with A_0 + 1e-3j I is not real: at its eigenvalues and at their
    exact conjugates, which are none, every value gets exactly what
    extracting at it alone gives."""
    pm, values = _quad_n7(1e-3j)
    lams = list(values) + [v.conjugate() for v in values]
    found = matpoly.eigenvectors_all(pm, lams)
    assert [_bits(f) for f in found] == [
        _bits(matpoly.eigenvectors_all(pm, [lam])[0]) for lam in lams]
    kinds = [isinstance(f, NotAnEigenvalueError) for f in found]
    assert kinds == [False] * len(values) + [True] * len(values)


def _reference_horner(pm, lam):
    """Matrix Horner out of place: acc = acc * lam + A_i."""
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    acc = np.array(pm.coefficient_matrices[-1], dtype=complex)
    for a in reversed(pm.coefficient_matrices[:-1]):
        acc = acc * lam + a
    return acc


def test_in_place_horner_keeps_the_bits_of_the_out_of_place_one():
    """eval_matrix runs the recurrence in one buffer and gives every entry
    the bits of acc = acc * lam + A_i, for degrees 1 to 3, real and
    complex F of orders 1 to 6, at one value and at a stack that holds
    conjugate pairs and real values."""
    rng = np.random.default_rng(808)
    for degree in (1, 2, 3):
        for n in (1, 2, 6):
            for imag in (0.0, 1.0):
                pm = polynomial_matrix([
                    rng.standard_normal((n, n))
                    + imag * 1j * rng.standard_normal((n, n))
                    for _ in range(degree + 1)])
                upper = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                stack = np.concatenate([upper, upper.conj(), [2.5, -0.0]])
                for lam in [stack, stack[:1], complex(stack[0]), 0.75]:
                    got = eval_matrix(pm, lam)
                    want = _reference_horner(pm, lam)
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(float), want.view(float))


def _real_stacks():
    """(pm, values) pairs of real F: random quadratics at every eigenvalue
    of their linearisations (exact conjugate pairs, from real LAPACK) and
    a value that is none, and A - lambda I with a semisimple double
    eigenvalue 1 next to the pair +-2i, so that one stack holds ranks 1
    and 2."""
    rng = np.random.default_rng(4343)
    for n in (3, 8, 15):
        a0, a1 = rng.standard_normal((2, n, n))
        linearisation = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -a1]])
        values = list(np.linalg.eigvals(linearisation)) + [100.0]
        yield polynomial_matrix([a0, a1, np.eye(n)]), values
    v = rng.standard_normal((4, 4))
    j = np.diag((1.0, 1.0, 0.0, 0.0))
    j[2:, 2:] = [[0.0, 2.0], [-2.0, 0.0]]
    yield (polynomial_matrix([v @ j @ np.linalg.inv(v), -np.eye(4)]),
           [2j, 1.0, -2j])


def test_stacked_residuals_are_each_members_own():
    """The residuals of one rank come from one stacked F @ X and one
    F^T @ Y, and the lower member of a conjugate pair takes its partner's.
    Every one of them equals the residual computed from that member's own
    F(lambda) and its own vectors, one product at a time, bit for bit."""
    shared = ranks = 0
    for pm, lams in _real_stacks():
        found = matpoly.eigenvectors_all(pm, lams)
        pairs = matpoly.conjugate_pairs([complex(lam) for lam in lams])
        shared += len(pairs)
        for lam, bundle in zip(lams, found):
            if isinstance(bundle, NotAnEigenvalueError):
                continue
            ranks |= 1 << bundle.rank_deficiency
            evaluated = eval_matrix(pm, lam)
            x, y = bundle.right_vectors, bundle.left_vectors
            assert bundle.right_residuals == tuple(
                np.max(np.abs(evaluated @ np.asfortranarray(x)), axis=0))
            assert bundle.left_residuals == tuple(
                np.max(np.abs(evaluated.T @ np.ascontiguousarray(y)), axis=0))
    assert shared >= 10
    assert ranks == 0b110


@pytest.mark.parametrize("coeffs", (
    (2.0, -3.0, 1.0),
    (1.5 - 0.5j, 0.25j, -2.0, 1.0 + 1.0j),
    (-7.0, 0.5, 0.0, 0.0, 3.0),
))
def test_one_by_one_eigenpairs_are_the_scalar_residual_and_radius(coeffs):
    """For n = 1 the eigenpair's backward error is the relative residual
    |f| / sum |a_j| |lambda|**j of the scalar path, and its radius is the
    root radius at nu = 1: the scalar and the matrix residual are one
    concept. At an eigenvalue f(lambda) is rounding noise, and numpy's
    complex product rounds unlike Python's, so the two residuals agree
    to a few ulps of the scale S, a few u; given the same residual, the
    radii agree to a few ulps of their own."""
    f = Polynomial(coeffs)
    pm = polynomial_matrix([[[a]] for a in coeffs])
    values, residuals, radii = matpoly.linearisation_eigenpairs(pm)
    assert len(values) == f.degree
    expected = refine.root_radii(f, values, [1] * len(values), residuals)
    for value, eta, radius, rho in zip(values, residuals, radii, expected):
        assert abs(eta - relative_residual(f, value)) <= 4 * UNIT_ROUNDOFF
        assert radius == pytest.approx(rho, rel=8 * UNIT_ROUNDOFF, abs=0.0)


def _quad_n7_matrices():
    return [np.array(cases.QUAD_N7_A0), np.array(cases.QUAD_N7_A1),
            np.eye(7)]


def _order_20():
    rng = np.random.default_rng(1)
    return [rng.standard_normal((20, 20)), rng.standard_normal((20, 20)),
            np.eye(20)]


@pytest.mark.parametrize("make", (_quad_n7_matrices, _order_20))
def test_linearisation_backward_errors_bound_numpys_smallest_singular_value(
        make):
    """Oracle without package code: at each eigenvalue, numpy's
    sigma_min(F(lambda)) / sum |lambda|**i ||A_i||_2, the least backward
    error of any x, is at most the eta that the linearisation's own x
    attains, and every eta is within gamma_{4m+1}."""
    matrices = make()
    pm = polynomial_matrix(matrices)
    values, residuals, radii = matpoly.linearisation_eigenpairs(pm)
    assert len(values) == pm.nominal_char_degree
    assert values == sorted(values, key=lambda z: (z.real, z.imag))
    norms = [np.linalg.norm(a, 2) for a in matrices]
    for value, eta, radius in zip(values, residuals, radii):
        f = sum(a * value ** i for i, a in enumerate(matrices))
        scale = sum(norm * abs(value) ** i for i, norm in enumerate(norms))
        assert np.linalg.svd(f, compute_uv=False)[-1] / scale <= eta
        assert eta <= degree_error_bound(pm.nominal_char_degree)
        assert 0.0 < radius < 1e-10 * abs(value)


def _cubic_order_4():
    rng = np.random.default_rng(11)
    return [rng.standard_normal((4, 4)) for _ in range(4)]


@pytest.mark.parametrize("make", (_quad_n7_matrices, _cubic_order_4))
def test_linearisation_radii_are_tisseurs_condition_numbers(make):
    """Oracle without package code: the radius is (u + eta) times
    Tisseur's condition number sum |lambda|**i ||A_i||_2 / |y^H F'(lambda)
    x|, with x and y the unit null vectors of numpy's SVD of F(lambda), so
    the left vectors read off Z^-1 are F's, for rho = 2 and 3."""
    matrices = make()
    values, residuals, radii = matpoly.linearisation_eigenpairs(
        polynomial_matrix(matrices))
    norms = [np.linalg.norm(a, 2) for a in matrices]
    for value, eta, radius in zip(values, residuals, radii):
        f = sum(a * value ** i for i, a in enumerate(matrices))
        df = sum(i * a * value ** (i - 1) for i, a in enumerate(matrices)
                 if i)
        u, _, vh = np.linalg.svd(f)
        scale = sum(norm * abs(value) ** i for i, norm in enumerate(norms))
        condition = scale / abs(u[:, -1].conj() @ df @ vh[-1].conj())
        assert radius == pytest.approx((UNIT_ROUNDOFF + eta) * condition,
                                       rel=1e-9, abs=0.0)


def test_complex_linearisation_matches_numpy():
    """A complex F keeps a complex companion; its eigenvalues are numpy's
    of the same linearisation, each certified."""
    rng = np.random.default_rng(4)
    matrices = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                for _ in range(3)]
    pm = polynomial_matrix(matrices)
    assert not pm.is_real()
    values, residuals, _ = matpoly.linearisation_eigenpairs(pm)
    lead = np.linalg.inv(matrices[2])
    reference = np.linalg.eigvals(np.block([
        [np.zeros((5, 5)), np.eye(5)],
        [-lead @ matrices[0], -lead @ matrices[1]]]))
    for value in values:
        assert np.min(np.abs(reference - value)) <= 1e-12 * abs(value)
    assert max(residuals) <= degree_error_bound(10)


def test_rank_residuals_give_the_least_backward_error_and_the_rank():
    """rank_residuals_all: sigma_min / S from the singular values of
    singular_ranks_all, with its rank or error beside it."""
    pm = polynomial_matrix(_quad_n7_matrices())
    values = matpoly.linearisation_eigenpairs(pm)[0][:3] + [0.1 + 0.2j]
    found = matpoly.rank_residuals_all(pm, values)
    assert [rank for _, rank in found[:3]] == [1, 1, 1]
    assert [rank for _, rank in found[:3]] == singular_ranks_all(
        pm, values)[:3]
    assert isinstance(found[3][1], NotAnEigenvalueError)
    scales = matpoly.norm_scales(pm, np.abs(values))
    for (eta, _), value, scale in zip(found, values, scales):
        sigma = np.linalg.svd(eval_matrix(pm, value), compute_uv=False)
        assert eta == pytest.approx(sigma[-1] / scale, rel=1e-12, abs=0.0)
