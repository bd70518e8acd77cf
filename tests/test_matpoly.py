"""Polynomial matrices: determinant interpolation, seeds, eigenvectors."""

import warnings

import numpy as np
import pytest

import cases
import oracles
from polyzeros import matpoly, pipeline
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
)

CHAR_RTOL = 1e-9
RESIDUAL_TOL = 1e-10
CASES = 25


def test_polynomial_matrix_validation():
    with pytest.raises(ProblemFormatError):
        polynomial_matrix([np.eye(2)])
    with pytest.raises(ProblemFormatError):
        polynomial_matrix([np.eye(2), np.zeros((2, 3))])
    with pytest.raises(ProblemFormatError):
        polynomial_matrix([np.eye(2), np.eye(3)])


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
            assert np.abs(y @ evaluated).max() <= (
                matpoly.DEFAULT_PIVOT_TOL * scale)


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
    assert texts == {"(5+0j) is not an eigenvalue at pivot tolerance 1e-10"}
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
        bundle = extract_eigenvectors(pm, lam, pivot_tol=1e-8)
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


def _reference_null_space(matrix, pivot_tol):
    """The row-by-row elimination that the rank-1 updates of
    _null_space_stack replaced: one update per row, skipping rows whose
    pivot-column entry is zero."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    threshold = pivot_tol * max(float(np.max(np.abs(a))), 1e-300)
    pivots = []
    free_cols = []
    row = 0
    for col in range(n):
        if row >= n:
            free_cols.append(col)
            continue
        sub = np.abs(a[row:, col])
        best = int(np.argmax(sub))
        if sub[best] <= threshold:
            free_cols.append(col)
            continue
        if best != 0:
            a[[row, row + best]] = a[[row + best, row]]
        pivot = a[row, col]
        for r in range(row + 1, n):
            if a[r, col] != 0:
                a[r, :] -= (a[r, col] / pivot) * a[row, :]
        pivots.append((row, col))
        row += 1
    if not free_cols:
        return None, pivots, free_cols
    for i in range(len(pivots) - 1, 0, -1):
        prow, pcol = pivots[i]
        pivot = a[prow, pcol]
        for r in range(prow):
            if a[r, pcol] != 0:
                a[r, :] -= (a[r, pcol] / pivot) * a[prow, :]
    vectors = np.zeros((n, len(free_cols)), dtype=complex)
    for idx, fc in enumerate(free_cols):
        vectors[fc, idx] = -1.0
        for prow, pcol in pivots:
            vectors[pcol, idx] = a[prow, fc] / a[prow, pcol]
    return vectors, pivots, free_cols


def _null_space_inputs(pencil5, sparse_penta):
    rng = np.random.default_rng(41)
    for n in tuple(range(3, 17)) + (20, 25, 30, 35, 40):
        a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pm = polynomial_matrix([a0, a1, np.eye(n)])
        linearisation = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -a1]])
        lam = np.linalg.eigvals(linearisation)[0]
        yield eval_matrix(pm, lam)
        yield eval_matrix(pm, lam).T
    yield eval_matrix(pencil5, -1.0)
    yield eval_matrix(pencil5, 100.0)
    yield eval_matrix(sparse_penta, cases.SPARSE_PENTA_EIGENVALUE)
    yield eval_matrix(polynomial_matrix([-2.0 * np.eye(3), np.eye(3)]), 2.0)
    # Signed zeros in rows that a pivot skips because their entry in its
    # column is zero: row 1 below the first pivot, and row 0 above the
    # second one in the back-elimination. Updating them by a zero
    # multiple of the pivot row would turn their -0.0 into +0.0, and
    # with it the sign of a zero in the null vector.
    yield np.array([[1.0, 2.0, -1.0],
                    [0.0, 1.0, complex(-0.0, -0.0)],
                    [0.0, 0.0, 0.0]], dtype=complex)
    yield np.array([[1.0, 0.0, complex(-0.0, 0.0)],
                    [0.0, 1.0, -1j],
                    [0.0, 0.0, 0.0]], dtype=complex)


def _alone(matrix, pivot_tol):
    """The stacked kernel's result for a batch of one."""
    return matpoly._null_space_stack(matrix[None], pivot_tol)[0]


def test_null_space_kernel_gives_the_row_loop_bits(pencil5, sparse_penta):
    """One rank-1 update per pivot reproduces the row-by-row elimination
    bit for bit, and a looser tolerance below the smallest accepted pivot
    repeats the result exactly."""
    ladder = (1e-10, 1e-8, 1e-6)
    for matrix in _null_space_inputs(pencil5, sparse_penta):
        n = matrix.shape[0]
        results = {}
        for pivot_tol in ladder:
            want, want_pivots, want_free = _reference_null_space(matrix,
                                                                 pivot_tol)
            got, pivots, smallest, scale = _alone(matrix, pivot_tol)
            assert pivots == want_pivots
            assert [c for c in range(n)
                    if c not in {pc for _, pc in pivots}] == want_free
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()
            assert smallest > pivot_tol * scale
            results[pivot_tol] = (None if got is None else got.tobytes(),
                                  pivots, smallest, scale)
        for i, tight in enumerate(ladder):
            _, _, smallest, scale = results[tight]
            for loose in ladder[i + 1:]:
                if smallest > loose * scale:
                    assert results[loose] == results[tight]


def _mixed_stacks(pencil5, sparse_penta):
    """Stacks whose members take different decisions at the same column."""
    rng = np.random.default_rng(43)
    inputs = {}
    for matrix in _null_space_inputs(pencil5, sparse_penta):
        inputs.setdefault(matrix.shape[0], []).append(matrix)
    yield from inputs.values()
    base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dominant = base + 10.0 * np.eye(4)
    members = [base, dominant, dominant[[2, 0, 1, 3]], dominant[[0, 3, 2, 1]]]
    for col in (0, 1, 3):
        member = base.copy()
        member[:, col] = 0.0
        members.append(member)
    doubled = base.copy()
    doubled[:, 2] = 2.0 * base[:, 0]
    members.append(doubled)
    # Rank two: two pivots fewer than its neighbours, with rounding residue
    # left in the rows below its pivots.
    rank_two = doubled.copy()
    rank_two[:, 3] = base[:, 0] - 3.0 * base[:, 1]
    members.append(rank_two)
    # Free first and last columns: column 0 moves to the end before the
    # first pivot, and column 3 is free as the last column left to test.
    ends_free = base.copy()
    ends_free[:, [0, 3]] = 0.0
    members.append(ends_free)
    members.append(np.zeros((4, 4), dtype=complex))
    yield members + inputs[4]
    yield inputs[3] + [np.zeros((3, 3), dtype=complex), base[:3, :3]]


def test_stacked_members_get_their_batch_of_one_bits(pencil5, sparse_penta):
    """Each member of a stack, whatever its neighbours' free columns, row
    exchanges and pivot counts, gets the vectors, pivots, smallest pivot
    and scale it gets alone."""
    decisions = set()
    for stack in _mixed_stacks(pencil5, sparse_penta):
        for pivot_tol in (1e-10, 1e-8, 1e-6):
            results = matpoly._null_space_stack(np.array(stack), pivot_tol)
            assert len(results) == len(stack)
            for matrix, (got, pivots, smallest, scale) in zip(stack, results):
                want, want_pivots, want_smallest, want_scale = _alone(
                    matrix, pivot_tol)
                assert pivots == want_pivots
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.tobytes() == want.tobytes()
                assert (smallest, scale) == (want_smallest, want_scale)
                decisions.add((matrix.shape[0], tuple(pivots)))
    # The stacks do mix decisions: order 4 alone has members with free
    # column 0, 1, 2 or 3, with free columns 2 and 3, and with none.
    assert len([d for d in decisions if d[0] == 4]) >= 6


def test_stacked_members_take_their_own_tolerances(pencil5, sparse_penta):
    """A stack with one tolerance per member gives each member the bits it
    gets alone at its own tolerance, which are the row loop's bits."""
    ladder = (1e-10, 1e-8, 1e-6)
    for stack in _mixed_stacks(pencil5, sparse_penta):
        for shift in range(len(ladder)):
            tols = [ladder[(i + shift) % len(ladder)]
                    for i in range(len(stack))]
            results = matpoly._null_space_stack(np.array(stack),
                                                np.array(tols))
            for matrix, tol, (got, pivots, smallest, scale) in zip(
                    stack, tols, results):
                want, want_pivots, want_smallest, want_scale = _alone(
                    matrix, tol)
                loop, loop_pivots, _ = _reference_null_space(matrix, tol)
                assert pivots == want_pivots == loop_pivots
                assert (got is None) == (want is None) == (loop is None)
                if want is not None:
                    assert got.tobytes() == want.tobytes() == loop.tobytes()
                assert (smallest, scale) == (want_smallest, want_scale)


def _near_singular_inputs(pencil5, sparse_penta):
    yield from _null_space_inputs(pencil5, sparse_penta)
    rng = np.random.default_rng(47)
    for n in (3, 6, 12):
        for gap in (1e-12, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3):
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            sigma = np.ones(n)
            sigma[-1] = gap
            yield (u * sigma) @ v.T


def test_success_at_a_rung_holds_at_every_looser_rung(pencil5, sparse_penta):
    """The eigenvector phase skips rungs on this: a looser tolerance can
    only free more columns, and if it frees none, it made the tighter
    tolerance's decisions, which freed none either."""
    ladder = pipeline.EIGENVECTOR_PIVOT_LADDER
    patterns = set()
    for matrix in _near_singular_inputs(pencil5, sparse_penta):
        found = [_alone(matrix, tol)[0] is not None for tol in ladder]
        assert found == sorted(found)
        patterns.add(tuple(found))
    assert len(patterns) >= 3
