"""Polynomial matrices: evaluation, determinants, seeds, eigenvectors.

F(lambda) = sum A_i lambda**i with n x n complex coefficient matrices. The
characteristic polynomial det F is recovered by sampling determinants on a
circle and solving the interpolation system on roots of unity; a singular
leading matrix simply drops the effective degree. Eigenvectors come from
Gauss elimination with row exchanges followed by a Jordan back-elimination
that exposes the null-space columns directly. It runs on a stack of
evaluated matrices at once, each member at its own pivot tolerance; a
free column moves to the end of its member's columns, so every member's
k-th pivot sits at (k, k), each pivot clears its column with one masked
rank-1 update, and each matrix gets the bits it would get alone. A failed
extraction reports the smallest pivot it accepted, which tells a caller at
which looser tolerances the same elimination would fail again. Each
eigenvalue walks a ladder of pivot tolerances, F(lambda) and then its
transpose per rung, and the ladders of all eigenvalues advance in rounds
of one stacked elimination each.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAnEigenvalueError,
    ProblemFormatError,
    SampleConditioningError,
)
from .explore import companion_seed_all
from .poly import Polynomial, effective_degree

IMAG_RESIDUE_REL = 1e-10
DEFAULT_PIVOT_TOL = 1e-10
LEADING_REGULARITY_REL = 1e-12


@dataclass(frozen=True)
class PolynomialMatrix:
    """Coefficient matrices A_0..A_rho of shared order n.

    ``leading_regular`` records whether det A_rho is numerically nonzero;
    a singular leading matrix is allowed (the true polynomial degree is
    then below rho*n and is detected from the computed coefficients).
    """

    coefficient_matrices: tuple
    order: int
    degree: int
    leading_regular: bool

    @property
    def nominal_char_degree(self):
        return self.degree * self.order

    def is_real(self):
        return all(
            float(np.max(np.abs(np.asarray(a).imag))) == 0.0
            for a in self.coefficient_matrices
        )


def polynomial_matrix(matrices):
    """Validate and freeze a list of coefficient matrices."""
    if len(matrices) < 2:
        raise ProblemFormatError("need at least A_0 and A_1 (degree >= 1)")
    arrays = []
    n = None
    for i, raw in enumerate(matrices):
        a = np.array(raw, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ProblemFormatError("coefficient matrix %d is not square" % i)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(a)).all():
                raise ProblemFormatError(
                    "coefficient matrix %d has an entry that is not finite"
                    % i)
        if n is None:
            n = a.shape[0]
        elif a.shape[0] != n:
            raise ProblemFormatError(
                "coefficient matrix %d has order %d, expected %d"
                % (i, a.shape[0], n)
            )
        a.setflags(write=False)
        arrays.append(a)
    # |det A_rho| against the Hadamard bound, the product of its column
    # norms, compared in logarithms: the product itself under- or overflows
    # for leads such as 1e-20 * I or 1e20 * I at n = 20. hypot sums the
    # squares without overflowing them.
    lead = arrays[-1]
    col_norms = np.hypot.reduce(np.abs(lead), axis=0)
    log_hadamard = float(np.sum(np.log(np.maximum(col_norms, 1e-300))))
    log_det = float(np.linalg.slogdet(lead)[1])
    regular = log_det > math.log(LEADING_REGULARITY_REL) + log_hadamard
    return PolynomialMatrix(tuple(arrays), n, len(arrays) - 1, regular)


def eval_matrix(pm, lam):
    """Matrix Horner evaluation of F at lam."""
    lam = complex(lam)
    acc = np.array(pm.coefficient_matrices[-1], dtype=complex)
    for a in reversed(pm.coefficient_matrices[:-1]):
        acc = acc * lam + a
    return acc


def characteristic_polynomial(pm):
    """det F(lambda) as a polynomial, via determinant interpolation.

    Determinants are sampled at m+1 nodes R*exp(-2*pi*i*s/(m+1)) with
    m = rho*n and R one plus the largest coefficient entry; the
    coefficients fall out of the inverse DFT of the samples, scaled back by
    R**-j. Real inputs are realified when the imaginary residue is below
    IMAG_RESIDUE_REL of the coefficient scale. Trailing coefficients are
    trimmed by :func:`effective_degree`, so the returned degree is the
    effective one.
    """
    m = pm.nominal_char_degree
    count = m + 1
    top = max(float(np.max(np.abs(a))) for a in pm.coefficient_matrices)
    sample_radius = 1.0 + top
    try:
        scale_top = sample_radius ** m
    except OverflowError:
        scale_top = float("inf")
    if not math.isfinite(scale_top):
        raise SampleConditioningError(
            "sample radius %g overflows at degree %d; scale the coefficient "
            "matrices down" % (sample_radius, m)
        )
    dets = np.empty(count, dtype=complex)
    for s in range(count):
        node = sample_radius * cmath.exp(-2j * math.pi * s / count)
        dets[s] = np.linalg.det(eval_matrix(pm, node))
    if not np.all(np.isfinite(dets)):
        raise SampleConditioningError(
            "non-finite determinant samples at radius %g" % sample_radius
        )
    scaled = np.fft.ifft(dets)
    powers = sample_radius ** np.arange(count, dtype=float)
    coeffs = scaled / powers
    top = float(np.max(np.abs(coeffs)))
    if top == 0.0:
        raise SampleConditioningError(
            "all determinant samples vanished; F is singular for every "
            "lambda (nonregular matrix polynomial)"
        )
    if pm.is_real():
        residue = float(np.max(np.abs(coeffs.imag)))
        if residue <= IMAG_RESIDUE_REL * top:
            coeffs = coeffs.real.astype(complex)
    poly = Polynomial(tuple(coeffs))
    return effective_degree(poly)


@dataclass(frozen=True)
class DiagonalSeedReport:
    values: tuple
    degenerate_entries: tuple


def diagonal_seeds(pm):
    """Roots of the diagonal entry polynomials f_jj, entry by entry.

    For a diagonally dominant matrix these are good starting values for the
    refinement iterations. Entries whose actual degree falls below rho
    contribute only their actual roots and are flagged.
    """
    rho = pm.degree
    seeds = []
    degenerate = []
    for j in range(pm.order):
        coeffs = tuple(pm.coefficient_matrices[i][j, j] for i in range(rho + 1))
        entry = Polynomial(coeffs)
        if entry.is_zero:
            degenerate.append(j)
            continue
        deg = entry.degree
        if deg < rho:
            degenerate.append(j)
        if deg == 0:
            continue
        seeds.extend(sorted(companion_seed_all(entry).values,
                            key=lambda z: (-z.imag, z.real)))
    return DiagonalSeedReport(tuple(seeds), tuple(degenerate))


@dataclass(frozen=True)
class EigenvectorBundle:
    """Null-space data of F at one eigenvalue.

    rank_deficiency counts the pivotless columns (independent eigenvectors)
    found at the given tolerance. right_vectors/left_vectors are n x r
    arrays (one of them may be None when only one side was requested), each
    column with -1 at its free position; residuals hold the infinity norm
    of F(lambda) x (or y^T F) per column.
    """

    eigenvalue: complex
    rank_deficiency: int
    right_vectors: object
    left_vectors: object
    right_residuals: tuple = ()
    left_residuals: tuple = ()


def _rank_one_update(block, entries, pivot_rows, pivots, mask):
    """Clear the column entries of block (B, k, n) by each member's pivot
    row (B, n) and pivot (B,). Rows outside mask or with a zero entry keep
    their values, so the signs of their zeros do not change. When every
    row is updated, the subtraction runs numpy's faster unmasked loop."""
    mask = mask & (entries != 0)
    factors = np.divide(entries, pivots[:, None],
                        out=np.zeros(entries.shape, complex), where=mask)
    np.subtract(block, factors[:, :, None] * pivot_rows[:, None, :],
                out=block, where=True if mask.all() else mask[:, :, None])


def _first_to_last(x):
    """x with its first entry along the last axis moved to the end."""
    return np.concatenate((x[..., 1:], x[..., :1]), axis=-1)


def _null_space_stack(matrices, pivot_tol):
    """Row-exchange Gauss elimination, then Jordan back-elimination, of
    every member of a stack (B, n, n) at once.

    pivot_tol is one tolerance for the stack or one per member. A column
    whose best remaining pivot is at most pivot_tol times the member's
    scale, its largest entry magnitude, is one of the member's free
    columns; each yields one vector with -1 there, zeros at the other free
    columns and the back-eliminated ratios at the pivot columns. A free
    column moves to the end of its member's columns, so every member's
    k-th pivot sits at (k, k). Returns per member (vectors, pivots,
    smallest, scale): vectors is None when no column is free, pivots lists
    the (row, col) positions with col counted in the member's original
    columns, and smallest is the smallest accepted pivot magnitude (inf
    when none). At any tolerance t with smallest > t * scale the
    elimination makes the same decisions and gives the same result, bit
    for bit.
    """
    a = np.array(matrices, dtype=complex)
    count, n = a.shape[:2]
    members = np.arange(count)
    scale = np.maximum(np.max(np.abs(a), axis=(1, 2)), 1e-300)
    threshold = pivot_tol * scale
    smallest = np.full(count, np.inf)
    # Per member, the original column now at each position of a.
    cols = np.tile(np.arange(n), (count, 1))
    free_count = np.zeros(count, dtype=int)
    for k in range(n):
        # A member is live while it has a column left to test; one whose
        # column k is free tests the column that moves up in its place.
        live = test = free_count < n - k
        while test.any():
            sub = np.abs(a[:, k:, k])
            best = np.argmax(sub, axis=1)
            top = sub[members, best]
            free = test & (top <= threshold)
            if free.any():
                a[free, :, k:] = _first_to_last(a[free, :, k:])
                cols[free, k:] = _first_to_last(cols[free, k:])
                free_count += free
                live = free_count < n - k
            test = free & live
        if not live.any():
            break
        np.fmin(smallest, top, out=smallest, where=live)
        swap = members[live & (best != 0)]
        if swap.size:
            below = k + best[swap]
            a[swap, k], a[swap, below] = a[swap, below], a[swap, k]
        _rank_one_update(a[:, k + 1:], a[:, k + 1:, k], a[:, k], a[:, k, k],
                         live[:, None])
    rank = n - free_count
    keep = members[rank < n]
    a, kept = a[keep], rank[keep]
    for k in range(int(kept.max(initial=0)) - 1, 0, -1):
        _rank_one_update(a[:, :k], a[:, :k, k], a[:, k], a[:, k, k],
                         (kept > k)[:, None])
    vectors = [None] * count
    for i, (member, p) in enumerate(zip(keep, kept)):
        c = cols[member]
        v = vectors[member] = np.zeros((n, n - p), dtype=complex)
        v[c[p:], np.arange(n - p)] = -1.0
        v[c[:p]] = a[i, :p, p:] / np.diagonal(a[i])[:p, None]
    return [(v, list(enumerate(c[:p].tolist())), float(low), float(size))
            for v, c, p, low, size in zip(vectors, cols, rank, smallest, scale)]


def _side_bundle(side, lam, pivot_tol, left, eliminated):
    """The right (or, from side = F(lam) transposed, left)
    EigenvectorBundle of one elimination result, or the
    NotAnEigenvalueError when it found no free column."""
    vectors, _, smallest, scale = eliminated
    if vectors is None:
        return NotAnEigenvalueError(lam, pivot_tol, smallest, scale)
    residuals = tuple(float(np.max(np.abs(side @ vectors[:, k])))
                      for k in range(vectors.shape[1]))
    sides = ((None, vectors, (), residuals) if left
             else (vectors, None, residuals, ()))
    return EigenvectorBundle(complex(lam), vectors.shape[1], *sides)


def _ladder(ladder):
    """The pivot ladder of one value, as a generator.

    It yields each elimination it needs as (left, pivot_tol) and is sent
    its bundle or NotAnEigenvalueError; it returns the pair of bundles
    (right, left) and the rung it succeeded at, or the last failure and
    None. Each rung eliminates F(lam), then F(lam) transposed if the right
    side succeeded. A rung where the last failure would repeat exactly
    (:meth:`NotAnEigenvalueError.repeated_at`) is skipped: every pivot it
    accepted lies above the looser threshold, and an extraction that
    succeeds at one rung succeeds at every looser rung, so the rung would
    fail with the same error.
    """
    failure = None
    for pivot_tol in ladder:
        if failure is not None:
            repeat = failure.repeated_at(pivot_tol)
            if repeat is not None:
                failure = repeat
                continue
        right = yield False, pivot_tol
        if isinstance(right, NotAnEigenvalueError):
            failure = right
            continue
        left = yield True, pivot_tol
        if isinstance(left, NotAnEigenvalueError):
            failure = left
            continue
        return (right, left), pivot_tol
    return failure, None


def eigenvectors_on_ladder(pm, lams, ladder):
    """Right and left eigenvectors of F at every value in lams, each value
    loosening its pivot tolerance along ladder until both sides find a free
    column (see :func:`_ladder`).

    F(lam) is evaluated once per value. The eliminations run in rounds:
    every value's next request, whatever its side and tolerance, joins one
    stacked elimination. Returns per value (found, pivot_tol): the pair of
    EigenvectorBundles (right, left) and the rung that gave them, or the
    last NotAnEigenvalueError and None."""
    evaluated = [eval_matrix(pm, lam) for lam in lams]
    runs = [_ladder(ladder) for _ in lams]
    requests = {i: next(run) for i, run in enumerate(runs)}
    found = [None] * len(runs)
    while requests:
        pending, requests = list(requests.items()), {}
        sides = [evaluated[i].T if left else evaluated[i]
                 for i, (left, _) in pending]
        tols = np.array([pivot_tol for _, (_, pivot_tol) in pending])
        for (i, (left, pivot_tol)), side, eliminated in zip(
                pending, sides, _null_space_stack(sides, tols)):
            try:
                requests[i] = runs[i].send(_side_bundle(
                    side, lams[i], pivot_tol, left, eliminated))
            except StopIteration as stop:
                found[i] = stop.value
    return found


def eigenvectors_all(pm, lams, pivot_tol=DEFAULT_PIVOT_TOL):
    """Right and left eigenvectors of F at every value in lams: the ladder
    of :func:`eigenvectors_on_ladder` with one rung. Returns per value the
    pair of EigenvectorBundles (right, left), or the NotAnEigenvalueError
    of the side that found none."""
    return [found for found, _ in
            eigenvectors_on_ladder(pm, lams, (pivot_tol,))]


def _batch_of_one(pm, lam, pivot_tol, left):
    matrix = eval_matrix(pm, lam)
    side = matrix.T if left else matrix
    found = _side_bundle(side, lam, pivot_tol, left,
                         _null_space_stack([side], pivot_tol)[0])
    if isinstance(found, NotAnEigenvalueError):
        raise found
    return found


def extract_eigenvectors(pm, lam, pivot_tol=DEFAULT_PIVOT_TOL):
    """Right eigenvectors of F at lam with rank-deficiency detection."""
    return _batch_of_one(pm, lam, pivot_tol, left=False)


def left_eigenvectors(pm, lam, pivot_tol=DEFAULT_PIVOT_TOL):
    """Left eigenvectors: the same extraction on F(lam) transposed."""
    return _batch_of_one(pm, lam, pivot_tol, left=True)
