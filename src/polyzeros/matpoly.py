"""Polynomial matrices: evaluation, determinants, seeds, eigenvectors.

F(lambda) = sum A_i lambda**i with n x n complex coefficient matrices. The
characteristic polynomial det F is recovered by sampling determinants on a
circle and solving the interpolation system on roots of unity; a singular
leading matrix simply drops the effective degree. Eigenvectors come from
Gauss elimination with row exchanges followed by a Jordan back-elimination
that exposes the null-space columns directly; each pivot clears its column
with one rank-1 update. A failed extraction reports the smallest pivot it
accepted, which tells a caller at which looser tolerances the same
elimination would fail again.
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
    if not (0 < sample_radius < float("inf")):
        raise SampleConditioningError(
            "unusable sample radius %r; coefficient entries must be finite"
            % (sample_radius,)
        )
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


def _eliminate(rows, pivot_row, col):
    """Clear column col of rows with one rank-1 update by pivot_row.

    Rows whose entry in col is already zero are left as they are, so the
    signs of their zeros do not change.
    """
    entries = rows[:, col]
    np.subtract(rows, np.multiply.outer(entries / pivot_row[col], pivot_row),
                out=rows, where=(entries != 0)[:, None])


def _null_space_vectors(matrix, pivot_tol):
    """Row-exchange Gauss elimination, then Jordan back-elimination.

    The scale is the largest entry magnitude of the matrix. A column whose
    best remaining pivot is at most pivot_tol * scale becomes a free
    column; each free column yields one vector with -1 there, zeros at the
    other free columns, and the back-eliminated ratios at the pivot
    columns. Each pivot clears its column below it, and in the
    back-elimination above it, with one rank-1 update.

    Returns (vectors, pivots, smallest, scale): vectors is None when no
    column is free; pivots lists the (row, col) positions; smallest is the
    smallest accepted pivot magnitude (inf when none was accepted). At any
    tolerance t with smallest > t * scale the elimination makes the same
    decisions and gives the same result, bit for bit.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    scale = max(float(np.max(np.abs(a))), 1e-300)
    threshold = pivot_tol * scale
    smallest = float("inf")
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
        smallest = min(smallest, float(sub[best]))
        if best != 0:
            a[[row, row + best]] = a[[row + best, row]]
        if row + 1 < n:
            _eliminate(a[row + 1:], a[row], col)
        pivots.append((row, col))
        row += 1
    if not free_cols:
        return None, pivots, smallest, scale
    for prow, pcol in reversed(pivots[1:]):
        _eliminate(a[:prow], a[prow], pcol)
    vectors = np.zeros((n, len(free_cols)), dtype=complex)
    for idx, fc in enumerate(free_cols):
        vectors[fc, idx] = -1.0
        for prow, pcol in pivots:
            vectors[pcol, idx] = a[prow, fc] / a[prow, pcol]
    return vectors, pivots, smallest, scale


def _null_space_bundle(evaluated, lam, pivot_tol):
    """Null-space vectors of an evaluated matrix and their residuals."""
    vectors, _, smallest, scale = _null_space_vectors(evaluated, pivot_tol)
    if vectors is None:
        raise NotAnEigenvalueError(lam, pivot_tol, smallest, scale)
    residuals = tuple(
        float(np.max(np.abs(evaluated @ vectors[:, k])))
        for k in range(vectors.shape[1])
    )
    return vectors, residuals


def extract_eigenvectors(pm, lam, pivot_tol=DEFAULT_PIVOT_TOL):
    """Right eigenvectors of F at lam with rank-deficiency detection."""
    vectors, residuals = _null_space_bundle(eval_matrix(pm, lam), lam,
                                            pivot_tol)
    return EigenvectorBundle(
        complex(lam), vectors.shape[1], vectors, None, residuals, ()
    )


def left_eigenvectors(pm, lam, pivot_tol=DEFAULT_PIVOT_TOL):
    """Left eigenvectors: the same extraction on F(lam) transposed."""
    vectors, residuals = _null_space_bundle(eval_matrix(pm, lam).T, lam,
                                            pivot_tol)
    return EigenvectorBundle(
        complex(lam), vectors.shape[1], None, vectors, (), residuals
    )
