"""Polynomial matrices: evaluation, determinants, seeds, eigenvectors.

F(lambda) = sum A_i lambda**i with n x n complex coefficient matrices. The
characteristic polynomial det F is recovered by sampling determinants on a
circle and solving the interpolation system on roots of unity; a singular
leading matrix simply drops the effective degree. Eigenvectors come from
Gauss elimination with row exchanges followed by a Jordan back-elimination
that exposes the null-space columns directly. It runs on a stack of
evaluated matrices, one per eigenvalue, at once; each pivot clears its
column with one masked rank-1 update, and each matrix gets the bits it
would get alone. A failed extraction reports the smallest pivot it
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


def _null_space_stack(matrices, pivot_tol):
    """Row-exchange Gauss elimination, then Jordan back-elimination, of
    every member of a stack (B, n, n) at once.

    A column whose best remaining pivot is at most pivot_tol times the
    member's scale, its largest entry magnitude, is one of the member's
    free columns; each yields one vector with -1 there, zeros at the other
    free columns and the back-eliminated ratios at the pivot columns.
    Returns per member (vectors, pivots, smallest, scale): vectors is None
    when no column is free, pivots lists the (row, col) positions, and
    smallest is the smallest accepted pivot magnitude (inf when none). At
    any tolerance t with smallest > t * scale the elimination makes the
    same decisions and gives the same result, bit for bit.
    """
    a = np.array(matrices, dtype=complex)
    count, n = a.shape[:2]
    members, rows = np.arange(count), np.arange(n)
    scale = np.maximum(np.max(np.abs(a), axis=(1, 2)), 1e-300)
    smallest = np.full(count, np.inf)
    row = np.zeros(count, dtype=int)
    pivoted = np.zeros((count, n), dtype=bool)
    for col in range(n):
        # Rows above a member's next pivot row read -1, below any magnitude.
        sub = np.where(rows < row[:, None], -1.0, np.abs(a[:, :, col]))
        best = np.argmax(sub, axis=1)
        top = sub[members, best]
        take = ~(top <= pivot_tol * scale)
        if not take.any():
            continue
        np.fmin(smallest, top, out=smallest, where=take)
        swap = members[take & (best != row)]
        if swap.size:
            a[swap, row[swap]], a[swap, best[swap]] = (a[swap, best[swap]],
                                                       a[swap, row[swap]])
        pivot_rows = a[members, np.minimum(row, n - 1)]
        start = int(row[take].min()) + 1
        _rank_one_update(a[:, start:], a[:, start:, col], pivot_rows,
                         pivot_rows[:, col],
                         take[:, None] & (rows[start:] > row[:, None]))
        pivoted[:, col] = take
        row += take
    # Per member: its pivot columns in pivot order, then its free columns.
    cols = np.argsort(~pivoted, axis=1, kind="stable")
    keep = members[row < n]
    a, kept, kept_cols = a[keep], row[keep], cols[keep]
    ids = np.arange(keep.size)
    for k in range(int(kept.max(initial=0)) - 1, 0, -1):
        _rank_one_update(a[:, :k], a[ids, :k, kept_cols[:, k]], a[:, k],
                         a[ids, k, kept_cols[:, k]], (kept > k)[:, None])
    vectors = [None] * count
    for i, (member, p, c) in enumerate(zip(keep, kept, kept_cols)):
        v = vectors[member] = np.zeros((n, n - p), dtype=complex)
        v[c[p:], np.arange(n - p)] = -1.0
        v[c[:p]] = a[i, :p][:, c[p:]] / a[i, rows[:p], c[:p]][:, None]
    return [(v, list(enumerate(c[:p].tolist())), float(low), float(size))
            for v, c, p, low, size in zip(vectors, cols, row, smallest, scale)]


def _one_side(evaluated, lams, pivot_tol, left):
    """Right (or, from the transposes, left) EigenvectorBundles of a stack
    of evaluated F(lam), from one stacked elimination; the
    NotAnEigenvalueError in place of a member with no free column."""
    if not len(lams):
        return []
    if left:
        evaluated = evaluated.transpose(0, 2, 1)
    found = []
    for matrix, lam, (vectors, _, smallest, scale) in zip(
            evaluated, lams, _null_space_stack(evaluated, pivot_tol)):
        if vectors is None:
            found.append(NotAnEigenvalueError(lam, pivot_tol, smallest, scale))
            continue
        residuals = tuple(float(np.max(np.abs(matrix @ vectors[:, k])))
                          for k in range(vectors.shape[1]))
        sides = ((None, vectors, (), residuals) if left
                 else (vectors, None, residuals, ()))
        found.append(EigenvectorBundle(complex(lam), vectors.shape[1],
                                       *sides))
    return found


def eigenvectors_all(pm, lams, pivot_tol=DEFAULT_PIVOT_TOL):
    """Right and left eigenvectors of F at every value in lams: one stacked
    elimination of the F(lam), then one of the F(lam) transposed where the
    right side found a free column. Returns per value the pair of
    EigenvectorBundles (right, left), or the NotAnEigenvalueError of the
    side that found none."""
    evaluated = np.array([eval_matrix(pm, lam) for lam in lams])
    found = _one_side(evaluated, lams, pivot_tol, left=False)
    right = [i for i, b in enumerate(found)
             if isinstance(b, EigenvectorBundle)]
    lefts = _one_side(evaluated[right], [lams[i] for i in right], pivot_tol,
                      left=True)
    for i, left in zip(right, lefts):
        found[i] = ((found[i], left) if isinstance(left, EigenvectorBundle)
                    else left)
    return found


def _batch_of_one(pm, lam, pivot_tol, left):
    found, = _one_side(eval_matrix(pm, lam)[None], [lam], pivot_tol, left)
    if isinstance(found, NotAnEigenvalueError):
        raise found
    return found


def extract_eigenvectors(pm, lam, pivot_tol=DEFAULT_PIVOT_TOL):
    """Right eigenvectors of F at lam with rank-deficiency detection."""
    return _batch_of_one(pm, lam, pivot_tol, left=False)


def left_eigenvectors(pm, lam, pivot_tol=DEFAULT_PIVOT_TOL):
    """Left eigenvectors: the same extraction on F(lam) transposed."""
    return _batch_of_one(pm, lam, pivot_tol, left=True)
