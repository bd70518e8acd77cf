"""Polynomial matrices: evaluation, linearisation, determinants, seeds,
ranks, eigenvectors.

F(lambda) = sum A_i lambda**i with n x n complex coefficient matrices,
evaluated at a whole stack of values by one Horner pass that runs in
place in one buffer. With a regular leading matrix, F's eigenvalues and
both-sided eigenvectors come from one ``np.linalg.eig`` of its block
companion linearisation, and each value's backward error on F and its
attainable radius from rho + 1 products A_i X, with no det F and no
F(lambda) formed (:func:`linearisation_eigenpairs`); that is the
eigenvalue solve of Pade from companion seeds. Every other matrix solve
refines the roots of det F, the characteristic polynomial, recovered by
sampling determinants on a circle and solving the interpolation system
on roots of unity; a singular leading matrix simply drops the effective
degree. For a real F det F is real: only the real parts of its
coefficients are kept, with no threshold. A root of det F is an
eigenvalue when the singular values of F there within SINGULAR_REL of S
= sum |lambda|**i ||A_i||_2, the scale of its backward error, are at
least one; one SVD without vectors counts them for a whole list.
Eigenvectors take one more, full SVD of the accepted values. Each value
reads its rank, vectors and residuals from its own F(lambda) and its own
slice of those SVDs, so it gets the bits it gets alone.
SINGULAR_REL is one fixed relative threshold; it stays until no solve
refines on det F, whose roots carry its interpolation noise, so that a
bound derived from rounding errors can replace it.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CompanionMatrixError,
    NotAnEigenvalueError,
    ProblemFormatError,
    SampleConditioningError,
)
from .explore import companion_seed_all
from .poly import UNIT_ROUNDOFF, Polynomial, effective_degree

SINGULAR_REL = 1e-6
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
        return not any(a.imag.any() for a in self.coefficient_matrices)


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
    if not n:
        raise ProblemFormatError("coefficient matrices have order 0")
    # |det A_rho| against the Hadamard bound, the product of its column
    # norms, compared in logarithms: the product itself under- or overflows
    # for leads such as 1e-20 * I or 1e20 * I at n = 20. hypot sums the
    # squares without overflowing them.
    lead = arrays[-1]
    col_norms = np.hypot.reduce(np.abs(lead), axis=0)
    with np.errstate(divide="ignore"):  # a zero column gives log 0 = -inf
        log_hadamard = float(np.sum(np.log(col_norms)))
    log_det = float(np.linalg.slogdet(lead)[1])
    regular = log_det > math.log(LEADING_REGULARITY_REL) + log_hadamard
    return PolynomialMatrix(tuple(arrays), n, len(arrays) - 1, regular)


def eval_matrix(pm, lam):
    """Matrix Horner evaluation of F at lam, or at every value of a
    sequence lam in one broadcast pass, stacked (len(lam), n, n); each
    member gets the bits of its own evaluation.

    The recurrence runs in place in one buffer: acc = A_rho * lam, then
    acc += A_i and acc *= lam for i = rho-1..1, and acc += A_0. These are
    the multiplies and adds of acc = acc * lam + A_i, so every entry keeps
    its bits, and no stack-sized temporary is made per degree. The one
    exception is a one-element acc (a 1 x 1 F at one value): numpy
    multiplies it in place in a scalar loop, which rounds unlike the
    vector loop of acc * lam, so it keeps the out-of-place product."""
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    matrices = pm.coefficient_matrices
    acc = matrices[-1] * lam
    for a in reversed(matrices[1:-1]):
        acc += a
        if acc.size > 1:
            acc *= lam
        else:
            acc = acc * lam
    acc += matrices[0]
    return acc


def characteristic_polynomial(pm):
    """det F(lambda) as a polynomial, via determinant interpolation.

    Determinants are sampled at m+1 nodes R*exp(-2*pi*i*s/(m+1)), with
    m = rho*n and R one plus the largest coefficient entry, in one stacked
    determinant call over F at every node (:func:`eval_matrix`); the
    coefficients fall out of the inverse DFT of the samples, scaled back by
    R**-j. For a real F (``pm.is_real()``) det F has real coefficients, so
    the imaginary parts of the interpolated ones are interpolation noise
    and only the real parts are kept, whatever their size. Trailing
    coefficients are trimmed by :func:`effective_degree`, so the returned
    degree is the effective one.
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
    nodes = [sample_radius * cmath.exp(-2j * math.pi * s / count)
             for s in range(count)]
    dets = np.linalg.det(eval_matrix(pm, nodes))
    if not np.all(np.isfinite(dets)):
        raise SampleConditioningError(
            "non-finite determinant samples at radius %g" % sample_radius
        )
    scaled = np.fft.ifft(dets)
    powers = sample_radius ** np.arange(count, dtype=float)
    coeffs = scaled / powers
    if pm.is_real():
        coeffs = coeffs.real
    top = float(np.max(np.abs(coeffs)))
    if top == 0.0:
        raise SampleConditioningError(
            "all determinant samples vanished; F is singular for every "
            "lambda (nonregular matrix polynomial)"
        )
    poly = Polynomial(tuple(coeffs))
    return effective_degree(poly)


def norm_scales(pm, moduli):
    """sum |lambda|**i ||A_i||_2 at each |lambda| in the array ``moduli``,
    in Horner's rule: the scale of F's backward errors (Tisseur 2000,
    LAA 309), :func:`poly.coefficient_scale` for n = 1."""
    norms = np.linalg.svd(np.array(pm.coefficient_matrices),
                          compute_uv=False)[:, 0]
    scales = norms[-1]
    for norm in norms[-2::-1]:
        scales = scales * moduli + norm
    return scales


def linearisation_eigenpairs(pm):
    """(values, residuals, radii): F's rho*n eigenvalues from one
    ``np.linalg.eig`` of its block companion linearisation, ordered by
    (re, im), with each one's backward error on F and its attainable
    radius, as lists. Needs a regular A_rho.

    The companion C holds identity blocks above its diagonal and
    -A_rho^-1 [A_0 ... A_rho-1] as its last block row, the form of
    ``perfbench/oracle.py``; a real F keeps it real, so real LAPACK gives
    complex values in exact conjugate pairs. C z = lambda z holds exactly
    when z = [x; lambda x; ...; lambda**(rho-1) x] with A_rho^-1
    F(lambda) x = 0: the right vector x_k is the first block of column k
    of the eigenvector matrix Z. Row k of Z^-1 is a left eigenvector
    [w_1^H ... w_rho^H] of C, and its block columns read w_rho^H B_0 =
    -lambda w_1^H and w_{j-1}^H - w_rho^H B_{j-1} = lambda w_j^H, with
    B_i = A_rho^-1 A_i; multiplying the j-th by lambda**(j-1) and summing
    telescopes to w_rho^H A_rho^-1 F(lambda) = 0. So y_k^H = w^H
    A_rho^-1, with w^H the last block of row k of Z^-1.

    F(lambda_k) x_k = sum lambda_k**i (A_i X)_k and y_k^H F'(lambda_k)
    x_k = sum i lambda_k**(i-1) y_k^H (A_i X)_k take the rho + 1
    products A_i X in one stacked BLAS-3 product and a Horner pass over
    the values; no F(lambda) is formed. The residual is Tisseur's
    backward error eta = ||F(lambda) x|| / (S ||x||), S = sum
    |lambda|**i ||A_i||_2 (:func:`norm_scales`): (lambda, x) is an exact
    eigenpair of F + dF with ||dA_i|| <= eta ||A_i||, and for n = 1 eta
    is :func:`poly.relative_residual`. The radius is (u + eta) S ||x||
    ||y|| / |y^H F'(lambda) x|, the first-order reach of the eigenvalue
    under perturbations of every A_i within u + eta relative (its
    condition number times u + eta), :func:`refine.root_radii` at
    nu = 1 for n = 1. Where S is 0 (lambda = 0 with A_0 = 0) F(lambda)
    is 0, so lambda is an exact eigenvalue: eta and the radius are 0.

    A caller certifies an eigenvalue when eta <= gamma_{4m+1}, m = rho n
    (:func:`poly.degree_error_bound`, the floor every root of det F
    passes): it is then an exact eigenvalue of F + dF with ||dA_i||_2 <=
    gamma_{4m+1} ||A_i||_2. Eigenpairs of the companion linearisation
    have eta near u when F is well scaled (Higham, Li & Tisseur 2007,
    SIMAX 29). A linearisation that is not finite (A_rho^-1 overflows),
    an ``eig`` that does not converge and an eigenvector matrix that is
    exactly singular raise CompanionMatrixError.
    """
    n, rho = pm.order, pm.degree
    m = n * rho
    matrices = pm.coefficient_matrices
    if pm.is_real():
        matrices = [a.real for a in matrices]
    with np.errstate(all="ignore"):
        lead_inv = np.linalg.inv(matrices[-1])
        companion = np.eye(m, k=n, dtype=lead_inv.dtype)
        companion[-n:] = -(lead_inv @ np.hstack(matrices[:-1]))
    if not np.isfinite(companion).all():
        raise CompanionMatrixError(
            "linearisation is not finite: A_rho^-1 overflows")
    try:
        values, z = np.linalg.eig(companion)
        order = np.lexsort((values.imag, values.real))
        values, z = values[order].astype(complex), z[:, order]
        left = np.linalg.solve(z, np.eye(m)[:, -n:]) @ lead_inv
    except np.linalg.LinAlgError as exc:
        raise CompanionMatrixError("linearisation: %s" % exc) from exc
    with np.errstate(all="ignore"):
        # eta and the radius do not change with the scales of x and y, so
        # neither norm need overflow or underflow: x_k is divided by its
        # entry of largest modulus, which is then exactly 1 (for n = 1 the
        # products A_i x are the coefficients), and y_k by its largest
        # modulus.
        columns = np.arange(m)
        largest = np.argmax(np.abs(z[:n]), axis=0)
        x = z[:n] / z[largest, columns]
        x[largest, columns] = 1.0
        left /= np.max(np.abs(left), axis=1, keepdims=True)
        products = (np.vstack(matrices) @ x).reshape(rho + 1, n, m)
        fx, dfx = products[rho], 0.0
        for p in products[-2::-1]:
            dfx = dfx * values + fx
            fx = fx * values + p
        scales = norm_scales(pm, np.abs(values))
        x_norms = np.linalg.norm(x, axis=0)
        residuals = np.linalg.norm(fx, axis=0) / (scales * x_norms)
        radii = ((UNIT_ROUNDOFF + residuals) * scales * x_norms
                 * np.linalg.norm(left, axis=1)
                 / np.abs(np.einsum("kj,jk->k", left, dfx)))
    exact = scales == 0
    residuals[exact] = radii[exact] = 0.0
    return values.tolist(), residuals.tolist(), radii.tolist()


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
    """Null-space data of F at one eigenvalue: its rank deficiency r
    (:func:`singular_ranks_all`), n x r arrays of unit 2-norm columns with
    F(lambda) x ~ 0 and y^T F(lambda) ~ 0 (one side is None from the
    one-sided wrappers), and the infinity norm of F(lambda) x (or y^T F)
    per column."""

    eigenvalue: complex
    rank_deficiency: int
    right_vectors: object
    left_vectors: object
    right_residuals: tuple = ()
    left_residuals: tuple = ()


def _ranked(pm, lams):
    """(matrices, ranks, found, etas) behind :func:`singular_ranks_all`,
    etas holding each value's eta."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = eval_matrix(pm, lams)
        scales = norm_scales(pm, np.abs(lams))
    finite = np.isfinite(scales) & np.isfinite(matrices).all(axis=(1, 2))
    sigma = np.full((len(lams), pm.order), np.nan)
    sigma[finite] = np.linalg.svd(matrices[finite], compute_uv=False)
    with np.errstate(invalid="ignore", divide="ignore"):
        relative = np.where(scales[:, None] > 0, sigma / scales[:, None], 0.0)
    ranks = np.sum(relative <= SINGULAR_REL, axis=1)
    etas = relative[:, -1]
    found = [int(rank) if rank else
             NotAnEigenvalueError(lam, eta, SINGULAR_REL)
             for lam, eta, rank in zip(lams, etas, ranks)]
    return matrices, ranks, found, etas


def singular_ranks_all(pm, lams):
    """Per value in lams, the rank deficiency of F there, the count of
    singular values at most SINGULAR_REL * S, S = sum |lambda|**i
    ||A_i||_2 (:func:`norm_scales`), or the NotAnEigenvalueError naming
    eta = sigma_min(F(lambda)) / S, the least backward error of an
    eigenpair at lambda (Tisseur 2000, LAA 309), NaN where F(lambda) or S
    is not finite. Where S is 0 (lambda = 0, A_0 = 0) F is 0: eta is 0 and
    the rank n. One Horner pass gives F and one SVD without vectors the
    singular values, each value's from its own F(lambda)."""
    return _ranked(pm, [complex(lam) for lam in lams])[2]


def rank_residuals_all(pm, lams):
    """Per value in lams, (eta, found): the eta and the rank deficiency or
    error of :func:`singular_ranks_all`, from its one SVD without
    vectors."""
    found, etas = _ranked(pm, [complex(lam) for lam in lams])[2:]
    return list(zip(etas.tolist(), found))


def eigenvectors_all(pm, lams):
    """Per value in lams, its EigenvectorBundle or the
    NotAnEigenvalueError of :func:`singular_ranks_all`. One full SVD of
    the accepted members gives the vectors, each value's from its own
    slice: the conjugated trailing rows of V^H on the right and the
    conjugated trailing columns of U on the left. The residuals are
    max |F(lambda) x| and max |F(lambda)^T y| from its own F(lambda)."""
    lams = [complex(lam) for lam in lams]
    matrices, ranks, found, _ = _ranked(pm, lams)
    accepted = np.flatnonzero(ranks > 0)
    u, _, vh = np.linalg.svd(matrices[accepted])
    for k, i in enumerate(accepted.tolist()):
        r = int(ranks[i])
        x, y = vh[k, -r:].conj().T, u[k, :, -r:].conj()
        found[i] = EigenvectorBundle(
            lams[i], r, x, y,
            tuple(np.max(np.abs(matrices[i] @ x), axis=0).tolist()),
            tuple(np.max(np.abs(matrices[i].T @ y), axis=0).tolist()))
    return found


def _one(pm, lam):
    found = eigenvectors_all(pm, [lam])[0]
    if isinstance(found, NotAnEigenvalueError):
        raise found
    return found


def extract_eigenvectors(pm, lam):
    """Right eigenvectors of F at lam with rank-deficiency detection."""
    return replace(_one(pm, lam), left_vectors=None, left_residuals=())


def left_eigenvectors(pm, lam):
    """Left eigenvectors y of F at lam, y^T F(lam) ~ 0."""
    return replace(_one(pm, lam), right_vectors=None, right_residuals=())
