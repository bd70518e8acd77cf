"""Eigenvalues and eigenvectors of a quadratic matrix polynomial.

The problem is F(l) x = 0 with F(l) = A_0 + l A_1 + l^2 A_2 for a sparse
5x5 system with dominant diagonal. The route to the spectrum:

1. recover the characteristic polynomial det F by sampling det F(l) at
   scaled roots of unity and inverting the FFT (F is real, so only the
   real parts of the coefficients are kept),
2. take the roots of the diagonal entry polynomials as starting values
   (for a dominant diagonal they land near the true eigenvalues),
3. refine each starting value with the Pade iteration on det F,
4. take the right and left null vectors of F at every eigenvalue with
   eigenvectors_all: one SVD without vectors of the stack
   F(l_1), ..., F(l_m) decides the eigenvalues and their ranks (all that
   polyzeros solve runs), one full SVD of the accepted ones the vectors.

Two numerical realities show up on the way. Distinct diagonal seeds can
fall into the same basin, so the refined values are deduplicated and any
shortfall against the polynomial degree is covered by the simultaneous
all-roots seeder. And the recovered coefficients carry interpolation
noise of about 1e-9 relative, which the more sensitive eigenvalues
amplify to 1e-7 level. So a value counts as an eigenvalue when its
backward error on F, sigma_min(F(l)) / sum |l|^i ||A_i||_2, is at most
SINGULAR_REL = 1e-6, one fixed threshold; the unit-norm vectors' printed
residuals state the resulting quality directly against F.
"""

import numpy as np

from polyzeros import (
    characteristic_polynomial,
    companion_seed_all,
    diagonal_seeds,
    eigenvectors_all,
    eval_matrix,
    iterate_pade,
    polynomial_matrix,
)

A0 = (
    (5, -1, 0, 0, 0),
    (-1, 9, -3, -2, 0),
    (0, -3, 6, -2, 0),
    (0, -2, -2, 12, -5),
    (0, 0, 0, -5, 8),
)
A1 = (
    (2, 0, 0, 0, 0),
    (0, 3, 0, 0, 0),
    (0, 0, 0, 0, 0),
    (0, 0, 0, 1, -1),
    (0, 0, 0, -1, 4),
)
A2 = (
    (3, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 4),
)

def _key(z):
    return (round(z.real, 6), round(z.imag, 6))


def refine_all(f, seeds):
    """Pade-refine every seed and keep the distinct landing points."""
    found = {}
    for seed in seeds:
        trace = iterate_pade(f, seed)
        found.setdefault(_key(trace.final), trace.final)
    return found


def main():
    pm = polynomial_matrix([A0, A1, A2])
    print("order %d, degree %d, nominal char degree %d"
          % (pm.order, pm.degree, pm.nominal_char_degree))

    f = characteristic_polynomial(pm)
    print("characteristic coefficients (ascending):")
    print("  " + ", ".join("%.6g" % c.real for c in f.coeffs))

    seeds = diagonal_seeds(pm)
    found = refine_all(f, seeds.values)
    print("\n%d diagonal starting values -> %d distinct eigenvalues"
          % (len(seeds.values), len(found)))

    if len(found) < f.degree:
        backfill = refine_all(f, companion_seed_all(f, real=True).values)
        for key, lam in backfill.items():
            found.setdefault(key, lam)
        print("all-roots seeder closes the gap: %d of %d"
              % (len(found), f.degree))
    assert len(found) == f.degree

    print("\neigenvalues (upper half plane), backward errors on F and "
          "eigenvector residuals:")
    eigenvalues = [lam for lam in sorted(found.values(), key=_key)
                   if lam.imag > 0]
    norms = [np.linalg.norm(a, 2) for a in pm.coefficient_matrices]
    for lam, bundle in zip(eigenvalues, eigenvectors_all(pm, eigenvalues)):
        matrix = eval_matrix(pm, lam)
        sigma = np.linalg.svd(matrix, compute_uv=False)
        terms = sum(norm * abs(lam) ** i for i, norm in enumerate(norms))
        print("  %+.9f%+.9fi  backward error %.1e  rank %d  right %.1e  "
              "left %.1e" % (lam.real, lam.imag, sigma[-1] / terms,
                             bundle.rank_deficiency,
                             max(bundle.right_residuals),
                             max(bundle.left_residuals)))
        x = bundle.right_vectors[:, 0]
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        scale = 1.0 + float(np.max(np.abs(matrix)))
        assert np.linalg.norm(matrix @ x, np.inf) <= 1e-4 * scale

    print("the lower half plane holds the conjugates (real matrices)")


if __name__ == "__main__":
    main()
