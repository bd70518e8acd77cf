"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: direct power sums, convolution
products, cofactor expansion. None of it imports the package under test, so
agreement between the two sides is meaningful.
"""

import math
from fractions import Fraction


def eval_terms(coeffs, lam):
    """Direct power-sum evaluation, no Horner."""
    return sum(a * lam ** j for j, a in enumerate(coeffs))


def eval_derivative_terms(coeffs, lam, order):
    """Explicit falling-factorial sum for the order-th derivative."""
    total = 0j
    for j, a in enumerate(coeffs):
        if j < order:
            continue
        fall = 1
        for i in range(order):
            fall *= j - i
        total += a * fall * lam ** (j - order)
    return total


def exact_derivative(coeffs, lam, order):
    """The order-th derivative at lam in rational arithmetic, exactly, as
    a (re, im) pair of Fractions."""
    x, y = Fraction(lam.real), Fraction(lam.imag)
    re = im = Fraction(0)
    for j in range(len(coeffs) - 1, order - 1, -1):
        fall = math.prod(range(j - order + 1, j + 1))
        a = complex(coeffs[j])
        ar, ai = fall * Fraction(a.real), fall * Fraction(a.imag)
        re, im = re * x - im * y + ar, re * y + im * x + ai
    return re, im


def defect_noise(coeffs, sigmas, k):
    """(exact, bound) for row k of the interpolation list of the
    polynomial with ascending ``coeffs`` at ``sigmas``.

    ``exact`` is the defect with f(sigma_k) in rational arithmetic, over
    the floating denominator a_m prod_{j != k} (sigma_k - sigma_j)
    multiplied in row order. ``bound`` is gamma_{4m+1} sum |a_j|
    |sigma_k|**j over that denominator's modulus: how far the rounding of
    a power-matrix evaluation of f(sigma_k) can move the defect.
    """
    m = len(coeffs) - 1
    sk = complex(sigmas[k])
    denom = complex(coeffs[m])
    for j, sj in enumerate(sigmas):
        if j != k:
            denom *= sk - sj
    re, im = exact_derivative(coeffs, sk, 0)
    gamma = (4 * m + 1) * 2.0 ** -53 / (1.0 - (4 * m + 1) * 2.0 ** -53)
    scale = sum(abs(a) * abs(sk) ** j for j, a in enumerate(coeffs))
    return complex(float(re), float(im)) / denom, gamma * scale / abs(denom)


def convolve_coeffs(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def coeffs_from_roots(roots, leading=1):
    coeffs = [leading]
    for r in roots:
        coeffs = convolve_coeffs(coeffs, [-r, 1])
    return coeffs


def derivative_coeffs(coeffs):
    return [j * a for j, a in enumerate(coeffs)][1:] or [0]


def shift_up(coeffs):
    """Multiply by lambda: prepend a zero coefficient."""
    return [0] + list(coeffs)


def descend_once(coeffs):
    """One step of the derived-polynomial ladder: f - lambda*f'."""
    d = shift_up(derivative_coeffs(coeffs))
    out = []
    for j in range(max(len(coeffs), len(d))):
        a = coeffs[j] if j < len(coeffs) else 0
        b = d[j] if j < len(d) else 0
        out.append(a - b)
    return out


def poly_matrix_entries(coefficient_matrices):
    """Entry polynomials (coefficient lists) of sum A_i lambda**i."""
    n = len(coefficient_matrices[0])
    return [
        [[a[i][j] for a in coefficient_matrices] for j in range(n)]
        for i in range(n)
    ]


def poly_det_cofactor(entries):
    """Determinant of a matrix of coefficient-list polynomials.

    First-row cofactor expansion with convolution products; exponential in
    the order, fine for n <= 4.
    """
    n = len(entries)
    if n == 1:
        return list(entries[0][0])
    total = [0]
    for j in range(n):
        minor = [
            [entries[r][c] for c in range(n) if c != j]
            for r in range(1, n)
        ]
        term = convolve_coeffs(entries[0][j], poly_det_cofactor(minor))
        sign = -1 if j % 2 else 1
        width = max(len(total), len(term))
        total = [
            (total[k] if k < len(total) else 0)
            + sign * (term[k] if k < len(term) else 0)
            for k in range(width)
        ]
    return total


def two_by_two_eigs(m):
    """Eigenvalues of a 2x2 matrix from the quadratic formula."""
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = complex(tr * tr - 4 * det) ** 0.5
    return ((tr + disc) / 2, (tr - disc) / 2)


def wilkinson_coeffs(n):
    """Exact integer coefficients of (x-1)(x-2)...(x-n)."""
    return coeffs_from_roots(list(range(1, n + 1)))


def relative_error(got, want):
    scale = max(abs(want), 1.0) if abs(want) < math.inf else 1.0
    return abs(got - want) / scale
