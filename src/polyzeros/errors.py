"""Exception types raised by the polyzeros library."""


class PolyzerosError(Exception):
    """Base class for every error raised by this package."""


class ZeroPolynomialError(PolyzerosError):
    """An operation received an identically zero (empty) polynomial."""


class DerivativeUnderflowError(PolyzerosError):
    """f'(lambda) is exactly 0, so the quotient f/(-f') is undefined. The
    caller should perturb lambda."""


class HalleyDenominatorError(PolyzerosError):
    """The Halley denominator 1 + p(lambda) q(lambda) vanished."""


class OriginSeedError(PolyzerosError):
    """A test-polynomial iteration was seeded at the origin, where the
    lambda factor in the step makes zero a spurious fixed point. Shift the
    polynomial by lambda -> lambda + c and retry."""


class ProbeOverflowError(PolyzerosError):
    """A test polynomial f_k has a coefficient a_j (1 - j)**k beyond the
    float range, so no probe of order k or higher can run."""


class NoMultiplicityError(PolyzerosError):
    """No zero count and probe settled a root, from the seed or from where
    the nu = 1 probe walked from it; the seed is too far from a root."""


class FlatSecantError(PolyzerosError):
    """The secant slope between the bracket endpoints is zero."""


class RealScanError(PolyzerosError):
    """A real-axis scan was requested for a polynomial with genuinely
    complex coefficients."""


class InterpolationValueError(PolyzerosError):
    """Interpolation values collided or clustered below the separation
    threshold.

    Attributes
    ----------
    indices : tuple of int
        Offending row indices.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class EvolutionCollisionError(InterpolationValueError):
    """Main values collided during an evolution step; the roots are
    clustered and multiplicity probing should be used instead."""


class RayleighDenominatorError(PolyzerosError):
    """S_2(lambda) vanished in a list iteration."""


class NotAnEigenvalueError(PolyzerosError):
    """F(lam) is not singular to the eigenvector threshold: its backward
    error eta = sigma_min(F(lam)) / sum |lam|**i ||A_i||_2 exceeds
    singular_rel, so the value passed to eigenvector extraction is not an
    eigenvalue.

    Attributes
    ----------
    lam : complex
        The value F was evaluated at.
    eta : float
        The backward error; NaN when F(lam) or its scale is not finite.
    """

    def __init__(self, lam, eta, singular_rel):
        lam = complex(lam)
        super().__init__("%r is not an eigenvalue: backward error %.3g "
                         "exceeds %g" % (lam, eta, singular_rel))
        self.lam = lam
        self.eta = float(eta)


class CompanionMatrixError(PolyzerosError):
    """The companion matrix of a polynomial is not finite: dividing by the
    leading coefficient overflowed."""


class SampleConditioningError(PolyzerosError):
    """Determinant samples are unusable (non-finite or badly scaled)."""


class ProblemFormatError(PolyzerosError):
    """A problem file failed to parse or carried inconsistent dimensions."""
