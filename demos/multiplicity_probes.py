"""How the probe family reads off a root's multiplicity.

Near a nu-fold root the Pade function p = f / (-f') is a straight line
of slope -1/nu, so |p| alone cannot say where the root is but the local
slope says how often it occurs. The probe iteration of order k applies
the same idea to the k-th derived polynomial: started close to the
root, the probe with k equal to the true multiplicity contracts
quadratically and converges, while every smaller k creeps linearly: its
steps stop halving where f is already zero to rounding level, and the
run ends there as at-floor, not converged. The
multiplicity detector does not try the orders in turn: it counts the
zeros of f on a small circle around the seed by the argument principle,
(1/2 pi i) oint f'/f, and runs the one probe of the counted order.

The target here is a degree-10 polynomial with conjugate triple roots
at (-1 +- i sqrt(3)) / 2 and conjugate double roots at +-i. A coarse
external solver has already placed a starting value within 3e-6 of the
upper triple root.
"""

import numpy as np

from polyzeros import (
    Polynomial,
    TraceStatus,
    detect_multiplicity,
    iterate_test_nu,
    pade_eval,
)

F = Polynomial(
    (6.0, 18.0, 48.0, 78.0, 114.0, 120.0, 114.0, 78.0, 48.0, 18.0, 6.0)
)
SEED = complex(-5.000094136551562e-01, 8.660276783463672e-01)
ROOT = complex(-0.5, 8.660254037844386e-01)


def show_slope():
    """Finite-difference the Pade function across the triple root."""
    h = 1e-4
    slope = (pade_eval(F, ROOT + h) - pade_eval(F, ROOT - h)) / (2 * h)
    print("slope of p at the triple root: %.6f (expect -1/3)" % slope.real)


def show_probes():
    print("\nprobe traces from %.15f%+.15fi:" % (SEED.real, SEED.imag))
    for nu in (1, 2, 3):
        trace = iterate_test_nu(F, nu, SEED)
        steps = [abs(row.step) for row in trace.rows[1:]]
        print("  nu=%d  %d rows  last steps %s  -> %s"
              % (nu, len(trace.rows),
                 ", ".join("%.1e" % s for s in steps[-3:]),
                 trace.status.value))
        assert (trace.status is TraceStatus.CONVERGED) == (nu == 3)


def show_verdict():
    verdict = detect_multiplicity(F, SEED)
    err = abs(verdict.root - ROOT)
    print("\ndetected nu=%d at %.15f%+.15fi (error %.1e)"
          % (verdict.multiplicity, verdict.root.real, verdict.root.imag, err))
    assert verdict.multiplicity == 3
    assert err <= 1e-12
    print("zero count around the seed: %.6f%+.1ei, which rounds to nu=%d"
          % (verdict.count.real, verdict.count.imag, round(verdict.count.real)))
    np.testing.assert_equal(round(verdict.count.real), verdict.multiplicity)
    np.testing.assert_equal(list(verdict.probes), [3])


if __name__ == "__main__":
    show_slope()
    show_probes()
    show_verdict()
