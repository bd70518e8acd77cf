"""End-to-end run on a polynomial with two multiple roots.

The target is the degree-6 polynomial

    f(l) = 4 + 12 l + 9 l^2 - 4 l^3 - 6 l^4 + l^6
         = (l - 2)^2 (l + 1)^4,

so the right answer is a double root at 2 and a quadruple root at -1.
The pipeline walks the real axis from -B to B in steps of delta, B
being Fujiwara's root bound. The Pade function p = f / (-f') falls
through every real root, so each downward sign change of p becomes a
regula-falsi seed (a grid point that is itself a root is a seed as it
stands), and the fixed-point probe family classifies each seed's
multiplicity.
"""

import numpy as np

from polyzeros import (
    Algorithm,
    Polynomial,
    ProblemSpec,
    SeedSource,
    run_pipeline,
    scan_sign_changes,
)

F = Polynomial((4.0, 12.0, 9.0, -4.0, -6.0, 0.0, 1.0))
DELTA = 0.3


def show_scan():
    """Print the downward sign changes of p and the seeds they give."""
    report = scan_sign_changes(F, DELTA)
    print("scan of [%g, %g]: %d downward sign change(s)"
          % (report.samples[0][0], report.samples[-1][0],
             len(report.brackets)))
    for bracket in report.brackets:
        print("  p falls through 0 on (%g, %g)"
              % (bracket.lam_lo, bracket.lam_hi))
    for seed in report.seeds:
        print("  regula-falsi seed %.6f" % seed.real)


def solve():
    spec = ProblemSpec(
        polynomial=F,
        seed_source=SeedSource.EXPLORE,
        algorithm=Algorithm.DETECT,
        delta=DELTA,
    )
    report = run_pipeline(spec)
    print("\nroots (value, multiplicity, residual):")
    for record in report.roots:
        print("  %+.15f  nu=%d  residual %.2e"
              % (record.value.real, record.multiplicity, record.residual))
    print("multiplicity sum %d == effective degree %d: %s"
          % (report.multiplicity_sum, report.effective_degree,
             report.conserved))
    assert report.conserved
    assert np.allclose(
        sorted(r.value.real for r in report.roots), [-1.0, 2.0], atol=1e-12
    )


if __name__ == "__main__":
    show_scan()
    solve()
