"""End-to-end run on a polynomial with two multiple roots.

The target is the degree-6 polynomial

    f(l) = 4 + 12 l + 9 l^2 - 4 l^3 - 6 l^4 + l^6
         = (l - 2)^2 (l + 1)^4,

so the right answer is a double root at 2 and a quadruple root at -1.
The pipeline walks the positive real axis in steps of delta, walks the
reflected polynomial f(-l) the same way to cover the negative axis,
turns every sign change of the Pade function p = f / (-f') into a
regula-falsi seed, and classifies each seed's multiplicity with the
fixed-point probe family.
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
    """Print the sign-change brackets of both axis sweeps."""
    for co in (False, True):
        report = scan_sign_changes(F, DELTA, co=co)
        axis = "negative" if co else "positive"
        print("%s-axis sweep: %d sign change(s)"
              % (axis, len(report.brackets)))
        for bracket in report.brackets:
            lo, hi = bracket.lam_lo, bracket.lam_hi
            if co:
                lo, hi = -hi, -lo
            print("  p changes sign on (%g, %g)" % (lo, hi))
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
