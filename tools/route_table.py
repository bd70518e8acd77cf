"""Grade every matrix route on random monic quadratics, by order band.

    python3 tools/route_table.py

Run from the repository root; the package is imported from ./src and the
grader from perfbench/oracle.py, which uses numpy only. The problems are
F(lambda) = A_0 + lambda A_1 + lambda**2 I with A_0 and A_1 standard
normal from ``default_rng([n, rep])``, three reps at each order n = 3, 5,
8, 10, 12, 16, 20 and 30. Each is solved by run_pipeline under every
route below, and its report is graded by ``oracle.grade`` against the
eigenvalues of F's companion linearisation (``oracle.matrix_oracle``).

The table gives, per route and per band (n <= 12, n >= 16), the reports
that do not pass (``all_residuals_pass`` false), the reports the oracle
fails, and the false passes: reports that pass although the oracle fails
them. The exit status is 1 when any report passes falsely, else 0.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402
import polyzeros as pz  # noqa: E402

ORDERS = (3, 5, 8, 10, 12, 16, 20, 30)
REPS = 3
BANDS = (("n <= 12", lambda n: n <= 12), ("n >= 16", lambda n: n >= 16))
# (seed source, algorithm, ecp phase)
ROUTES = (
    ("companion", "pade", False),
    ("companion", "pade", True),
    ("companion", "halley", False),
    ("companion", "detect", False),
    ("companion", "rayleigh", False),
    ("companion", "reduced", False),
    ("diagonal", "detect", False),
    ("diagonal", "pade", False),
)


def problems():
    """(n, matrices, oracle) per problem, by order, then rep."""
    for n in ORDERS:
        for rep in range(REPS):
            rng = np.random.default_rng([n, rep])
            matrices = [rng.standard_normal((n, n)),
                        rng.standard_normal((n, n)), np.eye(n)]
            yield n, matrices, oracle.matrix_oracle(matrices)


def main():
    banded = {band: [] for band, _ in BANDS}
    for n, matrices, truth in problems():
        band = next(band for band, member in BANDS if member(n))
        banded[band].append((pz.polynomial_matrix(matrices), truth))
    header = ["route"] + ["%s %s" % (what, band) for band, _ in BANDS
                          for what in ("not passing", "failed", "false")]
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    false_passes = 0
    for source, algorithm, ecp in ROUTES:
        cells = ["%s + %s%s" % (source, algorithm, " + ecp" if ecp else "")]
        for band, _ in BANDS:
            counts = [0, 0, 0]
            for matrix, truth in banded[band]:
                report = pz.run_pipeline(pz.ProblemSpec(
                    matrix=matrix, seed_source=pz.SeedSource(source),
                    algorithm=pz.Algorithm(algorithm), ecp=ecp))
                verdict = oracle.grade(
                    truth, [(r.value, r.multiplicity) for r in report.roots],
                    report.all_residuals_pass)
                counts[0] += not report.all_residuals_pass
                counts[1] += verdict.failed
                counts[2] += verdict.false_pass
            false_passes += counts[2]
            cells += ["%d of %d" % (count, len(banded[band]))
                      for count in counts]
        print("| " + " | ".join(cells) + " |")
    print("false passes: %d" % false_passes)
    return 1 if false_passes else 0


if __name__ == "__main__":
    sys.exit(main())
