"""Seeded problem generators for the four benchmark workloads.

Every problem is a CLI problem file (a JSON-ready dict, complex numbers as
[re, im] pairs) plus the oracle that grades its report. The same seed
always gives the same problems. Why each workload exists, and which layer
it stresses, is written down in README.md next to this file.
"""

from dataclasses import dataclass

import numpy as np

from oracle import matrix_oracle, np_roots_oracle, scalar_oracle

WORKLOADS = ("simple-roots", "multiple-roots", "real-scan", "matrix-eig")

# Degree ladder of the random complex polynomials (ROADMAP aim 1): 144
# degrees spread evenly from 20 to 100.
SIMPLE_DEGREES = tuple(int(round(d)) for d in np.linspace(20, 100, 144))
# Relative size of the noise on the "coarse external solver" seeds.
EXTERNAL_SEED_NOISE = 1e-3
MULTIPLE_COUNT = 120
MULTIPLE_DEGREES = (6, 7, 8, 9, 10)
RANDOM_DETECT_COUNT = 28
RANDOM_DETECT_DEGREES = (8, 9, 10, 11, 12, 13, 14)
REAL_COUNT = 100
REAL_DEGREES = (3, 4, 5, 6, 7, 8, 9)
# Distinct real roots sit one per equal slot of [-REAL_ROOT_RANGE,
# REAL_ROOT_RANGE], jittered within the slot. This keeps the Cauchy bound,
# and with it the scan length, from swinging by orders of magnitude between
# seeds, and keeps roots at least 0.33 (over three default scan steps)
# apart: a delta-scan cannot tell apart roots that share one step, which is
# the method's stated resolution rather than a defect.
REAL_ROOT_RANGE = 3.0
REAL_JITTER = 0.25
MATRIX_PER_ORDER = 6
# Every order up to 16, where the pipeline still finds eigenvalues, then
# a sparser tail to n = 40.
MATRIX_ORDERS = tuple(range(3, 17)) + (20, 25, 30, 35, 40)

# The README sextic: double root at 2, quadruple root at -1.
SEXTIC = (4.0, 12.0, 9.0, -4.0, -6.0, 0.0, 1.0)
# The paper's sparse 5x5 quadratic matrix polynomial, A_0, A_1, A_2.
SPARSE_PENTA = (
    ((5, -1, 0, 0, 0), (-1, 9, -3, -2, 0), (0, -3, 6, -2, 0),
     (0, -2, -2, 12, -5), (0, 0, 0, -5, 8)),
    ((2, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 0, 0, 0),
     (0, 0, 0, 1, -1), (0, 0, 0, -1, 4)),
    ((3, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
     (0, 0, 0, 1, 0), (0, 0, 0, 0, 4)),
)


@dataclass(frozen=True)
class Problem:
    name: str
    mix: str
    file: dict
    oracle: object


def pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _poly_file(coeffs, **options):
    return {"kind": "polynomial",
            "coefficients": [pair(c) for c in coeffs], **options}


def _matrix_file(matrices, **options):
    return {"kind": "matrix",
            "matrices": [[[pair(x) for x in row] for row in a]
                         for a in matrices],
            **options}


def _from_roots(roots, mult):
    """Ascending coefficients and oracle of prod (x - r)^nu."""
    coeffs = np.poly(np.repeat(roots, mult))[::-1]
    return coeffs, scalar_oracle(roots, mult, coeffs)


def _wilkinson(n):
    return _from_roots(np.arange(1.0, n + 1.0), np.ones(n, dtype=int))


def _complex_gaussian(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def simple_roots(rng):
    """Random complex polynomials spread evenly over the degree ladder.

    Degrees step through SIMPLE_DEGREES one by one so that time percentiles
    do not sit on the gap between two degree clusters; the traffic mix
    repeats every eight problems.
    """
    companion = {"seed_source": "companion"}
    problems = []
    mixes = ("pade-ecp",) * 4 + ("halley", "external-reduced",
                                 "external-rayleigh", "companion-list")
    for k, d in enumerate(SIMPLE_DEGREES):
        coeffs = _complex_gaussian(rng, d + 1)
        oracle = np_roots_oracle(coeffs)
        mix = mixes[k % len(mixes)]
        if mix == "pade-ecp":
            options = dict(algorithm="pade", ecp=True, **companion)
        elif mix == "halley":
            options = dict(algorithm="halley", **companion)
        elif mix == "companion-list":
            mix = "companion-" + ("reduced", "rayleigh")[k // len(mixes) % 2]
            options = dict(algorithm=mix.split("-")[1], **companion)
        else:
            noise = EXTERNAL_SEED_NOISE * _complex_gaussian(
                rng, len(oracle.roots)) / np.sqrt(2.0)
            options = dict(algorithm=mix.split("-")[1],
                           seeds=[pair(s) for s in oracle.roots * (1 + noise)])
        problems.append(Problem("rand-d%d-%d" % (d, k), mix,
                                _poly_file(coeffs, **options), oracle))
    for n in (10, 15, 20):
        coeffs, oracle = _wilkinson(n)
        problems.append(Problem(
            "wilkinson-%d" % n, "pade-ecp",
            _poly_file(coeffs, algorithm="pade", ecp=True, **companion),
            oracle))
    return problems


def _partitions(degree, largest):
    """Every multiplicity pattern (parts 1..largest) summing to degree."""
    if degree == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(largest, degree), 0, -1)
            for rest in _partitions(degree - first, first)]


def _multiplicities(rng, k, degrees, largest):
    """Slot k's multiplicity pattern, in random root order.

    Slots walk through the degrees and, per degree, through every pattern
    in turn, so each seed draws the same mix of patterns and only the
    roots change.
    """
    degree = degrees[k % len(degrees)]
    patterns = _partitions(degree, largest)
    return rng.permutation(patterns[k // len(degrees) % len(patterns)])


def multiple_roots(rng):
    problems = []
    for k in range(MULTIPLE_COUNT):
        mult = _multiplicities(rng, k, MULTIPLE_DEGREES, 4)
        coeffs, oracle = _from_roots(_complex_gaussian(rng, len(mult)), mult)
        problems.append(Problem(
            "mult-d%d-%d" % (mult.sum(), k), "known-multiple",
            _poly_file(coeffs, seed_source="companion"), oracle))
    for k in range(RANDOM_DETECT_COUNT):
        degree = RANDOM_DETECT_DEGREES[k % len(RANDOM_DETECT_DEGREES)]
        coeffs = _complex_gaussian(rng, degree + 1)
        problems.append(Problem(
            "rand-d%d-%d" % (degree, k), "random-detect",
            _poly_file(coeffs, seed_source="companion"),
            np_roots_oracle(coeffs)))
    return problems


def real_scan(rng):
    problems = []
    for k in range(REAL_COUNT):
        mult = _multiplicities(rng, k, REAL_DEGREES, 3)
        spacing = 2.0 * REAL_ROOT_RANGE / len(mult)
        slots = np.arange(len(mult)) + 0.5 + rng.uniform(
            -REAL_JITTER, REAL_JITTER, len(mult))
        roots = spacing * slots - REAL_ROOT_RANGE
        coeffs, oracle = _from_roots(roots, mult)
        problems.append(Problem(
            "real-d%d-%d" % (mult.sum(), k), "explore-detect",
            _poly_file(coeffs.real), oracle))
    sextic_roots, sextic_mult = np.array([2.0, -1.0]), np.array([2, 4])
    for delta in (0.1, 0.3):
        problems.append(Problem(
            "sextic-delta%g" % delta, "explore-detect",
            _poly_file(SEXTIC, delta=delta),
            scalar_oracle(sextic_roots, sextic_mult, SEXTIC)))
    coeffs, oracle = _wilkinson(10)
    problems.append(Problem(
        "wilkinson-10", "explore-detect", _poly_file(coeffs.real), oracle))
    return problems


def matrix_eig(rng):
    problems = []
    for n in MATRIX_ORDERS:
        for k in range(MATRIX_PER_ORDER):
            matrices = [rng.standard_normal((n, n)),
                        rng.standard_normal((n, n)), np.eye(n)]
            problems.append(Problem(
                "quad-n%d-%d" % (n, k), "companion-pade",
                _matrix_file(matrices, seed_source="companion",
                             algorithm="pade"),
                matrix_oracle(matrices)))
    problems.append(Problem(
        "sparse-penta", "diagonal-pade",
        _matrix_file(SPARSE_PENTA, seed_source="diagonal", algorithm="pade"),
        matrix_oracle(SPARSE_PENTA)))
    return problems


GENERATORS = {
    "simple-roots": simple_roots,
    "multiple-roots": multiple_roots,
    "real-scan": real_scan,
    "matrix-eig": matrix_eig,
}


def generate(workload, seed):
    """The problem list of one workload for one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng)
