"""Reference roots and the rule that grades a solve report against them.

Uses numpy only; nothing here imports the package under test, so a failure
found here is the package's failure and not the grader's.

Oracle roots come from three sources:

* problems built from known roots carry that root list with its
  multiplicities (the coefficients were expanded with ``np.poly``);
* random-coefficient problems use ``np.roots`` (all roots simple);
* matrix problems use ``np.linalg.eigvals`` of the companion linearisation
  of F(lambda) = A_0 + lambda A_1 + ... + lambda^rho A_rho.

Match rule. A reported root z identifies oracle root r (multiplicity nu)
when |z - r| <= R(r), with

    R(r) = min( sep(r) / 2,  (EPS_MATCH * S(r) / |g(r)|) ** (1 / nu) )

where sep(r) is the distance from r to the nearest other distinct oracle
root, S(r) = sum_k |a_k| |r|^k is the magnitude sum of the terms of f at r,
and g(r) = a_m * prod_{j != r} (r - r_j)^{nu_j} is f with the nu-fold
factor removed. The second term is the first-order radius of the cluster a
nu-fold root splits into when every coefficient is perturbed by a relative
EPS_MATCH: f(r + t) ~ g(r) t^nu, and a backward error of EPS_MATCH changes
f by at most EPS_MATCH * S(r). Hence the eps^(1/nu) scaling: at a backward
error of 1e-6 a well-conditioned simple root is good to ~1e-6, a double
root only to ~1e-3 and a quadruple root to ~3e-2, so a grader with one
fixed radius would either fail correct multiple roots or pass wrong simple
ones. Matrix problems use the matrix eigenvalue condition number instead
(see ``matrix_oracle``); all their eigenvalues are simple.

EPS_MATCH = 1e-6 is four orders above the package's default relative
residual tolerance (1e-10): the grader asks "is this root there", and
flags roots that are absent, spurious or wrong, not roots that are merely
a few digits short; accuracy is measured on its own by the root-error
metric. Capping at sep/2 keeps the disks disjoint, so a reported root
identifies at most one oracle root.
"""

import math

import numpy as np

EPS_MATCH = 1e-6
# Relative errors below this count as exact when taking log10.
ERROR_FLOOR = 1e-17

REASONS = (
    "raised",
    "deadline",
    "missing-roots",
    "extra-roots",
    "wrong-multiplicity",
    "root-off",
    "false-pass",
)
# Every reason except false-pass makes a problem fail; false-pass is added
# on top of a failure when the report still claims all residuals pass.
FAILING = frozenset(REASONS) - {"false-pass"}


class Oracle:
    """Distinct reference roots, their multiplicities and match radii.

    ``cluster`` holds the conditioning part of each radius (see the module
    docstring); the half-separation cap is applied here.
    """

    def __init__(self, roots, multiplicities, cluster):
        self.roots = np.asarray(roots, dtype=complex)
        self.multiplicities = np.asarray(multiplicities, dtype=int)
        self.degree = int(self.multiplicities.sum())
        self.radii = np.empty(len(self.roots))
        for i, r in enumerate(self.roots):
            gaps = np.abs(np.delete(self.roots, i) - r)
            sep = gaps.min() if len(gaps) else math.inf
            self.radii[i] = min(sep / 2.0, cluster[i])


def scalar_oracle(roots, multiplicities, coeffs):
    """Oracle for a polynomial with known roots (ascending coeffs)."""
    roots = np.asarray(roots, dtype=complex)
    mult = np.asarray(multiplicities, dtype=int)
    mags = np.abs(np.asarray(coeffs, dtype=complex))
    cluster = []
    for i, r in enumerate(roots):
        scale = float(np.polyval(mags[::-1], abs(r)))
        log_g = math.log(mags[-1]) + float(
            np.sum(np.delete(mult, i) * np.log(np.abs(np.delete(roots, i) - r)))
        )
        cluster.append(math.exp((math.log(EPS_MATCH * scale) - log_g) / mult[i]))
    return Oracle(roots, mult, cluster)


def np_roots_oracle(coeffs):
    """Oracle for a random-coefficient polynomial (ascending coeffs)."""
    roots = np.roots(np.asarray(coeffs, dtype=complex)[::-1])
    return scalar_oracle(roots, np.ones(len(roots), dtype=int), coeffs)


def companion_linearisation(matrices):
    """Block companion matrix whose eigenvalues are those of F.

    Needs a regular leading matrix A_rho; the block rows are A_rho^-1 A_i.
    """
    mats = [np.asarray(a, dtype=complex) for a in matrices]
    n = mats[0].shape[0]
    rho = len(mats) - 1
    tail = np.linalg.solve(mats[-1], np.hstack(mats[:-1]))
    c = np.zeros((rho * n, rho * n), dtype=complex)
    c[: (rho - 1) * n, n:] = np.eye((rho - 1) * n)
    c[(rho - 1) * n:, :] = -tail
    return c


def matrix_oracle(matrices):
    """Oracle for F(lambda) = sum A_i lambda^i with a regular A_rho.

    The radius uses the eigenvalue condition number for perturbations of
    each A_i relative to ||A_i|| (Tisseur, LAA 309, 2000):
    kappa = (sum ||A_i|| |lambda|^i) / |y^H F'(lambda) x| with unit null
    vectors x, y of F(lambda), so a backward error EPS_MATCH moves lambda by
    at most about EPS_MATCH * kappa.
    """
    mats = [np.asarray(a, dtype=complex) for a in matrices]
    norms = [np.linalg.norm(a, 2) for a in mats]
    eigs = np.linalg.eigvals(companion_linearisation(mats))
    cluster = []
    for lam in eigs:
        f = sum(a * lam ** i for i, a in enumerate(mats))
        df = sum(i * a * lam ** (i - 1) for i, a in enumerate(mats) if i)
        u, _, vh = np.linalg.svd(f)
        weight = sum(nrm * abs(lam) ** i for i, nrm in enumerate(norms))
        cluster.append(
            EPS_MATCH * weight / abs(u[:, -1].conj() @ df @ vh[-1].conj())
        )
    return Oracle(eigs, np.ones(len(eigs), dtype=int), cluster)


class Verdict:
    """Grading of one report: failure reasons and per-root accuracy."""

    def __init__(self, reasons, recovered, errors, found):
        self.reasons = tuple(r for r in REASONS if r in reasons)
        self.recovered = recovered
        self.errors = errors
        self.found = found

    @property
    def failed(self):
        return any(r in FAILING for r in self.reasons)

    @property
    def false_pass(self):
        return "false-pass" in self.reasons


def grade(oracle, roots, passed):
    """Grade reported roots against the oracle.

    ``roots`` is a list of (value, multiplicity) from the report and
    ``passed`` its ``all_residuals_pass`` flag. The degree checked is the
    oracle's, i.e. the degree the problem was given with.
    """
    reasons = set()
    found = sum(m for _, m in roots)
    if found < oracle.degree:
        reasons.add("missing-roots")
    elif found > oracle.degree:
        reasons.add("extra-roots")
    claimed = np.zeros(len(oracle.roots), dtype=int)
    hits = np.zeros(len(oracle.roots), dtype=int)
    errors = []
    for value, mult in roots:
        dist = np.abs(oracle.roots - value)
        i = int(np.argmin(dist / oracle.radii))
        if not dist[i] <= oracle.radii[i]:
            reasons.add("root-off")
            continue
        hits[i] += 1
        claimed[i] += mult
        if mult != oracle.multiplicities[i]:
            reasons.add("wrong-multiplicity")
        r = oracle.roots[i]
        rel = dist[i] / abs(r) if r != 0 else dist[i]
        errors.append(math.log10(max(rel, ERROR_FLOOR)))
    if np.any(hits > 1):
        reasons.add("extra-roots")
    if np.any(hits == 0):
        reasons.add("missing-roots")
    recovered = int(np.minimum(claimed, oracle.multiplicities).sum())
    if passed and reasons:
        reasons.add("false-pass")
    return Verdict(reasons, recovered, errors, found)
