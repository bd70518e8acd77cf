"""Pins the benchmark's oracle, grader, generators and tracer.

    python3 -m pytest perfbench -q

The oracle uses numpy only; only the tracer test imports the package.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads

SEXTIC_ROOTS = np.array([2.0, -1.0])
SEXTIC_MULT = np.array([2, 4])
# det F(lambda) of the sparse 5x5 example, ascending, as printed in the paper.
SPARSE_PENTA_CHAR = (12221.0, 19366.0, 33492.0, 28079.0, 23637.0, 11574.0,
                     5699.0, 1631.0, 489.0, 68.0, 12.0)
SPARSE_PENTA_EIGENVALUE = complex(-1.017750736592877, 2.624392368810308)


@pytest.fixture
def sextic():
    return oracle.scalar_oracle(SEXTIC_ROOTS, SEXTIC_MULT, workloads.SEXTIC)


@pytest.fixture
def penta():
    return oracle.matrix_oracle(workloads.SPARSE_PENTA)


def test_sextic_coefficients_come_from_its_roots():
    expanded = np.poly(np.repeat(SEXTIC_ROOTS, SEXTIC_MULT))[::-1]
    assert np.allclose(expanded, workloads.SEXTIC, rtol=0, atol=1e-12)


def test_sextic_radii_follow_the_cluster_formula(sextic):
    # S(2) = 256, g(2) = (2+1)^4; S(-1) = 36, g(-1) = (-1-2)^2.
    assert sextic.degree == 6
    assert sextic.radii[0] == pytest.approx((1e-6 * 256 / 81) ** 0.5)
    assert sextic.radii[1] == pytest.approx((1e-6 * 36 / 9) ** 0.25)


def test_sextic_correct_report_passes(sextic):
    verdict = oracle.grade(sextic, [(-1.0 + 1e-3j, 4), (2.0 - 1e-4, 2)], True)
    assert verdict.reasons == ()
    assert verdict.recovered == 6
    assert len(verdict.errors) == 2


def test_sextic_empty_report_is_missing_roots(sextic):
    verdict = oracle.grade(sextic, [], False)
    assert verdict.reasons == ("missing-roots",)
    assert verdict.failed and not verdict.false_pass


def test_sextic_wrong_multiplicity_and_false_pass(sextic):
    verdict = oracle.grade(sextic, [(-1.0, 3), (2.0, 2)], True)
    assert verdict.reasons == ("missing-roots", "wrong-multiplicity",
                               "false-pass")
    assert verdict.recovered == 5


def test_sextic_root_outside_its_radius_is_off(sextic):
    # 1e-2 is inside the quadruple root's radius but not the double's.
    verdict = oracle.grade(sextic, [(-1.0 + 1e-2, 4), (2.0 + 1e-2, 2)], False)
    assert verdict.reasons == ("missing-roots", "root-off")


def test_sextic_duplicate_roots_are_extra(sextic):
    verdict = oracle.grade(
        sextic, [(-1.0, 4), (2.0, 2), (2.0 + 1e-9, 2)], False)
    assert verdict.reasons == ("extra-roots",)


def test_penta_eigenvalues_match_the_paper(penta):
    assert penta.degree == 10
    assert np.min(np.abs(penta.roots - SPARSE_PENTA_EIGENVALUE)) < 1e-12
    assert np.min(np.abs(penta.roots - SPARSE_PENTA_EIGENVALUE.conjugate())) < 1e-12
    char = 12.0 * np.poly(penta.roots)[::-1]
    assert np.allclose(char, SPARSE_PENTA_CHAR, rtol=1e-10)


def test_penta_grading(penta):
    roots = [(z, 1) for z in penta.roots]
    assert oracle.grade(penta, roots, True).reasons == ()
    verdict = oracle.grade(penta, roots[:8], True)
    assert verdict.reasons == ("missing-roots", "false-pass")
    assert verdict.recovered == 8


def test_generators_are_seeded():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 7)
        b = workloads.generate(workload, 7)
        assert [p.file for p in a] == [p.file for p in b]
        assert [p.file for p in a] != [p.file for p in workloads.generate(
            workload, 8)]


def test_known_defects_are_in_the_workloads():
    names = {w: {p.name for p in workloads.generate(w, 0)}
             for w in workloads.WORKLOADS}
    assert {"wilkinson-15", "wilkinson-20"} <= names["simple-roots"]
    assert {"sextic-delta0.1", "sextic-delta0.3", "wilkinson-10"} <= names[
        "real-scan"]
    assert {"quad-n20-0", "quad-n40-0", "sparse-penta"} <= names["matrix-eig"]


def test_tracer_changes_no_report_byte_and_restores_the_package():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import polyzeros as pz
    import tracing
    from specs import build_spec

    spec = build_spec(pz, {"kind": "polynomial",
                           "coefficients": [[c, 0.0] for c in workloads.SEXTIC],
                           "delta": 0.3})
    original = pz.pipeline.evaluate

    def text():
        return json.dumps(pz.report_to_dict(pz.run_pipeline(spec)),
                          sort_keys=True)

    plain = text()
    tracer = tracing.Tracer()
    with tracer.installed(0):
        assert pz.pipeline.evaluate is not original
        traced = text()
    assert traced == plain
    assert pz.pipeline.evaluate is original
    assert tracer.counts["poly.evaluate.calls"] > 0
    assert {s.layer for s in tracer.spans} >= {
        "pipeline.run", "explore.scan", "refine.detect"}
