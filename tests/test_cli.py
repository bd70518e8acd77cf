"""Problem-file parsing, subcommand behavior, and exit codes."""

import json

import numpy as np
import pytest

import cases
from polyzeros import (
    Algorithm,
    ProblemFormatError,
    SeedSource,
    main,
    parse_problem_file,
    problem_spec_to_dict,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _example1_file(tmp_path, **extra):
    payload = {"kind": "polynomial",
               "coefficients": list(cases.DOUBLE_QUAD_SEXTIC)}
    payload.update(extra)
    return _write(tmp_path, "example1.json", payload)


def _pencil_file(tmp_path, **extra):
    payload = {
        "kind": "matrix",
        "matrices": [
            [[float(x) for x in row] for row in cases.PENCIL5_A],
            [[-1.0 if i == j else 0.0 for j in range(5)] for i in range(5)],
        ],
    }
    payload.update(extra)
    return _write(tmp_path, "pencil.json", payload)


def test_parse_polynomial_problem(tmp_path):
    spec = parse_problem_file(_example1_file(tmp_path, delta=0.3))
    assert spec.polynomial.degree == 6
    assert spec.matrix is None
    assert spec.seed_source is SeedSource.EXPLORE
    assert spec.algorithm is Algorithm.DETECT
    assert spec.delta == 0.3


def test_parse_complex_pairs_and_seed_inference(tmp_path):
    path = _write(tmp_path, "c.json", {
        "kind": "polynomial",
        "coefficients": [[1, 0], [0, 1], [1, 0]],
        "seeds": [[0.5, -0.5]],
    })
    spec = parse_problem_file(path)
    assert spec.polynomial.coeffs[1] == 1j
    assert spec.seed_source is SeedSource.EXTERNAL
    assert spec.external_seeds == (0.5 - 0.5j,)


def test_parse_empty_coefficients_is_a_zero_polynomial_error(tmp_path):
    path = _write(tmp_path, "zero.json",
                  {"kind": "polynomial", "coefficients": []})
    with pytest.raises(ProblemFormatError, match="zero polynomial"):
        parse_problem_file(path)
    path = _write(tmp_path, "zero2.json",
                  {"kind": "polynomial", "coefficients": [0.0, 0.0]})
    with pytest.raises(ProblemFormatError, match="zero polynomial"):
        parse_problem_file(path)


def test_parse_matrix_problem_flags_singular_lead(tmp_path):
    path = _write(tmp_path, "m.json", {
        "kind": "matrix",
        "matrices": [[[float(x) for x in row] for row in mat]
                     for mat in cases.SINGULAR_LEAD_MATRICES],
    })
    spec = parse_problem_file(path)
    assert spec.matrix.degree == 4
    assert spec.matrix.order == 2
    assert not spec.matrix.leading_regular
    assert spec.seed_source is SeedSource.DIAGONAL


def test_parse_rejects_bad_kind_and_bad_json(tmp_path):
    with pytest.raises(ProblemFormatError, match="kind"):
        parse_problem_file(_write(tmp_path, "k.json", {"kind": "spline"}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        parse_problem_file(str(bad))


def test_parse_rejects_dimension_mismatch(tmp_path):
    path = _write(tmp_path, "dim.json", {
        "kind": "matrix",
        "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0]]],
    })
    with pytest.raises(ProblemFormatError):
        parse_problem_file(path)


def test_parse_serialize_parse_round_trip(tmp_path):
    first = parse_problem_file(_example1_file(
        tmp_path, delta=0.3, sigma=7, algorithm="pade",
        seeds=[2.01], nu=2, ecp=True,
    ))
    assert "sigma" not in problem_spec_to_dict(first)
    rewritten = _write(tmp_path, "round.json", problem_spec_to_dict(first))
    second = parse_problem_file(rewritten)
    assert problem_spec_to_dict(second) == problem_spec_to_dict(first)


def test_matrix_round_trip(tmp_path):
    first = parse_problem_file(_pencil_file(tmp_path))
    rewritten = _write(tmp_path, "round.json", problem_spec_to_dict(first))
    second = parse_problem_file(rewritten)
    assert problem_spec_to_dict(second) == problem_spec_to_dict(first)


def test_solve_exit_zero_and_report_shape(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", _example1_file(tmp_path), "--delta", "0.3",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["conserved"] is True
    values = [r["value"] for r in report["roots"]]
    assert values == [[-1.0, 0.0], [2.0, 0.0]] or all(
        abs(v[0] - w) < 1e-9 for v, w in zip(values, (-1.0, 2.0))
    )
    mults = [r["multiplicity"] for r in report["roots"]]
    assert mults == [4, 2]


def test_solve_finds_roots_that_sit_on_the_grid(tmp_path):
    """At delta = 0.1 both roots of the README sextic are grid points."""
    out = tmp_path / "report.json"
    code = main(["solve", _example1_file(tmp_path), "--delta", "0.1",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [(r["value"], r["multiplicity"]) for r in report["roots"]] == [
        ([-1.0, 0.0], 4), ([2.0, 0.0], 2)]


def test_solve_exit_one_when_residuals_fail(tmp_path):
    """Irrational roots keep a one-ulp residual, so an impossible residual
    tolerance flips the exit code."""
    path = _write(tmp_path, "tight.json", {
        "kind": "polynomial",
        "coefficients": [-2.0, 0.0, 1.0],
    })
    out = tmp_path / "r.json"
    code = main(["solve", path, "--residual-tol", "1e-30",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["all_residuals_pass"] is False


def test_solve_reports_an_unscannable_bound(tmp_path, capsys):
    """Real roots +-1e200: the scan cannot reach them at step 0.1, so
    exploration records an error line and solve exits 1 with a report."""
    path = _write(tmp_path, "huge.json", {
        "kind": "polynomial",
        "coefficients": [-1e200, 0.0, 1e-200],
    })
    out = tmp_path / "r.json"
    assert main(["solve", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["roots"] == []
    assert report["conserved"] is False
    assert [e for e in report["errors"] if e.startswith("exploration")] == [
        report["errors"][0]]
    assert report["errors"][0].startswith("exploration: root bound")
    assert capsys.readouterr().err == ""


def test_failing_seed_source_is_an_error_line(tmp_path, capsys):
    """Making 1e200 + 1e-200 lambda monic overflows, so the companion
    matrix has no eigenvalues: the source leaves an error line, and solve
    still writes a report and exits 1."""
    path = _write(tmp_path, "monic.json", {
        "kind": "polynomial", "coefficients": [1e200, 1e-200],
        "seed_source": "companion", "algorithm": "pade"})
    out = tmp_path / "r.json"
    assert main(["solve", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["roots"] == []
    assert report["errors"][0] == ("companion seeds: companion matrix is not "
                                   "finite: making f monic overflows")
    assert capsys.readouterr().err == ""


def test_solve_is_byte_deterministic(tmp_path):
    problem = _example1_file(tmp_path, delta=0.3)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["solve", problem, "--out", str(out1)]) == 0
    assert main(["solve", problem, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_file_override_forces_external_source(tmp_path):
    problem = _example1_file(tmp_path)
    seeds = _write(tmp_path, "seeds.json", {"seeds": [[2.01389, 0.0]]})
    out = tmp_path / "r.json"
    code = main(["solve", problem, "--seeds", seeds, "--out", str(out)])
    report = json.loads(out.read_text())
    assert len(report["roots"]) == 1
    assert report["roots"][0]["multiplicity"] == 2
    assert report["roots"][0]["source"] == "external"
    assert report["conserved"] is False
    assert code == 1


def test_explore_writes_one_scan(tmp_path):
    """One object: samples from -B to B, downward brackets, and seeds in
    f's own variable, the quadruple root's at negative lambda."""
    out = tmp_path / "scan.json"
    code = main(["explore", _example1_file(tmp_path), "--delta", "0.3",
                 "--out", str(out)])
    assert code == 0
    scan = json.loads(out.read_text())
    assert set(scan) == {"samples", "brackets", "seeds"}
    assert scan["samples"][0][0] == -scan["samples"][-1][0] < 0
    assert [b["p_lo"] > 0 > b["p_hi"] for b in scan["brackets"]] == [True] * 2
    assert [round(re, 2) for re, im in scan["seeds"]] == [-1.0, 2.01]


def test_ecp_subcommand_reports_evolutions(tmp_path):
    problem = _write(tmp_path, "cubic.json", {
        "kind": "polynomial",
        "coefficients": [-6.0, 11.0, -6.0, 1.0],
        "seeds": [0.9, 2.2, 3.4],
    })
    out = tmp_path / "ecp.json"
    code = main(["ecp", problem, "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["evolutions"] >= 1
    hist = data["defect_history"]
    assert hist[-1] < hist[0]
    np.testing.assert_allclose(data["sum_control"]["expected"], [6.0, 0.0],
                               atol=1e-12)
    assert len(data["disks"]) == 3


def test_ecp_requires_seeds(tmp_path, capsys):
    code = main(["ecp", _example1_file(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eigvec_subcommand(tmp_path):
    problem = _pencil_file(tmp_path, seeds=[[-1.0, 0.0]])
    out = tmp_path / "vec.json"
    code = main(["eigvec", problem, "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    entry = data["eigenvectors"][0]
    assert entry["rank_deficiency"] == 1
    assert entry["residual_pass"] is True
    assert len(entry["right"][0]) == 5


def test_eigvec_value_that_is_no_eigenvalue_fails_its_entry(tmp_path):
    """A given value where F is regular gets an entry that fails with the
    reason, the other values keep their eigenvectors, and the command exits
    1 (numbers that fail their checks), not 2 (unusable input)."""
    problem = _write(tmp_path, "diag.json", {
        "kind": "matrix",
        "matrices": [[[-1.0, 0.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "seeds": [1.0, 5.0],
    })
    out = tmp_path / "vec.json"
    assert main(["eigvec", problem, "--out", str(out)]) == 1
    found, missing = json.loads(out.read_text())["eigenvectors"]
    assert found["residual_pass"] is True
    assert found["rank_deficiency"] == 1
    assert missing == {
        "value": [5.0, 0.0],
        "error": "(5+0j) is not an eigenvalue at pivot tolerance 1e-10",
        "residual_pass": False,
    }


def test_eigvec_requires_matrix_and_seeds(tmp_path, capsys):
    code = main(["eigvec", _example1_file(tmp_path, seeds=[1.0])])
    assert code == 2
    assert "matrix" in capsys.readouterr().err


def test_plot_writes_csv_with_blank_guard_cells(tmp_path):
    problem = _write(tmp_path, "const.json",
                     {"kind": "polynomial", "coefficients": [5.0]})
    out = tmp_path / "c.csv"
    code = main(["plot", problem, "--range", "-1", "1", "--samples", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,f,p,h"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "" and cells[3] == ""


def test_plot_crosses_zero_between_brackets(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["plot", _example1_file(tmp_path), "--range", "0", "2.5",
                 "--samples", "251", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in
            out.read_text().strip().splitlines()[1:]]
    pade = [(float(r[0]), float(r[2])) for r in rows if r[2]]
    signs = [(lam, v) for lam, v in pade if 1.8 <= lam <= 2.1]
    assert any(a[1] * b[1] < 0 for a, b in zip(signs, signs[1:]))


def test_abbreviated_flag_exits_two(tmp_path, capsys):
    """``--nu`` is not taken as ``--nu-max``."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", _example1_file(tmp_path), "--algorithm", "test-nu",
              "--nu", "3"])
    assert exc.value.code == 2
    assert "--nu" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.json")])
    assert code == 2
    assert capsys.readouterr().err


def test_format_error_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "zero.json",
                  {"kind": "polynomial", "coefficients": []})
    code = main(["solve", path])
    assert code == 2
    assert "zero polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"kind": "polynomial", "coefficients": [1, float("inf")]},
    {"kind": "polynomial", "coefficients": [1, 0, [1.5e308, 1.5e308]]},
    {"kind": "polynomial", "coefficients": [1, 10 ** 400]},
    {"kind": "matrix", "matrices": [[[1, 0], [0, float("inf")]],
                                    [[1, 0], [0, 1]]]},
    {"kind": "matrix", "matrices": [[[1, 0], [0, [1.5e308, 1.5e308]]],
                                    [[1, 0], [0, 1]]]},
])
def test_non_finite_input_exits_two(tmp_path, capsys, payload):
    """json reads Infinity, a modulus can pass the float range although
    both parts are finite, and an integer can be too large for a float:
    each is unusable input, not a crash or a report."""
    path = _write(tmp_path, "inf.json", payload)
    with pytest.raises(ProblemFormatError):
        parse_problem_file(path)
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("finite" in err
                                          or "float range" in err)


@pytest.mark.parametrize("key", ["nu", "nu_max", "max_iters"])
def test_non_integer_count_exits_two(tmp_path, capsys, key):
    """A fractional or boolean count is a format error, not a crash or a
    silent truncation."""
    for value in (2.5, True):
        path = _example1_file(tmp_path, delta=0.3, algorithm="test-nu",
                              **{key: value})
        with pytest.raises(ProblemFormatError, match="'%s' must be an integer"
                           % key):
            parse_problem_file(path)
        assert main(["solve", path]) == 2
        assert "must be an integer" in capsys.readouterr().err
