"""Problem-file parsing, subcommand behavior, and exit codes."""

import json

import numpy as np
import pytest

import cases
import oracles
from polyzeros import (
    Algorithm,
    ProblemFormatError,
    SeedSource,
    main,
    parse_problem_file,
    problem_spec_to_dict,
)
from polyzeros import refine


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


def test_solve_reports_a_scan_grid_it_cannot_allocate(tmp_path, capsys):
    """Wilkinson 10 with its roots scaled by 2**40: the scan grid at step
    0.1 cannot be allocated, so exploration records an error line, and
    solve writes a report and exits 1 instead of raising."""
    path = _write(tmp_path, "w10.json", {
        "kind": "polynomial",
        "coefficients": [float(a) * 2.0 ** (-40 * j) for j, a in enumerate(
            oracles.wilkinson_coeffs(10))],
    })
    out = tmp_path / "r.json"
    assert main(["solve", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["roots"] == []
    assert report["errors"][0].startswith("exploration: a scan grid of ")
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


def test_solve_reports_a_probe_whose_test_polynomial_overflows(tmp_path,
                                                               capsys):
    """(lambda - 1)**150 (lambda + 2) from companion seeds: per-seed
    detect counts all 151 zeros around a seed, and (1 - j)**150 overflows
    in the test polynomial of that probe. solve writes a report, prints
    no traceback and exits 1."""
    coeffs = np.polynomial.polynomial.polyfromroots([1.0] * 150 + [-2.0])
    path = _write(tmp_path, "overflow.json", {
        "kind": "polynomial", "coefficients": coeffs.tolist(),
        "seed_source": "companion"})
    out = tmp_path / "r.json"
    assert main(["solve", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["conserved"] is False
    assert capsys.readouterr().err == ""


def test_solve_keeps_an_exact_root_at_zero(tmp_path):
    path = _write(tmp_path, "cubic.json", {
        "kind": "polynomial", "coefficients": [0.0, -1.0, 0.0, 1.0]})
    out = tmp_path / "r.json"
    assert main(["solve", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [r["value"] for r in report["roots"]] == [
        [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_solve_finds_a_root_that_shares_its_cell_with_a_pole(tmp_path):
    """Roots 0.03, 0.24 (triple) and -2 at delta 0.1 under explore and
    detect: the grid cell [0, 0.1] holds 0.03 and a pole of p, and the
    scan seeds it from the sign change of f, so all three roots are
    reported with their multiplicities."""
    coeffs = np.polynomial.polynomial.polyfromroots([0.03, 0.24, 0.24, 0.24,
                                                     -2.0])
    path = _write(tmp_path, "pole.json", {
        "kind": "polynomial", "coefficients": coeffs.tolist(), "delta": 0.1})
    out = tmp_path / "r.json"
    assert main(["solve", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["conserved"] is True
    found = [(r["value"][0], r["multiplicity"]) for r in report["roots"]]
    assert [m for _, m in found] == [1, 1, 3]
    np.testing.assert_allclose([v for v, _ in found], [-2.0, 0.03, 0.24],
                               atol=1e-5)


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
    assert report["seed_source"] == "external"
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
    assert all(set(d) == {"radius", "separated"} for d in data["disks"])


def test_ecp_exits_1_when_the_evolutions_stop_short(tmp_path, monkeypatch):
    """The cubic's list needs more than one evolution before its values
    are roots to working precision; with a budget of one, ecp writes the
    list it reached and exits 1. At the roots themselves no evolution
    runs, and it exits 0."""
    problem = _write(tmp_path, "cubic.json", {
        "kind": "polynomial",
        "coefficients": [-6.0, 11.0, -6.0, 1.0],
        "seeds": [0.9, 2.2, 3.4],
    })
    out = tmp_path / "ecp.json"
    monkeypatch.setattr(refine, "MAX_ITERS", 1)
    assert main(["ecp", problem, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["evolutions"] == 1
    roots = _write(tmp_path, "roots.json", {
        "kind": "polynomial",
        "coefficients": [-6.0, 11.0, -6.0, 1.0],
        "seeds": [1.0, 2.0, 3.0],
    })
    assert main(["ecp", roots, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["evolutions"] == 0


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
    1 (numbers that fail their checks), not 2 (unusable input). F(5) =
    diag(4, 3), so the backward error is 3 / (||A_0|| + 5 ||A_1||) = 3/7."""
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
        "error": "(5+0j) is not an eigenvalue: backward error 0.429 "
                 "exceeds 1e-06",
        "residual_pass": False,
    }


def test_eigvec_accepts_the_eigenvalues_solve_accepts(tmp_path):
    """quad-n7-0 of the matrix-eig workload: ``solve`` passes its 14
    eigenvalues, and ``eigvec`` at those values gives every one its
    eigenvectors and exits 0, as the two share one definition of an
    eigenpair."""
    n = 7
    problem = _write(tmp_path, "quad.json", {
        "kind": "matrix",
        "matrices": [[list(row) for row in cases.QUAD_N7_A0],
                     [list(row) for row in cases.QUAD_N7_A1],
                     np.eye(n).tolist()],
        "seed_source": "companion",
        "algorithm": "pade",
    })
    solved = tmp_path / "solved.json"
    assert main(["solve", problem, "--out", str(solved)]) == 0
    values = [r["value"] for r in json.loads(solved.read_text())["roots"]]
    assert len(values) == 14
    seeds = _write(tmp_path, "values.json", values)
    out = tmp_path / "vec.json"
    assert main(["eigvec", problem, "--seeds", seeds, "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["eigenvectors"]
    assert [e["value"] for e in entries] == values
    assert all(e["residual_pass"] for e in entries)


def test_one_by_one_f_solves_and_gives_eigenvectors_at_its_roots(tmp_path):
    """F = (lambda - 1)(lambda - 2) as a 1 x 1 matrix: solve from its
    diagonal seeds passes, and eigvec at the two roots gives each one
    vector and exits 0. F(lambda) is small against its terms there, not
    against itself: its one singular value is its largest too."""
    problem = _write(tmp_path, "one.json", {
        "kind": "matrix", "matrices": [[[2.0]], [[-3.0]], [[1.0]]]})
    solved = tmp_path / "solved.json"
    assert main(["solve", problem, "--out", str(solved)]) == 0
    values = [r["value"] for r in json.loads(solved.read_text())["roots"]]
    assert len(values) == 2
    seeds = _write(tmp_path, "values.json", values)
    out = tmp_path / "vec.json"
    assert main(["eigvec", problem, "--seeds", seeds, "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["eigenvectors"]
    assert [e["rank_deficiency"] for e in entries] == [1, 1]


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


def test_plot_of_a_zero_root_bound_spans_minus_one_to_one(tmp_path, capsys):
    """lambda**3 has root bound 0; its default interval is (-1, 1), not
    the empty (0, 0)."""
    problem = _write(tmp_path, "cube.json",
                     {"kind": "polynomial", "coefficients": [0, 0, 0, 1]})
    assert main(["plot", problem]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 400
    assert (rows[0].split(",")[0], rows[-1].split(",")[0]) == ("-1.0", "1.0")


def test_plot_of_an_infinite_root_bound_asks_for_range(tmp_path, capsys):
    """The root bound of 1e300 + 1e-290 lambda overflows; the default
    interval would sample nothing but NaN."""
    problem = _write(tmp_path, "wide.json",
                     {"kind": "polynomial", "coefficients": [1e300, 1e-290]})
    assert main(["plot", problem]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--range" in captured.err


# The problems the option tests run on, each with a seed file for --seeds.
OPTION_PROBLEMS = {
    "sextic": ({"kind": "polynomial",
                "coefficients": list(cases.DOUBLE_QUAD_SEXTIC)}, [2.01389]),
    "sqrt2": ({"kind": "polynomial", "coefficients": [-2.0, 0.0, 1.0]},
              [1.4]),
    "cubic": ({"kind": "polynomial", "coefficients": [-6.0, 11.0, -6.0, 1.0]},
              [0.9, 2.2, 3.4]),
    "diag": ({"kind": "matrix",
              "matrices": [[[-1.0, 0.0], [0.0, -2.0]],
                           [[1.0, 0.0], [0.0, 1.0]]]}, [1.0, 2.0]),
}

# Every option each subcommand declares, with a problem and a value on
# which the option changes the exit code or the output. SEEDS stands for
# the problem's seed file.
DECLARED_OPTIONS = (
    ("solve", "--delta", "sextic", ["0.3"]),
    ("solve", "--seeds", "sqrt2", ["SEEDS"]),
    ("solve", "--algorithm", "diag", ["halley"]),
    ("solve", "--seeds", "diag", ["SEEDS"]),
    ("solve", "--seeds", "sextic", ["SEEDS"]),
    ("solve", "--algorithm", "sextic", ["pade"]),
    ("explore", "--delta", "sextic", ["0.3"]),
    ("ecp", "--seeds", "cubic", ["SEEDS"]),
    ("eigvec", "--seeds", "diag", ["SEEDS"]),
    ("plot", "--range", "sextic", ["0", "2.5"]),
    ("plot", "--samples", "sextic", ["5"]),
)
SUBCOMMANDS = ("solve", "explore", "ecp", "eigvec", "plot")
ANY_OPTION = {"--delta": ["3"], "--step-tol": ["5"], "--residual-tol":
              ["1e-300"], "--nu-max": ["2"], "--seeds": ["SEEDS"],
              "--algorithm": ["halley"], "--range": ["0", "1"],
              "--samples": ["5"]}
UNDECLARED_OPTIONS = [
    (command, flag) for command in SUBCOMMANDS for flag in ANY_OPTION
    if (command, flag) not in {d[:2] for d in DECLARED_OPTIONS}]


def _option_problem(tmp_path, name):
    payload, seeds = OPTION_PROBLEMS[name]
    return (_write(tmp_path, name + ".json", payload),
            _write(tmp_path, name + "-seeds.json", seeds))


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command, flag, problem, value", DECLARED_OPTIONS)
def test_declared_option_changes_the_output(tmp_path, capsys, command, flag,
                                            problem, value):
    path, seeds = _option_problem(tmp_path, problem)
    value = [seeds if v == "SEEDS" else v for v in value]
    without = _run(capsys, [command, path])
    assert _run(capsys, [command, path, flag] + value) != without


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_writes_to_out(tmp_path, capsys, command):
    problem = {"ecp": "cubic", "eigvec": "diag"}.get(command, "sextic")
    path, seeds = _option_problem(tmp_path, problem)
    argv = [command, path] + (["--seeds", seeds]
                              if command in ("ecp", "eigvec") else [])
    code, printed = _run(capsys, argv)
    out = tmp_path / "out"
    assert _run(capsys, argv + ["--out", str(out)]) == (code, "")
    assert out.read_text() == printed != ""


@pytest.mark.parametrize("command, flag", UNDECLARED_OPTIONS)
def test_undeclared_option_exits_two(tmp_path, capsys, command, flag):
    """A subcommand refuses an option it would not read, with argparse's
    usage error, instead of ignoring it."""
    path, seeds = _option_problem(
        tmp_path, "diag" if command == "eigvec" else "sextic")
    value = [seeds if v == "SEEDS" else v for v in ANY_OPTION[flag]]
    with pytest.raises(SystemExit) as exc:
        main([command, path, flag] + value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: %s" % flag in err


def test_abbreviated_flag_exits_two(tmp_path, capsys):
    """``--alg`` is not taken as ``--algorithm``."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", _example1_file(tmp_path), "--alg", "test-nu"])
    assert exc.value.code == 2
    assert "--alg" in capsys.readouterr().err


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
    {"kind": "polynomial", "coefficients": [1, 1], "delta": float("inf")},
    {"kind": "polynomial", "coefficients": [1, 1],
     "seeds": [[float("inf"), 0]]},
    {"kind": "polynomial", "coefficients": [1, 1],
     "seeds": [[1.5e308, 1.5e308]]},
])
def test_non_finite_input_exits_two(tmp_path, capsys, payload):
    """json reads Infinity, a modulus can pass the float range although
    both parts are finite, and an integer can be too large for a float:
    each is unusable input, not a crash or a report. That holds for the
    scan step and for external seeds as well as for coefficients."""
    path = _write(tmp_path, "inf.json", payload)
    with pytest.raises(ProblemFormatError):
        parse_problem_file(path)
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("finite" in err
                                          or "float range" in err)


def test_delta_beyond_the_float_range_exits_two(tmp_path, capsys):
    """An integer delta too large for a float passes the type check of the
    problem-file keys; it exits 2 with the words a coefficient gets, not
    with a traceback."""
    path = _example1_file(tmp_path, delta=10 ** 400)
    with pytest.raises(ProblemFormatError, match="float range"):
        parse_problem_file(path)
    assert main(["solve", path]) == 2
    assert "delta: number out of the float range" in capsys.readouterr().err


def test_problem_scaled_by_1e_minus_301_solves(tmp_path):
    """(lambda - 1)(lambda - 2) times 1e-301 keeps its degree, as no
    nonzero coefficient is trimmed, and solves like the unscaled
    quadratic: exit 0 with the roots 1 and 2."""
    out = tmp_path / "report.json"
    path = _write(tmp_path, "tiny.json", {
        "kind": "polynomial", "coefficients": [2e-301, -3e-301, 1e-301]})
    assert main(["solve", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [complex(*r["value"]) for r in report["roots"]] == pytest.approx(
        [1.0, 2.0], abs=1e-12)
    assert report["conserved"] and report["all_residuals_pass"]


def test_non_finite_delta_option_exits_two(tmp_path, capsys):
    """--delta inf would scan the grid -inf, nan, inf and write NaN
    samples that strict JSON readers reject."""
    path = _example1_file(tmp_path)
    for delta in ("inf", "nan"):
        assert main(["explore", path, "--delta", delta]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [5, None, True, "ab", {"a": 1}])
def test_seeds_that_are_not_a_list_exit_two(tmp_path, capsys, seeds):
    """A number, null or a boolean is no traceback, and a string or an
    object is not read character by character or key by key."""
    path = _example1_file(tmp_path, seeds=seeds)
    with pytest.raises(ProblemFormatError, match="'seeds' must be a list"):
        parse_problem_file(path)
    assert main(["solve", path]) == 2
    assert "'seeds' must be a list" in capsys.readouterr().err


SQUARE = {"kind": "polynomial", "coefficients": [-1.0, 0.0, 1.0]}


@pytest.mark.parametrize("payload, seed_file", [
    (dict(SQUARE, coefficients=[True, False, 1]), None),
    (dict(SQUARE, coefficients=[-1, [0, True], 1]), None),
    ({"kind": "matrix", "matrices": [[[True, 0], [0, -2]],
                                     [[1, 0], [0, 1]]]}, None),
    (dict(SQUARE, seeds=[True, [1, False]]), None),
    (SQUARE, [[1, False]]),
], ids=["coefficients", "coefficient-pair", "matrix-entry", "seeds",
        "seed-file"])
def test_boolean_for_a_number_exits_two(tmp_path, capsys, payload,
                                        seed_file):
    """JSON true and false are Python bools, and bool is an int subclass:
    a boolean, whole or in an [re, im] pair, must not be read as 1 or 0."""
    path = _write(tmp_path, "bool.json", payload)
    flags = []
    if seed_file is not None:
        flags = ["--seeds", _write(tmp_path, "seeds.json", seed_file)]
    else:
        with pytest.raises(ProblemFormatError, match="expected a number"):
            parse_problem_file(path)
    assert main(["solve", path] + flags) == 2
    assert "expected a number or [re, im] pair, got" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("key", ["nu"])
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


@pytest.mark.parametrize("key, value, what", [
    ("ecp", "false", "true or false"),
    ("ecp", 0, "true or false"),
    ("delta", True, "a number"),
    ("delta", "0.3", "a number"),
])
def test_mistyped_key_exits_two(tmp_path, capsys, key, value, what):
    """"ecp": "false" must not turn the diagnostics on, and "delta": true
    must not scan with step 1.0: ``ecp`` takes a JSON boolean, the step a
    JSON number that is not a boolean."""
    path = _example1_file(tmp_path, **{key: value})
    with pytest.raises(ProblemFormatError,
                       match="'%s' must be %s" % (key, what)):
        parse_problem_file(path)
    assert main(["solve", path]) == 2
    assert "'%s' must be %s" % (key, what) in capsys.readouterr().err


def test_numeric_and_boolean_keys_keep_their_values(tmp_path):
    """An integer is a JSON number, and true and false are booleans."""
    spec = parse_problem_file(_example1_file(tmp_path, delta=1, ecp=True))
    assert (spec.delta, spec.ecp) == (1.0, True)
    assert not parse_problem_file(_example1_file(tmp_path, ecp=False)).ecp


@pytest.mark.parametrize("key, value", [
    ("residual_tol", 1e-30),
    ("nu_max", 2),
    ("step_tol", 1e-3),
    ("max_iters", 0),
])
def test_old_key_is_ignored(tmp_path, capsys, key, value):
    """Keys that older problem files may carry change no report byte and
    no exit code. Every run stops where f vanishes to working precision,
    even under a ``residual_tol`` of 1e-30, below the one-ulp residuals of
    the irrational roots; detect reads nu from its zero count, not from
    ``nu_max``; and the step test and the step budget are constants, so a
    loose ``step_tol`` or a ``max_iters`` of 0 is not read."""
    sqrt2 = {"kind": "polynomial", "coefficients": [-2.0, 0.0, 1.0]}
    plain = _write(tmp_path, "plain.json", sqrt2)
    old = _write(tmp_path, "old.json", dict(sqrt2, **{key: value}))
    code, text = _run(capsys, ["solve", plain])
    assert code == 0
    assert _run(capsys, ["solve", old]) == (code, text)


@pytest.mark.parametrize("command, flags, message", [
    ("plot", ["--samples", "1"], "samples must be >= 2"),
    ("plot", ["--range", "1", "0"], "interval must be ordered"),
    ("plot", ["--range", "0", "inf"], "interval must be finite"),
    ("plot", ["--range", "inf", "inf"], "interval must be finite"),
    ("plot", ["--range", "nan", "1"], "interval must be finite"),
])
def test_out_of_range_option_exits_two(tmp_path, capsys, command, flags,
                                       message):
    """An option value out of range is a usage error, as a bad key in a
    problem file is: an error line and exit 2, not a traceback or rows of
    NaN."""
    path = _example1_file(tmp_path)
    assert main([command, path] + flags) == 2
    assert capsys.readouterr().err == "error: command line: %s\n" % message

