"""Command line driver.

Subcommands: solve (full pipeline), explore (real-axis sign scan), ecp
(interpolation list with evolutions), eigvec (eigenvectors at given
eigenvalues), plot (CSV samples of f, p, h over a real interval). Each
accepts exactly the options it reads (``_SUBCOMMANDS``). Problem files are
JSON objects; complex numbers are written as [re, im] pairs and
polynomial coefficients are ascending.
"""

import argparse
import dataclasses
import json
import math
import sys

from .ecp import defects_below_threshold
from .errors import (
    DerivativeUnderflowError,
    HalleyDenominatorError,
    NotAnEigenvalueError,
    PolyzerosError,
    ProblemFormatError,
    ZeroPolynomialError,
)
from .explore import scan_sign_changes
from .matpoly import SINGULAR_REL, eigenvectors_all, polynomial_matrix
from .pipeline import (
    Algorithm,
    ProblemSpec,
    SeedSource,
    complex_pair,
    ecp_diagnostics,
    ecp_to_dict,
    eigenpair_to_dict,
    report_to_dict,
    run_pipeline,
    spec_polynomial,
)
from .poly import Polynomial, evaluate, halley_eval, pade_eval

DEFAULT_PLOT_SAMPLES = 400


def _decode_complex(obj, where):
    parts = obj if isinstance(obj, (list, tuple)) and len(obj) == 2 else (obj,)
    # JSON true and false are Python bools, and bool is an int subclass.
    if all(isinstance(x, (int, float)) and not isinstance(x, bool)
           for x in parts):
        try:
            return complex(*parts)
        except OverflowError:  # an integer beyond the float range
            raise ProblemFormatError(
                "%s: number out of the float range" % where)
    raise ProblemFormatError(
        "%s: expected a number or [re, im] pair, got %r" % (where, obj)
    )


def _decode_matrix(rows, where, order=None):
    if not isinstance(rows, list) or not rows:
        raise ProblemFormatError("%s: expected a nonempty list of rows" % where)
    n = order if order is not None else len(rows)
    if len(rows) != n:
        raise ProblemFormatError(
            "%s: has %d rows, expected %d" % (where, len(rows), n)
        )
    decoded = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFormatError(
                "%s row %d: expected %d entries" % (where, i, n)
            )
        decoded.append(
            [_decode_complex(x, "%s[%d][%d]" % (where, i, j))
             for j, x in enumerate(row)]
        )
    return decoded


def parse_problem_file(path):
    """Read a JSON problem file into a validated ProblemSpec."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError("%s: invalid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ProblemFormatError("%s: top level must be an object" % path)
    kind = data.get("kind")
    polynomial = None
    matrix = None
    if kind == "polynomial":
        raw = data.get("coefficients")
        if not isinstance(raw, list):
            raise ProblemFormatError(
                "%s: 'coefficients' must be an ascending list" % path
            )
        if not raw:
            raise ProblemFormatError("%s: zero polynomial" % path)
        coeffs = tuple(
            _decode_complex(x, "coefficients[%d]" % i)
            for i, x in enumerate(raw)
        )
        try:
            polynomial = Polynomial(coeffs)
        except ValueError as exc:
            raise ProblemFormatError("%s: %s" % (path, exc))
        if polynomial.is_zero:
            raise ProblemFormatError("%s: zero polynomial" % path)
    elif kind == "matrix":
        raw = data.get("matrices")
        if not isinstance(raw, list) or len(raw) < 2:
            raise ProblemFormatError(
                "%s: 'matrices' must list the rho+1 coefficient matrices"
                % path
            )
        order = None
        decoded = []
        for i, item in enumerate(raw):
            rows = _decode_matrix(item, "matrices[%d]" % i, order)
            order = len(rows)
            decoded.append(rows)
        try:
            matrix = polynomial_matrix(decoded)
        except ProblemFormatError as exc:
            raise ProblemFormatError("%s: %s" % (path, exc))
    else:
        raise ProblemFormatError(
            "%s: 'kind' must be 'polynomial' or 'matrix'" % path
        )
    raw = data.get("seeds", [])
    if not isinstance(raw, list):
        raise ProblemFormatError("%s: 'seeds' must be a list" % path)
    seeds = tuple(
        _decode_complex(x, "seeds[%d]" % i) for i, x in enumerate(raw)
    )
    if "seed_source" in data:
        try:
            source = SeedSource(data["seed_source"])
        except ValueError:
            raise ProblemFormatError(
                "%s: unknown seed_source %r" % (path, data["seed_source"])
            )
    elif seeds:
        source = SeedSource.EXTERNAL
    elif matrix is not None:
        source = SeedSource.DIAGONAL
    else:
        source = SeedSource.EXPLORE
    try:
        algorithm = Algorithm(data.get("algorithm", "detect"))
    except ValueError:
        raise ProblemFormatError(
            "%s: unknown algorithm %r" % (path, data["algorithm"])
        )
    # JSON true and false are Python bools, and bool is an int subclass.
    for key, kinds, what in (("nu", int, "an integer"),
                             ("delta", (int, float), "a number"),
                             ("ecp", bool, "true or false")):
        value = data.get(key)
        if key in data and not (isinstance(value, kinds) and isinstance(
                value, bool) == (kinds is bool)):
            raise ProblemFormatError(
                "%s: '%s' must be %s, got %r" % (path, key, what, value)
            )
    return ProblemSpec(
        polynomial=polynomial,
        matrix=matrix,
        seed_source=source,
        external_seeds=seeds,
        algorithm=algorithm,
        delta=float(data.get("delta", 0.1)),
        nu=data.get("nu", 1),
        ecp=data.get("ecp", False),
    )


def problem_spec_to_dict(spec):
    """Inverse of parse_problem_file: a JSON-ready problem description."""
    data = {}
    if spec.polynomial is not None:
        data["kind"] = "polynomial"
        data["coefficients"] = [complex_pair(c) for c in spec.polynomial.coeffs]
    else:
        data["kind"] = "matrix"
        data["matrices"] = [
            [[complex_pair(a[i, j]) for j in range(spec.matrix.order)]
             for i in range(spec.matrix.order)]
            for a in spec.matrix.coefficient_matrices
        ]
    data["seed_source"] = spec.seed_source.value
    if spec.external_seeds:
        data["seeds"] = [complex_pair(s) for s in spec.external_seeds]
    data["algorithm"] = spec.algorithm.value
    data["delta"] = spec.delta
    data["nu"] = spec.nu
    data["ecp"] = spec.ecp
    return data


def _load_seed_file(path):
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError("%s: invalid JSON: %s" % (path, exc))
    if isinstance(data, dict):
        data = data.get("seeds")
    if not isinstance(data, list) or not data:
        raise ProblemFormatError(
            "%s: expected a list of seeds (or {'seeds': [...]})" % path
        )
    return tuple(
        _decode_complex(x, "seeds[%d]" % i) for i, x in enumerate(data)
    )


def _apply_overrides(spec, args):
    """The problem file's spec with the subcommand's declared options set;
    ``args`` holds no attribute for an option the subcommand lacks. A
    value out of range is a ProblemFormatError, as in a problem file."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    changes = {"delta": given["delta"]} if "delta" in given else {}
    if "seeds" in given:
        changes["external_seeds"] = _load_seed_file(given["seeds"])
        changes["seed_source"] = SeedSource.EXTERNAL
    if "algorithm" in given:
        changes["algorithm"] = Algorithm(given["algorithm"])
    return dataclasses.replace(spec, **changes) if changes else spec


def _write_json(data, out_path):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_solve(spec, args):
    report = run_pipeline(spec)
    _write_json(report_to_dict(report), args.out)
    return 0 if report.all_residuals_pass else 1


def _scan_dict(report):
    return {
        "samples": [[lam, val] for lam, val in report.samples],
        "brackets": [
            {"lo": b.lam_lo, "hi": b.lam_hi, "p_lo": b.p_lo, "p_hi": b.p_hi}
            for b in report.brackets
        ],
        "seeds": [complex_pair(s) for s in report.seeds],
    }


def _cmd_explore(spec, args):
    f = spec_polynomial(spec)
    _write_json(_scan_dict(scan_sign_changes(f, spec.delta)), args.out)
    return 0


def _cmd_ecp(spec, args):
    if spec.seed_source is not SeedSource.EXTERNAL:
        raise ProblemFormatError(
            "ecp needs explicit eigenvalue approximations (--seeds or file)"
        )
    diag = ecp_diagnostics(spec_polynomial(spec), spec.external_seeds)
    _write_json(ecp_to_dict(diag), args.out)
    return 0 if defects_below_threshold(diag.final_list) else 1


def _cmd_eigvec(spec, args):
    if spec.matrix is None:
        raise ProblemFormatError("eigvec needs a matrix problem")
    if spec.seed_source is not SeedSource.EXTERNAL:
        raise ProblemFormatError(
            "eigvec needs explicit eigenvalues (--seeds or file)"
        )
    # An entry passes exactly where solve accepts an eigenvalue: where
    # eigenvectors_all, through singular_ranks_all, finds F singular.
    entries = []
    for lam, found in zip(spec.external_seeds,
                          eigenvectors_all(spec.matrix, spec.external_seeds)):
        if isinstance(found, NotAnEigenvalueError):
            entries.append({"value": complex_pair(lam), "error": str(found),
                            "residual_pass": False})
        else:
            entries.append(dict(eigenpair_to_dict(lam, found),
                                residual_pass=True))
    _write_json({"eigenvectors": entries}, args.out)
    return 0 if all(e["residual_pass"] for e in entries) else 1


def _csv_value(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return "%r%s%rj" % (z.real, sign, abs(z.imag))


def emit_plot_data(f, interval, samples, path):
    """Write CSV rows lambda,f,p,h over a real interval.

    Pade and Halley cells are left blank wherever their guards fire (for
    example f' vanishing for a constant polynomial)."""
    lo, hi = float(interval[0]), float(interval[1])
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval must be finite")
    if not lo < hi:
        raise ValueError("interval must be ordered")
    lines = ["lambda,f,p,h"]
    for i in range(samples):
        lam = lo + (hi - lo) * i / (samples - 1)
        row = [repr(lam), _csv_value(evaluate(f, lam)[0])]
        for fn in (pade_eval, halley_eval):
            try:
                row.append(_csv_value(fn(f, lam)))
            except (DerivativeUnderflowError, HalleyDenominatorError,
                    ZeroPolynomialError, ZeroDivisionError, OverflowError):
                row.append("")
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_plot(spec, args):
    f = spec_polynomial(spec)
    bound = f.root_bound or 1.0  # (-1, 1) when every zero is at 0
    if not (args.range or bound < math.inf):
        raise ProblemFormatError(
            "command line: the root bound is infinite; give --range")
    try:  # emit_plot_data checks its arguments before it writes a row
        emit_plot_data(f, args.range or (-bound, bound), args.samples,
                       args.out)
    except ValueError as exc:
        raise ProblemFormatError("command line: %s" % exc)
    return 0


# Every option, defined once: the flag and its argparse keywords.
_OPTIONS = {
    "--delta": dict(type=float, help="exploration step size"),
    "--seeds": dict(help="JSON file with starting values"),
    "--algorithm": dict(choices=[a.value for a in Algorithm],
                        help="refinement algorithm (default detect)"),
    "--range": dict(type=float, nargs=2,
                    help="interval endpoints (default -R R, R the root "
                         "bound, or -1 1 when R is 0)"),
    "--samples": dict(type=int, default=DEFAULT_PLOT_SAMPLES,
                      help="number of sample points"),
    "--out": dict(help="output file"),
}

# Each subcommand: its handler, its help, and exactly the options it reads.
_SUBCOMMANDS = (
    ("solve", _cmd_solve, "full seed/refine/report pipeline",
     ("--delta", "--seeds", "--algorithm", "--out")),
    ("explore", _cmd_explore, "real-axis sign-change scan",
     ("--delta", "--out")),
    ("ecp", _cmd_ecp, "interpolation list, evolutions, enclosures",
     ("--seeds", "--out")),
    ("eigvec", _cmd_eigvec,
     "unit-norm eigenvectors at given eigenvalues, from two SVDs; a value "
     "counts where sigma_min(F) <= %g sigma_max(F)" % SINGULAR_REL,
     ("--seeds", "--out")),
    ("plot", _cmd_plot, "CSV samples of f, p, h on an interval",
     ("--range", "--samples", "--out")),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyzeros",
        allow_abbrev=False,
        description="Zeros of polynomials and polynomial matrices via "
                    "Pade-function iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=extra, allow_abbrev=False)
        p.add_argument("problem", help="JSON problem file")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _apply_overrides(parse_problem_file(args.problem), args)
        return args.handler(spec, args)
    except PolyzerosError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("%s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
