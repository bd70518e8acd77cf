"""Drive every CLI subcommand against freshly written problem files.

Problem files are JSON objects. A polynomial problem lists ascending
coefficients (complex entries as [re, im] pairs); a matrix problem lists
the coefficient matrices of F(l) = A_0 + l A_1 + ... The subcommands:

    solve    seed acquisition, refinement, multiplicity report; for a
             matrix problem also the rank deficiency of F at each
             eigenvalue, but no eigenvectors
    explore  real-axis sign-change scan of the Pade function
    ecp      interpolation list, evolutions, Gershgorin enclosures
    eigvec   eigenvectors of a matrix problem at given eigenvalues,
             here the root values of a solve report
    plot     CSV samples of f, p, h over an interval

Exit code 0 means the produced numbers passed their own residual or
threshold checks, 1 means they did not, 2 means the input was unusable.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(args):
    print("\n$ polyzeros " + " ".join(args))
    proc = subprocess.run(
        [sys.executable, "-m", "polyzeros", *args],
        capture_output=True, text=True,
    )
    print("exit %d" % proc.returncode)
    return proc


def main():
    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)

        sextic = tmp / "sextic.json"
        sextic.write_text(json.dumps({
            "kind": "polynomial",
            "coefficients": [4, 12, 9, -4, -6, 0, 1],
            "delta": 0.3,
        }))
        proc = run(["solve", str(sextic), "--out", str(tmp / "report.json")])
        report = json.loads((tmp / "report.json").read_text())
        for root in report["roots"]:
            print("  root %+g  nu=%d  residual %.1e" % (
                root["value"][0], root["multiplicity"], root["residual"]))
        assert proc.returncode == 0

        proc = run(["explore", str(sextic)])
        scan = json.loads(proc.stdout)
        print("  %d samples from %g to %g, %d brackets, seeds %s"
              % (len(scan["samples"]), scan["samples"][0][0],
                 scan["samples"][-1][0], len(scan["brackets"]),
                 ["%.4f" % re for re, im in scan["seeds"]]))

        wilkinson = tmp / "wilkinson4.json"
        wilkinson.write_text(json.dumps({
            "kind": "polynomial",
            "coefficients": [24, -50, 35, -10, 1],
        }))
        seeds = tmp / "seeds.json"
        seeds.write_text(json.dumps([1.0003, 1.9998, 3.0004, 3.9997]))
        proc = run(["ecp", str(wilkinson), "--seeds", str(seeds)])
        ecp = json.loads(proc.stdout)
        print("  %d evolutions, final max|d| %.1e"
              % (ecp["evolutions"], max(
                  abs(complex(*d)) for d in ecp["final_list"]["defects"])))
        assert proc.returncode == 0

        pencil = tmp / "pencil.json"
        pencil.write_text(json.dumps({
            "kind": "matrix",
            "matrices": [
                [[-1, 0, 1, 0, 0],
                 [0, 0, 0, 1, 0],
                 [1, 0, 0, 0, 1],
                 [0, 1, 0, 0, 0],
                 [0, 0, 0, 1, -1]],
                [[1, 0, 0, 0, 0],
                 [0, 1, 0, 0, 0],
                 [0, 0, 1, 0, 0],
                 [0, 0, 0, 1, 0],
                 [0, 0, 0, 0, 1]],
            ],
            "seed_source": "companion",
        }))
        proc = run(["solve", str(pencil),
                    "--out", str(tmp / "pencil-report.json")])
        report = json.loads((tmp / "pencil-report.json").read_text())
        for root, count in zip(report["roots"], report["eigenvectors"]):
            print("  lambda=%+.4f  nu=%d  rank deficiency %d%s" % (
                root["value"][0], root["multiplicity"], count,
                "  (defective)" if 0 < count < root["multiplicity"] else ""))
        assert proc.returncode == 0

        values = tmp / "values.json"
        values.write_text(json.dumps([r["value"] for r in report["roots"]]))
        proc = run(["eigvec", str(pencil), "--seeds", str(values)])
        for bundle in json.loads(proc.stdout)["eigenvectors"]:
            print("  lambda=%+.4f  %d right and left vector(s), residuals "
                  "%.1e and %.1e" % (
                      bundle["value"][0], bundle["rank_deficiency"],
                      max(bundle["right_residuals"]),
                      max(bundle["left_residuals"])))
        assert proc.returncode == 0

        proc = run(["plot", str(sextic), "--range", "0", "2.5",
                    "--samples", "6"])
        print("  " + proc.stdout.splitlines()[0])
        print("  %d sample rows" % (len(proc.stdout.splitlines()) - 1))

        bad = tmp / "bad.json"
        bad.write_text(json.dumps({"kind": "polynomial",
                                   "coefficients": []}))
        proc = run(["solve", str(bad)])
        print("  stderr: %s" % proc.stderr.strip())
        assert proc.returncode == 2


if __name__ == "__main__":
    main()
