"""Print the SHA-256 of every report of some benchmark workloads.

    python3 tools/report_digests.py real-scan 7,301,9101
    python3 tools/report_digests.py matrix-eig,real-scan 7
    python3 tools/report_digests.py all 7

Run from the repository root; the package is imported from ./src and the
problem lists from perfbench/. The first argument names one workload, a
comma-separated list of them, or ``all``. Each line reads
``workload seed/problem sha256``, where the hash is taken over
``json.dumps(report_to_dict(run_pipeline(spec)), indent=2, sort_keys=True)``,
the bytes the benchmark times. Run it on two checkouts and diff the output
to see which reports a change moves. Standard error gets one line per
workload and seed, ``workload seed: N report bytes``, the size of those
texts in all, which shows how much a change grows or trims the encoding
the benchmark times.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import polyzeros as pz  # noqa: E402
import workloads  # noqa: E402
from specs import build_spec  # noqa: E402


def main(argv):
    usage = ("usage: report_digests.py {all|WORKLOAD[,WORKLOAD...]} "
             "SEED[,SEED...]\nworkloads: %s" % ",".join(workloads.WORKLOADS))
    if len(argv) != 2:
        sys.exit(usage)
    chosen = (workloads.WORKLOADS if argv[0] == "all"
              else argv[0].split(","))
    if not set(chosen) <= set(workloads.WORKLOADS):
        sys.exit(usage)
    seeds = [int(s) for s in argv[1].split(",")]
    for workload in chosen:
        for seed in seeds:
            size = 0
            for problem in workloads.generate(workload, seed):
                report = pz.run_pipeline(build_spec(pz, problem.file))
                text = json.dumps(pz.report_to_dict(report), indent=2,
                                  sort_keys=True).encode()
                size += len(text)
                print("%s %d/%s %s" % (workload, seed, problem.name,
                                       hashlib.sha256(text).hexdigest()))
            print("%s %d: %d report bytes" % (workload, seed, size),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
