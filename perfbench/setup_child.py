"""Set-up timing child: import polyzeros and build every ProblemSpec.

    python3 setup_child.py SRC PROBLEMS_JSON

Prints the seconds from just before ``import polyzeros`` to the last spec
built. Run in a fresh interpreter so the import is paid in full; numpy is
not imported before the clock starts.
"""

import json
import sys
import time

from specs import build_spec


def main():
    src, data = sys.argv[1], sys.argv[2]
    with open(data) as handle:
        problems = json.load(handle)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import polyzeros

    for problem in problems:
        build_spec(polyzeros, problem)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
