"""Build ProblemSpec objects from problem-file dicts.

Kept free of numpy imports so that the set-up timing child can import it
before ``import polyzeros`` without moving numpy's import cost out of the
timed region.
"""


def _complex(value):
    return complex(value[0], value[1])


def build_spec(pz, problem):
    """The ProblemSpec that ``polyzeros solve`` builds from this file.

    Only the keys the workloads use are read; the CLI parity check makes
    sure this agrees with the CLI's own parser.
    """
    polynomial = matrix = None
    if problem["kind"] == "polynomial":
        polynomial = pz.Polynomial(
            tuple(_complex(c) for c in problem["coefficients"])
        )
    else:
        matrix = pz.polynomial_matrix(
            [[[_complex(x) for x in row] for row in a]
             for a in problem["matrices"]]
        )
    seeds = tuple(_complex(s) for s in problem.get("seeds", ()))
    source = problem.get("seed_source", "external" if seeds else None)
    if source is None:
        source = "explore" if polynomial is not None else "diagonal"
    return pz.ProblemSpec(
        polynomial=polynomial,
        matrix=matrix,
        seed_source=pz.SeedSource(source),
        external_seeds=seeds,
        algorithm=pz.Algorithm(problem.get("algorithm", "detect")),
        delta=float(problem.get("delta", 0.1)),
        ecp=bool(problem.get("ecp", False)),
    )
