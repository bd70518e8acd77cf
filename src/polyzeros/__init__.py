"""Zeros of polynomials and polynomial matrices via Pade-function iterations.

The Pade function p = f / (-f') has slope -1/nu at a nu-fold zero, which
turns multiplicity detection into a family of fixed-point iterations; the
derived test polynomials, interpolation lists, and accompanying-matrix
machinery extend the idea to eigenvalue problems.
"""

from .cli import emit_plot_data, main, parse_problem_file, problem_spec_to_dict
from .ecp import (
    EcpList,
    GershgorinDisk,
    SumControl,
    build_ecp_list,
    ecp_matrix,
    evolve,
    evolve_until,
    gershgorin_enclosures,
    rayleigh_iterate,
    rayleigh_iterate_all,
    reduced_pade_iterate,
    reduced_pade_iterate_all,
    sum_control,
)
from .errors import (
    DerivativeUnderflowError,
    EvolutionCollisionError,
    FlatSecantError,
    HalleyDenominatorError,
    InterpolationValueError,
    NoMultiplicityError,
    NotAnEigenvalueError,
    OriginSeedError,
    PolyzerosError,
    ProbeOverflowError,
    ProblemFormatError,
    RayleighDenominatorError,
    RealScanError,
    SampleConditioningError,
    ZeroPolynomialError,
)
from .explore import (
    Bracket,
    CompanionSeeds,
    ExplorationReport,
    accelerated_regula_falsi,
    companion_seed_all,
    regula_falsi_step,
    scan_sign_changes,
)
from .matpoly import (
    DiagonalSeedReport,
    EigenvectorBundle,
    PolynomialMatrix,
    characteristic_polynomial,
    diagonal_seeds,
    eigenvectors_all,
    eval_matrix,
    extract_eigenvectors,
    left_eigenvectors,
    polynomial_matrix,
    singular_ranks_all,
)
from .pipeline import (
    Algorithm,
    EcpDiagnostics,
    EigenpairRecord,
    ProblemSpec,
    RootRecord,
    RootReport,
    SeedSource,
    ecp_diagnostics,
    ecp_to_dict,
    report_to_dict,
    run_pipeline,
)
from .poly import (
    Polynomial,
    coefficient_scale,
    deflate_horner,
    effective_degree,
    evaluate,
    evaluate_all,
    fujiwara_root_bound,
    halley_eval,
    pade_eval,
    polynomial_from_roots,
    relative_residual,
    relative_residual_all,
    test_polynomial,
)
from .refine import (
    ClusterVerdict,
    IterationTrace,
    MultiplicityVerdict,
    TraceRow,
    TraceStatus,
    count_zeros,
    count_zeros_all,
    detect_clusters,
    detect_multiplicity,
    iterate_halley,
    iterate_halley_all,
    iterate_pade,
    iterate_pade_all,
    iterate_test_nu,
    same_root,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
