"""Workbench for exact-input computational problems.

Problems expose their inputs only through query oracles; general algorithms
are generator protocols that ask their queries in rounds, receive each
round's answers and return their output (a non-adaptive algorithm asks one
round); towers evaluate at finite stages.
Reductions transport algorithms and towers between problems, and the
certificate layer turns verified transport plus recorded classifications
into family-level exactness verdicts.
"""

from .core import (
    Ask,
    ConvergenceReport,
    GeneralAlgorithm,
    InputCatalog,
    OutputSpace,
    Problem,
    QueryFamily,
    QueryTrace,
    Tower,
    check_consistency,
    check_locality,
    constant_algorithm,
    evaluate_tower,
    finite_query_factorization,
    fixed_query_algorithm,
    probe_convergence,
    run_algorithm,
)
from .certificates import (
    FamilyRecord,
    HeightCertificate,
    HeightInterval,
    SharpnessVerdict,
    classify_family,
    exact_certificate,
    principal_ambient_check,
    recorded_certificate,
    sufficiency_package,
    tower_upper_bound,
    transfer_lower_bound,
    transport_saturation,
)
from .reductions import (
    Decoder,
    DecoderClass,
    PlanEntry,
    QueryPlan,
    Reduction,
    VerificationReport,
    compose,
    decoder_compose_class,
    identity_reduction,
    pullback_algorithm,
    pullback_tower,
    structural_feasibility,
    verify_reduction,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
