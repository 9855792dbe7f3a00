"""Measurement, collapse and conditional prediction for finite-level composite systems."""

__version__ = "0.1.0"

from .composite import (
    AntiDiagonalIndex,
    anti_diagonals,
    lift,
    post_measurement_state,
    schmidt_rank,
    sum_observable,
)
from .conditional import (
    CertainPrediction,
    ConditionalDistribution,
    ConditionalExpectationTable,
    PairSpectrumFunction,
    PredictionSummary,
    SumConstraintReport,
    certain_prediction,
    conditional_distribution,
    conditional_prediction,
    epr_resolution_check,
    oracle_conditional,
    quantum_conditional_expectation,
    sequential_measure,
    verify_ce2,
    verify_theorem2,
    verify_tower_property,
)
from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    EprError,
    ImpossibleOutcomeError,
    NonHermitianError,
    ScenarioFormatError,
    ScenarioInvariantError,
    SpectrumCoverageError,
)
from .lab import (
    ChainReport,
    EmpiricalComparison,
    EprReport,
    Scenario,
    ShotRecord,
    SumBranchReport,
    build_pauli_scenario,
    build_scenario,
    compare_empirical,
    run_epr_analysis,
    sample_chain,
)
from .linalg import (
    Observable,
    commutator,
    extract_c,
    is_hermitian,
    tensor_product,
)
from .states import (
    DiagonalVanishingReport,
    OutcomeDistribution,
    PureState,
    SpectrumFunction,
    UncertaintyReport,
    audit_uncertainty,
    best_predictor,
    outcome_probabilities,
    prediction_error,
    verify_theorem1,
)
