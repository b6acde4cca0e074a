"""Exact sink-equilibrium analysis for finite normal-form games."""

from .dynamics import (
    BEST,
    BETTER,
    TransitionKernel,
    build_kernel,
    is_singleton_br,
)
from .errors import (
    CertificateNotFoundError,
    DegenerateWelfareError,
    GameAnalysisError,
    InvalidActionError,
    InvalidParametersError,
    NoEquilibriumError,
    NumericalFailureError,
    SchemaError,
    ValidationError,
    WitnessNotFoundError,
)
from .game import (
    JointAction,
    NormalFormGame,
    enumerate_nash,
    game_from_dict,
    game_to_dict,
    is_nash,
    load_game,
    optimal_profile,
    price_of_anarchy,
)
from .generators import (
    CoveringInstance,
    CoveringMonteCarloSpec,
    MonteCarloSummary,
    RadioInstance,
    RadioMonteCarloSpec,
    TrialResult,
    counterexample_game,
    covering_sinking_bound,
    expected_covering_misalignment,
    make_covering_game,
    make_radio_game,
    philox_rng,
    radio_sinking_bound,
    run_monte_carlo,
    sample_covering_instance,
    sample_radio_instance,
)
from .sinks import (
    SinkEquilibrium,
    price_of_sinking,
    sink_components,
    sink_equilibria,
    stationary_distributions,
)
from .smoothness import (
    BoundReport,
    MisalignmentReport,
    SinkWitness,
    SmoothnessCertificate,
    additive_sinking_bound,
    best_smoothness,
    better_response_witness,
    bound_report,
    check_smoothness,
    measure_misalignment,
    multiplicative_sinking_bound,
)

__version__ = "0.1.0"
