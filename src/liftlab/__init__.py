"""liftlab: graph lifts, their spectra, and reproducible lift experiments."""

from .characterization import (
    CharacterizationReport,
    RootOfUnity,
    lambda_new_from_fibers,
    lambda_new_from_roots,
    lift_eigenvector,
    roots_of_unity,
    shift_matrix,
    verify_characterization,
)
from .errors import (
    CharacterizationError,
    FormatError,
    GenerationError,
    InvalidParameterError,
    LiftLabError,
    MatchingError,
    NumericalError,
    SearchError,
    SizeLimitError,
)
from .expansion import (
    CheegerReport,
    ConverseMixingReport,
    ExpansionReport,
    MixingReport,
    cheeger_check,
    combinatorial_expansion,
    converse_eml_alpha,
    eml_check,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    GrowthTrajectory,
    SigningSearchResult,
    SpotCheckReport,
    TrialRecord,
    exhaustive_signing_search,
    greedy_lift_growth,
    lemma_inequality_spot_check,
    resolve_base_graph,
    run_lift_trials,
    sign_sum_stats,
    splitmix64,
    trial_seed,
)
from .graphs import (
    RegularGraph,
    VertexSubset,
    adjacency_matrix,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_copies,
    edge_endpoints,
    edges_between,
    random_regular,
)
from .lifts import (
    LiftAssignment,
    LiftedGraph,
    ShiftAssignment,
    Signing,
    assignment_to_signing,
    build_lift,
    build_shift_lift,
    fiber,
    lift_vertex,
    random_k_lift,
    random_shift_lift,
    random_signing,
    shift_to_assignment,
    shift_to_signing,
    signed_adjacency,
    signing_to_assignment,
    signing_to_shifts,
    two_lift_block_matrix,
)
from .spectra import (
    HermitianMatrix,
    OldNewSplit,
    Spectrum,
    eig_hermitian,
    eig_symmetric,
    lambda_nontrivial,
    max_multiset_mismatch,
    rayleigh_quotient,
    spectral_radius,
    split_old_new,
)
from .toolkit import (
    DyadicDecomposition,
    discretize,
    discretize_pair,
    dyadic_decompose,
    dyadic_round,
    geometric_log_sum_bound,
    support,
)

__version__ = "0.1.0"
