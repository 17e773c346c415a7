"""Recursive max-linear models on DAGs.

Model construction and max-times path analysis, tail dependence matrices,
heavy-tailed simulation, and the identifiability machinery that recovers or
enumerates standardized coefficient matrices from tail dependence
information.
"""

from .errors import (
    CycleError,
    EnumerationCapError,
    FormatError,
    IllConditionedError,
    MaxlinError,
    NotRealizableError,
    PatternMismatchError,
    TailSampleError,
    ValidationError,
)
from .generate import random_dag, random_polytree, random_weighted_model
from .graph import (
    AncestralSets,
    CausalOrdering,
    Dag,
    ancestral_sets,
    causal_orderings,
    dag_from_reachability,
    is_reachability_matrix,
    reachability_matrix,
    transitive_reduction,
    validate_causal_ordering,
)
from .identify import (
    EquivalenceReport,
    IdentifiedModel,
    enumerate_all,
    enumerate_all_rmwm,
    initial_bijection,
    ordering_from_initials,
    recover_from_ordering,
    recover_from_reachability,
    recover_rmwm_from_initials,
    rmwm_equivalence_constraints,
)
from .mlcm import (
    WeightedModel,
    destandardize,
    homogeneous_model,
    is_mlcm,
    is_rmwm_mlcm,
    max_weighted_triple,
    minimum_ml_dag,
    mlcm_from_weights,
    model_from_std_mlcm,
    sign_pattern,
    standardize,
)
from .simulate import (
    NoiseSpec,
    SampleBlock,
    empirical_tdm,
    limit_cdf,
    sample,
    scaled_block_maxima,
    unit_frechet_points,
)
from .taildep import (
    MuRepresentation,
    RmwmTdmCheck,
    check_rmwm_tdm,
    chi_complement_graph,
    clique_initial_filter,
    independence_pattern_check,
    lambda_coefficients,
    lambda_representation,
    lowest_common_ancestors,
    maximum_chi_cliques,
    mu_coefficients,
    mu_representation,
    tdm_from_std_mlcm,
    validate_tdm,
)
from .tolerance import DEFAULT_TOL, ZERO_TOL, Verdict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
