"""Exact inference and simulation for exponential-family random graph models.

The package demonstrates, by exhaustive enumeration at desk scale, how
marginalization under node subsampling interacts with model families
whose natural parameters may or may not transfer across graph sizes:
the proper subgraph likelihood (summing the population model over all
graphs consistent with the observation) stays valid either way, the
misspecified subgraph-sized likelihood does not, and estimator
consistency can be recovered both by growing a single graph and by
replicating fixed-size graphs.
"""

from ._version import __version__
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    MAX_ENUMERATION_CAP,
    PROJECTIVITY_TOLERANCE,
    EnumerationCapError,
    ExactDistribution,
    ProjectivityReport,
    build_distribution,
    default_theta_grid,
    enumerated_stats,
    exact_sample,
    expected_stats,
    log_normalizer,
    marginal_distribution,
    projectivity_check,
    resolve_enum_cap,
    sample_bernoulli,
    stat_covariance,
    tv_distance,
)
from .graph import (
    Graph,
    NodeSubset,
    complete_graph,
    degree_sequence,
    dyad_count,
    dyad_endpoints,
    dyad_index,
    edge_count,
    empty_graph,
    format_edge_list,
    graph_from_edges,
    graph_from_index,
    graph_to_index,
    induced_subgraph,
    is_connected,
    mean_degree,
    parse_edge_list,
    read_edge_list,
    triangle_count,
    write_edge_list,
)
from .inference import (
    FullGraph,
    InducedSubgraph,
    LikelihoodKind,
    MLEResult,
    ObservedData,
    Replicates,
    completion_log_likelihood,
    fisher_information,
    format_mle_csv,
    log_likelihood,
    mle,
    misspecified_log_likelihood,
    proper_log_likelihood,
)
from .models import (
    BERNOULLI_INVARIANT,
    BERNOULLI_OFFSET,
    EDGE_TRIANGLE,
    Family,
    ParamVector,
    StatsVector,
    edge_prob,
    log_unnormalized,
    model_spec,
    natural_params,
    register_family,
    registered_families,
    resolve_family_name,
    sufficient_stats,
    unregister_family,
)
from .rng import substream

# The study layer is imported on first use of one of these names, or of the
# submodule ``projgraph.experiments`` itself (PEP 562, see ``__getattr__``), so
# that a process that only fits or checks neither compiles nor runs it.
_STUDY_NAMES = (
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "ExperimentReport",
    "run_connectivity_threshold",
    "run_experiment",
    "run_growth_consistency",
    "run_replication_consistency",
    "run_subsample_bias",
)

__all__ = [
    "__version__",
    "DEFAULT_ENUMERATION_CAP",
    "MAX_ENUMERATION_CAP",
    "PROJECTIVITY_TOLERANCE",
    "EnumerationCapError",
    "ExactDistribution",
    "ProjectivityReport",
    "build_distribution",
    "default_theta_grid",
    "enumerated_stats",
    "exact_sample",
    "expected_stats",
    "log_normalizer",
    "marginal_distribution",
    "projectivity_check",
    "resolve_enum_cap",
    "sample_bernoulli",
    "stat_covariance",
    "tv_distance",
    *_STUDY_NAMES,
    "Graph",
    "NodeSubset",
    "complete_graph",
    "degree_sequence",
    "dyad_count",
    "dyad_endpoints",
    "dyad_index",
    "edge_count",
    "empty_graph",
    "format_edge_list",
    "graph_from_edges",
    "graph_from_index",
    "graph_to_index",
    "induced_subgraph",
    "is_connected",
    "mean_degree",
    "parse_edge_list",
    "read_edge_list",
    "triangle_count",
    "write_edge_list",
    "FullGraph",
    "InducedSubgraph",
    "LikelihoodKind",
    "MLEResult",
    "ObservedData",
    "Replicates",
    "completion_log_likelihood",
    "fisher_information",
    "format_mle_csv",
    "log_likelihood",
    "mle",
    "misspecified_log_likelihood",
    "proper_log_likelihood",
    "BERNOULLI_INVARIANT",
    "BERNOULLI_OFFSET",
    "EDGE_TRIANGLE",
    "Family",
    "ParamVector",
    "StatsVector",
    "edge_prob",
    "log_unnormalized",
    "model_spec",
    "natural_params",
    "register_family",
    "registered_families",
    "resolve_family_name",
    "sufficient_stats",
    "unregister_family",
    "substream",
]


def __getattr__(name: str):
    if name != "experiments" and name not in _STUDY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # loaded at interpreter start-up

    # import_module, not ``from . import``: that would ask this hook for
    # "experiments" again before loading it
    experiments = importlib.import_module(".experiments", __name__)
    if name == "experiments":
        return experiments
    value = globals()[name] = getattr(experiments, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
