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
from . import exact, graph, inference, models, rng
from .exact import *
from .graph import *
from .inference import *
from .models import *
from .rng import *

# The study layer is imported on first use of one of these names, or of the
# submodule ``projgraph.experiments`` itself (PEP 562, see ``__getattr__``), so
# that a process that only fits or checks neither compiles nor runs it.  This
# list is the study layer's one declaration of them: ``experiments.__all__``
# reads it, since reading that ``__all__`` here would load the layer.
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

# Each layer's ``__all__`` is the one declaration of its public names.
__all__ = [
    "__version__",
    *exact.__all__,
    *_STUDY_NAMES,
    *graph.__all__,
    *inference.__all__,
    *models.__all__,
    *rng.__all__,
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
