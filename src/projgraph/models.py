"""Model families: sufficient statistics and natural-parameter maps.

A family fixes a sufficient-statistic vector s(g) and a natural-parameter
map eta(theta, n).  The distribution on graphs of size n is then
P(g) proportional to exp(eta(theta, n) . s(g)).  Three families ship:

* ``BernoulliInvariant`` — s = [edges], eta = theta (size-invariant);
  dyads are i.i.d. Bernoulli(logistic(theta)).
* ``BernoulliOffset`` — s = [edges], eta = theta - log n; the edge
  probability shrinks with n so the expected degree approaches
  exp(theta) for large n.
* ``EdgeTriangle`` — s = [edges, triangles], eta = theta
  (size-invariant); dyads are dependent whenever theta_2 != 0.

A registered :class:`Family` is the model: every function that takes a
``spec`` takes the ``Family`` object that :func:`model_spec` returns, and
reads its statistics and offset from it directly.  A family declares only
those; their number and whether its dyads are independent are derived from
them, and every statistic row is checked where it is built
(exchangeability, at the population size, in :mod:`projgraph.exact`).
New families can be added through :func:`register_family`.
Natural-parameter maps are restricted to per-component shifts of theta
(the offset applies to the edge term), which keeps theta-gradients equal
to eta-gradients throughout the inference code.

The statistic table of all graphs of a size is the rows of ``stats``, one
graph at a time (:func:`_statistics`).  The statistic functions shipped
here need no table: :mod:`projgraph.exact` codes their classes from their
edge and triangle counts, extended size by size by each star of the last
node (``exact._star_coding``).  The logistic is computed here, so
importing this module needs NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import Graph, dyad_count, edge_count, triangle_count

__all__ = [
    "Family",
    "ParamVector",
    "StatsVector",
    "register_family",
    "unregister_family",
    "registered_families",
    "resolve_family_name",
    "model_spec",
    "natural_params",
    "edge_prob",
    "sufficient_stats",
    "BERNOULLI_INVARIANT",
    "BERNOULLI_OFFSET",
    "EDGE_TRIANGLE",
]


@dataclass(frozen=True)
class StatsVector:
    """Ordered vector of sufficient statistics."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class ParamVector:
    """Parameter vector theta; the parameter space is all of R^dim."""

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        theta = tuple(map(float, self.theta))
        object.__setattr__(self, "theta", theta)
        if not theta:
            raise ValueError("parameter vector must be non-empty")
        if not all(map(math.isfinite, theta)):
            raise ValueError(f"parameter vector must be finite, got {theta}")

    def __len__(self) -> int:
        return len(self.theta)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=np.float64)


# Building a family computes its statistics on every graph of up to this many
# nodes (75 graphs in all).
_CHECKED_N = 4


@dataclass(frozen=True, eq=False)
class Family:
    """A model family, the ``spec`` that every layer takes.

    ``offset_edges`` fixes the natural-parameter map (see
    :func:`natural_params`).  ``stats`` maps a graph to its statistic
    tuple.  Everything else is derived: the 1-node graph's number of
    statistics sets ``stat_dim`` (see :func:`_statistics`), and
    ``bernoulli``, which unlocks the independent-dyad closed forms at any
    size, is whether ``stats`` is the shipped edge count
    :func:`_edge_statistics`.  Building a family computes its statistics on
    every graph of at most ``_CHECKED_N`` nodes (see :func:`_statistics`),
    so one that gives a graph a different number of statistics is refused
    there with ``ValueError``.

    Equality and hashing are by identity: a family is the model, and every
    cache keyed on it holds entries for that object alone.  So a family
    registered again under the same name never shares a cache entry with
    the one it replaced, and the statistic callables need not be hashable.
    """

    name: str
    offset_edges: bool
    stats: Callable[[Graph], tuple[float, ...]]
    stat_dim: int = field(init=False)
    bernoulli: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stat_dim", _statistics(self, 1).shape[1])
        object.__setattr__(self, "bernoulli", self.stats is _edge_statistics)
        for n in range(2, _CHECKED_N + 1):
            _statistics(self, n)


def _statistics(fam: Family, graphs: Graph | int) -> np.ndarray:
    """Float64 rows of ``fam.stats``, its one call: one graph's, or every graph's on
    ``graphs`` nodes by index; a count other than ``stat_dim``, or 0, is refused."""
    n, first, total = ((graphs.n, graphs.dyads, 1) if isinstance(graphs, Graph)
                       else (graphs, 0, 1 << dyad_count(graphs)))
    for k in range(total):
        values = fam.stats(Graph(n, first + k))
        if k == 0:  # while the family is built, its 1-node graph sets stat_dim
            table = np.empty((total, getattr(fam, "stat_dim", len(values))))
        if not len(values) == table.shape[1] > 0:
            raise ValueError(
                f"family {fam.name!r} must give every graph the same number of statistics, at "
                f"least one, but gives {sorted({table.shape[1], len(values)})}: "
                f"{len(values)} on graph {first + k} of {n} nodes")
        table[k] = values
    return table


def _edge_statistics(g: Graph) -> tuple[float]:
    """The edge count, the statistic of both shipped independent-dyad families."""
    return (float(edge_count(g)),)


def _edge_triangle_statistics(g: Graph) -> tuple[float, float]:
    """The edge and triangle counts, EdgeTriangle's statistics."""
    return (float(edge_count(g)), float(triangle_count(g)))


_REGISTRY: dict[str, Family] = {}

BERNOULLI_INVARIANT = "BernoulliInvariant"
BERNOULLI_OFFSET = "BernoulliOffset"
EDGE_TRIANGLE = "EdgeTriangle"


def register_family(family: Family) -> None:
    """Add a family to the registry; names must be unique."""
    if family.name in _REGISTRY:
        raise ValueError(f"family {family.name!r} is already registered")
    _REGISTRY[family.name] = family


def unregister_family(name: str) -> None:
    if name in (BERNOULLI_INVARIANT, BERNOULLI_OFFSET, EDGE_TRIANGLE):
        raise ValueError(f"built-in family {name!r} cannot be unregistered")
    if name not in _REGISTRY:
        raise ValueError(f"family {name!r} is not registered")
    del _REGISTRY[name]


def registered_families() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _kebab(name: str) -> str:
    out = []
    for idx, ch in enumerate(name):
        if ch.isupper() and idx > 0:
            out.append("-")
        out.append(ch.lower())
    return "".join(out)


def resolve_family_name(name: str) -> str:
    """Accept either the canonical CamelCase name or its kebab-case form."""
    if not isinstance(name, str):
        raise ValueError(f"family name must be a string, got {name!r}")
    if name in _REGISTRY:
        return name
    for canonical in _REGISTRY:
        if _kebab(canonical) == name:
            return canonical
    known = sorted(_REGISTRY) + sorted(_kebab(c) for c in _REGISTRY)
    raise ValueError(f"unknown family {name!r}; known families: {', '.join(known)}")


def model_spec(name: str) -> Family:
    """The registered family for a (possibly kebab-case) name.

    The returned object is the model itself, so it keeps its statistics
    and tables even if the name is later unregistered or registered again.
    """
    return _REGISTRY[resolve_family_name(name)]


def natural_params(spec: Family, theta: ParamVector, n: int) -> np.ndarray:
    """eta(theta, n) as a new float64 array: theta, with log n subtracted
    from the edge term of an offset family."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    if len(theta) != spec.stat_dim:
        raise ValueError(
            f"parameter vector has length {len(theta)}, expected {spec.stat_dim}"
        )
    eta = theta.as_array()
    if spec.offset_edges:
        eta[0] -= math.log(n)
    return eta


def edge_prob(spec: Family, theta: ParamVector, n: int) -> float:
    """Dyad probability logistic(eta_edge) for independent-dyad families.

    Computed as 1 / (1 + exp(-eta)), bit for bit SciPy's ``expit``; where
    exp(-eta) overflows the probability rounds to 0.
    """
    if not spec.bernoulli:
        raise ValueError(f"edge_prob is unsupported for family {spec.name!r}")
    eta = natural_params(spec, theta, n)[0]
    try:
        return 1.0 / (1.0 + math.exp(-eta))
    except OverflowError:
        return 0.0


def sufficient_stats(spec: Family, g: Graph) -> StatsVector:
    return StatsVector(values=tuple(_statistics(spec, g)[0]))


register_family(
    Family(
        name=BERNOULLI_INVARIANT,
        offset_edges=False,
        stats=_edge_statistics,
    )
)

register_family(
    Family(
        name=BERNOULLI_OFFSET,
        offset_edges=True,
        stats=_edge_statistics,
    )
)

register_family(
    Family(
        name=EDGE_TRIANGLE,
        offset_edges=False,
        stats=_edge_triangle_statistics,
    )
)
