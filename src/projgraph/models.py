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
reads its statistics, tables and offset from it directly.  New families
can be added through :func:`register_family`.  Natural-parameter maps are
restricted to per-component shifts of theta (the offset applies to the
edge term), which keeps theta-gradients equal to eta-gradients throughout
the inference code.

The built-in families also build the statistic table of all graphs of a
size in bulk, as small unsigned integers: edge counts by popcount, and
EdgeTriangle's table node by node from the table one size down.  The
logistic is computed here, so importing this module needs NumPy only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph import Graph, dyad_count, dyad_index, edge_count, triangle_count

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
    "log_unnormalized",
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


@dataclass(frozen=True, eq=False)
class Family:
    """A model family, the ``spec`` that every layer takes.

    ``offset_edges`` fixes the natural-parameter map (see
    :func:`natural_params`).  ``stats`` maps a graph to its statistic
    tuple.  ``bulk_stats``, when provided, returns the full
    (2^C(n,2), stat_dim) statistic table for all graphs of size n in
    graph-index order; families without it fall back to a per-graph loop
    during enumeration.  ``bernoulli`` marks single-edge-statistic
    families with independent dyads, which unlocks closed-form
    normalizers, marginals, and estimators at any size.

    Equality and hashing are by identity: a family is the model, and every
    cache keyed on it holds entries for that object alone.  So a family
    registered again under the same name never shares a cache entry with
    the one it replaced, and the statistic callables need not be hashable.
    """

    name: str
    stat_dim: int
    offset_edges: bool
    stats: Callable[[Graph], tuple[float, ...]]
    bulk_stats: Optional[Callable[[int], np.ndarray]] = None
    bernoulli: bool = False

    def __post_init__(self) -> None:
        if self.stat_dim < 1:
            raise ValueError("stat_dim must be >= 1")
        if self.bernoulli and self.stat_dim != 1:
            raise ValueError("bernoulli families must have a single edge statistic")


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
    return StatsVector(values=tuple(spec.stats(g)))


def log_unnormalized(spec: Family, theta: ParamVector, n: int, g: Graph) -> float:
    """Exponential-family kernel eta(theta, n) . s(g)."""
    if g.n != n:
        raise ValueError(f"graph has {g.n} nodes, expected {n}")
    eta = natural_params(spec, theta, n)
    s = sufficient_stats(spec, g).as_array()
    return float(eta @ s)


_ENUM_CHUNK = 1 << 20


def _bulk_edge_counts(n: int) -> np.ndarray:
    total = 1 << dyad_count(n)
    out = np.empty((total, 1), dtype=np.uint8)
    for lo in range(0, total, _ENUM_CHUNK):
        hi = min(lo + _ENUM_CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.uint64)
        out[lo:hi, 0] = np.bitwise_count(idx).astype(np.uint8)
    return out


def _bulk_edge_triangle_counts(n: int) -> np.ndarray:
    """(edges, triangles) of every graph on n nodes, built from the table on
    n - 1 nodes.  Graph k is a prefix p, its low C(n-1, 2) bits, plus the
    star S of dyads (i, n-1) in its top n - 1 bits, so its edges are
    e(p) + |S| and its triangles t(p) + popcount(p & M_S), where M_S masks
    the dyads with both ends in S."""
    if n == 1:
        return np.zeros((1, 2), dtype=np.uint8)
    prefix = _bulk_edge_triangle_counts(n - 1)
    edges, triangles = prefix.T.copy()
    p = np.arange(len(prefix), dtype=np.min_scalar_type(len(prefix) - 1))
    out = np.empty((1 << (n - 1), len(prefix), 2), dtype=np.uint8)
    for star in range(1 << (n - 1)):
        ends = [i for i in range(n - 1) if star >> i & 1]
        inside = sum(1 << dyad_index(i, j) for i, j in itertools.combinations(ends, 2))
        np.add(edges, len(ends), out=out[star, :, 0])
        np.add(triangles, np.bitwise_count(p & p.dtype.type(inside)), out=out[star, :, 1])
    return out.reshape(-1, 2)


register_family(
    Family(
        name=BERNOULLI_INVARIANT,
        stat_dim=1,
        offset_edges=False,
        stats=lambda g: (float(edge_count(g)),),
        bulk_stats=_bulk_edge_counts,
        bernoulli=True,
    )
)

register_family(
    Family(
        name=BERNOULLI_OFFSET,
        stat_dim=1,
        offset_edges=True,
        stats=lambda g: (float(edge_count(g)),),
        bulk_stats=_bulk_edge_counts,
        bernoulli=True,
    )
)

register_family(
    Family(
        name=EDGE_TRIANGLE,
        stat_dim=2,
        offset_edges=False,
        stats=lambda g: (float(edge_count(g)), float(triangle_count(g))),
        bulk_stats=_bulk_edge_triangle_counts,
        bernoulli=False,
    )
)
