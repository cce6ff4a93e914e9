"""Exact distributions over all graphs of a given size.

Everything here is exhaustive: a distribution is a table with one entry
per graph, indexed by the graph/integer bijection from
:mod:`projgraph.graph`.  Normalizers and moments depend on a graph only
through its statistics, so they run on the statistic histogram: the
distinct statistic vectors of all graphs of size n with the log of their
counts, built once per (family, n) from each graph's cached class code.
The projectivity check runs on grouped joint counts, built once per
(family, n, n_sub): for each group of n_sub-node prefix subgraphs, how
many completions to n nodes fall in each statistic class.  Log-space
arithmetic is used throughout (max-shifted logsumexp) so large parameter
values cannot overflow.
Independent-dyad families additionally get closed-form normalizers and
moments valid at any size.

Enumeration is capped at n <= 7 by default (2^21 graphs); the cap can be
raised to n = 8 explicitly, which emits a memory warning (the tables
then hold 2^28 entries).  Larger sizes are refused.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .graph import Graph, NodeSubset, dyad_count, dyad_index, graph_from_index
from .models import (
    Family,
    ModelSpec,
    NaturalParams,
    ParamVector,
    StatsVector,
    natural_params,
    edge_prob,
)

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "MAX_ENUMERATION_CAP",
    "EnumerationCapError",
    "resolve_enum_cap",
    "enumerated_stats",
    "log_normalizer",
    "ExactDistribution",
    "build_distribution",
    "expected_stats",
    "stat_covariance",
    "marginal_distribution",
    "tv_distance",
    "ProjectivityReport",
    "projectivity_check",
    "default_theta_grid",
    "PROJECTIVITY_TOLERANCE",
    "exact_sample",
    "sample_bernoulli",
]

DEFAULT_ENUMERATION_CAP = 7
MAX_ENUMERATION_CAP = 8
PROJECTIVITY_TOLERANCE = 1e-9

_CHUNK = 1 << 20


class EnumerationCapError(Exception):
    """Raised when a computation would enumerate more graphs than allowed."""


def resolve_enum_cap(n: int, enum_cap: Optional[int] = None) -> int:
    """Validate the requested cap and check ``n`` against it.

    Returns the effective cap.  Raises ``ValueError`` for an invalid cap
    request and :class:`EnumerationCapError` when ``n`` exceeds the cap.
    Enumerating at n = 8 is allowed only by explicit override and warns:
    the tables hold 2^28 entries (gigabytes of floats).
    """
    cap = DEFAULT_ENUMERATION_CAP if enum_cap is None else enum_cap
    if enum_cap is not None and not 1 <= enum_cap <= MAX_ENUMERATION_CAP:
        raise ValueError(
            f"enumeration cap must lie in [1, {MAX_ENUMERATION_CAP}], got {enum_cap}"
        )
    if n > cap:
        raise EnumerationCapError(
            f"n={n} exceeds the enumeration cap {cap}"
            + (
                f" (override up to {MAX_ENUMERATION_CAP} is possible but costly)"
                if cap < MAX_ENUMERATION_CAP
                else ""
            )
        )
    if n > DEFAULT_ENUMERATION_CAP:
        warnings.warn(
            f"enumerating all 2^{dyad_count(n)} graphs on {n} nodes allocates "
            "multi-gigabyte tables",
            ResourceWarning,
            stacklevel=2,
        )
    return cap


@lru_cache(maxsize=8)
def _enumerated_stats_cached(fam: Family, n: int) -> np.ndarray:
    if fam.bulk_stats is not None:
        table = fam.bulk_stats(n)
    else:
        total = 1 << dyad_count(n)
        table = np.empty((total, fam.stat_dim), dtype=np.float64)
        for k in range(total):
            table[k] = fam.stats(graph_from_index(n, k))
    if table.shape != (1 << dyad_count(n), fam.stat_dim):
        raise ValueError(
            f"bulk statistics for family {fam.name!r} have shape "
            f"{table.shape}, expected ({1 << dyad_count(n)}, {fam.stat_dim})"
        )
    table.flags.writeable = False
    return table


def enumerated_stats(
    spec: ModelSpec, n: int, enum_cap: Optional[int] = None
) -> np.ndarray:
    """Statistic table for all graphs of size n, row k = stats of graph k."""
    resolve_enum_cap(n, enum_cap)
    return _enumerated_stats_cached(spec.definition, n)


@lru_cache(maxsize=8)
def _class_codes(fam: Family, n: int) -> np.ndarray:
    """Rank of each graph's statistic vector among the distinct vectors of
    all graphs of size n, in the smallest unsigned dtype that holds it.

    Each column is coded by its sorted distinct values and the codes are
    packed into one int64 key, renumbered after every column so that it
    stays below the row count.  Distinct rows are ranked in lexicographic
    order.
    """
    table = _enumerated_stats_cached(fam, n)
    key = np.zeros(table.shape[0], dtype=np.int64)
    for column in table.T:
        values = np.unique(column)
        key = key * len(values) + np.searchsorted(values, column)
        key = np.searchsorted(np.unique(key), key)
    codes = key.astype(np.min_scalar_type(int(key.max())))
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=8)
def _statistic_histogram(fam: Family, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct statistic vectors of all graphs of size n, in lexicographic
    order (row c is class c of :func:`_class_codes`), and the log of each
    vector's count."""
    codes = _class_codes(fam, n)
    counts = np.bincount(codes)
    rows = np.empty(len(counts), dtype=np.int64)
    rows[codes] = np.arange(len(codes))
    points = _enumerated_stats_cached(fam, n)[rows].astype(np.float64)
    log_counts = np.log(counts)
    points.flags.writeable = False
    log_counts.flags.writeable = False
    return points, log_counts


def _moments(
    points: np.ndarray, log_counts: np.ndarray, eta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(log Z, mean, covariance) of the statistics under the weights
    count * exp(eta . s) over the histogram rows ``points``.

    The covariance is summed over centered rows: the raw second moment
    minus the squared mean cancels catastrophically near a vertex of the
    statistic hull.
    """
    kernel = log_counts + points @ eta
    log_z = float(logsumexp(kernel))
    w = np.exp(kernel - log_z)
    mu = w @ points
    centered = points - mu
    return log_z, mu, centered.T @ (centered * w[:, None])


def _graph_probs(points: np.ndarray, log_counts: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Probability of one graph in each histogram class under ``eta``."""
    energy = points @ eta
    return np.exp(energy - logsumexp(log_counts + energy))


@lru_cache(maxsize=8)
def _joint_counts(fam: Family, n: int, n_sub: int) -> tuple[np.ndarray, ...]:
    """Grouped joint (prefix subgraph, statistic class) counts.

    The prefix dyads are the low index bits, so graph k on n nodes has
    the prefix subgraph k mod 2^C(n_sub, 2).  Viewed as a matrix with one
    column per prefix subgraph y, the class codes of all graphs on n
    nodes hold in column y the classes of y's completions.  The marginal
    probability of y depends only on the multiset of that column and the
    n_sub-node model only on y's own class, so prefix subgraphs with equal
    sorted columns and equal classes form one group, for any family.

    Returns each group's multiplicity, its completion count per class at
    n (one row per group), and its class at n_sub.
    """
    codes = _class_codes(fam, n)
    sub_codes = _class_codes(fam, n_sub)
    classes = int(codes.max()) + 1
    # One row per prefix subgraph: its class, then its completions' classes.
    rows = np.empty((len(sub_codes), 1 + len(codes) // len(sub_codes)),
                    dtype=np.min_scalar_type(max(classes - 1, int(sub_codes.max()))))
    rows[:, 0] = sub_codes
    rows[:, 1:] = codes.reshape(-1, len(sub_codes)).T
    rows[:, 1:].sort(axis=1)
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, multiplicity = np.unique(key, return_index=True, return_counts=True)
    group = np.repeat(np.arange(len(first)), rows.shape[1] - 1)
    counts = np.bincount(group * classes + rows[first, 1:].ravel(),
                         minlength=len(first) * classes)
    return (
        multiplicity.astype(np.float64),
        counts.reshape(len(first), classes).astype(np.float64),
        rows[first, 0],
    )


def _enumerated_moments(
    spec: ModelSpec, theta: ParamVector, n: int, enum_cap: Optional[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    resolve_enum_cap(n, enum_cap)
    eta = natural_params(spec, theta, n).as_array()
    return _moments(*_statistic_histogram(spec.definition, n), eta)


def log_normalizer(
    spec: ModelSpec, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> float:
    """log sum over all graphs of exp(eta . s(g)).

    Independent-dyad families use the closed form C(n,2)*log(1+e^eta) at
    any size; other families enumerate (cap applies).
    """
    if spec.definition.bernoulli:
        eta = natural_params(spec, theta, n).eta[0]
        return float(dyad_count(n) * np.logaddexp(0.0, eta))
    return _enumerated_moments(spec, theta, n, enum_cap)[0]


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Full probability table over all graphs of size n for one (spec, theta).

    ``log_probs[k]`` is the log probability of ``graph_from_index(n, k)``;
    the table is normalized (logsumexp equals 0 up to rounding).
    """

    n: int
    spec: ModelSpec
    theta: ParamVector
    log_probs: np.ndarray
    log_z: float
    _cdf: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def _cumulative(self) -> np.ndarray:
        if self._cdf is None:
            object.__setattr__(self, "_cdf", np.cumsum(np.exp(self.log_probs)))
        return self._cdf


def build_distribution(
    spec: ModelSpec,
    theta: ParamVector,
    n: int,
    enum_cap: Optional[int] = None,
) -> ExactDistribution:
    """Enumerate the exact distribution table (cap applies to all families).

    The normalizer comes from the statistic histogram.  The per-graph
    table is filled in slices of ``_CHUNK`` rows, so no float copy of the
    whole statistic table is made.
    """
    log_z, _, _ = _enumerated_moments(spec, theta, n, enum_cap)
    eta = natural_params(spec, theta, n).as_array()
    stats = enumerated_stats(spec, n, enum_cap)
    log_probs = np.empty(stats.shape[0], dtype=np.float64)
    for lo in range(0, stats.shape[0], _CHUNK):
        log_probs[lo : lo + _CHUNK] = stats[lo : lo + _CHUNK] @ eta - log_z
    log_probs.flags.writeable = False
    return ExactDistribution(n=n, spec=spec, theta=theta, log_probs=log_probs, log_z=log_z)


def expected_stats(
    spec: ModelSpec, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> StatsVector:
    """Mean sufficient statistics under the model at (theta, n)."""
    if spec.definition.bernoulli:
        pi = edge_prob(spec, theta, n)
        return StatsVector(values=(dyad_count(n) * pi,))
    return StatsVector(values=tuple(_enumerated_moments(spec, theta, n, enum_cap)[1]))


def stat_covariance(
    spec: ModelSpec, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> np.ndarray:
    """Covariance matrix of the sufficient statistics at (theta, n)."""
    if spec.definition.bernoulli:
        pi = edge_prob(spec, theta, n)
        return np.array([[dyad_count(n) * pi * (1.0 - pi)]])
    return _enumerated_moments(spec, theta, n, enum_cap)[2]


def marginal_distribution(d: ExactDistribution, s: NodeSubset) -> np.ndarray:
    """Probability table of the induced subgraph on ``s`` under ``d``.

    Entry y of the result is the total probability of all size-n graphs
    whose induced subgraph on ``s`` has graph index y.  Prefix subsets
    reduce to a bit-mask because prefix dyads occupy the low index bits.
    """
    if s.parent_n != d.n:
        raise ValueError(
            f"invalid subset: parent_n={s.parent_n} does not match distribution n={d.n}"
        )
    m = len(s.members)
    sub_d = dyad_count(m)
    out = np.zeros(1 << sub_d, dtype=np.float64)
    total = d.log_probs.shape[0]
    prefix = s.members == tuple(range(m))
    pair_map = None
    if not prefix:
        pair_map = [
            (dyad_index(s.members[a], s.members[b]), dyad_index(a, b))
            for b in range(1, m)
            for a in range(b)
        ]
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        if prefix:
            sub = idx & ((1 << sub_d) - 1)
        else:
            sub = np.zeros(hi - lo, dtype=np.int64)
            for parent_k, sub_k in pair_map:
                sub |= ((idx >> parent_k) & 1) << sub_k
        out += np.bincount(sub, weights=np.exp(d.log_probs[lo:hi]), minlength=1 << sub_d)
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, half the L1 distance between the tables."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"probability tables differ in shape: {p.shape} vs {q.shape}")
    for name, table in (("first", p), ("second", q)):
        if abs(float(table.sum()) - 1.0) > 1e-8:
            raise ValueError(f"{name} table is not normalized (sum={table.sum()!r})")
    return float(0.5 * np.abs(p - q).sum())


@dataclass(frozen=True)
class ProjectivityReport:
    """Grid check of marginalization consistency between two sizes.

    A family is projective when, for every theta, the model on n_sub
    nodes coincides with the marginal of the model on n nodes and the
    natural parameters agree across sizes.  A grid can certify
    non-projectivity definitively, but projectivity only on the grid —
    the verdict wording reflects that asymmetry.
    """

    n: int
    n_sub: int
    theta_grid: tuple[ParamVector, ...]
    tv_per_theta: tuple[float, ...]
    param_equal: bool
    max_tv: float
    verdict: str

    def to_csv(self) -> str:
        dim = len(self.theta_grid[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"theta_{k + 1}" for k in range(dim)] + ["tv", "param_equal"])
        flag = "true" if self.param_equal else "false"
        for theta, tv in zip(self.theta_grid, self.tv_per_theta):
            writer.writerow([repr(v) for v in theta.theta] + [repr(tv), flag])
        writer.writerow(["max_tv", "verdict"])
        writer.writerow([repr(self.max_tv), self.verdict])
        return buf.getvalue()


def _product_grid(spec: ModelSpec, axis: Sequence[float]) -> tuple[ParamVector, ...]:
    """Product grid over ``axis`` per statistic component."""
    return tuple(
        ParamVector(theta=point)
        for point in itertools.product(axis, repeat=spec.stat_dim)
    )


def default_theta_grid(spec: ModelSpec) -> tuple[ParamVector, ...]:
    """Product grid over {-2, -1, 0, 1, 2} per statistic component."""
    return _product_grid(spec, (-2.0, -1.0, 0.0, 1.0, 2.0))


def projectivity_check(
    spec: ModelSpec,
    theta_grid: Optional[Sequence[ParamVector]] = None,
    *,
    n: int,
    n_sub: int,
    tolerance: float = PROJECTIVITY_TOLERANCE,
    enum_cap: Optional[int] = None,
) -> ProjectivityReport:
    """Compare the size-n_sub model with the size-n marginal over a theta grid.

    The marginal is taken on the first n_sub nodes.  Each theta costs one
    product of the grouped joint counts (see :func:`_joint_counts`) with
    the per-graph class probabilities at n; no per-graph table is built.
    """
    if not 1 <= n_sub < n:
        raise ValueError(f"need 1 <= n_sub < n, got n_sub={n_sub}, n={n}")
    grid = tuple(theta_grid) if theta_grid is not None else default_theta_grid(spec)
    if not grid:
        raise ValueError("theta grid must be non-empty")
    resolve_enum_cap(n, enum_cap)
    resolve_enum_cap(n_sub, enum_cap)
    fam = spec.definition
    multiplicity, counts, sub_class = _joint_counts(fam, n, n_sub)
    big, small = _statistic_histogram(fam, n), _statistic_histogram(fam, n_sub)
    tvs = []
    param_equal = True
    for theta in grid:
        params, sub_params = natural_params(spec, theta, n), natural_params(spec, theta, n_sub)
        marginal = multiplicity * (counts @ _graph_probs(*big, params.as_array()))
        model = multiplicity * _graph_probs(*small, sub_params.as_array())[sub_class]
        tvs.append(tv_distance(marginal, model))
        if sub_params.eta != params.eta:
            param_equal = False
    max_tv = max(tvs)
    projective = param_equal and max_tv <= tolerance
    return ProjectivityReport(
        n=n,
        n_sub=n_sub,
        theta_grid=grid,
        tv_per_theta=tuple(tvs),
        param_equal=param_equal,
        max_tv=max_tv,
        verdict="projective-on-grid" if projective else "non-projective",
    )


def exact_sample(d: ExactDistribution, rng: np.random.Generator) -> Graph:
    """Draw one graph from the table by inverse CDF; one uniform per draw."""
    cdf = d._cumulative()
    u = rng.random() * cdf[-1]
    k = int(np.searchsorted(cdf, u, side="right"))
    return graph_from_index(d.n, min(k, len(cdf) - 1))


def sample_bernoulli(n: int, pi: float, rng: np.random.Generator) -> Graph:
    """Graph on n nodes with each dyad independently present w.p. ``pi``."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {pi}")
    d = dyad_count(n)
    if d == 0:
        return Graph(n, 0)
    bits = rng.random(d) < pi
    dyads = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return Graph(n, dyads)
