"""Exact distributions over all graphs of a given size.

Everything here is exhaustive, and runs on one class coding of the graphs
of size n, built once per (family, n): each graph's statistic class, the
distinct statistic vectors, and the log of their counts.  A graph's
probability depends on it only through its statistics, so a distribution
is one log probability per class, gathered through the class codes into a
per-graph table (indexed as in :mod:`projgraph.graph`) only when asked for.
The projectivity check runs on grouped joint counts, built once per
(family, n, n_sub): for each group of n_sub-node prefix subgraphs, how
many completions to n nodes fall in each statistic class; it evaluates
its whole theta grid in stacked passes.  Log-space arithmetic (max-shifted
logsumexp) is used throughout; a normalizer or table sum that overflows is refused.
Independent-dyad families additionally get closed-form normalizers and
moments valid at any size.

Enumeration is capped at n <= 7 by default (2^21 graphs); the cap can be
raised to n = 8 explicitly.  Every public function checks the cap itself,
and the memory warning comes where the cost is paid, when a class coding
above n = 7 is built, so once per coding a process builds: the statistic
table and the class codes then hold 2^28 rows, so coding the classes peaks
at about 810 MB.  That is also the peak of the projectivity check against
n_sub = 7, which keeps only the codes and groups the prefix subgraphs in
place.  Exact sampling stays refused above n = 7, since its CDF would hold
one float per graph.  Larger sizes are refused.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .graph import (Graph, NodeSubset, _cell, _csv_text, _dyad_map,
                    _relabellings, dyad_count, graph_from_index)
from .models import Family, ParamVector, StatsVector, _stats_table, edge_prob, natural_params
from .rng import _DRAW_CHUNK, _first_uniforms, _index_rows

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
# Rows the class coder and marginal_distribution read at a time: an int64 or
# intp array of a chunk then takes 512 KiB, which stays in cache.
_CODE_CHUNK = 1 << 16


class EnumerationCapError(Exception):
    """Raised when a computation would enumerate more graphs than allowed."""


def resolve_enum_cap(n: int, enum_cap: Optional[int] = None) -> int:
    """Validate the requested cap and check ``n`` against it.

    Returns the effective cap.  Raises ``ValueError`` for an invalid cap
    request and :class:`EnumerationCapError` when ``n`` exceeds the cap.
    Enumerating at n = 8 is allowed only by explicit override; its cost
    warning comes from :func:`_classes`, which pays it.
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
    return cap


def enumerated_stats(spec: Family, n: int, enum_cap: Optional[int] = None) -> np.ndarray:
    """Statistic table for all graphs of size n, row k = stats of graph k, in
    the family's dtype, read-only; regathered from the cached class coding.
    Each row is its class's representative, so rows equal but for the sign
    of a zero share one sign."""
    resolve_enum_cap(n, enum_cap)
    coding = _classes(spec, n)
    table = _gather(coding[1].astype(coding.dtype), coding[0])
    table.flags.writeable = False
    return table


def _row_word(table: np.ndarray) -> Optional[np.dtype]:
    """The unsigned word that holds one row of an unsigned-integer table
    whose rows take at most two bytes; None for any other table."""
    width = table.dtype.itemsize * table.shape[1]
    return np.dtype(f"u{width}") if table.dtype.kind == "u" and width <= 2 else None


def _gather(lut: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``lut[index]`` along ``lut``'s first axis, ``_CODE_CHUNK`` indices at a
    time, so that NumPy's intp copy of the indices never spans ``index``.
    Every index lies in ``lut``: "clip" changes none, and writes unbuffered."""
    out = np.empty(index.shape + lut.shape[1:], dtype=lut.dtype)
    for lo in range(0, len(index), _CODE_CHUNK):
        hi = lo + _CODE_CHUNK
        np.take(lut, index[lo:hi], axis=0, out=out[lo:hi], mode="clip")
    return out


def _code_table(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class codes of a statistic table's rows, its distinct rows in
    lexicographic order (row c is class c) as floats, and each row's count.

    An unsigned-integer table whose rows take at most two bytes (the
    built-in families') is keyed by each row's bytes read as one word,
    with no copy.  The words are counted ``_CODE_CHUNK`` rows at a time
    into ``max(word) + 1`` bins, the present words are decoded back into
    rows and ranked lexicographically into a lookup table, and the codes
    are gathered from it a chunk at a time, so no temporary spans the
    table.  Counts are integers and each code is one lookup, so the chunk
    size changes no bit of the result.
    Other tables are sorted stably by columns, the first column first, and
    a class starts at each row that differs from the one before it.
    """
    word = _row_word(table)
    if word is not None:
        key = np.ascontiguousarray(table).view(word).ravel()
        counts = np.zeros(int(key.max()) + 1, dtype=np.intp)
        for lo in range(0, len(key), _CODE_CHUNK):
            counts += np.bincount(key[lo:lo + _CODE_CHUNK], minlength=len(counts))
        present = np.flatnonzero(counts)
        # Word order is byte order, not row order (little-endian (e, t) is
        # e + 256 t), so the present rows are ranked by a lexsort.
        rows = present.astype(word).view(table.dtype).reshape(len(present), -1)
        order = np.lexsort(rows.T[::-1])
        lut = np.zeros(len(counts), dtype=np.min_scalar_type(len(present) - 1))
        lut[present[order]] = np.arange(len(present))
        return _gather(lut, key), rows[order].astype(np.float64), counts[present[order]]
    order = np.lexsort(table.T[::-1])
    ordered = table[order]
    starts = np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)]
    first = np.flatnonzero(starts)
    codes = np.empty(len(table), dtype=np.min_scalar_type(len(first) - 1))
    codes[order] = np.cumsum(starts) - 1
    return codes, ordered[first].astype(np.float64), np.diff(first, append=len(table))


class _Coding(tuple):
    """:func:`_classes`' ``(codes, points, log_counts)``; ``dtype`` is the table's."""

    dtype: np.dtype


# Modules whose frames the cost warning of _classes passes over.
_COMPUTING = frozenset(f"{__package__}.{name}" for name in
                       ("exact", "experiments", "graph", "inference", "models", "rng"))


@lru_cache(maxsize=8)
def _classes(fam: Family, n: int) -> _Coding:
    """The class coding of all graphs of size n, read-only: ``(codes,
    points, log_counts)`` of :func:`_code_table`, with the log of the
    counts.  Graph k's statistic row is ``points[codes[k]]``, and
    ``(points, log_counts)`` is the statistic histogram.  No table is kept.
    A coding above the default cap warns before it is built: a cache hit
    costs nothing, so it does not warn.  The warning names the first line
    outside the computing modules: the caller's, or the CLI's."""
    if n > DEFAULT_ENUMERATION_CAP:
        # warnings.warn's skip_file_prefixes needs Python 3.12.
        frame, level = sys._getframe(), 1
        while frame.f_back is not None and frame.f_globals.get("__name__") in _COMPUTING:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"enumerating all 2^{dyad_count(n)} graphs on {n} nodes allocates "
            "large tables: about 810 MB to code the classes at n=8",
            RuntimeWarning, stacklevel=level)
    table = _stats_table(fam, n)
    codes, points, counts = _code_table(table)
    coding = _Coding((codes, points, np.log(counts)))
    for array in coding:
        array.flags.writeable = False
    coding.dtype = table.dtype
    return coding


def _logsumexp(a: np.ndarray) -> float | np.ndarray:
    """log(sum(exp(a))) along the last axis of a finite array, by SciPy's
    ``logsumexp`` algorithm: the terms equal to the maximum are factored
    out of the sum, which adds the rest to their count through ``log1p``.
    A float for 1-D ``a``; else one value per row, each with the bits of
    its own 1-D call.

    SciPy's function adds array-API dispatch to every call, which costs
    several times the arithmetic on a histogram of about a hundred rows.
    """
    rows = a.T  # one column per row of ``a``, so that a value per row broadcasts
    top = np.maximum.reduce(rows, 0)
    at_top = rows == top
    rest = np.exp(rows - top)
    rest[at_top] = 0.0
    count = np.float64(np.count_nonzero(at_top, axis=0 if a.ndim > 1 else None))
    lse = np.log1p(np.add.reduce(rest, 0) / count) + np.log(count) + top
    return float(lse) if a.ndim == 1 else lse


def _mat_vec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for one vector ``x`` or each of a stack, with one matrix or a
    stack of them, by one product per item: each item of a stack gets the
    bits of a stack of one, where one matrix product across the stack would
    round differently."""
    return (a @ x[..., None])[..., 0]


def _vec_mat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a`` for each vector ``x`` of a stack, one vector-matrix product
    per item, with the bits of a stack of one (see :func:`_mat_vec`)."""
    return (x[..., None, :] @ a)[..., 0, :]


def _moments(
    points: np.ndarray, log_counts: np.ndarray, eta: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """(log Z, mean, covariance) of the statistics under the weights
    count * exp(eta . s) over the histogram rows ``points``.

    ``eta`` is one parameter vector, and log Z a float, or a stack of S of
    them, shape (S, dim), over one histogram or a stack of S equal-size
    histograms.  Each item of a stack gets the bits of a stack of one: its
    products are per-item products, and its reductions run along its own
    row.

    The covariance is summed over centered rows: the raw second moment
    minus the squared mean cancels catastrophically near a vertex of the
    statistic hull.  An overflow does not warn, as in
    :func:`_class_log_probs`: its log Z is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = log_counts + _mat_vec(points, eta)
        log_z = _logsumexp(kernel)
        w = np.exp(kernel.T - log_z).T
        mu = _vec_mat(w, points)
        centered = points - mu[..., None, :]
        return log_z, mu, centered.swapaxes(-1, -2) @ (centered * w[..., None])


def _class_log_probs(
    points: np.ndarray, log_counts: np.ndarray, eta: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """(log Z, log probability of one graph in each histogram class) under
    ``eta``; log Z has the bits of :func:`_moments`'s.  For a stack of G
    parameter vectors, shape (G, dim), log Z has one entry per vector and
    the log probabilities one row each, with the bits of its own call.  An
    overflow does not warn: its log Z or table sum is not finite, and refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _mat_vec(points, eta)
        log_z = _logsumexp(log_counts + energy)
        return log_z, energy - (log_z if eta.ndim == 1 else log_z[:, None])


def _refuse_infinite_log_z(log_z: float, theta: ParamVector) -> None:
    """Raise ``ValueError`` when ``log_z`` is not finite: an energy overflowed."""
    if not math.isfinite(log_z):
        raise ValueError(f"log normalizer at theta={theta.theta} is {_cell(log_z)}: "
                         "the parameters overflow")


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
    codes = _classes(fam, n)[0]
    sub_codes = _classes(fam, n_sub)[0]
    classes = int(codes.max()) + 1
    # One row per prefix subgraph: its class, then its completions' classes.
    rows = np.empty((len(sub_codes), 1 + len(codes) // len(sub_codes)),
                    dtype=np.min_scalar_type(max(classes - 1, int(sub_codes.max()))))
    rows[:, 0] = sub_codes
    rows[:, 1:] = codes.reshape(-1, len(sub_codes)).T
    # NumPy radix-sorts small integers under kind="stable", several times
    # faster than its default introsort.
    rows[:, 1:].sort(axis=1, kind="stable")
    # Sorting the rows as byte strings, in place, makes each group one run
    # of equal rows, with no copy of them.
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    key.sort()
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    group = np.repeat(np.arange(len(first)), rows.shape[1] - 1)
    counts = np.bincount(group * classes + rows[first, 1:].ravel(),
                         minlength=len(first) * classes)
    return (
        np.diff(first, append=len(key)).astype(np.float64),
        counts.reshape(len(first), classes).astype(np.float64),
        rows[first, 0],
    )


@lru_cache(maxsize=8)
def _exchangeable_at(fam: Family, n: int) -> bool:
    """Whether relabelling the nodes keeps every graph on n nodes in its
    statistic class, read from the class codes one block of
    :func:`~projgraph.graph._relabellings` at a time against its two
    relabellings, which generate every one."""
    codes = _classes(fam, n)[0]
    return all(np.array_equal(codes[image], codes[lo:lo + len(image)])
               for lo, *images in _relabellings(n) for image in images)


def _refuse_unexchangeable(spec: Family, n: int) -> None:
    """Raise ``ValueError`` unless relabelling the nodes leaves ``spec``'s
    statistics unchanged on the graphs of n nodes, the population size whose
    enumeration cap the caller has checked: the only size the prefix
    embedding reads.  The verdict is computed once per (family, n)."""
    if not _exchangeable_at(spec, n):
        raise ValueError(
            f"family {spec.name!r} is not exchangeable: its statistics change when two "
            "nodes swap labels, so an observed subgraph cannot stand for the population's "
            "first nodes in the proper likelihood")


def _completion_counts(spec: Family, y_sub: Graph, population_n: int) -> np.ndarray:
    """Number of population graphs completing y_sub in each statistic class
    at ``population_n``, whose enumeration cap the caller has checked.
    y_sub is embedded as the prefix of the population node set: its
    completions are the graph indices congruent to its index modulo
    2^C(n',2), for n' = y_sub.n (see :func:`_joint_counts`).  That stands
    for every placement of the observed nodes only when the family is
    exchangeable at ``population_n``; any other is refused with
    ``ValueError`` (see :func:`_refuse_unexchangeable`)."""
    _refuse_unexchangeable(spec, population_n)
    codes, points, _ = _classes(spec, population_n)
    return np.bincount(codes[y_sub.dyads :: 1 << dyad_count(y_sub.n)], minlength=len(points))


def log_normalizer(
    spec: Family, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> float:
    """log sum over all graphs of exp(eta . s(g)).

    Independent-dyad families use the closed form C(n,2)*log(1+e^eta) at
    any size; other families enumerate (cap applies).  A bad cap and a
    normalizer that is not finite are refused for every family.
    """
    resolve_enum_cap(1 if spec.bernoulli else n, enum_cap)
    eta = natural_params(spec, theta, n)
    if spec.bernoulli:
        # Python floats, so that an overflowing product is inf with no warning.
        log_z = dyad_count(n) * float(np.logaddexp(0.0, eta[0]))
    else:
        log_z = _class_log_probs(*_classes(spec, n)[1:], eta)[0]
    _refuse_infinite_log_z(log_z, theta)
    return log_z


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Exact distribution over all graphs of size n for one (spec, theta).

    ``class_log_probs[c]`` is the log probability of one graph in class c,
    and ``codes[k]`` the class of ``graph_from_index(n, k)`` (the cached
    class codes), so ``class_log_probs[codes]`` is the log probability of
    each graph.  ``probs()`` is gathered through ``codes``; the sampling
    CDF ``_cdf`` is summed on the first draw and kept, and refused above
    n = 7.
    """

    n: int
    spec: Family
    theta: ParamVector
    class_log_probs: np.ndarray
    codes: np.ndarray
    log_z: float

    def probs(self) -> np.ndarray:
        """Probability of each graph, by graph index."""
        return np.exp(self.class_log_probs)[self.codes]

    @cached_property
    def _cdf(self) -> np.ndarray:
        _refuse_exact_sampling(self.n)
        # Summed in place: a second per-graph array would double the
        # transient memory of every sampled distribution.
        cdf = self.probs()
        return np.cumsum(cdf, out=cdf)


def _refuse_exact_sampling(n: int) -> None:
    """Raise :class:`EnumerationCapError` for exact sampling above the
    default cap, whatever the enumeration cap: the sampling CDF holds one
    float per graph, 2 GiB at n = 8."""
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exact sampling is limited to n <= {DEFAULT_ENUMERATION_CAP}, got n={n}: "
            f"its CDF would hold 2^{dyad_count(n)} probabilities"
        )


def build_distribution(
    spec: Family,
    theta: ParamVector,
    n: int,
    enum_cap: Optional[int] = None,
) -> ExactDistribution:
    """The exact distribution over all graphs of size n (cap applies to all
    families): one log probability per statistic class, from the class
    coding, with no per-graph table.  A log normalizer that is not finite
    is refused with ``ValueError``."""
    resolve_enum_cap(n, enum_cap)
    codes, points, log_counts = _classes(spec, n)
    log_z, class_log_probs = _class_log_probs(points, log_counts,
                                              natural_params(spec, theta, n))
    _refuse_infinite_log_z(log_z, theta)
    class_log_probs.flags.writeable = False
    return ExactDistribution(n=n, spec=spec, theta=theta, class_log_probs=class_log_probs,
                             codes=codes, log_z=log_z)


def _stat_moments(spec: Family, theta: ParamVector, n: int, enum_cap: Optional[int]) -> tuple:
    """(mean, covariance) of the sufficient statistics at (theta, n): the
    binomial closed form for an independent-dyad family, else the moments
    of the class histogram, refused when the log normalizer is not finite."""
    resolve_enum_cap(1 if spec.bernoulli else n, enum_cap)
    if spec.bernoulli:
        pi = edge_prob(spec, theta, n)
        return (dyad_count(n) * pi,), np.array([[dyad_count(n) * pi * (1.0 - pi)]])
    log_z, mu, cov = _moments(*_classes(spec, n)[1:], natural_params(spec, theta, n))
    _refuse_infinite_log_z(log_z, theta)
    return mu, cov


def expected_stats(
    spec: Family, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> StatsVector:
    """Mean sufficient statistics under the model at (theta, n)."""
    return StatsVector(values=tuple(_stat_moments(spec, theta, n, enum_cap)[0]))


def stat_covariance(
    spec: Family, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> np.ndarray:
    """Covariance matrix of the sufficient statistics at (theta, n), the
    Fisher information of theta."""
    return _stat_moments(spec, theta, n, enum_cap)[1]


def marginal_distribution(d: ExactDistribution, s: NodeSubset) -> np.ndarray:
    """Probability table of the induced subgraph on ``s`` under ``d``.

    Entry y of the result is the total probability of all size-n graphs
    whose induced subgraph on ``s`` has graph index y.  Each maximal run of
    subgraph dyads whose parent dyads (:func:`~projgraph.graph._dyad_map`)
    are consecutive is read as one shifted and masked field of the graph
    index; a prefix subset is a single run, the low C(|s|, 2) bits.  Each
    entry is summed in graph-index order, so the chunk size the graphs are
    read in changes no bit of the result.
    """
    if s.parent_n != d.n:
        raise ValueError(
            f"invalid subset: parent_n={s.parent_n} does not match distribution n={d.n}"
        )
    dyads = _dyad_map(s.members)
    sub_d = len(dyads)
    starts = np.flatnonzero(np.diff(dyads, prepend=-2) != 1)
    runs = list(zip(starts.tolist(), dyads[starts].tolist(),
                    np.diff(starts, append=sub_d).tolist()))
    out = np.zeros(1 << sub_d, dtype=np.float64)
    total = len(d.codes)
    class_probs = np.exp(d.class_log_probs)
    for lo in range(0, total, _CODE_CHUNK):
        hi = min(lo + _CODE_CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        sub = np.zeros(hi - lo, dtype=np.int64)
        for sub_k, parent_k, length in runs:
            sub |= (idx >> parent_k & (1 << length) - 1) << sub_k
        np.add.at(out, sub, class_probs[d.codes[lo:hi]])
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, half the L1 distance between the tables.
    A table whose sum is off 1 by more than 1e-8, or is NaN, is refused."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"probability tables differ in shape: {p.shape} vs {q.shape}")
    _refuse_unnormalized([[p.sum(), q.sum()]])
    return float(0.5 * np.abs(p - q).sum())


def _refuse_unnormalized(sums) -> None:
    """Refuse the first table, by point, whose sum is NaN or off 1 by more
    than 1e-8; ``sums`` has one row of (first, second) table sums per point."""
    sums = np.asarray(sums, dtype=np.float64)
    off = ~(np.abs(sums - 1.0) <= 1e-8)
    if off.any():
        point, table = np.argwhere(off)[0]
        raise ValueError(f"{('first', 'second')[table]} table is not normalized "
                         f"(sum={_cell(sums[point, table])})")


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
        return _csv_text(
            [[f"theta_{k + 1}" for k in range(dim)] + ["tv", "param_equal"]]
            + [[*theta.theta, tv, self.param_equal]
               for theta, tv in zip(self.theta_grid, self.tv_per_theta)]
            + [["max_tv", "verdict"], [self.max_tv, self.verdict]]
        )


def _product_grid(spec: Family, axis: Sequence[float]) -> tuple[ParamVector, ...]:
    """Product grid over ``axis`` per statistic component."""
    return tuple(
        ParamVector(theta=point)
        for point in itertools.product(axis, repeat=spec.stat_dim)
    )


def default_theta_grid(spec: Family) -> tuple[ParamVector, ...]:
    """Product grid over {-2, -1, 0, 1, 2} per statistic component."""
    return _product_grid(spec, (-2.0, -1.0, 0.0, 1.0, 2.0))


def projectivity_check(
    spec: Family,
    theta_grid: Optional[Sequence[ParamVector]] = None,
    *,
    n: int,
    n_sub: int,
    enum_cap: Optional[int] = None,
) -> ProjectivityReport:
    """Compare the size-n_sub model with the size-n marginal over a theta grid.

    The marginal is taken on the first n_sub nodes, from the grouped joint
    counts (see :func:`_joint_counts`); no per-graph table is built.  The
    grid is evaluated in stacked passes, one block of points at a time, so
    that no (point, group) array outgrows ``_CHUNK`` entries: the natural
    parameters of every point at once, then per point the class
    probabilities at both sizes, the marginal (a product of the joint
    counts with the class probabilities at n) and its total variation
    distance from the model.  Each point gets the bits of its own
    evaluation: products are per point and sums run along each point's
    own row.  A table whose sum is off 1 by more than 1e-8, or is NaN, is
    refused as :func:`tv_distance` refuses it, at the first point and table
    in grid order.  The verdict is projective on the grid when the natural
    parameters agree at both sizes and no distance exceeds
    ``PROJECTIVITY_TOLERANCE``.
    """
    if not 1 <= n_sub < n:
        raise ValueError(f"need 1 <= n_sub < n, got n_sub={n_sub}, n={n}")
    grid = tuple(theta_grid) if theta_grid is not None else default_theta_grid(spec)
    if not grid:
        raise ValueError("theta grid must be non-empty")
    resolve_enum_cap(n, enum_cap)
    if set(map(len, grid)) != {spec.stat_dim}:
        length = next(len(theta) for theta in grid if len(theta) != spec.stat_dim)
        raise ValueError(f"parameter vector has length {length}, expected {spec.stat_dim}")
    thetas = np.array([theta.theta for theta in grid])
    # natural_params shifts theta per component; adding its value at -0.0
    # has the same bits, since x + -0.0 is x and x + -log n is x - log n.
    zero = ParamVector(theta=(-0.0,) * spec.stat_dim)
    etas = thetas + natural_params(spec, zero, n)
    sub_etas = thetas + natural_params(spec, zero, n_sub)
    multiplicity, counts, sub_class = _joint_counts(spec, n, n_sub)
    big, small = _classes(spec, n)[1:], _classes(spec, n_sub)[1:]
    block = max(1, _CHUNK // max(len(multiplicity), len(big[0])))
    tvs = []
    for lo in range(0, len(grid), block):
        marginal = multiplicity * _mat_vec(
            counts, np.exp(_class_log_probs(*big, etas[lo:lo + block])[1]))
        # ``take`` keeps the rows C-contiguous, so that each sums along its own row.
        model = multiplicity * np.exp(
            _class_log_probs(*small, sub_etas[lo:lo + block])[1]).take(sub_class, axis=1)
        _refuse_unnormalized(np.column_stack((marginal.sum(axis=1), model.sum(axis=1))))
        tvs += (0.5 * np.abs(marginal - model).sum(axis=1)).tolist()
    param_equal = np.array_equal(sub_etas, etas)
    max_tv = max(tvs)
    projective = param_equal and max_tv <= PROJECTIVITY_TOLERANCE
    return ProjectivityReport(
        n=n,
        n_sub=n_sub,
        theta_grid=grid,
        tv_per_theta=tuple(tvs),
        param_equal=param_equal,
        max_tv=max_tv,
        verdict="projective-on-grid" if projective else "non-projective",
    )


def _inverse_cdf(d: ExactDistribution, u):
    """Graph indices of ``d`` at uniforms ``u`` (a float or an array) by
    inverse CDF: the first index whose cumulative weight exceeds ``u``
    times the total, clipped to the last index."""
    cdf = d._cdf
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), len(cdf) - 1)


def exact_sample(d: ExactDistribution, rng: np.random.Generator) -> Graph:
    """Draw one graph from the table by inverse CDF.

    Consumes exactly one uniform from ``rng``, so a stream that serves one
    draw can be evaluated without building it (see :func:`_bulk_sample`).
    """
    return graph_from_index(d.n, _inverse_cdf(d, rng.random()))


def _bulk_indices(
    d: ExactDistribution,
    master_seed: int,
    prefix: tuple[int | str, ...],
    count: int,
    tails: Callable[[int, int], np.ndarray],
) -> Iterator[np.ndarray]:
    """Yield, ``_DRAW_CHUNK`` draws at a time, the graph indices that
    ``exact_sample(d, substream(master_seed, *prefix, *row))`` draws, with
    the same bits, for ``count`` rows; ``tails(lo, hi)`` gives rows lo..hi-1
    as a 2-D integer array whose parts lie below 2^32."""
    for lo in range(0, count, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, count)
        yield _inverse_cdf(d, _first_uniforms(master_seed, prefix, tails(lo, hi)))


def _bulk_sample(
    d: ExactDistribution,
    master_seed: int,
    prefix: tuple[int | str, ...],
    shape: tuple[int, ...],
) -> Iterator[Graph]:
    """Yield ``exact_sample(d, substream(master_seed, *prefix, *tail))`` for
    each ``tail`` in ``np.ndindex(shape)``, in that order, with the same
    bits (see :func:`_bulk_indices`)."""
    tails = partial(_index_rows, shape)
    for chunk in _bulk_indices(d, master_seed, prefix, math.prod(shape), tails):
        for k in chunk.tolist():
            yield Graph(d.n, k)


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
