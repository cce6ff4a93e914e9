"""Likelihoods and maximum likelihood estimation.

Observed data comes in three shapes: a fully observed graph, an induced
subgraph with known population size, or a list of independent same-size
replicate graphs.  For subgraph data two likelihoods are available:

* proper — the total model probability of every population graph whose
  induced subgraph equals the observation, valid under an ignorable
  node-sampling design (the uniform-random-subset design used by the
  experiment harness is ignorable, so no design factor is needed);
* misspecified — the subgraph-sized model evaluated at the observation,
  which coincides with the proper likelihood only for families whose
  marginals are size-consistent.

Independent-dyad families admit closed forms everywhere (the proper
likelihood is binomial in the population edge probability).  Other
families are handled by exhaustive enumeration: the proper likelihood
sums the population model over all completions of the unobserved dyads.
Normalizers, moments and the solver run on statistic histograms (the
distinct statistic vectors with their counts) of the population graphs
and of the observed event, never on per-graph tables.
Estimation uses closed-form logit estimators where available.  Elsewhere
one damped Newton ascent maximizes the log probability of the observed
event: the completion set of a subgraph, or, for independent same-size
graphs, one graph at their mean statistics, where the ascent solves the
moment equation.  Data with no finite maximizer (for independent graphs,
mean statistics on the boundary of the attainable range) are reported
with ``boundary=True``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .exact import (
    _class_codes,
    _logsumexp,
    _moments,
    _statistic_histogram,
    log_normalizer,
    resolve_enum_cap,
    stat_covariance,
)
from .graph import Graph, dyad_count, edge_count
from .models import (
    Family,
    ModelSpec,
    ParamVector,
    natural_params,
    sufficient_stats,
)

__all__ = [
    "FullGraph",
    "InducedSubgraph",
    "Replicates",
    "ObservedData",
    "LikelihoodKind",
    "MLEResult",
    "proper_log_likelihood",
    "completion_log_likelihood",
    "misspecified_log_likelihood",
    "log_likelihood",
    "mle",
    "fisher_information",
    "mle_csv_header",
    "mle_csv_row",
    "format_mle_csv",
    "NEWTON_TOLERANCE",
    "NEWTON_MAX_ITERATIONS",
]

NEWTON_TOLERANCE = 1e-10
NEWTON_MAX_ITERATIONS = 100
_DIVERGENCE_NORM = 25.0
_SATURATION_TOL = 1e-10
_RECESSION_VALUE_TOL = 1e-9
_VALUE_SLACK = 1e-15
_HULL_INTERIOR_TOL = 1e-9


@dataclass(frozen=True)
class FullGraph:
    """A completely observed graph."""

    graph: Graph


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph observed from a population of known size."""

    subgraph: Graph
    population_n: int

    def __post_init__(self) -> None:
        if self.subgraph.n >= self.population_n:
            raise ValueError(
                f"subgraph size {self.subgraph.n} must be smaller than "
                f"population size {self.population_n}"
            )


@dataclass(frozen=True)
class Replicates:
    """Independent graphs of one common size."""

    graphs: tuple[Graph, ...]

    def __post_init__(self) -> None:
        graphs = tuple(self.graphs)
        object.__setattr__(self, "graphs", graphs)
        if not graphs:
            raise ValueError("replicate list must be non-empty")
        if any(g.n != graphs[0].n for g in graphs):
            raise ValueError("replicate graphs must share one node count")

    @property
    def n(self) -> int:
        return self.graphs[0].n


ObservedData = Union[FullGraph, InducedSubgraph, Replicates]


class LikelihoodKind(str, Enum):
    PROPER = "proper"
    MISSPECIFIED = "misspecified"


@dataclass(frozen=True)
class MLEResult:
    """Maximum likelihood estimate with convergence diagnostics.

    ``theta_hat`` entries are +/-inf (direction known) or nan when the
    data is boundary — no finite maximizer exists and ``std_err`` is
    absent.  ``converged`` implies the moment-equation (or gradient)
    residual dropped below tolerance; boundary results never converge.
    """

    theta_hat: tuple[float, ...]
    std_err: Optional[tuple[float, ...]]
    log_lik: float
    converged: bool
    boundary: bool
    iterations: int


def _bernoulli_log_pq(eta: float) -> tuple[float, float]:
    """(log pi, log(1-pi)) for pi = logistic(eta), computed stably."""
    return -float(np.logaddexp(0.0, -eta)), -float(np.logaddexp(0.0, eta))


def proper_log_likelihood(
    spec: ModelSpec,
    theta: ParamVector,
    y_sub: Graph,
    population_n: int,
    enum_cap: Optional[int] = None,
) -> float:
    """Log total probability of all population graphs consistent with y_sub.

    Independent-dyad families marginalize dyad-wise, giving a binomial
    closed form in the population edge probability; other families sum
    the population model over all completions of the unobserved dyads.
    """
    if y_sub.n >= population_n:
        raise ValueError(
            f"subgraph size {y_sub.n} must be smaller than population size {population_n}"
        )
    if spec.definition.bernoulli:
        eta = natural_params(spec, theta, population_n).eta[0]
        log_p, log_q = _bernoulli_log_pq(eta)
        m = edge_count(y_sub)
        d = dyad_count(y_sub.n)
        return m * log_p + (d - m) * log_q
    return completion_log_likelihood(spec, theta, y_sub, population_n, enum_cap)


def completion_log_likelihood(
    spec: ModelSpec,
    theta: ParamVector,
    y_sub: Graph,
    population_n: int,
    enum_cap: Optional[int] = None,
) -> float:
    """Proper log likelihood by explicit enumeration of completions.

    Valid for every family; ``proper_log_likelihood`` routes here for
    families without closed-form marginals.  All shipped families are
    exchangeable, so the observed nodes may be embedded as the prefix of
    the population node set: completions are then exactly the graph
    indices congruent to the observed index modulo 2^C(n',2).
    """
    if y_sub.n >= population_n:
        raise ValueError(
            f"subgraph size {y_sub.n} must be smaller than population size {population_n}"
        )
    comp = _completion_histogram(spec, y_sub, population_n, enum_cap)
    eta = natural_params(spec, theta, population_n).as_array()
    log_z = log_normalizer(spec, theta, population_n, enum_cap)
    return _moments(*comp, eta)[0] - log_z


def misspecified_log_likelihood(
    spec: ModelSpec,
    theta: ParamVector,
    y_sub: Graph,
    enum_cap: Optional[int] = None,
) -> float:
    """Log probability of y_sub under the subgraph-sized model."""
    rows = [sufficient_stats(spec, y_sub).as_array()]
    return _independent_log_likelihood(spec, theta, y_sub.n, rows, enum_cap)


def _independent_log_likelihood(
    spec: ModelSpec,
    theta: ParamVector,
    n: int,
    rows: Sequence[np.ndarray],
    enum_cap: Optional[int],
) -> float:
    """Log likelihood of independent size-n graphs with statistic ``rows``."""
    eta = natural_params(spec, theta, n).as_array()
    total = sum(float(eta @ row) for row in rows)
    return total - len(rows) * log_normalizer(spec, theta, n, enum_cap)


def log_likelihood(
    spec: ModelSpec,
    theta: ParamVector,
    data: ObservedData,
    kind: LikelihoodKind = LikelihoodKind.PROPER,
    enum_cap: Optional[int] = None,
) -> float:
    """Log likelihood of the observed data under the selected kind."""
    kind = LikelihoodKind(kind)
    if isinstance(data, InducedSubgraph):
        if kind is LikelihoodKind.PROPER:
            return proper_log_likelihood(
                spec, theta, data.subgraph, data.population_n, enum_cap
            )
        return misspecified_log_likelihood(spec, theta, data.subgraph, enum_cap)
    if kind is not LikelihoodKind.PROPER:
        raise ValueError("misspecified likelihood applies only to induced-subgraph data")
    if isinstance(data, FullGraph):
        rows = [sufficient_stats(spec, data.graph).as_array()]
        return _independent_log_likelihood(spec, theta, data.graph.n, rows, enum_cap)
    if isinstance(data, Replicates):
        rows = [sufficient_stats(spec, g).as_array() for g in data.graphs]
        return _independent_log_likelihood(spec, theta, data.n, rows, enum_cap)
    raise TypeError(f"unsupported observed-data type {type(data).__name__}")


def fisher_information(
    spec: ModelSpec, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> np.ndarray:
    """Fisher information = covariance of the sufficient statistics."""
    return stat_covariance(spec, theta, n, enum_cap)


@lru_cache(maxsize=32)
def _attainable_hull(fam: Family, n: int) -> tuple:
    """Interior-test data for the attainable statistic set of a family at n.

    Returns ("interval", lo, hi) for one-dimensional statistics and
    ("hull", equations) otherwise; ("none",) marks a degenerate point set
    with empty interior (every observation is then boundary).  Callers
    validate the enumeration cap before reaching this helper.
    """
    points, _ = _statistic_histogram(fam, n)
    if points.shape[1] == 1:
        return ("interval", float(points.min()), float(points.max()))
    try:
        hull = ConvexHull(points)
    except QhullError:
        return ("none",)
    equations = hull.equations.copy()
    equations.flags.writeable = False
    return ("hull", equations)


def _stats_interior(
    spec: ModelSpec, n: int, s: np.ndarray, enum_cap: Optional[int] = None
) -> bool:
    """True iff s lies strictly inside the hull of attainable statistics."""
    resolve_enum_cap(n, enum_cap)
    data = _attainable_hull(spec.definition, n)
    if data[0] == "interval":
        _, lo, hi = data
        return lo < float(s[0]) < hi
    if data[0] == "none":
        return False
    _, equations = data
    slack = equations[:, :-1] @ s + equations[:, -1]
    return bool(np.max(slack) < -_HULL_INTERIOR_TOL)


_Histogram = tuple[np.ndarray, np.ndarray]


def _completion_histogram(
    spec: ModelSpec,
    y_sub: Graph,
    population_n: int,
    enum_cap: Optional[int],
) -> _Histogram:
    """Statistic histogram of the population graphs completing y_sub, with
    y_sub embedded as the prefix (see ``completion_log_likelihood``).

    Its rows are the population histogram's rows that some completion
    reaches, in the same order.
    """
    resolve_enum_cap(population_n, enum_cap)
    points, _ = _statistic_histogram(spec.definition, population_n)
    sub_d = dyad_count(y_sub.n)
    free_d = dyad_count(population_n) - sub_d
    idx = y_sub.dyads + (np.arange(1 << free_d, dtype=np.int64) << sub_d)
    counts = np.bincount(_class_codes(spec.definition, population_n)[idx],
                         minlength=len(points))
    present = counts > 0
    return points[present], np.log(counts[present])


def _log_ratio_parts(
    comp: _Histogram, full: _Histogram, eta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, gradient, Hessian) of eta -> log P_eta(completion set)."""
    lse_c, mu_c, cov_c = _moments(*comp, eta)
    lse_f, mu_f, cov_f = _moments(*full, eta)
    return lse_c - lse_f, mu_c - mu_f, cov_c - cov_f


def _recession_sup(comp: _Histogram, full: _Histogram) -> float:
    """Best limit of the log probability ratio along coordinate rays.

    As eta_j -> ±inf the ratio lse(comp) − lse(full) tends to −inf unless
    the completion rows attain the full histogram's extreme of statistic j,
    in which case it tends to the same ratio objective restricted to the
    extreme face with coordinate j removed.  The supremum of each limit
    family is again interior-or-recession, handled recursively; −inf is
    returned when no face is attainable from the completion set.
    """
    (comp_points, comp_lc), (full_points, full_lc) = comp, full
    dim = full_points.shape[1]
    best = -math.inf
    for j in range(dim):
        for extreme in (np.max, np.min):
            target = float(extreme(full_points[:, j]))
            if float(extreme(comp_points[:, j])) != target:
                continue
            on_c = comp_points[:, j] == target
            on_f = full_points[:, j] == target
            if dim == 1:
                cand = _logsumexp(comp_lc[on_c]) - _logsumexp(full_lc[on_f])
            else:
                comp_face = (np.delete(comp_points[on_c], j, axis=1), comp_lc[on_c])
                full_face = (np.delete(full_points[on_f], j, axis=1), full_lc[on_f])
                _, value, _, _, _ = _ascend_log_ratio(
                    comp_face, full_face, _DIVERGENCE_NORM
                )
                cand = max(value, _recession_sup(comp_face, full_face))
            best = max(best, cand)
    return best


def _ascend_log_ratio(
    comp: _Histogram, full: _Histogram, radius: float
) -> tuple[np.ndarray, float, bool, bool, int]:
    """Damped ascent of eta -> log P_eta(completion set) from 0.

    Returns (eta, value, converged, boundary, iterations).  For a
    completion set of more than one statistic class the objective is a
    log probability of an event, not an exponential-family log
    likelihood, so no exact pre-iteration boundary test exists; a
    supremum at infinity is detected by three signs instead.
    Saturation: the probability of a strict subset of graphs stays below
    1 at every finite eta, so a value within rounding distance of zero
    certifies divergence (the gradient underflows on such a plateau, so
    this is tested before stationarity).  Recession dominance: a
    stationary point is accepted only if it beats every attainable
    coordinate-face limit of the objective, else the apparent stall is a
    ridge running to infinity.  Radius: iterates whose max norm exceeds
    ``radius`` are declared divergent.  Callers pass ``_DIVERGENCE_NORM``
    unless a finite maximizer is certified, as the hull test does for a
    one-row completion set at interior mean statistics; they then pass
    ``math.inf``.  Newton steps are used while the curvature is usable,
    with gradient ascent and step halving as fallback.  A step is accepted
    if the value falls by at most ``_VALUE_SLACK``; a full step whose
    predicted gain (grad . direction / 2) is below that slack is lost in
    the value's rounding, so it is accepted if it lowers the gradient's
    max norm instead.
    """
    eta = np.zeros(full[0].shape[1])
    value, grad, hess = _log_ratio_parts(comp, full, eta)
    for iteration in range(1, NEWTON_MAX_ITERATIONS + 1):
        if value >= -_SATURATION_TOL:
            return eta, value, False, True, iteration - 1
        if float(np.max(np.abs(grad))) <= NEWTON_TOLERANCE:
            if _recession_sup(comp, full) >= value - _RECESSION_VALUE_TOL:
                return eta, value, False, True, iteration - 1
            return eta, value, True, False, iteration - 1
        direction: Optional[np.ndarray]
        try:
            direction = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            direction = None
        if direction is None or float(grad @ direction) <= 0.0:
            direction = grad
        resolved = float(grad @ direction) >= 2.0 * _VALUE_SLACK
        scale = 1.0
        moved = False
        for _ in range(60):
            candidate = eta + scale * direction
            cand_value, cand_grad, cand_hess = _log_ratio_parts(comp, full, candidate)
            if cand_value >= value - _VALUE_SLACK or (
                scale == 1.0
                and not resolved
                and float(np.max(np.abs(cand_grad))) < float(np.max(np.abs(grad)))
            ):
                eta, value, grad, hess = candidate, cand_value, cand_grad, cand_hess
                moved = True
                break
            scale *= 0.5
        if not moved:
            return eta, value, False, False, iteration
        if float(np.max(np.abs(eta))) > radius:
            return eta, value, False, True, iteration
    return eta, value, False, False, NEWTON_MAX_ITERATIONS


def _std_errors_from_information(information: np.ndarray) -> Optional[tuple[float, ...]]:
    try:
        inverse = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(inverse)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return None
    return tuple(float(v) for v in np.sqrt(diag))


def _bernoulli_closed_form(
    spec: ModelSpec,
    data: ObservedData,
    kind: LikelihoodKind,
    enum_cap: Optional[int],
) -> MLEResult:
    if isinstance(data, FullGraph):
        m, d = edge_count(data.graph), dyad_count(data.graph.n)
        shift = math.log(data.graph.n) if spec.offset_edges else 0.0
    elif isinstance(data, Replicates):
        m = sum(edge_count(g) for g in data.graphs)
        d = len(data.graphs) * dyad_count(data.n)
        shift = math.log(data.n) if spec.offset_edges else 0.0
    else:
        m, d = edge_count(data.subgraph), dyad_count(data.subgraph.n)
        if spec.offset_edges:
            size = (
                data.population_n
                if kind is LikelihoodKind.PROPER
                else data.subgraph.n
            )
            shift = math.log(size)
        else:
            shift = 0.0
    if m == 0 or m == d:
        sign = math.inf if m == d else -math.inf
        return MLEResult(
            theta_hat=(sign,),
            std_err=None,
            log_lik=math.nan,
            converged=False,
            boundary=True,
            iterations=0,
        )
    eta_hat = math.log(m) - math.log(d - m)
    theta_hat = ParamVector(theta=(eta_hat + shift,))
    pi_hat = m / d
    information = np.array([[d * pi_hat * (1.0 - pi_hat)]])
    return MLEResult(
        theta_hat=theta_hat.theta,
        std_err=_std_errors_from_information(information),
        log_lik=log_likelihood(spec, theta_hat, data, kind, enum_cap),
        converged=True,
        boundary=False,
        iterations=0,
    )


def _boundary_result(dim: int) -> MLEResult:
    return MLEResult(
        theta_hat=(math.nan,) * dim,
        std_err=None,
        log_lik=math.nan,
        converged=False,
        boundary=True,
        iterations=0,
    )


def _enumerated_mle(
    spec: ModelSpec,
    data: ObservedData,
    kind: LikelihoodKind,
    enum_cap: Optional[int],
) -> MLEResult:
    """Ascend the log probability of the observed event over eta.

    For the proper likelihood of a subgraph the event is its completion
    set.  Independent same-size graphs (a full graph, replicates, or the
    misspecified likelihood of a subgraph) have the log likelihood
    ``weight`` times that of one graph at their mean statistics: a one-row
    event with log count 0, after the exact hull test for a finite
    maximizer.  Theta and eta differ by a constant shift, so the observed
    information is ``weight`` times minus the log-ratio Hessian at the
    maximizer.
    """
    dim = spec.stat_dim
    proper = isinstance(data, InducedSubgraph) and kind is LikelihoodKind.PROPER
    if proper:
        size = data.population_n
        comp = _completion_histogram(spec, data.subgraph, size, enum_cap)
        weight, radius = 1, _DIVERGENCE_NORM
    else:
        if isinstance(data, Replicates):
            graphs, size = data.graphs, data.n
        else:
            graph = data.graph if isinstance(data, FullGraph) else data.subgraph
            graphs, size = (graph,), graph.n
        rows = np.stack([sufficient_stats(spec, g).as_array() for g in graphs])
        s_target = rows.mean(axis=0)
        if not _stats_interior(spec, size, s_target, enum_cap):
            return _boundary_result(dim)
        comp = (s_target[None, :], np.zeros(1))
        weight, radius = len(graphs), math.inf
    full = _statistic_histogram(spec.definition, size)
    eta, _, converged, boundary, iterations = _ascend_log_ratio(comp, full, radius)
    if boundary:
        return _boundary_result(dim)
    zero = ParamVector(theta=(0.0,) * dim)
    theta = eta - natural_params(spec, zero, size).as_array()
    pv = ParamVector(theta=tuple(theta))
    if proper:
        value = proper_log_likelihood(spec, pv, data.subgraph, size, enum_cap)
    else:
        value = _independent_log_likelihood(spec, pv, size, rows, enum_cap)
    _, _, hess = _log_ratio_parts(comp, full, eta)
    return MLEResult(
        theta_hat=tuple(float(v) for v in theta),
        std_err=_std_errors_from_information(weight * -hess) if converged else None,
        log_lik=value,
        converged=converged,
        boundary=False,
        iterations=iterations,
    )


def mle(
    spec: ModelSpec,
    data: ObservedData,
    kind: LikelihoodKind = LikelihoodKind.PROPER,
    enum_cap: Optional[int] = None,
) -> MLEResult:
    """Maximize the selected log likelihood for the observed data.

    Independent-dyad families use the logit closed form.  Other families
    ascend the enumerated log probability of the observed event by damped
    Newton steps: the completion set for the proper subgraph likelihood,
    else one graph at the mean statistics, which solves the moment
    equation (boundary data are detected against the attainable-statistics
    hull before iterating).
    """
    kind = LikelihoodKind(kind)
    if not isinstance(data, InducedSubgraph) and kind is LikelihoodKind.MISSPECIFIED:
        raise ValueError("misspecified likelihood applies only to induced-subgraph data")
    if spec.definition.bernoulli:
        return _bernoulli_closed_form(spec, data, kind, enum_cap)
    return _enumerated_mle(spec, data, kind, enum_cap)


def mle_csv_header(spec: ModelSpec) -> list[str]:
    dim = spec.stat_dim
    return (
        ["family", "kind"]
        + [f"theta_hat_{k + 1}" for k in range(dim)]
        + [f"std_err_{k + 1}" for k in range(dim)]
        + ["log_lik", "converged", "boundary", "iterations"]
    )


def mle_csv_row(spec: ModelSpec, kind: LikelihoodKind, result: MLEResult) -> list[str]:
    dim = spec.stat_dim
    std = (
        [repr(v) for v in result.std_err]
        if result.std_err is not None
        else [""] * dim
    )
    return (
        [spec.family, LikelihoodKind(kind).value]
        + [repr(v) for v in result.theta_hat]
        + std
        + [
            repr(result.log_lik),
            "true" if result.converged else "false",
            "true" if result.boundary else "false",
            str(result.iterations),
        ]
    )


def format_mle_csv(
    spec: ModelSpec,
    entries: Sequence[tuple[LikelihoodKind, MLEResult]],
) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(mle_csv_header(spec))
    for kind, result in entries:
        writer.writerow(mle_csv_row(spec, kind, result))
    return buf.getvalue()
