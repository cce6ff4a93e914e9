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

A full graph or a set of replicates is evaluated at its own size.  Every
likelihood and fit reads the data through one reader, ``_observation``.
Each public function checks the enumeration cap itself, before any work,
and may call another public one, which checks it again at no cost; a
costly size warns only when its class coding is built (see
:func:`projgraph.exact._classes`).

Independent-dyad families admit closed forms everywhere (the proper
likelihood is binomial in the population edge probability).  Other
families are handled by exhaustive enumeration: the proper likelihood
sums the population model over all completions of the unobserved dyads.
Normalizers, moments and the solver run on statistic histograms (the
distinct statistic vectors with their counts) of the population graphs
and of the observed event, never on per-graph tables.
Estimation uses closed-form logit estimators where available.  Elsewhere
one damped Newton ascent maximizes the log probability of the observed
event, and an event is one thing for every likelihood: the statistic
histogram the data reaches.  For the proper subgraph likelihood that is
the classes the completions fall in, with their counts; for independent
same-size graphs it is one row at their mean statistics with log count
0, where the ascent solves the moment equation.  Data with no finite
maximizer, as decided by one exact test on the facets of the
attainable-statistics hull, are reported with ``boundary=True``.  Fits
are cached by event, and a batch's events with equal row counts climb in
lock step, one stacked moment evaluation per step for every event still
climbing; each event gets the bits of its fit alone, and a single fit is
a stack of one.  A fit is one record, ``_Fit``, for both kinds of family:
the closed form's (``_bernoulli_fit``, from the data's edge and dyad
counts) or a cached event's (``_event_fit.batch``), with a converged
fit's observed information.  The simulation studies read only its
estimate and boundary flag; :func:`mle` also its information, and
:func:`log_likelihood` at the estimate.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .exact import (
    _classes,
    _completion_counts,
    _logsumexp,
    _mat_vec,
    _moments,
    _refuse_infinite_log_z,
    log_normalizer,
    resolve_enum_cap,
    stat_covariance,
)
from .graph import Graph, _csv_text, dyad_count, edge_count
from .models import Family, ParamVector, natural_params

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
    "format_mle_csv",
    "NEWTON_TOLERANCE",
    "NEWTON_MAX_ITERATIONS",
]

NEWTON_TOLERANCE = 1e-10
NEWTON_MAX_ITERATIONS = 100
_SATURATION_TOL = 1e-10
_RECESSION_VALUE_TOL = 1e-9
_VALUE_SLACK = 1e-15
_FACET_TOL = 1e-9
_COLLINEAR_TOL = 1e-12
_ROUNDING = 16 * float(np.finfo(np.float64).eps)


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
        _refuse_sizes(self.subgraph, self.population_n)


def _refuse_sizes(y_sub: Graph, population_n: int) -> None:
    """Raise ``ValueError`` unless ``y_sub`` is smaller than the population."""
    if y_sub.n >= population_n:
        raise ValueError(
            f"subgraph size {y_sub.n} must be smaller than population size {population_n}")


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


def proper_log_likelihood(
    spec: Family,
    theta: ParamVector,
    y_sub: Graph,
    population_n: int,
    enum_cap: Optional[int] = None,
) -> float:
    """Log total probability of all population graphs consistent with y_sub.

    Independent-dyad families marginalize dyad-wise, giving a binomial
    closed form in the population edge probability; other families sum
    the population model over all completions of the unobserved dyads,
    which stands for every placement of the observed nodes only when the
    family is exchangeable at ``population_n``: any other is refused with
    ``ValueError``.
    """
    return log_likelihood(spec, theta, InducedSubgraph(y_sub, population_n),
                          enum_cap=enum_cap)


def completion_log_likelihood(
    spec: Family,
    theta: ParamVector,
    y_sub: Graph,
    population_n: int,
    enum_cap: Optional[int] = None,
) -> float:
    """Proper log likelihood by explicit enumeration of completions.

    Valid for every family; ``proper_log_likelihood`` routes here for
    families without closed-form marginals.  The completions are counted
    per statistic class by :func:`projgraph.exact._completion_counts`, which
    refuses a family that is not exchangeable at ``population_n``.  A
    population log normalizer that is not finite is refused, with no
    warning, as by :func:`~projgraph.exact.log_normalizer`.
    """
    _refuse_sizes(y_sub, population_n)
    resolve_enum_cap(population_n, enum_cap)
    counts = _completion_counts(spec, y_sub, population_n)
    _, points, log_counts = _classes(spec, population_n)
    present = counts > 0
    with np.errstate(over="ignore", invalid="ignore"):
        energy = points @ natural_params(spec, theta, population_n)
        kernel = log_counts + energy
        log_z = _logsumexp(kernel)
        _refuse_infinite_log_z(log_z, theta)
        log_p = _logsumexp(np.log(counts[present]) + energy[present]) - log_z
    if log_p <= -math.log(2.0):
        return log_p
    # Above probability 1/2 the difference of log-normalizers cancels; the
    # complement's weight does not.  Rounding recovers the integer counts.
    weight = np.exp(energy - kernel.max())
    full = np.rint(np.exp(log_counts))
    return math.log1p(-float((full - counts) @ weight) / float(full @ weight))


def misspecified_log_likelihood(
    spec: Family,
    theta: ParamVector,
    y_sub: Graph,
    enum_cap: Optional[int] = None,
) -> float:
    """Log probability of y_sub under the subgraph-sized model."""
    return log_likelihood(spec, theta, FullGraph(y_sub), enum_cap=enum_cap)


def _observation(
    data: ObservedData, kind: LikelihoodKind
) -> tuple[int, bool, tuple[Graph, ...]]:
    """(size, proper, graphs): the size of the model that the likelihood of
    ``data`` evaluates, whether it is the proper subgraph likelihood, and
    the observed graphs."""
    kind = LikelihoodKind(kind)
    if isinstance(data, InducedSubgraph):
        proper = kind is LikelihoodKind.PROPER
        return data.population_n if proper else data.subgraph.n, proper, (data.subgraph,)
    if kind is not LikelihoodKind.PROPER:
        raise ValueError("misspecified likelihood applies only to induced-subgraph data")
    if isinstance(data, FullGraph):
        return data.graph.n, False, (data.graph,)
    if isinstance(data, Replicates):
        return data.n, False, data.graphs
    raise TypeError(f"unsupported observed-data type {type(data).__name__}")


def log_likelihood(
    spec: Family,
    theta: ParamVector,
    data: ObservedData,
    kind: LikelihoodKind = LikelihoodKind.PROPER,
    enum_cap: Optional[int] = None,
) -> float:
    """Log likelihood of the observed data under the selected kind.

    Independent graphs have the sum of their log probabilities, from their
    statistic rows: for a family that enumerates, ``points[codes[k]]`` in
    the cached class coding.  An independent-dyad family reads only the
    data's :func:`_edges_and_dyads`.  Its log normalizer is refused when it
    overflows for either kind, though the proper closed form does not read
    it, so that one theta gets one answer."""
    size, proper, graphs = _observation(data, kind)
    resolve_enum_cap(1 if spec.bernoulli else size, enum_cap)
    if proper and not spec.bernoulli:
        return completion_log_likelihood(spec, theta, graphs[0], size, enum_cap)
    log_z = log_normalizer(spec, theta, size, enum_cap)
    eta = natural_params(spec, theta, size)
    if spec.bernoulli:
        m, d = _edges_and_dyads(graphs)
        if proper:
            # log pi and log(1 - pi) for pi = logistic(eta), computed stably
            log_p, log_q = -float(np.logaddexp(0.0, -eta[0])), -float(np.logaddexp(0.0, eta[0]))
            return m * log_p + (d - m) * log_q
        row_sum = [float(m)]
    else:
        codes, points, _ = _classes(spec, size)
        row_sum = np.sum(points[codes[[g.dyads for g in graphs]]], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # to -inf only: log Z refused +inf
        return float(eta @ row_sum) - len(graphs) * log_z


def _edges_and_dyads(graphs: Sequence[Graph]) -> tuple[int, int]:
    """The edges among the observed dyads of ``graphs``, and those dyads:
    the whole data of an independent-dyad family."""
    return sum(map(edge_count, graphs)), len(graphs) * dyad_count(graphs[0].n)


def fisher_information(
    spec: Family, theta: ParamVector, n: int, enum_cap: Optional[int] = None
) -> np.ndarray:
    """Fisher information = covariance of the sufficient statistics.  A
    function of this module, not a second name for ``stat_covariance``, so
    that per-layer tracing, which times each layer's own functions
    (``perfbench/shims.py``), times it under this name."""
    return stat_covariance(spec, theta, n, enum_cap)


_Histogram = tuple[np.ndarray, np.ndarray]
# Outward unit normals (one row each), offsets, and the on-facet tolerance.
_Facets = tuple[np.ndarray, np.ndarray, float]


def _hull_facets(points: np.ndarray) -> _Facets:
    """Facets a . s <= b of the convex hull of ``points``, on which a point
    lies within ``_FACET_TOL`` times the points' extent.  One column has two,
    its minimum and maximum; two columns have the polygon's edges, from
    :func:`_polygon_normals`.  Three or more go to Qhull, imported from SciPy
    only then, which repeats a facet split into simplices.  Points with empty
    interior lie in one hyperplane, their only facet."""
    if points.shape[1] == 1:
        normals = np.array([[-1.0], [1.0]])
    elif points.shape[1] == 2:
        normals = _polygon_normals(points)
    else:
        from scipy.spatial import ConvexHull, QhullError

        try:
            normals = ConvexHull(points).equations[:, :-1]
        except QhullError:
            normals = None
    if normals is None:
        normals = np.linalg.svd(points - points[0])[2][-1:]
    offsets = (points @ normals.T).max(axis=0)
    return normals, offsets, _FACET_TOL * float(np.ptp(points, axis=0).max())


def _polygon_normals(points: np.ndarray) -> Optional[np.ndarray]:
    """Outward unit normals of the edges of the convex hull of 2-D points,
    by Andrew's monotone chain, or None when the hull has no interior.  A
    turn whose sine is below ``_COLLINEAR_TOL`` is straight, so points that
    are collinear up to rounding are not vertices."""
    ordered = sorted(map(tuple, points.tolist()))

    def chain(sequence: list) -> list:
        hull: list = []
        for c in sequence:
            while len(hull) >= 2:
                (ax, ay), (bx, by) = hull[-2], hull[-1]
                u, v = (bx - ax, by - ay), (c[0] - ax, c[1] - ay)
                cross = u[0] * v[1] - u[1] * v[0]
                if cross > _COLLINEAR_TOL * math.hypot(*u) * math.hypot(*v):
                    break
                hull.pop()
            hull.append(c)
        return hull[:-1]

    ring = np.array(chain(ordered) + chain(ordered[::-1]))  # counterclockwise
    if len(ring) < 3:
        return None
    edges = np.roll(ring, -1, axis=0) - ring
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


@lru_cache(maxsize=32)
def _statistic_facets(fam: Family, n: int) -> _Facets:
    """Facets of the hull of the statistics of all graphs of size n.
    Callers validate the enumeration cap before reaching this helper."""
    facets = _hull_facets(_classes(fam, n)[1])
    for array in facets[:2]:
        array.flags.writeable = False
    return facets


def _on_facets(points: np.ndarray, facets: _Facets) -> np.ndarray:
    """Whether each point (row) lies on each facet (column)."""
    normals, offsets, tol = facets
    return points @ normals.T >= offsets - tol


def _log_ratio_parts(
    comp: _Histogram, full: _Histogram, eta: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """(value, gradient, Hessian) of eta -> log P_eta(completion set), for
    one eta or a stack of them over a stack of events (see ``_moments``).

    A one-row event has log-normalizer its own log count plus energy, mean
    its row and covariance 0: the same bits as its ``_moments``, which are
    skipped."""
    lse_f, mu_f, cov_f = _moments(*full, eta)
    if comp[1].shape[-1] == 1:
        lse_c = comp[1][..., 0] + _mat_vec(comp[0], eta)[..., 0]
        return lse_c - lse_f, comp[0][..., 0, :] - mu_f, 0.0 - cov_f
    lse_c, mu_c, cov_c = _moments(*comp, eta)
    return lse_c - lse_f, mu_c - mu_f, cov_c - cov_f


def _faces_reach(
    comp: _Histogram, full: _Histogram, facets: _Facets, eta: np.ndarray, target: float
) -> bool:
    """Whether the supremum over some facet that the event ``comp`` reaches
    is at least ``target``.  Along eta + t * a, for a facet's normal a, the
    objective tends to the same ratio over the facet's rows, a function of
    eta's projection onto the facet's span; every other limit at infinity
    is a limit of these.  Facets are tried from the one eta points toward,
    each from eta's projection, where its value is the limit along the ray.
    """
    normals = facets[0]
    comp_on, full_on = _on_facets(comp[0], facets), _on_facets(full[0], facets)
    for k in np.argsort(-(normals @ eta), kind="stable"):
        if comp_on[:, k].any():
            basis = np.linalg.svd(normals[k][None, :])[2][1:]  # the facet's span
            face_comp = (comp[0][comp_on[:, k]] @ basis.T, comp[1][comp_on[:, k]])
            face_full = (full[0][full_on[:, k]] @ basis.T, full[1][full_on[:, k]])
            if _reaches(face_comp, face_full, target, basis @ eta):
                return True
    return False


def _reaches(comp: _Histogram, full: _Histogram, target: float, eta: np.ndarray) -> bool:
    """Whether the ascent from ``eta``, then the facets, find a value of
    eta -> log P_eta(comp) of at least ``target``.  A point has the constant
    lse(comp) - lse(full); an event on one facet rises toward it unclimbed."""
    if full[0].shape[1] == 0:
        return _logsumexp(comp[1]) - _logsumexp(full[1]) >= target
    facets = _hull_facets(full[0])
    if not _on_facets(comp[0], facets).all(axis=0).any():
        eta, value, *_ = (x[0] for x in _climb((comp[0][None], comp[1][None]), full,
                                               target, eta[None]))
        if value >= target:
            return True
    return _faces_reach(comp, full, facets, eta, target)


def _directions(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton directions solve(-hess, grad), one per row of ``grad``, with
    the gradient as the fallback where the Hessian is singular or the
    Newton step does not ascend.  A stack with one singular Hessian is
    solved again event by event, so the others keep their bits."""
    try:
        direction = np.linalg.solve(-hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        direction = np.empty_like(grad)
        for k in range(len(grad)):
            try:
                direction[k] = np.linalg.solve(-hess[k], grad[k])
            except np.linalg.LinAlgError:
                direction[k] = grad[k]
    descent = _dots(grad, direction) <= 0.0
    direction[descent] = grad[descent]
    return direction


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products, each with the bits of a stack of one."""
    return _mat_vec(a[:, None, :], b)[:, 0]


def _climb(
    comp: _Histogram, full: _Histogram, target: float, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped ascent of eta -> log P_eta(comp) for a stack of S events
    ``comp`` (equal-size histograms), from the rows of ``eta``, in lock
    step: one stacked evaluation per round serves every event still
    climbing.  Each event climbs until its value reaches ``target``
    (tested first: the gradient underflows on a plateau) or its gradient's
    max norm falls to ``NEWTON_TOLERANCE``.  Returns (eta, value,
    stationary, iterations, Hessian at eta), one row or entry per event,
    each with the bits of the event climbing alone: every step is the same
    per-event arithmetic (see ``_moments``).

    Newton steps are used while the curvature is usable, with gradient
    ascent and step halving as fallback.  A step is accepted if the value
    falls by at most ``_VALUE_SLACK``; a full step whose predicted gain
    (grad . direction / 2) is below that slack is lost in the value's
    rounding, so it is accepted if it lowers the gradient's max norm.
    """
    eta = eta.copy()
    value, grad, hess = _log_ratio_parts(comp, full, eta)
    count = len(eta)
    stationary = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=np.int64)
    direction = np.empty_like(eta)
    resolved = np.empty(count, dtype=bool)
    scale = np.ones(count)
    halvings = np.zeros(count, dtype=np.int64)
    step = np.zeros(count, dtype=np.int64)  # the iteration each event is on

    def begin(new: np.ndarray) -> np.ndarray:
        """Start the next iteration of the events ``new``; the ones still
        climbing, each with its direction and a unit step."""
        step[new] += 1
        new = new[step[new] <= NEWTON_MAX_ITERATIONS]  # the rest end at the last step
        done = ((value[new] >= target)
                | (np.abs(grad[new]).max(axis=-1) <= NEWTON_TOLERANCE))
        stationary[new[done]] = value[new[done]] < target
        iterations[new[done]] = step[new[done]] - 1
        new = new[~done]
        iterations[new] = NEWTON_MAX_ITERATIONS  # unless they stop sooner
        if len(new):
            direction[new] = _directions(grad[new], hess[new])
            resolved[new] = _dots(grad[new], direction[new]) >= 2.0 * _VALUE_SLACK
            scale[new], halvings[new] = 1.0, 0
        return new

    live = begin(np.arange(count))
    while len(live):
        candidate = eta[live] + scale[live, None] * direction[live]
        cand_value, cand_grad, cand_hess = _log_ratio_parts(
            (comp[0][live], comp[1][live]), full, candidate)
        accept = (cand_value >= value[live] - _VALUE_SLACK) | (
            (scale[live] == 1.0)
            & ~resolved[live]
            & (np.abs(cand_grad).max(axis=-1) < np.abs(grad[live]).max(axis=-1))
        )
        moved = live[accept]
        eta[moved], value[moved] = candidate[accept], cand_value[accept]
        grad[moved], hess[moved] = cand_grad[accept], cand_hess[accept]
        held = live[~accept]
        scale[held] *= 0.5
        halvings[held] += 1
        stuck = held[halvings[held] == 60]
        iterations[stuck] = step[stuck]
        live = np.concatenate([begin(moved), held[halvings[held] < 60]])
    return eta, value, stationary, iterations, hess


def _ascend_log_ratio(
    comp: _Histogram, full: _Histogram, facets: _Facets
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize eta -> log P_eta(comp), the log probability of the observed
    event, from 0, for a stack of events (equal-size histograms) in lock
    step.  Returns (eta, converged, boundary, iterations, information), one
    row or entry per event; the information is minus the Hessian at eta
    that the ascent last evaluated, and NaN for an event it did not climb.

    One scale-free test on the facets of the hull of ``full``'s statistics
    decides whether the maximum is finite.  An event on one facet is
    boundary: its probability rises strictly toward the facet (for one row,
    the statistics are on the hull's boundary).  So is a value within
    ``_SATURATION_TOL`` of 0.  Wherever the ascent stops, the fit is
    boundary if the supremum over a facet the event reaches, found by the
    same ascent on the facet's rows, recursively, comes within
    ``_RECESSION_VALUE_TOL`` of the value (Geyer 2009; Rinaldo, Fienberg &
    Zhou 2009).  Only events with a row on some facet are searched: for
    the others the supremum over the facets they reach is over none.
    Otherwise it has converged if it stopped at a stationary point.
    """
    count, dim = len(comp[1]), full[0].shape[1]
    eta = np.zeros((count, dim))
    iterations = np.zeros(count, dtype=np.int64)
    stationary = np.zeros(count, dtype=bool)
    information = np.full((count, dim, dim), np.nan)
    on = _on_facets(comp[0], facets)  # (event, row, facet)
    boundary = on.all(axis=1).any(axis=1)
    live = np.flatnonzero(~boundary)
    if len(live):
        climbed = _climb((comp[0][live], comp[1][live]), full, -_SATURATION_TOL, eta[live])
        eta[live], value, stationary[live], iterations[live], hess = climbed
        information[live] = -hess
        # Energies s . eta round relative to |s| . |eta|: far along a ridge
        # that outgrows the tolerance and can lift the value above its
        # facet's limit.
        rounding = _ROUNDING * _mat_vec(np.abs(full[0]), np.abs(eta[live])).max(axis=1)
        reach = value - _RECESSION_VALUE_TOL - rounding
        boundary[live] = value >= -_SATURATION_TOL
        for k in np.flatnonzero(~boundary[live] & on[live].any(axis=(1, 2))):
            event = live[k]
            boundary[event] = _faces_reach((comp[0][event], comp[1][event]), full, facets,
                                           eta[event], float(reach[k]))
    return eta, stationary & ~boundary, boundary, iterations, information


def _std_errors_from_information(information: np.ndarray) -> Optional[tuple[float, ...]]:
    try:
        inverse = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(inverse)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return None
    return tuple(float(v) for v in np.sqrt(diag))


class _Fit(NamedTuple):
    """A fit of either kind of family: ``eta`` where it stopped, ``theta_hat``
    its shift to theta, and ``information`` the observed information of its
    event at ``eta``, None unless the fit converged."""

    eta: np.ndarray
    theta_hat: tuple[float, ...]
    converged: bool
    boundary: bool
    iterations: int
    information: Optional[np.ndarray]


def _bernoulli_fit(spec: Family, size: int, m: int, d: int) -> _Fit:
    """The fit of an independent-dyad family: the logit closed form from the
    m edges among the d observed dyads, shifted to theta at ``size``, the
    size the likelihood evaluates, with information d * pi_hat * (1 - pi_hat).
    With no edge or every edge the data is boundary, and theta_hat is -inf
    or +inf; with no dyad observed it is boundary with no direction, and
    theta_hat is nan."""
    if m == 0 or m == d:
        eta = math.nan if d == 0 else math.inf if m else -math.inf
        return _Fit(np.array([eta]), (eta,), False, True, 0, None)
    eta = math.log(m) - math.log(d - m)
    shift = natural_params(spec, ParamVector(theta=(0.0,)), size)[0]
    pi_hat = m / d
    return _Fit(np.array([eta]), (eta - shift,), True, False, 0,
                np.array([[d * pi_hat * (1.0 - pi_hat)]]))


# Distinct events kept by the fit cache: a study's events, not its
# replicates; also the most events that climb in one stack.
_EVENT_FITS = 256


def _fit_events(fam: Family, size: int, events: Sequence[bytes]) -> list[_Fit]:
    """The fit of each event by :func:`_ascend_log_ratio`, in input order,
    with eta and the information read-only and theta_hat eta's shift to
    theta.  A boundary fit has NaN theta_hat and 0 iterations.  Events with
    equal row counts climb in lock step, up to ``_EVENT_FITS`` at a time,
    which bounds the stack's temporaries.  Callers validate the enumeration
    cap before reaching this helper."""
    full = _classes(fam, size)[1:]
    facets = _statistic_facets(fam, size)
    shift = natural_params(fam, ParamVector(theta=(0.0,) * fam.stat_dim), size)
    groups: dict[int, list[int]] = {}  # by byte length, so by row count
    for k, event in enumerate(events):
        groups.setdefault(len(event), []).append(k)
    fits: list = [None] * len(events)
    for group in groups.values():
        for lo in range(0, len(group), _EVENT_FITS):
            where = group[lo : lo + _EVENT_FITS]
            comp = _event_histograms(fam.stat_dim, [events[k] for k in where])
            eta, converged, boundary, iterations, information = _ascend_log_ratio(
                comp, full, facets)
            eta.flags.writeable = information.flags.writeable = False
            theta = eta - shift
            theta[boundary], iterations[boundary] = math.nan, 0
            for j, k in enumerate(where):
                fits[k] = _Fit(eta[j], tuple(theta[j].tolist()), bool(converged[j]),
                               bool(boundary[j]), int(iterations[j]),
                               information[j] if converged[j] else None)
    return fits


def _event(rows: np.ndarray, log_counts: np.ndarray) -> bytes:
    """A statistic histogram as :func:`_event_fit` keys it: the bytes of
    its float64 ``rows``, then of their ``log_counts``."""
    return rows.tobytes() + log_counts.tobytes()


def _event_histograms(dim: int, events: Sequence[bytes]) -> _Histogram:
    """A stack of events with equal row counts as fresh C-contiguous arrays:
    rows (S, k, dim) and log counts (S, k)."""
    flat = np.frombuffer(b"".join(events)).reshape(len(events), -1)
    k = flat.shape[1] // (dim + 1)
    return flat[:, : k * dim].reshape(len(events), k, dim).copy(), flat[:, k * dim :].copy()


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _FitCache:
    """Least-recently-used cache of event fits keyed by (family, size,
    event), where an event is a statistic histogram (:func:`_event`),
    filled a batch at a time by :meth:`batch`, which fits a batch's
    distinct misses together (:func:`_fit_events`); one event is a batch
    of one.  ``cache_info`` and ``cache_clear`` mean what they do for
    ``functools.lru_cache``; an event repeated within a batch is a hit."""

    def __init__(self, maxsize: int) -> None:
        self._maxsize = maxsize
        self._fits: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def batch(self, fam: Family, size: int, events: Sequence[bytes]) -> list[_Fit]:
        fits: list = [None] * len(events)
        missing: dict[bytes, list[int]] = {}
        with self._lock:
            for k, event in enumerate(events):
                key = (fam, size, event)
                fits[k] = self._fits.get(key)
                if fits[k] is None:
                    missing.setdefault(event, []).append(k)
                else:
                    self._fits.move_to_end(key)
            self._misses += len(missing)
            self._hits += len(events) - len(missing)
        if missing:
            new = _fit_events(fam, size, list(missing))
            with self._lock:
                for (event, where), fit in zip(missing.items(), new):
                    self._fits[(fam, size, event)] = fit
                    if len(self._fits) > self._maxsize:
                        self._fits.popitem(last=False)
                    for k in where:
                        fits[k] = fit
        return fits

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._fits))

    def cache_clear(self) -> None:
        with self._lock:
            self._fits.clear()
            self._hits = self._misses = 0


_event_fit = _FitCache(_EVENT_FITS)


def _mean_events(rows: np.ndarray) -> list[bytes]:
    """The mean-statistics event of each study of independent graphs, from
    float64 rows of shape (studies, graphs, dim): one row, with the bits of
    the study's own ``rows.mean(axis=0)``, and log count 0."""
    log_count = np.zeros(1)
    return [_event(mean, log_count) for mean in rows.mean(axis=1)]


def _observed_event(
    spec: Family, size: int, proper: bool, graphs: tuple[Graph, ...]
) -> bytes:
    """The event of an :func:`_observation` whose enumeration cap is
    checked, as :func:`_event_fit` keys it: the statistic histogram the data
    reaches.  For the proper subgraph likelihood that is the classes its
    completions fall in, with their counts; for independent graphs one graph
    at their mean statistics, from their rows ``points[codes[k]]`` in the
    cached class coding (so built from the rows whose hull decides
    finiteness).
    """
    if proper:
        return _completion_event(spec, graphs[0], size)
    codes, points, _ = _classes(spec, size)
    return _mean_events(points[codes[[g.dyads for g in graphs]]][None])[0]


def _completion_event(spec: Family, y_sub: Graph, population_n: int) -> bytes:
    """The proper event of the induced subgraph ``y_sub`` of a population
    of ``population_n`` nodes, whose enumeration cap the caller has
    checked, as :func:`_event_fit` keys it: the classes its completions
    fall in, with their counts."""
    counts = _completion_counts(spec, y_sub, population_n)
    present = counts > 0
    return _event(_classes(spec, population_n)[1][present], np.log(counts[present]))


def mle(
    spec: Family,
    data: ObservedData,
    kind: LikelihoodKind = LikelihoodKind.PROPER,
    enum_cap: Optional[int] = None,
) -> MLEResult:
    """Maximize the selected log likelihood for the observed data.

    Independent-dyad families use the logit closed form, with information
    d * pi_hat * (1 - pi_hat) over the d observed dyads.  Other families
    ascend the enumerated log probability of the observed event by damped
    Newton steps, cached by :func:`_event_fit`: the completion set for the
    proper subgraph likelihood, else one graph at the mean statistics,
    which solves the moment equation.  Whether the maximum is finite is
    decided exactly on the facets of the attainable-statistics hull (see
    ``_ascend_log_ratio``).  The standard errors read the fit's observed
    information times the graphs its event stands for (R for the mean of R
    replicates, else 1), and the log likelihood is :func:`log_likelihood`.
    The enumeration cap is checked before any work.  The proper
    subgraph fit of a family that is not exchangeable at the population
    size is refused with ``ValueError``, as by :func:`proper_log_likelihood`.
    """
    size, proper, graphs = _observation(data, kind)
    resolve_enum_cap(1 if spec.bernoulli else size, enum_cap)
    if spec.bernoulli:
        fit, count = _bernoulli_fit(spec, size, *_edges_and_dyads(graphs)), 1
    else:
        event = _observed_event(spec, size, proper, graphs)
        fit, count = _event_fit.batch(spec, size, (event,))[0], len(graphs)
    if fit.boundary:
        return MLEResult(fit.theta_hat, None, math.nan, False, True, 0)
    std_err = None
    if fit.information is not None:
        std_err = _std_errors_from_information(count * fit.information)
    log_lik = log_likelihood(spec, ParamVector(theta=fit.theta_hat), data, kind, enum_cap)
    return MLEResult(fit.theta_hat, std_err, log_lik, fit.converged, False, fit.iterations)


def format_mle_csv(
    spec: Family,
    entries: Sequence[tuple[LikelihoodKind, MLEResult]],
) -> str:
    dim = spec.stat_dim
    header = (["family", "kind"] + [f"theta_hat_{k + 1}" for k in range(dim)]
              + [f"std_err_{k + 1}" for k in range(dim)]
              + ["log_lik", "converged", "boundary", "iterations"])
    return _csv_text([header] + [
        (spec.name, LikelihoodKind(kind).value, *result.theta_hat,
         *((None,) * dim if result.std_err is None else result.std_err),
         result.log_lik, result.converged, result.boundary, result.iterations)
        for kind, result in entries])
