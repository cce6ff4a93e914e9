"""Seeded Monte Carlo studies.

Four studies ship, all driven by one :class:`ExperimentConfig`:

* growth — estimator error of the offset family as a single graph grows;
* replication — estimator error as the number of independent same-size
  graphs grows (works for dependent-dyad families via exact sampling);
* subsample — proper versus misspecified estimation from an induced
  subgraph of a larger population, under a uniform-random node subset
  (an ignorable design: selection never depends on unobserved dyads);
* threshold — proportion of connected draws around the connectivity
  threshold edge probability c * log(n) / n.

Every replicate derives its own random stream from the master seed and
the path (experiment tag, cell index, replicate indices), so results do
not depend on execution order; report CSV bodies are byte-identical
across runs.  A cell's streams come from one reused generator, keyed per
replicate with the bits of its own substream.  Each replicate's fit is
one record, ``inference._Fit``, for both kinds of family: an
independent-dyad family's is its closed form, from the edge and dyad
counts of what the replicate drew, and a dyad-dependent family
fits each replicate's observed event, built from the class coding,
through the cached event fit.  A summary reads only the record's estimate
and boundary flag, so a study computes no log likelihood or standard
errors.  A dyad-dependent family's subsample cells run on graph indices,
with no graph built, and fit their distinct events of each kind together.
The replication study evaluates the first uniforms of all its table draws
in one bulk pass, with the same bits, and fits all of its distinct pooled
events in one lock-step Newton ascent, with the bits of one-at-a-time
fits.  Fits run in one thread: each is GIL-bound Python, and a thread
pool made two workers slower than one.  The runners keep their
``threads`` keyword for compatibility; it schedules nothing.
Replicates with no finite estimate (boundary data) are excluded from
bias/RMSE and counted in the ``n_boundary`` column, with
``units = used + n_boundary`` per row.  A report's columns are its rows'
keys, in order: each runner builds every row in the same key order.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from . import _STUDY_NAMES
from ._version import __version__
from .exact import (
    ExactDistribution,
    _bulk_indices,
    _classes,
    _inverse_cdf,
    build_distribution,
    sample_bernoulli,
)
from .graph import (Graph, NodeSubset, _cell, _csv_text, _dyad_map, dyad_count, edge_count,
                    induced_subgraph, is_connected, mean_degree)
from .inference import (_EVENT_FITS, _Fit, _bernoulli_fit, _completion_event, _event_fit,
                        _mean_events)
from .models import (
    BERNOULLI_OFFSET,
    Family,
    ParamVector,
    edge_prob,
    model_spec,
)
from .rng import _streams

# The package declares the study layer's public names, so that it can bind
# them lazily without importing this module.
__all__ = list(_STUDY_NAMES)


def _count(value: Any, name: str) -> int:
    """``value`` as an ``int`` (NumPy integers convert); bools, floats and
    strings raise ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _stream_count(value: Any, name: str) -> int:
    """``_count(value, name)``, refused at 2^32 or more: the count's indices
    are stream id parts, each one 32-bit word (see :func:`_streams`)."""
    count = _count(value, name)
    if count >= 1 << 32:
        raise ValueError(f"{name} must be below 2**32, got {count}")
    return count


def _number(value: Any, name: str) -> float:
    """``value`` as a ``float`` (integers and NumPy reals convert); bools,
    strings and other types raise ``ValueError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one study.

    ``replicates`` is an integer for growth/subsample/threshold and a
    list of replicate counts (one cell per count) for replication.  The
    replication study repeats the whole pooled estimation
    ``studies_per_cell`` times per cell (default 200) to measure estimator
    spread; other studies refuse the key.  Every count must be an integer:
    floats, strings and bools raise ``ValueError``, as do replicate counts
    and ``studies_per_cell`` at 2^32 or more.  ``multipliers`` must
    be a list of numbers; ints and floats are accepted, bools and strings
    raise ``ValueError``, as they do in ``theta_star`` read by
    :meth:`from_dict`.
    """

    experiment: str
    spec: Family
    theta_star: ParamVector
    sizes: tuple[int, ...]
    replicates: int | tuple[int, ...]
    master_seed: int
    subsample_n: Optional[int] = None
    multipliers: Optional[tuple[float, ...]] = None
    studies_per_cell: Optional[int] = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of "
                f"{', '.join(EXPERIMENT_NAMES)}"
            )
        if not isinstance(self.sizes, (tuple, list)):
            raise ValueError(f"sizes must be a list of integers, got {self.sizes!r}")
        sizes = tuple(_count(v, "sizes") for v in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("sizes must be non-empty")
        if any(v < 1 for v in sizes):
            raise ValueError("sizes must be positive")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        object.__setattr__(self, "master_seed", _count(self.master_seed, "master_seed"))
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must lie in [0, 2**64)")
        if len(self.theta_star) != self.spec.stat_dim:
            raise ValueError(
                f"theta_star has length {len(self.theta_star)}, expected "
                f"{self.spec.stat_dim} for family {self.spec.name}"
            )

        if self.experiment == "replication":
            if not isinstance(self.replicates, (tuple, list)):
                raise ValueError(
                    "replication requires a list of replicate counts (one per cell)"
                )
            reps = tuple(_stream_count(v, "replicates") for v in self.replicates)
            object.__setattr__(self, "replicates", reps)
            if not reps or any(v < 1 for v in reps):
                raise ValueError("replicate counts must be positive")
            if len(sizes) != 1:
                raise ValueError("replication uses a single fixed graph size")
            studies = 200 if self.studies_per_cell is None else self.studies_per_cell
            object.__setattr__(
                self, "studies_per_cell", _stream_count(studies, "studies_per_cell")
            )
            if self.studies_per_cell < 2:
                raise ValueError("studies_per_cell must be >= 2")
        else:
            if isinstance(self.replicates, (tuple, list)):
                raise ValueError(f"{self.experiment} requires an integer replicate count")
            object.__setattr__(self, "replicates", _stream_count(self.replicates, "replicates"))
            if self.replicates < 1:
                raise ValueError("replicates must be >= 1")
            if self.studies_per_cell is not None:
                raise ValueError("studies_per_cell applies only to replication")

        if self.experiment == "subsample":
            if self.subsample_n is None:
                raise ValueError("subsample requires subsample_n")
            object.__setattr__(self, "subsample_n", _count(self.subsample_n, "subsample_n"))
            if not 1 <= self.subsample_n < min(sizes):
                raise ValueError(
                    f"subsample_n must lie in [1, {min(sizes)}), got {self.subsample_n}"
                )
        elif self.subsample_n is not None:
            raise ValueError("subsample_n applies only to the subsample experiment")

        if self.experiment == "threshold":
            if self.multipliers is None:
                raise ValueError("threshold requires multipliers")
            if not isinstance(self.multipliers, (tuple, list)):
                raise ValueError(
                    f"multipliers must be a list of numbers, got {self.multipliers!r}"
                )
            mult = tuple(_number(v, "multipliers") for v in self.multipliers)
            object.__setattr__(self, "multipliers", mult)
            if not mult or not all(v > 0 for v in mult):
                raise ValueError("multipliers must be positive")
        elif self.multipliers is not None:
            raise ValueError("multipliers applies only to the threshold experiment")

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "ExperimentConfig":
        """Build a config from a JSON-style dict keyed by the field names;
        unknown keys are errors, as are missing fields with no default."""
        if not isinstance(payload, dict):
            raise ValueError("experiment config must be a JSON object")
        schema = fields(ExperimentConfig)
        unknown = sorted(set(payload) - {f.name for f in schema})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in schema if f.default is MISSING and f.name not in payload]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        spec_obj = payload["spec"]
        if isinstance(spec_obj, str):
            family = spec_obj
        elif isinstance(spec_obj, dict):
            extra = sorted(set(spec_obj) - {"family"})
            if extra:
                raise ValueError(f"unknown spec keys: {', '.join(extra)}")
            if "family" not in spec_obj:
                raise ValueError("spec requires a family name")
            family = spec_obj["family"]
        else:
            raise ValueError("spec must be a family name or an object with a family key")
        spec = model_spec(family)
        theta_star = payload["theta_star"]
        if not isinstance(theta_star, (list, tuple)):
            raise ValueError("theta_star must be an array")
        theta = ParamVector(theta=tuple(_number(v, "theta_star") for v in theta_star))
        return ExperimentConfig(**dict(payload, spec=spec, theta_star=theta))

    def to_dict(self) -> dict[str, Any]:
        """Every field that is not None, in field order, with tuples as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(spec={"family": self.spec.name}, theta_star=self.theta_star.theta)
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in out.items() if value is not None}


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell summaries plus reproducibility metadata.

    ``csv_body()`` is the deterministic artifact: identical configs give
    byte-identical bodies.  Metadata echoes the
    config and records wall-clock runtime, which naturally varies.
    """

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[dict[str, Any], ...]
    metadata: dict[str, Any] = field(compare=False)

    def csv_body(self) -> str:
        return _csv_text([self.columns]
                         + [[row.get(col) for col in self.columns] for row in self.rows])

    def metadata_json(self) -> str:
        return json.dumps(self.metadata, indent=2, sort_keys=True) + "\n"


def _estimate_columns(dim: int) -> list[str]:
    if dim == 1:
        return ["mean_estimate", "bias", "rmse"]
    cols: list[str] = []
    for name in ("mean_estimate", "bias", "rmse"):
        cols.extend(f"{name}_{k + 1}" for k in range(dim))
    return cols


def _summarize_estimates(
    estimates: Sequence[_Fit], theta_star: ParamVector
) -> dict[str, Any]:
    """Bias/RMSE summary over the finite (non-boundary) estimates, read as
    each fit's ``theta_hat`` and ``boundary``."""
    dim = len(theta_star)
    finite = [fit.theta_hat for fit in estimates if not fit.boundary]
    row: dict[str, Any] = {
        "units": len(estimates),
        "used": len(finite),
        "n_boundary": len(estimates) - len(finite),
    }
    if finite:
        thetas = np.asarray(finite, dtype=np.float64)
        target = theta_star.as_array()
        mean = thetas.mean(axis=0)
        bias = mean - target
        rmse = np.sqrt(((thetas - target) ** 2).mean(axis=0))
    else:
        mean = bias = rmse = np.full(dim, math.nan)
    row.update(zip(_estimate_columns(dim), map(float, np.concatenate([mean, bias, rmse]))))
    return row


def _report(
    cfg: ExperimentConfig, rows: Sequence[dict[str, Any]], started: float, design: str
) -> ExperimentReport:
    """The report of ``rows``, whose columns are the first row's keys."""
    metadata = {
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "sampling_design": design,
        "version": f"projgraph-v{__version__}",
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    return ExperimentReport(
        experiment=cfg.experiment,
        columns=tuple(rows[0]),
        rows=tuple(dict(r) for r in rows),
        metadata=metadata,
    )


def run_growth_consistency(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Full-graph estimation error of the offset family across graph sizes."""
    if cfg.experiment != "growth":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'growth'")
    if cfg.spec.name != BERNOULLI_OFFSET:
        raise ValueError("the growth study requires the BernoulliOffset family")
    started = time.perf_counter()
    rows = []
    for cell_index, n in enumerate(cfg.sizes):
        pi = edge_prob(cfg.spec, cfg.theta_star, n)
        estimates, degrees, edges = [], [], []
        for rng in _replicate_streams(cfg, "growth", cell_index):
            g = sample_bernoulli(n, pi, rng)
            edges.append(edge_count(g))
            estimates.append(_bernoulli_fit(cfg.spec, n, edges[-1], dyad_count(n)))
            degrees.append(mean_degree(g))
        row = {"cell": f"n={n}", "n": n}
        row.update(_summarize_estimates(estimates, cfg.theta_star))
        row["mean_degree"] = float(np.mean(degrees))
        row["mean_edges"] = float(np.mean(edges))
        rows.append(row)
    return _report(cfg, rows, started, "whole graphs (no node sampling)")


def _replicate_streams(
    cfg: ExperimentConfig, name: str, cell: int
) -> Iterator[np.random.Generator]:
    """The stream of each replicate of a cell, ``substream(seed, name,
    cell, replicate)``, from one reused generator (see :func:`_streams`)."""
    return _streams(cfg.master_seed, (name, cell), (cfg.replicates,))


def _table_replication(cfg: ExperimentConfig, n: int) -> list[list[_Fit]]:
    """Each cell's estimates for a table family, study by study, with the
    bits of ``mle`` on the graphs drawn from ``substream(seed,
    "replication", cell, study, r)``.  One bulk pass draws every cell (an
    integer part below 2^32 is one spawn-key word in the prefix or the
    tail), and rows are held only until their study's mean is taken.  The
    studies of every cell are then fitted by one ``_event_fit.batch`` call,
    which climbs their distinct mean events in lock step.
    """
    dist = build_distribution(cfg.spec, cfg.theta_star, n)  # refuses n beyond the cap
    _, points, _ = _classes(cfg.spec, n)
    studies = cfg.studies_per_cell
    draws = np.repeat(cfg.replicates, studies)  # per study, cell by cell
    ends = np.cumsum(draws)

    def tails(lo: int, hi: int) -> np.ndarray:
        draw = np.arange(lo, hi)
        study = np.searchsorted(ends, draw, side="right")
        first = ends[study] - draws[study]
        return np.column_stack((study // studies, study % studies, draw - first))

    chunks = _bulk_indices(dist, cfg.master_seed, ("replication",), int(ends[-1]), tails)
    events: list[bytes] = []
    held: list[np.ndarray] = []
    for cell, count in enumerate(cfg.replicates):
        while len(events) < (cell + 1) * studies:
            while sum(map(len, held)) < count:
                held.append(points[dist.codes[next(chunks)]])
            rows = np.concatenate(held)
            k = min(len(rows) // count, (cell + 1) * studies - len(events))
            events += _mean_events(rows[: k * count].reshape(k, count, -1))
            held = [rows[k * count :]]
    estimates = _event_fit.batch(cfg.spec, n, events)
    return [estimates[lo : lo + studies] for lo in range(0, len(estimates), studies)]


def run_replication_consistency(
    cfg: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Pooled-estimator error as the number of replicate graphs grows."""
    if cfg.experiment != "replication":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'replication'")
    started = time.perf_counter()
    n = cfg.sizes[0]
    if cfg.spec.bernoulli:
        pi = edge_prob(cfg.spec, cfg.theta_star, n)
        cells = []
        for cell, count in enumerate(cfg.replicates):
            shape = (cfg.studies_per_cell, count)
            streams = _streams(cfg.master_seed, ("replication", cell), shape)
            cells.append([_bernoulli_fit(cfg.spec, n, sum(
                edge_count(sample_bernoulli(n, pi, next(streams))) for _ in range(count)),
                count * dyad_count(n)) for _ in range(shape[0])])
    else:
        cells = _table_replication(cfg, n)
    rows = []
    for count, estimates in zip(cfg.replicates, cells):
        row = {"cell": f"R={count}", "n": n, "R": count}
        row.update(_summarize_estimates(estimates, cfg.theta_star))
        rows.append(row)
    return _report(cfg, rows, started, "replicated whole graphs (no node sampling)")


def _bernoulli_subsample(
    cfg: ExperimentConfig, population_n: int, streams: Iterator[np.random.Generator]
) -> tuple[list[_Fit], list[_Fit]]:
    """The proper and misspecified fits of an independent-dyad
    family's subsample cell.  Each replicate builds its graph and induced
    subgraph, one at a time, since such graphs run to thousands of nodes."""
    pi = edge_prob(cfg.spec, cfg.theta_star, population_n)
    proper, misspecified = [], []
    for rng in streams:
        g = sample_bernoulli(population_n, pi, rng)
        members = rng.choice(population_n, size=cfg.subsample_n, replace=False)
        subset = NodeSubset(population_n, tuple(sorted(map(int, members))))
        m, d = edge_count(induced_subgraph(g, subset)), dyad_count(cfg.subsample_n)
        proper.append(_bernoulli_fit(cfg.spec, population_n, m, d))
        misspecified.append(_bernoulli_fit(cfg.spec, cfg.subsample_n, m, d))
    return proper, misspecified


def _table_subsample(
    dist: ExactDistribution,
    subsample_n: int,
    streams: Iterator[np.random.Generator],
    count: int,
) -> tuple[list[_Fit], list[_Fit]]:
    """The proper and misspecified fits of the first ``count``
    replicates of ``streams`` in a table family's subsample cell, with the
    bits of ``mle`` of each kind on each replicate's ``InducedSubgraph``:
    of the graph ``exact_sample(dist, rng)``, on the sorted nodes of the
    ``rng.choice(dist.n, subsample_n, replace=False)`` that follows it.

    No graph is built.  A batch of at most ``_EVENT_FITS`` replicates
    takes each stream's uniform and node draw, then finds every parent
    graph index by one inverse-CDF search and every subgraph index by bit
    gathers at :func:`~projgraph.graph._dyad_map` of the sorted members.
    Each distinct subgraph index gets its events once, and each kind's
    events are fitted by one ``_event_fit.batch`` call.
    """
    spec, population_n = dist.spec, dist.n
    codes, points, _ = _classes(spec, subsample_n)
    sub_dyads = np.arange(dyad_count(subsample_n))
    proper, misspecified = [], []
    for lo in range(0, count, _EVENT_FITS):
        batch = min(_EVENT_FITS, count - lo)
        uniforms = np.empty(batch)
        members = np.empty((batch, subsample_n), dtype=np.int64)
        for k, rng in zip(range(batch), streams):
            uniforms[k] = rng.random()
            members[k] = rng.choice(population_n, size=subsample_n, replace=False)
        members.sort(axis=1)
        parents = _inverse_cdf(dist, uniforms)[:, None]
        subgraphs = ((parents >> _dyad_map(members) & 1) << sub_dyads).sum(axis=1)
        distinct, where = np.unique(subgraphs, return_inverse=True)
        where = where.tolist()
        events = [_completion_event(spec, Graph(subsample_n, y), population_n)
                  for y in distinct.tolist()]
        proper += _event_fit.batch(spec, population_n, [events[k] for k in where])
        events = _mean_events(points[codes[distinct]][:, None])
        misspecified += _event_fit.batch(spec, subsample_n, [events[k] for k in where])
    return proper, misspecified


def run_subsample_bias(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Proper versus misspecified estimation from induced subgraphs.

    Each replicate's stream draws the population graph, then the node
    subset.  A table family's cell runs on graph indices, a batch of
    replicates at a time (see :func:`_table_subsample`); an
    independent-dyad family's builds each replicate's graph and induced
    subgraph.
    """
    if cfg.experiment != "subsample":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'subsample'")
    started = time.perf_counter()
    rows = []
    for cell_index, population_n in enumerate(cfg.sizes):
        streams = _replicate_streams(cfg, "subsample", cell_index)
        if cfg.spec.bernoulli:
            proper, misspecified = _bernoulli_subsample(cfg, population_n, streams)
        else:
            dist = build_distribution(cfg.spec, cfg.theta_star, population_n)
            proper, misspecified = _table_subsample(dist, cfg.subsample_n, streams,
                                                    cfg.replicates)
        for kind, estimates in (("proper", proper), ("misspecified", misspecified)):
            row = {
                "cell": f"N={population_n}|{kind}",
                "n": population_n,
                "subsample_n": cfg.subsample_n,
                "kind": kind,
            }
            row.update(_summarize_estimates(estimates, cfg.theta_star))
            rows.append(row)
    return _report(cfg, rows, started, "uniform-random node subsets (ignorable)")


def run_connectivity_threshold(
    cfg: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Proportion of connected draws at pi = c * log(n) / n (clamped to 1)."""
    if cfg.experiment != "threshold":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'threshold'")
    if not cfg.spec.bernoulli:
        raise ValueError("the threshold study requires an independent-dyad family")
    started = time.perf_counter()
    rows = []
    cells = [(n, c) for n in cfg.sizes for c in cfg.multipliers]
    for cell_index, (n, c) in enumerate(cells):
        pi = min(1.0, c * math.log(n) / n)
        connected = [is_connected(sample_bernoulli(n, pi, rng))
                     for rng in _replicate_streams(cfg, "threshold", cell_index)]
        rows.append(
            {
                "cell": f"n={n},c={_cell(float(c))}",
                "n": n,
                "multiplier": float(c),
                "pi": pi,
                "units": cfg.replicates,
                "prop_connected": float(np.mean(connected)),
            }
        )
    return _report(cfg, rows, started, "whole graphs (no node sampling)")


_RUNNERS = {
    "growth": run_growth_consistency,
    "replication": run_replication_consistency,
    "subsample": run_subsample_bias,
    "threshold": run_connectivity_threshold,
}

EXPERIMENT_NAMES = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Dispatch a config to its study runner.

    ``threads`` is accepted for compatibility and ignored: replicates run
    serially, and the report is the same for any value.
    """
    return _RUNNERS[cfg.experiment](cfg, threads=threads)
