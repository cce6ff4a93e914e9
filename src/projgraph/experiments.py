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
across runs.  Replicates run serially: each is milliseconds of GIL-bound
Python, and a thread pool made two workers slower than one.  The runners
keep their ``threads`` keyword for compatibility; it schedules nothing.
Replicates with no finite estimate (boundary data) are excluded from
bias/RMSE and counted in the ``n_boundary`` column, with
``units = used + n_boundary`` per row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ._version import __version__
from .exact import build_distribution, exact_sample, sample_bernoulli
from .graph import Graph, NodeSubset, induced_subgraph, is_connected, mean_degree, edge_count
from .inference import (
    FullGraph,
    InducedSubgraph,
    LikelihoodKind,
    MLEResult,
    Replicates,
    mle,
)
from .models import (
    BERNOULLI_OFFSET,
    ModelSpec,
    ParamVector,
    edge_prob,
    model_spec,
    resolve_family_name,
)
from .rng import substream

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "run_growth_consistency",
    "run_replication_consistency",
    "run_subsample_bias",
    "run_connectivity_threshold",
]

EXPERIMENT_NAMES = ("growth", "replication", "subsample", "threshold")

_CONFIG_KEYS = {
    "experiment",
    "spec",
    "theta_star",
    "sizes",
    "replicates",
    "master_seed",
    "subsample_n",
    "multipliers",
    "studies_per_cell",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one study.

    ``replicates`` is an integer for growth/subsample/threshold and a
    list of replicate counts (one cell per count) for replication.  The
    replication study repeats the whole pooled estimation
    ``studies_per_cell`` times per cell to measure estimator spread.
    """

    experiment: str
    spec: ModelSpec
    theta_star: ParamVector
    sizes: tuple[int, ...]
    replicates: int | tuple[int, ...]
    master_seed: int
    subsample_n: Optional[int] = None
    multipliers: Optional[tuple[float, ...]] = None
    studies_per_cell: int = 200

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of "
                f"{', '.join(EXPERIMENT_NAMES)}"
            )
        sizes = tuple(int(v) for v in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("sizes must be non-empty")
        if any(v < 1 for v in sizes):
            raise ValueError("sizes must be positive")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must lie in [0, 2**64)")
        if len(self.theta_star) != self.spec.stat_dim:
            raise ValueError(
                f"theta_star has length {len(self.theta_star)}, expected "
                f"{self.spec.stat_dim} for family {self.spec.family}"
            )

        if self.experiment == "replication":
            reps = self.replicates
            if isinstance(reps, int):
                raise ValueError(
                    "replication requires a list of replicate counts (one per cell)"
                )
            reps = tuple(int(v) for v in reps)
            object.__setattr__(self, "replicates", reps)
            if not reps or any(v < 1 for v in reps):
                raise ValueError("replicate counts must be positive")
            if len(sizes) != 1:
                raise ValueError("replication uses a single fixed graph size")
            if self.studies_per_cell < 2:
                raise ValueError("studies_per_cell must be >= 2")
        else:
            if not isinstance(self.replicates, int) or isinstance(self.replicates, bool):
                raise ValueError(f"{self.experiment} requires an integer replicate count")
            if self.replicates < 1:
                raise ValueError("replicates must be >= 1")
            if self.studies_per_cell != 200:
                raise ValueError("studies_per_cell applies only to replication")

        if self.experiment == "subsample":
            if self.subsample_n is None:
                raise ValueError("subsample requires subsample_n")
            if not 1 <= self.subsample_n < min(sizes):
                raise ValueError(
                    f"subsample_n must lie in [1, {min(sizes)}), got {self.subsample_n}"
                )
        elif self.subsample_n is not None:
            raise ValueError("subsample_n applies only to the subsample experiment")

        if self.experiment == "threshold":
            if self.multipliers is None:
                raise ValueError("threshold requires multipliers")
            mult = tuple(float(v) for v in self.multipliers)
            object.__setattr__(self, "multipliers", mult)
            if not mult or any(v <= 0 for v in mult):
                raise ValueError("multipliers must be positive")
        elif self.multipliers is not None:
            raise ValueError("multipliers applies only to the threshold experiment")

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "ExperimentConfig":
        """Build a config from a JSON-style dict; unknown keys are errors."""
        if not isinstance(payload, dict):
            raise ValueError("experiment config must be a JSON object")
        unknown = sorted(set(payload) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [k for k in ("experiment", "spec", "theta_star", "sizes", "replicates", "master_seed") if k not in payload]
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
        spec = model_spec(resolve_family_name(family))
        theta_star = payload["theta_star"]
        if not isinstance(theta_star, (list, tuple)):
            raise ValueError("theta_star must be an array")
        kwargs: dict[str, Any] = {}
        if "subsample_n" in payload:
            kwargs["subsample_n"] = payload["subsample_n"]
        if "multipliers" in payload:
            kwargs["multipliers"] = tuple(payload["multipliers"])
        if "studies_per_cell" in payload:
            if payload.get("experiment") != "replication":
                raise ValueError("studies_per_cell applies only to replication")
            kwargs["studies_per_cell"] = payload["studies_per_cell"]
        replicates = payload["replicates"]
        if isinstance(replicates, list):
            replicates = tuple(replicates)
        return ExperimentConfig(
            experiment=payload["experiment"],
            spec=spec,
            theta_star=ParamVector(theta=tuple(theta_star)),
            sizes=tuple(payload["sizes"]),
            replicates=replicates,
            master_seed=payload["master_seed"],
            **kwargs,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "experiment": self.experiment,
            "spec": {"family": self.spec.family},
            "theta_star": list(self.theta_star.theta),
            "sizes": list(self.sizes),
            "replicates": (
                list(self.replicates)
                if isinstance(self.replicates, tuple)
                else self.replicates
            ),
            "master_seed": self.master_seed,
        }
        if self.subsample_n is not None:
            out["subsample_n"] = self.subsample_n
        if self.multipliers is not None:
            out["multipliers"] = list(self.multipliers)
        if self.experiment == "replication":
            out["studies_per_cell"] = self.studies_per_cell
        return out


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(row.get(col)) for col in self.columns])
        return buf.getvalue()

    def metadata_json(self) -> str:
        return json.dumps(self.metadata, indent=2, sort_keys=True) + "\n"


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _estimate_columns(dim: int) -> list[str]:
    if dim == 1:
        return ["mean_estimate", "bias", "rmse"]
    cols: list[str] = []
    for name in ("mean_estimate", "bias", "rmse"):
        cols.extend(f"{name}_{k + 1}" for k in range(dim))
    return cols


def _summarize_estimates(
    results: Sequence[MLEResult], theta_star: ParamVector
) -> dict[str, Any]:
    """Bias/RMSE summary over the finite (non-boundary) estimates."""
    dim = len(theta_star)
    finite = [r.theta_hat for r in results if not r.boundary]
    row: dict[str, Any] = {
        "units": len(results),
        "used": len(finite),
        "n_boundary": len(results) - len(finite),
    }
    if finite:
        estimates = np.asarray(finite, dtype=np.float64)
        target = theta_star.as_array()
        mean = estimates.mean(axis=0)
        bias = mean - target
        rmse = np.sqrt(((estimates - target) ** 2).mean(axis=0))
    else:
        mean = bias = rmse = np.full(dim, math.nan)
    if dim == 1:
        row["mean_estimate"] = float(mean[0])
        row["bias"] = float(bias[0])
        row["rmse"] = float(rmse[0])
    else:
        for k in range(dim):
            row[f"mean_estimate_{k + 1}"] = float(mean[k])
            row[f"bias_{k + 1}"] = float(bias[k])
            row[f"rmse_{k + 1}"] = float(rmse[k])
    return row


def _report(
    cfg: ExperimentConfig,
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    started: float,
) -> ExperimentReport:
    metadata = {
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "sampling_design": "uniform-random node subsets (ignorable)",
        "version": f"projgraph-v{__version__}",
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    return ExperimentReport(
        experiment=cfg.experiment,
        columns=tuple(columns),
        rows=tuple(dict(r) for r in rows),
        metadata=metadata,
    )


def run_growth_consistency(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Full-graph estimation error of the offset family across graph sizes."""
    if cfg.experiment != "growth":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'growth'")
    if cfg.spec.family != BERNOULLI_OFFSET:
        raise ValueError("the growth study requires the BernoulliOffset family")
    started = time.perf_counter()
    rows = []
    for cell_index, n in enumerate(cfg.sizes):
        pi = edge_prob(cfg.spec, cfg.theta_star, n)
        results, degrees, edges = [], [], []
        for replicate in range(cfg.replicates):
            rng = substream(cfg.master_seed, "growth", cell_index, replicate)
            g = sample_bernoulli(n, pi, rng)
            results.append(mle(cfg.spec, FullGraph(g), LikelihoodKind.PROPER))
            degrees.append(mean_degree(g))
            edges.append(edge_count(g))
        row = {"cell": f"n={n}", "n": n}
        row.update(_summarize_estimates(results, cfg.theta_star))
        row["mean_degree"] = float(np.mean(degrees))
        row["mean_edges"] = float(np.mean(edges))
        rows.append(row)
    columns = (
        ["cell", "n", "units", "used", "n_boundary"]
        + _estimate_columns(cfg.spec.stat_dim)
        + ["mean_degree", "mean_edges"]
    )
    return _report(cfg, columns, rows, started)


def _cell_sampler(
    cfg: ExperimentConfig, n: int
) -> Callable[[np.random.Generator], Graph]:
    """Per-cell graph sampler: closed-form dyads or exact table sampling."""
    if cfg.spec.definition.bernoulli:
        pi = edge_prob(cfg.spec, cfg.theta_star, n)
        return lambda rng: sample_bernoulli(n, pi, rng)
    dist = build_distribution(cfg.spec, cfg.theta_star, n)
    return lambda rng: exact_sample(dist, rng)


def run_replication_consistency(
    cfg: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Pooled-estimator error as the number of replicate graphs grows."""
    if cfg.experiment != "replication":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'replication'")
    started = time.perf_counter()
    n = cfg.sizes[0]
    draw = _cell_sampler(cfg, n)
    rows = []
    for cell_index, count in enumerate(cfg.replicates):
        results = []
        for study in range(cfg.studies_per_cell):
            graphs = tuple(
                draw(substream(cfg.master_seed, "replication", cell_index, study, r))
                for r in range(count)
            )
            results.append(mle(cfg.spec, Replicates(graphs), LikelihoodKind.PROPER))
        row = {"cell": f"R={count}", "n": n, "R": count}
        row.update(_summarize_estimates(results, cfg.theta_star))
        rows.append(row)
    columns = ["cell", "n", "R", "units", "used", "n_boundary"] + _estimate_columns(
        cfg.spec.stat_dim
    )
    return _report(cfg, columns, rows, started)


def run_subsample_bias(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Proper versus misspecified estimation from induced subgraphs."""
    if cfg.experiment != "subsample":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'subsample'")
    started = time.perf_counter()
    rows = []
    for cell_index, population_n in enumerate(cfg.sizes):
        draw = _cell_sampler(cfg, population_n)
        proper, misspecified = [], []
        for replicate in range(cfg.replicates):
            rng = substream(cfg.master_seed, "subsample", cell_index, replicate)
            g = draw(rng)
            members = tuple(
                sorted(
                    int(v)
                    for v in rng.choice(
                        population_n, size=cfg.subsample_n, replace=False
                    )
                )
            )
            y_sub = induced_subgraph(g, NodeSubset(population_n, members))
            data = InducedSubgraph(y_sub, population_n)
            proper.append(mle(cfg.spec, data, LikelihoodKind.PROPER))
            misspecified.append(mle(cfg.spec, data, LikelihoodKind.MISSPECIFIED))
        for kind, results in (("proper", proper), ("misspecified", misspecified)):
            row = {
                "cell": f"N={population_n}|{kind}",
                "n": population_n,
                "subsample_n": cfg.subsample_n,
                "kind": kind,
            }
            row.update(_summarize_estimates(results, cfg.theta_star))
            rows.append(row)
    columns = [
        "cell",
        "n",
        "subsample_n",
        "kind",
        "units",
        "used",
        "n_boundary",
    ] + _estimate_columns(cfg.spec.stat_dim)
    return _report(cfg, columns, rows, started)


def run_connectivity_threshold(
    cfg: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Proportion of connected draws at pi = c * log(n) / n (clamped to 1)."""
    if cfg.experiment != "threshold":
        raise ValueError(f"config is for {cfg.experiment!r}, expected 'threshold'")
    if not cfg.spec.definition.bernoulli:
        raise ValueError("the threshold study requires an independent-dyad family")
    started = time.perf_counter()
    rows = []
    cells = [(n, c) for n in cfg.sizes for c in cfg.multipliers]
    for cell_index, (n, c) in enumerate(cells):
        pi = min(1.0, c * math.log(n) / n)
        connected = []
        for replicate in range(cfg.replicates):
            rng = substream(cfg.master_seed, "threshold", cell_index, replicate)
            connected.append(is_connected(sample_bernoulli(n, pi, rng)))
        rows.append(
            {
                "cell": f"n={n},c={_format_cell(float(c))}",
                "n": n,
                "multiplier": float(c),
                "pi": pi,
                "units": cfg.replicates,
                "prop_connected": float(np.mean(connected)),
            }
        )
    columns = ["cell", "n", "multiplier", "pi", "units", "prop_connected"]
    return _report(cfg, columns, rows, started)


_RUNNERS = {
    "growth": run_growth_consistency,
    "replication": run_replication_consistency,
    "subsample": run_subsample_bias,
    "threshold": run_connectivity_threshold,
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Dispatch a config to its study runner.

    ``threads`` is accepted for compatibility and ignored: replicates run
    serially, and the report is the same for any value.
    """
    return _RUNNERS[cfg.experiment](cfg, threads=threads)
