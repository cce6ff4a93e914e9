"""Output checks.  Each returns None for a correct output, else the reason.

The oracles do not depend on the seed or on particular random draws, so a
change that legitimately alters the draws still passes: projectivity
distances are compared with reference.json, full-graph estimates must solve
the moment equation, proper-likelihood estimates must be local maxima, and
Monte Carlo reports must agree across thread counts and keep their
accounting identities.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from pathlib import Path
from typing import Optional

import numpy as np

import projgraph

SPEC = projgraph.model_spec("EdgeTriangle")
TV_TOLERANCE = 1e-9
MOMENT_TOLERANCE = 1e-6
LOG_GAP_TOLERANCE = 1e-9
AXIS_STEP = 1e-3  # probe distance for the local-maximum test
AXIS_SLACK = 1e-12  # rounding allowance of the log likelihood near its maximum

_REFERENCE = {
    tuple(row["theta"]): row["tv"]
    for row in json.loads(
        Path(__file__).with_name("reference.json").read_text(encoding="utf-8")
    )["edge_triangle_tv_n7_sub6"]
}


def grid_points(axis: tuple[float, ...] = (-2.0, -1.0, 0.0, 1.0, 2.0)):
    """Product grid in the order check-projectivity reports it."""
    return list(itertools.product(axis, repeat=2))


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def projectivity(text: str, grid: list[tuple[float, float]]) -> Optional[str]:
    lines = text.splitlines()
    if len(lines) != len(grid) + 3 or lines[-2] != "max_tv,verdict":
        return "projectivity report has the wrong shape"
    verdict = lines[-1].split(",")[-1]
    if verdict != "non-projective":
        return f"verdict {verdict!r}, expected 'non-projective'"
    for theta, row in zip(grid, _rows("\n".join(lines[:-2]))):
        if (float(row["theta_1"]), float(row["theta_2"])) != theta:
            return f"grid point {theta} missing"
        if abs(float(row["tv"]) - _REFERENCE[theta]) > TV_TOLERANCE:
            return f"tv {row['tv']} at {theta} differs from reference {_REFERENCE[theta]!r}"
    return None


def _theta_hat(row: dict[str, str]) -> np.ndarray:
    return np.array([float(row["theta_hat_1"]), float(row["theta_hat_2"])])


def full_mle(text: str, expected: list[tuple[tuple[int, int], bool]]) -> Optional[str]:
    """expected: per input file, its (edges, triangles) and whether it is boundary."""
    rows = _rows(text)
    if len(rows) != len(expected):
        return f"{len(rows)} estimates for {len(expected)} graphs"
    for k, (row, (stats, boundary)) in enumerate(zip(rows, expected)):
        if (row["boundary"] == "true") != boundary:
            return f"graph {k} with statistics {stats}: boundary={row['boundary']}"
        if boundary:
            continue
        theta = projgraph.ParamVector(theta=tuple(_theta_hat(row)))
        mean = projgraph.expected_stats(SPEC, theta, 7).values
        if max(abs(m - s) for m, s in zip(mean, stats)) > MOMENT_TOLERANCE:
            return f"graph {k}: expected statistics {mean} at theta_hat, observed {stats}"
    return None


def proper_mle(text: str, subgraphs: list[list[tuple[int, int]]],
               population_n: int = 7) -> Optional[str]:
    rows = _rows(text)
    if len(rows) != len(subgraphs):
        return f"{len(rows)} estimates for {len(subgraphs)} subgraphs"
    for k, (row, edges) in enumerate(zip(rows, subgraphs)):
        if row["boundary"] == "true":
            continue
        g = projgraph.graph_from_edges(5, edges)

        def loglik(theta: np.ndarray) -> float:
            return projgraph.proper_log_likelihood(
                SPEC, projgraph.ParamVector(theta=tuple(theta)), g, population_n
            )

        theta = _theta_hat(row)
        peak = loglik(theta)
        for axis, sign in itertools.product(range(2), (1.0, -1.0)):
            probe = theta.copy()
            probe[axis] += sign * AXIS_STEP
            if loglik(probe) > peak + AXIS_SLACK:
                return f"subgraph {k}: theta_hat is not a maximum along axis {axis + 1}"
    return None


def experiment(text: str, log_gap: Optional[float] = None) -> Optional[str]:
    """Accounting identity per row; with log_gap, the misspecified-minus-proper offset."""
    rows = _rows(text)
    if not rows:
        return "empty experiment report"
    for row in rows:
        if "used" in row and int(row["units"]) != int(row["used"]) + int(row["n_boundary"]):
            return f"cell {row['cell']}: units != used + n_boundary"
    if log_gap is not None:
        means = {row["kind"]: float(row["mean_estimate"]) for row in rows}
        gap = means["misspecified"] - means["proper"]
        if abs(gap - log_gap) > LOG_GAP_TOLERANCE:
            return f"misspecified minus proper mean is {gap!r}, expected {log_gap!r}"
    return None


def units(text: str) -> int:
    """Monte Carlo estimates in an experiment report: the sum of its units column."""
    return sum(int(row["units"]) for row in _rows(text) if "units" in row)
