"""Property tests: normalizers, moments and the completion likelihood, which
run on statistic histograms, against direct sums over every graph."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projgraph import (
    Family,
    NodeSubset,
    ParamVector,
    completion_log_likelihood,
    dyad_count,
    edge_count,
    expected_stats,
    graph_from_index,
    induced_subgraph,
    log_normalizer,
    model_spec,
    register_family,
    stat_covariance,
    triangle_count,
    unregister_family,
)

RTOL = 1e-12


def _edge_triangle(g):
    return (float(edge_count(g)), float(triangle_count(g)))


def _float_stats(g):
    """Non-integer statistics in three columns, for the general histogram key."""
    m, t = edge_count(g), triangle_count(g)
    return (m / 3.0, math.sqrt(1.0 + t), 0.1 * m * t - 0.5)


FAMILIES = {"EdgeTriangle": _edge_triangle, "FloatStatsProbe": _float_stats}


@pytest.fixture(scope="module", autouse=True)
def float_family():
    register_family(
        Family(name="FloatStatsProbe", stat_dim=3, offset_edges=False, stats=_float_stats)
    )
    yield
    unregister_family("FloatStatsProbe")


@lru_cache(maxsize=None)
def _graph_table(family, n):
    """Statistics of every graph on n nodes, one row per graph index."""
    stats = FAMILIES[family]
    return np.array([stats(graph_from_index(n, k)) for k in range(1 << dyad_count(n))])


def _log_sum_exp(values):
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))


def _oracle_moments(family, n, eta):
    table = _graph_table(family, n)
    kernel = table @ eta
    log_z = _log_sum_exp(kernel)
    p = np.exp(kernel - log_z)
    mu = p @ table
    centered = table - mu
    return log_z, mu, centered.T @ (centered * p[:, None])


def _thetas(dim):
    coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    return st.tuples(*[coordinate] * dim)


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    # A covariance entry is judged on the scale of its two variances.  The
    # floor absorbs the oracle's rounding on a constant column, whose true
    # variance is 0 but which the oracle computes as about 1e-32.
    scale = np.abs(want)
    if want.ndim == 2:
        scale = np.maximum(scale, np.sqrt(np.outer(np.diag(want), np.diag(want))))
    assert np.all(np.abs(got - want) <= RTOL * scale + 1e-24), (got, want)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), theta=_thetas(2))
def test_edge_triangle_moments_match_per_graph_sums(n, theta):
    spec = model_spec("EdgeTriangle")
    pv = ParamVector(theta=theta)
    log_z, mu, cov = _oracle_moments("EdgeTriangle", n, np.array(theta))
    _assert_close(log_normalizer(spec, pv, n), log_z)
    _assert_close(expected_stats(spec, pv, n).values, mu)
    _assert_close(stat_covariance(spec, pv, n), cov)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), theta=_thetas(3))
def test_float_statistic_moments_match_per_graph_sums(n, theta):
    spec = model_spec("FloatStatsProbe")
    pv = ParamVector(theta=theta)
    log_z, mu, cov = _oracle_moments("FloatStatsProbe", n, np.array(theta))
    _assert_close(log_normalizer(spec, pv, n), log_z)
    _assert_close(expected_stats(spec, pv, n).values, mu)
    _assert_close(stat_covariance(spec, pv, n), cov)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(FAMILIES)))
def test_completion_likelihood_matches_per_completion_sum(data, family):
    spec = model_spec(family)
    population_n = data.draw(st.integers(2, 5), label="population_n")
    sub_n = data.draw(st.integers(1, population_n - 1), label="sub_n")
    y_index = data.draw(st.integers(0, (1 << dyad_count(sub_n)) - 1), label="y_index")
    theta = data.draw(_thetas(spec.stat_dim), label="theta")
    y_sub = graph_from_index(sub_n, y_index)
    prefix = NodeSubset(parent_n=population_n, members=tuple(range(sub_n)))
    completions = [
        k
        for k in range(1 << dyad_count(population_n))
        if induced_subgraph(graph_from_index(population_n, k), prefix) == y_sub
    ]
    log_w = _graph_table(family, population_n) @ np.array(theta)
    want = _log_sum_exp(log_w[completions]) - _log_sum_exp(log_w)
    got = completion_log_likelihood(spec, ParamVector(theta=theta), y_sub, population_n)
    _assert_close(got, want)
