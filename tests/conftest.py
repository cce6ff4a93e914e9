"""Shared pytest configuration.

Collects the outcome of every ``test_criterion_*`` test in
``test_acceptance.py`` and prints one PASS/FAIL line per criterion at the
end of the run, so the acceptance gate is readable at a glance.  Also
holds fixtures shared by several test modules, among them every test
family that registers a fast statistic table.
"""

import contextlib
import re

import numpy as np
import pytest

from projgraph import (
    Family,
    degree_sequence,
    dyad_count,
    dyad_index,
    edge_count,
    model_spec,
    register_family,
    unregister_family,
)
from projgraph import models

EDGE_TRI = model_spec("EdgeTriangle")
_edge_triangle_table = models._TABLES[EDGE_TRI.stats]


@contextlib.contextmanager
def _tabled_family(name, stats, table):
    """Register a family named ``name`` whose statistics ``stats`` build their
    table of every graph on n nodes as ``table(n)`` in ``models._TABLES``, as
    the shipped statistic functions do, for as long as the context lasts.
    Such a table is read with no check, so every fixture built on this one
    is listed in test_models' check of each table on every graph."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(models._TABLES, stats, table)
        register_family(Family(name=name, offset_edges=False, stats=stats))
        try:
            yield model_spec(name)
        finally:
            unregister_family(name)


@pytest.fixture
def edge_triangle_over_50():
    """EdgeTriangle with both statistics divided by 50: the same models, with
    natural parameters 50 times as large."""
    with _tabled_family("EdgeTriangleOver50",
                        lambda g: tuple(v / 50.0 for v in EDGE_TRI.stats(g)),
                        lambda n: _edge_triangle_table(n) / 50.0) as fam:
        yield fam


@pytest.fixture(scope="module")
def edge_count_probe():
    """A one-statistic family without the closed form, with a float table."""
    with _tabled_family("EdgeCountProbe", lambda g: (float(edge_count(g)),),
                        lambda n: _edge_triangle_table(n)[:, :1].astype(np.float64)) as fam:
        yield fam


def _float_stats(table):
    m, t = table[:, 0].astype(np.float64), table[:, 1].astype(np.float64)
    return np.column_stack([m / 3.0, np.sqrt(1.0 + t), 0.1 * m * t - 0.5])


@pytest.fixture(scope="module")
def stacked_float_probe():
    """The three non-integer statistics of test_histogram_engine's
    FloatStatsProbe, built from the EdgeTriangle table."""
    with _tabled_family("StackedFloatProbe",
                        lambda g: tuple(_float_stats(np.array([EDGE_TRI.stats(g)]))[0]),
                        lambda n: _float_stats(_edge_triangle_table(n))) as fam:
        yield fam


def _node_four_table(n):
    """(edges, degree of node 4) of every graph on n nodes, by popcounts."""
    index = np.arange(1 << dyad_count(n), dtype=np.uint64)
    star = sum(1 << dyad_index(*sorted((i, 4))) for i in range(n) if i != 4) if n > 4 else 0
    return np.stack([np.bitwise_count(index), np.bitwise_count(index & np.uint64(star))],
                    axis=1)


@pytest.fixture(scope="module")
def node_four_probe():
    """A label-dependent family that the graphs of at most 4 nodes cannot
    show: the edge count and the degree of node 4, which is 0 on them."""
    with _tabled_family(
            "NodeFourProbe",
            lambda g: (float(edge_count(g)), float(degree_sequence(g)[4]) if g.n > 4 else 0.0),
            _node_four_table) as fam:
        yield fam


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")

_outcomes: dict[int, tuple[bool, str]] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    label = match.group(2).replace("_", " ")
    if report.when == "call":
        _outcomes[number] = (report.passed, label)
    elif report.when == "setup" and report.failed:
        _outcomes[number] = (False, label)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        passed, label = _outcomes[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {number:02d}] {status} — {label}")
