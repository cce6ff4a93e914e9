"""Shared pytest configuration.

Collects the outcome of every ``test_criterion_*`` test in
``test_acceptance.py`` and prints one PASS/FAIL line per criterion at the
end of the run, so the acceptance gate is readable at a glance.  Also
holds fixtures shared by several test modules.
"""

import re

import pytest

from projgraph import Family, model_spec, register_family, unregister_family


@pytest.fixture
def edge_triangle_over_50():
    """EdgeTriangle with both statistics divided by 50: the same models, with
    natural parameters 50 times as large."""
    base = model_spec("EdgeTriangle")
    fam = Family(
        name="EdgeTriangleOver50",
        stat_dim=2,
        offset_edges=False,
        stats=lambda g: tuple(v / 50.0 for v in base.stats(g)),
        bulk_stats=lambda n: base.bulk_stats(n) / 50.0,
    )
    register_family(fam)
    yield model_spec("EdgeTriangleOver50")
    unregister_family("EdgeTriangleOver50")


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
