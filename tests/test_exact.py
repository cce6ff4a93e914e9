"""Exact enumeration: normalizers, distributions, marginals, projectivity, sampling."""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chisquare

import projgraph
from projgraph import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Family,
    InducedSubgraph,
    MAX_ENUMERATION_CAP,
    PROJECTIVITY_TOLERANCE,
    NodeSubset,
    ParamVector,
    build_distribution,
    complete_graph,
    completion_log_likelihood,
    default_theta_grid,
    dyad_count,
    edge_count,
    edge_prob,
    enumerated_stats,
    expected_stats,
    exact_sample,
    graph_from_edges,
    graph_from_index,
    log_likelihood,
    log_normalizer,
    marginal_distribution,
    mle,
    model_spec,
    natural_params,
    projectivity_check,
    register_family,
    resolve_enum_cap,
    sample_bernoulli,
    stat_covariance,
    substream,
    sufficient_stats,
    triangle_count,
    tv_distance,
    unregister_family,
)
from projgraph.exact import (
    _CHUNK,
    _CODE_CHUNK,
    _DRAW_CHUNK,
    ExactDistribution,
    _bulk_sample,
    _classes,
    _joint_counts,
    _logsumexp,
    _product_grid,
)
from projgraph.models import _statistics

INVARIANT = model_spec("BernoulliInvariant")
OFFSET = model_spec("BernoulliOffset")
EDGE_TRI = model_spec("EdgeTriangle")

ALL_SPECS = (INVARIANT, OFFSET, EDGE_TRI)


def _theta(spec, *values):
    if len(values) == 1 and spec.stat_dim == 2:
        values = (values[0], 0.0)
    return ParamVector(theta=values)


def _bernoulli_table(n, pi):
    """Product-Bernoulli probability table over all graphs of size n."""
    counts = np.bitwise_count(np.arange(1 << dyad_count(n), dtype=np.uint64)).astype(float)
    return pi**counts * (1 - pi) ** (dyad_count(n) - counts)


@pytest.fixture
def edges_only():
    """A clone of the edge-count family without the independent-dyad shortcut,
    so every quantity goes through full enumeration."""
    fam = Family(
        name="EdgesOnlyClone",
        offset_edges=False,
        stats=lambda g: (float(edge_count(g)),),
    )
    register_family(fam)
    yield model_spec("EdgesOnlyClone")
    unregister_family("EdgesOnlyClone")


# --------------------------------------------------------------------------
# enumeration caps
# --------------------------------------------------------------------------


def test_cap_constants():
    assert DEFAULT_ENUMERATION_CAP == 7
    assert MAX_ENUMERATION_CAP == 8


def test_default_cap_allows_up_to_seven():
    for n in range(1, 8):
        assert resolve_enum_cap(n) == 7


def test_cap_rejects_large_sizes():
    with pytest.raises(EnumerationCapError, match=r"n=12 exceeds the enumeration cap 7"):
        resolve_enum_cap(12)
    with pytest.raises(EnumerationCapError, match="override up to 8 is possible"):
        resolve_enum_cap(8)
    with pytest.raises(EnumerationCapError):
        resolve_enum_cap(9, enum_cap=8)


def test_cap_override_to_eight_only_checks_the_cap():
    """Checking the cap allocates nothing, so it does not warn: the cost
    warning comes from building a class coding."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_enum_cap(8, enum_cap=8) == 8


def test_a_costly_coding_warns_once_under_default_filters():
    """A plain interpreter prints the cost warning once for a coding above
    the default cap, however many public calls read it: the category is one
    that Python's default warning filters show (pytest changes them, so
    this runs in a child), and a cached coding is not built again."""
    src = str(Path(projgraph.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src
    script = (
        "import projgraph.exact as exact\n"
        "from projgraph import ParamVector, model_spec\n"
        "exact.DEFAULT_ENUMERATION_CAP = 4\n"
        "fam = model_spec('EdgeTriangle')\n"
        "exact.enumerated_stats(fam, 5, enum_cap=5)\n"
        "exact.enumerated_stats(fam, 5, enum_cap=5)\n"
        "exact.log_normalizer(fam, ParamVector(theta=(0.1, 0.2)), 5, enum_cap=5)\n"
    )
    done = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("RuntimeWarning: enumerating all 2^10 graphs on 5 nodes") == 1
    assert "about 550 MB at n=8 for a shipped family" in done.stderr


_Y4 = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
_THETA = ParamVector(theta=(0.1, 0.2))


@pytest.mark.parametrize("call", [
    lambda: enumerated_stats(EDGE_TRI, 5, enum_cap=5),
    lambda: log_normalizer(EDGE_TRI, _THETA, 5, enum_cap=5),
    lambda: build_distribution(EDGE_TRI, _THETA, 5, enum_cap=5),
    lambda: projectivity_check(EDGE_TRI, [_THETA], n=5, n_sub=4, enum_cap=5),
    lambda: completion_log_likelihood(EDGE_TRI, _THETA, _Y4, 5, enum_cap=5),
    lambda: log_likelihood(EDGE_TRI, _THETA, InducedSubgraph(_Y4, 5), enum_cap=5),
    lambda: mle(EDGE_TRI, InducedSubgraph(_Y4, 5), enum_cap=5),
], ids=["enumerated_stats", "log_normalizer", "build_distribution", "projectivity_check",
        "completion_log_likelihood", "log_likelihood", "mle"])
def test_each_public_call_warns_once_for_the_coding_it_builds(monkeypatch, call):
    """Each public call checks the cap itself and reads codings through the
    cache, so from a cold cache it warns once above the default cap, however
    many of the others it calls, and a repeat in the process warns none.
    The warning names the caller's line, not one inside the package."""
    monkeypatch.setattr(projgraph.exact, "DEFAULT_ENUMERATION_CAP", 4)
    _classes.cache_clear()
    runs = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        runs.append([w for w in caught if w.category is RuntimeWarning])
    first, again = runs
    assert len(first) == 1 and "all 2^10 graphs on 5 nodes" in str(first[0].message)
    assert first[0].filename == __file__
    assert again == []


def test_cap_request_validation():
    with pytest.raises(ValueError, match=r"enumeration cap must lie in \[1, 8\]"):
        resolve_enum_cap(3, enum_cap=0)
    with pytest.raises(ValueError):
        resolve_enum_cap(3, enum_cap=9)


def test_enumerated_stats_respects_cap():
    with pytest.raises(EnumerationCapError):
        enumerated_stats(INVARIANT, 10)


def test_enumerated_stats_table_is_read_only():
    table = enumerated_stats(EDGE_TRI, 4)
    assert table.shape == (64, 2)
    assert not table.flags.writeable


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("n", range(1, 8))
def test_enumerated_stats_regathers_the_built_table(request, spec, n):
    """The public table, regathered from the class coding, is the family's
    per-graph rows, or at n = 7 the mask loop's table, as uint8: values and
    shape, and read-only."""
    table = enumerated_stats(spec, n)
    want = (_statistics(spec, n) if n < 7
            else request.getfixturevalue("mask_loop_seven")[:, :spec.stat_dim])
    assert table.dtype == np.uint8
    assert table.shape == want.shape
    assert np.array_equal(table, want)
    assert not table.flags.writeable


# --------------------------------------------------------------------------
# log normalizer
# --------------------------------------------------------------------------


def test_log_normalizer_closed_form_for_independent_dyads():
    # sum over graphs factorizes dyad by dyad: C(n,2) * log(1 + e^eta)
    for theta in (-2.0, 0.0, 1.5):
        for n in (2, 5, 40):
            expected = dyad_count(n) * math.log1p(math.exp(theta))
            got = log_normalizer(INVARIANT, ParamVector(theta=(theta,)), n)
            assert got == pytest.approx(expected, rel=1e-14)
    assert log_normalizer(INVARIANT, ParamVector(theta=(0.0,)), 3) == pytest.approx(
        3 * math.log(2), abs=1e-14
    )


def test_log_normalizer_offset_shifts_the_edge_term():
    for n in (3, 7, 100):
        expected = dyad_count(n) * math.log1p(math.exp(1.0 - math.log(n)))
        got = log_normalizer(OFFSET, ParamVector(theta=(1.0,)), n)
        assert got == pytest.approx(expected, rel=1e-14)


def test_log_normalizer_enumeration_matches_closed_form(edges_only):
    """Dual route: the enumerated normalizer of the edge-count clone must equal
    the dyad-factorized closed form of the independent-dyad family."""
    for theta in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for n in range(2, 7):
            enumerated = log_normalizer(edges_only, ParamVector(theta=(theta,)), n)
            closed = log_normalizer(INVARIANT, ParamVector(theta=(theta,)), n)
            assert enumerated == pytest.approx(closed, rel=1e-12, abs=1e-12)


def test_log_normalizer_edge_triangle_three_nodes():
    """On 3 nodes only the complete graph has a triangle, so with zero edge
    weight the normalizer is log(7 + e^t)."""
    for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
        got = log_normalizer(EDGE_TRI, ParamVector(theta=(0.0, t)), 3)
        assert got == pytest.approx(math.log(7 + math.exp(t)), abs=1e-12)


def test_reregistered_family_does_not_reuse_cached_statistics():
    """A name registered again with other statistics gets its own tables."""
    register_family(
        Family(name="Tmp", offset_edges=False, stats=lambda g: (float(edge_count(g)),))
    )
    try:
        edges = log_normalizer(model_spec("Tmp"), ParamVector(theta=(0.5,)), 4)
    finally:
        unregister_family("Tmp")
    assert edges == pytest.approx(6 * math.log1p(math.exp(0.5)), abs=1e-12)
    register_family(
        Family(name="Tmp", offset_edges=False, stats=lambda g: (float(triangle_count(g)),))
    )
    try:
        triangles = log_normalizer(model_spec("Tmp"), ParamVector(theta=(0.5,)), 4)
    finally:
        unregister_family("Tmp")
    # on 4 nodes: 41 graphs without a triangle, 16 with one, 6 with two, 1 with four
    want = math.log(41 + 16 * math.exp(0.5) + 6 * math.exp(1.0) + math.exp(2.0))
    assert triangles == pytest.approx(want, abs=1e-12)


def test_log_normalizer_single_node():
    assert log_normalizer(INVARIANT, ParamVector(theta=(2.0,)), 1) == 0.0
    assert log_normalizer(EDGE_TRI, ParamVector(theta=(2.0, 2.0)), 1) == 0.0


# --------------------------------------------------------------------------
# exact distributions
# --------------------------------------------------------------------------


def test_distribution_is_normalized_for_all_families():
    for spec in ALL_SPECS:
        for value in (-1.0, 0.0, 1.0):
            theta = _theta(spec, value) if spec.stat_dim == 1 else ParamVector((value, 0.5))
            for n in range(2, 6):
                d = build_distribution(spec, theta, n)
                assert float(d.probs().sum()) == pytest.approx(1.0, abs=1e-12)
                assert d.log_z == pytest.approx(log_normalizer(spec, theta, n), abs=1e-12)


def test_distribution_examples():
    # independent dyads at probability 0.2: P(empty on 3 nodes) = 0.8^3
    theta = ParamVector(theta=(math.log(0.2 / 0.8),))
    d = build_distribution(INVARIANT, theta, 3)
    assert d.probs()[0] == pytest.approx(0.512, abs=1e-12)
    assert d.probs()[7] == pytest.approx(0.008, abs=1e-12)
    # edge-triangle at (0, 1): P(K3) = e / (7 + e)
    d = build_distribution(EDGE_TRI, ParamVector(theta=(0.0, 1.0)), 3)
    k3 = complete_graph(3).dyads
    assert d.probs()[k3] == pytest.approx(math.e / (7 + math.e), abs=1e-12)
    assert d.probs()[k3] == pytest.approx(0.2797081, abs=1e-6)


def test_distribution_matches_bernoulli_product_table():
    for theta in (-1.0, 0.3):
        pi = edge_prob(INVARIANT, ParamVector(theta=(theta,)), 4)
        d = build_distribution(INVARIANT, ParamVector(theta=(theta,)), 4)
        np.testing.assert_allclose(d.probs(), _bernoulli_table(4, pi), atol=1e-13)


def test_offset_distribution_equals_invariant_at_shifted_parameter():
    n = 5
    off = build_distribution(OFFSET, ParamVector(theta=(1.0,)), n)
    inv = build_distribution(INVARIANT, ParamVector(theta=(1.0 - math.log(n),)), n)
    np.testing.assert_allclose(off.probs(), inv.probs(), atol=1e-13)


# --------------------------------------------------------------------------
# class coding
# --------------------------------------------------------------------------


def test_coding_the_n7_classes_allocates_little_beyond_the_codes():
    """The 2^21 EdgeTriangle graphs on 7 nodes are coded a block at a time
    from the 6-node table: beyond the codes, at most one coder chunk's intp
    index and 1 MiB are allocated, where the 7-node table would take 4 MiB
    and one int64 copy of a whole key 16 MiB."""
    _classes.cache_clear()
    tracemalloc.start()
    try:
        codes = _classes(EDGE_TRI, 7)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= codes.nbytes + _CODE_CHUNK * np.dtype(np.intp).itemsize + (1 << 20)


def test_the_class_coding_keeps_no_statistic_table():
    """A fresh coding of the 2^21 EdgeTriangle graphs on 7 nodes leaves its
    codes and at most 1 MiB allocated: the 4 MiB statistic table it was
    coded from is let go."""
    _classes.cache_clear()
    tracemalloc.start()
    try:
        codes = _classes(EDGE_TRI, 7)[0]
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= codes.nbytes + (1 << 20)


def test_the_n7_sampling_cdf_allocates_one_per_graph_array():
    """The sampling CDF is summed in place over the per-graph probabilities:
    beyond its own 16 MiB, at most 1 MiB is allocated, where a separate
    cumulative sum would take another 16 MiB."""
    d = build_distribution(EDGE_TRI, ParamVector(theta=(-0.5, 0.3)), 7)
    tracemalloc.start()
    try:
        cdf = d._cdf
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cdf.nbytes + (1 << 20)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("n", range(1, 8))
def test_the_coder_chunk_changes_no_bit_of_the_coding(spec, n):
    """Codes, rows, log counts and their dtypes are the same whether the
    coder splits the graphs into many blocks, a few, or one."""
    codings = []
    for chunk in (1 << 10, 1 << 16, 1 << 20):
        _classes.cache_clear()
        with mock.patch.object(projgraph.exact, "_CODE_CHUNK", chunk):
            codings.append(_classes(spec, n))
    for coding in codings[1:]:
        assert coding.dtype == codings[0].dtype
        for got, want in zip(coding, codings[0]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


_CODE_N8_SCRIPT = """
import resource

limit = 3 << 29  # 1.5 GiB of address space
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

import warnings

import numpy as np
from projgraph import graph_from_index, model_spec, sufficient_stats
from projgraph.exact import _classes

warnings.simplefilter("ignore", RuntimeWarning)  # the cost warning of n = 8
fam = model_spec("EdgeTriangle")
codes, points, log_counts = _classes(fam, 8)
for k in np.random.default_rng(8).integers(0, len(codes), 1000):
    assert tuple(points[codes[k]]) == sufficient_stats(fam, graph_from_index(8, int(k))).values
assert np.all(np.diff(points @ [1 << 8, 1]) > 0)  # lexicographic, distinct
print(codes.dtype, len(points), int(np.rint(np.exp(log_counts)).sum()))
"""


def test_the_n8_table_codes_within_1_5_gib_of_address_space():
    """In a child process whose own address space is capped at 1.5 GiB, the
    2^28 EdgeTriangle graphs on 8 nodes are coded, each sampled graph to
    its own statistics, and the class counts sum to 2^28."""
    pytest.importorskip("resource")
    src = str(Path(projgraph.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _CODE_N8_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    dtype, classes, total = done.stdout.split()
    assert (dtype, int(total)) == ("uint8", 1 << 28)
    assert int(classes) < 256


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------


def test_expected_stats_uniform_edge_triangle():
    # theta = 0 is uniform over the 8 graphs: E[edges] = 3/2, E[triangles] = 1/8
    mu = expected_stats(EDGE_TRI, ParamVector(theta=(0.0, 0.0)), 3)
    assert mu.values == pytest.approx((1.5, 0.125), abs=1e-14)


def test_stat_covariance_uniform_edge_triangle():
    cov = stat_covariance(EDGE_TRI, ParamVector(theta=(0.0, 0.0)), 3)
    expected = np.array([[0.75, 0.1875], [0.1875, 7 / 64]])
    np.testing.assert_allclose(cov, expected, atol=1e-14)


def test_bernoulli_moments_match_enumeration(edges_only):
    """Dual route: closed-form binomial moments against full enumeration."""
    for theta in (-1.5, 0.0, 0.7):
        for n in range(2, 6):
            pv = ParamVector(theta=(theta,))
            closed_mu = expected_stats(INVARIANT, pv, n)
            enum_mu = expected_stats(edges_only, pv, n)
            assert closed_mu.values == pytest.approx(enum_mu.values, rel=1e-12)
            closed_cov = stat_covariance(INVARIANT, pv, n)
            enum_cov = stat_covariance(edges_only, pv, n)
            np.testing.assert_allclose(closed_cov, enum_cov, rtol=1e-10, atol=1e-12)


def test_expected_stats_is_gradient_of_log_normalizer():
    """Central finite differences of the log normalizer recover the mean
    sufficient statistics, the defining identity of the normalizer."""
    step = 1e-5
    for n in (3, 4):
        for point in ((0.0, 0.0), (0.5, -0.5), (-1.0, 1.0)):
            mu = expected_stats(EDGE_TRI, ParamVector(theta=point), n).as_array()
            for k in range(2):
                hi = list(point)
                lo = list(point)
                hi[k] += step
                lo[k] -= step
                fd = (
                    log_normalizer(EDGE_TRI, ParamVector(theta=tuple(hi)), n)
                    - log_normalizer(EDGE_TRI, ParamVector(theta=tuple(lo)), n)
                ) / (2 * step)
                assert fd == pytest.approx(mu[k], rel=1e-6, abs=1e-8)


# --------------------------------------------------------------------------
# marginal distributions
# --------------------------------------------------------------------------


def test_distribution_is_built_without_a_per_graph_table():
    """With the class coding cached, a distribution over the 2^21 graphs on
    7 nodes holds one value per class; a per-graph float64 table alone
    would take 16 MB."""
    theta = ParamVector(theta=(-0.5, 0.3))
    _classes(EDGE_TRI, 7)
    tracemalloc.start()
    try:
        d = build_distribution(EDGE_TRI, theta, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(d.class_log_probs) == len(_classes(EDGE_TRI, 7)[1])


def test_marginal_requires_matching_parent():
    d = build_distribution(INVARIANT, ParamVector(theta=(0.0,)), 4)
    with pytest.raises(ValueError, match="parent_n=5 does not match distribution n=4"):
        marginal_distribution(d, NodeSubset(parent_n=5, members=(0, 1)))


@pytest.mark.parametrize("members", [tuple(range(6)), tuple(range(1, 7)), (0, 3, 6)])
def test_the_chunk_size_changes_no_bit_of_a_marginal(members):
    """Each entry sums its graphs in graph-index order, however many chunks
    the 2^21 graphs on 7 nodes are read in."""
    d = build_distribution(EDGE_TRI, ParamVector(theta=(-0.5, 0.3)), 7)
    marginals = []
    for chunk in (1 << 10, 1 << 16, 1 << 20):
        with mock.patch.object(projgraph.exact, "_CODE_CHUNK", chunk):
            marginals.append(marginal_distribution(d, NodeSubset(7, members)))
    for marg in marginals[1:]:
        assert np.array_equal(marg, marginals[0])


def test_marginal_sums_to_one():
    d = build_distribution(EDGE_TRI, ParamVector(theta=(0.3, 0.2)), 5)
    for members in ((0, 1), (0, 1, 2), (1, 3, 4), (0, 1, 2, 3, 4)):
        marg = marginal_distribution(d, NodeSubset(5, members))
        assert float(marg.sum()) == pytest.approx(1.0, abs=1e-12)


def test_marginal_of_full_subset_is_the_distribution():
    d = build_distribution(EDGE_TRI, ParamVector(theta=(0.3, 0.2)), 4)
    marg = marginal_distribution(d, NodeSubset(4, (0, 1, 2, 3)))
    np.testing.assert_allclose(marg, d.probs(), atol=1e-14)


def test_marginal_is_exchangeable_across_subsets():
    """All subsets of equal size give the same marginal table: node labels are
    exchangeable under every registered family."""
    d = build_distribution(EDGE_TRI, ParamVector(theta=(0.3, 0.4)), 5)
    prefix = marginal_distribution(d, NodeSubset(5, (0, 1, 2)))
    for members in ((0, 2, 4), (1, 3, 4), (2, 3, 4)):
        other = marginal_distribution(d, NodeSubset(5, members))
        np.testing.assert_allclose(other, prefix, atol=1e-12)


def test_size_invariant_family_marginalizes_to_itself():
    theta = ParamVector(theta=(0.6,))
    d = build_distribution(INVARIANT, theta, 5)
    for m in (2, 3, 4):
        marg = marginal_distribution(d, NodeSubset(5, tuple(range(m))))
        small = build_distribution(INVARIANT, theta, m)
        np.testing.assert_allclose(marg, small.probs(), atol=1e-12)


def test_offset_marginal_is_bernoulli_at_the_population_rate():
    """Restricting the size-4 model to 3 nodes keeps the size-4 edge
    probability 1/5 — it does not become the size-3 model's 1/4."""
    d = build_distribution(OFFSET, ParamVector(theta=(0.0,)), 4)
    marg = marginal_distribution(d, NodeSubset(4, (0, 1, 2)))
    np.testing.assert_allclose(marg, _bernoulli_table(3, 0.2), atol=1e-13)
    small = build_distribution(OFFSET, ParamVector(theta=(0.0,)), 3)
    np.testing.assert_allclose(small.probs(), _bernoulli_table(3, 0.25), atol=1e-13)


# --------------------------------------------------------------------------
# total variation distance
# --------------------------------------------------------------------------


def test_tv_distance_examples():
    assert tv_distance(_bernoulli_table(3, 0.3), _bernoulli_table(3, 0.3)) == 0.0
    point_a = np.array([1.0, 0.0])
    point_b = np.array([0.0, 1.0])
    assert tv_distance(point_a, point_b) == 1.0
    # Bernoulli(0.2)^3 vs Bernoulli(0.25)^3, the size-4 -> 3 gap at theta = 0
    assert tv_distance(_bernoulli_table(3, 0.2), _bernoulli_table(3, 0.25)) == pytest.approx(
        0.090125, abs=1e-12
    )


def test_tv_distance_validates_inputs():
    with pytest.raises(ValueError, match="differ in shape"):
        tv_distance(np.ones(4) / 4, np.ones(8) / 8)
    with pytest.raises(ValueError, match="not normalized"):
        tv_distance(np.ones(4), np.ones(4) / 4)
    with pytest.raises(ValueError) as refused:
        tv_distance([0.5, 0.6], [0.5, 0.5])
    assert str(refused.value) == "first table is not normalized (sum=1.1)"
    with pytest.raises(ValueError, match=r"first table is not normalized \(sum=nan\)$"):
        tv_distance([math.nan, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"second table is not normalized \(sum=nan\)$"):
        tv_distance([0.5, 0.5], [0.5, math.nan])


def test_projectivity_check_refuses_nan_tables():
    """Overflowing energies make the tables sum to NaN, which is no closer
    to 1 than 1e-8: the check refuses them instead of reporting a NaN
    distance."""
    grid = [ParamVector(theta=(0.0, 0.0)), ParamVector(theta=(1e308, 1e308))]
    with pytest.raises(ValueError, match=r"first table is not normalized \(sum=nan\)$"):
        projectivity_check(EDGE_TRI, grid, n=4, n_sub=3)


def test_projectivity_check_at_overflowing_energies_keeps_its_distances():
    """At theta components of -1e308 the energies overflow to -inf, which
    is a probability of 0: the distances are the finite ones, with no
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = projectivity_check(EDGE_TRI, _product_grid(EDGE_TRI, (-1e308, 0.0)),
                                    n=4, n_sub=3)
    assert report.tv_per_theta == (0.0, 0.0, 0.06271777003484322, 3.608224830031759e-16)


@pytest.mark.parametrize("spec, theta", [(EDGE_TRI, (1e308, -1e308)), (EDGE_TRI, (1e308, 0.0)),
                                         (OFFSET, (1e308,)), (INVARIANT, (1e308,))])
def test_a_log_normalizer_that_overflows_is_refused(spec, theta):
    """Neither the enumeration nor the Bernoulli closed form returns an
    infinite or NaN normalizer, and neither warns on the way; nor does the
    proper likelihood's enumerated population normalizer.  An enumerated
    family's moments are refused with their normalizer, while the closed
    form's stay finite at any theta: at pi = 1 every dyad is an edge."""
    theta = ParamVector(theta=theta)
    y_sub = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the parameters overflow"):
            log_normalizer(spec, theta, 4)
        with pytest.raises(ValueError, match="the parameters overflow"):
            build_distribution(spec, theta, 4)
        with pytest.raises(ValueError, match="the parameters overflow"):
            completion_log_likelihood(spec, theta, y_sub, 5)
        if spec.bernoulli:
            assert expected_stats(spec, theta, 4).values == (6.0,)
            assert stat_covariance(spec, theta, 4).tolist() == [[0.0]]
        else:
            with pytest.raises(ValueError, match="the parameters overflow"):
                expected_stats(spec, theta, 4)
            with pytest.raises(ValueError, match="the parameters overflow"):
                stat_covariance(spec, theta, 4)


def test_moments_where_the_energies_overflow_to_zero_weight():
    """At theta_1 = -1e308 every graph with an edge has weight 0, so the
    moments are the empty graph's statistics, with no warning."""
    theta = ParamVector(theta=(-1e308, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expected_stats(EDGE_TRI, theta, 4).values == (0.0, 0.0)
        assert stat_covariance(EDGE_TRI, theta, 4).tolist() == [[0.0, 0.0], [0.0, 0.0]]


# --------------------------------------------------------------------------
# projectivity checks
# --------------------------------------------------------------------------


def test_projectivity_check_size_invariant_family():
    grid = [ParamVector(theta=(v,)) for v in (-1.0, 0.0, 1.0)]
    report = projectivity_check(INVARIANT, grid, n=4, n_sub=3)
    assert report.max_tv <= 1e-9
    assert report.param_equal
    assert report.verdict == "projective-on-grid"
    assert len(report.tv_per_theta) == 3


def test_projectivity_check_offset_family():
    report = projectivity_check(OFFSET, [ParamVector(theta=(0.0,))], n=4, n_sub=3)
    assert not report.param_equal
    assert report.verdict == "non-projective"
    assert report.max_tv == pytest.approx(0.090125, abs=1e-10)


def test_projectivity_check_edge_triangle():
    report = projectivity_check(
        EDGE_TRI, [ParamVector(theta=(0.0, 0.5))], n=4, n_sub=3
    )
    assert report.max_tv >= 1e-3
    assert report.param_equal  # eta does not depend on n; the marginal still moves
    assert report.verdict == "non-projective"
    # frozen from an independent brute-force sum over the 64- and 8-graph tables
    assert report.max_tv == pytest.approx(0.06841396308485281, abs=1e-10)


def test_edge_triangle_is_projective_on_the_zero_triangle_axis():
    report = projectivity_check(
        EDGE_TRI, [ParamVector(theta=(0.4, 0.0))], n=4, n_sub=3
    )
    assert report.max_tv <= 1e-9


def test_projectivity_check_validates_sizes():
    with pytest.raises(ValueError, match="need 1 <= n_sub < n"):
        projectivity_check(INVARIANT, None, n=4, n_sub=4)
    with pytest.raises(ValueError, match="need 1 <= n_sub < n"):
        projectivity_check(INVARIANT, None, n=4, n_sub=0)


@pytest.mark.parametrize("spec, theta, tolerance, verdict", [
    (INVARIANT, (0.0,), -1.0, "non-projective"),
    (EDGE_TRI, (0.0, 0.5), 1.0, "projective-on-grid"),
], ids=["below-every-distance", "above-every-distance"])
def test_projectivity_verdict_reads_the_module_tolerance(monkeypatch, spec, theta,
                                                         tolerance, verdict):
    """The verdict compares the largest distance with
    ``PROJECTIVITY_TOLERANCE`` as it stands when the check runs."""
    theta = ParamVector(theta=theta)
    before = projectivity_check(spec, [theta], n=4, n_sub=3)
    assert before.verdict != verdict
    monkeypatch.setattr(projgraph.exact, "PROJECTIVITY_TOLERANCE", tolerance)
    report = projectivity_check(spec, [theta], n=4, n_sub=3)
    assert report.verdict == verdict
    assert report.tv_per_theta == before.tv_per_theta


def test_projectivity_check_takes_no_tolerance_argument():
    with pytest.raises(TypeError, match="tolerance"):
        projectivity_check(EDGE_TRI, [ParamVector(theta=(0.0, 0.0))], n=4, n_sub=3,
                           tolerance=0.0)


def test_default_theta_grid_shape():
    grid1 = default_theta_grid(INVARIANT)
    assert [p.theta for p in grid1] == [(-2.0,), (-1.0,), (0.0,), (1.0,), (2.0,)]
    grid2 = default_theta_grid(EDGE_TRI)
    assert len(grid2) == 25
    assert grid2[0].theta == (-2.0, -2.0)
    assert grid2[-1].theta == (2.0, 2.0)


def test_projectivity_report_csv_layout():
    report = projectivity_check(
        OFFSET, [ParamVector(theta=(0.0,)), ParamVector(theta=(1.0,))], n=4, n_sub=3
    )
    lines = report.to_csv().splitlines()
    assert lines[0] == "theta_1,tv,param_equal"
    assert len(lines) == 5  # header + 2 grid rows + footer header + footer row
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert float(first[1]) == pytest.approx(0.090125, abs=1e-10)
    assert first[2] == "false"
    assert lines[3] == "max_tv,verdict"
    footer = lines[4].split(",")
    assert float(footer[0]) == report.max_tv
    assert footer[1] == "non-projective"


def _per_theta_projectivity(spec, grid, n, n_sub, joint=None):
    """``projectivity_check`` as it ran one theta at a time, and its report's
    CSV as ``csv.writer`` wrote it: (tv_per_theta, param_equal, max_tv,
    CSV), the reference for the stacked passes.  ``joint`` replaces the
    joint counts."""

    def class_log_probs(points, log_counts, eta):
        energy = points @ eta
        return energy - _logsumexp(log_counts + energy)

    multiplicity, counts, sub_class = joint or _joint_counts(spec, n, n_sub)
    big, small = _classes(spec, n)[1:], _classes(spec, n_sub)[1:]
    tvs, param_equal = [], True
    for theta in grid:
        eta, sub_eta = natural_params(spec, theta, n), natural_params(spec, theta, n_sub)
        marginal = multiplicity * (counts @ np.exp(class_log_probs(*big, eta)))
        model = multiplicity * np.exp(class_log_probs(*small, sub_eta))[sub_class]
        tvs.append(tv_distance(marginal, model))
        if not np.array_equal(sub_eta, eta):
            param_equal = False
    max_tv = max(tvs)
    verdict = ("projective-on-grid" if param_equal and max_tv <= PROJECTIVITY_TOLERANCE
               else "non-projective")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"theta_{k + 1}" for k in range(spec.stat_dim)] + ["tv", "param_equal"])
    for theta, tv in zip(grid, tvs):
        writer.writerow([repr(v) for v in theta.theta]
                        + [repr(tv), "true" if param_equal else "false"])
    writer.writerow(["max_tv", "verdict"])
    writer.writerow([repr(max_tv), verdict])
    return tuple(tvs), param_equal, max_tv, buf.getvalue()


@st.composite
def _projectivity_cases(draw):
    """A shipped family, sizes n_sub < n <= 6, a grid of 1 to 12 points, and
    the number of points per stacked pass."""
    spec = draw(st.sampled_from(ALL_SPECS), label="spec")
    n = draw(st.integers(2, 6), label="n")
    n_sub = draw(st.integers(1, n - 1), label="n_sub")
    axis = st.floats(-6.0, 6.0, allow_nan=False)
    grid = draw(st.lists(st.tuples(*[axis] * spec.stat_dim), min_size=1, max_size=12),
                label="grid")
    return spec, n, n_sub, grid, draw(st.integers(1, 5), label="block")


@settings(max_examples=80, deadline=None)
@given(case=_projectivity_cases())
@example(case=(EDGE_TRI, 7, 6, [(-1.0, 0.5), (0.0, -0.0), (2.0, 2.0)], 2))
@example(case=(OFFSET, 7, 1, [(0.5,)], 1))
@example(case=(INVARIANT, 5, 4, [(-2.0,), (-0.0,), (1.0,)], 3))
def test_stacked_projectivity_check_has_the_bits_of_the_per_theta_loop(case):
    """tv_per_theta, param_equal, max_tv and the CSV equal the per-theta
    loop's bit for bit, for one-point grids and grids that cross the edge
    of a stacked pass (here ``block`` points; ``_CHUNK`` entries per
    (point, group) array in use)."""
    spec, n, n_sub, values, block = case
    grid = [ParamVector(theta=v) for v in values]
    tvs, param_equal, max_tv, text = _per_theta_projectivity(spec, grid, n, n_sub)
    groups = max(len(_joint_counts(spec, n, n_sub)[0]), len(_classes(spec, n)[1]))
    with mock.patch.object(projgraph.exact, "_CHUNK", block * groups):
        report = projectivity_check(spec, grid, n=n, n_sub=n_sub)
    assert np.array(report.tv_per_theta).tobytes() == np.array(tvs).tobytes()
    assert all(type(tv) is float for tv in report.tv_per_theta)
    assert report.param_equal is param_equal
    assert repr(report.max_tv) == repr(max_tv)
    assert report.to_csv() == text


@pytest.mark.parametrize("table", ["first", "second"])
def test_stacked_projectivity_check_refuses_unnormalized_tables_as_tv_distance(table):
    """With the joint counts doubled for the marginal, or every prefix
    subgraph put in class 0 for the model, the stacked check refuses the
    table that ``tv_distance`` refuses in the per-theta loop, at the same
    point, with the same message."""
    multiplicity, counts, sub_class = _joint_counts(EDGE_TRI, 5, 4)
    broken = ((multiplicity, 2.0 * counts, sub_class) if table == "first"
              else (multiplicity, counts, np.zeros_like(sub_class)))
    grid = [ParamVector(theta=(0.2, -0.3)), ParamVector(theta=(1.0, 0.5))]
    with pytest.raises(ValueError) as want:
        _per_theta_projectivity(EDGE_TRI, grid, 5, 4, joint=broken)
    with mock.patch.object(projgraph.exact, "_joint_counts", lambda *_: broken):
        with pytest.raises(ValueError) as got:
            projectivity_check(EDGE_TRI, grid, n=5, n_sub=4)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{table} table is not normalized (sum=")


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


def test_exact_sample_point_mass():
    d = build_distribution(INVARIANT, ParamVector(theta=(50.0,)), 3)
    rng = substream(0, "point-mass")
    for _ in range(50):
        assert exact_sample(d, rng) == complete_graph(3)


def test_exact_sample_is_deterministic_per_stream():
    d = build_distribution(EDGE_TRI, ParamVector(theta=(0.2, 0.3)), 4)
    draws_a = [exact_sample(d, substream(5, "draws", i)) for i in range(20)]
    draws_b = [exact_sample(d, substream(5, "draws", i)) for i in range(20)]
    assert draws_a == draws_b


def test_exact_sample_consumes_one_uniform():
    """A stream that serves one table draw is spent by exactly one uniform,
    which is what lets bulk draws evaluate only each stream's first value."""
    d = build_distribution(EDGE_TRI, ParamVector(theta=(-0.5, 0.3)), 5)
    for index in range(5):
        rng = substream(11, "one-uniform", index)
        exact_sample(d, rng)
        assert rng.random() == substream(11, "one-uniform", index).random(2)[1]


def test_exact_sampling_above_n7_is_refused_before_any_cdf():
    """A distribution on 8 nodes refuses to build its 2^28-entry CDF, for a
    single draw and for bulk draws, with no class coding built."""
    d = ExactDistribution(n=8, spec=EDGE_TRI, theta=ParamVector(theta=(0.0, 0.0)),
                          class_log_probs=np.zeros(1), codes=np.zeros(4, dtype=np.uint8),
                          log_z=0.0)
    coded = _classes.cache_info().misses
    for draw in (lambda: exact_sample(d, substream(0, "n8")),
                 lambda: next(_bulk_sample(d, 0, ("n8",), (2,)))):
        with pytest.raises(EnumerationCapError,
                           match=r"exact sampling is limited to n <= 7, got n=8"):
            draw()
    assert "_cdf" not in vars(d)
    assert _classes.cache_info().misses == coded


def test_bulk_sample_matches_one_stream_per_draw_across_chunks():
    """Bulk draws give each tail the graph its own stream draws, in
    ``np.ndindex`` order, also across the boundary between two chunks."""
    d = build_distribution(EDGE_TRI, ParamVector(theta=(-0.5, 0.3)), 5)
    shape = (3, _DRAW_CHUNK // 2 + 5)
    bulk = list(_bulk_sample(d, 2, ("bulk", 4), shape))
    assert len(bulk) == math.prod(shape) > _DRAW_CHUNK
    for i in (0, 1, _DRAW_CHUNK - 1, _DRAW_CHUNK, len(bulk) - 1):
        tail = np.unravel_index(i, shape)
        assert bulk[i] == exact_sample(d, substream(2, "bulk", 4, *map(int, tail)))
    head = [exact_sample(d, substream(2, "bulk", 4, 0, r)) for r in range(300)]
    assert bulk[:300] == head


def test_exact_sample_uniform_goodness_of_fit():
    """80,000 draws from the uniform 8-graph table: chi-square test does not
    reject, and every empirical frequency is within 0.005 of 1/8."""
    d = build_distribution(INVARIANT, ParamVector(theta=(0.0,)), 3)
    rng = substream(123, "gof")
    counts = np.zeros(8, dtype=np.int64)
    for _ in range(80_000):
        counts[exact_sample(d, rng).dyads] += 1
    freqs = counts / counts.sum()
    assert np.max(np.abs(freqs - 0.125)) <= 0.005
    result = chisquare(counts)
    assert result.pvalue >= 0.001


def test_sample_bernoulli_extremes():
    rng = substream(1, "extremes")
    assert sample_bernoulli(4, 0.0, rng).dyads == 0
    assert sample_bernoulli(4, 1.0, rng) == complete_graph(4)
    assert sample_bernoulli(1, 0.5, rng).n == 1


def test_sample_bernoulli_rejects_bad_probability():
    rng = substream(1, "bad")
    with pytest.raises(ValueError, match=r"edge probability must lie in \[0, 1\]"):
        sample_bernoulli(4, -0.1, rng)
    with pytest.raises(ValueError):
        sample_bernoulli(4, 1.5, rng)


def test_sample_bernoulli_mean_edge_count():
    """2,000 graphs on 100 nodes at dyad probability 0.05: the average edge
    count sits near C(100,2) * 0.05 = 247.5 (binomial mean)."""
    rng = substream(123, "edges-mc")
    total = sum(edge_count(sample_bernoulli(100, 0.05, rng)) for _ in range(2_000))
    assert total / 2_000 == pytest.approx(247.5, abs=3.0)


def test_sample_bernoulli_is_deterministic_per_stream():
    a = [sample_bernoulli(10, 0.3, substream(9, "det", i)) for i in range(10)]
    b = [sample_bernoulli(10, 0.3, substream(9, "det", i)) for i in range(10)]
    assert a == b


def test_sufficient_stats_matches_enumerated_table_rows():
    for spec in ALL_SPECS:
        table = enumerated_stats(spec, 4)
        rng = substream(2, "spot")
        for k in rng.integers(64, size=10):
            g = graph_from_index(4, int(k))
            assert tuple(table[int(k)]) == sufficient_stats(spec, g).values
