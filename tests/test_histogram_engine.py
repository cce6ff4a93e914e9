"""Property tests: normalizers, moments, the completion likelihood and the
projectivity check, which run on statistic histograms and grouped joint
counts, against direct sums over every graph; the two ways of coding a
statistic table into histogram classes, against each other; and exact
distributions held per class, against the per-graph table bit for bit."""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from projgraph import (
    Family,
    NodeSubset,
    ParamVector,
    build_distribution,
    completion_log_likelihood,
    degree_sequence,
    dyad_count,
    dyad_index,
    edge_count,
    enumerated_stats,
    expected_stats,
    graph_from_index,
    induced_subgraph,
    log_normalizer,
    marginal_distribution,
    model_spec,
    natural_params,
    projectivity_check,
    register_family,
    stat_covariance,
    triangle_count,
    unregister_family,
)
from projgraph.exact import (
    _classes,
    _code_table,
    _exchangeable,
    _joint_counts,
    _logsumexp,
    _moments,
    _row_word,
    _stats_table,
)

RTOL = 1e-12


def _edge_triangle(g):
    return (float(edge_count(g)), float(triangle_count(g)))


def _float_stats(g):
    """Non-integer statistics in three columns, for the general histogram key."""
    m, t = edge_count(g), triangle_count(g)
    return (m / 3.0, math.sqrt(1.0 + t), 0.1 * m * t - 0.5)


def _node_zero_stats(g):
    """Label-dependent statistics: the degree of node 0 and the parity of the
    edge count.  Under the parity, prefix subgraphs of different classes can
    have the same multiset of completion classes."""
    return (float(degree_sequence(g)[0]), float(edge_count(g) % 2))


# Families whose statistics are invariant under relabelling the nodes, as the
# completion likelihood assumes.
FAMILIES = {"EdgeTriangle": _edge_triangle, "FloatStatsProbe": _float_stats}
LABELLED = {"NodeZeroProbe": _node_zero_stats}


@pytest.fixture(scope="module", autouse=True)
def probe_families():
    register_family(
        Family(name="FloatStatsProbe", stat_dim=3, offset_edges=False, stats=_float_stats)
    )
    register_family(
        Family(name="NodeZeroProbe", stat_dim=2, offset_edges=False, stats=_node_zero_stats)
    )
    yield
    unregister_family("FloatStatsProbe")
    unregister_family("NodeZeroProbe")


@lru_cache(maxsize=None)
def _graph_table(family, n):
    """Statistics of every graph on n nodes, one row per graph index."""
    stats = {**FAMILIES, **LABELLED}[family]
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


@st.composite
def _completion_cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)), label="family")
    population_n = draw(st.integers(2, 5), label="population_n")
    sub_n = draw(st.integers(1, population_n - 1), label="sub_n")
    y_index = draw(st.integers(0, (1 << dyad_count(sub_n)) - 1), label="y_index")
    theta = draw(_thetas(model_spec(family).stat_dim), label="theta")
    return family, population_n, sub_n, y_index, theta


@settings(max_examples=60, deadline=None)
@given(case=_completion_cases())
@example(case=("FloatStatsProbe", 5, 2, 1, (0.0, 1.5703125, 1.75)))
def test_completion_likelihood_matches_per_completion_sum(case):
    """The example has completion probability near 1: its log, -7.7e-4, is
    the difference of two log-normalizers near 21.8 unless the complement's
    weight is summed directly, as both sides do above probability 1/2."""
    family, population_n, sub_n, y_index, theta = case
    spec = model_spec(family)
    y_sub = graph_from_index(sub_n, y_index)
    prefix = NodeSubset(parent_n=population_n, members=tuple(range(sub_n)))
    completes = np.array([
        induced_subgraph(graph_from_index(population_n, k), prefix) == y_sub
        for k in range(1 << dyad_count(population_n))
    ])
    log_w = _graph_table(family, population_n) @ np.array(theta)
    want = _log_sum_exp(log_w[completes]) - _log_sum_exp(log_w)
    if want > -math.log(2.0):
        w = np.exp(log_w - np.max(log_w))
        want = math.log1p(-float(np.sum(w[~completes])) / float(np.sum(w)))
    got = completion_log_likelihood(spec, ParamVector(theta=theta), y_sub, population_n)
    _assert_close(got, want)


def _oracle_tv(family, n, n_sub, eta):
    """TV between the n-node model summed over each prefix subgraph, found by
    masking the graph index, and the n_sub-node model."""
    big = _graph_table(family, n) @ eta
    prefix = np.arange(len(big)) & ((1 << dyad_count(n_sub)) - 1)
    marginal = np.bincount(prefix, weights=np.exp(big - _log_sum_exp(big)))
    small = _graph_table(family, n_sub) @ eta
    return 0.5 * float(np.abs(marginal - np.exp(small - _log_sum_exp(small))).sum())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(FAMILIES) + sorted(LABELLED)))
def test_projectivity_tv_matches_per_graph_marginal(data, family):
    spec = model_spec(family)
    n = data.draw(st.integers(2, 5), label="n")
    n_sub = data.draw(st.integers(1, n - 1), label="n_sub")
    grid = data.draw(st.lists(_thetas(spec.stat_dim), min_size=1, max_size=3), label="grid")
    report = projectivity_check(spec, [ParamVector(theta=t) for t in grid], n=n, n_sub=n_sub)
    for theta, tv in zip(grid, report.tv_per_theta):
        assert abs(tv - _oracle_tv(family, n, n_sub, np.array(theta))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    values=arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-700.0, 700.0, allow_nan=False)),
    repeats=st.integers(0, 5),
)
def test_logsumexp_agrees_with_scipy(values, repeats):
    """The engine's log-sum-exp, against SciPy's as the oracle, with the
    maximum repeated up to five more times."""
    values = np.concatenate([values, np.full(repeats, values.max())])
    got, want = _logsumexp(values), float(scipy.special.logsumexp(values))
    assert abs(got - want) <= 2 * np.spacing(max(abs(got), abs(want)))


def _assert_same_coding(table):
    """The row-word coding of an unsigned table equals the sort path's on the
    same table cast to float64: codes (and their dtype), rows, counts.
    Returns the sort path's coding."""
    assert _row_word(table) is not None
    floats = table.astype(np.float64)
    assert _row_word(floats) is None
    want = _code_table(floats)
    for got, expected in zip(_code_table(table), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    return want


@pytest.mark.parametrize("family", ["EdgeTriangle", "BernoulliInvariant", "BernoulliOffset"])
@pytest.mark.parametrize("n", range(1, 8))
def test_packed_key_coding_matches_the_sort_path(family, n):
    fam = model_spec(family)
    codes, points, counts = _assert_same_coding(_stats_table(fam, n))
    got_codes, got_points, got_log_counts = _classes(fam, n)
    assert np.array_equal(got_codes, codes)
    assert np.array_equal(got_points, points)
    assert np.array_equal(got_log_counts, np.log(counts))


def _unique_coding(table):
    """``np.unique`` over rows, the independent oracle for the sort path:
    codes in the coder's dtype, distinct rows as floats, counts."""
    # NumPy 2.x has changed the inverse's shape for an axis, so it is flattened.
    rows, codes, counts = np.unique(table, axis=0, return_inverse=True, return_counts=True)
    return codes.reshape(-1).astype(np.min_scalar_type(len(rows) - 1)), rows.astype(np.float64), counts


@settings(max_examples=200, deadline=None)
@given(
    table=st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: arrays(
            dtype, st.tuples(st.integers(1, 300), st.integers(1, 3)),
            # Few values, so that rows repeat; both zeros, so that some rows
            # differ only in the sign of a zero.
            elements=st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25]) | st.floats(
                width=np.dtype(dtype).itemsize * 8, allow_nan=False),
        )
    ),
)
@example(table=np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0], [0.0, 0.0], [0.0, 1.0]]))
@example(table=np.array([[-0.0], [0.0], [np.inf], [-np.inf], [-0.0]], dtype=np.float32))
def test_float_tables_code_like_np_unique(table):
    """The sort path gives ``np.unique``'s codes (and their dtype), rows and
    counts on float tables; rows that differ only in the sign of a zero are
    one class, as they are equal."""
    assert _row_word(table) is None
    for got, want in zip(_code_table(table), _unique_coding(table)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    table=st.sampled_from([np.uint8, np.uint16]).flatmap(
        lambda dtype: st.sampled_from([16, int(np.iinfo(dtype).max)]).flatmap(
            lambda top: arrays(dtype, st.tuples(st.integers(1, 300), st.integers(1, 3)),
                               elements=st.integers(0, top))
        )
    ),
)
@example(table=np.array([[3, 0], [0, 1], [3, 0], [1, 1], [2, 0], [0, 0], [1, 0], [3, 1]],
                        dtype=np.uint8))
# Byte order is not row order: little-endian words 1, 256 and 255.
@example(table=np.array([[1, 0], [0, 1], [255, 0]], dtype=np.uint8))
@example(table=np.array([[65535], [0], [256], [1]], dtype=np.uint16))
def test_small_unsigned_tables_code_like_the_sort_path(table):
    """Unsigned tables whose rows fit in two bytes code like the sort path;
    wider rows, such as three uint8 or two uint16 columns, take it."""
    fits = table.dtype.itemsize * table.shape[1] <= 2
    assert (_row_word(table) is not None) == fits
    if fits:
        _assert_same_coding(table)


def test_a_full_byte_column_codes_like_the_sort_path():
    """Every byte value present: 256 classes, whose codes still fit a uint8."""
    _assert_same_coding(np.random.default_rng(0).permutation(256).astype(np.uint8)[:, None])


def test_float_tables_take_the_sort_path(edge_triangle_over_50):
    for spec in (edge_triangle_over_50, model_spec("FloatStatsProbe")):
        for n in range(1, 6):
            assert _row_word(_stats_table(spec, n)) is None


def test_exchangeability_is_computed_from_the_statistics(edge_triangle_over_50):
    """The shipped families and the relabelling-invariant probes pass; the
    degree of node 0 changes when nodes 0 and 1 swap, so NodeZeroProbe does
    not."""
    for spec in (*map(model_spec, ["BernoulliInvariant", "BernoulliOffset", *FAMILIES]),
                 edge_triangle_over_50):
        assert _exchangeable(spec), spec.name
    assert not _exchangeable(model_spec("NodeZeroProbe"))


def _joint_counts_by_unique(fam, n, n_sub):
    """``_joint_counts`` with every row of completion classes sorted by
    NumPy's default sort, and the rows grouped by ``np.unique`` over their
    bytes: the reference for its stable (radix) sort and its in-place
    grouping."""
    codes, sub_codes = _classes(fam, n)[0], _classes(fam, n_sub)[0]
    classes = int(codes.max()) + 1
    rows = np.empty((len(sub_codes), 1 + len(codes) // len(sub_codes)),
                    dtype=np.min_scalar_type(max(classes - 1, int(sub_codes.max()))))
    rows[:, 0] = sub_codes
    rows[:, 1:] = codes.reshape(-1, len(sub_codes)).T
    rows[:, 1:].sort(axis=1)
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, multiplicity = np.unique(key, return_index=True, return_counts=True)
    group = np.repeat(np.arange(len(first)), rows.shape[1] - 1)
    counts = np.bincount(group * classes + rows[first, 1:].ravel(),
                         minlength=len(first) * classes)
    return (multiplicity.astype(np.float64),
            counts.reshape(len(first), classes).astype(np.float64), rows[first, 0])


@pytest.mark.parametrize("family, n, n_sub", [
    (family, n, n_sub)
    for families, top in ((["EdgeTriangle", "BernoulliInvariant", "BernoulliOffset"], 7),
                          (["EdgeTriangleOver50", "FloatStatsProbe", "NodeZeroProbe"], 6))
    for family in families for n in range(2, top + 1) for n_sub in range(1, n)
])
def test_joint_counts_group_as_np_unique(request, family, n, n_sub):
    """The same arrays, dtypes and group order as the reference, for every
    shipped family at n <= 7 and the probe families at n <= 6."""
    spec = (request.getfixturevalue("edge_triangle_over_50") if family == "EdgeTriangleOver50"
            else model_spec(family))
    for got, want in zip(_joint_counts(spec, n, n_sub), _joint_counts_by_unique(spec, n, n_sub)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# The per-graph construction that distributions replaced, kept as the
# reference: each graph's statistic row times eta less log Z, filled from the
# statistic table in slices of _SLICE rows, and marginals summed from it in
# graph-index order by one np.add.at over the whole table.
_SLICE = 1 << 20


def _per_graph_log_probs(spec, theta, n):
    eta = natural_params(spec, theta, n)
    log_z = _moments(*_classes(spec, n)[1:], eta)[0]
    stats = enumerated_stats(spec, n)
    log_probs = np.empty(stats.shape[0], dtype=np.float64)
    for lo in range(0, stats.shape[0], _SLICE):
        log_probs[lo : lo + _SLICE] = stats[lo : lo + _SLICE] @ eta - log_z
    return log_z, log_probs


def _per_graph_marginal(log_probs, members):
    m = len(members)
    idx = np.arange(len(log_probs), dtype=np.int64)
    sub = np.zeros(len(log_probs), dtype=np.int64)
    for b in range(1, m):
        for a in range(b):
            sub |= ((idx >> dyad_index(members[a], members[b])) & 1) << dyad_index(a, b)
    out = np.zeros(1 << dyad_count(m), dtype=np.float64)
    np.add.at(out, sub, np.exp(log_probs))
    return out


_BIT_THETAS = {
    1: [(-0.4,), (0.8,), (2.5,)],
    2: [(-0.5, 0.3), (1.0, -1.5), (0.25, 0.75)],
    3: [(0.3, -0.2, 0.1), (-1.0, 0.5, 2.0)],
}
_TABLE_FAMILIES = ["EdgeTriangle", "BernoulliInvariant", "BernoulliOffset", "EdgeTriangleOver50"]


@pytest.mark.parametrize(
    "family, n",
    [(family, n) for family in _TABLE_FAMILIES for n in range(1, 8)]
    + [(family, n) for family in ("FloatStatsProbe", "NodeZeroProbe") for n in range(1, 7)],
)
def test_class_distribution_has_the_bits_of_the_per_graph_table(request, family, n):
    """log_probs, probs(), the sampling CDF and marginals on prefix and
    non-prefix subsets equal the per-graph construction exactly."""
    if family == "EdgeTriangleOver50":
        spec, scale = request.getfixturevalue("edge_triangle_over_50"), 50.0
    else:
        spec, scale = model_spec(family), 1.0
    # a prefix, the nodes but node 0, and the first and last node
    subsets = {tuple(range(n - 1)), tuple(range(1, n)), (0, n - 1)} if n > 1 else {(0,)}
    for values in _BIT_THETAS[spec.stat_dim]:
        theta = ParamVector(theta=tuple(scale * v for v in values))
        d = build_distribution(spec, theta, n)
        log_z, log_probs = _per_graph_log_probs(spec, theta, n)
        assert d.log_z == log_z
        assert np.array_equal(d.log_probs, log_probs)
        assert np.array_equal(d.probs(), np.exp(log_probs))
        assert np.array_equal(d._cdf, np.cumsum(np.exp(log_probs)))
        for members in sorted(subsets):
            got = marginal_distribution(d, NodeSubset(n, members))
            assert np.array_equal(got, _per_graph_marginal(log_probs, members)), members
