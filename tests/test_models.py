"""Model families: sufficient statistics, natural parameters, edge probabilities."""

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from projgraph import (
    BERNOULLI_INVARIANT,
    FullGraph,
    BERNOULLI_OFFSET,
    EDGE_TRIANGLE,
    Family,
    ParamVector,
    complete_graph,
    dyad_count,
    dyad_index,
    edge_count,
    edge_prob,
    empty_graph,
    enumerated_stats,
    graph_from_edges,
    graph_from_index,
    log_normalizer,
    model_spec,
    natural_params,
    register_family,
    registered_families,
    resolve_family_name,
    sufficient_stats,
    triangle_count,
    unregister_family,
)
from projgraph import models
from projgraph.exact import EnumerationCapError, build_distribution
from projgraph.inference import completion_log_likelihood, log_likelihood, proper_log_likelihood
from projgraph.models import _statistics, _stats_table

INVARIANT = model_spec("BernoulliInvariant")
OFFSET = model_spec("BernoulliOffset")
EDGE_TRI = model_spec("EdgeTriangle")


# --------------------------------------------------------------------------
# parameter containers
# --------------------------------------------------------------------------


def test_param_vector_validation():
    with pytest.raises(ValueError):
        ParamVector(theta=())
    with pytest.raises(ValueError):
        ParamVector(theta=(math.nan,))
    with pytest.raises(ValueError):
        ParamVector(theta=(1.0, math.inf))


def test_natural_params_checks_parameter_length():
    with pytest.raises(ValueError, match="length 2, expected 1"):
        natural_params(INVARIANT, ParamVector(theta=(0.0, 0.0)), 5)
    with pytest.raises(ValueError, match="node count"):
        natural_params(INVARIANT, ParamVector(theta=(0.0,)), 0)


# --------------------------------------------------------------------------
# sufficient statistics
# --------------------------------------------------------------------------


def test_sufficient_stats_examples():
    k4 = complete_graph(4)
    assert sufficient_stats(INVARIANT, k4).values == (6.0,)
    assert sufficient_stats(OFFSET, k4).values == (6.0,)
    assert sufficient_stats(EDGE_TRI, k4).values == (6.0, 4.0)
    assert sufficient_stats(EDGE_TRI, empty_graph(5)).values == (0.0, 0.0)


# --------------------------------------------------------------------------
# natural parameters
# --------------------------------------------------------------------------


def test_invariant_natural_params_ignore_size():
    theta = ParamVector(theta=(0.75,))
    for n in range(2, 9):
        assert natural_params(INVARIANT, theta, n).tolist() == [0.75]


def test_offset_natural_params_shift_by_log_size():
    theta = ParamVector(theta=(1.0,))
    eta10 = natural_params(OFFSET, theta, 10)
    assert eta10.shape == (1,)
    assert eta10[0] == pytest.approx(1.0 - math.log(10), abs=1e-15)
    assert eta10[0] == pytest.approx(-1.3025850929940455, abs=1e-12)
    for n in range(2, 30):
        eta = natural_params(OFFSET, theta, n)[0]
        assert eta == pytest.approx(1.0 - math.log(n), abs=1e-12)


def test_edge_triangle_natural_params_ignore_size():
    theta = ParamVector(theta=(-0.5, 0.25))
    for n in range(3, 8):
        assert natural_params(EDGE_TRI, theta, n).tolist() == [-0.5, 0.25]


def test_natural_params_is_a_new_float64_array():
    theta = ParamVector(theta=(1.0,))
    eta = natural_params(OFFSET, theta, 4)
    assert isinstance(eta, np.ndarray) and eta.dtype == np.float64
    eta[0] = 99.0
    assert natural_params(OFFSET, theta, 4)[0] == 1.0 - math.log(4)
    assert theta.theta == (1.0,)


# --------------------------------------------------------------------------
# edge probabilities for the independent-dyad families
# --------------------------------------------------------------------------


def test_edge_prob_examples():
    # logistic(theta) for the size-invariant family
    assert edge_prob(INVARIANT, ParamVector(theta=(0.0,)), 17) == pytest.approx(0.5, abs=1e-15)
    # logistic(theta - log n): theta=1, n=10 gives e/(10+e)
    p = edge_prob(OFFSET, ParamVector(theta=(1.0,)), 10)
    assert p == pytest.approx(math.e / (10 + math.e), abs=1e-12)
    assert p == pytest.approx(0.21373027151957631, abs=1e-12)


def test_edge_prob_offset_vanishes_like_e_over_n():
    theta = ParamVector(theta=(1.0,))
    for n in (10, 100, 1000, 10000):
        assert edge_prob(OFFSET, theta, n) * n == pytest.approx(math.e, rel=math.e / n + 1e-12)


def test_edge_prob_round_trips_through_logit():
    for theta in (-3.0, -0.5, 0.0, 0.5, 3.0):
        p = edge_prob(INVARIANT, ParamVector(theta=(theta,)), 5)
        assert math.log(p / (1 - p)) == pytest.approx(theta, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    theta=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-800.0, 800.0),
        st.sampled_from([0.0, -0.0, 709.78, -709.78, 745.2, -745.2, 1e308, -1e308]),
    ),
    spec=st.sampled_from([INVARIANT, OFFSET]),
    n=st.integers(1, 10_000),
)
@example(theta=-710.0, spec=INVARIANT, n=1)
def test_edge_prob_is_scipy_expit_bit_for_bit(theta, spec, n):
    """The in-house logistic equals SciPy's ``expit`` in every bit, also
    where exp(-eta) overflows, and raises and warns nowhere."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = edge_prob(spec, ParamVector(theta=(theta,)), n)
    want = scipy.special.expit(natural_params(spec, ParamVector(theta=(theta,)), n)[0])
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_edge_prob_rejects_dyad_dependent_family():
    with pytest.raises(ValueError, match="edge_prob is unsupported"):
        edge_prob(EDGE_TRI, ParamVector(theta=(0.0, 0.0)), 5)


# --------------------------------------------------------------------------
# unnormalized log density
# --------------------------------------------------------------------------


def _log_unnormalized(spec, theta, g):
    """The exponential-family kernel eta(theta, n) . s(g) of a graph on n nodes."""
    return float(natural_params(spec, theta, g.n) @ sufficient_stats(spec, g).as_array())


def test_log_unnormalized_examples():
    k3 = complete_graph(3)
    # eta . s(y) with s = (edges, triangles)
    value = _log_unnormalized(EDGE_TRI, ParamVector(theta=(0.5, -1.0)), k3)
    assert value == pytest.approx(0.5 * 3 - 1.0, abs=1e-15)
    # offset family: (theta - log n) * edges; theta=1, n=10, 3 edges
    g = graph_from_edges(10, [(0, 1), (2, 3), (4, 5)])
    value = _log_unnormalized(OFFSET, ParamVector(theta=(1.0,)), g)
    assert value == pytest.approx(3 * (1 - math.log(10)), abs=1e-12)
    assert value == pytest.approx(-3.9077552789821366, abs=1e-12)


def test_edge_triangle_with_zero_triangle_weight_matches_invariant():
    """With the triangle coefficient at zero the two families assign identical
    unnormalized log densities, graph by graph."""
    for value in (-1.0, 0.0, 0.8):
        theta_et = ParamVector(theta=(value, 0.0))
        theta_inv = ParamVector(theta=(value,))
        for n in range(2, 6):
            for k in range(1 << dyad_count(n)):
                g = graph_from_index(n, k)
                assert _log_unnormalized(EDGE_TRI, theta_et, g) == pytest.approx(
                    _log_unnormalized(INVARIANT, theta_inv, g), abs=1e-12
                )


# --------------------------------------------------------------------------
# family registry
# --------------------------------------------------------------------------


def test_resolve_family_name_accepts_both_spellings():
    assert resolve_family_name("bernoulli-offset") == BERNOULLI_OFFSET
    assert resolve_family_name("BernoulliOffset") == BERNOULLI_OFFSET
    assert resolve_family_name("edge-triangle") == EDGE_TRIANGLE
    assert resolve_family_name("BernoulliInvariant") == BERNOULLI_INVARIANT


def test_resolve_family_name_rejects_unknown():
    with pytest.raises(ValueError, match="unknown family"):
        resolve_family_name("erdos")


def test_registry_lists_builtins():
    assert {"BernoulliInvariant", "BernoulliOffset", "EdgeTriangle"} <= set(
        registered_families()
    )


def _degree(g, v):
    return sum(1 for u in range(g.n) if u != v and g.has_edge(u, v))


def test_register_and_unregister_custom_family():
    fam = Family(name="TwoStars", offset_edges=False, stats=_two_stars)
    register_family(fam)
    try:
        assert resolve_family_name("TwoStars") == "TwoStars"
        assert resolve_family_name("two-stars") == "TwoStars"
        spec = model_spec("two-stars")
        assert sufficient_stats(spec, complete_graph(3)).values == (3.0,)
        with pytest.raises(ValueError, match="already registered"):
            register_family(fam)
    finally:
        unregister_family("TwoStars")
    with pytest.raises(ValueError, match="unknown family"):
        resolve_family_name("TwoStars")


def _two_stars(g):
    return (float(sum(_degree(g, v) * (_degree(g, v) - 1) // 2 for v in range(g.n))),)


def test_bernoulli_is_whether_stats_is_the_shipped_edge_count():
    """``bernoulli`` reads True for the two shipped independent-dyad families
    and any family built from their ``stats``, which then gets the closed
    forms at any size."""
    assert [spec.bernoulli for spec in (INVARIANT, OFFSET, EDGE_TRI)] == [True, True, False]
    fam = Family(name="X", offset_edges=True, stats=OFFSET.stats)
    assert fam.bernoulli
    theta, n = ParamVector(theta=(0.3,)), 2000
    closed = dyad_count(n) * math.log1p(math.exp(0.3 - math.log(n)))
    assert log_normalizer(fam, theta, n) == pytest.approx(closed, rel=1e-12)
    assert edge_prob(fam, theta, n) == edge_prob(OFFSET, theta, n)
    y = graph_from_edges(3, [(0, 1)])
    assert proper_log_likelihood(fam, theta, y, n) == proper_log_likelihood(OFFSET, theta, y, n)


def test_a_family_that_leaves_the_edge_count_above_4_nodes_gets_one_answer():
    """Twice the edge count above 4 nodes once passed a ``bernoulli=True``
    declaration, so that the closed form answered -2.26307 and enumeration
    -2.51246 at N = 5.  Such a family is no longer independent-dyad, and
    both routes enumerate."""
    fam = Family(name="X", offset_edges=False,
                 stats=lambda g: (float(edge_count(g) * (1 if g.n <= 4 else 2)),))
    assert not fam.bernoulli
    theta, y = ParamVector(theta=(0.3,)), graph_from_edges(3, [(0, 1)])
    assert proper_log_likelihood(fam, theta, y, 5) == pytest.approx(-2.5124638514576567,
                                                                    abs=1e-12)
    assert completion_log_likelihood(fam, theta, y, 5) == pytest.approx(-2.5124638514576567,
                                                                        abs=1e-12)


def test_a_family_that_counts_edges_its_own_way_enumerates():
    """Only the shipped edge count unlocks the closed forms: an edge count
    of the family's own is enumerated, under the cap, to the same answer."""
    fam = Family(name="X", offset_edges=True, stats=lambda g: (float(edge_count(g)),))
    assert not fam.bernoulli
    theta = ParamVector(theta=(0.3,))
    closed = dyad_count(6) * math.log1p(math.exp(0.3 - math.log(6)))
    assert log_normalizer(fam, theta, 6) == pytest.approx(closed, abs=1e-12)
    with pytest.raises(EnumerationCapError):
        log_normalizer(fam, theta, 8)


def test_stat_dim_is_the_number_of_statistics_each_graph_gives():
    """``stat_dim`` is computed from ``stats``, not declared: an edge-count
    family has one statistic, and every row of its enumerated table is the
    statistic vector of that graph.  A declared ``stat_dim`` of 2 once
    broadcast the edge count into both columns of that table.  At 5 nodes,
    a bulk table of the family's own, then checked on only 32 graphs, once
    read [2] for graph 1, whose edge count is 1."""
    fam = Family(name="X", offset_edges=False, stats=lambda g: (float(edge_count(g)),))
    assert fam.stat_dim == 1 and EDGE_TRI.stat_dim == 2 and INVARIANT.stat_dim == 1
    for n in (4, 5):
        table = enumerated_stats(fam, n)
        assert table.shape == (1 << dyad_count(n), 1)
        for k, row in enumerate(table):
            assert tuple(row) == sufficient_stats(fam, graph_from_index(n, k)).values


def test_a_family_declares_only_its_statistics_and_offset():
    """The init fields are the declared ones; ``stat_dim`` and ``bernoulli``
    are derived, a statistic table is not declared, and nothing can be set."""
    assert [f.name for f in dataclasses.fields(Family) if f.init] == [
        "name", "offset_edges", "stats"]
    for field in ("stat_dim", "bernoulli", "bulk_stats"):
        with pytest.raises(TypeError, match=field):
            Family(name="X", offset_edges=False, stats=INVARIANT.stats, **{field: 1})
    for field in ("stat_dim", "bernoulli", "stats"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(EDGE_TRI, field, 3)


@pytest.mark.parametrize("stats, lengths", [
    (lambda g: (), "[0]"),
    (lambda g: (1.0,) * (1 + (g.n > 3)), "[1, 2]"),
    (lambda g: (1.0,) * (1 + g.dyads % 2), "[1, 2]"),
], ids=["empty", "by-size", "by-graph"])
def test_statistics_of_differing_number_are_refused(stats, lengths):
    with pytest.raises(ValueError, match=re.escape(f"same number of statistics, at least "
                                                   f"one, but gives {lengths}")):
        Family(name="X", offset_edges=False, stats=stats)


def test_a_number_of_statistics_that_changes_above_4_nodes_is_refused_there():
    """A statistic tuple that shrinks on the graphs of 5 nodes passes the
    construction audit, which reads at most 4 nodes, but every table or row
    built at 5 nodes refuses it; the per-graph table once broadcast its
    1-tuple into both columns, so that the last row read [10., 10.]."""
    fam = Family(name="X", offset_edges=False,
                 stats=lambda g: (float(edge_count(g)),) * (1 if g.n > 4 else 2))
    assert fam.stat_dim == 2
    theta = ParamVector(theta=(0.2, 0.3))
    k5 = complete_graph(5)
    message = re.escape("same number of statistics, at least one, but gives [1, 2]: 1 on "
                        "graph 0 of 5 nodes")
    for call in (lambda: enumerated_stats(fam, 5), lambda: build_distribution(fam, theta, 5),
                 lambda: log_likelihood(fam, theta, FullGraph(k5))):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match=re.escape("1 on graph 1023 of 5 nodes")):
        sufficient_stats(fam, k5)
    assert enumerated_stats(fam, 4).shape == (1 << dyad_count(4), 2)


@settings(max_examples=40, deadline=None)
@given(first=st.integers(2, 6), index=st.integers(0, (1 << dyad_count(2)) - 1),
       dim=st.integers(1, 3), changed=st.integers(0, 3))
def test_a_number_of_statistics_is_refused_at_every_size_from_where_it_changes(
        first, index, dim, changed):
    """The number of statistics first changes at size ``first``, on graph
    ``index`` (which every size from ``first`` up has): each table and row
    below that size is built, and each from that size up is refused, when
    the family is built if the size is at most 4."""
    changed += changed >= dim  # any other number, 0 included

    def stats(g):
        return (1.0,) * (changed if g.n >= first and g.dyads >= index else dim)

    if first <= 4:
        with pytest.raises(ValueError, match="same number of statistics"):
            Family(name="X", offset_edges=False, stats=stats)
        return
    fam = Family(name="X", offset_edges=False, stats=stats)
    assert fam.stat_dim == dim
    for n in range(1, 7):
        if n < first:
            assert enumerated_stats(fam, n).shape == (1 << dyad_count(n), dim)
            assert len(sufficient_stats(fam, complete_graph(n))) == dim
            continue
        message = re.escape(f"but gives {sorted({dim, changed})}: {changed} on graph "
                            f"{index} of {n} nodes")
        with pytest.raises(ValueError, match=message):
            enumerated_stats(fam, n)
        with pytest.raises(ValueError, match=message):
            sufficient_stats(fam, graph_from_index(n, index))


def test_model_spec_is_the_registered_family():
    assert model_spec("edge-triangle") is model_spec("EdgeTriangle")
    assert isinstance(EDGE_TRI, Family)
    assert EDGE_TRI.name == "EdgeTriangle"
    with pytest.raises(ValueError, match="unknown family"):
        model_spec("Mystery")


class _UnhashableEdgeCount:
    """A statistic callable that defines equality and so is unhashable."""

    def __eq__(self, other):
        return isinstance(other, _UnhashableEdgeCount)

    __hash__ = None

    def __call__(self, g):
        return (float(edge_count(g)),)


def test_family_hashes_by_identity():
    """A family is a cache key even when its statistics are unhashable, and
    two families built alike are distinct keys."""
    fam = Family(name="UnhashableProbe", offset_edges=False,
                 stats=_UnhashableEdgeCount())
    twin = Family(name="UnhashableProbe", offset_edges=False,
                  stats=_UnhashableEdgeCount())
    keys = {fam: 1, twin: 2}
    assert len(keys) == 2 and keys[fam] == 1 and fam != twin
    got = log_normalizer(fam, ParamVector(theta=(0.5,)), 4)
    assert got == pytest.approx(6 * math.log1p(math.exp(0.5)), abs=1e-12)


def _tmp_family(stats):
    return Family(name="Tmp", offset_edges=False, stats=stats)


def test_spec_keeps_its_model_when_the_name_is_registered_again():
    """A spec is the family it was taken from: registering another family
    under its name, or unregistering the name, leaves it unchanged."""
    theta = ParamVector(theta=(0.3,))
    register_family(_tmp_family(lambda g: (float(edge_count(g)),)))
    try:
        spec = model_spec("Tmp")
        before = log_normalizer(spec, theta, 4)
        assert before == pytest.approx(6 * math.log1p(math.exp(0.3)), rel=1e-14)
        unregister_family("Tmp")
        register_family(_tmp_family(lambda g: (float(triangle_count(g)),)))
        assert log_normalizer(model_spec("Tmp"), theta, 4) != pytest.approx(before)
        assert log_normalizer(spec, theta, 4) == before
        unregister_family("Tmp")
        register_family(_tmp_family(lambda g: (1.0, float(triangle_count(g)))))
        assert log_normalizer(spec, theta, 4) == before
    finally:
        unregister_family("Tmp")
    assert log_normalizer(spec, theta, 4) == before


def test_builtin_families_cannot_be_unregistered():
    with pytest.raises(ValueError, match="built-in"):
        unregister_family("BernoulliOffset")


def _mask_loop_edge_triangle_counts(n):
    """The EdgeTriangle table by one mask compare per node triple and row,
    the builder the node-recursive one replaced; its first column is the
    popcount that built the edge-count table before the recursion did."""
    idx = np.arange(1 << dyad_count(n), dtype=np.uint64)
    out = np.empty((len(idx), 2), dtype=np.uint8)
    out[:, 0] = np.bitwise_count(idx)
    tri = np.zeros(len(idx), dtype=np.uint8)
    for i, j, k in itertools.combinations(range(n), 3):
        mask = np.uint64(sum(1 << dyad_index(a, b) for a, b in ((i, j), (i, k), (j, k))))
        tri += (idx & mask) == mask
    out[:, 1] = tri
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("stats", list(models._TABLES), ids=lambda stats: stats.__name__)
def test_the_shipped_tables_are_their_statistics_on_every_graph(stats, n):
    """Each bulk table the package ships holds small unsigned integers equal,
    row for row, to its statistic function on every graph."""
    table = models._TABLES[stats](n)
    assert table.dtype == np.uint8
    want = [stats(graph_from_index(n, k)) for k in range(1 << dyad_count(n))]
    assert np.array_equal(table, np.array(want))


@pytest.mark.parametrize("stats", list(models._TABLES), ids=lambda stats: stats.__name__)
def test_edge_triangle_table_matches_the_mask_loop_at_seven_nodes(stats):
    """Each shipped table equals its columns of the mask loop on every graph
    of 7 nodes: the edge counts its popcount column, the edge and triangle
    counts both columns."""
    table = models._TABLES[stats](7)
    want = _mask_loop_edge_triangle_counts(7)[:, :len(stats(graph_from_index(1, 0)))]
    assert table.dtype == want.dtype == np.uint8
    assert np.array_equal(table, want)


@pytest.mark.parametrize("probe", ["edge_triangle_over_50", "edge_count_probe",
                                   "stacked_float_probe", "node_four_probe"])
def test_a_table_a_test_registers_is_its_statistics_on_every_graph(request, probe):
    """The test families that register a fast table in ``models._TABLES``
    (see conftest) are answered from it with no check, so each table must
    be, bit for bit, its family's per-graph statistics on every graph of at
    most 6 nodes."""
    fam = request.getfixturevalue(probe)
    assert fam.stats in models._TABLES
    for n in range(1, 7):
        table, rows = np.asarray(_stats_table(fam, n), dtype=np.float64), _statistics(fam, n)
        assert table.shape == rows.shape, n
        assert np.array_equal(table, rows) and np.array_equal(np.signbit(table),
                                                              np.signbit(rows)), n
