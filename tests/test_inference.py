"""Likelihoods (proper, misspecified) and maximum likelihood estimation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from projgraph import (
    EnumerationCapError,
    Family,
    FullGraph,
    InducedSubgraph,
    LikelihoodKind,
    NodeSubset,
    ParamVector,
    Replicates,
    build_distribution,
    complete_graph,
    completion_log_likelihood,
    dyad_count,
    dyad_index,
    edge_count,
    edge_prob,
    empty_graph,
    expected_stats,
    fisher_information,
    format_mle_csv,
    graph_from_edges,
    graph_from_index,
    log_likelihood,
    log_normalizer,
    marginal_distribution,
    misspecified_log_likelihood,
    mle,
    model_spec,
    proper_log_likelihood,
    register_family,
    stat_covariance,
    substream,
    sufficient_stats,
    unregister_family,
)
from projgraph.exact import (
    _classes,
    _code_table,
    _completion_counts,
    _joint_counts,
    _logsumexp,
    _moments,
)
from projgraph.inference import (
    _ascend_log_ratio,
    _bernoulli_fit,
    _event_fit,
    _hull_facets,
    _log_ratio_parts,
    _observation,
    _observed_event,
    _statistic_facets,
)
from projgraph.models import _statistics

INVARIANT = model_spec("BernoulliInvariant")
OFFSET = model_spec("BernoulliOffset")
EDGE_TRI = model_spec("EdgeTriangle")


def _triangle_with_tail():
    """5 nodes, 5 edges, 1 triangle: statistics strictly inside the hull."""
    return graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])


@pytest.fixture
def edges_newton():
    """Edge-count clone without the closed-form shortcut, to force the Newton path."""
    fam = Family(
        name="EdgesNewton",
        offset_edges=False,
        stats=lambda g: (float(edge_count(g)),),
    )
    register_family(fam)
    yield model_spec("EdgesNewton")
    unregister_family("EdgesNewton")


# --------------------------------------------------------------------------
# observed-data containers
# --------------------------------------------------------------------------


def test_induced_subgraph_requires_strictly_larger_population():
    with pytest.raises(ValueError, match="must be smaller than"):
        InducedSubgraph(subgraph=complete_graph(4), population_n=4)
    with pytest.raises(ValueError):
        InducedSubgraph(subgraph=complete_graph(4), population_n=3)


def test_replicates_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Replicates(graphs=())
    with pytest.raises(ValueError, match="share one node count"):
        Replicates(graphs=(empty_graph(3), empty_graph(4)))
    assert Replicates(graphs=(empty_graph(3), complete_graph(3))).n == 3


# --------------------------------------------------------------------------
# likelihood values
# --------------------------------------------------------------------------


def test_full_graph_likelihood_matches_distribution_table():
    theta = ParamVector(theta=(0.4, -0.3))
    d = build_distribution(EDGE_TRI, theta, 4)
    log_probs = d.class_log_probs[d.codes]
    for k in (0, 17, 40, 63):
        g = graph_from_index(4, k)
        got = log_likelihood(EDGE_TRI, theta, FullGraph(g))
        assert got == pytest.approx(float(log_probs[k]), abs=1e-12)


def test_uniform_model_assigns_equal_probability():
    theta = ParamVector(theta=(0.0, 0.0))
    for k in range(8):
        got = log_likelihood(EDGE_TRI, theta, FullGraph(graph_from_index(3, k)))
        assert got == pytest.approx(-math.log(8), abs=1e-14)


def test_replicates_likelihood_is_additive():
    theta = ParamVector(theta=(0.3, 0.1))
    graphs = (graph_from_index(4, 9), graph_from_index(4, 33), graph_from_index(4, 60))
    total = log_likelihood(EDGE_TRI, theta, Replicates(graphs=graphs))
    parts = sum(log_likelihood(EDGE_TRI, theta, FullGraph(g)) for g in graphs)
    assert total == pytest.approx(parts, abs=1e-12)


@pytest.mark.parametrize(
    "data, kind",
    [
        (FullGraph(_triangle_with_tail()), LikelihoodKind.PROPER),
        (Replicates(graphs=(_triangle_with_tail(),) * 4), LikelihoodKind.PROPER),
        (
            InducedSubgraph(subgraph=_triangle_with_tail(), population_n=6),
            LikelihoodKind.MISSPECIFIED,
        ),
    ],
    ids=["full", "replicates", "misspecified"],
)
def test_enumerated_mle_computes_each_graphs_statistics_once(data, kind):
    """Each graph's statistics are computed when the cached statistic table
    is built: a fit reads the observed rows from the table and calls the
    family's ``stats`` on no graph, and its log likelihood is the direct
    one."""
    calls = []

    def counting(g):
        calls.append(g)
        return EDGE_TRI.stats(g)

    spec = Family(name="CountingEdgeTriangle", offset_edges=False, stats=counting)
    _classes(spec, 5)
    calls.clear()  # the tables built at construction and the 5-node table
    result = mle(spec, data, kind)
    assert result.converged
    assert calls == []
    direct = log_likelihood(spec, ParamVector(theta=result.theta_hat), data, kind)
    assert result.log_lik == direct


def test_proper_likelihood_closed_form_matches_enumeration():
    """Dual route: the binomial closed form for independent dyads against the
    explicit sum over all completions of the unobserved dyads."""
    y = graph_from_edges(3, [(0, 1), (1, 2)])
    for spec in (INVARIANT, OFFSET):
        for theta in (-1.0, 0.0, 0.5):
            for population_n in (4, 5, 6):
                pv = ParamVector(theta=(theta,))
                closed = proper_log_likelihood(spec, pv, y, population_n)
                enumerated = completion_log_likelihood(spec, pv, y, population_n)
                assert closed == pytest.approx(enumerated, abs=1e-10)


def test_proper_likelihood_equals_log_marginal_probability():
    """Dual route: summing completions must equal marginalizing the full
    population table, for every possible observed subgraph."""
    subset = NodeSubset(parent_n=4, members=(0, 1, 2))
    for spec, theta in (
        (EDGE_TRI, ParamVector(theta=(0.3, 0.4))),
        (OFFSET, ParamVector(theta=(0.5,))),
    ):
        marg = marginal_distribution(build_distribution(spec, theta, 4), subset)
        for k in range(8):
            y = graph_from_index(3, k)
            got = proper_log_likelihood(spec, theta, y, 4)
            assert got == pytest.approx(math.log(marg[k]), abs=1e-10)


def test_proper_likelihood_binomial_example():
    # population edge probability 1/5 at theta=0, n=4; one edge out of three dyads
    y = graph_from_edges(3, [(0, 1)])
    got = proper_log_likelihood(OFFSET, ParamVector(theta=(0.0,)), y, 4)
    assert got == pytest.approx(math.log(0.2) + 2 * math.log(0.8), abs=1e-12)


def test_misspecified_likelihood_uses_the_subgraph_size():
    y = graph_from_edges(3, [(0, 1)])
    got = misspecified_log_likelihood(OFFSET, ParamVector(theta=(0.0,)), y)
    assert got == pytest.approx(math.log(0.25) + 2 * math.log(0.75), abs=1e-12)


def test_misspecified_likelihood_matches_small_distribution_table():
    theta = ParamVector(theta=(0.2, 0.6))
    d = build_distribution(EDGE_TRI, theta, 3)
    log_probs = d.class_log_probs[d.codes]
    for k in range(8):
        got = misspecified_log_likelihood(EDGE_TRI, theta, graph_from_index(3, k))
        assert got == pytest.approx(float(log_probs[k]), abs=1e-12)


def test_size_invariant_family_proper_equals_misspecified():
    """When marginals are size-consistent the two likelihoods coincide for
    every parameter value and every observation."""
    rng = substream(42, "identity")
    for _ in range(25):
        n_sub = int(rng.integers(2, 5))
        y = graph_from_index(n_sub, int(rng.integers(1 << dyad_count(n_sub))))
        population_n = int(rng.integers(n_sub + 1, 8))
        for theta in (-2.0, -0.5, 0.0, 1.0, 2.0):
            pv = ParamVector(theta=(theta,))
            proper = proper_log_likelihood(INVARIANT, pv, y, population_n)
            mis = misspecified_log_likelihood(INVARIANT, pv, y)
            assert proper == pytest.approx(mis, abs=1e-10)


def test_likelihood_kind_dispatch():
    y = graph_from_edges(3, [(0, 1)])
    data = InducedSubgraph(subgraph=y, population_n=5)
    theta = ParamVector(theta=(0.3,))
    assert log_likelihood(OFFSET, theta, data, LikelihoodKind.PROPER) == pytest.approx(
        proper_log_likelihood(OFFSET, theta, y, 5), abs=1e-14
    )
    assert log_likelihood(OFFSET, theta, data, "misspecified") == pytest.approx(
        misspecified_log_likelihood(OFFSET, theta, y), abs=1e-14
    )


def test_misspecified_kind_requires_subgraph_data():
    theta = ParamVector(theta=(0.0,))
    with pytest.raises(ValueError, match="only to induced-subgraph data"):
        log_likelihood(INVARIANT, theta, FullGraph(complete_graph(3)), "misspecified")
    with pytest.raises(ValueError, match="only to induced-subgraph data"):
        mle(INVARIANT, FullGraph(complete_graph(3)), "misspecified")


@pytest.mark.parametrize("spec", [EDGE_TRI, INVARIANT, OFFSET], ids=lambda f: f.name)
def test_bare_graph_is_not_observed_data(spec):
    with pytest.raises(TypeError, match="^unsupported observed-data type Graph$"):
        mle(spec, complete_graph(4))
    theta = ParamVector(theta=(0.0,) * spec.stat_dim)
    with pytest.raises(TypeError, match="^unsupported observed-data type Graph$"):
        log_likelihood(spec, theta, complete_graph(4))


@pytest.mark.parametrize("spec", [EDGE_TRI, INVARIANT, OFFSET], ids=lambda f: f.name)
@pytest.mark.parametrize(
    "data",
    [FullGraph(complete_graph(3)), Replicates(graphs=(empty_graph(3), complete_graph(3)))],
    ids=["full", "replicates"],
)
def test_misspecified_kind_is_refused_alike_by_mle_and_likelihood(spec, data):
    theta = ParamVector(theta=(0.0,) * spec.stat_dim)
    with pytest.raises(ValueError) as from_mle:
        mle(spec, data, LikelihoodKind.MISSPECIFIED)
    with pytest.raises(ValueError) as from_likelihood:
        log_likelihood(spec, theta, data, LikelihoodKind.MISSPECIFIED)
    assert str(from_mle.value) == str(from_likelihood.value)
    assert "only to induced-subgraph data" in str(from_mle.value)


_CLOSED_FORM_DATA = [
    (FullGraph(g), LikelihoodKind.PROPER)
    for g in (empty_graph(5), complete_graph(5), _triangle_with_tail())
] + [
    (Replicates(graphs=graphs), LikelihoodKind.PROPER)
    for graphs in ((empty_graph(4),) * 3, (complete_graph(4),) * 2,
                   (empty_graph(4), complete_graph(4), graph_from_edges(4, [(0, 1)])))
] + [
    (InducedSubgraph(subgraph=g, population_n=7), kind)
    for g in (empty_graph(3), complete_graph(3), graph_from_edges(3, [(0, 1)]))
    for kind in LikelihoodKind
]

# One node observes no dyad: boundary data whose estimate has no direction.
_ONE_NODE_DATA = [(FullGraph(empty_graph(1)), LikelihoodKind.PROPER)] + [
    (InducedSubgraph(subgraph=empty_graph(1), population_n=4), kind) for kind in LikelihoodKind
]


@pytest.mark.parametrize("spec", [INVARIANT, OFFSET], ids=lambda f: f.name)
@pytest.mark.parametrize("data, kind", _CLOSED_FORM_DATA + _ONE_NODE_DATA)
def test_closed_form_estimate_equals_the_mle(spec, data, kind):
    """A study's estimate of an independent-dyad family is the estimate and
    boundary flag of ``mle``, bit for bit (``repr`` matches +/-inf too): the
    closed form from the edges and dyads of the graphs the study drew."""
    result = mle(spec, data, kind)
    size, _, graphs = _observation(data, kind)
    fit = _bernoulli_fit(spec, size, sum(edge_count(g) for g in graphs),
                         len(graphs) * dyad_count(graphs[0].n))
    assert repr(fit.theta_hat) == repr(result.theta_hat)
    assert fit.boundary is result.boundary


def test_proper_likelihood_rejects_oversized_subgraph():
    theta = ParamVector(theta=(0.0,))
    with pytest.raises(ValueError, match="must be smaller than population size"):
        proper_log_likelihood(INVARIANT, theta, complete_graph(4), 4)
    with pytest.raises(ValueError, match="must be smaller than population size"):
        completion_log_likelihood(EDGE_TRI, ParamVector(theta=(0.0, 0.0)), complete_graph(4), 4)


# --------------------------------------------------------------------------
# information matrices
# --------------------------------------------------------------------------


def test_fisher_information_examples():
    # C(4,2) * pi * (1 - pi) with pi = 1/2 and pi = 1/5
    info = fisher_information(INVARIANT, ParamVector(theta=(0.0,)), 4)
    np.testing.assert_allclose(info, [[1.5]], atol=1e-14)
    info = fisher_information(OFFSET, ParamVector(theta=(0.0,)), 4)
    np.testing.assert_allclose(info, [[0.96]], atol=1e-14)
    info = fisher_information(EDGE_TRI, ParamVector(theta=(0.0, 0.0)), 3)
    np.testing.assert_allclose(info, [[0.75, 0.1875], [0.1875, 7 / 64]], atol=1e-14)


def test_fisher_information_is_stat_covariance():
    theta = ParamVector(theta=(0.4, -0.2))
    np.testing.assert_allclose(
        fisher_information(EDGE_TRI, theta, 5),
        stat_covariance(EDGE_TRI, theta, 5),
        atol=0,
    )


# --------------------------------------------------------------------------
# closed-form estimation for independent-dyad families
# --------------------------------------------------------------------------


def test_full_graph_logit_estimator():
    # 3 edges out of 6 dyads: logit(1/2) = 0
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    result = mle(INVARIANT, FullGraph(g))
    assert result.theta_hat == pytest.approx((0.0,), abs=1e-14)
    assert result.converged and not result.boundary
    assert result.iterations == 0
    assert result.log_lik == pytest.approx(6 * math.log(0.5), abs=1e-12)
    # std err = 1 / sqrt(d * pi * (1 - pi))
    assert result.std_err[0] == pytest.approx(1 / math.sqrt(1.5), abs=1e-12)


def test_full_graph_offset_estimator_adds_log_n():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    result = mle(OFFSET, FullGraph(g))
    assert result.theta_hat == pytest.approx((math.log(4),), abs=1e-12)


def test_replicates_pool_the_edge_counts():
    graphs = (
        graph_from_edges(4, [(0, 1)]),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    )
    result = mle(INVARIANT, Replicates(graphs=graphs))
    # 4 edges over 12 dyads: logit(1/3)
    assert result.theta_hat == pytest.approx((math.log(4 / 8),), abs=1e-12)
    assert result.converged


def test_subgraph_estimators_shift_by_the_size_used():
    """The misspecified estimator offsets by the subgraph size, the proper one
    by the population size; their gap is exactly log(n_sub / N)."""
    y = graph_from_edges(5, [(0, 1), (1, 2), (2, 3)])
    data = InducedSubgraph(subgraph=y, population_n=40)
    proper = mle(OFFSET, data, LikelihoodKind.PROPER)
    mis = mle(OFFSET, data, LikelihoodKind.MISSPECIFIED)
    logit = math.log(3 / 7)
    assert proper.theta_hat == pytest.approx((logit + math.log(40),), abs=1e-12)
    assert mis.theta_hat == pytest.approx((logit + math.log(5),), abs=1e-12)
    gap = mis.theta_hat[0] - proper.theta_hat[0]
    assert gap == pytest.approx(math.log(5 / 40), abs=1e-12)
    # same logit, same curvature: identical standard errors
    assert mis.std_err == pytest.approx(proper.std_err, abs=1e-12)


def test_size_invariant_subgraph_estimator_ignores_population_size():
    y = graph_from_edges(4, [(0, 1), (2, 3)])
    for population_n in (5, 20, 1000):
        result = mle(INVARIANT, InducedSubgraph(y, population_n), LikelihoodKind.PROPER)
        assert result.theta_hat == pytest.approx((math.log(2 / 4),), abs=1e-12)


def test_boundary_data_has_no_finite_estimate():
    empty = mle(INVARIANT, FullGraph(empty_graph(4)))
    assert empty.boundary and not empty.converged
    assert empty.theta_hat == (-math.inf,)
    assert empty.std_err is None
    assert math.isnan(empty.log_lik)
    assert empty.iterations == 0
    full = mle(INVARIANT, FullGraph(complete_graph(4)))
    assert full.theta_hat == (math.inf,)
    assert full.boundary


def test_boundary_replicates():
    result = mle(OFFSET, Replicates(graphs=(empty_graph(3), empty_graph(3))))
    assert result.boundary and result.theta_hat == (-math.inf,)


@pytest.mark.parametrize("spec", [INVARIANT, OFFSET], ids=lambda f: f.name)
@pytest.mark.parametrize("data, kind", _ONE_NODE_DATA)
def test_no_observed_dyad_is_boundary_with_no_direction(spec, data, kind):
    """One node observes no dyad, so neither -inf nor +inf is the data's
    direction: the fit is boundary and its estimate is nan."""
    result = mle(spec, data, kind)
    assert result.boundary and not result.converged
    assert math.isnan(result.theta_hat[0]) and result.std_err is None


# --------------------------------------------------------------------------
# Newton estimation for enumerated families
# --------------------------------------------------------------------------


def test_newton_matches_closed_form_logit(edges_newton):
    """Dual route: the moment-equation solver on the edge-count clone must
    agree with the closed-form logit estimator."""
    for edges in ([(0, 1), (1, 2), (2, 3)], [(0, 1)], [(0, 1), (0, 2), (1, 2), (3, 4)]):
        g = graph_from_edges(5, edges)
        newton = mle(edges_newton, FullGraph(g))
        closed = mle(INVARIANT, FullGraph(g))
        assert newton.converged and not newton.boundary
        assert newton.theta_hat[0] == pytest.approx(closed.theta_hat[0], abs=1e-8)
        assert newton.std_err[0] == pytest.approx(closed.std_err[0], rel=1e-6)
        assert newton.log_lik == pytest.approx(closed.log_lik, abs=1e-10)
        assert newton.iterations > 0


def test_newton_boundary_detection(edges_newton):
    assert mle(edges_newton, FullGraph(empty_graph(4))).boundary
    assert mle(edges_newton, FullGraph(complete_graph(4))).boundary


def test_edge_triangle_full_graph_mle_solves_the_moment_equation():
    g = _triangle_with_tail()
    result = mle(EDGE_TRI, FullGraph(g))
    assert result.converged and not result.boundary
    mu = expected_stats(EDGE_TRI, ParamVector(theta=result.theta_hat), 5)
    assert mu.values == pytest.approx((5.0, 1.0), abs=1e-8)
    # standard errors come from the Fisher information at the estimate
    info = fisher_information(EDGE_TRI, ParamVector(theta=result.theta_hat), 5)
    expected_se = tuple(math.sqrt(v) for v in np.diag(np.linalg.inv(info)))
    assert result.std_err == pytest.approx(expected_se, rel=1e-9)


def test_edge_triangle_full_graph_mle_converges_near_the_complete_graph():
    """K7 minus three edges, two of them adjacent: statistics (18, 21).  The
    moment residual must fall below the Newton tolerance."""
    g = graph_from_edges(
        7,
        [(a, b) for b in range(7) for a in range(b) if (a, b) not in ((0, 1), (0, 2), (3, 4))],
    )
    assert sufficient_stats(EDGE_TRI, g).values == (18.0, 21.0)
    result = mle(EDGE_TRI, FullGraph(g))
    assert result.converged and not result.boundary
    mu = expected_stats(EDGE_TRI, ParamVector(theta=result.theta_hat), 7)
    assert mu.values == pytest.approx((18.0, 21.0), abs=1e-9)


def test_edge_triangle_replicates_mle_matches_mean_statistics():
    graphs = (
        graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    )
    result = mle(EDGE_TRI, Replicates(graphs=graphs))
    assert result.converged
    mu = expected_stats(EDGE_TRI, ParamVector(theta=result.theta_hat), 4)
    assert mu.values == pytest.approx((3.5, 0.5), abs=1e-8)
    # R independent replicates multiply the information R-fold
    info = 2 * fisher_information(EDGE_TRI, ParamVector(theta=result.theta_hat), 4)
    expected_se = tuple(math.sqrt(v) for v in np.diag(np.linalg.inv(info)))
    assert result.std_err == pytest.approx(expected_se, rel=1e-9)


@pytest.mark.parametrize("index", [700, 1020])
def test_hull_certified_estimates_are_not_capped_by_a_radius(edge_triangle_over_50, index):
    """The statistics of 5-node graphs 700 and 1020 are interior, so a finite
    estimate exists.  Under the statistics divided by 50 its first component
    is about 32 and 93: no bound on eta may stop the ascent."""
    g = graph_from_index(5, index)
    scaled = mle(edge_triangle_over_50, FullGraph(g))
    assert scaled.converged and not scaled.boundary
    base = mle(EDGE_TRI, FullGraph(g)).theta_hat
    assert scaled.theta_hat == pytest.approx(tuple(50 * v for v in base), rel=1e-8)


@st.composite
def _edge_triangle_pools(draw):
    n = draw(st.integers(3, 6), label="n")
    indices = draw(st.lists(st.integers(0, (1 << dyad_count(n)) - 1),
                            min_size=1, max_size=50), label="indices")
    return tuple(graph_from_index(n, k) for k in indices)


@settings(max_examples=100, deadline=None)
@given(graphs=_edge_triangle_pools())
@example(graphs=(graph_from_index(6, 22767),))
def test_edge_triangle_pooled_mle_solves_the_moment_equation(graphs):
    """Every pool of 1-50 graphs on at most 6 nodes with interior mean
    statistics converges to the root of the moment equation, with standard
    errors from R times the Fisher information.  The example, statistics
    (10, 5), needs a last Newton step whose gain is below the rounding of
    the likelihood value."""
    result = mle(EDGE_TRI, Replicates(graphs))
    if result.boundary:
        return
    assert result.converged
    n, theta = graphs[0].n, ParamVector(theta=result.theta_hat)
    mean = np.mean([sufficient_stats(EDGE_TRI, g).as_array() for g in graphs], axis=0)
    assert expected_stats(EDGE_TRI, theta, n).values == pytest.approx(tuple(mean), abs=1e-8)
    info = len(graphs) * stat_covariance(EDGE_TRI, theta, n)
    expected_se = tuple(np.sqrt(np.diag(np.linalg.inv(info))))
    assert result.std_err == pytest.approx(expected_se, rel=1e-9)


def test_edge_triangle_boundary_full_graphs():
    for g in (empty_graph(4), complete_graph(4), graph_from_edges(3, [(0, 1)])):
        result = mle(EDGE_TRI, FullGraph(g))
        assert result.boundary
        assert all(math.isnan(v) for v in result.theta_hat)


@pytest.mark.parametrize(
    "data, kind",
    [
        (FullGraph(complete_graph(8)), LikelihoodKind.PROPER),
        (Replicates(graphs=(complete_graph(8), empty_graph(8))), LikelihoodKind.PROPER),
        (InducedSubgraph(subgraph=complete_graph(8), population_n=9),
         LikelihoodKind.MISSPECIFIED),
    ],
    ids=["full", "replicates", "misspecified"],
)
def test_enumerated_mle_refuses_graphs_beyond_the_cap(data, kind):
    built = _classes.cache_info().misses
    with pytest.raises(EnumerationCapError, match="n=8 exceeds the enumeration cap 7"):
        mle(EDGE_TRI, data, kind)
    assert _classes.cache_info().misses == built  # refused before building


# --------------------------------------------------------------------------
# proper estimation for the dyad-dependent family
# --------------------------------------------------------------------------


def test_proper_mle_finite_classes_for_three_of_five_nodes():
    """Only the one-edge subgraph admits a finite maximizer; the other three
    isomorphism classes run to infinity (detected as boundary)."""
    finite = graph_from_edges(3, [(0, 1)])
    result = mle(EDGE_TRI, InducedSubgraph(finite, 5), LikelihoodKind.PROPER)
    assert result.converged and not result.boundary
    assert result.theta_hat == pytest.approx(
        (-0.42694321506694394, -1.6810546662481873), abs=1e-6
    )
    assert result.log_lik == pytest.approx(-1.8909687975283576, abs=1e-8)
    assert result.std_err == pytest.approx((1.8462841262745118, 18.064504609765514), rel=1e-4)
    for y in (empty_graph(3), graph_from_edges(3, [(0, 1), (1, 2)]), complete_graph(3)):
        out = mle(EDGE_TRI, InducedSubgraph(y, 5), LikelihoodKind.PROPER)
        assert out.boundary and not out.converged
        assert all(math.isnan(v) for v in out.theta_hat)
        assert out.std_err is None


def test_proper_mle_finite_classes_for_four_of_five_nodes():
    """Exactly the (3 edges, 1 triangle) and (4 edges, 1 triangle) classes have
    finite maximizers when one of five nodes is unobserved."""
    triangle_plus_isolate = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    paw = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    res_a = mle(EDGE_TRI, InducedSubgraph(triangle_plus_isolate, 5), LikelihoodKind.PROPER)
    assert res_a.converged
    assert res_a.theta_hat == pytest.approx(
        (-0.8426711889920467, 0.9764909979902264), abs=1e-6
    )
    assert res_a.log_lik == pytest.approx(-3.8577705877900463, abs=1e-8)
    res_b = mle(EDGE_TRI, InducedSubgraph(paw, 5), LikelihoodKind.PROPER)
    assert res_b.converged
    assert res_b.theta_hat == pytest.approx(
        (1.7993385312940662, -0.8140078837542574), abs=1e-6
    )
    assert res_b.log_lik == pytest.approx(-3.756612133961852, abs=1e-8)
    boundary_reps = (
        empty_graph(4),
        graph_from_edges(4, [(0, 1)]),
        graph_from_edges(4, [(0, 1), (2, 3)]),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]),
        complete_graph(4),
    )
    for y in boundary_reps:
        out = mle(EDGE_TRI, InducedSubgraph(y, 5), LikelihoodKind.PROPER)
        assert out.boundary, f"expected boundary for stats {sufficient_stats(EDGE_TRI, y).values}"


def test_proper_mle_is_a_stationary_point():
    """The reported maximizer must zero the gradient of the proper likelihood
    (checked by central differences, independent of the optimizer)."""
    y = graph_from_edges(3, [(0, 1)])
    result = mle(EDGE_TRI, InducedSubgraph(y, 5), LikelihoodKind.PROPER)
    step = 1e-6
    for k in range(2):
        hi = list(result.theta_hat)
        lo = list(result.theta_hat)
        hi[k] += step
        lo[k] -= step
        fd = (
            proper_log_likelihood(EDGE_TRI, ParamVector(theta=tuple(hi)), y, 5)
            - proper_log_likelihood(EDGE_TRI, ParamVector(theta=tuple(lo)), y, 5)
        ) / (2 * step)
        assert abs(fd) < 1e-6


@pytest.mark.parametrize(
    "edges", [[(0, 1), (0, 2), (1, 2)], [(0, 1), (2, 3)]], ids=["triangle", "matching"]
)
def test_proper_mle_std_err_inverts_the_observed_information(edges):
    """Standard errors against a central-difference Hessian of the proper
    log likelihood at the estimate (six population nodes, four observed)."""
    y = graph_from_edges(4, edges)
    result = mle(EDGE_TRI, InducedSubgraph(y, 6), LikelihoodKind.PROPER)
    assert result.converged

    def loglik(t):
        return proper_log_likelihood(EDGE_TRI, ParamVector(theta=tuple(t)), y, 6)

    def second_difference(a, b):
        return (loglik(theta + a + b) - loglik(theta + a - b)
                - loglik(theta - a + b) + loglik(theta - a - b)) / (4 * h * h)

    theta = np.array(result.theta_hat)
    h = 1e-4
    steps = h * np.eye(2)
    hess = np.array([[second_difference(a, b) for b in steps] for a in steps])
    expected = np.sqrt(np.diag(np.linalg.inv(-hess)))
    assert result.std_err == pytest.approx(tuple(expected), rel=1e-3)


def test_proper_mle_verdicts_do_not_depend_on_the_statistics_scale(edge_triangle_over_50):
    """Every 4-node subgraph of a 6-node population.  Dividing the statistics
    by 50 multiplies eta by 50 and leaves every likelihood value unchanged,
    so no verdict may change."""
    for k in range(64):
        data = InducedSubgraph(graph_from_index(4, k), 6)
        base = mle(EDGE_TRI, data, LikelihoodKind.PROPER)
        scaled = mle(edge_triangle_over_50, data, LikelihoodKind.PROPER)
        assert base.converged or base.boundary
        assert (scaled.converged, scaled.boundary) == (base.converged, base.boundary), k
        if base.converged:
            want = tuple(50 * v for v in base.theta_hat)
            assert scaled.theta_hat == pytest.approx(want, rel=1e-6), k


def _brute_force_facets(points):
    """(outward normal, indices of the points on it) for each facet of the
    hull of integer 2-D points: every line through two points that leaves
    all points on one side."""
    facets = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        d = points[j] - points[i]
        normal = np.array([d[1], -d[0]])
        side = (points - points[i]) @ normal
        for sign in (1.0, -1.0):
            if np.all(sign * side <= 0):
                facets[tuple(np.flatnonzero(side == 0))] = sign * normal
    return [(normal, list(on)) for on, normal in facets.items()]


@st.composite
def _sub_histograms(draw):
    """A population size n <= 6 and an event: some rows of the EdgeTriangle
    histogram at n, each with a count between 1 and the row's full count."""
    n = draw(st.integers(3, 6), label="n")
    points, log_counts = _classes(EDGE_TRI, n)[1:]
    full_counts = np.rint(np.exp(log_counts)).astype(int)
    rows = sorted(draw(st.sets(st.integers(0, len(points) - 1), min_size=1), label="rows"))
    counts = [draw(st.integers(1, int(full_counts[r])), label="count") for r in rows]
    return n, rows, np.log(np.array(counts, dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(case=_sub_histograms())
@example(case=(5, [1, 7, 13], np.log([1.0, 2.0, 1.0])))
@example(case=(5, [4, 5, 13, 14, 17], np.log([1.0, 1.0, 1.0, 1.0, 7.0])))
def test_converged_ascent_beats_every_facet_limit(case):
    """Along eta + t * a, with a a facet's outward normal, the log probability
    of the event tends to the log probability of its rows on the facet among
    the population's rows on the facet.  A converged maximum must beat that
    limit on every facet the event reaches, and at every vertex.

    In the first example the ascent runs toward the facet of triangle-free
    graphs, where the objective has two local maxima; the one an ascent from
    0 finds lies below the limit at the estimate.  In the second it runs to
    |eta| near 1e11 along a ridge, where rounding lifts the value 5e-5 above
    the facet's limit."""
    n, rows, comp_log_counts = case
    full = _classes(EDGE_TRI, n)[1:]
    points, log_counts = full
    comp = (points[rows], comp_log_counts)
    stack = (comp[0][None], comp[1][None])  # the ascent takes a stack of events
    eta, converged, _, _, _ = (x[0] for x in _ascend_log_ratio(stack, full,
                                                               _statistic_facets(EDGE_TRI, n)))
    if not converged:
        return

    def log_ratio(comp_on, full_on):
        """log P_eta(event rows among ``comp_on`` | population rows ``full_on``)."""
        return (_logsumexp(comp[1][comp_on] + comp[0][comp_on] @ eta)
                - _logsumexp(log_counts[full_on] + points[full_on] @ eta))

    value = log_ratio(list(range(len(rows))), list(range(len(points))))
    vertices = set()
    for normal, on in _brute_force_facets(points):
        comp_on = [i for i, r in enumerate(rows) if r in on]
        if comp_on:
            assert log_ratio(comp_on, on) < value - 1e-9, (normal, on)
        vertices.update((on[0], on[-1]))
    for v in vertices:
        if v in rows:
            limit = comp[1][rows.index(v)] - log_counts[v]
            assert limit < value - 1e-9, v


def _qhull_facets(points):
    """Unit normals and offsets of the hull of 2-D points by Qhull, each
    facet once, or the hyperplane of points with empty interior."""
    try:
        normals = ConvexHull(points).equations[:, :-1]
    except QhullError:
        normals = np.linalg.svd(points - points[0])[2][-1:]
    distinct = []
    for normal in normals:
        if all(np.abs(normal - kept).max() > 1e-9 for kept in distinct):
            distinct.append(normal)
    normals = np.array(distinct)
    return normals, (points @ normals.T).max(axis=0)


def _assert_hull_matches_qhull(points):
    normals, offsets, _ = _hull_facets(points)
    want_normals, want_offsets = _qhull_facets(points)
    assert len(normals) == len(want_normals)
    for a, b, others, other_offsets in ((normals, offsets, want_normals, want_offsets),
                                        (want_normals, want_offsets, normals, offsets)):
        for normal, offset in zip(a, b):
            k = np.argmin(np.abs(others - normal).max(axis=1))
            assert np.abs(others[k] - normal).max() <= 1e-12, (normal, others)
            assert abs(other_offsets[k] - offset) <= 1e-12


@st.composite
def _planar_points(draw):
    """Integer 2-D points with a collinear run and repeated points."""
    coordinate = st.integers(-6, 6)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=10))
    x, y, dx, dy = draw(st.tuples(coordinate, coordinate, st.integers(-2, 2), st.integers(-2, 2)))
    points += [(x + k * dx, y + k * dy) for k in range(draw(st.integers(0, 6)))]
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    return np.array(draw(st.permutations(points)), dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(points=_planar_points())
@example(points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]))
@example(points=np.array([[3.0, -1.0]]))
def test_planar_hull_matches_qhull(points):
    _assert_hull_matches_qhull(points)


def _node_zero_table(n):
    """Statistics of test_histogram_engine's NodeZeroProbe for every graph on
    n nodes: the degree of node 0 and the parity of the edge count."""
    idx = np.arange(1 << dyad_count(n), dtype=np.uint64)
    star = np.uint64(sum(1 << dyad_index(0, j) for j in range(1, n)))
    return np.column_stack([np.bitwise_count(idx & star), np.bitwise_count(idx) % 2])


@pytest.mark.parametrize("n", range(1, 8))
def test_planar_statistic_hulls_match_qhull(edge_triangle_over_50, n):
    for spec in (EDGE_TRI, edge_triangle_over_50):
        _assert_hull_matches_qhull(_classes(spec, n)[1])
    _assert_hull_matches_qhull(_code_table(_node_zero_table(n))[1])


def test_proper_mle_log_lik_matches_direct_evaluation():
    y = graph_from_edges(3, [(0, 1)])
    result = mle(EDGE_TRI, InducedSubgraph(y, 5), LikelihoodKind.PROPER)
    direct = proper_log_likelihood(EDGE_TRI, ParamVector(theta=result.theta_hat), y, 5)
    assert result.log_lik == pytest.approx(direct, abs=1e-12)


def test_misspecified_mle_on_subgraph_uses_subgraph_model():
    y = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    result = mle(EDGE_TRI, InducedSubgraph(y, 6), LikelihoodKind.MISSPECIFIED)
    assert result.converged
    mu = expected_stats(EDGE_TRI, ParamVector(theta=result.theta_hat), 4)
    assert mu.values == pytest.approx((3.0, 1.0), abs=1e-8)


# --------------------------------------------------------------------------
# one fit per observed event
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n, n_sub", [(6, 4), (7, 5)])
def test_cached_fits_equal_cold_fits_for_every_group(n, n_sub):
    """The prefix subgraphs of one ``_joint_counts`` group share their proper
    event (the completion counts) and their misspecified one (their class).
    Each group's first member is fitted cold, after ``cache_clear``; its last
    member is then served from the cache and prints the same bytes."""
    codes = _classes(EDGE_TRI, n_sub)[0]
    groups: dict = {}
    for k in range(1 << dyad_count(n_sub)):
        y = graph_from_index(n_sub, k)
        key = (_completion_counts(EDGE_TRI, y, n).tobytes(), int(codes[k]))
        groups.setdefault(key, []).append(InducedSubgraph(y, n))
    assert len(groups) == len(_joint_counts(EDGE_TRI, n, n_sub)[0])
    for members in groups.values():
        for kind in LikelihoodKind:
            _event_fit.cache_clear()
            cold = mle(EDGE_TRI, members[0], kind)
            warm = mle(EDGE_TRI, members[-1], kind)
            assert _event_fit.cache_info().hits == 1
            assert (format_mle_csv(EDGE_TRI, [(kind, warm)])
                    == format_mle_csv(EDGE_TRI, [(kind, cold)]))


@pytest.mark.parametrize("proper", [True, False])
def test_cached_eta_is_read_only(proper):
    y = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    kind = LikelihoodKind.PROPER if proper else LikelihoodKind.MISSPECIFIED
    size, proper, graphs = _observation(InducedSubgraph(y, 6), kind)
    event = _observed_event(EDGE_TRI, size, proper, graphs)
    eta = _event_fit.batch(EDGE_TRI, size, (event,))[0].eta
    assert not eta.flags.writeable
    with pytest.raises(ValueError):
        eta[0] = 1.0


def test_rescaled_family_never_shares_a_fit(edge_triangle_over_50):
    """Both families have the same classes in the same order, so a subgraph
    has the same completion counts under each: only the family tells their
    events apart."""
    y = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert (_completion_counts(EDGE_TRI, y, 6).tobytes()
            == _completion_counts(edge_triangle_over_50, y, 6).tobytes())
    data = InducedSubgraph(y, 6)
    _event_fit.cache_clear()
    base = mle(EDGE_TRI, data)
    scaled = mle(edge_triangle_over_50, data)
    assert _event_fit.cache_info().misses == 2
    assert base.converged and scaled.converged
    assert scaled.theta_hat == pytest.approx(tuple(50 * v for v in base.theta_hat), rel=1e-6)
    assert mle(edge_triangle_over_50, data) == scaled
    assert mle(EDGE_TRI, data) == base


@pytest.mark.parametrize("kind", list(LikelihoodKind))
def test_cached_events_still_check_the_enumeration_cap(kind):
    data = InducedSubgraph(graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]), 6)
    mle(EDGE_TRI, data, kind)
    size = 6 if kind is LikelihoodKind.PROPER else 4
    with pytest.raises(EnumerationCapError, match=f"n={size} exceeds the enumeration cap 3"):
        mle(EDGE_TRI, data, kind, enum_cap=3)
    with pytest.raises(ValueError, match="enumeration cap must lie in"):
        mle(EDGE_TRI, data, kind, enum_cap=0)


_Y = graph_from_edges(4, [(0, 1), (1, 2)])
_PV = ParamVector(theta=(0.3,))

# Every public function that takes ``enum_cap``, on data whose estimate is
# finite and on boundary data (no edge, every edge).
_CAPPED_CALLS = {
    "mle": lambda spec, cap: mle(spec, FullGraph(_Y), enum_cap=cap),
    "mle-empty": lambda spec, cap: mle(spec, FullGraph(empty_graph(4)), enum_cap=cap),
    "mle-proper-complete": lambda spec, cap: mle(
        spec, InducedSubgraph(complete_graph(4), 6), enum_cap=cap),
    "mle-replicates": lambda spec, cap: mle(spec, Replicates((_Y, _Y)), enum_cap=cap),
    "mle-misspecified": lambda spec, cap: mle(
        spec, InducedSubgraph(_Y, 6), LikelihoodKind.MISSPECIFIED, cap),
    "log_likelihood": lambda spec, cap: log_likelihood(spec, _PV, FullGraph(_Y), enum_cap=cap),
    "log_likelihood-proper": lambda spec, cap: log_likelihood(
        spec, _PV, InducedSubgraph(_Y, 6), enum_cap=cap),
    "proper_log_likelihood": lambda spec, cap: proper_log_likelihood(spec, _PV, _Y, 6, cap),
    "misspecified_log_likelihood": lambda spec, cap: misspecified_log_likelihood(
        spec, _PV, _Y, cap),
    "log_normalizer": lambda spec, cap: log_normalizer(spec, _PV, 100, cap),
    "expected_stats": lambda spec, cap: expected_stats(spec, _PV, 100, cap),
    "stat_covariance": lambda spec, cap: stat_covariance(spec, _PV, 100, cap),
    "fisher_information": lambda spec, cap: fisher_information(spec, _PV, 100, cap),
}


@pytest.mark.parametrize("enum_cap", [0, 99])
@pytest.mark.parametrize("spec", [INVARIANT, OFFSET], ids=lambda spec: spec.name)
@pytest.mark.parametrize("call", list(_CAPPED_CALLS))
def test_closed_forms_refuse_a_bad_enumeration_cap(call, spec, enum_cap):
    """The independent-dyad closed forms enumerate nothing, yet a cap
    outside [1, 8] is refused as it is for every other family, boundary
    data included."""
    with pytest.raises(ValueError, match=r"enumeration cap must lie in \[1, 8\]"):
        _CAPPED_CALLS[call](spec, enum_cap)


@settings(max_examples=200, deadline=None)
@given(
    picks=st.lists(st.integers(0, 1023), min_size=1, max_size=3),
    count=st.integers(1, 20),
    eta=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
)
@example(picks=[0], count=1, eta=(0.0, 0.0))
@example(picks=[0], count=1, eta=(-0.0, -0.0))
@example(picks=[1023], count=1, eta=(0.0, -0.0))
def test_one_row_event_parts_equal_its_moments(picks, count, eta):
    """A one-row event (the mean of some rows of the n=5 table, with a log
    count) skips its ``_moments`` call and gets the same bits, signs of zero
    included."""
    table = _statistics(EDGE_TRI, 5)
    comp = (table[picks].astype(np.float64).mean(axis=0)[None, :], np.log([float(count)]))
    full = _classes(EDGE_TRI, 5)[1:]
    eta = np.array(eta)
    lse_c, mu_c, cov_c = _moments(*comp, eta)
    lse_f, mu_f, cov_f = _moments(*full, eta)
    want = (lse_c - lse_f, mu_c - mu_f, cov_c - cov_f)
    for got, expected in zip(_log_ratio_parts(comp, full, eta), want):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


# --------------------------------------------------------------------------
# CSV output
# --------------------------------------------------------------------------


def test_mle_csv_layout_one_dimensional():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    result = mle(INVARIANT, FullGraph(g))
    text = format_mle_csv(INVARIANT, [(LikelihoodKind.PROPER, result)])
    lines = text.splitlines()
    assert lines[0] == "family,kind,theta_hat_1,std_err_1,log_lik,converged,boundary,iterations"
    fields = lines[1].split(",")
    assert fields[0] == "BernoulliInvariant"
    assert fields[1] == "proper"
    assert float(fields[2]) == 0.0
    assert float(fields[3]) == pytest.approx(1 / math.sqrt(1.5), abs=1e-12)
    assert float(fields[4]) == pytest.approx(6 * math.log(0.5), abs=1e-12)
    assert fields[5:] == ["true", "false", "0"]


def test_mle_csv_layout_two_dimensional_boundary():
    result = mle(EDGE_TRI, FullGraph(empty_graph(4)))
    text = format_mle_csv(EDGE_TRI, [(LikelihoodKind.PROPER, result)])
    lines = text.splitlines()
    assert lines[0] == (
        "family,kind,theta_hat_1,theta_hat_2,std_err_1,std_err_2,"
        "log_lik,converged,boundary,iterations"
    )
    fields = lines[1].split(",")
    assert fields[0] == "EdgeTriangle"
    assert fields[2] == "nan" and fields[3] == "nan"
    assert fields[4] == "" and fields[5] == ""
    assert fields[6] == "nan"
    assert fields[7:] == ["false", "true", "0"]


def test_mle_csv_infinite_estimates_round_trip():
    result = mle(INVARIANT, FullGraph(complete_graph(3)))
    text = format_mle_csv(INVARIANT, [(LikelihoodKind.PROPER, result)])
    fields = text.splitlines()[1].split(",")
    assert fields[2] == "inf"
    assert float(fields[2]) == math.inf
