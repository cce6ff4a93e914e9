"""Seeded Monte Carlo studies: configs, runners, determinism, and reports."""

import itertools
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projgraph import (
    EnumerationCapError,
    ExperimentConfig,
    ExperimentReport,
    Family,
    FullGraph,
    InducedSubgraph,
    LikelihoodKind,
    NodeSubset,
    ParamVector,
    Replicates,
    build_distribution,
    completion_log_likelihood,
    degree_sequence,
    edge_count,
    edge_prob,
    exact_sample,
    graph_from_index,
    induced_subgraph,
    log_likelihood,
    marginal_distribution,
    mle,
    model_spec,
    register_family,
    run_connectivity_threshold,
    run_experiment,
    run_growth_consistency,
    run_replication_consistency,
    run_subsample_bias,
    sample_bernoulli,
    substream,
    unregister_family,
)
from projgraph import exact
from projgraph.experiments import _estimate_columns, _summarize_estimates, _table_subsample
from projgraph.inference import _event_fit, _mean_events
from projgraph.rng import _streams

INVARIANT = model_spec("BernoulliInvariant")
OFFSET = model_spec("BernoulliOffset")
EDGE_TRI = model_spec("EdgeTriangle")


def _growth_cfg(**overrides):
    base = dict(
        experiment="growth",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(10, 14),
        replicates=12,
        master_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment 'collapse'; expected one of"):
        _growth_cfg(experiment="collapse")


def test_config_requires_increasing_positive_sizes():
    with pytest.raises(ValueError, match="strictly increasing"):
        _growth_cfg(sizes=(10, 10))
    with pytest.raises(ValueError, match="strictly increasing"):
        _growth_cfg(sizes=(14, 10))
    with pytest.raises(ValueError, match="sizes must be positive"):
        _growth_cfg(sizes=(0, 4))
    with pytest.raises(ValueError, match="sizes must be non-empty"):
        _growth_cfg(sizes=())


def test_config_validates_master_seed():
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        _growth_cfg(master_seed="7")
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        _growth_cfg(master_seed=True)
    with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
        _growth_cfg(master_seed=-1)


def test_config_checks_theta_star_dimension():
    with pytest.raises(ValueError, match="theta_star has length 2, expected 1"):
        _growth_cfg(theta_star=ParamVector(theta=(1.0, 0.5)))


def test_config_counts_stop_below_2_32():
    """Every replicate, study and draw index is one 32-bit stream id word."""
    assert _growth_cfg(replicates=2**32 - 1).replicates == 2**32 - 1
    with pytest.raises(ValueError, match=r"^replicates must be below 2\*\*32, got 4294967296$"):
        _growth_cfg(replicates=2**32)
    replication = dict(experiment="replication", spec=INVARIANT,
                       theta_star=ParamVector(theta=(0.0,)), sizes=(6,), master_seed=1)
    ok = ExperimentConfig(**replication, replicates=(2, 2**32 - 1), studies_per_cell=2**32 - 1)
    assert ok.replicates == (2, 2**32 - 1) and ok.studies_per_cell == 2**32 - 1
    with pytest.raises(ValueError, match=r"^replicates must be below 2\*\*32"):
        ExperimentConfig(**replication, replicates=(2, np.uint64(2**32)))
    with pytest.raises(ValueError, match=r"^studies_per_cell must be below 2\*\*32"):
        ExperimentConfig(**replication, replicates=(2,), studies_per_cell=2**33)


def test_replication_config_shape():
    ok = ExperimentConfig(
        experiment="replication",
        spec=INVARIANT,
        theta_star=ParamVector(theta=(0.0,)),
        sizes=(6,),
        replicates=(5, 10),
        master_seed=1,
        studies_per_cell=4,
    )
    assert ok.replicates == (5, 10)
    with pytest.raises(ValueError, match="list of replicate counts"):
        ExperimentConfig(
            experiment="replication",
            spec=INVARIANT,
            theta_star=ParamVector(theta=(0.0,)),
            sizes=(6,),
            replicates=10,
            master_seed=1,
        )
    with pytest.raises(ValueError, match="single fixed graph size"):
        ExperimentConfig(
            experiment="replication",
            spec=INVARIANT,
            theta_star=ParamVector(theta=(0.0,)),
            sizes=(6, 8),
            replicates=(5, 10),
            master_seed=1,
        )
    with pytest.raises(ValueError, match="studies_per_cell must be >= 2"):
        ExperimentConfig(
            experiment="replication",
            spec=INVARIANT,
            theta_star=ParamVector(theta=(0.0,)),
            sizes=(6,),
            replicates=(5,),
            master_seed=1,
            studies_per_cell=1,
        )


def test_growth_config_requires_integer_replicates():
    with pytest.raises(ValueError, match="growth requires an integer replicate count"):
        _growth_cfg(replicates=(5, 10))
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        _growth_cfg(replicates=0)
    with pytest.raises(ValueError, match="studies_per_cell applies only to replication"):
        _growth_cfg(studies_per_cell=50)


def test_studies_per_cell_defaults_to_200_for_replication_only():
    cfg = ExperimentConfig(
        experiment="replication",
        spec=INVARIANT,
        theta_star=ParamVector(theta=(0.0,)),
        sizes=(6,),
        replicates=[5, np.int64(10)],
        master_seed=np.uint64(1),
    )
    assert cfg.studies_per_cell == 200
    assert cfg.to_dict()["studies_per_cell"] == 200
    assert cfg.replicates == (5, 10) and type(cfg.replicates[1]) is int
    assert type(cfg.master_seed) is int
    assert _growth_cfg().studies_per_cell is None
    assert "studies_per_cell" not in _growth_cfg().to_dict()
    with pytest.raises(ValueError, match="studies_per_cell applies only to replication"):
        _growth_cfg(studies_per_cell=200)


def test_subsample_config_bounds():
    base = dict(
        experiment="subsample",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(20,),
        replicates=5,
        master_seed=0,
    )
    with pytest.raises(ValueError, match="subsample requires subsample_n"):
        ExperimentConfig(**base)
    with pytest.raises(ValueError, match=r"subsample_n must lie in \[1, 20\), got 20"):
        ExperimentConfig(**base, subsample_n=20)
    with pytest.raises(ValueError, match="subsample_n applies only to the subsample experiment"):
        _growth_cfg(subsample_n=5)


def test_threshold_config_bounds():
    base = dict(
        experiment="threshold",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(20,),
        replicates=5,
        master_seed=0,
    )
    with pytest.raises(ValueError, match="threshold requires multipliers"):
        ExperimentConfig(**base)
    with pytest.raises(ValueError, match="multipliers must be positive"):
        ExperimentConfig(**base, multipliers=(0.5, 0.0))
    with pytest.raises(ValueError, match="multipliers applies only to the threshold experiment"):
        _growth_cfg(multipliers=(1.0,))


# --------------------------------------------------------------------------
# dict round trip
# --------------------------------------------------------------------------


def test_config_round_trips_through_dict():
    for cfg in (
        _growth_cfg(),
        ExperimentConfig(
            experiment="replication",
            spec=EDGE_TRI,
            theta_star=ParamVector(theta=(0.0, 0.5)),
            sizes=(5,),
            replicates=(10, 40),
            master_seed=7,
            studies_per_cell=12,
        ),
        ExperimentConfig(
            experiment="subsample",
            spec=OFFSET,
            theta_star=ParamVector(theta=(1.0,)),
            sizes=(50,),
            replicates=20,
            master_seed=9,
            subsample_n=10,
        ),
        ExperimentConfig(
            experiment="threshold",
            spec=OFFSET,
            theta_star=ParamVector(theta=(1.0,)),
            sizes=(30,),
            replicates=15,
            master_seed=2,
            multipliers=(0.5, 1.0, 2.0),
        ),
    ):
        payload = cfg.to_dict()
        json.dumps(payload)  # must be JSON-serializable as-is
        assert ExperimentConfig.from_dict(payload) == cfg


def test_from_dict_accepts_family_name_or_object():
    payload = {
        "experiment": "growth",
        "spec": "bernoulli-offset",
        "theta_star": [1.0],
        "sizes": [10, 14],
        "replicates": 12,
        "master_seed": 3,
    }
    assert ExperimentConfig.from_dict(payload) == _growth_cfg()
    payload["spec"] = {"family": "BernoulliOffset"}
    assert ExperimentConfig.from_dict(payload) == _growth_cfg()


def test_from_dict_error_messages():
    good = _growth_cfg().to_dict()
    with pytest.raises(ValueError, match="experiment config must be a JSON object"):
        ExperimentConfig.from_dict([1, 2])
    bad = dict(good)
    bad["bogus"] = 1
    with pytest.raises(ValueError, match="unknown config keys: bogus"):
        ExperimentConfig.from_dict(bad)
    bad = dict(good)
    del bad["sizes"]
    del bad["master_seed"]
    with pytest.raises(ValueError, match="missing config keys: sizes, master_seed"):
        ExperimentConfig.from_dict(bad)
    bad = dict(good)
    bad["spec"] = {"family": "BernoulliOffset", "dim": 1}
    with pytest.raises(ValueError, match="unknown spec keys: dim"):
        ExperimentConfig.from_dict(bad)
    bad = dict(good)
    bad["spec"] = {}
    with pytest.raises(ValueError, match="spec requires a family name"):
        ExperimentConfig.from_dict(bad)
    bad = dict(good)
    bad["spec"] = 17
    with pytest.raises(ValueError, match="spec must be a family name"):
        ExperimentConfig.from_dict(bad)
    bad = dict(good)
    bad["theta_star"] = 1.0
    with pytest.raises(ValueError, match="theta_star must be an array"):
        ExperimentConfig.from_dict(bad)
    bad = dict(good)
    bad["studies_per_cell"] = 10
    with pytest.raises(ValueError, match="studies_per_cell applies only to replication"):
        ExperimentConfig.from_dict(bad)


# --------------------------------------------------------------------------
# runner dispatch and family requirements
# --------------------------------------------------------------------------


def test_runners_check_the_experiment_tag():
    cfg = _growth_cfg()
    with pytest.raises(ValueError, match="config is for 'growth', expected 'threshold'"):
        run_connectivity_threshold(cfg)
    with pytest.raises(ValueError, match="config is for 'growth', expected 'replication'"):
        run_replication_consistency(cfg)
    with pytest.raises(ValueError, match="config is for 'growth', expected 'subsample'"):
        run_subsample_bias(cfg)


def test_growth_requires_the_offset_family():
    cfg = ExperimentConfig(
        experiment="growth",
        spec=INVARIANT,
        theta_star=ParamVector(theta=(0.0,)),
        sizes=(10,),
        replicates=5,
        master_seed=0,
    )
    with pytest.raises(ValueError, match="requires the BernoulliOffset family"):
        run_growth_consistency(cfg)


def test_threshold_requires_an_independent_dyad_family():
    cfg = ExperimentConfig(
        experiment="threshold",
        spec=EDGE_TRI,
        theta_star=ParamVector(theta=(0.0, 0.5)),
        sizes=(5,),
        replicates=5,
        master_seed=0,
        multipliers=(1.0,),
    )
    with pytest.raises(ValueError, match="requires an independent-dyad family"):
        run_connectivity_threshold(cfg)


# --------------------------------------------------------------------------
# growth study
# --------------------------------------------------------------------------


def test_growth_report_shape_and_accounting():
    report = run_growth_consistency(_growth_cfg())
    assert report.experiment == "growth"
    assert report.columns == (
        "cell",
        "n",
        "units",
        "used",
        "n_boundary",
        "mean_estimate",
        "bias",
        "rmse",
        "mean_degree",
        "mean_edges",
    )
    assert [row["cell"] for row in report.rows] == ["n=10", "n=14"]
    for row in report.rows:
        assert row["units"] == 12
        assert row["units"] == row["used"] + row["n_boundary"]
        assert row["bias"] == pytest.approx(row["mean_estimate"] - 1.0, abs=1e-15)
        assert row["rmse"] >= abs(row["bias"])
        assert row["mean_degree"] == pytest.approx(2 * row["mean_edges"] / row["n"], abs=1e-12)


def test_growth_mean_edges_tracks_the_binomial_mean():
    cfg = _growth_cfg(sizes=(20,), replicates=40, master_seed=3)
    report = run_growth_consistency(cfg)
    pi = edge_prob(OFFSET, ParamVector(theta=(1.0,)), 20)
    dyads = 190
    se = math.sqrt(dyads * pi * (1 - pi) / 40)
    assert abs(report.rows[0]["mean_edges"] - dyads * pi) <= 3.5 * se


def test_growth_streams_are_replicate_addressable():
    """Each replicate's stream is derived from (seed, study, cell, replicate)
    alone, so an external loop can reproduce the report exactly."""
    cfg = _growth_cfg(sizes=(15,), replicates=10, master_seed=11)
    report = run_growth_consistency(cfg)
    pi = edge_prob(OFFSET, ParamVector(theta=(1.0,)), 15)
    estimates = []
    for rep in range(10):
        rng = substream(11, "growth", 0, rep)
        g = sample_bernoulli(15, pi, rng)
        result = mle(OFFSET, FullGraph(g))
        if not result.boundary:
            estimates.append(result.theta_hat[0])
    row = report.rows[0]
    assert row["used"] == len(estimates)
    assert row["mean_estimate"] == pytest.approx(float(np.mean(estimates)), abs=1e-15)


def test_growth_leading_cells_do_not_depend_on_later_cells():
    short = run_growth_consistency(_growth_cfg(sizes=(10,)))
    long = run_growth_consistency(_growth_cfg(sizes=(10, 14)))
    assert long.rows[0] == short.rows[0]


# --------------------------------------------------------------------------
# replication study
# --------------------------------------------------------------------------


def test_replication_error_shrinks_with_more_replicates():
    cfg = ExperimentConfig(
        experiment="replication",
        spec=INVARIANT,
        theta_star=ParamVector(theta=(0.0,)),
        sizes=(10,),
        replicates=(5, 20),
        master_seed=5,
        studies_per_cell=40,
    )
    report = run_replication_consistency(cfg)
    assert report.columns[:6] == ("cell", "n", "R", "units", "used", "n_boundary")
    assert [row["cell"] for row in report.rows] == ["R=5", "R=20"]
    assert all(row["units"] == 40 for row in report.rows)
    # quadrupling the replicates roughly halves the error; far outside noise
    assert report.rows[1]["rmse"] < report.rows[0]["rmse"]


def test_replication_handles_the_dyad_dependent_family():
    cfg = ExperimentConfig(
        experiment="replication",
        spec=EDGE_TRI,
        theta_star=ParamVector(theta=(0.0, 0.5)),
        sizes=(4,),
        replicates=(5, 20),
        master_seed=5,
        studies_per_cell=30,
    )
    report = run_replication_consistency(cfg)
    for row in report.rows:
        assert row["units"] == 30
        assert row["units"] == row["used"] + row["n_boundary"]
    assert report.rows[1]["rmse_1"] < report.rows[0]["rmse_1"]
    assert report.rows[1]["rmse_2"] < report.rows[0]["rmse_2"]


def _replication_by_substreams(cfg):
    """The replication study with one generator per replicate, as it ran
    before table draws were evaluated in bulk: the reference for
    ``run_replication_consistency``."""
    n = cfg.sizes[0]
    dist = build_distribution(cfg.spec, cfg.theta_star, n)
    rows = []
    for cell_index, count in enumerate(cfg.replicates):
        results = []
        for study in range(cfg.studies_per_cell):
            graphs = tuple(
                exact_sample(dist, substream(cfg.master_seed, "replication", cell_index, study, r))
                for r in range(count)
            )
            results.append(mle(cfg.spec, Replicates(graphs), LikelihoodKind.PROPER))
        row = {"cell": f"R={count}", "n": n, "R": count}
        row.update(_summarize_estimates(results, cfg.theta_star))
        rows.append(row)
    columns = ["cell", "n", "R", "units", "used", "n_boundary"] + _estimate_columns(
        cfg.spec.stat_dim
    )
    return ExperimentReport("replication", tuple(columns), tuple(rows), {}).csv_body()


@pytest.fixture
def node_zero_probe():
    """A label-dependent family: the degree of node 0 and the parity of the
    edge count."""
    register_family(Family(
        name="NodeZeroProbe", stat_dim=2, offset_edges=False,
        stats=lambda g: (float(degree_sequence(g)[0]), float(edge_count(g) % 2)),
    ))
    yield model_spec("NodeZeroProbe")
    unregister_family("NodeZeroProbe")


@pytest.mark.parametrize("seed", [0, 7, (1 << 63) + 17, (1 << 64) - 1])
@pytest.mark.parametrize(
    "family, theta",
    [
        ("EdgeTriangle", (-0.5, 0.3)),
        ("edge_triangle_over_50", (-25.0, 15.0)),
        ("node_zero_probe", (0.2, -0.4)),
    ],
    ids=["EdgeTriangle", "over50", "NodeZeroProbe"],
)
def test_replication_bulk_draws_match_one_stream_per_replicate(request, family, theta, seed):
    """Byte-identical report bodies from the bulk draws and from the
    per-replicate loop, for integer, float and label-dependent tables."""
    spec = model_spec(family) if family == "EdgeTriangle" else request.getfixturevalue(family)
    cfg = ExperimentConfig(
        experiment="replication",
        spec=spec,
        theta_star=ParamVector(theta=theta),
        sizes=(5,),
        replicates=(1, 4, 12),
        master_seed=seed,
        studies_per_cell=4,
    )
    assert run_replication_consistency(cfg).csv_body() == _replication_by_substreams(cfg)


def test_a_label_dependent_family_is_refused_the_prefix_embedding(node_zero_probe):
    """The proper likelihood places an observed subgraph at the population's
    first nodes, which stands for every placement only when relabelling the
    nodes leaves the statistics unchanged.  NodeZeroProbe's degree of node 0
    does not, so every proper path refuses it; its full-graph fits and
    replication study, which embed nothing, still run."""
    theta = ParamVector(theta=(0.2, -0.4))
    y_sub = graph_from_index(3, 1)
    refused = [
        lambda: completion_log_likelihood(node_zero_probe, theta, y_sub, 5),
        lambda: log_likelihood(node_zero_probe, theta, InducedSubgraph(y_sub, 5)),
        lambda: mle(node_zero_probe, InducedSubgraph(y_sub, 5)),
        lambda: run_subsample_bias(ExperimentConfig(
            experiment="subsample", spec=node_zero_probe, theta_star=theta, sizes=(5,),
            replicates=3, master_seed=1, subsample_n=3)),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="'NodeZeroProbe' is not exchangeable"):
            call()
    g = graph_from_index(5, 300)
    assert math.isfinite(log_likelihood(node_zero_probe, theta, FullGraph(g)))
    assert math.isfinite(log_likelihood(node_zero_probe, theta, InducedSubgraph(y_sub, 5),
                                        LikelihoodKind.MISSPECIFIED))
    for data in (FullGraph(g), Replicates((g, graph_from_index(5, 7)))):
        mle(node_zero_probe, data)
    mle(node_zero_probe, InducedSubgraph(y_sub, 5), LikelihoodKind.MISSPECIFIED)
    run_replication_consistency(ExperimentConfig(
        experiment="replication", spec=node_zero_probe, theta_star=theta, sizes=(5,),
        replicates=(2,), master_seed=1, studies_per_cell=2))


@pytest.mark.parametrize("chunk", [5, 13])
def test_replication_bulk_draws_match_across_small_chunks(monkeypatch, chunk):
    """Studies whose replicates span several draw chunks, and chunks that
    end inside a study or a cell, give the per-replicate loop's bytes."""
    monkeypatch.setattr(exact, "_DRAW_CHUNK", chunk)
    cfg = ExperimentConfig(
        experiment="replication",
        spec=model_spec("EdgeTriangle"),
        theta_star=ParamVector(theta=(-0.5, 0.3)),
        sizes=(5,),
        replicates=(1, 4, 12, 30),
        master_seed=7,
        studies_per_cell=4,
    )
    assert run_replication_consistency(cfg).csv_body() == _replication_by_substreams(cfg)


def test_replication_study_memory_does_not_grow_with_its_studies():
    """Drawn rows are held only until their study's mean is taken, so ten
    times the studies (30,000 against 300,000 draws) keeps the same peak."""

    def traced_peak(studies):
        cfg = ExperimentConfig(
            experiment="replication",
            spec=model_spec("EdgeTriangle"),
            theta_star=ParamVector(theta=(-0.5, 0.3)),
            sizes=(5,),
            replicates=(3000,),
            master_seed=3,
            studies_per_cell=studies,
        )
        run_replication_consistency(cfg)  # build the tables and fit caches first
        tracemalloc.start()
        try:
            run_replication_consistency(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(100) < 1.5 * traced_peak(10)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 7, 9, 17, 129, 1000])
def test_study_means_sum_in_the_per_study_order(dim, count):
    """The replication study takes the mean statistics of any number of
    studies from one (study, replicate, statistic) array: the same bits as
    each study's own ``rows.mean(axis=0)``, for any number of statistics."""
    rows = np.random.default_rng(count * dim).standard_normal((5, count, dim)) * 37.0
    for k in range(1, len(rows) + 1):
        decoded = [np.frombuffer(event) for event in _mean_events(rows[:k])]
        assert [e[:dim].tobytes() for e in decoded] == [r.mean(axis=0).tobytes() for r in rows[:k]]
        assert all(e[dim:].tobytes() == np.zeros(1).tobytes() for e in decoded)  # log count 0


# --------------------------------------------------------------------------
# subsample study
# --------------------------------------------------------------------------


def test_subsample_report_matches_exact_conditional_analysis():
    """Dual route: the Monte Carlo summary must sit inside exact bands derived
    from the enumerated population model — the probability that a subgraph
    admits a finite estimate, and the conditional mean of the per-subgraph
    estimates, are both computable in closed form at this size."""
    theta_star = ParamVector(theta=(0.0, 0.5))
    replicates = 200
    cfg = ExperimentConfig(
        experiment="subsample",
        spec=EDGE_TRI,
        theta_star=theta_star,
        sizes=(5,),
        replicates=replicates,
        master_seed=3,
        subsample_n=4,
    )
    report = run_subsample_bias(cfg)
    assert [row["cell"] for row in report.rows] == ["N=5|proper", "N=5|misspecified"]

    # exact distribution of the observed subgraph (any 4-subset, by exchangeability)
    dist = build_distribution(EDGE_TRI, theta_star, 5)
    marg = marginal_distribution(dist, NodeSubset(5, (0, 1, 2, 3)))
    weights, values = [], []
    for k in range(64):
        res = mle(EDGE_TRI, InducedSubgraph(graph_from_index(4, k), 5), LikelihoodKind.PROPER)
        if not res.boundary:
            weights.append(marg[k])
            values.append(res.theta_hat)
    finite_p = float(sum(weights))
    weights = np.asarray(weights) / finite_p
    values = np.asarray(values)
    cond_mean = weights @ values
    cond_var = weights @ (values - cond_mean) ** 2

    prop = report.rows[0]
    mis = report.rows[1]
    assert prop["units"] == replicates == prop["used"] + prop["n_boundary"]
    se_fraction = math.sqrt(finite_p * (1 - finite_p) / replicates)
    assert abs(prop["used"] / replicates - finite_p) <= 3.5 * se_fraction
    for k in (1, 2):
        se_mean = math.sqrt(cond_var[k - 1] / prop["used"])
        assert abs(prop[f"mean_estimate_{k}"] - cond_mean[k - 1]) <= 3.5 * se_mean
    # at this size pair the same subgraphs admit finite estimates under both
    # likelihoods, so the counts must agree exactly
    assert mis["used"] == prop["used"]
    assert mis["n_boundary"] == prop["n_boundary"]


@pytest.mark.parametrize("experiment", ["replication", "subsample"])
def test_table_studies_refuse_sizes_beyond_the_cap_before_any_fit(experiment):
    extra = ({"replicates": (2,), "studies_per_cell": 2} if experiment == "replication"
             else {"replicates": 2, "subsample_n": 4})
    cfg = ExperimentConfig(experiment=experiment, spec=EDGE_TRI,
                           theta_star=ParamVector(theta=(-0.5, 0.3)), sizes=(8,),
                           master_seed=1, **extra)
    misses = _event_fit.cache_info().misses
    coded = exact._classes.cache_info().misses
    with pytest.raises(EnumerationCapError):
        run_experiment(cfg)
    assert _event_fit.cache_info().misses == misses
    assert exact._classes.cache_info().misses == coded  # no n=8 table


def _subsample_by_mle(cfg):
    """The subsample study with one ``mle`` call per replicate and kind, on
    the induced subgraph, as it ran before table families fitted events
    built directly: the reference for ``run_subsample_bias``."""
    rows = []
    for cell_index, population_n in enumerate(cfg.sizes):
        dist = build_distribution(cfg.spec, cfg.theta_star, population_n)
        results = {kind: [] for kind in LikelihoodKind}
        for replicate in range(cfg.replicates):
            rng = substream(cfg.master_seed, "subsample", cell_index, replicate)
            g = exact_sample(dist, rng)
            members = rng.choice(population_n, size=cfg.subsample_n, replace=False)
            subset = NodeSubset(population_n, tuple(sorted(int(v) for v in members)))
            data = InducedSubgraph(induced_subgraph(g, subset), population_n)
            for kind, fits in results.items():
                fits.append(mle(cfg.spec, data, kind))
        for kind, fits in results.items():
            row = {"cell": f"N={population_n}|{kind.value}", "n": population_n,
                   "subsample_n": cfg.subsample_n, "kind": kind.value}
            row.update(_summarize_estimates(fits, cfg.theta_star))
            rows.append(row)
    columns = ["cell", "n", "subsample_n", "kind", "units", "used", "n_boundary"]
    columns += _estimate_columns(cfg.spec.stat_dim)
    return ExperimentReport("subsample", tuple(columns), tuple(rows), {}).csv_body()


@pytest.mark.parametrize("seed", [0, 7, (1 << 63) + 17, (1 << 64) - 1])
@pytest.mark.parametrize(
    "family, theta",
    [("EdgeTriangle", (-0.5, 0.3)), ("edge_triangle_over_50", (-25.0, 15.0))],
    ids=["EdgeTriangle", "over50"],
)
def test_subsample_event_fits_match_one_mle_per_replicate(request, family, theta, seed):
    """Byte-identical report bodies from the fits of directly built events
    and from per-replicate ``mle`` calls, for integer and float tables."""
    spec = model_spec(family) if family == "EdgeTriangle" else request.getfixturevalue(family)
    cfg = ExperimentConfig(
        experiment="subsample",
        spec=spec,
        theta_star=ParamVector(theta=theta),
        sizes=(5, 6),
        replicates=8,
        master_seed=seed,
        subsample_n=4,
    )
    assert run_subsample_bias(cfg).csv_body() == _subsample_by_mle(cfg)


def _subsample_cell_by_subgraphs(dist, subsample_n, streams, count):
    """A table family's subsample cell as it ran on per-replicate graphs: an
    ``InducedSubgraph`` per replicate, and the ``(theta_hat, boundary)`` of
    ``mle`` of each kind on it; the reference for ``_table_subsample``."""
    proper, misspecified = [], []
    for rng in itertools.islice(streams, count):
        g = exact_sample(dist, rng)
        members = rng.choice(dist.n, size=subsample_n, replace=False)
        subset = NodeSubset(dist.n, tuple(sorted(map(int, members))))
        data = InducedSubgraph(induced_subgraph(g, subset), dist.n)
        for kind, estimates in ((LikelihoodKind.PROPER, proper),
                                (LikelihoodKind.MISSPECIFIED, misspecified)):
            r = mle(dist.spec, data, kind)
            estimates.append((r.theta_hat, r.boundary))
    return proper, misspecified


@st.composite
def _subsample_cells(draw):
    population_n = draw(st.integers(2, 7), label="population_n")
    subsample_n = draw(st.integers(1, population_n - 1), label="subsample_n")
    count = draw(st.sampled_from([0, 1, 255, 256, 257]), label="count")
    theta = draw(st.tuples(st.floats(-1.5, 0.5), st.floats(-0.5, 0.5)), label="theta")
    return population_n, subsample_n, count, theta, draw(st.integers(0, 2**64 - 1), label="seed")


@settings(max_examples=25, deadline=None)
@given(cell=_subsample_cells())
@example(cell=(7, 6, 257, (-0.5, 0.3), 11))
@example(cell=(2, 1, 256, (0.0, 0.0), 0))
def test_table_subsample_cell_has_the_bits_of_per_replicate_subgraphs(cell):
    """The index-based cell gives each replicate the estimates, in order, of
    ``mle`` on its own ``InducedSubgraph``, with each stream drawing
    the graph before the node subset, across batches of ``_EVENT_FITS``."""
    population_n, subsample_n, count, theta, seed = cell
    dist = build_distribution(EDGE_TRI, ParamVector(theta=theta), population_n)

    def streams():
        return _streams(seed, ("subsample", 0), (count,))

    got = _table_subsample(dist, subsample_n, streams(), count)
    want = _subsample_cell_by_subgraphs(dist, subsample_n, streams(), count)
    assert [len(estimates) for estimates in got] == [count, count]
    got = tuple([(fit.theta_hat, fit.boundary) for fit in fits] for fits in got)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("replicates, batches", [(200, 1), (300, 2)])
def test_subsample_cell_fits_each_kind_in_one_batch(monkeypatch, replicates, batches):
    """From a cold fit cache a cell fits each kind's distinct events in one
    ``_fit_events`` call per batch of at most ``_EVENT_FITS`` replicates,
    with the bytes of one ``mle`` call per replicate."""
    from projgraph import inference

    calls = []
    fit_events = inference._fit_events
    monkeypatch.setattr(inference, "_fit_events",
                        lambda *args: calls.append(len(args[2])) or fit_events(*args))
    cfg = ExperimentConfig(experiment="subsample", spec=EDGE_TRI,
                           theta_star=ParamVector(theta=(-0.5, 0.3)), sizes=(6,),
                           replicates=replicates, master_seed=12, subsample_n=4)
    _event_fit.cache_clear()
    body = run_subsample_bias(cfg).csv_body()
    assert len(calls) <= 2 * batches
    assert sum(calls) == _event_fit.cache_info().misses
    if batches == 1:
        assert len(calls) == 2
    assert body == _subsample_by_mle(cfg)


def test_subsample_closed_form_families_never_hit_the_boundary_gap():
    cfg = ExperimentConfig(
        experiment="subsample",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(30,),
        replicates=25,
        master_seed=6,
        subsample_n=12,
    )
    report = run_subsample_bias(cfg)
    prop, mis = report.rows
    assert prop["kind"] == "proper" and mis["kind"] == "misspecified"
    # identical subgraph, identical logit: the two estimates differ by the
    # deterministic shift log(n_sub / N) replicate by replicate, so the mean
    # estimates differ by exactly that shift over the common finite set
    shift = math.log(12 / 30)
    assert mis["mean_estimate"] - prop["mean_estimate"] == pytest.approx(shift, abs=1e-12)
    assert mis["used"] == prop["used"]


# --------------------------------------------------------------------------
# threshold study
# --------------------------------------------------------------------------


def test_threshold_clamps_the_edge_probability():
    cfg = ExperimentConfig(
        experiment="threshold",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(3,),
        replicates=25,
        master_seed=2,
        multipliers=(10.0,),
    )
    report = run_connectivity_threshold(cfg)
    row = report.rows[0]
    # 10 * log(3) / 3 > 1, so the probability clamps to 1 and every draw is K3
    assert row["pi"] == 1.0
    assert row["prop_connected"] == 1.0
    assert row["cell"] == "n=3,c=10.0"
    assert row["units"] == 25


def test_threshold_connectivity_increases_with_the_multiplier():
    cfg = ExperimentConfig(
        experiment="threshold",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(60,),
        replicates=60,
        master_seed=4,
        multipliers=(0.5, 2.0),
    )
    report = run_connectivity_threshold(cfg)
    assert report.rows[0]["prop_connected"] < report.rows[1]["prop_connected"]
    for row in report.rows:
        assert row["pi"] == pytest.approx(row["multiplier"] * math.log(60) / 60, abs=1e-15)


def test_threshold_cell_label_is_csv_quoted():
    cfg = ExperimentConfig(
        experiment="threshold",
        spec=OFFSET,
        theta_star=ParamVector(theta=(1.0,)),
        sizes=(3,),
        replicates=5,
        master_seed=2,
        multipliers=(0.5,),
    )
    body = run_connectivity_threshold(cfg).csv_body()
    lines = body.splitlines()
    assert lines[0] == "cell,n,multiplier,pi,units,prop_connected"
    assert lines[1].startswith('"n=3,c=0.5",3,0.5,')


# --------------------------------------------------------------------------
# determinism and metadata
# --------------------------------------------------------------------------


def test_reports_are_thread_count_invariant():
    configs = [
        _growth_cfg(),
        ExperimentConfig(
            experiment="replication",
            spec=INVARIANT,
            theta_star=ParamVector(theta=(0.0,)),
            sizes=(8,),
            replicates=(3, 6),
            master_seed=1,
            studies_per_cell=6,
        ),
        ExperimentConfig(
            experiment="subsample",
            spec=EDGE_TRI,
            theta_star=ParamVector(theta=(0.0, 0.5)),
            sizes=(5,),
            replicates=30,
            master_seed=1,
            subsample_n=3,
        ),
        ExperimentConfig(
            experiment="threshold",
            spec=OFFSET,
            theta_star=ParamVector(theta=(1.0,)),
            sizes=(40,),
            replicates=20,
            master_seed=1,
            multipliers=(0.5, 1.0),
        ),
    ]
    for cfg in configs:
        serial = run_experiment(cfg, threads=1).csv_body()
        parallel = run_experiment(cfg, threads=4).csv_body()
        assert serial == parallel, f"{cfg.experiment} body changed with thread count"


def test_replicates_run_serially_for_any_thread_count(monkeypatch):
    """A worker pool made 2 threads slower than 1 in the benchmark; bring one
    back only with benchmark evidence that it pays."""
    expected = run_experiment(_growth_cfg(), threads=1).csv_body()

    def refuse(self):
        raise AssertionError("an experiment started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_experiment(_growth_cfg(), threads=8).csv_body() == expected


@pytest.mark.parametrize("cfg, design", [
    (_growth_cfg(), "whole graphs (no node sampling)"),
    (_growth_cfg(experiment="replication", spec=INVARIANT, sizes=(6,), replicates=(2, 3),
                 studies_per_cell=2), "replicated whole graphs (no node sampling)"),
    (_growth_cfg(experiment="subsample", spec=INVARIANT, sizes=(20,), replicates=4,
                 subsample_n=5), "uniform-random node subsets (ignorable)"),
    (_growth_cfg(experiment="threshold", multipliers=(1.0,), replicates=4),
     "whole graphs (no node sampling)"),
], ids=["growth", "replication", "subsample", "threshold"])
def test_report_metadata_contents(cfg, design):
    """Only the subsample study observes a node sample; the others observe
    whole graphs."""
    report = run_experiment(cfg)
    meta = report.metadata
    assert set(meta) == {
        "experiment",
        "config",
        "sampling_design",
        "version",
        "runtime_seconds",
    }
    assert meta["experiment"] == cfg.experiment
    assert meta["sampling_design"] == design
    assert meta["version"].startswith("projgraph-v")
    assert ExperimentConfig.from_dict(meta["config"]) == cfg
    parsed = json.loads(report.metadata_json())
    assert parsed == json.loads(json.dumps(meta))
