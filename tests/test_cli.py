"""Command-line interface: subcommands, exit codes, and output formats."""

import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import projgraph
from projgraph import (
    Family,
    ParamVector,
    build_distribution,
    complete_graph,
    degree_sequence,
    edge_count,
    empty_graph,
    exact_sample,
    format_edge_list,
    graph_from_edges,
    graph_from_index,
    misspecified_log_likelihood,
    model_spec,
    parse_edge_list,
    proper_log_likelihood,
    register_family,
    substream,
    unregister_family,
)
from projgraph.cli import _build_parser, main

OFFSET = model_spec("BernoulliOffset")


def _write_graph(tmp_path, g, name="graph.edgelist"):
    path = tmp_path / name
    path.write_text(format_edge_list(g), encoding="utf-8")
    return str(path)


def _triangle_with_tail():
    return graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------


def test_sample_writes_a_parsable_edge_list(capsys):
    code = main(["sample", "--family", "bernoulli-invariant", "--theta", "0.0", "--n", "7", "--seed", "3"])
    assert code == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.n == 7


def test_sample_is_seed_deterministic(capsys):
    argv = ["sample", "--family", "bernoulli-invariant", "--theta", "0.0", "--n", "7", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    main(["sample", "--family", "bernoulli-invariant", "--theta", "0.0", "--n", "7", "--seed", "4"])
    other_seed = capsys.readouterr().out
    assert other_seed != first


def test_sample_count_writes_indexed_files(tmp_path, capsys):
    out = tmp_path / "draws"
    code = main(
        ["sample", "--family", "edge-triangle", "--theta", "0.0,0.5", "--n", "5",
         "--count", "3", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["sample_0000.edgelist", "sample_0001.edgelist", "sample_0002.edgelist"]
    graphs = [parse_edge_list((out / n).read_text()) for n in names]
    assert all(g.n == 5 for g in graphs)


@pytest.mark.parametrize("count", [1, 50])
def test_table_sample_files_match_one_stream_per_draw(tmp_path, count):
    """Table draws are evaluated in bulk; each file must still be byte for
    byte the graph that draw k's own stream (seed, "sample", k) gives."""
    out = tmp_path / "draws"
    argv = ["sample", "--family", "edge-triangle", "--theta=-0.5,0.3", "--n", "5",
            "--count", str(count), "--seed", "12", "--out", str(out)]
    assert main(argv) == 0
    dist = build_distribution(model_spec("EdgeTriangle"), ParamVector(theta=(-0.5, 0.3)), 5)
    files = sorted(out.iterdir())
    assert len(files) == count
    for k, path in enumerate(files):
        assert path.name == f"sample_{k:04d}.edgelist"
        expected = format_edge_list(exact_sample(dist, substream(12, "sample", k)))
        assert path.read_bytes() == expected.encode("utf-8")


def test_sample_draws_are_indexed_by_replicate_not_order(tmp_path):
    """Draw index k gets stream (seed, "sample", k), so a longer run's prefix
    must coincide with a shorter run file by file."""
    short = tmp_path / "short"
    long = tmp_path / "long"
    base = ["sample", "--family", "bernoulli-invariant", "--theta", "0.3", "--n", "6", "--seed", "5"]
    assert main(base + ["--count", "2", "--out", str(short)]) == 0
    assert main(base + ["--count", "4", "--out", str(long)]) == 0
    for k in range(2):
        name = f"sample_{k:04d}.edgelist"
        assert (short / name).read_text() == (long / name).read_text()


def test_sample_input_validation(capsys):
    code = main(["sample", "--family", "bernoulli-invariant", "--theta", "0.0", "--n", "5", "--count", "2"])
    assert code == 2
    assert "error: --out is required when --count > 1" in capsys.readouterr().err
    code = main(["sample", "--family", "bernoulli-invariant", "--theta", "abc", "--n", "5"])
    assert code == 2
    assert "--theta must be comma-separated numbers" in capsys.readouterr().err
    code = main(["sample", "--family", "edge-triangle", "--theta", "0.0", "--n", "5"])
    assert code == 2
    assert "--theta must have 2 component(s) for family EdgeTriangle" in capsys.readouterr().err
    code = main(["sample", "--family", "bernoulli-invariant", "--theta", "0.0", "--n", "0"])
    assert code == 2
    assert "--n must be >= 1" in capsys.readouterr().err
    code = main(["sample", "--family", "nonesuch", "--theta", "0.0", "--n", "5"])
    assert code == 2
    assert "unknown family" in capsys.readouterr().err


@pytest.mark.parametrize("family, theta", [("bernoulli-invariant", "0.0"),
                                           ("edge-triangle", "0.0,0.5")])
@pytest.mark.parametrize("count", ["0", str(2**32), str(2**64)])
def test_sample_refuses_counts_outside_one_stream_word(tmp_path, capsys, family, theta, count):
    """Draw k's stream id part k must be one 32-bit word, so --count is
    refused at 2^32 or more (and below 1), before anything is drawn."""
    out = tmp_path / "draws"
    code = main(["sample", "--family", family, f"--theta={theta}", "--n", "5",
                 "--count", count, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: --count must lie in [1, 2**32)\n"
    assert not out.exists()


def test_sample_enumeration_cap_exit_code(capsys):
    code = main(["sample", "--family", "edge-triangle", "--theta", "0.0,0.5", "--n", "12"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: n=12 exceeds the enumeration cap 7" in err
    assert "override up to 8 is possible but costly" in err


@pytest.mark.parametrize("family, theta", [("bernoulli-offset", "0.0"),
                                          ("edge-triangle", "0.0,0.5")])
@pytest.mark.parametrize("command", ["sample", "loglik", "mle", "check-projectivity"])
@pytest.mark.parametrize("cap", ["0", "99"])
def test_enum_cap_outside_its_range_is_refused_for_every_family(
    tmp_path, capsys, family, theta, command, cap
):
    """The cap is checked once for every subcommand that takes it, before
    any output, whether or not the family enumerates."""
    path = _write_graph(tmp_path, graph_from_edges(4, [(0, 1)]))
    argv = {
        "sample": ["--theta", theta, "--n", "4"],
        "loglik": ["--theta", theta, path],
        "mle": [path],
        "check-projectivity": ["--n", "4", "--n-sub", "3"],
    }[command]
    code = main([command, "--family", family, "--enum-cap", cap, *argv])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: enumeration cap must lie in [1, 8], got {cap}"]


# --------------------------------------------------------------------------
# stats
# --------------------------------------------------------------------------


def test_stats_reports_counts(tmp_path, capsys):
    path_a = _write_graph(tmp_path, _triangle_with_tail(), "a.edgelist")
    path_b = _write_graph(tmp_path, graph_from_edges(4, [(0, 1)]), "b.edgelist")
    code = main(["stats", path_a, path_b])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "file,n,edges,triangles,mean_degree,connected"
    assert lines[1] == f"{path_a},5,5,1,2.0,true"
    assert lines[2] == f"{path_b},4,1,0,0.5,false"


def test_stats_missing_file_is_an_io_error(tmp_path, capsys):
    code = main(["stats", str(tmp_path / "absent.edgelist")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_stats_malformed_file_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.edgelist"
    bad.write_text("3\n0 0\n", encoding="utf-8")
    assert main(["stats", str(bad)]) == 2


def test_stats_out_flag_writes_a_file(tmp_path):
    path = _write_graph(tmp_path, complete_graph(3))
    out = tmp_path / "stats.csv"
    assert main(["stats", path, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == f"{path},3,3,1,2.0,true"


# --------------------------------------------------------------------------
# loglik
# --------------------------------------------------------------------------


def test_loglik_full_graph(tmp_path, capsys):
    path = _write_graph(tmp_path, graph_from_edges(4, [(0, 1), (2, 3)]))
    code = main(["loglik", "--family", "bernoulli-invariant", "--theta", "0.0", path])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "file,kind,log_lik"
    fields = lines[1].split(",")
    assert fields[0] == path and fields[1] == "proper"
    assert float(fields[2]) == pytest.approx(6 * math.log(0.5), abs=1e-12)


def test_loglik_subgraph_kinds(tmp_path, capsys):
    g = graph_from_edges(3, [(0, 1)])
    path = _write_graph(tmp_path, g)
    theta = ParamVector(theta=(1.0,))
    code = main(
        ["loglik", "--family", "bernoulli-offset", "--theta", "1.0",
         "--population-n", "30", path]
    )
    assert code == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert value == pytest.approx(proper_log_likelihood(OFFSET, theta, g, 30), abs=1e-12)
    code = main(
        ["loglik", "--family", "bernoulli-offset", "--theta", "1.0",
         "--kind", "misspecified", "--population-n", "30", path]
    )
    assert code == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert value == pytest.approx(misspecified_log_likelihood(OFFSET, theta, g), abs=1e-12)


def test_loglik_misspecified_requires_population(tmp_path, capsys):
    path = _write_graph(tmp_path, graph_from_edges(3, [(0, 1)]))
    code = main(
        ["loglik", "--family", "bernoulli-offset", "--theta", "1.0",
         "--kind", "misspecified", path]
    )
    assert code == 2
    assert "--population-n is required with --kind misspecified" in capsys.readouterr().err


# --------------------------------------------------------------------------
# mle
# --------------------------------------------------------------------------


def test_mle_full_graph_logit(tmp_path, capsys):
    path = _write_graph(tmp_path, graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    code = main(["mle", "--family", "bernoulli-invariant", path])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family,kind,theta_hat_1,std_err_1,log_lik,converged,boundary,iterations"
    fields = lines[1].split(",")
    assert fields[0] == "BernoulliInvariant"
    assert float(fields[2]) == 0.0
    assert fields[5:] == ["true", "false", "0"]


@pytest.mark.parametrize("family", ["bernoulli-invariant", "bernoulli-offset"])
@pytest.mark.parametrize("n, extra, theta_hat", [
    (4, [], "-inf"),
    # One node observes no dyad, so the boundary has no direction.
    (1, [], "nan"),
    (1, ["--population-n", "4"], "nan"),
    (1, ["--population-n", "4", "--kind", "misspecified"], "nan"),
])
def test_mle_boundary_graph_still_exits_zero(tmp_path, capsys, family, n, extra, theta_hat):
    path = _write_graph(tmp_path, empty_graph(n))
    code = main(["mle", "--family", family, *extra, path])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[2] == theta_hat
    assert fields[3] == ""
    assert fields[6] == "true"  # boundary


def test_mle_kind_shift_between_proper_and_misspecified(tmp_path, capsys):
    path = _write_graph(tmp_path, graph_from_edges(5, [(0, 1), (1, 2), (2, 3)]))
    base = ["mle", "--family", "bernoulli-offset", "--population-n", "40", path]
    main(base)
    proper_hat = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    main(base + ["--kind", "misspecified"])
    mis_hat = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert mis_hat - proper_hat == pytest.approx(math.log(5 / 40), abs=1e-12)


def test_mle_enumeration_cap(tmp_path, capsys):
    path = _write_graph(tmp_path, graph_from_edges(5, [(0, 1), (1, 2), (0, 2)]))
    code = main(
        ["mle", "--family", "edge-triangle", "--population-n", "12", path]
    )
    assert code == 3


@pytest.mark.parametrize("command", ["loglik", "mle"])
@pytest.mark.parametrize("population", [["--population-n", "6"], []])
def test_a_costly_enumeration_warns_once_per_command(tmp_path, monkeypatch, command,
                                                     population):
    """The cap is checked where a public call enters, so one command above
    the default cap gives one cost warning, counted under "always"."""
    monkeypatch.setattr(projgraph.exact, "DEFAULT_ENUMERATION_CAP", 4)
    n = 4 if population else 6
    path = _write_graph(tmp_path, graph_from_edges(n, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    theta = ["--theta=0.1,0.2"] if command == "loglik" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--family", "edge-triangle", *theta, *population,
                     "--enum-cap", "6", path])
    assert code == 0
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "all 2^15 graphs on 6 nodes" in str(caught[0].message)


# --------------------------------------------------------------------------
# check-projectivity
# --------------------------------------------------------------------------


def test_check_projectivity_offset(capsys):
    code = main(
        ["check-projectivity", "--family", "bernoulli-offset", "--n", "4",
         "--n-sub", "3", "--theta-grid", "0"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta_1,tv,param_equal"
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(0.090125, abs=1e-10)
    assert fields[2] == "false"
    assert lines[2] == "max_tv,verdict"
    assert lines[3].split(",")[1] == "non-projective"


def test_check_projectivity_default_grid(capsys):
    code = main(
        ["check-projectivity", "--family", "bernoulli-invariant", "--n", "4", "--n-sub", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 5 + 2  # header, five grid rows, footer pair
    assert lines[-1].split(",")[1] == "projective-on-grid"


def test_check_projectivity_validation(capsys):
    code = main(
        ["check-projectivity", "--family", "bernoulli-offset", "--n", "4", "--n-sub", "4"]
    )
    assert code == 2
    assert "--n-sub must satisfy 1 <= n_sub < n" in capsys.readouterr().err
    code = main(
        ["check-projectivity", "--family", "bernoulli-offset", "--n", "4",
         "--n-sub", "3", "--theta-grid", "0,x"]
    )
    assert code == 2
    assert "--theta-grid must be comma-separated numbers" in capsys.readouterr().err
    code = main(
        ["check-projectivity", "--family", "bernoulli-offset", "--n", "4",
         "--n-sub", "3", "--theta-grid="]
    )
    assert code == 2
    assert "--theta-grid must be comma-separated numbers, got ''" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_check_projectivity_refuses_a_meaningless_tolerance(capsys, tolerance):
    code = main(
        ["check-projectivity", "--family", "edge-triangle", "--n", "4", "--n-sub", "3",
         "--theta-grid=0", f"--tolerance={tolerance}"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tolerance must be finite and >= 0" in captured.err


def test_check_projectivity_accepts_a_zero_tolerance(capsys):
    code = main(
        ["check-projectivity", "--family", "edge-triangle", "--n", "4", "--n-sub", "3",
         "--theta-grid=0", "--tolerance", "0"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "theta_1,theta_2,tv,param_equal"


def test_check_projectivity_refuses_a_nan_probability_table(capsys):
    """At theta = 1e308 the energies overflow and the tables sum to NaN,
    which is refused (exit 2, no report) rather than printed as a verdict,
    in one line with no warning before it."""
    code = main(
        ["check-projectivity", "--family", "edge-triangle", "--n", "4", "--n-sub", "3",
         "--theta-grid=1e308"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: first table is not normalized (sum=nan)\n"


@pytest.mark.parametrize("command", [
    ["sample", "--family", "edge-triangle", "--theta=1e308,-1e308", "--n", "4"],
    ["loglik", "--family", "edge-triangle", "--theta=1e308,0", "g.edgelist"],
    ["loglik", "--family", "bernoulli-offset", "--theta=1e308", "g.edgelist"],
    *(["loglik", "--family", "edge-triangle", f"--theta={theta}", "--population-n", "5",
       "g.edgelist"] for theta in ("1e308,0", "1e308,-1e308", "0,1e308")),
], ids=["sample", "loglik-edge-triangle", "loglik-bernoulli",
        *(f"loglik-population-{k}" for k in range(3))])
def test_an_overflowing_theta_is_refused(tmp_path, capsys, monkeypatch, command):
    """An energy that overflows leaves the log normalizer infinite or NaN.
    Sampling then drew K4, which has the most triangles, where the limit puts
    all mass on triangle-free graphs, and the log likelihood printed nan, as
    the proper one did from its own population normalizer."""
    (tmp_path / "g.edgelist").write_text("4\n0 1\n0 2\n1 2\n2 3\n")
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(": the parameters overflow\n")
    assert captured.err.count("\n") == 1


def test_an_overflowing_bernoulli_theta_is_refused_for_either_kind(tmp_path, capsys,
                                                                    monkeypatch):
    """An independent-dyad family refuses an overflowing theta with one
    message for a full graph and for a subgraph of a population, though the
    proper closed form never forms the population normalizer."""
    (tmp_path / "g.edgelist").write_text("3\n0 1\n0 2\n1 2\n")
    monkeypatch.chdir(tmp_path)
    errors = []
    for population in ([], ["--population-n", "5"]):
        assert main(["loglik", "--family", "bernoulli-offset", "--theta=1e308", *population,
                     "g.edgelist"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].endswith(": the parameters overflow\n")


def test_a_label_dependent_family_is_refused_the_proper_likelihood(tmp_path, capsys,
                                                                    monkeypatch):
    """A family whose statistics change when nodes swap labels has no proper
    likelihood of a subgraph placed at the population's first nodes:
    ``loglik`` and ``mle`` exit 2, while the full-graph ``loglik`` runs."""
    register_family(Family(name="NodeZeroProbe", stat_dim=2, offset_edges=False,
                           stats=lambda g: (float(degree_sequence(g)[0]),
                                            float(edge_count(g) % 2))))
    (tmp_path / "g.edgelist").write_text("3\n1 2\n")
    monkeypatch.chdir(tmp_path)
    try:
        for command in (["loglik", "--theta=0.2,-0.4"], ["mle"]):
            assert main([*command, "--family", "node-zero-probe", "--population-n", "5",
                         "g.edgelist"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "family 'NodeZeroProbe' is not exchangeable" in captured.err
        assert main(["loglik", "--family", "node-zero-probe", "--theta=0.2,-0.4",
                     "g.edgelist"]) == 0
    finally:
        unregister_family("NodeZeroProbe")


@pytest.mark.parametrize("population", [[], ["--population-n", "5"]],
                         ids=["full", "population"])
def test_a_theta_that_zeroes_the_observed_graph_prints_minus_inf(
    tmp_path, capsys, monkeypatch, population
):
    """At theta_1 = -1e308 the energy of a graph with edges overflows to
    -inf: the observed graph has probability 0, and its log likelihood is a
    right -inf, printed with nothing on stderr."""
    (tmp_path / "g.edgelist").write_text("4\n0 1\n0 2\n1 2\n2 3\n")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["loglik", "--family", "edge-triangle", "--theta=-1e308,0", *population,
                     "g.edgelist"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "file,kind,log_lik\ng.edgelist,proper,-inf\n"
    assert captured.err == ""


def test_check_projectivity_thread_invariance(capsys):
    base = ["check-projectivity", "--family", "edge-triangle", "--n", "4",
            "--n-sub", "3", "--theta-grid", "-1,1"]
    main(base + ["--threads", "1"])
    serial = capsys.readouterr().out
    main(base + ["--threads", "8"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_check_projectivity_enumeration_cap(capsys):
    from projgraph.exact import _classes

    built = _classes.cache_info().misses
    code = main(["check-projectivity", "--family", "edge-triangle", "--n", "8", "--n-sub", "7"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: n=8 exceeds the enumeration cap 7" in err
    assert "override up to 8 is possible but costly" in err
    assert _classes.cache_info().misses == built  # refused before building


@pytest.mark.parametrize("cap", [[], ["--enum-cap", "8"]], ids=["default-cap", "cap-8"])
def test_exact_sample_above_n7_is_refused_before_any_coding(capsys, cap):
    """Exact sampling at n = 8 is refused with or without --enum-cap 8, with
    one error line and exit code 3, before the statistic table or its
    classes exist: no cap override is suggested, since none would help."""
    from projgraph.exact import _classes

    coded = _classes.cache_info().misses
    code = main(["sample", "--family", "edge-triangle", "--theta", "0,0", "--n", "8", *cap])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: exact sampling is limited to n <= 7, got n=8: "
        "its CDF would hold 2^28 probabilities"
    ]
    assert _classes.cache_info().misses == coded


# --------------------------------------------------------------------------
# experiment
# --------------------------------------------------------------------------


def _growth_config(tmp_path, **overrides):
    payload = {
        "experiment": "growth",
        "spec": "bernoulli-offset",
        "theta_star": [1.0],
        "sizes": [10, 14],
        "replicates": 10,
        "master_seed": 3,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_experiment_stdout(tmp_path, capsys):
    code = main(["experiment", _growth_config(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cell,n,units,used,n_boundary")
    assert len(lines) == 3


def test_experiment_out_writes_csv_and_metadata_sidecar(tmp_path, capsys):
    out = tmp_path / "growth.csv"
    code = main(["experiment", _growth_config(tmp_path), "--out", str(out)])
    assert code == 0
    main(["experiment", _growth_config(tmp_path)])
    stdout_body = capsys.readouterr().out
    assert out.read_text() == stdout_body
    sidecar = tmp_path / "growth.meta.json"
    meta = json.loads(sidecar.read_text())
    assert meta["experiment"] == "growth"
    assert meta["config"]["master_seed"] == 3
    assert meta["version"].startswith("projgraph-v")


def test_experiment_sidecar_name_without_csv_suffix(tmp_path):
    out = tmp_path / "report"
    assert main(["experiment", _growth_config(tmp_path), "--out", str(out)]) == 0
    assert (tmp_path / "report.meta.json").exists()


def test_experiment_thread_invariance(tmp_path, capsys):
    config = _growth_config(tmp_path)
    main(["experiment", config, "--threads", "1"])
    serial = capsys.readouterr().out
    main(["experiment", config, "--threads", "8"])
    parallel = capsys.readouterr().out
    assert serial == parallel


_REPLICATION = {"experiment": "replication", "spec": "bernoulli-invariant",
                "theta_star": [0.0], "sizes": [6], "replicates": [2], "master_seed": 1,
                "studies_per_cell": 2}
_SUBSAMPLE = {"experiment": "subsample", "spec": "bernoulli-invariant",
              "theta_star": [0.0], "sizes": [8], "replicates": 2, "master_seed": 1,
              "subsample_n": 4}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"sizes": [20.7, 40]}, "sizes must be an integer, got 20.7"),
        ({"sizes": [True, 40]}, "sizes must be an integer, got True"),
        ({"sizes": ["20"]}, "sizes must be an integer, got '20'"),
        ({"sizes": 20}, "sizes must be a list of integers, got 20"),
        ({"replicates": 2.9}, "replicates must be an integer, got 2.9"),
        ({**_REPLICATION, "replicates": [2.9]}, "replicates must be an integer, got 2.9"),
        ({**_REPLICATION, "studies_per_cell": 2.5},
         "studies_per_cell must be an integer, got 2.5"),
        ({**_REPLICATION, "studies_per_cell": "3"},
         "studies_per_cell must be an integer, got '3'"),
        ({**_SUBSAMPLE, "subsample_n": 2.5}, "subsample_n must be an integer, got 2.5"),
    ],
)
def test_experiment_refuses_non_integer_counts(tmp_path, capsys, payload, message):
    """Counts are never truncated or coerced: each bad value exits 2 with one
    error line and no traceback."""
    assert main(["experiment", _growth_config(tmp_path, **payload)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


_THRESHOLD = {"experiment": "threshold", "spec": "bernoulli-invariant",
              "theta_star": [0.0], "sizes": [8], "replicates": 2, "master_seed": 1,
              "multipliers": [1.0]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({**_THRESHOLD, "multipliers": 3}, "multipliers must be a list of numbers, got 3"),
        ({**_THRESHOLD, "multipliers": ["1.5", True]},
         "multipliers must be a number, got '1.5'"),
        ({**_THRESHOLD, "multipliers": [1.5, True]}, "multipliers must be a number, got True"),
        ({"theta_star": ["0.5"]}, "theta_star must be a number, got '0.5'"),
        ({"theta_star": [True]}, "theta_star must be a number, got True"),
    ],
)
def test_experiment_refuses_non_numeric_reals(tmp_path, capsys, payload, message):
    """Multipliers and theta_star are never coerced from bools or strings:
    each bad value exits 2 with one error line and no traceback."""
    assert main(["experiment", _growth_config(tmp_path, **payload)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"replicates": 2**32}, "replicates must be below 2**32, got 4294967296"),
        ({**_SUBSAMPLE, "replicates": 2**40}, "replicates must be below 2**32, got 1099511627776"),
        ({**_THRESHOLD, "replicates": 2**32}, "replicates must be below 2**32, got 4294967296"),
        ({**_REPLICATION, "replicates": [2, 2**32]},
         "replicates must be below 2**32, got 4294967296"),
        ({**_REPLICATION, "studies_per_cell": 2**32},
         "studies_per_cell must be below 2**32, got 4294967296"),
    ],
)
def test_experiment_refuses_counts_outside_one_stream_word(tmp_path, capsys, payload, message):
    """Replicate and study indices are stream id parts of one 32-bit word
    each, so a count of 2^32 or more exits 2 naming its key."""
    assert main(["experiment", _growth_config(tmp_path, **payload)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_experiment_accepts_integer_reals(tmp_path, capsys):
    config = _growth_config(tmp_path, **{**_THRESHOLD, "multipliers": [1, 2.5]})
    assert main(["experiment", config]) == 0
    assert main(["experiment", _growth_config(tmp_path, theta_star=[1])]) == 0


def test_experiment_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["experiment", str(path)]) == 2
    assert "invalid JSON in" in capsys.readouterr().err


def test_experiment_unknown_config_key(tmp_path, capsys):
    config = _growth_config(tmp_path, bogus=1)
    assert main(["experiment", config]) == 2
    assert "error: unknown config keys: bogus" in capsys.readouterr().err


def test_experiment_missing_config_file(tmp_path, capsys):
    assert main(["experiment", str(tmp_path / "absent.json")]) == 4


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_threads_flag_validation(tmp_path, capsys):
    config = _growth_config(tmp_path)
    assert main(["experiment", config, "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def test_every_subcommand_help_documents_each_of_its_options(capsys):
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    parsers = commands.choices
    assert list(parsers) == ["sample", "stats", "loglik", "mle", "check-projectivity",
                             "experiment"]
    for name, parser in parsers.items():
        assert main([name, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for action in parser._actions:
            assert action.help, (name, action.option_strings or action.dest)
            assert " ".join(action.help.split()) in text, (name, action.help)


_FILES = ["a.edgelist", "b.edgelist"]


@pytest.mark.parametrize("argv, expected", [
    (["sample", "--family", "f", "--theta", "0", "--n", "3"],
     dict(family="f", theta="0", n=3, count=1, seed=0, out=None, enum_cap=None)),
    (["sample", "--family", "f", "--theta=1,-2", "--n", "5", "--count", "3", "--seed", "9",
      "--out", "d", "--enum-cap", "6"],
     dict(family="f", theta="1,-2", n=5, count=3, seed=9, out="d", enum_cap=6)),
    (["stats", "a.edgelist"], dict(files=["a.edgelist"], out=None)),
    (["stats", *_FILES, "--out", "o.csv"], dict(files=_FILES, out="o.csv")),
    (["loglik", "--family", "f", "--theta", "1", "a.edgelist"],
     dict(family="f", theta="1", kind="proper", population_n=None, files=["a.edgelist"],
          enum_cap=None, out=None)),
    (["loglik", "--family", "f", "--theta", "1,2", "--kind", "misspecified",
      "--population-n", "6", *_FILES, "--enum-cap", "7", "--out", "x"],
     dict(family="f", theta="1,2", kind="misspecified", population_n=6, files=_FILES,
          enum_cap=7, out="x")),
    (["mle", "--family", "f", "a.edgelist"],
     dict(family="f", kind="proper", population_n=None, files=["a.edgelist"], enum_cap=None,
          out=None)),
    (["mle", "--family", "f", "--kind", "misspecified", "--population-n", "6", *_FILES,
      "--enum-cap", "8", "--out", "y"],
     dict(family="f", kind="misspecified", population_n=6, files=_FILES, enum_cap=8,
          out="y")),
    (["check-projectivity", "--family", "f", "--n", "4", "--n-sub", "3"],
     dict(family="f", n=4, n_sub=3, theta_grid=None, tolerance=1e-9, enum_cap=None,
          out=None, threads=None)),
    (["check-projectivity", "--family", "f", "--n", "5", "--n-sub", "2", "--theta-grid=-1,0",
      "--tolerance", "1e-3", "--enum-cap", "5", "--out", "r.csv", "--threads", "2"],
     dict(family="f", n=5, n_sub=2, theta_grid="-1,0", tolerance=1e-3, enum_cap=5,
          out="r.csv", threads=2)),
    (["experiment", "c.json"], dict(config="c.json", out=None, threads=None)),
    (["experiment", "c.json", "--out", "o.csv", "--threads", "3"],
     dict(config="c.json", out="o.csv", threads=3)),
])
def test_each_subcommand_parses_to_its_pinned_namespace(argv, expected):
    """Dests, defaults and types of every option, for a minimal and a full
    command line of each subcommand."""
    parsed = vars(_build_parser().parse_args(argv))
    handler = parsed.pop("handler")
    assert parsed == {"command": argv[0], **expected}
    assert [type(value) for value in parsed.values()] == [
        type(value) for value in {"command": argv[0], **expected}.values()]
    assert handler.__name__ == "_cmd_" + argv[0].replace("-", "_")


# --------------------------------------------------------------------------
# import path
# --------------------------------------------------------------------------


_IMPORT_PATH_SCRIPT = """
import contextlib, io, math, sys

import projgraph.cli
from projgraph import Family, edge_count, register_family, triangle_count

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert projgraph.cli.main(argv) == 0, argv
    return out.getvalue()

run(["mle", "--family", "edge-triangle", "--population-n", "6", sys.argv[1]])
run(["mle", "--family", "edge-triangle", sys.argv[1]])
run(["check-projectivity", "--family", "edge-triangle", "--n", "5", "--n-sub", "4"])
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

def float_stats(g):
    m, t = edge_count(g), triangle_count(g)
    return (m / 3.0, math.sqrt(1.0 + t), 0.1 * m * t - 0.5)

register_family(Family(name="FloatStatsProbe", stat_dim=3, offset_edges=False,
                       stats=float_stats))
fit = run(["mle", "--family", "float-stats-probe", "--population-n", "6", sys.argv[2]])
assert ",true,false," in fit, fit
assert "scipy.spatial" in sys.modules
"""


def test_two_statistic_work_does_not_import_scipy(tmp_path):
    """In a fresh interpreter, the CLI's import, two-statistic fits and the
    projectivity check leave SciPy unloaded.  A three-statistic fit loads
    scipy.spatial for its hull, and a proper one (two disjoint edges on 4
    nodes, in a population of 6) converges."""
    done = _child(["-c", textwrap.dedent(_IMPORT_PATH_SCRIPT),
                   _write_graph(tmp_path, _triangle_with_tail()),
                   _write_graph(tmp_path, graph_from_index(4, 12), "sub.edgelist")])
    assert done.returncode == 0, done.stderr


def _child(args):
    """Run a fresh interpreter on ``args`` with this package's sources on its path."""
    src = str(Path(projgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def _imported_modules(args):
    """The modules a fresh ``python -X importtime <args>`` imports, which must
    exit 0 and print something."""
    done = _child(["-X", "importtime", *args])
    assert done.returncode == 0, done.stderr
    assert done.stdout
    return {line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines() if line.startswith("import time:")}


def test_importing_the_package_leaves_the_study_layer_cli_and_hashlib_unloaded():
    imported = _imported_modules(["-c", "import projgraph; print(projgraph.__version__)"])
    assert "projgraph.exact" in imported
    unloaded = {"projgraph.experiments", "projgraph.cli", "hashlib", "argparse", "scipy"}
    assert not imported & unloaded


@pytest.mark.parametrize("command", ["mle", "check-projectivity"])
def test_fit_and_check_commands_leave_the_study_layer_and_hashlib_unloaded(tmp_path, command):
    argv = {
        "mle": ["mle", "--family", "edge-triangle", _write_graph(tmp_path, _triangle_with_tail())],
        "check-projectivity": ["check-projectivity", "--family", "edge-triangle",
                               "--n", "5", "--n-sub", "4"],
    }[command]
    imported = _imported_modules(["-m", "projgraph", *argv])
    assert "projgraph.cli" in imported
    assert not imported & {"projgraph.experiments", "hashlib"}


_PUBLIC_NAMES_SCRIPT = """
import importlib, sys

import projgraph

names = set(projgraph.__all__)
assert names <= set(dir(projgraph)), sorted(names - set(dir(projgraph)))
assert "projgraph.experiments" not in sys.modules
assert not hasattr(projgraph, "no_such_name")
assert projgraph.experiments is sys.modules["projgraph.experiments"]
star = {}
exec("from projgraph import *", star)
assert set(star) - {"__builtins__"} == names
owners = {"__version__": importlib.import_module("projgraph._version")}
for layer in ("exact", "experiments", "graph", "inference", "models", "rng"):
    module = importlib.import_module("projgraph." + layer)
    owners.update((name, module) for name in module.__all__)
assert set(owners) == names, sorted(names ^ set(owners))
for name, module in owners.items():
    assert star[name] is getattr(projgraph, name) is getattr(module, name), name
assert set(projgraph._STUDY_NAMES) == set(projgraph.experiments.__all__)
print(len(names))
"""


def test_every_public_name_resolves_to_its_submodule_object():
    """In a fresh interpreter: every name in ``__all__`` is listed by
    ``dir`` before the study layer is loaded, ``projgraph.experiments``
    loads and returns that submodule, a star import binds exactly those
    names, and each is the object its submodule defines.  Those names are
    the six layers' ``__all__`` and ``__version__``, and the lazy study
    names are the study layer's ``__all__``."""
    done = _child(["-c", textwrap.dedent(_PUBLIC_NAMES_SCRIPT)])
    assert done.returncode == 0, done.stderr
