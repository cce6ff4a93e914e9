"""CLI outputs pinned byte for byte.

Each case runs one CLI invocation in a fresh directory, with file
arguments relative to it, and compares the SHA-256 of what it wrote with a
recorded digest.  A change that moves any output on purpose (new draws, a
new CSV column) updates that case's digest here, so the diff says which
output moved.  Experiment digests cover the CSV body and the ``config``
echoed into the metadata sidecar; the sidecar's runtime and version are
left out.
"""

import hashlib
import json
from pathlib import Path

import pytest

import projgraph.cli
import projgraph.experiments
import projgraph.rng
from projgraph import ParamVector, format_edge_list, model_spec, sample_bernoulli, substream
from projgraph.cli import main
from projgraph.inference import _event_fit
from projgraph.models import edge_prob

GRAPHS = {
    # n = 7: two graphs with interior fits and the empty graph (boundary).
    "g7a.edgelist": "7\n0 1\n0 2\n1 2\n1 5\n2 3\n3 4\n4 5\n5 6\n",
    "g7b.edgelist": "7\n0 1\n0 3\n0 6\n1 2\n2 3\n3 4\n4 5\n5 6\n",
    "g7c.edgelist": "7\n",
    # n = 5: subgraphs observed from a population of 7.
    "s5a.edgelist": "5\n0 1\n0 2\n1 2\n2 3\n3 4\n",
    "s5b.edgelist": "5\n0 1\n0 4\n1 2\n2 3\n3 4\n",
    "s5c.edgelist": "5\n0 1\n2 3\n",
}
FULL = ["g7a.edgelist", "g7b.edgelist", "g7c.edgelist"]
SUB = ["s5a.edgelist", "s5b.edgelist", "s5c.edgelist"]
THETA = {"bernoulli-invariant": "-0.4", "bernoulli-offset": "0.8",
         "edge-triangle": "-0.5,0.3"}

CONFIGS = {
    "growth-offset-seed0": {
        "experiment": "growth", "spec": "bernoulli-offset", "theta_star": [1.0],
        "sizes": [10, 20], "replicates": 5, "master_seed": 0},
    "replication-edge-triangle-seed3": {
        "experiment": "replication", "spec": {"family": "edge-triangle"},
        "theta_star": [-0.5, 0.3], "sizes": [5], "replicates": [1, 4],
        "master_seed": 3, "studies_per_cell": 10},
    # 30 * (7 + 150) = 4710 table draws: a 4096-draw chunk ends inside a cell.
    "replication-edge-triangle-chunked": {
        "experiment": "replication", "spec": "EdgeTriangle",
        "theta_star": [-0.5, 0.3], "sizes": [5], "replicates": [7, 150],
        "master_seed": 11, "studies_per_cell": 30},
    # 1,000 studies at n=4 with 331 distinct mean events, more than the fit
    # cache holds, and 323 of the studies boundary.
    "replication-edge-triangle-n4-evicting": {
        "experiment": "replication", "spec": "EdgeTriangle",
        "theta_star": [-0.5, 0.3], "sizes": [4], "replicates": [1, 2, 5, 20, 60],
        "master_seed": 5, "studies_per_cell": 200},
    "replication-offset-seedmax": {
        "experiment": "replication", "spec": "BernoulliOffset", "theta_star": [0.5],
        "sizes": [8], "replicates": [2, 5], "master_seed": 2**64 - 1,
        "studies_per_cell": 5},
    "subsample-edge-triangle-seed7": {
        "experiment": "subsample", "spec": "EdgeTriangle", "theta_star": [-0.5, 0.3],
        "sizes": [6], "replicates": 8, "master_seed": 7, "subsample_n": 4},
    "subsample-invariant-seedmax": {
        "experiment": "subsample", "spec": "bernoulli-invariant", "theta_star": [-0.3],
        "sizes": [12, 16], "replicates": 5, "master_seed": 2**64 - 1, "subsample_n": 6},
    "threshold-invariant-seed0": {
        "experiment": "threshold", "spec": "bernoulli-invariant", "theta_star": [0.0],
        "sizes": [20, 40], "replicates": 10, "master_seed": 0,
        "multipliers": [0.5, 1.5]},
}


def _cases():
    cases = {}
    for n, n_sub in ((7, 6), (7, 5), (5, 3)):
        cases[f"check-projectivity-edge-triangle-{n}-{n_sub}"] = [
            "check-projectivity", "--family", "edge-triangle", "--n", str(n),
            "--n-sub", str(n_sub)]
    cases["check-projectivity-offset-5-3"] = [
        "check-projectivity", "--family", "bernoulli-offset", "--n", "5", "--n-sub", "3",
        "--theta-grid=-1,0,1.5"]
    cases["mle-full-edge-triangle-7"] = ["mle", "--family", "edge-triangle", *FULL]
    for family, theta in THETA.items():
        for kind in ("proper", "misspecified"):
            cases[f"mle-{kind}-{family}-7-5"] = [
                "mle", "--family", family, "--kind", kind, "--population-n", "7", *SUB]
            cases[f"loglik-{kind}-{family}-7-5"] = [
                "loglik", "--family", family, f"--theta={theta}", "--kind", kind,
                "--population-n", "7", *SUB]
    for name in CONFIGS:
        cases[f"experiment-{name}"] = ["experiment", f"{name}.json"]
    cases["sample-edge-triangle-6-count40"] = [
        "sample", "--family", "edge-triangle", "--theta=-0.5,0.3", "--n", "6",
        "--count", "40", "--seed", "5"]
    cases["sample-edge-triangle-7-count40"] = [
        "sample", "--family", "edge-triangle", "--theta=-0.5,0.3", "--n", "7",
        "--count", "40", "--seed", "5"]
    cases["sample-invariant-9-count40"] = [
        "sample", "--family", "bernoulli-invariant", "--theta=-0.2", "--n", "9",
        "--count", "40", "--seed", str(2**64 - 1)]
    return cases


CASES = _cases()

DIGESTS = {
    "check-projectivity-edge-triangle-5-3":
        "819b4c9888ee601a6b62a247ed080cdc3e923aef64c3b6174079457b2a58a670",
    "check-projectivity-edge-triangle-7-5":
        "e022e06f6952e59784e87c57194897ba64744ce99dc679b38c4015e6cc202775",
    "check-projectivity-edge-triangle-7-6":
        "31e14ea02561b1ba63b621c986f6581e0f105ae2db71b5fde1a2e4ad4aa44b08",
    "check-projectivity-offset-5-3":
        "f7d0a88db7f72c57c3aeb2dcad10626530ed5feb4c517a53078c69f128144b94",
    "experiment-growth-offset-seed0":
        "33c20164f174459c7d5789acf49412eddf585932e6971ff60a8b3942332d4b66",
    "experiment-replication-edge-triangle-seed3":
        "e63de73a881543486d1431a5b5e3a08d2da6b5b2086d7803f1c8c1915df1875f",
    "experiment-replication-edge-triangle-chunked":
        "380602e309b62e23588c8c7a044367dd76a0537533f8666bd60a3503fc478e72",
    "experiment-replication-edge-triangle-n4-evicting":
        "a94553b676ed82a4c33627b40a0f632ec788439297d6f43ed7f31e11b4b26452",
    "experiment-replication-offset-seedmax":
        "f9a80e6c00dc6437d4d49021751f0716fffbeb630649845e57c5034825bd5a80",
    "experiment-subsample-edge-triangle-seed7":
        "d6b4712729002af56b3394a52007a3821f93dfb7d11a284dbfe6ce3a60a8c19b",
    "experiment-subsample-invariant-seedmax":
        "b1644491295994f240ac5dffbeb3fbd17e0978ddadcd24e50ad3dbc977954578",
    "experiment-threshold-invariant-seed0":
        "831ed5f30a0a2d0c43305ee085a5947d1b565de5c7a5ddb7564333e5531734b1",
    "loglik-misspecified-bernoulli-invariant-7-5":
        "77b1e5362e0eb39133dc3651f7a943a9f03ddfd4946262fd51af989081794421",
    "loglik-misspecified-bernoulli-offset-7-5":
        "895590aec79a220a5ce0f6448751f1d2a1a60b1e87a2b4db8098db05dc0dfbe1",
    "loglik-misspecified-edge-triangle-7-5":
        "c448a194e9b8edaf364557f5e9a697bc0cead28ee82564471c98f6753005dade",
    "loglik-proper-bernoulli-invariant-7-5":
        "e272cbbc0951fb41173e7ec7256b7e3ee9a6a0b3b05ba97c312c123015e97494",
    "loglik-proper-bernoulli-offset-7-5":
        "bb857854d72a94a810c2ebcdbd13edd5727c3ad68238a0a87d79514afe464068",
    "loglik-proper-edge-triangle-7-5":
        "ad7ec9d42591e8625ce5b7cbba37c6735f39e5f8dee46489b2a9beaccaec1f56",
    "mle-full-edge-triangle-7":
        "dfe6dcf5f9a3677f207d64d16f2dce1e59ad67848b140f5f6083e304bc14ca2c",
    "mle-misspecified-bernoulli-invariant-7-5":
        "315d723bbd5b4bb5915c7a69acae682f6658b6353f3cb1bc6f3b7b93ac3b3526",
    "mle-misspecified-bernoulli-offset-7-5":
        "a89a8eeb4cc89d0f7577497ffc3394fd0826c1ccd0e64f22ef368d9ea787bd63",
    "mle-misspecified-edge-triangle-7-5":
        "d96826df3ac772f4dced57e581088584b7288a78482943d4ce2fd7723041a126",
    "mle-proper-bernoulli-invariant-7-5":
        "529a08de9d5de5eef9b80759516722b760482502c7134f9d935d73df2ca51d10",
    "mle-proper-bernoulli-offset-7-5":
        "238391e7076dfeddba46caaed9075b9ea1daa34cc062ae5a6bb50774d4b48894",
    "mle-proper-edge-triangle-7-5":
        "1e5b218c2897ca9636bd9a45af44ab0eef9d15cc97e703a78990527d464f605f",
    "sample-edge-triangle-6-count40":
        "38e3b12b129966e00ed1d9653ce77bbcac516e66fa529437edfd633a29136b2b",
    "sample-edge-triangle-7-count40":
        "428279a67946e9fd3927c54559df76ae5d11d997a634d04c38d312f63e4735c7",
    "sample-invariant-9-count40":
        "60c6152906b0976dbd33bc81c7fcf9cbdd98388e725f13d0113dcd090f711cb1",
}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    if out.is_dir():
        for path in sorted(out.iterdir()):
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    else:
        h.update(out.read_bytes())
        sidecar = out.with_suffix(".meta.json")
        if sidecar.exists():
            config = json.loads(sidecar.read_text(encoding="utf-8"))["config"]
            h.update(b"\0" + json.dumps(config, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _run(name: str, workdir: Path) -> str:
    for file_name, text in GRAPHS.items():
        (workdir / file_name).write_text(text, encoding="utf-8")
    for config_name, payload in CONFIGS.items():
        (workdir / f"{config_name}.json").write_text(json.dumps(payload), encoding="utf-8")
    out = Path("draws" if CASES[name][0] == "sample" else "out.csv")
    assert main([*CASES[name], "--out", str(out)]) == 0
    return _digest(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize(
    "name",
    ["experiment-subsample-edge-triangle-seed7", "experiment-replication-edge-triangle-seed3"],
)
def test_experiment_digest_holds_on_a_warm_fit_cache(name, tmp_path, monkeypatch):
    """Run twice in one process, from an empty fit cache: the second run
    takes every fit of a repeated event from the cache, with the same bytes."""
    monkeypatch.chdir(tmp_path)
    _event_fit.cache_clear()
    assert _run(name, tmp_path) == DIGESTS[name]
    misses = _event_fit.cache_info().misses
    assert _run(name, tmp_path) == DIGESTS[name]
    assert _event_fit.cache_info().misses == misses


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


def _record_substream(monkeypatch):
    """Record the parts of every stream built by ``substream``, wherever a
    study or `sample` could call it from."""
    built = []

    def record(master_seed, *parts):
        built.append(parts)
        return substream(master_seed, *parts)

    for module in (projgraph.rng, projgraph.experiments, projgraph.cli):
        monkeypatch.setattr(module, "substream", record, raising=False)
    return built


@pytest.mark.parametrize(
    "name", sorted(n for n in CASES if n.startswith("experiment-") or n.startswith("sample-")))
def test_studies_and_samples_build_no_stream_per_draw(name, tmp_path, monkeypatch):
    """Every study and `sample` draws from one reused generator per cell or
    call (or in bulk), built once from the cell's or call's path and never
    from a replicate's or draw's, and keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    built = _record_substream(monkeypatch)
    assert _run(name, tmp_path) == DIGESTS[name]
    path_length = 1 if name.startswith("sample-") else 2  # ("sample",) or (study, cell)
    assert all(len(parts) == path_length for parts in built), built
    assert len(set(built)) == len(built)


def test_bernoulli_sample_of_50_matches_each_draws_substream(tmp_path, monkeypatch):
    family = model_spec("bernoulli-invariant")
    pi = edge_prob(family, ParamVector(theta=(-0.2,)), 9)
    expected = [format_edge_list(sample_bernoulli(9, pi, substream(2**64 - 1, "sample", k)))
                for k in range(50)]
    monkeypatch.chdir(tmp_path)
    built = _record_substream(monkeypatch)
    assert main(["sample", "--family", "bernoulli-invariant", "--theta=-0.2", "--n", "9",
                 "--count", "50", "--seed", str(2**64 - 1), "--out", "draws"]) == 0
    files = sorted((tmp_path / "draws").iterdir())
    assert [path.read_text(encoding="utf-8") for path in files] == expected
    assert built == [("sample",)]
