"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
workloads.use_source_tree()

import checks  # noqa: E402  (needs projgraph on the path)
import projgraph  # noqa: E402
import shims  # noqa: E402
from projgraph import cli  # noqa: E402


def _result(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_the_declared_end_to_end_metrics(capsys, workload):
    result = _result(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_the_declared_per_layer_metrics(capsys, workload):
    result = _result(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_exact_counts_repeat_between_traced_runs(capsys):
    first, second = (_result(capsys, "mc-dependent", trace=1)["metrics"] for _ in range(2))
    for name in ("exact.rows_scanned", "exact.dyads_drawn", "inference.mle.iterations",
                 "rng.substream.calls", "models.sufficient_stats.calls"):
        assert first[name]["value"] == second[name]["value"], name
    assert first["rng.substream.calls"]["value"] > 0


def _corrupt(monkeypatch, job_name, edit):
    original = run._run_job

    def corrupted(cli_module, job):
        elapsed, text = original(cli_module, job)
        return elapsed, edit(text) if job.name == job_name and text else text

    monkeypatch.setattr(run, "_run_job", corrupted)


def _perturb_interior_theta(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[-2] == "false":  # boundary column
            fields[2] = repr(float(fields[2]) + 0.05)
            lines[k] = ",".join(fields)
            break
    return "".join(lines)


@pytest.mark.parametrize("workload, job, edit", [
    ("exact-n7", "projectivity_s",
     lambda text: text.replace("non-projective", "projective-on-grid")),
    ("exact-n7", "mle_full_s", _perturb_interior_theta),
    ("exact-n7", "mle_proper_s", _perturb_interior_theta),
    ("mc-dependent", "subsample_2t_s", lambda text: text[:-1] + "7\n"),
])
def test_corrupted_output_raises_the_error_rate(capsys, monkeypatch, workload, job, edit):
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_PROBE_BUDGET_S", 0.0)
    _corrupt(monkeypatch, job, edit)
    result = _result(capsys, workload, trace=0)
    assert not result["correct"] and result["failed"] > 0


def test_experiment_check_catches_accounting_and_offset_errors():
    header = "cell,n,subsample_n,kind,units,used,n_boundary,mean_estimate,bias,rmse\n"
    good = (header + "N=2000|proper,2000,500,proper,2,2,0,1.0,0.0,0.1\n"
            f"N=2000|misspecified,2000,500,misspecified,2,2,0,{1.0 + math.log(0.25)!r},0,0\n")
    assert checks.experiment(good, math.log(0.25)) is None
    assert checks.experiment(good.replace(",2,2,0,1.0", ",3,2,0,1.0"), None) is not None
    assert checks.experiment(good, math.log(0.5)) is not None


def test_shims_restore_every_binding_and_untraced_runs_refuse_them():
    modules = shims.layer_modules()
    before = {layer: dict(vars(m)) for layer, m in modules.items()}
    tracer = shims.Tracer(modules)
    tracer.install()
    try:
        assert "exact.log_normalizer" in shims.installed(modules)
        with pytest.raises(RuntimeError):
            shims.assert_uninstalled(modules)
    finally:
        tracer.uninstall()
    shims.assert_uninstalled(modules)
    for layer, m in modules.items():
        assert all(vars(m)[name] is obj for name, obj in before[layer].items())


def test_removed_function_omits_its_metrics(monkeypatch, tmp_path):
    inference = projgraph.inference
    monkeypatch.setattr(inference, "__all__",
                        [n for n in inference.__all__ if n != "fisher_information"])
    monkeypatch.delattr(inference, "fisher_information")
    path = tmp_path / "g.edgelist"
    path.write_text("4\n0 1\n1 2\n", encoding="utf-8")
    tracer = shims.Tracer(shims.layer_modules())
    tracer.install()
    try:
        assert cli.main(["mle", "--family", "bernoulli-offset", str(path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert "inference.fisher_information.calls" not in metrics
    assert metrics["inference.mle.calls"][0] == 1


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCH["command"] + ["--workload", "mc-large", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
