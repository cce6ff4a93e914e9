"""projgraph benchmark: three workloads, measured end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-n7 --seed 1 --seconds 25 --trace 0

Workloads: exact-n7 and mc-dependent, which BENCHMARK.json lists, and
mc-large, which is run by hand (see workloads.py).  Every job is an
in-process call of ``projgraph.cli.main`` on input files written from the
seed.

--trace 0 runs with no shim installed.  It runs rounds of the workload's jobs,
each on freshly drawn inputs, for --seconds (at least three rounds; no round
is started that would end past --seconds unless fewer than three are done).
A job's time is its best wall time over the rounds.  On a shared host,
contention from other tenants makes a fixed piece of work up to twice as
slow, in spells of seconds to minutes; a median over a few rounds reads
whichever spell it falls in, while the best time discounts the short
spells.  The long ones remain, and set the spread between runs.  The run
reports set-up time (the best of this process's set-up and fresh-interpreter
ones), peak RSS, and the summed job times at --threads 1 (``jobs_1t_s``,
which includes jobs without a --threads flag) and at --threads 2
(``jobs_2t_s``).  Each job's best and median time are printed under its name.

--trace 1 runs the --threads 1 jobs on one set of inputs: a warm-up round,
then PAIRS pairs of an untraced round and a round with the shims of
shims.py installed, in alternating order.  It reports the median per-layer
metrics of the traced rounds, and the median of the traced-minus-untraced
wall time of the pairs as trace.overhead_s.  Where the shims fire only a
few hundred times (exact-n7), that difference is below the host's noise.

Every output is checked after the timed region.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import shims
import workloads

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 3
SETUP_PROBE_BUDGET_S = 5.0  # cheap set-ups are sampled more often
MIN_ROUNDS = 3
PAIRS = 3  # untraced/traced round pairs of a traced run


def _run_job(cli, job: workloads.Job) -> tuple[float, Optional[str]]:
    """Wall seconds of one CLI call, and its stdout (None if it failed)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a crashing job is counted as failed; the run goes on
        elapsed = time.perf_counter() - started
        print(f"{job.name} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, None
    elapsed = time.perf_counter() - started
    if code != 0:
        print(f"{job.name} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return elapsed, None
    return elapsed, out.getvalue()


def _round(cli, jobs) -> tuple[dict[str, float], dict[str, Optional[str]]]:
    times, outputs = {}, {}
    for job in jobs:
        times[job.name], outputs[job.name] = _run_job(cli, job)
    return times, outputs


def _check_round(jobs, outputs, identical) -> dict[str, str]:
    """Failure reason per failed job."""
    reasons = {}
    for job in jobs:
        text = outputs[job.name]
        if text is None:
            reasons[job.name] = "did not complete"
            continue
        try:
            reason = job.check(text)
        except Exception as exc:  # a malformed output can break a check
            reason = f"check raised {exc!r}"
        if reason is not None:
            reasons[job.name] = reason
    for a, b in identical:
        if outputs[a] is not None and outputs[b] is not None and outputs[a] != outputs[b]:
            for name in (a, b):
                reasons.setdefault(name, f"output of {a} differs from {b}")
    return reasons


def _report_failures(reasons_per_round) -> int:
    failed = 0
    for index, reasons in enumerate(reasons_per_round):
        for name, reason in reasons.items():
            print(f"FAILED round {index} {name}: {reason}", file=sys.stderr)
        failed += len(reasons)
    return failed


def _setup_samples(workload: str, first: float) -> list[float]:
    """This process's set-up time, then fresh-interpreter ones for at least the budget."""
    samples = [first]
    started = time.perf_counter()
    while (len(samples) < MIN_SETUP_SAMPLES
           or time.perf_counter() - started < SETUP_PROBE_BUDGET_S):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _timed(cli, build, seconds, setup_samples):
    import checks  # imports projgraph, so only after the timed set-up

    modules = shims.layer_modules()
    shims.assert_uninstalled(modules)
    workloads_run, rounds = [], []
    started = time.perf_counter()
    elapsed = last = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed + last <= seconds:
        workload = build(len(rounds))
        workloads_run.append(workload)
        rounds.append(_round(cli, workload.jobs))
        now = time.perf_counter() - started
        elapsed, last = now, now - elapsed
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shims.assert_uninstalled(modules)

    failed = _report_failures([
        _check_round(w.jobs, outputs, w.identical)
        for w, (_, outputs) in zip(workloads_run, rounds)
    ])

    jobs = workload.jobs
    samples = {job.name: [times[job.name] for times, _ in rounds] for job in jobs}
    best = {name: min(values) for name, values in samples.items()}

    def wall(threads: int) -> float:
        return sum(best[job.name] for job in jobs if job.threads == threads)

    metrics = {
        "setup_s": (min(setup_samples), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "jobs_1t_s": (wall(1), "s"),
        "jobs_2t_s": (wall(2), "s"),
    }
    attempted = len(rounds) * len(jobs)
    print(f"rounds {len(rounds)} in {elapsed:.4g} s, "
          f"setup samples {[round(s, 4) for s in setup_samples]}")
    for name, values in samples.items():
        print(f"{name} {best[name]:.6g} s (best; median {statistics.median(values):.6g} s)")
    first_outputs = rounds[0][1]
    for threads, name in ((1, "replicates_per_s"), (2, "replicates_per_s_2t")):
        count = sum(checks.units(first_outputs[job.name] or "")
                    for job in jobs if job.threads == threads and job.argv[0] == "experiment")
        if count:
            print(f"{name} {count / wall(threads):.6g} 1/s ({count} estimates per round)")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    return attempted, failed, metrics


def _traced(cli, build):
    workload = build(0)  # every round reads the same inputs
    modules = shims.layer_modules()
    jobs = tuple(job for job in workload.jobs if job.threads == 1)
    shims.assert_uninstalled(modules)
    _, warm = _round(cli, jobs)  # first calls pay for page faults and lazy imports

    rounds, traced_metrics, overheads = [warm], [], []
    for pair in range(PAIRS):
        wall = {}
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            tracer = shims.Tracer(modules)
            if traced:
                tracer.install()
            try:
                started = time.perf_counter()
                _, outputs = _round(cli, jobs)
                wall[traced] = time.perf_counter() - started
            finally:
                tracer.uninstall()
            shims.assert_uninstalled(modules)
            rounds.append(outputs)
            if traced:
                traced_metrics.append(tracer.metrics())
        overheads.append(wall[True] - wall[False])

    reasons = [_check_round(jobs, outputs, ()) for outputs in rounds]
    for round_reasons, outputs in zip(reasons[1:], rounds[1:]):
        for job in jobs:
            if None not in (warm[job.name], outputs[job.name]) and warm[job.name] != outputs[job.name]:
                round_reasons.setdefault(job.name, "output differs from the warm-up round's")
    failed = _report_failures(reasons)
    metrics = {name: (statistics.median(m[name][0] for m in traced_metrics), unit)
               for name, (_, unit) in traced_metrics[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    print(f"traced minus untraced wall time per pair: {[round(d, 4) for d in overheads]} s")
    return len(rounds) * len(jobs), failed, metrics


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny shrinks every job, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    workloads.use_source_tree()
    first_setup = workloads.timed_setup(args.workload)
    from projgraph import cli

    workdir = workloads.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        def build(round_index: int) -> workloads.Workload:
            return workloads.build(args.workload, args.seed, round_index, args.size, workdir)

        if args.trace:
            attempted, failed, metrics = _traced(cli, build)
        else:
            samples = _setup_samples(args.workload, first_setup)
            attempted, failed, metrics = _timed(cli, build, args.seconds, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
