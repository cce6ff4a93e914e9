"""The three workloads: inputs drawn from the seed, and the CLI jobs that read them.

exact-n7
    EdgeTriangle at the enumeration cap n=7 (2^21 graphs): check-projectivity
    n=7 against n_sub=6 on the default 25-point grid (and on a 9-point subgrid
    at --threads 2), full-graph MLE on 7-node graphs and proper MLE
    (population 7) on 5-node subgraphs.  Every normalizer, moment and
    line-search step scans the full statistic table.
mc-dependent
    Dyad-dependent Monte Carlo on tiny tables: the EdgeTriangle replication
    arm of acceptance criterion 08, then an EdgeTriangle subsample study
    (N=6, n'=4), each at --threads 1 and --threads 2.  Thousands of calls on
    2^10- and 2^15-row tables, so per-call overhead and the GIL dominate.
mc-large
    Independent-dyad simulation at n in the thousands: BernoulliOffset growth
    (1000, 2000, 4000), the connectivity threshold at n=1000 and a subsample
    study at N=2000, n'=500, each at --threads 1 and --threads 2.  Dense
    dyad sampling and graph operations dominate; nothing is enumerated.
    BENCHMARK.json does not list it: on a shared 2-core host its timings
    (memory-bound sampling, big-int connectivity tests) vary most with other
    tenants' load, and their spread over ten seeds exceeded the 0.25 bound.
    It is run by hand, for example for its traced per-layer breakdown.

The EdgeTriangle MLE inputs of exact-n7 are stratified.  Full-graph MLE sees
a graph only through its (edges, triangles) vector, and the cost of one fit
ranges from milliseconds (boundary) to minutes, so independent draws would
make the work of a run depend on the seed.  Each round therefore fits one
graph from each of a fixed list of statistic classes, and one relabelled
5-node subgraph from each of a fixed list of isomorphism classes; the seed
picks the labelled graphs.  Drawing a graph from theta=(0, 0.5) conditional
on its statistic class is drawing uniformly from that class, which is what
the seed does here.  The lists leave the most expensive classes out, so that
three rounds fit a run (times below are from the machine in baseline.json).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-n7", "mc-dependent", "mc-large")
SIZES = ("full", "tiny")

# Classes (edges, triangles, on the hull boundary) of 7-node graphs: the three
# most probable boundary classes under theta=(0, 0.5) and the most probable
# interior class whose fit takes under 2 s, 39% of the probability.  The
# interior classes (19, 26) and (18, 22) rank higher but take 3.5 s and 2.3 s.
FULL_CLASSES = {
    "full": ((20, 30, True), (21, 35, True), (19, 25, True), (17, 19, False)),
    "tiny": ((20, 30, True), (17, 19, False)),
}

# Representatives of two isomorphism classes of the 5-node induced subgraph
# under theta=(0, 0.5) at n=7: K5 (boundary, 28% of the probability) and K5
# minus two edges at one node (the most probable interior class, 16%).  The
# most probable class, K5 minus an edge, is on the boundary too.
_K5 = [(i, j) for j in range(1, 5) for i in range(j)]
PROPER_CLASSES = (_K5, [e for e in _K5 if e not in ((2, 4), (3, 4))])

# check-projectivity at --threads 2 runs on the 9-point grid {-1, 0, 1}^2,
# a subset of the default grid, so that three rounds fit a run.
GRID_2T = (-1.0, 0.0, 1.0)

# Replicate counts per workload size; families, theta, sizes and thread
# counts stay fixed.
MC_COUNTS = {
    "full": {"studies_per_cell": 10, "dependent_subsample": 15,
             "growth": 2, "threshold": 5, "large_subsample": 8},
    "tiny": {"studies_per_cell": 2, "dependent_subsample": 3,
             "growth": 1, "threshold": 2, "large_subsample": 2},
}

# Statistic tables and attainable-statistics hulls each workload reads.
_ENUMERATED = {
    "exact-n7": {"tables": (7, 6), "hulls": (7,)},
    "mc-dependent": {"tables": (6, 5, 4), "hulls": (5, 4)},
    "mc-large": {"tables": (), "hulls": ()},
}


def use_source_tree() -> None:
    """Import projgraph from this checkout's src/, or stop with exit code 1."""
    if not (SRC / "projgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: projgraph sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def timed_setup(workload: str) -> float:
    """Seconds to import projgraph and fill every lazy cache the workload reads."""
    started = time.perf_counter()
    import projgraph

    spec = projgraph.model_spec("EdgeTriangle")
    for n in _ENUMERATED[workload]["tables"]:
        projgraph.enumerated_stats(spec, n)
    for n in _ENUMERATED[workload]["hulls"]:
        projgraph.mle(spec, projgraph.FullGraph(projgraph.complete_graph(n)))
    return time.perf_counter() - started


@dataclass(frozen=True)
class Job:
    """One in-process ``projgraph.cli.main`` call and the check of its stdout."""

    name: str  # the name its wall time is printed under
    argv: tuple[str, ...]
    threads: int  # the --threads value; 1 for subcommands without the flag
    check: Callable[[str], Optional[str]]  # None when the output is correct


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    # jobs whose outputs must be byte-identical
    identical: tuple[tuple[str, str], ...] = ()


def _edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    ordered = sorted(edges, key=lambda e: (e[1], e[0]))
    return "".join([f"{n}\n"] + [f"{i} {j}\n" for i, j in ordered])


def _draw_with_stats(rng: np.random.Generator, n: int, edges: int, triangles: int):
    """Uniform draw among n-node graphs with the given edge and triangle counts."""
    pairs = oracle.dyad_pairs(n)
    for _ in range(100_000):
        chosen = [pairs[k] for k in sorted(rng.choice(len(pairs), size=edges, replace=False))]
        if oracle.edge_triangle_stats(n, chosen)[1] == triangles:
            return chosen
    raise RuntimeError(f"no {n}-node graph with {edges} edges and {triangles} triangles drawn")


def _relabel(rng: np.random.Generator, n: int, edges: list[tuple[int, int]]):
    perm = rng.permutation(n)
    return [tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in edges]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _exact_n7(rng: np.random.Generator, size: str, workdir: Path) -> Workload:
    import checks

    full_files, full_expect = [], []
    for k, (edges, triangles, boundary) in enumerate(FULL_CLASSES[size]):
        graph = _draw_with_stats(rng, 7, edges, triangles)
        full_files.append(_write(workdir / f"full_{k}.edgelist", _edge_list_text(7, graph)))
        full_expect.append((oracle.edge_triangle_stats(7, graph), boundary))
    proper_files, proper_graphs = [], []
    for k, rep in enumerate(PROPER_CLASSES):
        graph = _relabel(rng, 5, rep)
        proper_files.append(_write(workdir / f"sub_{k}.edgelist", _edge_list_text(5, graph)))
        proper_graphs.append(graph)
    tiny_axis = (0.0, 1.0) if size == "tiny" else None

    def projectivity(name: str, axis: Optional[tuple[float, ...]], threads: int) -> Job:
        """check-projectivity n=7 against n_sub=6 on axis^2, or on the default grid."""
        argv = ["check-projectivity", "--family", "edge-triangle", "--n", "7", "--n-sub", "6",
                "--threads", str(threads)]
        grid = checks.grid_points()
        if axis is not None:
            # one argument, so that argparse reads a leading minus as a value
            argv.append("--theta-grid=" + ",".join(map(str, axis)))
            grid = checks.grid_points(axis)
        return Job(name, tuple(argv), threads, lambda text: checks.projectivity(text, grid))

    return Workload(
        jobs=(
            projectivity("projectivity_s", tiny_axis, 1),
            Job("mle_full_s", ("mle", "--family", "edge-triangle", *full_files), 1,
                lambda text: checks.full_mle(text, full_expect)),
            Job("mle_proper_s", ("mle", "--family", "edge-triangle", "--population-n", "7",
                                 *proper_files), 1,
                lambda text: checks.proper_mle(text, proper_graphs)),
            projectivity("projectivity_2t_s", tiny_axis or GRID_2T, 2),
        ),
    )


def _experiments(configs: dict[str, dict], gaps: dict[str, float],
                 workdir: Path) -> Workload:
    import checks

    jobs, identical = [], []
    for label, config in configs.items():
        path = _write(workdir / f"{label}.json", json.dumps(config))
        check = lambda text, gap=gaps.get(label): checks.experiment(text, gap)
        for threads in (1, 2):
            jobs.append(Job(f"{label}_{threads}t_s",
                            ("experiment", path, "--threads", str(threads)), threads, check))
        identical.append((f"{label}_1t_s", f"{label}_2t_s"))
    return Workload(jobs=tuple(jobs), identical=tuple(identical))


def _mc_dependent(rng: np.random.Generator, size: str, workdir: Path) -> Workload:
    counts = MC_COUNTS[size]
    base = {"spec": "EdgeTriangle", "theta_star": [0.0, 0.5],
            "master_seed": int(rng.integers(2**63))}
    configs = {
        "replication": dict(base, experiment="replication", sizes=[5],
                            replicates=[10, 40, 160],
                            studies_per_cell=counts["studies_per_cell"]),
        "subsample": dict(base, experiment="subsample", sizes=[6], subsample_n=4,
                          replicates=counts["dependent_subsample"]),
    }
    return _experiments(configs, {}, workdir)


def _mc_large(rng: np.random.Generator, size: str, workdir: Path) -> Workload:
    counts = MC_COUNTS[size]
    base = {"spec": "BernoulliOffset", "theta_star": [1.0],
            "master_seed": int(rng.integers(2**63))}
    configs = {
        "growth": dict(base, experiment="growth", sizes=[1000, 2000, 4000],
                       replicates=counts["growth"]),
        "threshold": dict(base, experiment="threshold", sizes=[1000],
                          multipliers=[0.5, 1.0, 2.0], replicates=counts["threshold"]),
        "subsample": dict(base, experiment="subsample", sizes=[2000], subsample_n=500,
                          replicates=counts["large_subsample"]),
    }
    # offset-family estimates from the subgraph differ by exactly log(n'/N)
    return _experiments(configs, {"subsample": math.log(500 / 2000)}, workdir)


_BUILDERS = {"exact-n7": _exact_n7, "mc-dependent": _mc_dependent, "mc-large": _mc_large}


def build(workload: str, seed: int, round_index: int, size: str, workdir: Path) -> Workload:
    """Write the inputs of one round under ``workdir`` and return its jobs.

    Each round draws fresh inputs from (seed, round_index), so that no round
    repeats the exact inputs of an earlier one.
    """
    workdir = workdir / f"round-{round_index}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, round_index])
    return _BUILDERS[workload](rng, size, workdir)
