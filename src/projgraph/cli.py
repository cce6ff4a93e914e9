"""Command-line front end.

Subcommands: ``sample``, ``stats``, ``loglik``, ``mle``,
``check-projectivity``, ``experiment``.  The parser is built from two
tables: ``_OPTIONS`` declares each option once, with its help, and
``_COMMANDS`` gives each subcommand its help, handler and options, so
``projgraph <subcommand> --help`` documents every option it takes.

Quick operations are configured by flags; experiments are configured by
an archivable JSON file whose keys match the ExperimentConfig field
names.  Results are CSV on standard output by default, written to files
only with ``--out`` (the experiment command then also writes a JSON
metadata sidecar).

Exit codes: 0 success, 2 invalid input, 3 enumeration cap exceeded
(and exact ``sample`` above n = 7, refused at any ``--enum-cap``), 4 I/O
failure.  Validation always precedes computation, so invalid
invocations never leave partial output files.  ``experiment`` and
``check-projectivity`` accept ``--threads`` for compatibility and
validate it, but both run serially, so every output body is the same for
any value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .exact import (
    MAX_ENUMERATION_CAP,
    EnumerationCapError,
    _bulk_sample,
    _product_grid,
    _refuse_exact_sampling,
    build_distribution,
    default_theta_grid,
    projectivity_check,
    resolve_enum_cap,
    sample_bernoulli,
)
from .graph import (
    _csv_text,
    edge_count,
    format_edge_list,
    is_connected,
    mean_degree,
    read_edge_list,
    triangle_count,
)
from .inference import (
    FullGraph,
    InducedSubgraph,
    LikelihoodKind,
    format_mle_csv,
    log_likelihood,
    mle,
)
from .models import Family, ParamVector, edge_prob, model_spec
from .rng import _streams

__all__ = ["main"]


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated option value."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _parse_theta(text: str, spec: Family) -> ParamVector:
    values = _floats(text, "--theta")
    if len(values) != spec.stat_dim:
        raise ValueError(
            f"--theta must have {spec.stat_dim} component(s) for family "
            f"{spec.name}, got {len(values)}"
        )
    return ParamVector(theta=values)


def _validate_threads(value: Optional[int]) -> None:
    """Check ``--threads`` when it is given."""
    if value is not None and value < 1:
        raise ValueError("--threads must be >= 1")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_sample(args: argparse.Namespace) -> int:
    spec = model_spec(args.family)
    theta = _parse_theta(args.theta, spec)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if not 1 <= args.count < 1 << 32:
        raise ValueError("--count must lie in [1, 2**32)")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if args.count > 1 and args.out is None:
        raise ValueError("--out is required when --count > 1")
    # Draw i comes from substream(seed, "sample", i), with the same bits: one
    # reused generator keyed per draw, or for table draws a bulk evaluation.
    if spec.bernoulli:
        pi = edge_prob(spec, theta, args.n)
        streams = _streams(args.seed, ("sample",), (args.count,))
        graphs = [sample_bernoulli(args.n, pi, rng) for rng in streams]
    else:
        # Up to the largest cap, no cap lifts the sampling refusal, so it reads
        # first; beyond it the cap's own message does.
        if args.n <= MAX_ENUMERATION_CAP:
            _refuse_exact_sampling(args.n)
        dist = build_distribution(spec, theta, args.n, args.enum_cap)
        graphs = list(_bulk_sample(dist, args.seed, ("sample",), (args.count,)))
    if args.out is None:
        sys.stdout.write(format_edge_list(graphs[0]))
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(args.count - 1)))
    for index, g in enumerate(graphs):
        (out_dir / f"sample_{index:0{width}d}.edgelist").write_text(
            format_edge_list(g), encoding="utf-8"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = [["file", "n", "edges", "triangles", "mean_degree", "connected"]]
    for name in args.files:
        g = read_edge_list(name)
        rows.append([name, g.n, edge_count(g), triangle_count(g), mean_degree(g),
                     is_connected(g)])
    _emit(_csv_text(rows), args.out)
    return 0


def _observed_data(graph, kind: LikelihoodKind, population_n: Optional[int]):
    if population_n is not None:
        return InducedSubgraph(graph, population_n)
    if kind is LikelihoodKind.MISSPECIFIED:
        raise ValueError(
            "--population-n is required with --kind misspecified "
            "(the misspecified likelihood applies only to subgraph data)"
        )
    return FullGraph(graph)


def _cmd_loglik(args: argparse.Namespace) -> int:
    spec = model_spec(args.family)
    theta = _parse_theta(args.theta, spec)
    kind = LikelihoodKind(args.kind)
    rows = [["file", "kind", "log_lik"]]
    for name in args.files:
        g = read_edge_list(name)
        data = _observed_data(g, kind, args.population_n)
        rows.append([name, kind.value, log_likelihood(spec, theta, data, kind, args.enum_cap)])
    _emit(_csv_text(rows), args.out)
    return 0


def _cmd_mle(args: argparse.Namespace) -> int:
    spec = model_spec(args.family)
    kind = LikelihoodKind(args.kind)
    entries = []
    for name in args.files:
        g = read_edge_list(name)
        data = _observed_data(g, kind, args.population_n)
        entries.append((kind, mle(spec, data, kind, args.enum_cap)))
    _emit(format_mle_csv(spec, entries), args.out)
    return 0


def _cmd_check_projectivity(args: argparse.Namespace) -> int:
    spec = model_spec(args.family)
    if args.theta_grid is None:
        grid = default_theta_grid(spec)
    else:
        grid = _product_grid(spec, _floats(args.theta_grid, "--theta-grid"))
    _validate_threads(args.threads)
    report = projectivity_check(spec, grid, n=args.n, n_sub=args.n_sub, enum_cap=args.enum_cap)
    _emit(report.to_csv(), args.out)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Imported here, so that the other subcommands do not load the study layer.
    from .experiments import ExperimentConfig, run_experiment

    text = Path(args.config).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {args.config}: {exc}") from None
    cfg = ExperimentConfig.from_dict(payload)
    _validate_threads(args.threads)
    report = run_experiment(cfg)
    if args.out is None:
        sys.stdout.write(report.csv_body())
        return 0
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.csv_body(), encoding="utf-8")
    meta_path = (
        out.with_suffix(".meta.json")
        if out.suffix == ".csv"
        else Path(str(out) + ".meta.json")
    )
    meta_path.write_text(report.metadata_json(), encoding="utf-8")
    return 0


# Each option's add_argument keywords, declared once for every subcommand.
_OPTIONS = {
    "--family": dict(required=True, help="model family, CamelCase or kebab-case"),
    "--theta": dict(required=True, help="comma-separated parameter components"),
    "--n": dict(type=int, required=True, help="node count"),
    "--count": dict(type=int, default=1, help="number of draws"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--kind": dict(choices=[k.value for k in LikelihoodKind], default="proper",
                   help="likelihood of subgraph data"),
    "--population-n": dict(
        type=int, help="population size; marks the data as an induced subgraph"),
    "--n-sub": dict(type=int, required=True, help="node count of the subgraph"),
    "--theta-grid": dict(help="comma-separated per-component axis values (product grid)"),
    "files": dict(nargs="+", help="edge-list files"),
    "config": dict(help="JSON config file"),
    "--enum-cap": dict(type=int, help="override the exhaustive-enumeration size cap (max 8)"),
    "--out": dict(help="write output to this path (for sample, a directory of edge-list "
                  "files, required if count > 1)"),
    "--threads": dict(type=int,
                      help="accepted for compatibility and validated; the work runs serially"),
}

# One row per subcommand: name, help, handler and its options, in the order
# that its usage line and its missing-argument message list them.
_COMMANDS = (
    ("sample", "draw graphs from a model", _cmd_sample,
     ("--family", "--theta", "--n", "--count", "--seed", "--out", "--enum-cap")),
    ("stats", "graph statistics for edge-list files", _cmd_stats, ("files", "--out")),
    ("loglik", "evaluate a log likelihood", _cmd_loglik,
     ("--family", "--theta", "--kind", "--population-n", "files", "--enum-cap", "--out")),
    ("mle", "maximum likelihood estimation", _cmd_mle,
     ("--family", "--kind", "--population-n", "files", "--enum-cap", "--out")),
    ("check-projectivity", "grid check of marginalization consistency",
     _cmd_check_projectivity,
     ("--family", "--n", "--n-sub", "--theta-grid", "--enum-cap", "--out", "--threads")),
    ("experiment", "run a configured study", _cmd_experiment, ("config", "--out", "--threads")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projgraph",
        description=(
            "Exact inference and simulation for exponential-family random "
            "graph models under node subsampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # One check of --enum-cap for every subcommand that takes it, before
        # any work, whether or not the family enumerates.
        resolve_enum_cap(1, getattr(args, "enum_cap", None))
        return args.handler(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
