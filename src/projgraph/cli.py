"""Command-line front end.

Subcommands: ``sample``, ``stats``, ``loglik``, ``mle``,
``check-projectivity``, ``experiment``.  Quick operations are configured
by flags; experiments are configured by an archivable JSON file whose
keys match the ExperimentConfig field names.  Results are CSV on
standard output by default, written to files only with ``--out`` (the
experiment command then also writes a JSON metadata sidecar).

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
import csv
import io
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
    PROJECTIVITY_TOLERANCE,
)
from .graph import (
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


def _parse_theta(text: str, spec: Family, flag: str = "--theta") -> ParamVector:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if len(values) != spec.stat_dim:
        raise ValueError(
            f"{flag} must have {spec.stat_dim} component(s) for family "
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
        resolve_enum_cap(args.n, args.enum_cap)
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["file", "n", "edges", "triangles", "mean_degree", "connected"])
    for name in args.files:
        g = read_edge_list(name)
        writer.writerow(
            [
                name,
                g.n,
                edge_count(g),
                triangle_count(g),
                repr(mean_degree(g)),
                "true" if is_connected(g) else "false",
            ]
        )
    _emit(buf.getvalue(), args.out)
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["file", "kind", "log_lik"])
    for name in args.files:
        g = read_edge_list(name)
        data = _observed_data(g, kind, args.population_n)
        value = log_likelihood(spec, theta, data, kind, args.enum_cap)
        writer.writerow([name, kind.value, repr(value)])
    _emit(buf.getvalue(), args.out)
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
    if args.n_sub < 1 or args.n_sub >= args.n:
        raise ValueError("--n-sub must satisfy 1 <= n_sub < n")
    if args.theta_grid is None:
        grid = default_theta_grid(spec)
    else:
        try:
            axis = tuple(float(part) for part in args.theta_grid.split(","))
        except ValueError:
            raise ValueError(
                f"--theta-grid must be comma-separated numbers, got {args.theta_grid!r}"
            ) from None
        grid = _product_grid(spec, axis)
    _validate_threads(args.threads)
    report = projectivity_check(
        spec,
        grid,
        n=args.n,
        n_sub=args.n_sub,
        tolerance=args.tolerance,
        enum_cap=args.enum_cap,
    )
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projgraph",
        description=(
            "Exact inference and simulation for exponential-family random "
            "graph models under node subsampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, enum_cap: bool = True, out: bool = True):
        if enum_cap:
            p.add_argument(
                "--enum-cap",
                type=int,
                default=None,
                help="override the exhaustive-enumeration size cap (max 8)",
            )
        if out:
            p.add_argument("--out", default=None, help="write output to this path")

    p_sample = sub.add_parser("sample", help="draw graphs from a model")
    p_sample.add_argument("--family", required=True)
    p_sample.add_argument("--theta", required=True, help="comma-separated components")
    p_sample.add_argument("--n", type=int, required=True, help="node count")
    p_sample.add_argument("--count", type=int, default=1, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=0, help="master seed")
    p_sample.add_argument(
        "--out", default=None, help="directory for edge-list files (required if count > 1)"
    )
    p_sample.add_argument("--enum-cap", type=int, default=None)
    p_sample.set_defaults(handler=_cmd_sample)

    p_stats = sub.add_parser("stats", help="graph statistics for edge-list files")
    p_stats.add_argument("files", nargs="+")
    add_common(p_stats, enum_cap=False)
    p_stats.set_defaults(handler=_cmd_stats)

    p_loglik = sub.add_parser("loglik", help="evaluate a log likelihood")
    p_loglik.add_argument("--family", required=True)
    p_loglik.add_argument("--theta", required=True)
    p_loglik.add_argument(
        "--kind", choices=[k.value for k in LikelihoodKind], default="proper"
    )
    p_loglik.add_argument(
        "--population-n",
        type=int,
        default=None,
        help="population size; marks the data as an induced subgraph",
    )
    p_loglik.add_argument("files", nargs="+")
    add_common(p_loglik)
    p_loglik.set_defaults(handler=_cmd_loglik)

    p_mle = sub.add_parser("mle", help="maximum likelihood estimation")
    p_mle.add_argument("--family", required=True)
    p_mle.add_argument(
        "--kind", choices=[k.value for k in LikelihoodKind], default="proper"
    )
    p_mle.add_argument("--population-n", type=int, default=None)
    p_mle.add_argument("files", nargs="+")
    add_common(p_mle)
    p_mle.set_defaults(handler=_cmd_mle)

    p_proj = sub.add_parser(
        "check-projectivity", help="grid check of marginalization consistency"
    )
    p_proj.add_argument("--family", required=True)
    p_proj.add_argument("--n", type=int, required=True)
    p_proj.add_argument("--n-sub", type=int, required=True)
    p_proj.add_argument(
        "--theta-grid",
        default=None,
        help="comma-separated per-component axis values (product grid)",
    )
    p_proj.add_argument("--tolerance", type=float, default=PROJECTIVITY_TOLERANCE)
    add_common(p_proj)
    p_proj.set_defaults(handler=_cmd_check_projectivity)

    p_exp = sub.add_parser("experiment", help="run a configured study")
    p_exp.add_argument("config", help="JSON config file")
    add_common(p_exp, enum_cap=False)
    p_exp.set_defaults(handler=_cmd_experiment)

    for p in (p_proj, p_exp):
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted for compatibility and validated; the work runs serially",
        )

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
