"""Command-line interface: joins, metrics, collision experiments.

Every command is a pure function of its inputs, flags, and seed: reruns
produce identical reports except for the timing fields, which live under
dedicated "timings" keys (or are dropped with --no-timings). Exit codes:
0 success, 2 configuration error, 3 IO or parse error, 4 internal error.
The library validates its own arguments and raises ValueError for a bad
one; `main` reports that as a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .curves import (
    Curve,
    Dataset,
    ParseError,
    _open_text,
    check_positive,
    densify,
    parse_series_1d,
    parse_trajectories_2d,
    read_trajectory_2d,
)
from .engine import (
    QueryConfig,
    exact_join,
    make_params,
    metrics,
    pairs_csv,
    percentile_radius,
    query_record_dicts,
    self_join,
    summary_dict,
)
from .experiments import bounds_csv, bounds_report
from .frechet import check_eps_list, verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """A flag combination or derived setting the run cannot proceed with."""


def _parse_epsilons(text: str) -> tuple:
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
        check_eps_list(eps)
    except ValueError as exc:
        raise ConfigError(f"bad --epsilons {text!r}: {exc}") from exc
    return eps


def _load_dataset(args) -> Dataset:
    if args.format == "series1d":
        data = parse_series_1d(args.data, skip_first_field=args.skip_first_field)
    else:
        data = parse_trajectories_2d(args.data)
    if args.densify is not None:
        data = Dataset([densify(c, args.densify) for c in data])
    return data


def _load_single_curve(path: str, fmt: str, skip_first_field: bool) -> Curve:
    if fmt == "series1d":
        return parse_series_1d(path, skip_first_field=skip_first_field)[0]
    return read_trajectory_2d(path, 0)


def _resolve_radius(args, data: Dataset) -> float:
    if args.radius is not None:
        return check_positive("--radius", args.radius)
    r = percentile_radius(data, args.percentile, seed=args.seed)
    if r == 0:
        raise ConfigError(
            f"the {args.percentile}th percentile radius is 0; pass --radius"
        )
    return r


def _read_pairs_csv(path: str) -> list:
    pairs = []
    with _open_text(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == "ida"):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 columns")
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad pair") from exc
    return pairs


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _dump_json(obj, drop_timings: bool) -> str:
    if drop_timings:
        obj = _strip_timings(obj)
    return json.dumps(obj, indent=2) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")


def cmd_self_join(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    data = _load_dataset(args)
    eps = _parse_epsilons(args.epsilons)
    r = _resolve_radius(args, data)
    cfg = QueryConfig(r=r, tau=args.tau, eps_list=eps,
                      radius_slack=args.slack, grid_factor=args.grid_factor)
    params = make_params(data, cfg, k=args.k, L=args.L, seed=args.seed)
    truth = _read_pairs_csv(args.truth) if args.truth else None
    report = self_join(data, params, cfg, truth=truth)
    summary = _dump_json(summary_dict(report), args.no_timings)
    sys.stdout.write(summary)
    _write_text(args.out_summary, summary)
    if args.out_queries is not None:
        rows = query_record_dicts(report)
        if args.no_timings:
            rows = [_strip_timings(row) for row in rows]
        _write_text(args.out_queries,
                    "".join(json.dumps(row) + "\n" for row in rows))
    _write_text(args.out_pairs, pairs_csv(report.pairs))
    return EXIT_OK


def cmd_exact_join(args) -> int:
    data = _load_dataset(args)
    eps = _parse_epsilons(args.epsilons)
    r = _resolve_radius(args, data)
    pairs = exact_join(data, r, eps)
    text = pairs_csv(pairs)
    sys.stdout.write(json.dumps({"radius": r, "pairs": len(pairs)}) + "\n")
    _write_text(args.out_pairs, text)
    if args.out_pairs is None:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_metrics(args) -> int:
    got = metrics(_read_pairs_csv(args.predicted), _read_pairs_csv(args.truth))
    sys.stdout.write(json.dumps(asdict(got), indent=2) + "\n")
    return EXIT_OK


def cmd_collision_prob(args) -> int:
    data = _load_dataset(args)
    if data.n < 2:
        raise ConfigError("need at least 2 curves")
    if args.sample < 1:
        raise ConfigError(f"--sample must be >= 1, got {args.sample}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    pairs = []
    for _ in range(args.sample):
        a, b = rng.choice(data.n, size=2, replace=False)
        pairs.append((data[int(a)], data[int(b)]))
    rows = bounds_report(pairs, args.delta, args.k, args.trials, args.seed)
    text = bounds_csv(rows)
    _write_text(args.out, text)
    if args.out is None:
        sys.stdout.write(text)
    sys.stdout.write(
        json.dumps(
            {
                "pairs": len(rows),
                "hard_violations": sum(r.hard_violation for r in rows),
                "below_independence": sum(r.below_independence for r in rows),
            }
        )
        + "\n"
    )
    return EXIT_OK


def cmd_verify_pair(args) -> int:
    p = _load_single_curve(args.file_a, args.format, args.skip_first_field)
    q = _load_single_curve(args.file_b, args.format, args.skip_first_field)
    out = verify(p, q, check_positive("--radius", args.radius),
                 _parse_epsilons(args.epsilons))
    sys.stdout.write(f"{out.verdict.value.capitalize()} {out.stage}\n")
    return EXIT_OK


def _add_dataset_flags(sp, list_format_help: str) -> None:
    sp.add_argument("--data", required=True, help=list_format_help)
    sp.add_argument("--format", choices=("series1d", "traj2d"),
                    default="series1d")
    sp.add_argument("--skip-first-field", action="store_true",
                    help="drop the leading field (class label) of each series")
    sp.add_argument("--densify", type=float, default=None, metavar="LEN",
                    help="subdivide edges longer than LEN after loading")


def _add_radius_flags(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--radius", type=float, default=None)
    group.add_argument("--percentile", type=int, choices=(1, 5), default=None,
                       help="derive the radius from sampled pairwise distances")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvejoin",
        description="Similarity search over polygonal curves under the "
                    "continuous Frechet distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sj = sub.add_parser("self-join", help="approximate self-similarity join")
    _add_dataset_flags(sj, "dataset file (series) or trajectory list file")
    _add_radius_flags(sj)
    sj.add_argument("--k", type=int, default=2)
    sj.add_argument("--L", type=int, default=1024)
    sj.add_argument("--tau", type=float, default=0.0)
    sj.add_argument("--grid-factor", type=float, default=4.0)
    sj.add_argument("--epsilons", default="10,1,0.1")
    sj.add_argument("--seed", type=int, default=0)
    sj.add_argument("--threads", type=int, default=1,
                    help="no effect (queries run in one thread); must be >= 1")
    sj.add_argument("--slack", choices=("none", "longest-edge"), default="none")
    sj.add_argument("--truth", default=None, help="ground-truth pairs CSV")
    sj.add_argument("--out-summary", default=None)
    sj.add_argument("--out-queries", default=None)
    sj.add_argument("--out-pairs", default=None)
    sj.add_argument("--no-timings", action="store_true")
    sj.set_defaults(func=cmd_self_join)

    ej = sub.add_parser("exact-join", help="exact join; the ground truth")
    _add_dataset_flags(ej, "dataset file (series) or trajectory list file")
    _add_radius_flags(ej)
    ej.add_argument("--epsilons", default="10,1,0.1")
    ej.add_argument("--seed", type=int, default=0)
    ej.add_argument("--out-pairs", default=None)
    ej.set_defaults(func=cmd_exact_join)

    me = sub.add_parser("metrics", help="recall/precision of predicted pairs")
    me.add_argument("--predicted", required=True)
    me.add_argument("--truth", required=True)
    me.set_defaults(func=cmd_metrics)

    cp = sub.add_parser("collision-prob",
                        help="Monte-Carlo collision-bound report")
    _add_dataset_flags(cp, "dataset file (series) or trajectory list file")
    cp.add_argument("--delta", type=float, required=True)
    cp.add_argument("--k", type=int, default=1)
    cp.add_argument("--trials", type=int, default=10_000)
    cp.add_argument("--sample", type=int, default=50)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_collision_prob)

    vp = sub.add_parser("verify-pair", help="decide one pair, print the stage")
    vp.add_argument("file_a")
    vp.add_argument("file_b")
    vp.add_argument("--radius", type=float, required=True)
    vp.add_argument("--epsilons", default="10,1,0.1")
    vp.add_argument("--format", choices=("series1d", "traj2d"),
                    default="series1d")
    vp.add_argument("--skip-first-field", action="store_true")
    vp.set_defaults(func=cmd_verify_pair)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigError or a library argument check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 4
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
