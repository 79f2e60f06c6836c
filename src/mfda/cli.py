"""Command-line front end: simulate, fit, icc, test, correlate.

Batch workflows only; every command reads and writes files under the given
paths and prints a small machine-parseable summary to stdout. Diagnostics go
to stderr. Exit codes: 0 success, 2 usage or input error, 3 model
precondition violated, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import FORMAT_VERSION, __version__
from .errors import (
    InputError,
    InvalidParameterError,
    NumericalError,
    ParseError,
    PreconditionError,
)
from .icc import icc_report
from .ingest import (
    _fmt,
    _read_numeric,
    _unkeyed,
    _write_table,
    read_fit,
    read_long_csv,
    write_fit,
    write_json,
    write_long_csv,
)
from .leveltest import METHODS, two_sample_score_test, score_covariate_correlation
from .mfpca import FitConfig, fit_nested
from .simkl import generate, load_spec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

SIMULATED_CHANNEL = "sim"


def cmd_simulate(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise FileNotFoundError(f"spec file not found: {spec_path}")
    spec = load_spec(spec_path, seed=args.seed)
    curves, truth = generate(spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_long_csv(curves, out / "data.csv", args.channel)
    write_json(
        out / "truth.json",
        {
            "analytic_icc": truth.analytic_icc,
            "noise_variance": spec.noise_variance,
            "eigenvalues": [
                [float(v) for v in lvl.eigenvalues] for lvl in spec.levels
            ],
            "scores": [s.tolist() for s in truth.scores],
            "seed": spec.seed,
        },
    )
    write_json(
        out / "manifest.json",
        {
            "format_version": FORMAT_VERSION,
            "library_version": __version__,
            "command": "simulate",
            "channel": args.channel,
            "seed": spec.seed,
            "spec": dict(spec.raw),
        },
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    data_path = Path(args.data)
    if not data_path.exists():
        raise FileNotFoundError(f"data file not found: {data_path}")
    curves, report = read_long_csv(data_path, args.channel, args.grid_policy)
    config = FitConfig(
        levels=args.levels, pve=args.pve, center_measures=not args.no_measure_means
    )
    fit = fit_nested(curves, config)
    write_fit(
        fit,
        args.out,
        extra_manifest={
            "command": "fit",
            "channel": args.channel,
            "data": str(args.data),
            "grid_policy": args.grid_policy,
        },
    )
    n, J, K_rep = fit.shape
    lines = [
        f"levels: {fit.levels}",
        f"subjects: {n}",
        f"measures: {J}",
        f"replicates: {K_rep}",
        f"grid_points: {fit.grid.size}",
    ]
    for level, k in enumerate(fit.retained, start=1):
        lines.append(f"retained_level{level}: {k}")
    lines.append(f"noise_variance: {_fmt(fit.noise_variance)}")
    for name, share in fit.variance_shares().items():
        lines.append(f"variance_share_{name}: {_fmt(share)}")
    if report.dropped_points:
        lines.append(f"dropped_grid_points: {len(report.dropped_points)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_icc(args: argparse.Namespace) -> int:
    fit = read_fit(args.fit_dir)
    report = icc_report(fit)
    out = Path(args.fit_dir)
    write_json(out / "icc.json", {k: v for k, v in vars(report).items() if k != "pointwise"})
    _write_table(out / "pointwise_icc.csv", *_unkeyed(
        ["t", "icc"], np.column_stack([fit.grid.points, report.pointwise.values])))
    print(f"{report.global_icc:.2f}")
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    fit = read_fit(args.fit_dir)
    group_a = list(dict.fromkeys(args.group_a))
    group_b = list(dict.fromkeys(args.group_b))
    overlap = set(group_a) & set(group_b)
    if overlap:
        raise InvalidParameterError(
            f"groups overlap on measure ids: {sorted(overlap)}"
        )
    known = set(fit.measure_labels)
    unknown = [g for g in group_a + group_b if g not in known]
    if unknown:
        raise InvalidParameterError(
            f"unknown measure ids {unknown}; known ids: "
            f"{sorted(known, key=str)}"
        )
    measure = fit.unit_keys(2)[:, 1]  # of each level-2 row
    scores = fit.scores[1]
    report = two_sample_score_test(
        scores[np.isin(measure, group_a)],
        scores[np.isin(measure, group_b)],
        method=args.method,
        n_permutations=args.perms,
        seed=args.seed,
    )
    write_json(Path(args.fit_dir) / "test_report.json", {
        **asdict(report), "pvalue_method": "permutation", "group_a": group_a, "group_b": group_b})
    print(f"{report.global_p:.4f}")
    return EXIT_OK


def cmd_correlate(args: argparse.Namespace) -> int:
    """Spearman correlation of a level's scores with a per-subject covariate, whose
    file is read as a fit table is: a subject,value header, and each subject once."""
    fit = read_fit(args.fit_dir)
    cov_path = Path(args.covariate)
    if not cov_path.exists():
        raise FileNotFoundError(f"covariate file not found: {cov_path}")
    header, keys, values = _read_numeric(cov_path, 1)
    if header != ["subject", "value"]:
        raise ParseError(f"{cov_path}: header must be subject,value")
    subjects = keys[:, 0].tolist()
    by_subject = dict(zip(subjects, values[:, 0].tolist()))
    if len(by_subject) < len(subjects):
        twice = next(s for s, count in Counter(subjects).items() if count > 1)
        raise ParseError(f"{cov_path}: subject {twice!r} is listed twice")
    missing = [s for s in fit.subject_labels if s not in by_subject]
    if missing:
        raise ParseError(f"covariate file lacks subjects: {missing}")
    scores = fit.scores[args.level - 1]
    covariate = np.array([by_subject[s] for s in fit.unit_keys(args.level)[:, 0]])
    results = score_covariate_correlation(scores, covariate)
    out_path = Path(args.fit_dir) / "score_correlation.csv"
    _write_table(out_path, ["component", "spearman_rho", "p_value"],
                 np.array([r.component for r in results])[:, None],
                 np.array([(r.rho, r.pvalue) for r in results]).reshape(-1, 2))
    print(out_path.read_text(encoding="utf-8"), end="")
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type of --seed: a seed of numpy's SeedSequence is >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every other bad input,
    print one `error:` line and exit 2; its subcommand parsers are of the
    same class."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mfda",
        description=(
            "Multilevel functional PCA: simulate nested curve data, fit "
            "variance-decomposition models, compute functional ICCs, and "
            "test score distributions between groups of sessions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("spec", help="generator spec YAML file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override spec seed")
    p.add_argument(
        "--channel", default=SIMULATED_CHANNEL, help="channel name to write"
    )
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fit", help="fit a nested multilevel model")
    p.add_argument("data", help="long-format CSV file")
    p.add_argument("--channel", required=True, help="channel to analyze")
    p.add_argument("--levels", type=int, choices=(2, 3), default=2)
    p.add_argument("--pve", type=float, default=0.99)
    p.add_argument("--out", required=True, help="fit output directory")
    p.add_argument(
        "--grid-policy", choices=("strict", "intersect"), default="strict"
    )
    p.add_argument(
        "--no-measure-means",
        action="store_true",
        help="skip per-measure mean centering (one-way layout)",
    )
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("icc", help="intraclass correlation of a fit")
    p.add_argument("fit_dir", help="fit directory from `mfda fit`")
    p.set_defaults(handler=cmd_icc)

    p = sub.add_parser("test", help="score-distribution test between groups")
    p.add_argument("fit_dir", help="fit directory from `mfda fit`")
    p.add_argument(
        "--group-a", nargs="+", required=True, metavar="MEASURE"
    )
    p.add_argument(
        "--group-b", nargs="+", required=True, metavar="MEASURE"
    )
    p.add_argument("--method", choices=METHODS, default="energy")
    p.add_argument("--perms", type=int, default=999)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(handler=cmd_test)

    p = sub.add_parser(
        "correlate", help="Spearman correlation of scores vs a covariate"
    )
    p.add_argument("fit_dir", help="fit directory from `mfda fit`")
    p.add_argument(
        "--covariate", required=True, help="CSV with columns subject,value"
    )
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.set_defaults(handler=cmd_correlate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError, MemoryError) as exc:  # MemoryError: data too large to hold
        error, code = exc, EXIT_INPUT
    except PreconditionError as exc:
        error, code = exc, EXIT_PRECONDITION
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        error, code = exc, EXIT_NUMERICAL
    print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
