"""Command line interface.

Subcommands: ``eval`` (metrics report, optional curve artifacts), ``check``
(random-mask exchange invariance probe), ``duplicate`` (write the
class-exchange doubled file), ``synth`` (synthetic prediction files), and
``study`` (chance-level convergence table).  The first three take the
decision threshold as ``--s-star`` (default 0) and centre the scores once,
as they are read: a score s becomes ``s - s_star``, whose class and
confidence are those of s against ``s_star`` bit for bit, and whose
exchange, a negation, is exact.  ``eval`` sweeps the scores as read for
AUROC and the ROC, and ``duplicate`` writes the rows as read, then each
exchanged row as ``s_star + m`` for its centred mirror m.

Exit codes: 0 success / invariant holds, 1 invariance violation, 2 usage
error, 3 I/O, parse, or metric error (including a score whose shift by
``s_star``, or whose written exchange, overflows).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as file_io
from .errors import LxcimError
from .exchange import check_rank_lxc_invariance, duplicate_dataset
from .model import Dataset
from .metrics import (
    CurveKind,
    _accuracy_rate_curve,
    _cumulative_accuracy_curve,
    _rank_and_score_sweep,
    _report,
    _roc_curve,
    accuracy,
    audrc,
    auroc,
    lxcim,
)
from .svg import Series, line_chart
from .verify import GeneratorConfig, GeneratorKind, convergence_study, generate

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DATA = 3

_CHECK_METRICS = ("lxcim", "audrc", "accuracy", "auroc")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lxcim",
        description="Exchange-invariant evaluation of binary decision rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingestion = argparse.ArgumentParser(add_help=False)
    ingestion.add_argument("--input", required=True, help="prediction file to read")
    ingestion.add_argument("--format", choices=file_io.FORMATS, default="csv")
    ingestion.add_argument(
        "--positive-label", default="1", help="label text mapped to class 1 (default: 1)"
    )
    ingestion.add_argument(
        "--s-star", type=float, default=0.0,
        help="decision threshold (default: 0), e.g. 0.5 for probability scores; each score s "
        "is read as s - s_star, which keeps its class and confidence and makes the exchange exact",
    )

    p_eval = sub.add_parser("eval", parents=[ingestion], help="compute the metrics report")
    p_eval.add_argument("--output", choices=("table", "json"), default="table")
    p_eval.add_argument(
        "--curves-dir", default=None, help="directory for curve CSVs and SVG plots"
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_check = sub.add_parser(
        "check", parents=[ingestion], help="probe exchange invariance with random masks"
    )
    p_check.add_argument(
        "--metric", choices=_CHECK_METRICS, required=True,
        help="metric to probe, on the scores centred as s - s_star; auroc can then differ from "
        "eval's, which sweeps the scores as read, where centring merges distinct scores",
    )
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(handler=_cmd_check)

    p_dup = sub.add_parser(
        "duplicate", parents=[ingestion], help="write the dataset unioned with its exchange"
    )
    p_dup.add_argument("--output", required=True, help="path for the duplicated file")
    p_dup.set_defaults(handler=_cmd_duplicate)

    p_synth = sub.add_parser("synth", help="write a synthetic prediction file")
    p_synth.add_argument(
        "--kind", choices=[k.value for k in GeneratorKind], required=True
    )
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--p", type=float, default=None, help="agreement rate for --kind biased")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--format", choices=file_io.FORMATS, default="csv")
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(handler=_cmd_synth)

    p_study = sub.add_parser("study", help="convergence of chance-level data")
    p_study.add_argument(
        "--sizes", default="10,100,1000", help="comma-separated ascending dataset sizes"
    )
    p_study.add_argument("--seeds", type=int, default=20, help="datasets per size")
    p_study.add_argument("--seed", type=int, default=0, help="base seed")
    p_study.add_argument("--output", choices=("table", "json"), default="table")
    p_study.add_argument("--curves-dir", default=None, help="directory for per-size curves")
    p_study.set_defaults(handler=_cmd_study)

    return parser


def _reference_series(kind: CurveKind) -> list[Series]:
    if kind is CurveKind.CUM_ACC:
        return [
            Series("ideal", (0.0, 1.0), (0.0, 1.0), color="#888888", dashed=True),
            Series("random", (0.0, 1.0), (0.0, 0.5), color="#bbbbbb", dashed=True),
        ]
    if kind is CurveKind.ACC_RATE:
        return [
            Series("ideal", (0.0, 1.0), (1.0, 1.0), color="#888888", dashed=True),
            Series("random", (0.0, 1.0), (0.5, 0.5), color="#bbbbbb", dashed=True),
        ]
    return [
        Series("ideal", (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), color="#888888", dashed=True),
        Series("random", (0.0, 1.0), (0.0, 1.0), color="#bbbbbb", dashed=True),
    ]


_CHART_TEXT = {
    CurveKind.CUM_ACC: ("Cumulative accuracy", "decision rate", "correct weight fraction"),
    CurveKind.ACC_RATE: ("Accuracy against decision rate", "decision rate", "accuracy"),
    CurveKind.ROC: ("ROC", "false positive rate", "true positive rate"),
}


def _write_chart(path: Path, curve) -> None:
    title, x_label, y_label = _CHART_TEXT[curve.kind]
    chart = line_chart(
        [Series(curve.kind.value.replace("_", " "), curve.x, curve.y)]
        + _reference_series(curve.kind),
        title=title,
        x_label=x_label,
        y_label=y_label,
    )
    path.write_text(chart, encoding="utf-8")


def _write_decision_rate_artifacts(directory: Path, cumulative, rate, suffix: str = "") -> None:
    """The CSV and the chart of both decision-rate curves of one ranking."""
    cumulative_name, rate_name = (curve.kind.value + suffix for curve in (cumulative, rate))
    file_io.write_curve_csv(directory / f"{cumulative_name}.csv", cumulative)
    file_io.write_curve_csv(directory / f"{rate_name}.csv", rate)
    _write_chart(directory / f"{cumulative_name}.svg", cumulative)
    _write_chart(directory / f"{rate_name}.svg", rate)


def _cmd_eval(parser, args) -> int:
    rows = file_io.read_prediction_rows(args.input, args.format)
    read, spec, _ = file_io.build_dataset(rows, args.positive_label, path=args.input)
    # ranked centred and swept as read: centring can merge distinct scores, which AUROC tells apart
    view, sweep = _rank_and_score_sweep(file_io._centred(read, args.s_star, args.input), spec, read)
    rep = _report(view, sweep)
    payload = {**rep.as_dict(), "n": len(read), "total_weight": read.total_weight}
    for key, value in payload.items():
        if value is not None and not math.isfinite(value):
            print(f"lxcim: {key} is {value!r}: the weights overflow float arithmetic", file=sys.stderr)
            return EXIT_DATA

    if args.curves_dir is not None:
        directory = Path(args.curves_dir)
        directory.mkdir(parents=True, exist_ok=True)
        _write_decision_rate_artifacts(
            directory, _cumulative_accuracy_curve(view), _accuracy_rate_curve(view)
        )
        if sweep is None:
            print("note: single-class data, skipping ROC artifacts", file=sys.stderr)
        else:
            roc = _roc_curve(sweep)
            file_io.write_curve_csv(directory / "roc.csv", roc)
            _write_chart(directory / "roc.svg", roc)

    if args.output == "json":
        print(json.dumps(payload, allow_nan=False))
    else:
        width = max(len(key) for key in payload)
        for key, value in payload.items():
            if value is None:
                text = "n/a"
            elif isinstance(value, int):
                text = str(value)
            else:
                text = f"{value:.6f}"
            print(f"{key:<{width}}  {text}")
    return EXIT_OK


def _cmd_check(parser, args) -> int:
    dataset, spec = file_io.ingest(args.input, args.format, args.positive_label, args.s_star)

    if args.metric == "auroc":
        metric = auroc
    else:
        metric = functools.partial(
            {"lxcim": lxcim, "audrc": audrc, "accuracy": accuracy}[args.metric], spec=spec
        )
    report = check_rank_lxc_invariance(
        metric, dataset, spec, trials=args.trials, seed=args.seed
    )
    print(
        f"metric={args.metric} baseline={report.baseline!r} trials={report.trials} "
        f"max_deviation={report.max_deviation:.3e} tolerance={report.tolerance:g}"
    )
    if report.passed:
        print("invariant holds")
        return EXIT_OK
    print(f"violation witness: {report.witness.describe()} (seed {args.seed})")
    return EXIT_VIOLATION


def _cmd_duplicate(parser, args) -> int:
    rows = file_io.read_prediction_rows(args.input, args.format)
    read, spec, negative = file_io.build_dataset(rows, args.positive_label, path=args.input)
    dataset = file_io._centred(read, args.s_star, args.input)
    doubled = duplicate_dataset(dataset, spec)
    if dataset is not read:  # the rows as read, then each centred mirror m written as s_star + m
        a, n = args.s_star, len(read)
        mirrors = file_io._shifted(
            doubled.scores[n:], a, args.input,
            lambda i: f"the exchange of score {float(read.scores[i])!r} about s_star {a!r} is not finite",
        )
        doubled = Dataset._from_valid(np.concatenate((read.scores, mirrors)), doubled.labels, doubled.weights)
    if negative is None:
        negative = "0" if args.positive_label != "0" else "1"
    file_io.write_prediction_file(args.output, doubled, args.format, args.positive_label, negative)
    print(f"wrote {len(doubled)} rows to {args.output}")
    return EXIT_OK


def _cmd_synth(parser, args) -> int:
    config = GeneratorConfig(
        kind=GeneratorKind(args.kind), n=args.n, seed=args.seed, p=args.p
    )
    dataset = generate(config)
    file_io.write_prediction_file(args.output, dataset, args.format)
    print(f"wrote {len(dataset)} rows to {args.output}")
    return EXIT_OK


def _cmd_study(parser, args) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")

    result = convergence_study(sizes, args.seeds, base_seed=args.seed)

    if args.curves_dir is not None:
        directory = Path(args.curves_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for row in result.rows:
            _write_decision_rate_artifacts(
                directory, row.cumulative_curve, row.rate_curve, f"_n{row.size}"
            )

    if args.output == "json":
        print(
            json.dumps(
                {
                    "seeds": result.seeds,
                    "rows": [
                        {
                            "size": row.size,
                            "mean_sup_cum_deviation": row.mean_sup_cum_deviation,
                            "mean_sup_rate_deviation": row.mean_sup_rate_deviation,
                        }
                        for row in result.rows
                    ],
                }
            )
        )
    else:
        print(f"{'size':>8}  {'sup|G - i/2|':>14}  {'head sup|acc - 1/2|':>20}")
        for row in result.rows:
            print(
                f"{row.size:>8}  {row.mean_sup_cum_deviation:>14.6f}  "
                f"{row.mean_sup_rate_deviation:>20.6f}"
            )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflowing weight total is reported once, below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(parser, args)
    except LxcimError as exc:
        print(f"lxcim: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"lxcim: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # argument values the library rejects, e.g. --p outside [0, 1]
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
