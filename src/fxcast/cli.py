"""Command-line interface: ingest, synth, train, grid, report.

Standard output carries only machine-parseable results (summaries and
tables); progress and diagnostics go to standard error, so any command with
identical flags, files, and seed is byte-reproducible on stdout and in its
output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    DataError,
    DivergenceError,
    ParseError,
    ReportFormatError,
)
from .experiment import (
    _SYNTH_KINDS,
    _VIEWS,
    GridConfig,
    _metric_columns,
    _render_row,
    evaluate_cell,
    load_report,
    random_walk_rows,
    render_table,
    run_grid,
    synthesize_series,
)
from .metrics import HorizonSpec
from .mlp import TrainConfig, save_model
from .series import ColumnFormat, parse_series, split_by_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_IO = 5

SEED_ENV_VAR = "FXCAST_SEED"
DEFAULT_TEST_LEN = 52


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value < 0.0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _levels(text: str) -> tuple:
    """Parse a level list: '6,12,18' or '1..10' or a mix of both."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad range {part!r}") from None
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad level {part!r}") from None
    if not values or values[0] < 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            "levels must be positive and strictly increasing"
        )
    return tuple(values)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise DataError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _add_format_flags(cmd):
    cmd.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
    cmd.add_argument("--date-col", type=int, default=0, help="date column index")
    cmd.add_argument("--value-col", type=int, default=1, help="value column index")


def _add_split_flags(cmd):
    cmd.add_argument(
        "--train-len", type=_positive_int, default=None,
        help="training observations (default: everything before the test span)",
    )
    cmd.add_argument(
        "--test-len", type=_positive_int, default=DEFAULT_TEST_LEN,
        help=f"held-out observations at the end (default {DEFAULT_TEST_LEN})",
    )


def _add_train_flags(cmd):
    cmd.add_argument("--restarts", type=_positive_int, default=50,
                     help="independent trainings per cell (default 50)")
    cmd.add_argument("--seed", type=int, default=None,
                     help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    cmd.add_argument("--learning-rate", type=_positive_float, default=None,
                     help="gradient-descent step size")
    cmd.add_argument("--max-epochs", type=_positive_int, default=None,
                     help="epoch cap per restart")
    cmd.add_argument("--min-sse-delta", type=_nonnegative_float, default=None,
                     help="early-stop threshold on per-epoch SSE improvement")
    cmd.add_argument("--init-half-width", type=_positive_float, default=None,
                     help="uniform initialization half-width")
    cmd.add_argument("--no-scale", action="store_true",
                     help="skip [0,1] min-max scaling of the training data")


def _read_series(args):
    fmt = ColumnFormat(
        delimiter=args.delimiter, date_col=args.date_col, value_col=args.value_col
    )
    path = Path(args.data)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_series(handle, fmt, name=path.stem)


def _split(args, series):
    test_len = args.test_len
    train_len = args.train_len
    if train_len is None:
        train_len = len(series) - test_len
        if train_len < 1:
            raise DataError(
                f"series of length {len(series)} leaves no training data "
                f"before a {test_len}-point test span"
            )
    return split_by_count(series, train_len, test_len)


def _train_config(args) -> TrainConfig:
    defaults = TrainConfig()
    seed = args.seed if args.seed is not None else _default_seed()
    return TrainConfig(
        learning_rate=args.learning_rate or defaults.learning_rate,
        max_epochs=args.max_epochs or defaults.max_epochs,
        min_sse_delta=(
            args.min_sse_delta if args.min_sse_delta is not None
            else defaults.min_sse_delta
        ),
        restarts=args.restarts,
        init_half_width=args.init_half_width or defaults.init_half_width,
        master_seed=seed,
    )


def _print_metric_block(rows):
    widths = (14, 9, 16, 16, 16)
    print(_render_row(("Sample", "Horizon", "RMSE", "MAE", "MAPE"), widths))
    for sample, horizon, row in rows:
        print(_render_row((sample, horizon, *_metric_columns(row)), widths))


def cmd_ingest(args) -> int:
    series = _read_series(args)
    print(
        f"{len(series)} observations, "
        f"{series.dates[0].isoformat()}..{series.dates[-1].isoformat()}, "
        f"min {float(series.values.min())!r}, max {float(series.values.max())!r}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    params = {
        name: getattr(args, name)
        for name in ("r", "x0", "phi", "sigma", "y0", "omega")
        if getattr(args, name) is not None
    }
    series = synthesize_series(args.kind, args.n, seed=seed, **params)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates, series.values):
            handle.write(f"{day.isoformat()},{float(value)!r}\n")
    print(f"wrote {len(series)} observations to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    series = _read_series(args)
    train_series, test_series = _split(args, series)
    cfg = GridConfig(
        input_levels=(args.inputs,),
        hidden_levels=(args.hidden,),
        train_cfg=_train_config(args),
        horizon_spec=HorizonSpec(),
        scale=not args.no_scale,
    )
    cell, net = evaluate_cell(train_series, test_series, args.inputs, args.hidden, cfg)
    rows = [("in-sample", "-", cell.in_sample)]
    rows += [("out-sample", label, row) for label, row in cell.out_sample]
    rows += [("RW", label, row)
             for label, row in random_walk_rows(train_series, test_series, cfg.horizon_spec)]
    _print_metric_block(rows)
    print(f"best_sse {cell.best_sse!r}")
    if args.out:
        save_model(net, args.out)
        print(f"model written to {args.out}")
    return EXIT_OK


def cmd_grid(args) -> int:
    series = _read_series(args)
    train_series, test_series = _split(args, series)
    grid = GridConfig(
        input_levels=args.inputs,
        hidden_levels=args.hidden,
        train_cfg=_train_config(args),
        horizon_spec=HorizonSpec(),
        scale=not args.no_scale,
    )

    def progress(done, total, item):
        if hasattr(item, "error"):
            line = f"[{done}/{total}] p={item.p} h={item.h} FAILED: {item.error}"
        else:
            line = (
                f"[{done}/{total}] p={item.p} h={item.h} "
                f"sse={item.best_sse:.6g} ({item.train_seconds:.1f}s)"
            )
        print(line, file=sys.stderr)

    sink = None
    try:
        if args.out:
            sink = open(args.out, "w", encoding="utf-8")
        report = run_grid(
            train_series, test_series, grid,
            workers=args.workers, sink=sink, progress=progress,
        )
    finally:
        if sink is not None:
            sink.close()

    for index, view in enumerate(_VIEWS):
        if index:
            print()
        print(f"# {view}")
        print(render_table(report, view), end="")
    if not report.cells:
        print("error: every grid cell failed", file=sys.stderr)
        return EXIT_TRAINING
    return EXIT_OK


def cmd_report(args) -> int:
    report = load_report(args.report)
    view = "out_sample_by_input" if args.view == "out_sample" else args.view
    print(render_table(report, view), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxcast",
        description="Sliding-window MLP forecasting of a univariate series, "
        "evaluated against a random-walk baseline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="validate and summarize a series file")
    ingest.add_argument("data", help="delimited (date, value) file")
    _add_format_flags(ingest)
    ingest.set_defaults(func=cmd_ingest)

    synth = commands.add_parser("synth", help="generate a synthetic benchmark series")
    synth.add_argument("--kind", required=True, choices=_SYNTH_KINDS)
    synth.add_argument("--n", type=_positive_int, required=True,
                       help="number of observations")
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--r", type=float, default=None, help="logistic-map growth rate")
    synth.add_argument("--x0", type=float, default=None, help="logistic-map start value")
    synth.add_argument("--phi", type=float, default=None, help="AR(1) coefficient")
    synth.add_argument("--sigma", type=float, default=None, help="AR(1) noise half-width")
    synth.add_argument("--y0", type=float, default=None, help="AR(1) start value")
    synth.add_argument("--omega", type=float, default=None, help="sine angular step")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth)

    train = commands.add_parser("train", help="train one architecture and report metrics")
    train.add_argument("data")
    train.add_argument("--inputs", type=_positive_int, required=True,
                       help="input nodes (window length p)")
    train.add_argument("--hidden", type=_positive_int, required=True,
                       help="hidden nodes h")
    train.add_argument("--out", default=None, help="path for the serialized network")
    _add_format_flags(train)
    _add_split_flags(train)
    _add_train_flags(train)
    train.set_defaults(func=cmd_train)

    grid = commands.add_parser("grid", help="run the full architecture sweep")
    grid.add_argument("data")
    grid.add_argument("--inputs", type=_levels, default=tuple(range(1, 11)),
                      help="input-node levels, e.g. 1..10 (default)")
    grid.add_argument("--hidden", type=_levels, default=(6, 12, 18, 24, 30),
                      help="hidden-node levels, e.g. 6,12,18,24,30 (default)")
    grid.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                      help="worker processes (default: machine parallelism)")
    grid.add_argument("--out", default=None, help="report file (streamed incrementally)")
    _add_format_flags(grid)
    _add_split_flags(grid)
    _add_train_flags(grid)
    grid.set_defaults(func=cmd_grid)

    report = commands.add_parser("report", help="render a saved report")
    report.add_argument("report")
    report.add_argument(
        "--view",
        default="in_sample",
        choices=(*_VIEWS, "out_sample"),
    )
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, DataError, ReportFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
