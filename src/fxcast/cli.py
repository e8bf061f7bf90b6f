"""Command-line interface: ingest, synth, train, grid, report.

Standard output carries only machine-parseable results (summaries and
tables); progress and diagnostics go to standard error, so any command with
identical flags, files, and seed is byte-reproducible on stdout and in its
output files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

from .errors import DataError, DivergenceError, FxcastError
from .experiment import (
    _SYNTH,
    _SYNTH_KINDS,
    _VIEWS,
    GridConfig,
    _lead_format,
    _metric_format,
    evaluate_cell,
    load_report,
    random_walk_rows,
    render_table,
    run_grid,
    synthesize_series,
)
from .mlp import TrainConfig, save_model
from .series import ColumnFormat, parse_series, split_by_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_IO = 5

SEED_ENV_VAR = "FXCAST_SEED"
DEFAULT_TEST_LEN = 52


def _number_parser(kind: str, convert, accept, rule: str):
    """An argparse type for ``kind``: ``convert`` of the text, which must pass ``accept``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_positive_int = _number_parser("an integer", int, lambda v: v >= 1, "must be at least 1")
_positive_float = _number_parser("a number", float, lambda v: 0.0 < v < math.inf,
                                 "must be positive and finite")
_nonnegative_float = _number_parser("a number", float, lambda v: 0.0 <= v < math.inf,
                                    "must be nonnegative and finite")


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


def _seed(args) -> int:
    """The master seed: ``--seed``, else ``$FXCAST_SEED``, else 0."""
    raw = os.environ.get(SEED_ENV_VAR, "0") if args.seed is None else args.seed
    try:
        return int(raw)
    except ValueError:
        raise DataError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _add_format_flags(cmd):
    cmd.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
    cmd.add_argument("--date-col", type=int, default=0, help="date column index")
    cmd.add_argument("--value-col", type=int, default=1, help="value column index")


# TrainConfig field: (parser, help) of the flag named after it
_TRAIN_FLAGS = {
    "learning_rate": (_positive_float, "gradient-descent step size"),
    "max_epochs": (_positive_int, "epoch cap per restart"),
    "min_sse_delta": (_nonnegative_float, "early-stop threshold on per-epoch SSE improvement"),
    "restarts": (_positive_int, "independent trainings per cell (default %(default)s)"),
    "init_half_width": (_positive_float, "uniform initialization half-width"),
}


def _add_sweep_flags(cmd):
    """The series file and the flags that ``_sweep`` reads."""
    cmd.add_argument("data")
    _add_format_flags(cmd)
    cmd.add_argument(
        "--train-len", type=_positive_int, default=None,
        help="training observations (default: everything before the test span)",
    )
    cmd.add_argument(
        "--test-len", type=_positive_int, default=DEFAULT_TEST_LEN,
        help=f"held-out observations at the end (default {DEFAULT_TEST_LEN})",
    )
    cmd.add_argument("--seed", type=int, default=None,
                     help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    for f in fields(TrainConfig):
        if f.name != "master_seed":  # --seed or $FXCAST_SEED sets it
            parse, text = _TRAIN_FLAGS[f.name]  # a KeyError for a field with no flag
            cmd.add_argument("--" + f.name.replace("_", "-"), type=parse, default=f.default,
                             help=text)
    cmd.add_argument("--no-scale", action="store_true",
                     help="skip [0,1] min-max scaling of the training data")


def _read_series(args):
    fmt = ColumnFormat(**{f.name: getattr(args, f.name) for f in fields(ColumnFormat)})
    path = Path(args.data)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_series(handle, fmt, name=path.stem)


def _sweep(args, input_levels, hidden_levels):
    """The train series, the test series and the GridConfig that the flags
    of ``train`` or ``grid`` ask for, over the given levels."""
    series = _read_series(args)
    train_len, test_len = args.train_len, args.test_len
    if train_len is None:
        train_len = len(series) - test_len
        if train_len < 1:
            raise DataError(
                f"series of length {len(series)} leaves no training data "
                f"before a {test_len}-point test span"
            )
    train_cfg = TrainConfig(**{name: getattr(args, name) for name in _TRAIN_FLAGS},
                            master_seed=_seed(args))
    return (*split_by_count(series, train_len, test_len),
            GridConfig(input_levels, hidden_levels, train_cfg, scale=not args.no_scale))


def _print_metric_block(rows):
    widths = (14, 9, 16, 16, 16)
    print((_lead_format(widths) % ("Sample", "Horizon", "RMSE", "MAE", "MAPE")).rstrip())
    lead_format, metric_format = _lead_format(widths[:2]), _metric_format(widths[2:])
    for sample, horizon, row in rows:
        print(lead_format % (sample, horizon) + metric_format % (row.rmse, row.mae, row.mape))


def cmd_ingest(args) -> int:
    series = _read_series(args)
    print(
        f"{len(series)} observations, "
        f"{series.dates[0].isoformat()}..{series.dates[-1].isoformat()}, "
        f"min {float(series.values.min())!r}, max {float(series.values.max())!r}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    params = {name: getattr(args, name) for _, defaults in _SYNTH.values() for name in defaults
              if getattr(args, name) is not None}
    series = synthesize_series(args.kind, args.n, seed=_seed(args), **params)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates, series.values):
            handle.write(f"{day.isoformat()},{float(value)!r}\n")
    print(f"wrote {len(series)} observations to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    train_series, test_series, cfg = _sweep(args, (args.inputs,), (args.hidden,))
    if args.out:  # fail on an unwritable path before training, and leave no new file
        existed = os.path.exists(args.out)
        open(args.out, "a", encoding="utf-8").close()
        if not existed:
            os.remove(args.out)
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
    train_series, test_series, grid = _sweep(args, args.inputs, args.hidden)

    def progress(done, total, item):
        if hasattr(item, "error"):
            line = f"[{done}/{total}] p={item.p} h={item.h} FAILED: {item.error}"
        else:
            line = (
                f"[{done}/{total}] p={item.p} h={item.h} "
                f"sse={item.best_sse:.6g} ({item.train_seconds:.1f}s)"
            )
        print(line, file=sys.stderr)

    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as sink:
        report = run_grid(
            train_series, test_series, grid,
            workers=args.workers, sink=sink, progress=progress,
        )

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
    for kind, (_, defaults) in _SYNTH.items():
        for name, (default, text) in defaults.items():
            synth.add_argument(f"--{name}", type=float, help=f"{kind}: {text} (default {default})")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth)

    train = commands.add_parser("train", help="train one architecture and report metrics")
    train.add_argument("--inputs", type=_positive_int, required=True,
                       help="input nodes (window length p)")
    train.add_argument("--hidden", type=_positive_int, required=True,
                       help="hidden nodes h")
    train.add_argument("--out", default=None, help="path for the serialized network")
    _add_sweep_flags(train)
    train.set_defaults(func=cmd_train)

    grid = commands.add_parser("grid", help="run the full architecture sweep")
    grid.add_argument("--inputs", type=_levels, default=GridConfig.input_levels,
                      help="input-node levels, e.g. 1..10 (default)")
    grid.add_argument("--hidden", type=_levels, default=GridConfig.hidden_levels,
                      help="hidden-node levels, e.g. 6,12,18,24,30 (default)")
    grid.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                      help="worker processes (default: machine parallelism)")
    grid.add_argument("--out", default=None, help="report file (streamed incrementally)")
    _add_sweep_flags(grid)
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
    except (FxcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DivergenceError):
            return EXIT_TRAINING
        return EXIT_IO if isinstance(exc, OSError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
