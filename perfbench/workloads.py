"""The three workloads: the series each runs on, the grid it sweeps, and one
round of its timed body.

An operation is one grid cell; on ``wide_grid`` each ``fxcast`` command
call is one more. Every round of a workload attempts the same operations.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import fxcast as fx
import fxcast.cli

TEST_LEN = 52  # the CLI default: one year of weekly points
VIEWS = ("in_sample", "out_sample", "hidden_effect")
TIMING_CELL = (10, 30)  # the paper's largest cell, timed on every workload
NPROC = os.cpu_count() or 1  # the CLI's default worker count


@dataclass(frozen=True)
class Workload:
    name: str
    train_len: int
    input_levels: tuple
    hidden_levels: tuple
    restarts: int
    max_epochs: int
    serial: bool  # workers=1; otherwise workers=nproc, the CLI default
    via_cli: bool  # `fxcast grid` then `fxcast report` per view, in-process

    def grid(self, seed: int) -> fx.GridConfig:
        return fx.GridConfig(
            input_levels=self.input_levels,
            hidden_levels=self.hidden_levels,
            train_cfg=fx.TrainConfig(
                restarts=self.restarts, max_epochs=self.max_epochs, master_seed=seed
            ),
        )

    @property
    def workers(self) -> int:
        return 1 if self.serial else NPROC

    @property
    def check_cell(self) -> tuple:
        """The cell checked against an independent forward pass."""
        return self.input_levels[-1], self.hidden_levels[-1]

    def operations_per_round(self) -> int:
        cells = len(self.input_levels) * len(self.hidden_levels)
        return cells + (1 + len(VIEWS) if self.via_cli else 0)

    def tiny(self) -> "Workload":
        """The same workload shrunk to a fraction of a second, for the self-test."""
        return replace(self, train_len=60, input_levels=(1, 2, 3), hidden_levels=(2, 4),
                       restarts=2, max_epochs=5)


PAPER_GRID = dict(input_levels=tuple(range(1, 11)), hidden_levels=(6, 12, 18, 24, 30))

WORKLOADS = {
    w.name: w
    for w in (
        # the paper's setting: a ~1000-point span over the pool, where the
        # epoch kernel's arithmetic dominates and the pool costs little
        Workload(
            name="sweep_paper",
            train_len=1043, restarts=2, max_epochs=150, serial=False, via_cli=False,
            **PAPER_GRID,
        ),
        # the paper's sample-size factor, serial: the fixed Python cost of
        # each epoch dominates, and the pool is bypassed
        Workload(
            name="sweep_short",
            train_len=200, restarts=2, max_epochs=150, serial=True, via_cli=False,
            **PAPER_GRID,
        ),
        # many cheap cells through the CLI: pool dispatch, per-cell bookkeeping
        # and report writes and reads dominate, the kernel does little
        Workload(
            name="wide_grid",
            train_len=300, input_levels=tuple(range(1, 41)),
            hidden_levels=tuple(range(1, 26)), restarts=1, max_epochs=5,
            serial=False, via_cli=True,
        ),
    )
}


def make_series(n: int, seed: int, name: str) -> fx.TimeSeries:
    """A weekly series at an exchange-rate-like level of about 40..45.

    It is 40 + 5 * (logistic map, r=4, x0=0.3), a chaotic signal that is the
    same for every seed, plus AR(1) noise (phi=0.8, uniform half-width 0.2)
    drawn from ``seed``. The fixed signal keeps the forecast-quality metric
    comparable across seeds; the noise makes each seed's input distinct.
    """
    signal = fx.synthesize_series("logistic_map", n, x0=0.3)
    noise = fx.synthesize_series("noisy_ar1", n, seed=seed, phi=0.8, sigma=0.2)
    return fx.TimeSeries(signal.dates, 40.0 + 5.0 * signal.values + noise.values, name)


def write_series(series: fx.TimeSeries, path: Path):
    """Write a series in the format `fxcast synth` writes."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates, series.values):
            handle.write(f"{day.isoformat()},{float(value)!r}\n")


@dataclass
class CliRound:
    """What one round of `fxcast grid` plus `fxcast report` per view left behind."""

    exit_codes: tuple
    views: dict  # view name -> stdout of `fxcast report --view <name>`


def _levels(levels) -> str:
    return ",".join(str(v) for v in levels)


def cli_grid_args(wl: Workload, seed: int, data: Path, report: Path, workers=None) -> list:
    args = [
        "grid", str(data),
        "--train-len", str(wl.train_len), "--test-len", str(TEST_LEN),
        "--inputs", _levels(wl.input_levels), "--hidden", _levels(wl.hidden_levels),
        "--restarts", str(wl.restarts), "--max-epochs", str(wl.max_epochs),
        "--seed", str(seed), "--out", str(report),
    ]
    if workers is not None:
        args += ["--workers", str(workers)]
    return args


def call_cli(args, span=None):
    """Run one `fxcast` command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if span is None:
            code = fxcast.cli.main(args)
        else:
            with span("cli.main", command=args[0]):
                code = fxcast.cli.main(args)
    return code, out.getvalue()


def cli_round(wl: Workload, seed: int, data: Path, report: Path, span=None) -> CliRound:
    """`fxcast grid --out` with the default workers, then `fxcast report` per view."""
    codes = [call_cli(cli_grid_args(wl, seed, data, report), span)[0]]
    views = {}
    for view in VIEWS:
        code, text = call_cli(["report", str(report), "--view", view], span)
        codes.append(code)
        views[view] = text
    return CliRound(exit_codes=tuple(codes), views=views)
