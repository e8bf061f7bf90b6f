"""Output checks, each from an independent computation or a property of the
method, never from a stored copy of an earlier output.

Every check raises ``CheckFailed`` with a reason; ``selftest.py`` shows that
each one rejects a corrupted output.
"""

from __future__ import annotations

import io
import math

import numpy as np

import fxcast as fx

# (p, h) corners of the paper's grid where the gradient is checked
GRADIENT_CORNERS = ((1, 6), (5, 18), (10, 30))
# rounding of one more floating-point path (predict vs. the fused kernel,
# numpy sums vs. Python sums); corruptions are orders of magnitude larger
REL_TOL = 1e-9
# a table prints 8 decimals, so a printed number is within half a unit of
# the 8th decimal of the true value
PRINT_TOL = 5e-9 * (1.0 + 1e-6)


class CheckFailed(Exception):
    """An output of fxcast disagrees with its independent check."""


def _close(got, want, what, rel=REL_TOL):
    if not abs(got - want) <= rel * max(abs(got), abs(want), 1e-300):
        raise CheckFailed(f"{what}: {got!r} != {want!r}")


def _metrics(actual, predicted) -> tuple:
    """(RMSE, MAE, MAPE in percent) with plain numpy."""
    diff = actual - predicted
    return (
        math.sqrt(float(np.mean(diff * diff))),
        float(np.mean(np.abs(diff))),
        float(np.mean(np.abs(diff / actual))) * 100.0,
    )


def _close_row(row: fx.MetricRow, want: tuple, what: str):
    for name, got, expected in zip(("rmse", "mae", "mape"), (row.rmse, row.mae, row.mape), want):
        _close(got, expected, f"{what} {name}")


def _windows(values, p: int) -> np.ndarray:
    """Rows values[t:t+p] for t = 0 .. len-p, by plain slicing."""
    return np.array([values[t:t + p] for t in range(len(values) - p + 1)])


def _scaled(values, train_values):
    lo, hi = float(np.min(train_values)), float(np.max(train_values))
    return (np.asarray(values) - lo) / (hi - lo), lo, hi


def forward(net: fx.Mlp, inputs: np.ndarray) -> np.ndarray:
    """Logistic hidden layer, linear output, from the network's weights."""
    hidden = 1.0 / (1.0 + np.exp(-(inputs @ net.hidden_weights.T + net.hidden_biases)))
    return hidden @ net.output_weights + net.output_bias


def _sse(params, p, h, inputs, targets) -> float:
    w1 = params[:h * p].reshape(h, p)
    b1 = params[h * p:h * p + h]
    w2 = params[h * p + h:h * p + 2 * h]
    b2 = params[-1]
    hidden = 1.0 / (1.0 + np.exp(-(inputs @ w1.T + b1)))
    resid = hidden @ w2 + b2 - targets
    return float(resid @ resid)


def check_complete(report: fx.GridReport, grid: fx.GridConfig):
    """One record per grid cell, no more, no less."""
    keys = sorted([(c.p, c.h) for c in report.cells] + [(f.p, f.h) for f in report.failures])
    want = [(p, h) for p in grid.input_levels for h in grid.hidden_levels]
    if keys != want:
        raise CheckFailed(f"report holds {len(keys)} cell records, the grid has {len(want)}")


def check_random_walk(report: fx.GridReport, train_values, test_values):
    """Random-walk rows recomputed with plain numpy."""
    predicted = np.concatenate(([train_values[-1]], test_values[:-1]))
    windows = report.config.horizon_spec.windows
    if len(report.random_walk_rows) != len(windows):
        raise CheckFailed("random-walk rows do not match the horizon windows")
    for (label, n), (got_label, row) in zip(windows, report.random_walk_rows):
        if got_label != label:
            raise CheckFailed(f"random-walk row {got_label!r} where {label!r} belongs")
        _close_row(row, _metrics(test_values[:n], predicted[:n]), f"random walk {label}")


def check_in_sample_identity(report: fx.GridReport, train_values):
    """In-sample RMSE = (train max - train min) * sqrt(best_sse / (N - p))."""
    span = float(np.max(train_values) - np.min(train_values))
    n = len(train_values)
    for cell in report.cells:
        want = span * math.sqrt(cell.best_sse / (n - cell.p))
        _close(cell.in_sample.rmse, want, f"cell ({cell.p}, {cell.h}) in-sample RMSE")


def check_cell_forward(report: fx.GridReport, cell: fx.CellResult, net: fx.Mlp,
                       train_values, test_values):
    """``evaluate_cell`` gives the report's row, and a forward pass of our own
    from its weights, on teacher-forced windows of our own, gives the row's
    in-sample and per-horizon metrics."""
    rows = {(c.p, c.h): c for c in report.cells}
    row = rows.get((cell.p, cell.h))
    if row is None or row != cell:
        raise CheckFailed(f"evaluate_cell({cell.p}, {cell.h}) differs from the report row")
    p = cell.p
    scaled_train, lo, hi = _scaled(train_values, train_values)
    windows = _windows(scaled_train, p)[:-1]
    in_pred = lo + forward(net, windows) * (hi - lo)
    _close_row(row.in_sample, _metrics(train_values[p:], in_pred), f"cell ({p}, {cell.h}) in-sample")
    history = np.concatenate((train_values[-p:], test_values))
    test_windows = _windows(_scaled(history, train_values)[0], p)[:len(test_values)]
    out_pred = lo + forward(net, test_windows) * (hi - lo)
    for (label, n), (got_label, got) in zip(report.config.horizon_spec.windows, row.out_sample):
        if got_label != label:
            raise CheckFailed(f"cell ({p}, {cell.h}) horizon {got_label!r} where {label!r} belongs")
        _close_row(got, _metrics(test_values[:n], out_pred[:n]), f"cell ({p}, {cell.h}) {label}")


def restart0_sse(train_values, p: int, h: int, cfg: fx.TrainConfig):
    """Final SSE of restart 0 trained alone, or None if it diverged."""
    scaled_train = _scaled(train_values, train_values)[0]
    data = fx.WindowedDataset(p, _windows(scaled_train, p)[:-1], scaled_train[p:])
    arch = fx.Architecture(p, h)
    seed = fx.restart_seed(cfg.master_seed, p, h, 0)
    run = fx.train(fx.init_weights(arch, seed, cfg.init_half_width), data, cfg)
    return None if run.diverged else run.sse


def check_best_of_restarts(cell: fx.CellResult, restart0):
    """The best of K restarts is no worse than restart 0 alone."""
    if restart0 is not None and not cell.best_sse <= restart0:
        raise CheckFailed(
            f"cell ({cell.p}, {cell.h}) best_sse {cell.best_sse!r} is worse than "
            f"restart 0 alone ({restart0!r})"
        )


def check_gradient(train_values, gradient=fx.gradient, patterns=60, step=1e-5):
    """``gradient`` agrees with central finite differences of our own SSE."""
    scaled_train = _scaled(train_values, train_values)[0]
    for p, h in GRADIENT_CORNERS:
        inputs = _windows(scaled_train, p)[:-1][:patterns]
        targets = scaled_train[p:][:patterns]
        data = fx.WindowedDataset(p, inputs, targets)
        net = fx.init_weights(fx.Architecture(p, h), 1000 * p + h, 0.5)
        g = gradient(net, data)
        analytic = np.concatenate(
            [g.hidden_weights.ravel(), g.hidden_biases, g.output_weights, [g.output_bias]]
        )
        theta = np.concatenate(
            [net.hidden_weights.ravel(), net.hidden_biases, net.output_weights, [net.output_bias]]
        )
        numeric = np.empty_like(theta)
        for k in range(len(theta)):
            plus, minus = theta.copy(), theta.copy()
            plus[k] += step
            minus[k] -= step
            numeric[k] = (_sse(plus, p, h, inputs, targets)
                          - _sse(minus, p, h, inputs, targets)) / (2.0 * step)
        err = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
        if not err <= 1e-6:
            raise CheckFailed(f"gradient at ({p}, {h}) is off finite differences by {err:.2e}")


def check_report_file(data: bytes, reference: fx.GridReport) -> fx.GridReport:
    """``load_report`` of the file equals the in-memory report, and
    ``save_report`` of what it loaded reproduces the file's bytes."""
    try:
        loaded = fx.load_report(io.StringIO(data.decode("utf-8")))
    except fx.FxcastError as exc:
        raise CheckFailed(f"load_report rejected the report file: {exc}") from None
    if loaded != reference:
        raise CheckFailed("the loaded report differs from the in-memory report")
    again = io.StringIO()
    fx.save_report(loaded, again)
    if again.getvalue().encode("utf-8") != data:
        raise CheckFailed("save_report of the loaded report does not reproduce the file")
    return loaded


def _numbers(line: str, count: int, what: str) -> list:
    fields = line.split()
    if len(fields) < count:
        raise CheckFailed(f"{what}: expected {count} fields in {line!r}")
    return fields[-count:] if count else []


def _close_printed(fields, want, what):
    for text, value in zip(fields, want):
        try:
            got = float(text)
        except ValueError:
            raise CheckFailed(f"{what}: {text!r} is not a number") from None
        if not abs(got - value) <= PRINT_TOL + 1e-13 * abs(value):
            raise CheckFailed(f"{what}: printed {text} for {value!r}")


def _row_values(row: fx.MetricRow) -> tuple:
    return row.rmse, row.mae, row.mape


def _mean_values(rows) -> tuple:
    return tuple(float(np.mean([getattr(r, f) for r in rows])) for f in ("rmse", "mae", "mape"))


def _expect_lines(text: str, want: int, view: str) -> list:
    lines = text.splitlines()
    if len(lines) != want:
        raise CheckFailed(f"view {view}: {len(lines)} lines, the grid implies {want}")
    return lines


def _expect_cell_line(line: str, lead: tuple, what: str):
    fields = line.split()
    if tuple(fields[:len(lead)]) != tuple(str(v) for v in lead):
        raise CheckFailed(f"{what}: row {line!r} is not for {lead}")


def check_views(views: dict, report: fx.GridReport):
    """Each `fxcast report` view has the rows the grid implies, and its
    numbers match the report (cells) or our own means (averages) to 8
    decimals."""
    cfg = report.config
    ps, hs = cfg.input_levels, cfg.hidden_levels
    windows = cfg.horizon_spec.windows
    cells = {(c.p, c.h): c for c in report.cells}
    failed = {(f.p, f.h) for f in report.failures}

    def cell_line(line, lead, row, what):
        _expect_cell_line(line, lead, what)
        if (lead[-2], lead[-1]) in failed:
            if "FAILED:" not in line:
                raise CheckFailed(f"{what}: failed cell {lead} printed as {line!r}")
            return
        _close_printed(_numbers(line, 3, what), _row_values(row(cells[lead[-2], lead[-1]])), what)

    # in_sample: header, then per input level one row per cell and an Avgr row
    with_cells = [p for p in ps if any((p, h) in cells for h in hs)]
    lines = iter(_expect_lines(views["in_sample"], 1 + len(ps) * len(hs) + len(with_cells), "in_sample"))
    next(lines)
    for p in ps:
        for h in hs:
            cell_line(next(lines), (p, h), lambda c: c.in_sample, "in_sample")
        if p in with_cells:
            line = next(lines)
            _expect_cell_line(line, ("Avgr",), "in_sample")
            group = [cells[p, h].in_sample for h in hs if (p, h) in cells]
            _close_printed(_numbers(line, 3, "in_sample Avgr"), _mean_values(group), f"in_sample Avgr p={p}")

    # out_sample: per horizon a header, one hidden-averaged row per input level, the RW row
    rw = dict(report.random_walk_rows)
    lines = iter(_expect_lines(views["out_sample"], len(windows) * (len(ps) + 3) - 1, "out_sample"))
    for block, (label, _) in enumerate(windows):
        if block:
            next(lines)
        next(lines)
        for p in ps:
            line = next(lines)
            _expect_cell_line(line, (p,), "out_sample")
            group = [dict(cells[p, h].out_sample)[label] for h in hs if (p, h) in cells]
            if group:
                _close_printed(_numbers(line, 3, "out_sample"), _mean_values(group), f"out_sample {label} p={p}")
        line = next(lines)
        _expect_cell_line(line, ("RW",), "out_sample")
        _close_printed(_numbers(line, 3, "out_sample RW"), _row_values(rw[label]), f"out_sample {label} RW")

    # hidden_effect: per horizon a header and one row per cell
    sample = f"N={report.train_len}"
    lines = iter(_expect_lines(views["hidden_effect"], len(windows) * (len(ps) * len(hs) + 2) - 1, "hidden_effect"))
    for block, (label, _) in enumerate(windows):
        if block:
            next(lines)
        next(lines)
        for p in ps:
            for h in hs:
                cell_line(next(lines), (sample, p, h),
                          lambda c: dict(c.out_sample)[label], f"hidden_effect {label}")


def check_same(first, other, what: str):
    """Every round, and every worker count, gives the same output."""
    if other != first:
        raise CheckFailed(f"{what} differs from the first")
