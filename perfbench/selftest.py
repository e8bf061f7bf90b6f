#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload at a tiny size, shows that every check accepts the real
outputs, then feeds each check a corrupted copy (one perturbed metric, one
dropped record, one changed byte, a wrong gradient, ...) and shows that it
rejects it. Exits 1 if any check accepts a corruption or rejects a real
output.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from source import OUT, use_checkout_source

use_checkout_source()

import fxcast as fx  # noqa: E402  (after the checkout's sources are on the path)

import checks  # noqa: E402
from workloads import TEST_LEN, WORKLOADS, cli_round, make_series, write_series  # noqa: E402

SEED = 3
NUDGE = 1.0 + 1e-6  # far above rounding, far below anything a table shows


def nudged(row: fx.MetricRow, field="rmse") -> fx.MetricRow:
    return replace(row, **{field: getattr(row, field) * NUDGE})


def with_cell(report, index, **changes):
    cells = list(report.cells)
    cells[index] = replace(cells[index], **changes)
    return replace(report, cells=tuple(cells))


def nudge_line(text: str, line_no: int) -> str:
    """Add 1e-6 to the last number printed on a line of a table."""
    lines = text.splitlines()
    head, _, last = lines[line_no].rpartition(" ")
    lines[line_no] = f"{head} {float(last) + 1e-6:.8f}"
    return "\n".join(lines) + "\n"


def drop_line(text: str, line_no: int) -> str:
    lines = text.splitlines()
    del lines[line_no]
    return "\n".join(lines) + "\n"


def change_digit(data: bytes, after: bytes) -> bytes:
    """Change the first digit that follows ``after``."""
    at = data.index(after) + len(after)
    while not data[at:at + 1].isdigit():
        at += 1
    digit = b"1" if data[at:at + 1] != b"1" else b"2"
    return data[:at] + digit + data[at + 1:]


def outputs(wl, seed):
    """Everything the checks look at, from one tiny round of the workload."""
    OUT.mkdir(exist_ok=True)
    stem = f"selftest-{wl.name}"
    data_path = OUT / f"{stem}.csv"
    write_series(make_series(wl.train_len + TEST_LEN, seed, wl.name), data_path)
    with open(data_path, encoding="utf-8") as handle:
        series = fx.parse_series(handle, name=data_path.stem)
    train, test = fx.split_by_count(series, wl.train_len, TEST_LEN)
    grid = wl.grid(seed)
    out = {"train": train, "test": test, "grid": grid}
    if wl.via_cli:
        report_path = OUT / f"{stem}.fxr"
        cli = cli_round(wl, seed, data_path, report_path)
        if any(cli.exit_codes):
            raise SystemExit(f"selftest: fxcast exited with {cli.exit_codes}")
        out["bytes"] = report_path.read_bytes()
        out["views"] = cli.views
        out["in_memory"] = fx.run_grid(train, test, grid, workers=1)
        out["report"] = fx.load_report(report_path)
    else:
        out["report"] = fx.run_grid(train, test, grid, workers=wl.workers)
    p, h = wl.check_cell
    out["cell"], out["net"] = fx.evaluate_cell(train, test, p, h, grid)
    out["restart0"] = checks.restart0_sse(train.values, p, h, grid.train_cfg)
    return out


def cases(o):
    """(check name, what is corrupted, call on real outputs, call on the corruption)."""
    report, train, test = o["report"], o["train"].values, o["test"].values
    cell, net = o["cell"], o["net"]
    rw = report.random_walk_rows
    row_index = [(c.p, c.h) for c in report.cells].index((cell.p, cell.h))
    nudged_cell = replace(cell, out_sample=((cell.out_sample[0][0], nudged(cell.out_sample[0][1])),)
                          + cell.out_sample[1:])
    nudged_net = replace(net, output_bias=net.output_bias + 1e-6)
    yield ("check_complete", "one dropped cell record",
           lambda: checks.check_complete(report, o["grid"]),
           lambda: checks.check_complete(replace(report, cells=report.cells[1:]), o["grid"]))
    yield ("check_random_walk", "one perturbed random-walk RMSE",
           lambda: checks.check_random_walk(report, train, test),
           lambda: checks.check_random_walk(
               replace(report, random_walk_rows=rw[:-1] + ((rw[-1][0], nudged(rw[-1][1])),)),
               train, test))
    yield ("check_in_sample_identity", "one perturbed in-sample RMSE",
           lambda: checks.check_in_sample_identity(report, train),
           lambda: checks.check_in_sample_identity(
               with_cell(report, 0, in_sample=nudged(report.cells[0].in_sample)), train))
    yield ("check_in_sample_identity", "one perturbed best_sse",
           lambda: checks.check_in_sample_identity(report, train),
           lambda: checks.check_in_sample_identity(
               with_cell(report, -1, best_sse=report.cells[-1].best_sse * NUDGE), train))
    yield ("check_cell_forward", "one perturbed out-of-sample RMSE in cell and report",
           lambda: checks.check_cell_forward(report, cell, net, train, test),
           lambda: checks.check_cell_forward(
               with_cell(report, row_index, out_sample=nudged_cell.out_sample),
               nudged_cell, net, train, test))
    yield ("check_cell_forward", "one perturbed network weight",
           lambda: checks.check_cell_forward(report, cell, net, train, test),
           lambda: checks.check_cell_forward(report, cell, nudged_net, train, test))
    yield ("check_cell_forward", "a report row that evaluate_cell does not reproduce",
           lambda: checks.check_cell_forward(report, cell, net, train, test),
           lambda: checks.check_cell_forward(report, nudged_cell, net, train, test))
    if o["restart0"] is not None:
        yield ("check_best_of_restarts", "a best_sse worse than restart 0",
               lambda: checks.check_best_of_restarts(cell, o["restart0"]),
               lambda: checks.check_best_of_restarts(
                   replace(cell, best_sse=o["restart0"] * NUDGE), o["restart0"]))

    def bad_gradient(net, data):
        g = fx.gradient(net, data)
        return replace(g, output_bias=g.output_bias * 1.01)

    yield ("check_gradient", "a gradient 1% off in one component",
           lambda: checks.check_gradient(train),
           lambda: checks.check_gradient(train, gradient=bad_gradient))
    yield ("check_same", "a round with one perturbed metric",
           lambda: checks.check_same(report, report, "round"),
           lambda: checks.check_same(
               report, with_cell(report, 0, in_sample=nudged(report.cells[0].in_sample)), "round"))
    if "bytes" not in o:
        return

    data, reference, views = o["bytes"], o["in_memory"], o["views"]
    lines = data.decode("utf-8").splitlines(keepends=True)
    yield ("check_report_file", "one dropped cell line",
           lambda: checks.check_report_file(data, reference),
           lambda: checks.check_report_file("".join(lines[:2] + lines[3:]).encode(), reference))
    yield ("check_report_file", "one changed digit",
           lambda: checks.check_report_file(data, reference),
           lambda: checks.check_report_file(
               change_digit(data, b'"best_sse": '), reference))
    yield ("check_report_file", "the same records in other bytes",
           lambda: checks.check_report_file(data, reference),
           lambda: checks.check_report_file(data.replace(b'"type": ', b'"type":  ', 1), reference))
    corrupted_views = {
        "one dropped in_sample row": ("in_sample", drop_line(views["in_sample"], 1)),
        "one perturbed in_sample cell": ("in_sample", nudge_line(views["in_sample"], 1)),
        "one perturbed Avgr row": ("in_sample", nudge_line(views["in_sample"], 1 + len(report.config.hidden_levels))),
        "one perturbed RW row": ("out_sample", nudge_line(views["out_sample"], len(report.config.input_levels) + 1)),
        "one perturbed hidden_effect row": ("hidden_effect", nudge_line(views["hidden_effect"], -1)),
    }
    for what, (view, text) in corrupted_views.items():
        yield ("check_views", what,
               lambda: checks.check_views(views, report),
               lambda: checks.check_views({**views, view: text}, report))


def main() -> int:
    failures = 0
    for name, full in WORKLOADS.items():
        o = outputs(full.tiny(), SEED)
        for check, what, real, corrupted in cases(o):
            try:
                real()
            except checks.CheckFailed as exc:
                failures += 1
                print(f"FAIL {name} {check} rejects the real output: {exc}")
                continue
            try:
                corrupted()
            except checks.CheckFailed as exc:
                print(f"PASS {name} {check} rejects {what}: {exc}")
            else:
                failures += 1
                print(f"FAIL {name} {check} accepts {what}")
    print(f"selftest: {'all checks hold' if not failures else f'{failures} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
