"""Per-layer metrics of the traced run, each from spans around calls into
one fxcast module."""

from __future__ import annotations

import statistics
from dataclasses import replace

import fxcast as fx
import fxcast.experiment

from tracing import patched, timed, traced
from workloads import TIMING_CELL, call_cli

EPOCH_PROBE = 200  # epochs of each timed train() at a corner shape
CORNERS = ((1, 6), (5, 18), (10, 30))
LIBRARY_VIEWS = ("in_sample", "out_sample_by_input", "hidden_effect")


def grid_metrics(body, other) -> dict:
    """Pool metrics: medians over the timed rounds' ``run_grid`` calls, and the
    serial-over-pooled wall ratio against one call at the other worker count."""
    def median(field):
        return statistics.median(getattr(call, field) for call in body)

    wall = median("wall_s")
    serial, pooled = (wall, other.wall_s) if body[0].workers == 1 else (other.wall_s, wall)
    return {
        "experiment.run_grid.busy_s": (median("busy_s"), "s"),
        "experiment.run_grid.parent_cpu_s": (median("parent_cpu_s"), "s"),
        "experiment.run_grid.worker_cpu_s": (median("worker_cpu_s"), "s"),
        "experiment.run_grid.efficiency": (
            statistics.median(c.busy_s / (c.wall_s * c.workers) for c in body), "ratio"),
        "experiment.run_grid.tail_s": (median("tail_s"), "s"),
        "experiment.run_grid.speedup": (serial / pooled, "ratio"),
    }


def setup_metrics(setup) -> dict:
    return {
        "cli.import_s": (statistics.median(i for i, _ in setup), "s"),
        "series.parse_series.ms": (statistics.median(s for _, s in setup) * 1e3, "ms"),
    }


def measure(tracer, train, test, grid, report, report_path) -> dict:
    """The per-layer metrics that come from microbenchmarks on the workload's
    own span, grid configuration and report."""
    metrics = {}
    values = fx.fit_scaler(train).apply(train.values)
    seconds, scaled = timed(tracer, "series.TimeSeries",
                            lambda: fx.TimeSeries(train.dates, values, train.name))
    metrics["series.TimeSeries.us"] = (seconds * 1e6, "us")
    seconds, _ = timed(tracer, "series.make_windows", lambda: fx.make_windows(scaled, 10))
    metrics["series.make_windows.us"] = (seconds * 1e6, "us")
    forecasts = fx.random_walk(float(train.values[-1]), test.values)
    seconds, _ = timed(tracer, "metrics.evaluate_horizons",
                       lambda: fx.evaluate_horizons(forecasts, grid.horizon_spec))
    metrics["metrics.evaluate_horizons.us"] = (seconds * 1e6, "us")

    cfg = grid.train_cfg
    for p, h in CORNERS:
        arch = fx.Architecture(p, h)
        data = fx.make_windows(scaled, p)
        net0 = fx.init_weights(arch, fx.restart_seed(cfg.master_seed, p, h, 0), cfg.init_half_width)
        probe_cfg = replace(cfg, max_epochs=EPOCH_PROBE, min_sse_delta=0.0)
        seconds, run = timed(tracer, "mlp.train", lambda: fx.train(net0, data, probe_cfg), p=p, h=h)
        metrics[f"mlp.train.epoch_us.p{p}h{h}"] = (seconds / run.epochs_run * 1e6, "us")

    # one cell at the default stop rule, restart by restart
    p, h = TIMING_CELL
    arch = fx.Architecture(p, h)
    data = fx.make_windows(scaled, p)
    runs = []
    for k in range(cfg.restarts):
        net0 = fx.init_weights(arch, fx.restart_seed(cfg.master_seed, p, h, k), cfg.init_half_width)
        with tracer.span("mlp.train", p=p, h=h, restart=k):
            runs.append(fx.train(net0, data, cfg))
    metrics["mlp.train.epochs_per_restart"] = (statistics.fmean(r.epochs_run for r in runs), "count")
    metrics["mlp.train_multi_restart.diverged"] = (sum(r.diverged for r in runs), "count")

    # evaluate_cell, with its train_multi_restart call in a child span: the
    # overhead is evaluate_cell's time outside that child
    inner = traced(tracer, "mlp.train_multi_restart", fx.train_multi_restart)
    with patched(fxcast.experiment, "train_multi_restart", inner):
        seconds, _ = timed(tracer, "experiment.evaluate_cell",
                           lambda: fx.evaluate_cell(train, test, p, h, grid))
    cells = [s for s in tracer.spans if s["name"] == "experiment.evaluate_cell"]
    overhead = [c["end"] - c["start"] - sum(s["end"] - s["start"] for s in tracer.spans
                                            if s["parent"] == c["id"]) for c in cells]
    metrics["experiment.evaluate_cell.s"] = (seconds, "s")
    metrics["experiment.evaluate_cell.overhead_ms"] = (statistics.median(overhead) * 1e3, "ms")

    seconds, _ = timed(tracer, "experiment.save_report", lambda: fx.save_report(report, report_path))
    metrics["experiment.save_report.ms"] = (seconds * 1e3, "ms")
    metrics["experiment.report_bytes"] = (report_path.stat().st_size, "bytes")
    seconds, _ = timed(tracer, "experiment.load_report", lambda: fx.load_report(report_path))
    metrics["experiment.load_report.ms"] = (seconds * 1e3, "ms")
    seconds, _ = timed(tracer, "experiment.render_table",
                       lambda: [fx.render_table(report, view) for view in LIBRARY_VIEWS])
    metrics["experiment.render_table.ms"] = (seconds * 1e3, "ms")
    seconds, _ = timed(tracer, "cli.main.report",
                       lambda: call_cli(["report", str(report_path), "--view", "in_sample"]))
    metrics["cli.main.report_ms"] = (seconds * 1e3, "ms")
    return metrics
