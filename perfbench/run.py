#!/usr/bin/env python3
"""Sweep benchmark for fxcast.

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 35 --trace 0

Runs whole rounds of one workload (see workloads.py) until ``--seconds``
have passed, with one fresh-interpreter set-up after each round, then checks
the outputs outside the timed rounds. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run, whose spans go to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time

from source import OUT, use_checkout_source

use_checkout_source()

import fxcast as fx  # noqa: E402  (after the checkout's sources are on the path)
import fxcast.cli  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import GridProbe, Tracer, cpu_times, patched  # noqa: E402
from workloads import NPROC, TEST_LEN, WORKLOADS, call_cli, cli_grid_args, cli_round, \
    make_series, write_series  # noqa: E402

MIN_SETUPS = 7  # set-up time is the median of at least this many interpreters

# A fresh interpreter imports the package and its CLI, then reads the
# workload's series file. It prints perf_counter stamps, which line up with
# the parent's (CLOCK_MONOTONIC).
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import fxcast.cli
t1 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as handle:
    fxcast.parse_series(handle)
print(t0, t1, time.perf_counter())
"""


class Run:
    """One run of one workload: its inputs, its timed rounds, the checks of
    their outputs and the metrics."""

    def __init__(self, wl, seed: int, traced: bool):
        self.wl, self.seed = wl, seed
        self.stem = f"{wl.name}-{seed}"
        self.data_path = OUT / f"series-{self.stem}.csv"
        self.report_path = OUT / f"report-{self.stem}.fxr"
        write_series(make_series(wl.train_len + TEST_LEN, seed, wl.name), self.data_path)
        with open(self.data_path, encoding="utf-8") as handle:
            series = fx.parse_series(handle, name=self.data_path.stem)  # as the CLI names it
        self.train, self.test = fx.split_by_count(series, wl.train_len, TEST_LEN)
        self.grid = wl.grid(seed)
        self.tracer = Tracer() if traced else None
        self.probe = GridProbe(self.tracer) if traced else None
        self.problems = []
        self.walls, self.cpus, self.setups = [], [], []
        self.attempted = self.failed = 0
        self.first = self.report = None
        self.peak_rss_mb = None

    def check(self, fn, *args):
        """Run one check; a failure is recorded and the run goes on."""
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{fn.__name__}: {exc}")
            return None

    def setup_once(self):
        """One fresh interpreter: (import seconds, parse seconds)."""
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(self.data_path)],
            capture_output=True, text=True, check=True, timeout=120, cwd=OUT,
        )
        t0, t1, t2 = (float(v) for v in done.stdout.split())
        if self.tracer is not None:
            self.tracer.trace = "setup"
            setup = self.tracer.add("setup", t0, t2)
            self.tracer.add("cli.import", t0, t1, setup["id"])
            self.tracer.add("series.parse_series", t1, t2, setup["id"])
        self.setups.append((t1 - t0, t2 - t1))

    def one_round(self):
        wl = self.wl
        if not wl.via_cli:
            return (self.probe or fx.run_grid)(self.train, self.test, self.grid, workers=wl.workers)
        if self.probe is None:
            return cli_round(wl, self.seed, self.data_path, self.report_path)
        with patched(fxcast.cli, "run_grid", self.probe):
            return cli_round(wl, self.seed, self.data_path, self.report_path, self.tracer.span)

    def timed_rounds(self, seconds: float):
        """Whole rounds until ``seconds`` have passed; after each, outside its
        timing, one set-up and the comparison of its output with the first's."""
        started = time.perf_counter()
        while not self.walls or time.perf_counter() - started < seconds:
            if self.tracer is not None:
                self.tracer.trace = f"round{len(self.walls)}"
            own0, children0 = cpu_times()
            t0 = time.perf_counter()
            result = self.one_round()
            t1 = time.perf_counter()
            own1, children1 = cpu_times()
            self.walls.append(t1 - t0)
            self.cpus.append(own1 - own0 + children1 - children0)

            self.attempted += self.wl.operations_per_round()
            if self.wl.via_cli:
                self.failed += sum(code != 0 for code in result.exit_codes)
                output = (self.report_path.read_bytes(), result.views)
                report = fx.load_report(io.StringIO(output[0].decode("utf-8")))
            else:
                output = report = result
            self.failed += len(report.failures)
            if self.first is None:
                self.first, self.report = output, report
            else:
                self.check(checks.check_same, self.first, output, f"round {len(self.walls)} output")
            self.setup_once()
        while len(self.setups) < MIN_SETUPS:
            self.setup_once()
        # children: the pool's workers and the set-up interpreters, all waited for
        self.peak_rss_mb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0

    def verify(self):
        """Every output check, outside the timed rounds."""
        train, test, grid, report = self.train, self.test, self.grid, self.report
        if self.wl.via_cli:
            in_memory = fx.run_grid(train, test, grid, workers=1)
            if self.check(checks.check_report_file, self.first[0], in_memory) is not None:
                self.check(checks.check_views, self.first[1], report)
        self.check(checks.check_complete, report, grid)
        self.check(checks.check_random_walk, report, train.values, test.values)
        self.check(checks.check_in_sample_identity, report, train.values)
        p, h = self.wl.check_cell
        cell, net = fx.evaluate_cell(train, test, p, h, grid)
        self.check(checks.check_cell_forward, report, cell, net, train.values, test.values)
        self.check(checks.check_best_of_restarts, cell,
                   checks.restart0_sse(train.values, p, h, grid.train_cfg))
        self.check(checks.check_gradient, train.values)

    def end_to_end(self) -> dict:
        rounds = len(self.walls)
        rw_12m = dict(self.report.random_walk_rows)["12m"].rmse
        return {
            "wall_s": (sum(self.walls) / rounds, "s"),
            "cpu_s": (sum(self.cpus) / rounds, "s"),
            "setup_s": (statistics.median(i + s for i, s in self.setups), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "rmse_ratio_12m": (statistics.fmean(
                dict(c.out_sample)["12m"].rmse / rw_12m for c in self.report.cells), "ratio"),
        }

    def per_layer(self) -> dict:
        """Run the grid once more at the other worker count (same bytes, and
        the speed-up), then the per-layer microbenchmarks; write the spans."""
        wl, tracer, probe = self.wl, self.tracer, self.probe
        body = list(probe.calls)
        tracer.trace = "other_workers"
        if wl.via_cli:
            serial_path = OUT / f"report-{self.stem}-serial.fxr"
            args = cli_grid_args(wl, self.seed, self.data_path, serial_path, workers=1)
            with patched(fxcast.cli, "run_grid", probe):
                call_cli(args, tracer.span)
            self.check(checks.check_same, self.first[0], serial_path.read_bytes(),
                       "report at workers=1")
        else:
            workers = NPROC if wl.serial else 1
            other = probe(self.train, self.test, self.grid, workers=workers)
            self.check(checks.check_same, report_bytes(self.report), report_bytes(other),
                       f"report at workers={workers}")
        tracer.trace = "layers"
        metrics = {
            **layers.grid_metrics(body, probe.calls[-1]),
            **layers.setup_metrics(self.setups),
            **layers.measure(tracer, self.train, self.test, self.grid, self.report,
                             OUT / f"layers-{self.stem}.fxr"),
        }
        tracer.write(OUT / f"trace-{self.stem}.json", {
            "workload": wl.name, "seed": self.seed, "rounds": len(self.walls),
            "traced_wall_s": sum(self.walls) / len(self.walls),
            "traced_cpu_s": sum(self.cpus) / len(self.cpus),
        })
        return metrics


def report_bytes(report) -> bytes:
    buffer = io.StringIO()
    fx.save_report(report, buffer)
    return buffer.getvalue().encode("utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run = Run(wl, args.seed, traced=bool(args.trace))
    run.timed_rounds(args.seconds)
    run.verify()
    metrics = run.per_layer() if args.trace else run.end_to_end()

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for message in run.problems:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    (OUT / f"result-{run.stem}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    print(f"{wl.name} rounds {len(run.walls)} attempted {run.attempted} failed {run.failed}")
    print(json.dumps(result))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
