import concurrent.futures
import dataclasses
import datetime
import io
import json
import math
import multiprocessing
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from fxcast import (
    Architecture,
    CellFailure,
    CellResult,
    ColumnFormat,
    DataError,
    DivergenceError,
    GridConfig,
    GridReport,
    HorizonSpec,
    MetricRow,
    Mlp,
    ReportFormatError,
    ReportVersionError,
    Scaler,
    TimeSeries,
    TrainConfig,
    TrainResult,
    evaluate_cell,
    fit_scaler,
    init_weights,
    load_report,
    make_windows,
    predict,
    random_walk_rows,
    render_table,
    restart_seed,
    run_grid,
    save_report,
    split_by_count,
    sse,
    synthesize_series,
    train,
    train_multi_restart,
)
from fxcast import experiment
from fxcast.experiment import _chunk_schedule
from fxcast.mlp import _BLOCK_BUDGET, _best_restart, _train_block

from conftest import series_of, subprocess_env

FAST_TRAIN = TrainConfig(learning_rate=1e-3, max_epochs=30, restarts=2, master_seed=7)
SHORT_HORIZONS = HorizonSpec((("1w", 1), ("4w", 4)))


def small_grid(**overrides):
    base = dict(
        input_levels=(1, 2),
        hidden_levels=(2, 3),
        train_cfg=FAST_TRAIN,
        horizon_spec=SHORT_HORIZONS,
    )
    base.update(overrides)
    return GridConfig(**base)


@pytest.fixture(scope="module")
def ar_split():
    series = synthesize_series("noisy_ar1", 120, seed=3, y0=5.0)
    return split_by_count(series, 110, 10)


class TestSynthesize:
    def test_logistic_hand_iteration(self):
        s = synthesize_series("logistic_map", 3, x0=0.5)
        assert s.values.tolist() == [0.5, 1.0, 0.0]

    def test_logistic_default_params(self):
        s = synthesize_series("logistic_map", 100)
        assert s.values[0] == 0.3
        assert np.all((s.values >= 0.0) & (s.values <= 1.0))

    def test_length_must_be_at_least_two(self):
        with pytest.raises(DataError):
            synthesize_series("sine", 1)

    def test_longest_series_ends_in_the_last_week_of_dates(self):
        # one point more is a DataError (test_cli's TestSynth)
        s = synthesize_series("sine", 417420)
        assert datetime.date.max - s.dates[-1] < datetime.timedelta(weeks=1)

    def test_invalid_logistic_params(self):
        with pytest.raises(DataError):
            synthesize_series("logistic_map", 10, r=-1.0)
        with pytest.raises(DataError):
            synthesize_series("logistic_map", 10, x0=1.5)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf"), 1e308])
    def test_invalid_ar1_sigma(self, sigma):
        # the noise range 2 * sigma must be nonnegative and finite
        with pytest.raises(DataError, match="sigma"):
            synthesize_series("noisy_ar1", 10, sigma=sigma)

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            synthesize_series("brownian", 10)

    def test_unknown_param(self):
        with pytest.raises(DataError):
            synthesize_series("sine", 10, r=4.0)

    def test_ar1_deterministic_per_seed(self):
        a = synthesize_series("noisy_ar1", 50, seed=9)
        b = synthesize_series("noisy_ar1", 50, seed=9)
        c = synthesize_series("noisy_ar1", 50, seed=10)
        assert a == b
        assert not np.array_equal(a.values, c.values)

    def test_sine_values(self):
        s = synthesize_series("sine", 5, omega=0.25)
        assert s.values == pytest.approx(np.sin(0.25 * np.arange(5)))

    def test_weekly_dates(self):
        s = synthesize_series("sine", 3)
        assert (s.dates[1] - s.dates[0]) == datetime.timedelta(weeks=1)
        assert (s.dates[2] - s.dates[1]) == datetime.timedelta(weeks=1)


class TestRunCell:
    def test_deterministic(self, ar_split):
        train_series, test_series = ar_split
        cfg = small_grid()
        a = evaluate_cell(train_series, test_series, 2, 3, cfg)[0]
        b = evaluate_cell(train_series, test_series, 2, 3, cfg)[0]
        assert a == b

    def test_out_sample_rows_follow_horizons(self, ar_split):
        train_series, test_series = ar_split
        cell = evaluate_cell(train_series, test_series, 1, 2, small_grid())[0]
        assert [label for label, _ in cell.out_sample] == ["1w", "4w"]

    def test_constant_series_scaler_error(self):
        train_series = series_of([5.0] * 30)
        test_series = series_of([5.0] * 5, start=datetime.date(2010, 1, 1))
        with pytest.raises(DataError):
            evaluate_cell(train_series, test_series, 1, 2, small_grid())[0]

    def test_train_must_exceed_p(self, ar_split):
        _, test_series = ar_split
        short = series_of([1.0, 2.0])
        with pytest.raises(DataError):
            evaluate_cell(short, test_series, 2, 2, small_grid())[0]

    def test_first_forecast_uses_train_tail(self, ar_split):
        # forecast 1 must equal the network applied to the last p train values
        train_series, test_series = ar_split
        cfg = small_grid()
        p = 2
        cell, net = evaluate_cell(train_series, test_series, p, 3, cfg)

        from fxcast import fit_scaler

        scaler = fit_scaler(train_series)
        expected = scaler.invert(predict(net, scaler.apply(train_series.values[-p:])[None])[0])
        assert dict(cell.out_sample)["1w"].rmse == pytest.approx(
            abs(test_series.values[0] - expected), rel=1e-9
        )

    def test_no_leakage_from_later_test_values(self, ar_split):
        # the forecast for test position t consumes only actual observations
        # before t, so corrupting positions >= k leaves prefixes < k intact
        train_series, test_series = ar_split
        cfg = small_grid()
        cell = evaluate_cell(train_series, test_series, 2, 3, cfg)[0]
        for k, intact_labels in ((1, ["1w"]), (4, ["1w", "4w"])):
            corrupted_values = test_series.values.copy()
            corrupted_values[k:] += 17.0
            corrupted = type(test_series)(
                test_series.dates, corrupted_values, test_series.name
            )
            cell_corrupt = evaluate_cell(train_series, corrupted, 2, 3, cfg)[0]
            for label in intact_labels:
                assert dict(cell_corrupt.out_sample)[label] == dict(cell.out_sample)[label]

    @pytest.mark.parametrize("p", [1, 4])
    def test_windows_scaled_like_windows_of_scaled_series(self, ar_split, monkeypatch, p):
        # scaling is elementwise, so scaling the windows gives the bits of
        # windowing a scaled series, and training on either gives one cell
        train_series, test_series = ar_split
        cfg = small_grid()
        scaler = fit_scaler(train_series)
        scaled = TimeSeries(train_series.dates, scaler.apply(train_series.values),
                            train_series.name)
        reference = make_windows(scaled, p)
        cell, _ = evaluate_cell(train_series, test_series, p, 3, cfg)

        trained_on = []
        train_multi_restart = experiment.train_multi_restart

        def train_on_reference(arch, data, train_cfg):
            trained_on.append(data)
            return train_multi_restart(arch, reference, train_cfg)

        monkeypatch.setattr(experiment, "train_multi_restart", train_on_reference)
        via_scaled_series, _ = evaluate_cell(train_series, test_series, p, 3, cfg)
        assert trained_on[0].inputs.tobytes() == reference.inputs.tobytes()
        assert trained_on[0].targets.tobytes() == reference.targets.tobytes()
        assert via_scaled_series == cell

    @pytest.mark.parametrize("p", [1, 3])
    def test_unscaled_windows_keep_the_series_bits(self, p):
        # with scale off the scaler is the identity, which keeps the bits of
        # every finite value, -0.0 and values near the float limit included
        values = [0.5, -0.0, -2.25, 1e308, 3.0, -0.0, 7.5, -1e308, 0.125, 2.0, -0.0, 1e-300]
        train_series, test_series = split_by_count(series_of(values), 8, 4)
        scaler, data, test_inputs = experiment._cell_windows(train_series, test_series, p,
                                                             False)
        raw = make_windows(train_series, p)
        assert data.inputs.tobytes() == raw.inputs.tobytes()
        assert data.targets.tobytes() == raw.targets.tobytes()
        combined = np.concatenate((train_series.values[-p:], test_series.values))
        want = np.lib.stride_tricks.sliding_window_view(combined, p)[:len(test_series)]
        assert test_inputs.tobytes() == want.tobytes()
        # inverting gives back every value, a -0.0 as +0.0, which equals it
        assert np.array_equal(scaler.invert(data.targets), raw.targets)

    def test_in_sample_covers_n_minus_p_patterns(self, ar_split):
        # without scaling the training SSE is in the metrics' units, so the
        # in-sample RMSE is that of the best network over all N - p patterns
        train_series, test_series = ar_split
        for p in (1, 3):
            cell = evaluate_cell(train_series, test_series, p, 2, small_grid(scale=False))[0]
            expected = math.sqrt(cell.best_sse / (len(train_series) - p))
            assert cell.in_sample.rmse == pytest.approx(expected, rel=1e-12)


class TestRunGrid:
    def test_shape_and_averages(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid()
        report = run_grid(train_series, test_series, grid)
        assert len(report.cells) == 4
        assert [(c.p, c.h) for c in report.cells] == [(1, 2), (1, 3), (2, 2), (2, 3)]
        # the rendered averages are the means of the cells, to 8 decimals
        def mean(values):
            return pytest.approx(sum(values) / len(values), abs=1e-8)

        groups = [[c for c in report.cells if c.p == p] for p in grid.input_levels]
        in_sample = render_table(report, "in_sample").splitlines()
        averages = [line.split()[1:] for line in in_sample if line.startswith("Avgr")]
        for group, printed in zip(groups, averages, strict=True):
            assert float(printed[0]) == mean([c.in_sample.rmse for c in group])
        blocks = render_table(report, "out_sample_by_input").split("\n\n")
        for label, block in zip(SHORT_HORIZONS.labels, blocks, strict=True):
            rows = {line.split()[0]: line.split()[1:] for line in block.splitlines()[1:]}
            for p, group in zip(grid.input_levels, groups):
                assert float(rows[str(p)][1]) == mean([dict(c.out_sample)[label].mae
                                                       for c in group])

    def test_unscaled_cells_equal_evaluate_cell(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid(scale=False)
        report = run_grid(train_series, test_series, grid)
        assert len(report.cells) == grid.cell_count
        for cell in report.cells:
            assert evaluate_cell(train_series, test_series, cell.p, cell.h, grid)[0] == cell

    def test_average_is_correctly_rounded(self):
        # the builtin sum of ten 0.1s is 0.9999999999999999 before Python 3.12;
        # 8 decimals of text cannot tell the two apart, so this asks the helper
        row = MetricRow(rmse=0.1, mae=0.1, mape=0.1)
        assert experiment._mean_row([row] * 10) == row

    def test_average_of_huge_values_is_finite(self):
        # their sum overflows a float, and fsum raises instead of giving inf
        big = MetricRow(rmse=1e308, mae=sys.float_info.max, mape=1.0)
        mean = experiment._mean_row([big] * 3)
        assert mean.rmse == pytest.approx(1e308, rel=1e-15)
        assert mean.mae == sys.float_info.max
        assert mean.mape == 1.0

    def test_single_cell_average_is_cell(self, ar_split):
        train_series, test_series = ar_split
        report = run_grid(
            train_series, test_series, small_grid(input_levels=(1,), hidden_levels=(2,))
        )
        assert len(report.cells) == 1
        _, cell_line, average_line = render_table(report, "in_sample").splitlines()
        assert average_line.split()[1:] == cell_line.split()[2:]

    def test_rw_rows_independent_of_grid(self, ar_split):
        train_series, test_series = ar_split
        a = run_grid(train_series, test_series, small_grid())
        b = run_grid(
            train_series, test_series, small_grid(input_levels=(3,), hidden_levels=(2,))
        )
        assert a.random_walk_rows == b.random_walk_rows
        assert a.random_walk_rows == random_walk_rows(
            train_series, test_series, SHORT_HORIZONS
        )

    def test_workers_do_not_change_results(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid()
        serial = run_grid(train_series, test_series, grid, workers=1)
        parallel = run_grid(train_series, test_series, grid, workers=4)
        assert serial == parallel

    def test_pool_has_no_more_processes_than_chunks(self, ar_split, monkeypatch):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series, small_grid(), workers=8)
        assert sizes == [4]
        assert report == run_grid(train_series, test_series, small_grid())

    def test_streaming_matches_save(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid()
        streamed = io.StringIO()
        report = run_grid(train_series, test_series, grid, sink=streamed)
        saved = io.StringIO()
        save_report(report, saved)
        assert streamed.getvalue() == saved.getvalue()

    def test_failures_recorded_not_fatal(self, ar_split):
        train_series, test_series = ar_split
        bad_cfg = TrainConfig(
            learning_rate=1e9, max_epochs=20, restarts=2, master_seed=1
        )
        report = run_grid(
            train_series, test_series, small_grid(train_cfg=bad_cfg)
        )
        assert len(report.cells) == 0
        assert len(report.failures) == 4
        assert all("diverged" in f.error for f in report.failures)
        # no level has an average: in_sample shows none, out_sample_by_input says why
        assert "Avgr" not in render_table(report, "in_sample")
        by_input = render_table(report, "out_sample_by_input")
        assert by_input.count("FAILED: no surviving cells") == 2 * len(SHORT_HORIZONS.labels)

    def test_progress_callback(self, ar_split):
        train_series, test_series = ar_split
        seen = []
        run_grid(
            train_series,
            test_series,
            small_grid(),
            progress=lambda done, total, item: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_workers_must_be_positive(self, ar_split):
        sink = io.StringIO()
        with pytest.raises(DataError, match="workers must be at least 1"):
            run_grid(*ar_split, small_grid(), workers=0, sink=sink)
        assert sink.getvalue() == ""

    @pytest.mark.parametrize("hook", ["sink", "progress"])
    def test_pooled_sweep_stops_promptly_on_error(self, ar_split, monkeypatch, hook):
        # 60 cells in 20 pieces on 2 workers: a sweep that fails on its
        # first cell must stop after the pieces already running or queued,
        # not run the pieces of the rest of the grid
        train_series, test_series = ar_split
        grid = small_grid(
            input_levels=tuple(range(1, 13)), hidden_levels=(4, 5, 6, 7, 8),
            train_cfg=TrainConfig(learning_rate=1e-3, max_epochs=600, restarts=2),
        )

        def sweep(fail):
            class FailingSink(io.StringIO):
                def write(self, text):
                    if '"type": "cell"' in text:
                        fail()
                    return super().write(text)

            hooks = {"sink": FailingSink(), "progress": lambda done, total, item: fail()}
            run_grid(train_series, test_series, grid, workers=2, **{hook: hooks[hook]})

        assert_stops_promptly(monkeypatch, sweep)

    @pytest.mark.parametrize("hook", ["sink", "progress"])
    def test_serial_sweep_stops_after_one_cell_on_error(self, ar_split, monkeypatch, hook):
        # a serial sweep runs the pool's pieces, the first of them one cell:
        # a sweep that fails on its first cell record has trained one width,
        # not the four of the first input level
        trained = []
        searches = experiment._restart_searches

        def counted(archs, data, cfg):
            trained.extend(archs)
            return searches(archs, data, cfg)

        monkeypatch.setattr(experiment, "_restart_searches", counted)

        def fail(*_):
            raise OSError("disk full")

        class FailingSink(io.StringIO):
            def write(self, text):
                if '"type": "cell"' in text:
                    fail()
                return super().write(text)

        hooks = {"sink": FailingSink(), "progress": fail}
        grid = small_grid(hidden_levels=(2, 3, 4, 5))
        with pytest.raises(OSError, match="disk full"):
            run_grid(*ar_split, grid, workers=1, **{hook: hooks[hook]})
        assert trained == [Architecture(1, 2)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunked_pool_matches_serial(self, ar_split, workers):
        train_series, test_series = ar_split
        grid = small_grid(input_levels=tuple(range(1, 11)), hidden_levels=tuple(range(2, 12)))
        order = [(p, h) for p in grid.input_levels for h in grid.hidden_levels]
        assert len(_chunk_schedule(grid, workers)) < len(order)
        serial = run_grid(train_series, test_series, grid)
        streamed = io.StringIO()
        seen = []
        pooled = run_grid(
            train_series, test_series, grid, workers=workers, sink=streamed,
            progress=lambda done, total, item: seen.append((done, total, (item.p, item.h))),
        )
        assert pooled == serial
        saved = io.StringIO()
        save_report(pooled, saved)
        assert streamed.getvalue() == saved.getvalue()
        assert seen == [(done, len(order), cell) for done, cell in enumerate(order, start=1)]

    def test_chunked_pool_stops_promptly_on_sink_error(self, ar_split, monkeypatch):
        # 100 cells on 2 workers open with single cells that grow into
        # pieces of several: a sink that fails on the first record of the
        # first multi-cell piece must stop the sweep after the pieces
        # already running or queued, not after the ~50 cells per worker of
        # the grid
        train_series, test_series = ar_split
        grid = small_grid(
            input_levels=tuple(range(1, 11)), hidden_levels=tuple(range(2, 12)),
            train_cfg=TrainConfig(learning_rate=1e-3, max_epochs=300, restarts=2),
        )
        sizes = [len(widths) for _, widths in _chunk_schedule(grid, 2)]
        fail_at = next(j for j, size in enumerate(sizes) if size > 1)  # single cells before it

        def sweep(fail):
            class FailingSink(io.StringIO):
                cells = 0

                def write(self, text):
                    if '"type": "cell"' in text:
                        if self.cells == fail_at:
                            fail()
                        self.cells += 1
                    return super().write(text)

            run_grid(train_series, test_series, grid, workers=2, sink=FailingSink())

        assert_stops_promptly(monkeypatch, sweep)

    def test_pool_splits_one_input_level(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid(input_levels=(3,), hidden_levels=tuple(range(2, 12)))
        assert len(_chunk_schedule(grid, 3)) > 3
        streamed = io.StringIO()
        pooled = run_grid(train_series, test_series, grid, workers=3, sink=streamed)
        assert pooled == run_grid(train_series, test_series, grid)
        saved = io.StringIO()
        save_report(pooled, saved)
        assert streamed.getvalue() == saved.getvalue()

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_without_fork_matches_serial(self, tmp_path, method):
        # spawn (the macOS default) and forkserver (the Linux default from
        # Python 3.14) start workers that inherit no state from the parent
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        script = tmp_path / "sweep.py"
        script.write_text(POOL_SCRIPT)
        run = subprocess.run([sys.executable, str(script), method], env=subprocess_env(),
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"{method}: equal\n"


def assert_stops_promptly(monkeypatch, sweep):
    """Check that ``sweep(fail)``, a 2-worker ``run_grid`` whose sink or
    progress hook calls ``fail``, stops promptly on pools of each start
    method that starts workers differently: fork and forkserver.

    ``fail`` counts the pieces the pool was given that are done, and those
    running or queued: handed to the pool's call queue, from which no
    cancel takes them back. Then it raises. The pieces that workers run
    after the failure must be at most those running or queued at it, plus
    an allowance: until the pool's manager thread sees the shutdown, it
    keeps its call queue of workers + 1 pieces full, and each worker may
    take one more piece from it, 2 * workers + 1 in all. Without the
    cancel, every piece not yet started at the failure would run, and those
    must outnumber the allowance for the check to see it.
    """
    workers = 2
    allowance = 2 * workers + 1
    for method in ("fork", "forkserver"):
        if method not in multiprocessing.get_all_start_methods():
            continue
        futures, at_failure = [], []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, mp_context=multiprocessing.get_context(method),
                                 **kwargs)

            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        class Failing(Exception):
            pass

        def fail():
            done = sum(future.done() for future in futures)
            started = sum(future.running() or future.done() for future in futures)
            at_failure.extend((done, started))
            raise Failing()

        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
            # a forkserver started here imports the fxcast under test
            patch.setenv("PYTHONPATH", subprocess_env()["PYTHONPATH"])
            with pytest.raises(Failing):
                sweep(fail)
        done, started = at_failure
        # run_grid's shutdown waited for every piece it did not cancel
        ran = sum(not future.cancelled() for future in futures)
        assert ran - done <= started - done + allowance, method
        assert len(futures) - started > allowance, method


POOL_SCRIPT = """\
import io
import multiprocessing
import sys

import fxcast as fx

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    series = fx.synthesize_series("noisy_ar1", 120, seed=3, y0=5.0)
    train, test = fx.split_by_count(series, 110, 10)
    grid = fx.GridConfig(
        input_levels=(1, 2, 3), hidden_levels=(2, 3),
        train_cfg=fx.TrainConfig(learning_rate=1e-3, max_epochs=30, restarts=2, master_seed=7),
        horizon_spec=fx.HorizonSpec((("1w", 1), ("4w", 4))),
    )
    sinks = {workers: io.StringIO() for workers in (1, 2)}
    reports = {workers: fx.run_grid(train, test, grid, workers=workers, sink=sink)
               for workers, sink in sinks.items()}
    assert reports[2] == reports[1]
    assert sinks[2].getvalue() == sinks[1].getvalue()
    print(f"{multiprocessing.get_start_method()}: equal")
"""


class TestLevelBlocks:
    # run_grid trains the restarts of all hidden widths of one piece of an
    # input level together; evaluate_cell trains the restarts of one width
    @pytest.mark.parametrize("learning_rate, max_epochs, outcomes", [
        (3e-3, 200, {"stopped early", "ran to the cap"}),
        (1e-1, 300, {"all restarts diverged"}),
    ])
    def test_cells_equal_evaluate_cell(self, ar_split, learning_rate, max_epochs, outcomes):
        train_series, test_series = ar_split
        cfg = TrainConfig(learning_rate=learning_rate, max_epochs=max_epochs,
                          min_sse_delta=1e-3, restarts=2, master_seed=11)
        grid = small_grid(input_levels=(1, 2, 4), hidden_levels=(2, 3, 5, 8), train_cfg=cfg)
        # each input level's 8 networks fit one block
        rows = sum(2 * (h + 1) for h in grid.hidden_levels)
        assert rows * (len(train_series) - 1) <= _BLOCK_BUDGET
        reports = [run_grid(train_series, test_series, grid, workers=w) for w in (1, 2)]
        scaler = fit_scaler(train_series)
        scaled = TimeSeries(train_series.dates, scaler.apply(train_series.values),
                            train_series.name)
        seen = set()
        for p in grid.input_levels:
            data = make_windows(scaled, p)
            for h in grid.hidden_levels:
                try:
                    cell, net = evaluate_cell(train_series, test_series, p, h, grid)
                except DivergenceError as exc:
                    seen.add("all restarts diverged")
                    for report in reports:
                        assert CellFailure(p=p, h=h, error=str(exc)) in report.failures
                    continue
                for report in reports:
                    assert cell in report.cells
                assert cell.best_sse == sse(net, data)
                for k in range(cfg.restarts):
                    net0 = init_weights(net.arch, restart_seed(cfg.master_seed, p, h, k),
                                        cfg.init_half_width)
                    run = train(net0, data, cfg)
                    seen.add("some restarts diverged" if run.diverged else
                             "stopped early" if run.epochs_run < max_epochs else
                             "ran to the cap")
        assert outcomes <= seen


# restart SSEs grow to about 1e307 in 300 epochs on ar_split: at p = 4 one
# restart of h = 2 diverges and the other stays finite but runs away, and
# both restarts of h = 3 diverge
WILD_TRAIN = TrainConfig(learning_rate=0.02, max_epochs=300, min_sse_delta=1e-3,
                         restarts=2, master_seed=11)
RUNAWAY = "all 2 restarts diverged or ran away (1 ended above their initial SSE)"
OVERFLOW = "in-sample forecasts overflow the rmse"


def overflowing(arch):
    """A search result whose finite network forecasts about 1e300, which
    overflows every measure."""
    h, p = arch.hidden_count, arch.input_count
    net = Mlp(arch, np.zeros((h, p)), np.zeros(h), np.zeros(h), 1e300)
    return TrainResult(best_net=net, best_sse=1.0, best_restart_index=0, epochs_run=1,
                       sse_trace=[1.0])


class TestRestartSearch:
    # train_multi_restart trains a cell's restarts in shared blocks; it must
    # pick what _best_restart picks from one train call per restart. At h = 6
    # and a wide initial draw, two restarts run away by epoch 300 and diverge
    # by epoch 400 while the other four stop early; at h = 2 every restart
    # that does not diverge runs away, so none is picked
    @pytest.mark.parametrize("h, changes, diverged, ran_away", [
        (6, dict(learning_rate=0.008, init_half_width=20.0, max_epochs=400), 2, 0),
        (6, dict(learning_rate=0.008, init_half_width=20.0, max_epochs=300), 0, 2),
        (2, dict(learning_rate=0.02), 3, 3),
        (2, dict(learning_rate=0.03), 6, 0),
    ], ids=["wide-400", "wide-300", "0.02-some", "0.03-all"])
    def test_equals_one_train_per_restart(self, ar_split, h, changes, diverged, ran_away):
        cfg = dataclasses.replace(WILD_TRAIN, restarts=6, **changes)
        arch = Architecture(4, h)
        _, data, _ = experiment._cell_windows(*ar_split, 4, True)
        assert cfg.restarts * (arch.hidden_count + 1) * len(data.targets) <= _BLOCK_BUDGET
        nets0 = [init_weights(arch, restart_seed(cfg.master_seed, 4, h, k), cfg.init_half_width)
                 for k in range(cfg.restarts)]
        runs = [train(net0, data, cfg) for net0 in nets0]
        assert _train_block(nets0, data, cfg) == runs
        assert sum(run.diverged for run in runs) == diverged
        assert sum(run.ran_away for run in runs) == ran_away
        want = _best_restart(runs)
        if diverged + ran_away < cfg.restarts:
            assert train_multi_restart(arch, data, cfg) == want
        else:
            with pytest.raises(DivergenceError, match=f"^{re.escape(str(want))}$"):
                train_multi_restart(arch, data, cfg)


class TestCellSeconds:
    # a sweep's cell gets its share, by hidden rows (h + 1), of the wall time
    # of its task, one piece of an input level; evaluate_cell the whole call
    @pytest.mark.parametrize("workers", [1, 2])
    def test_level_time_split_by_hidden_rows(self, ar_split, workers):
        train_series, test_series = ar_split
        # 80 cells run in pieces of 1 to 20 cells at either worker count
        grid = small_grid(input_levels=(1, 2, 3, 4), hidden_levels=tuple(range(1, 21)),
                          train_cfg=TrainConfig(max_epochs=5, restarts=1))
        tasks = _chunk_schedule(grid, workers)
        assert max(len(widths) for _, widths in tasks) > 1
        cells = {(c.p, c.h): c for c in run_grid(train_series, test_series, grid,
                                                 workers=workers).cells}
        assert len(cells) == grid.cell_count
        assert all(c.train_seconds > 0.0 for c in cells.values())
        for p, widths in tasks:
            per_row = cells[p, widths[0]].train_seconds / (widths[0] + 1)
            for h in widths:
                assert cells[p, h].train_seconds == pytest.approx(per_row * (h + 1))

    def test_evaluate_cell_times_the_call(self, ar_split):
        train_series, test_series = ar_split
        started = time.perf_counter()
        cell, _ = evaluate_cell(train_series, test_series, 2, 3, small_grid())
        wall = time.perf_counter() - started
        assert 0.0 < cell.train_seconds <= wall


class TestLevelScoring:
    # run_grid scores each input level's cells as one block; evaluate_cell
    # scores a level of one cell
    @pytest.mark.filterwarnings("error")
    def test_overflowing_winner_named_without_a_warning(self, ar_split, monkeypatch):
        train_series, test_series = ar_split
        grid = small_grid(input_levels=(4,), hidden_levels=(2,))
        result = overflowing(Architecture(4, 2))
        windows = experiment._cell_windows(train_series, test_series, 4, grid.scale)
        items = experiment._cell_records(train_series, test_series, grid, windows, (2,),
                                         [result], time.perf_counter())
        assert items == [CellFailure(p=4, h=2, error=OVERFLOW)]
        monkeypatch.setattr(experiment, "train_multi_restart", lambda *_: result)
        with pytest.raises(DataError, match=OVERFLOW):
            evaluate_cell(train_series, test_series, 4, 2, grid)

    @pytest.mark.filterwarnings("error")
    def test_runaway_restarts_fail_their_cell(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid(input_levels=(4,), hidden_levels=(2, 3), train_cfg=WILD_TRAIN)
        report = run_grid(train_series, test_series, grid)
        assert report.cells == ()
        assert report.failures == (CellFailure(p=4, h=2, error=RUNAWAY),
                                   CellFailure(p=4, h=3, error="all 2 restarts diverged"))
        with pytest.raises(DivergenceError, match=re.escape(RUNAWAY)):
            evaluate_cell(train_series, test_series, 4, 2, grid)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("zero_at", [None, 2])
    def test_items_equal_evaluate_cell(self, ar_split, monkeypatch, zero_at):
        train_series, test_series = ar_split
        if zero_at is not None:
            # past the 1-point horizon, inside the 4-point one
            values = test_series.values.copy()
            values[zero_at] = 0.0
            test_series = TimeSeries(test_series.dates, values, test_series.name)
        grid = small_grid(input_levels=(4,), hidden_levels=(2, 3, 5, 8))
        train_multi_restart = experiment.train_multi_restart

        def per_width(arch, data, train_cfg):
            # h = 2 wins with forecasts that overflow, h = 3 ends as at
            # WILD_TRAIN, and the others train normally
            if arch.hidden_count == 2:
                return overflowing(arch)
            return train_multi_restart(arch, data,
                                       WILD_TRAIN if arch.hidden_count == 3 else train_cfg)

        monkeypatch.setattr(experiment, "train_multi_restart", per_width)
        windows = experiment._cell_windows(train_series, test_series, 4, grid.scale)
        outcomes, alone = [], []
        started = time.perf_counter()
        for h in grid.hidden_levels:
            try:
                outcomes.append(per_width(Architecture(4, h), windows[1], grid.train_cfg))
            except DivergenceError as exc:
                outcomes.append(exc)
            try:
                alone.append(evaluate_cell(train_series, test_series, 4, h, grid)[0])
            except (DataError, DivergenceError) as exc:
                alone.append(CellFailure(p=4, h=h, error=str(exc)))
        items = experiment._cell_records(train_series, test_series, grid, windows,
                                         grid.hidden_levels, outcomes, started)
        assert items == alone
        errors = [getattr(item, "error", None) for item in items]
        survivors = ([None] * 2 if zero_at is None else
                     ["MAPE undefined: actual values contain zero"] * 2)
        assert errors == [OVERFLOW, "all 2 restarts diverged", *survivors]


@pytest.mark.parametrize("cells, workers", [
    (1, 2), (30, 3), (40, 2), (63, 2), (64, 2), (100, 3), (1000, 2), (1000, 8), (5000, 2),
    (1, 1), (30, 1), (50, 1), (1000, 1),
])
def test_chunk_schedule(cells, workers):
    # the cells as one level per cell, as levels of 10 widths, and as one level
    for widths in (1, 10, cells):
        if cells % widths:
            continue
        grid = GridConfig(input_levels=range(1, cells // widths + 1),
                          hidden_levels=range(1, widths + 1))
        tasks = _chunk_schedule(grid, workers)
        order = [(p, h) for p in grid.input_levels for h in grid.hidden_levels]
        assert [(p, h) for p, piece in tasks for h in piece] == order
        # a piece takes its share of the cells scheduled before it or of the
        # cells left, whichever is fewer, or less where its level ends
        done = 0
        for _, piece in tasks:
            share = max(1, min(done, cells - done) // workers)
            assert len(piece) == share or (len(piece) < share and piece[-1] == widths)
            done += len(piece)
        assert len(tasks[0][1]) == 1
        if workers > 1:
            # a serial sweep has no workers to finish together
            assert len(tasks[-1][1]) == 1
        if len(grid.input_levels) == 1 and cells > 1:
            # one level still splits, so every worker gets work
            assert len(tasks) > workers
        assert len(tasks) <= len(grid.input_levels) + 2 * workers * (1 + math.log2(cells))


def test_chunk_schedule_runs_whole_levels_between_growth_and_tail():
    # the shape of the benchmark's wide grid: 40 input levels of 25 widths
    grid = GridConfig(input_levels=range(1, 41), hidden_levels=range(1, 26))
    tasks = _chunk_schedule(grid, 2)
    for p in range(3, 40):
        assert [widths for q, widths in tasks if q == p] == [grid.hidden_levels]
    assert len(tasks) == 54


def test_serial_schedule_of_the_paper_grid():
    # a serial sweep of the paper's grid waits one width for its first record
    tasks = _chunk_schedule(GridConfig(), 1)
    assert tasks == [(1, (6,)), (1, (12,)), (1, (18, 24)), (1, (30,)),
                     *((p, (6, 12, 18, 24, 30)) for p in range(2, 11))]


class TestReportPersistence:
    def test_round_trip(self, ar_split, tmp_path):
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series, small_grid())
        path = tmp_path / "grid.fxr"
        save_report(report, path)
        assert load_report(path) == report

    def test_round_trip_preserves_exact_floats(self, ar_split):
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series, small_grid())
        buffer = io.StringIO()
        save_report(report, buffer)
        buffer.seek(0)
        loaded = load_report(buffer)
        for a, b in zip(report.cells, loaded.cells):
            assert a.in_sample.rmse == b.in_sample.rmse
            assert a.best_sse == b.best_sse

    def test_random_records_round_trip(self):
        # reports of random valid records load back equal and save to the
        # same bytes: integer-valued and numpy metrics, numpy integer
        # coordinates and lengths, and error texts that JSON must escape
        rng = np.random.default_rng(24)
        kinds = (lambda: float(rng.uniform(0.0, 10.0)), lambda: int(rng.integers(0, 100)),
                 lambda: np.float64(rng.exponential()), lambda: np.int64(rng.integers(0, 9)),
                 lambda: np.float32(rng.uniform()),
                 lambda: float(rng.choice([0.0, 1e-300, 1e308])))

        def value():
            return kinds[rng.integers(len(kinds))]()

        def rows():
            return tuple((label, MetricRow(value(), value(), value()))
                         for label in SHORT_HORIZONS.labels)

        for _ in range(30):
            inputs = tuple(range(1, int(rng.integers(2, 5))))
            hidden = tuple(sorted(rng.choice(np.arange(1, 9), int(rng.integers(1, 4)), False)))
            cfg = TrainConfig(learning_rate=int(rng.integers(1, 3)), max_epochs=np.int64(5),
                              init_half_width=np.float32(0.25), master_seed=np.int64(3))
            grid = GridConfig(input_levels=inputs, hidden_levels=hidden, train_cfg=cfg,
                              horizon_spec=SHORT_HORIZONS)
            cells, failures = [], []
            for p in inputs:
                for h in hidden:
                    p, h = (np.int64(p), h) if rng.random() < 0.5 else (p, np.int64(h))
                    if rng.random() < 0.3:
                        failures.append(CellFailure(p, h, f'fail\n "{p}" \u00e9'))
                    else:
                        cells.append(CellResult(p, h, MetricRow(value(), value(), value()),
                                                rows(), value()))
            rng.shuffle(cells)
            report = GridReport(cells, failures, rows(), grid, "unit \u00e9",
                                np.int64(100), np.int32(8))
            first = io.StringIO()
            save_report(report, first)
            loaded = load_report(io.StringIO(first.getvalue()))
            assert loaded == report
            second = io.StringIO()
            save_report(loaded, second)
            assert second.getvalue() == first.getvalue()

    def test_truncated_rejected(self, ar_split):
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series, small_grid())
        buffer = io.StringIO()
        save_report(report, buffer)
        lines = buffer.getvalue().splitlines()
        truncated = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(ReportFormatError, match="truncated"):
            load_report(io.StringIO(truncated))

    def test_corrupt_line_rejected(self, ar_split):
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series, small_grid())
        buffer = io.StringIO()
        save_report(report, buffer)
        text = buffer.getvalue().replace('"best_sse"', '"best_sse!', 1)
        with pytest.raises(ReportFormatError):
            load_report(io.StringIO(text))

    def test_version_mismatch_rejected(self, ar_split):
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series, small_grid())
        buffer = io.StringIO()
        save_report(report, buffer)
        text = buffer.getvalue().replace('"version": 1', '"version": 42', 1)
        with pytest.raises(ReportVersionError):
            load_report(io.StringIO(text))

    def test_not_a_report_rejected(self):
        with pytest.raises(ReportFormatError):
            load_report(io.StringIO('{"format": "csv"}\n'))
        with pytest.raises(ReportFormatError):
            load_report(io.StringIO(""))

    @staticmethod
    def two_record_lines(ar_split) -> list:
        """The lines of a report of a cell (1, 2) and a failure (2, 2): the
        header, the random walk, the cell and the failure."""
        train_series, test_series = ar_split
        grid = small_grid(hidden_levels=(2,))
        rw_rows = random_walk_rows(train_series, test_series, grid.horizon_spec)
        cell = CellResult(p=1, h=2, in_sample=MetricRow(1.0, 1.0, 1.0),
                          out_sample=rw_rows, best_sse=1.0)
        failure = CellFailure(p=2, h=2, error="all 2 restarts diverged")
        report = GridReport([cell], [failure], rw_rows, grid, "unit", 110, 10)
        buffer = io.StringIO()
        save_report(report, buffer)
        return buffer.getvalue().splitlines(keepends=True)

    @pytest.mark.parametrize("record_type, edit, message", [
        ("failure", lambda r: r.update(p=9), "off the header's grid"),
        ("cell", lambda r: r["out_sample"].pop(), "horizon labels"),
    ])
    def test_records_inconsistent_with_header_rejected(self, ar_split, record_type,
                                                       edit, message):
        records = [json.loads(line) for line in self.two_record_lines(ar_split)]
        edit(next(r for r in records[1:] if r["type"] == record_type))
        text = "".join(json.dumps(r) + "\n" for r in records)
        with pytest.raises(ReportFormatError, match=message):
            load_report(io.StringIO(text))

    # each error names where it was found: the header or the 1-based line
    @pytest.mark.parametrize("lines, message", [
        pytest.param(lambda head, rw, cell, fail: [head, rw, cell, fail, cell],
                     "corrupt report line 5: duplicate cell record (1, 2)", id="duplicate-cell"),
        pytest.param(lambda head, rw, cell, fail: [head, rw, cell, fail, rw],
                     "corrupt report line 5: duplicate random_walk record", id="second-rw"),
        pytest.param(lambda head, rw, cell, fail:
                     [head, rw, cell.replace('"type": "cell"', '"type": "cells"'), fail],
                     "corrupt report line 3: unknown record type 'cells'", id="unknown-type"),
        pytest.param(lambda head, rw, cell, fail: [head, rw, "[1, 2]\n", cell, fail],
                     "corrupt report line 3: not a record", id="line-not-object"),
        # a line number counts every line of the file, blank ones too
        pytest.param(lambda head, rw, cell, fail:
                     [head, "\n", rw, cell.replace('"type": "cell"', '"type": "cellx"'), fail],
                     "corrupt report line 4: unknown record type 'cellx'", id="after-blank-line"),
        pytest.param(lambda head, rw, cell, fail: ["\n", head, rw, " \t\n", "[]\n", cell, fail],
                     "corrupt report line 5: not a record", id="after-blank-lines"),
        pytest.param(lambda head, rw, cell, fail: [head, cell, fail],
                     "missing random_walk record", id="no-rw"),
        pytest.param(lambda head, rw, cell, fail:
                     [head.replace('"restarts": 2, ', ""), rw, cell, fail],
                     "corrupt report header: train_cfg fields", id="train-cfg-field-missing"),
        pytest.param(lambda head, rw, cell, fail:
                     [head, rw, cell, fail.replace('"all 2 restarts diverged"', "null")],
                     "corrupt report line 4: error None is not of type str", id="error-null"),
    ])
    def test_malformed_lines_rejected(self, ar_split, lines, message):
        text = "".join(lines(*self.two_record_lines(ar_split)))
        with pytest.raises(ReportFormatError, match=re.escape(message)):
            load_report(io.StringIO(text))

    def test_every_train_config_field_round_trips(self, ar_split, tmp_path):
        cfg = TrainConfig(learning_rate=3e-3, max_epochs=7, min_sse_delta=1e-7,
                          restarts=1, init_half_width=0.25, master_seed=12)
        defaults = TrainConfig()
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert all(getattr(cfg, n) != getattr(defaults, n) for n in names)
        train_series, test_series = ar_split
        report = run_grid(train_series, test_series,
                          small_grid(input_levels=(1,), hidden_levels=(2,), train_cfg=cfg))
        path = tmp_path / "report.fxr"
        save_report(report, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert list(header["config"]["train_cfg"]) == names
        assert load_report(path).config.train_cfg == cfg

    def test_numpy_integers_round_trip(self, ar_split):
        # a config built from numpy integers streams a report that reads back
        train_series, test_series = ar_split
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=30, restarts=2,
                          master_seed=np.int64(3))
        grid = small_grid(input_levels=np.arange(1, 3), hidden_levels=(2,), train_cfg=cfg)
        buffer = io.StringIO()
        report = run_grid(train_series, test_series, grid, sink=buffer)
        buffer.seek(0)
        loaded = load_report(buffer)
        assert loaded.config == grid
        assert loaded == report

    @pytest.mark.parametrize("field, value", [
        pytest.param("learning_rate", np.float32(1e-3), id="float32"),
        pytest.param("learning_rate", np.float16(1e-3), id="float16"),
        pytest.param("init_half_width", np.int64(1), id="int64"),
    ])
    def test_numpy_scalars_in_float_fields_round_trip(self, ar_split, field, value):
        # stored as a Python float, which json can write
        cfg = TrainConfig(**{"learning_rate": 1e-3, "max_epochs": 30, "restarts": 2,
                             field: value})
        assert type(getattr(cfg, field)) is float and getattr(cfg, field) == float(value)
        train_series, test_series = ar_split
        grid = small_grid(input_levels=(1,), hidden_levels=(2,), train_cfg=cfg)
        buffer = io.StringIO()
        report = run_grid(train_series, test_series, grid, sink=buffer)
        buffer.seek(0)
        loaded = load_report(buffer)
        assert loaded.config == grid
        assert loaded == report

    def test_failures_round_trip(self, ar_split):
        train_series, test_series = ar_split
        bad_cfg = TrainConfig(learning_rate=1e9, max_epochs=20, restarts=2, master_seed=1)
        report = run_grid(train_series, test_series, small_grid(train_cfg=bad_cfg))
        buffer = io.StringIO()
        save_report(report, buffer)
        buffer.seek(0)
        assert load_report(buffer) == report


# Each config class checks the types and values of its own fields, whether
# a config is built in code or read from a report header.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: TrainConfig(max_epochs=2.5), "max_epochs 2.5 is not an integer",
                 id="max_epochs-2.5"),
    pytest.param(lambda: TrainConfig(restarts=1.5), "restarts 1.5 is not an integer",
                 id="restarts-1.5"),
    pytest.param(lambda: TrainConfig(restarts=True), "restarts True is not an integer",
                 id="restarts-True"),
    pytest.param(lambda: GridConfig(input_levels=(1.5, 2)), "input_levels 1.5 is not an integer",
                 id="input_levels-1.5"),
    pytest.param(lambda: GridConfig(scale="no"), "scale 'no' is not a bool", id="scale-no"),
    pytest.param(lambda: HorizonSpec((("a", 4.9),)), "horizon length 4.9 is not an integer",
                 id="horizon-4.9"),
    pytest.param(lambda: Architecture(True, 2), "input_count True is not an integer",
                 id="input_count-True"),
    pytest.param(lambda: Architecture(0, 3), "input_count must be at least 1",
                 id="input_count-0"),
    pytest.param(lambda: Architecture(2, 0), "hidden_count must be at least 1",
                 id="hidden_count-0"),
    pytest.param(lambda: ColumnFormat(delimiter=5), "delimiter must be a one-character str",
                 id="delimiter-5"),
    pytest.param(lambda: ColumnFormat(value_col="1"), "value_col '1' is not an integer",
                 id="value_col-str"),
    pytest.param(lambda: ColumnFormat(date_col=1.5), "date_col 1.5 is not an integer",
                 id="date_col-1.5"),
    pytest.param(lambda: TrainConfig(learning_rate="0.1"), "learning_rate '0.1' is not a number",
                 id="learning_rate-str"),
    pytest.param(lambda: GridConfig(input_levels=5), "input_levels 5 is not a sequence",
                 id="input_levels-int"),
    pytest.param(lambda: GridConfig(hidden_levels=None), "hidden_levels None is not a sequence",
                 id="hidden_levels-None"),
    pytest.param(lambda: HorizonSpec("ab"), "horizon windows 'ab' are not (label, length) pairs",
                 id="horizon-str"),
    pytest.param(lambda: HorizonSpec([("1m",)]), "horizon windows [('1m',)] are not",
                 id="horizon-not-pair"),
    pytest.param(lambda: HorizonSpec(5), "horizon windows 5 are not", id="horizon-int"),
    pytest.param(lambda: Scaler("a", 1.0), "min 'a' is not a number", id="scaler-min-str"),
    pytest.param(lambda: TrainConfig(max_epochs=0), "max_epochs must be at least 1",
                 id="max_epochs-0"),
    pytest.param(lambda: TrainConfig(restarts=0), "restarts must be at least 1", id="restarts-0"),
    pytest.param(lambda: GridConfig(input_levels=()), "input_levels must be nonempty",
                 id="input_levels-empty"),
    pytest.param(lambda: GridConfig(hidden_levels=(0, 2)), "hidden_levels must be positive",
                 id="hidden_levels-0"),
    pytest.param(lambda: GridConfig(input_levels=(2, 2)),
                 "input_levels must be strictly increasing", id="input_levels-repeated"),
    pytest.param(lambda: GridConfig(hidden_levels=(3, 2)),
                 "hidden_levels must be strictly increasing", id="hidden_levels-decreasing"),
])
def test_config_types_checked_at_construction(build, message):
    with pytest.raises(DataError, match=re.escape(message)):
        build()


ROW = MetricRow(1.0, 1.0, 1.0)


def cell_with(**changes):
    return CellResult(**{"p": 1, "h": 2, "in_sample": ROW, "out_sample": (("1w", ROW),),
                         "best_sse": 1.0, **changes})


def report_with(**changes):
    return GridReport(**{"cells": (), "failures": (), "random_walk_rows": (),
                         "config": GridConfig(), "series_name": "unit", "train_len": 10,
                         "test_len": 5, **changes})


# Each report record checks its own fields, whether it is built in code or
# read from a report, so that save_report writes only what load_report reads.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: MetricRow(True, 1.0, 1.0), "rmse True is not a number", id="rmse-True"),
    pytest.param(lambda: MetricRow(1.0, "1", 1.0), "mae '1' is not a number", id="mae-str"),
    pytest.param(lambda: MetricRow(1.0, 1.0, 10**400), "mape is an integer too large for a float",
                 id="mape-10**400"),
    pytest.param(lambda: MetricRow(-1, 1.0, 1.0), "rmse -1.0 is not finite and >= 0",
                 id="rmse-negative"),
    pytest.param(lambda: MetricRow(1.0, math.nan, 1.0), "mae nan is not finite and >= 0",
                 id="mae-nan"),
    pytest.param(lambda: cell_with(p=1.0), "p 1.0 is not an integer", id="cell-p-float"),
    pytest.param(lambda: cell_with(h=True), "h True is not an integer", id="cell-h-True"),
    pytest.param(lambda: cell_with(best_sse=-1.0), "best_sse -1.0 is not finite and >= 0",
                 id="best_sse-negative"),
    pytest.param(lambda: cell_with(best_sse=math.nan), "best_sse nan is not finite and >= 0",
                 id="best_sse-nan"),
    pytest.param(lambda: cell_with(best_sse=math.inf), "best_sse inf is not finite and >= 0",
                 id="best_sse-inf"),
    pytest.param(lambda: cell_with(best_sse=False), "best_sse False is not a number",
                 id="best_sse-False"),
    pytest.param(lambda: CellFailure(p=2.0, h=2, error="x"), "p 2.0 is not an integer",
                 id="failure-p-float"),
    pytest.param(lambda: CellFailure(p=1, h=False, error="x"), "h False is not an integer",
                 id="failure-h-False"),
    pytest.param(lambda: CellFailure(p=1, h=2, error=None), "error None is not of type str",
                 id="error-None"),
    pytest.param(lambda: CellFailure(p=1, h=2, error=5), "error 5 is not of type str",
                 id="error-int"),
    pytest.param(lambda: report_with(series_name=5), "series_name 5 is not of type str",
                 id="series_name-int"),
    pytest.param(lambda: report_with(train_len=2.0), "train_len 2.0 is not an integer",
                 id="train_len-float"),
    pytest.param(lambda: report_with(test_len=0), "lengths 10, 0 are not both positive",
                 id="test_len-0"),
])
def test_report_records_checked_at_construction(build, message):
    with pytest.raises(DataError, match=re.escape(message)):
        build()


def test_records_store_plain_numbers():
    # numpy numbers are stored as the Python int or float that json writes
    cell = cell_with(p=np.int64(1), h=np.int32(2), in_sample=MetricRow(np.float32(0.5), 1, 2),
                     best_sse=np.float64(3.0))
    assert [type(v) for v in (cell.p, cell.h, cell.best_sse)] == [int, int, float]
    assert [type(v) for v in (cell.in_sample.rmse, cell.in_sample.mae)] == [float, float]
    report = report_with(cells=[cell_with(h=3), cell], random_walk_rows=[("1w", ROW)],
                         train_len=np.int64(10))
    assert [c.h for c in report.cells] == [2, 3] and type(report.train_len) is int
    assert type(report.cells) is tuple and type(report.random_walk_rows) is tuple


def tiny_report():
    """A 3 x 2 report: one failed cell at p=2 and every cell failed at p=3."""
    row = MetricRow(rmse=1.0, mae=0.5, mape=10.0)
    other = MetricRow(rmse=2.0, mae=0.25, mape=12.5)
    out = (("1w", row), ("4w", other))
    rw = (("1w", MetricRow(3.0, 1.5, 30.0)), ("4w", MetricRow(4.0, 2.0, 40.0)))
    cells = [
        CellResult(p=1, h=2, in_sample=row, out_sample=out, best_sse=0.5),
        CellResult(p=1, h=3, in_sample=other, out_sample=(("1w", other), ("4w", row)),
                   best_sse=0.5),
        CellResult(p=2, h=3, in_sample=row, out_sample=out, best_sse=0.5),
    ]
    failures = [
        CellFailure(p=2, h=2, error="all 2 restarts diverged"),
        CellFailure(p=3, h=2, error="all 2 restarts diverged"),
        CellFailure(p=3, h=3, error="MAPE undefined: actual values contain zero"),
    ]
    cells_cfg = GridConfig(
        input_levels=(1, 2, 3), hidden_levels=(2, 3), train_cfg=FAST_TRAIN,
        horizon_spec=SHORT_HORIZONS,
    )
    return GridReport(cells, failures, rw, cells_cfg, "unit", 110, 10)


def all_failed_report():
    rw = (("1w", MetricRow(3.0, 1.5, 30.0)), ("4w", MetricRow(4.0, 2.0, 40.0)))
    failures = [CellFailure(p=p, h=4, error=f"all 2 restarts diverged at p={p}")
                for p in (1, 2)]
    grid = GridConfig(input_levels=(1, 2), hidden_levels=(4,), train_cfg=FAST_TRAIN,
                      horizon_spec=SHORT_HORIZONS)
    return GridReport([], failures, rw, grid, "unit", 60, 10)


# The exact text of every view of both reports: column widths, 8-decimal
# metrics, failure rows and the blank line between blocks.
VIEW_TEXT = {
    ("tiny_report", "in_sample"): """\
Input  Hidden  RMSE           MAE            MAPE
1      2       1.00000000     0.50000000     10.00000000
1      3       2.00000000     0.25000000     12.50000000
Avgr           1.50000000     0.37500000     11.25000000
2      2       FAILED: all 2 restarts diverged
2      3       1.00000000     0.50000000     10.00000000
Avgr           1.00000000     0.50000000     10.00000000
3      2       FAILED: all 2 restarts diverged
3      3       FAILED: MAPE undefined: actual values contain zero
""",
    ("tiny_report", "out_sample_by_input"): """\
Input  RMSE(1w)       MAE(1w)        MAPE(1w)
1      1.50000000     0.37500000     11.25000000
2      1.00000000     0.50000000     10.00000000
3      FAILED: no surviving cells
RW     3.00000000     1.50000000     30.00000000

Input  RMSE(4w)       MAE(4w)        MAPE(4w)
1      1.50000000     0.37500000     11.25000000
2      2.00000000     0.25000000     12.50000000
3      FAILED: no surviving cells
RW     4.00000000     2.00000000     40.00000000
""",
    ("tiny_report", "hidden_effect"): """\
Sample    Input  Hidden  RMSE(1w)       MAE(1w)        MAPE(1w)
N=110     1      2       1.00000000     0.50000000     10.00000000
N=110     1      3       2.00000000     0.25000000     12.50000000
N=110     2      2       FAILED: all 2 restarts diverged
N=110     2      3       1.00000000     0.50000000     10.00000000
N=110     3      2       FAILED: all 2 restarts diverged
N=110     3      3       FAILED: MAPE undefined: actual values contain zero

Sample    Input  Hidden  RMSE(4w)       MAE(4w)        MAPE(4w)
N=110     1      2       2.00000000     0.25000000     12.50000000
N=110     1      3       1.00000000     0.50000000     10.00000000
N=110     2      2       FAILED: all 2 restarts diverged
N=110     2      3       2.00000000     0.25000000     12.50000000
N=110     3      2       FAILED: all 2 restarts diverged
N=110     3      3       FAILED: MAPE undefined: actual values contain zero
""",
    ("all_failed_report", "in_sample"): """\
Input  Hidden  RMSE           MAE            MAPE
1      4       FAILED: all 2 restarts diverged at p=1
2      4       FAILED: all 2 restarts diverged at p=2
""",
    ("all_failed_report", "out_sample_by_input"): """\
Input  RMSE(1w)       MAE(1w)        MAPE(1w)
1      FAILED: no surviving cells
2      FAILED: no surviving cells
RW     3.00000000     1.50000000     30.00000000

Input  RMSE(4w)       MAE(4w)        MAPE(4w)
1      FAILED: no surviving cells
2      FAILED: no surviving cells
RW     4.00000000     2.00000000     40.00000000
""",
    ("all_failed_report", "hidden_effect"): """\
Sample    Input  Hidden  RMSE(1w)       MAE(1w)        MAPE(1w)
N=60      1      4       FAILED: all 2 restarts diverged at p=1
N=60      2      4       FAILED: all 2 restarts diverged at p=2

Sample    Input  Hidden  RMSE(4w)       MAE(4w)        MAPE(4w)
N=60      1      4       FAILED: all 2 restarts diverged at p=1
N=60      2      4       FAILED: all 2 restarts diverged at p=2
""",
}


class TestRenderTable:
    def test_in_sample_shape(self):
        text = render_table(tiny_report(), "in_sample")
        lines = text.splitlines()
        assert lines[0].split() == ["Input", "Hidden", "RMSE", "MAE", "MAPE"]
        assert sum(1 for line in lines if line.startswith("Avgr")) == 2
        assert any("FAILED" in line for line in lines)
        # 8-decimal rendering
        assert "1.00000000" in text and "10.00000000" in text

    def test_out_sample_ends_with_rw(self):
        text = render_table(tiny_report(), "out_sample_by_input")
        lines = text.splitlines()
        assert lines[-1].startswith("RW")
        assert sum(1 for line in lines if line.startswith("RW")) == 2  # one per horizon

    def test_hidden_effect_shape(self):
        text = render_table(tiny_report(), "hidden_effect")
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["Sample", "Input", "Hidden"]
        assert any(line.startswith("N=110") for line in lines)

    def test_unknown_view(self):
        with pytest.raises(DataError):
            render_table(tiny_report(), "bogus")

    @pytest.mark.parametrize("view", experiment._VIEWS)
    def test_cell_without_record_named(self, view):
        report = tiny_report()
        report = dataclasses.replace(report, cells=report.cells[1:])
        with pytest.raises(DataError, match=r"cell \(1, 2\)"):
            render_table(report, view)

    @pytest.mark.parametrize("name, view", VIEW_TEXT)
    def test_exact_text(self, name, view):
        build = {"tiny_report": tiny_report, "all_failed_report": all_failed_report}[name]
        assert render_table(build(), view) == VIEW_TEXT[name, view]
