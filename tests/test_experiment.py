import dataclasses
import datetime
import io
import json
import math
import time

import numpy as np
import pytest

from fxcast import (
    Architecture,
    CellFailure,
    CellResult,
    DataError,
    DivergenceError,
    GridConfig,
    GridReport,
    HorizonSpec,
    MetricRow,
    ReportFormatError,
    ReportVersionError,
    TimeSeries,
    TrainConfig,
    evaluate_cell,
    fit_scaler,
    forward,
    load_report,
    make_windows,
    random_walk_rows,
    render_table,
    run_grid,
    save_report,
    split_by_count,
    sse,
    synthesize_series,
    train,
)
from fxcast import experiment
from fxcast.experiment import _chunk_schedule
from fxcast.mlp import _initial_nets

from conftest import series_of

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

    def test_invalid_logistic_params(self):
        with pytest.raises(DataError):
            synthesize_series("logistic_map", 10, r=-1.0)
        with pytest.raises(DataError):
            synthesize_series("logistic_map", 10, x0=1.5)

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
        expected = scaler.invert(forward(net, scaler.apply(train_series.values[-p:])))
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

    def test_in_sample_covers_n_minus_p_patterns(self, ar_split):
        # with scaling disabled and a network stub this is exact; here just
        # check the metrics are finite and reproducible across p
        train_series, test_series = ar_split
        for p in (1, 3):
            cell = evaluate_cell(train_series, test_series, p, 2, small_grid())[0]
            assert cell.in_sample.rmse >= 0.0


class TestRunGrid:
    def test_shape_and_averages(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid()
        report = run_grid(train_series, test_series, grid)
        assert len(report.cells) == 4
        assert [(c.p, c.h) for c in report.cells] == [(1, 2), (1, 3), (2, 2), (2, 3)]
        # averages recomputable from cells
        for avg in report.per_input_averages:
            group = [c for c in report.cells if c.p == avg.p]
            assert avg.in_sample.rmse == pytest.approx(
                sum(c.in_sample.rmse for c in group) / len(group), abs=1e-12
            )
            for label, row in avg.out_sample:
                want = sum(dict(c.out_sample)[label].mae for c in group) / len(group)
                assert row.mae == pytest.approx(want, abs=1e-12)

    def test_single_cell_average_is_cell(self, ar_split):
        train_series, test_series = ar_split
        report = run_grid(
            train_series, test_series, small_grid(input_levels=(1,), hidden_levels=(2,))
        )
        assert len(report.cells) == 1
        assert report.per_input_averages[0].in_sample == report.cells[0].in_sample

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

        class RecordingPool(experiment.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
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
        assert report.per_input_averages == ()

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

    @pytest.mark.parametrize("hook", ["sink", "progress"])
    def test_pooled_sweep_stops_promptly_on_error(self, ar_split, hook):
        # 40 cells of similar cost on 2 workers: a sweep that fails on its
        # first cell must stop after the few cells already running, not run
        # the ~20 rounds of the whole grid
        train_series, test_series = ar_split
        grid = small_grid(
            input_levels=tuple(range(1, 9)), hidden_levels=(4, 5, 6, 7, 8),
            train_cfg=TrainConfig(learning_rate=1e-3, max_epochs=600, restarts=2),
        )
        started = time.perf_counter()
        run_grid(train_series, test_series, grid, workers=2)
        whole = time.perf_counter() - started

        class Failing(Exception):
            pass

        class FailingSink(io.StringIO):
            def write(self, text):
                if '"type": "cell"' in text:
                    raise Failing()
                return super().write(text)

        def failing_progress(done, total, item):
            raise Failing()

        hooks = {"sink": FailingSink(), "progress": failing_progress}
        started = time.perf_counter()
        with pytest.raises(Failing):
            run_grid(train_series, test_series, grid, workers=2, **{hook: hooks[hook]})
        assert time.perf_counter() - started < 0.5 * whole

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunked_pool_matches_serial(self, ar_split, workers):
        train_series, test_series = ar_split
        grid = small_grid(input_levels=tuple(range(1, 11)), hidden_levels=tuple(range(2, 12)))
        order = [(p, h) for p in grid.input_levels for h in grid.hidden_levels]
        assert len(_chunk_schedule(order, workers)) < len(order)
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

    def test_chunked_pool_stops_promptly_on_sink_error(self, ar_split):
        # 100 cells on 2 workers run as chunks of up to 3 cells: a sink that
        # fails on the first cell must stop the sweep after the chunks
        # already running, not after the ~50 cells per worker of the grid
        train_series, test_series = ar_split
        grid = small_grid(
            input_levels=tuple(range(1, 11)), hidden_levels=tuple(range(2, 12)),
            train_cfg=TrainConfig(learning_rate=1e-3, max_epochs=300, restarts=2),
        )
        order = [(p, h) for p in grid.input_levels for h in grid.hidden_levels]
        assert len(_chunk_schedule(order, 2)[0]) > 1
        started = time.perf_counter()
        run_grid(train_series, test_series, grid, workers=2)
        whole = time.perf_counter() - started

        class Failing(Exception):
            pass

        class FailingSink(io.StringIO):
            def write(self, text):
                if '"type": "cell"' in text:
                    raise Failing()
                return super().write(text)

        started = time.perf_counter()
        with pytest.raises(Failing):
            run_grid(train_series, test_series, grid, workers=2, sink=FailingSink())
        assert time.perf_counter() - started < 0.5 * whole


class TestLevelBlocks:
    # run_grid trains the restarts of all hidden widths of one input level
    # together; evaluate_cell trains one cell restart by restart
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
        assert rows * (len(train_series) - 1) <= experiment._BLOCK_BUDGET
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
                for net0 in _initial_nets(net.arch, cfg):
                    run = train(net0, data, cfg)
                    seen.add("some restarts diverged" if run.diverged else
                             "stopped early" if run.epochs_run < max_epochs else
                             "ran to the cap")
        assert outcomes <= seen


# restart SSEs grow to about 1e307 in 300 epochs on ar_split: at p = 4 the
# winner of h = 2 stays finite but overflows the measures, and both restarts
# of h = 3 diverge
WILD_TRAIN = TrainConfig(learning_rate=0.02, max_epochs=300, min_sse_delta=1e-3,
                         restarts=2, master_seed=11)
OVERFLOW = "in-sample forecasts overflow the rmse"


class TestLevelScoring:
    # run_grid scores each input level's cells as one block; evaluate_cell
    # scores a level of one cell
    @pytest.mark.filterwarnings("error")
    def test_overflowing_winner_named_without_a_warning(self, ar_split):
        train_series, test_series = ar_split
        grid = small_grid(input_levels=(4,), hidden_levels=(2, 3), train_cfg=WILD_TRAIN)
        report = run_grid(train_series, test_series, grid)
        assert report.failures == (CellFailure(p=4, h=2, error=OVERFLOW),
                                   CellFailure(p=4, h=3, error="all 2 restarts diverged"))
        with pytest.raises(DataError, match=OVERFLOW):
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
            # h = 2 and 3 end as at WILD_TRAIN, the others train normally
            return train_multi_restart(arch, data,
                                       WILD_TRAIN if arch.hidden_count < 4 else train_cfg)

        monkeypatch.setattr(experiment, "train_multi_restart", per_width)
        scaler, data = experiment._scaled_windows(train_series, 4, grid.scale)
        results, alone = [], []
        for h in grid.hidden_levels:
            try:
                results.append(per_width(Architecture(4, h), data, grid.train_cfg))
            except DivergenceError as exc:
                results.append(CellFailure(p=4, h=h, error=str(exc)))
            try:
                alone.append(evaluate_cell(train_series, test_series, 4, h, grid)[0])
            except (DataError, DivergenceError) as exc:
                alone.append(CellFailure(p=4, h=h, error=str(exc)))
        items = experiment._score_level(train_series, test_series, grid, scaler, data,
                                        results, [0.0] * len(results))
        assert items == alone
        errors = [getattr(item, "error", None) for item in items]
        survivors = ([None] * 2 if zero_at is None else
                     ["MAPE undefined: actual values contain zero"] * 2)
        assert errors == [OVERFLOW, "all 2 restarts diverged", *survivors]


@pytest.mark.parametrize("cells, workers", [
    (1, 2), (40, 2), (63, 2), (64, 2), (100, 3), (1000, 2), (1000, 8), (5000, 2),
])
def test_chunk_schedule(cells, workers):
    order = [(p, 1) for p in range(cells)]
    chunks = _chunk_schedule(order, workers)
    assert [cell for chunk in chunks for cell in chunk] == order
    sizes = [len(chunk) for chunk in chunks]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    tail = min(cells, 16 * workers)
    assert sizes[-tail:] == [1] * tail
    if cells < 32 * workers:
        assert sizes == [1] * cells
    assert len(chunks) <= 16 * workers * (1 + math.log(cells))


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

    @pytest.mark.parametrize("record_type, edit, message", [
        ("failure", lambda r: r.update(p=9), "off the header's grid"),
        ("cell", lambda r: r["out_sample"].pop(), "horizon labels"),
    ])
    def test_records_inconsistent_with_header_rejected(self, ar_split, record_type,
                                                       edit, message):
        train_series, test_series = ar_split
        grid = small_grid(hidden_levels=(2,))
        rw_rows = random_walk_rows(train_series, test_series, grid.horizon_spec)
        cell = CellResult(p=1, h=2, in_sample=MetricRow(1.0, 1.0, 1.0),
                          out_sample=rw_rows, best_sse=1.0)
        failure = CellFailure(p=2, h=2, error="all 2 restarts diverged")
        report = GridReport.build([cell], [failure], rw_rows, grid, "unit", 110, 10)
        buffer = io.StringIO()
        save_report(report, buffer)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        edit(next(r for r in records[1:] if r["type"] == record_type))
        text = "".join(json.dumps(r) + "\n" for r in records)
        with pytest.raises(ReportFormatError, match=message):
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

    def test_failures_round_trip(self, ar_split):
        train_series, test_series = ar_split
        bad_cfg = TrainConfig(learning_rate=1e9, max_epochs=20, restarts=2, master_seed=1)
        report = run_grid(train_series, test_series, small_grid(train_cfg=bad_cfg))
        buffer = io.StringIO()
        save_report(report, buffer)
        buffer.seek(0)
        assert load_report(buffer) == report


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
    return GridReport.build(cells, failures, rw, cells_cfg, "unit", 110, 10)


def all_failed_report():
    rw = (("1w", MetricRow(3.0, 1.5, 30.0)), ("4w", MetricRow(4.0, 2.0, 40.0)))
    failures = [CellFailure(p=p, h=4, error=f"all 2 restarts diverged at p={p}")
                for p in (1, 2)]
    grid = GridConfig(input_levels=(1, 2), hidden_levels=(4,), train_cfg=FAST_TRAIN,
                      horizon_spec=SHORT_HORIZONS)
    return GridReport.build([], failures, rw, grid, "unit", 60, 10)


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

    @pytest.mark.parametrize("name, view", VIEW_TEXT)
    def test_exact_text(self, name, view):
        build = {"tiny_report": tiny_report, "all_failed_report": all_failed_report}[name]
        assert render_table(build(), view) == VIEW_TEXT[name, view]
