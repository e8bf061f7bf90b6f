import dataclasses
import datetime
import math
import re

import numpy as np
import pytest

from fxcast import (
    Architecture,
    ColumnFormat,
    DataError,
    ForecastSet,
    Gradient,
    Mlp,
    ParseError,
    Scaler,
    TimeSeries,
    TrainResult,
    TrainRun,
    WindowedDataset,
    fit_scaler,
    make_windows,
    parse_series,
    split_by_count,
)

from conftest import series_of


class TestParseSeries:
    def test_two_rows(self):
        s = parse_series("2009-01-02,48.50\n2009-01-09,48.90")
        assert len(s) == 2
        assert list(s.values) == [48.50, 48.90]
        assert s.dates[0] == datetime.date(2009, 1, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_series("")

    def test_decreasing_date_rejected(self):
        with pytest.raises(ParseError, match="decreasing date"):
            parse_series("2009-01-09,48.90\n2009-01-02,48.50")

    def test_duplicate_date_rejected(self):
        with pytest.raises(ParseError, match="duplicate date"):
            parse_series("2009-01-02,48.50\n2009-01-02,48.90")

    def test_header_auto_detected(self):
        s = parse_series("date,value\n2009-01-02,48.50\n2009-01-09,48.90")
        assert len(s) == 2

    def test_header_only_is_empty(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_series("date,value\n")

    def test_malformed_row_reports_index(self):
        text = "2009-01-02,48.50\n2009-01-09,banana"
        with pytest.raises(ParseError, match="row 2") as info:
            parse_series(text)
        assert info.value.row == 2

    def test_bad_date_reports_index(self):
        with pytest.raises(ParseError, match="row 2.*malformed date"):
            parse_series("2009-01-02,48.50\n01/09/2009,48.90")

    def test_nonfinite_value_rejected(self):
        for bad in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ParseError, match="non-finite"):
                parse_series(f"2009-01-02,{bad}")

    def test_empty_value_field_rejected(self):
        with pytest.raises(ParseError, match="empty value"):
            parse_series("2009-01-02,48.50\n2009-01-09,")

    def test_short_row_rejected(self):
        with pytest.raises(ParseError, match="row 2"):
            parse_series("2009-01-02,48.50\n2009-01-09")

    def test_custom_delimiter_and_columns(self):
        fmt = ColumnFormat(delimiter=";", date_col=1, value_col=0)
        s = parse_series("48.50;2009-01-02\n48.90;2009-01-09", fmt)
        assert list(s.values) == [48.50, 48.90]

    def test_blank_lines_skipped(self):
        s = parse_series("2009-01-02,48.50\n\n2009-01-09,48.90\n")
        assert len(s) == 2

    def test_reads_streams(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("2009-01-02,48.50\n2009-01-09,48.90\n")
        with open(path) as handle:
            s = parse_series(handle, name=path.stem)
        assert len(s) == 2 and s.name == "series"


class TestTimeSeriesInvariants:
    def test_requires_observations(self):
        with pytest.raises(DataError):
            series_of([])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            series_of([1.0, math.inf])

    def test_values_are_read_only(self):
        s = series_of([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


def _layers():
    return dict(hidden_weights=np.array([[0.1, 0.2]]), hidden_biases=np.array([0.3]),
                output_weights=np.array([0.4]), output_bias=0.5)


def _net():
    return Mlp(Architecture(2, 1), **_layers())


_DAYS = [datetime.date(2000, 1, day) for day in (7, 14, 21, 28)]
# each record that holds arrays: its constructor arguments, built afresh on
# each call, and a new value for each field that can change alone
RECORDS = {
    "TimeSeries": (TimeSeries, lambda: dict(dates=_DAYS[:3], values=np.array([1.0, 2.0, 3.0]),
                                            name="s"),
                   dict(dates=_DAYS[1:], name="t")),
    "WindowedDataset": (WindowedDataset,
                        lambda: dict(window_len=2, inputs=np.array([[1.0, 2.0], [2.0, 3.0]]),
                                     targets=np.array([3.0, 4.0])), {}),
    "ForecastSet": (ForecastSet, lambda: dict(actual=np.array([1.0, 2.0]),
                                              predicted=np.array([1.5, 2.5])), {}),
    "Mlp": (Mlp, lambda: dict(arch=Architecture(2, 1), **_layers()), dict(output_bias=0.6)),
    "Gradient": (Gradient, _layers, dict(output_bias=0.6)),
    "TrainRun": (TrainRun, lambda: dict(net=_net(), sse=1.0, sse_trace=np.array([2.0, 1.0]),
                                        diverged=False),
                 dict(net=dataclasses.replace(_net(), output_bias=0.6), sse=1.5, diverged=True,
                      ran_away=True)),
    "TrainResult": (TrainResult,
                    lambda: dict(best_net=_net(), best_sse=1.0, best_restart_index=0,
                                 epochs_run=2, sse_trace=np.array([2.0, 1.0])),
                    dict(best_net=dataclasses.replace(_net(), output_bias=0.6), best_sse=1.5,
                         best_restart_index=1, epochs_run=3)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen_and_compares_by_value(name):
    cls, arguments, changes = RECORDS[name]
    given = arguments()
    record = cls(**given)
    array_fields = [f.name for f in dataclasses.fields(cls) if f.type == "np.ndarray"]
    assert array_fields
    # the record holds read-only copies: mutating the input leaves it unchanged
    for field in array_fields:
        given[field].flat[0] += 1.0
    assert record == cls(**arguments())
    for field in array_fields:
        with pytest.raises(ValueError):
            getattr(record, field).flat[0] = 9.0
    assert record == dataclasses.replace(record)
    # one changed element of any array, or one changed scalar, breaks equality
    for field in array_fields:
        values = getattr(record, field).copy()
        values.flat[-1] += 1.0
        assert record != dataclasses.replace(record, **{field: values})
    for field, value in changes.items():
        assert record != dataclasses.replace(record, **{field: value})
    assert (record == object()) is False
    assert record != cls.__name__
    with pytest.raises(TypeError):
        hash(record)


DATE = datetime.date(2000, 1, 7)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: TimeSeries((DATE, DATE + datetime.timedelta(weeks=1)), [[1.0], [2.0]]),
                 "series values must be one-dimensional", id="series-2d-values"),
    pytest.param(lambda: TimeSeries((DATE,), [1.0, 2.0]),
                 "series has mismatched date and value counts", id="series-one-date-too-few"),
    pytest.param(lambda: TimeSeries((DATE, DATE), [1.0, 2.0]),
                 "dates not strictly increasing at 2000-01-07", id="series-repeated-date"),
    pytest.param(lambda: WindowedDataset(0, np.zeros((1, 0)), [1.0]),
                 "window length must be positive", id="windows-length-0"),
    pytest.param(lambda: WindowedDataset(2, np.zeros((3, 1)), np.zeros(3)),
                 "pattern inputs do not match the window length", id="windows-too-narrow"),
    pytest.param(lambda: WindowedDataset(1, np.zeros(3), np.zeros(3)),
                 "pattern inputs do not match the window length", id="windows-1d-inputs"),
    pytest.param(lambda: WindowedDataset(1, np.zeros((3, 1)), np.zeros(2)),
                 "pattern inputs and targets differ in count", id="windows-target-count"),
    pytest.param(lambda: WindowedDataset(1, np.zeros((0, 1)), np.zeros(0)),
                 "dataset must contain at least one pattern", id="windows-empty"),
    pytest.param(lambda: split_by_count(series_of([1.0, 2.0, 3.0]), 0, 2),
                 "train and test lengths must be positive", id="split-train-0"),
    pytest.param(lambda: split_by_count(series_of([1.0, 2.0, 3.0]), 2, 0),
                 "train and test lengths must be positive", id="split-test-0"),
])
def test_invalid_series_records_rejected(build, message):
    with pytest.raises(DataError, match=re.escape(message)):
        build()


class TestMakeWindows:
    def test_lag_two_patterns(self):
        data = make_windows(series_of([10, 20, 30, 40, 50]), 2)
        assert len(data) == 3
        assert data.inputs.tolist() == [[10, 20], [20, 30], [30, 40]]
        assert data.targets.tolist() == [30, 40, 50]

    def test_minimal_series(self):
        data = make_windows(series_of([1, 2]), 1)
        assert len(data) == 1
        assert data.inputs.tolist() == [[1]] and data.targets.tolist() == [2]

    def test_window_must_be_shorter_than_series(self):
        with pytest.raises(DataError):
            make_windows(series_of([1, 2, 3]), 3)

    def test_window_must_be_positive(self):
        with pytest.raises(DataError):
            make_windows(series_of([1, 2, 3]), 0)

    def test_window_contents_match_source(self):
        # every pattern must be an exact subsequence of the source
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(1, n))
            values = rng.normal(size=n)
            data = make_windows(series_of(values), p)
            assert len(data) == n - p
            for i in range(n - p):
                assert data.inputs[i].tolist() == values[i : i + p].tolist()
                assert data.targets[i] == values[i + p]


class TestSplitByCount:
    def test_large_sample_counts(self):
        rng = np.random.default_rng(0)
        s = series_of(rng.uniform(40, 50, 1095))
        train, test = split_by_count(s, 1043, 52)
        assert len(train) == 1043 and len(test) == 52

    def test_three_point_split(self):
        train, test = split_by_count(series_of([1, 2, 3]), 2, 1)
        assert train.values.tolist() == [1, 2] and test.values.tolist() == [3]

    def test_lengths_must_fit(self):
        with pytest.raises(DataError):
            split_by_count(series_of([1, 2, 3]), 3, 1)

    def test_concatenation_is_source_tail(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            train_len = int(rng.integers(1, n))
            test_len = int(rng.integers(1, n - train_len + 1))
            values = rng.normal(size=n)
            s = series_of(values)
            train, test = split_by_count(s, train_len, test_len)
            joined = np.concatenate([train.values, test.values])
            assert joined.tolist() == values[n - train_len - test_len :].tolist()
            assert train.dates + test.dates == s.dates[n - train_len - test_len :]


class TestScaler:
    def test_midpoint(self):
        scaler = fit_scaler(series_of([40.0, 50.0]))
        assert scaler.apply(45.0) == 0.5

    def test_round_trip(self):
        scaler = fit_scaler(series_of([40.0, 50.0]))
        assert scaler.invert(scaler.apply(47.3)) == pytest.approx(47.3, rel=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(DataError):
            fit_scaler(series_of([45.0, 45.0]))

    @pytest.mark.parametrize("lo, hi", [
        (-1e308, 1e308),  # max - min overflows a float
        (np.float64(-1e308), np.float64(1e308)),  # and so, with no numpy warning, here
        (0.0, float("nan")),
    ])
    def test_range_must_be_positive_and_finite(self, lo, hi):
        with pytest.raises(DataError, match=re.escape(f"cannot scale the range [{lo!r}, {hi!r}]")):
            Scaler(min=lo, max=hi)

    def test_no_clamping_out_of_range(self):
        scaler = fit_scaler(series_of([0.0, 10.0]))
        assert scaler.apply(-5.0) == -0.5
        assert scaler.apply(15.0) == 1.5

    def test_round_trip_property(self):
        # 1000 random reals across [min - range, max + range]
        rng = np.random.default_rng(11)
        values = rng.uniform(40, 50, size=30)
        scaler = fit_scaler(series_of(values))
        span = scaler.max - scaler.min
        xs = rng.uniform(scaler.min - span, scaler.max + span, size=1000)
        round_tripped = scaler.invert(scaler.apply(xs))
        assert np.all(
            np.abs(round_tripped - xs) <= 1e-12 * np.maximum(1.0, np.abs(xs))
        )
