import math

import numpy as np
import pytest

from fxcast import (
    DataError,
    ForecastSet,
    HorizonSpec,
    MetricRow,
    evaluate_horizons,
    mae,
    mape,
    random_walk,
    rmse,
)
from fxcast.metrics import _horizon_rows, _metric_rows


def brute_force_metrics(actual, predicted):
    """Loop-based reference evaluator, independent of the library path."""
    t = len(actual)
    sq = sum((a - p) ** 2 for a, p in zip(actual, predicted))
    ab = sum(abs(a - p) for a, p in zip(actual, predicted))
    pc = sum(abs((a - p) / a) for a, p in zip(actual, predicted))
    return math.sqrt(sq / t), ab / t, pc / t * 100.0


def metric_row(fs):
    """The MetricRow of one forecast set, from the public measures."""
    return MetricRow(rmse(fs), mae(fs), mape(fs))


class TestHandValues:
    def test_rmse_worked_example(self):
        assert rmse(ForecastSet([2, 4], [1, 5])) == pytest.approx(1.0, abs=1e-12)

    def test_mae_worked_example(self):
        assert mae(ForecastSet([2, 4], [1, 5])) == pytest.approx(1.0, abs=1e-12)

    def test_mape_worked_example(self):
        assert mape(ForecastSet([2, 4], [1, 5])) == pytest.approx(37.5, abs=1e-12)

    def test_perfect_forecast_is_zero(self):
        fs = ForecastSet([3.0, 4.5, 5.0], [3.0, 4.5, 5.0])
        assert rmse(fs) == 0.0 and mae(fs) == 0.0 and mape(fs) == 0.0

    def test_single_term(self):
        assert rmse(ForecastSet([3], [5])) == 2.0
        assert mae(ForecastSet([0.5], [-1.5])) == 2.0

    def test_mape_zero_actual_rejected(self):
        with pytest.raises(DataError, match="zero"):
            mape(ForecastSet([2.0, 0.0], [1.0, 1.0]))


class TestForecastSet:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            ForecastSet([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ForecastSet([], [])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            ForecastSet([1.0, float("nan")], [1.0, 2.0])

    @pytest.mark.parametrize("actual, predicted", [
        ([[1.0, 2.0]], [[1.0, 2.0]]),
        ([1.0, 2.0], [[1.0], [2.0]]),
    ])
    def test_two_dimensional_rejected(self, actual, predicted):
        with pytest.raises(DataError, match="forecast values must be one-dimensional"):
            ForecastSet(actual, predicted)


class TestMetricRow:
    def test_negative_rejected(self):
        with pytest.raises(DataError):
            MetricRow(rmse=-1.0, mae=0.0, mape=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            MetricRow(rmse=float("inf"), mae=0.0, mape=0.0)


class TestRandomizedAgainstBruteForce:
    def test_thousand_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            t = int(rng.integers(1, 65))
            actual = rng.uniform(0.5, 60.0, t)
            predicted = actual + rng.normal(0, 5.0, t)
            fs = ForecastSet(actual, predicted)
            want_rmse, want_mae, want_mape = brute_force_metrics(actual, predicted)
            assert rmse(fs) == pytest.approx(want_rmse, rel=1e-12)
            assert mae(fs) == pytest.approx(want_mae, rel=1e-12)
            assert mape(fs) == pytest.approx(want_mape, rel=1e-12)


def one_dimensional_measures(actual, predicted):
    """The three measures as 1-D numpy reductions over one forecast set: the
    bits that each row of a block must reproduce."""
    diff = actual - predicted
    return (float(np.sqrt(np.mean(diff * diff))), float(np.mean(np.abs(diff))),
            float(np.mean(np.abs(diff / actual)) * 100.0))


class TestRowBlocks:
    # run_grid scores the forecasts of many networks as one (K, n) block
    @pytest.mark.parametrize("rows, n", [(1, 1), (6, 1), (1, 60), (25, 60), (4, 300),
                                         (3, 1042)])
    def test_rows_match_one_dimensional_bits(self, rows, n):
        rng = np.random.default_rng(1000 * rows + n)
        actual = rng.uniform(0.5, 60.0, n) * rng.choice([-1.0, 1.0], n)
        predicted = actual + rng.normal(0.0, 1.0, (rows, n)) * rng.uniform(1e-3, 10.0, (rows, 1))
        for length in range(1, n + 1):
            scored = _metric_rows(actual[:length], predicted[:, :length])
            for row, forecasts in zip(scored, predicted[:, :length]):
                # every measure is positive, so == compares the bits
                assert (row.rmse, row.mae, row.mape) == one_dimensional_measures(
                    actual[:length], forecasts)
        spec = HorizonSpec(tuple((str(k), k) for k in sorted({1, (n + 1) // 2, n})))
        for windows, forecasts in zip(_horizon_rows(actual, predicted, spec), predicted):
            assert [(label, (row.rmse, row.mae, row.mape)) for label, row in windows] == [
                (label, one_dimensional_measures(actual[:k], forecasts[:k]))
                for label, k in spec.windows]

    @pytest.mark.filterwarnings("error")
    def test_failures_stay_in_their_row(self):
        actual = np.array([1.0, 2.0, 4.0])
        predicted = np.array([[1.5, 2.0, 3.0], [1e300, 0.0, 0.0], [np.inf, 0.0, 0.0]])
        scored = _metric_rows(actual, predicted, "these forecasts")
        assert scored == [metric_row(ForecastSet(actual, predicted[0])),
                          "these forecasts overflow the rmse",
                          "forecast set contains non-finite values"]
        actual[1] = 0.0
        assert _metric_rows(actual, predicted) == [
            "MAPE undefined: actual values contain zero"] * 2 + [
            "forecast set contains non-finite values"]

    @pytest.mark.filterwarnings("error")
    def test_overflow_named_without_a_warning(self):
        fs = ForecastSet([1.0, 2.0, 4.0], [1.0, 2.0, 1e300])
        assert _metric_rows(fs.actual, fs.predicted[None]) == ["forecasts overflow the rmse"]
        with pytest.raises(DataError, match="forecasts over 6m overflow the rmse"):
            evaluate_horizons(fs, HorizonSpec((("1m", 2), ("6m", 3))))


class TestInvariants:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            actual = rng.uniform(1, 10, 8)
            predicted = actual.copy()
            assert rmse(ForecastSet(actual, predicted)) == 0.0
            predicted[3] += 1e-6
            assert rmse(ForecastSet(actual, predicted)) > 0.0
            assert mae(ForecastSet(actual, predicted)) > 0.0

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            t = int(rng.integers(1, 40))
            fs = ForecastSet(rng.uniform(1, 10, t), rng.uniform(1, 10, t))
            assert rmse(fs) >= mae(fs) - 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        actual = rng.uniform(1, 10, 30)
        predicted = rng.uniform(1, 10, 30)
        perm = rng.permutation(30)
        a = metric_row(ForecastSet(actual, predicted))
        b = metric_row(ForecastSet(actual[perm], predicted[perm]))
        assert a.rmse == pytest.approx(b.rmse, rel=1e-12)
        assert a.mae == pytest.approx(b.mae, rel=1e-12)
        assert a.mape == pytest.approx(b.mape, rel=1e-12)

    def test_translation_leaves_rmse_mae(self):
        rng = np.random.default_rng(8)
        actual = rng.uniform(1, 10, 25)
        predicted = rng.uniform(1, 10, 25)
        shifted = ForecastSet(actual + 100.0, predicted + 100.0)
        base = ForecastSet(actual, predicted)
        assert rmse(shifted) == pytest.approx(rmse(base), abs=1e-9)
        assert mae(shifted) == pytest.approx(mae(base), abs=1e-9)
        assert mape(shifted) != pytest.approx(mape(base), abs=1e-9)


class TestRandomWalk:
    def test_shift_by_one(self):
        fs = random_walk(1.0, [2.0, 3.0])
        assert fs.predicted.tolist() == [1.0, 2.0]
        assert fs.actual.tolist() == [2.0, 3.0]

    def test_constant_series_perfect(self):
        fs = random_walk(5.0, [5.0, 5.0, 5.0])
        assert rmse(fs) == 0.0 and mae(fs) == 0.0

    def test_single_step(self):
        fs = random_walk(7.5, [8.0])
        assert fs.predicted.tolist() == [7.5]

    def test_empty_test_rejected(self):
        with pytest.raises(DataError):
            random_walk(1.0, [])


class TestHorizons:
    def test_default_windows(self):
        spec = HorizonSpec()
        assert spec.windows == (("1m", 4), ("6m", 26), ("12m", 52))

    def test_lengths_must_increase(self):
        with pytest.raises(DataError):
            HorizonSpec((("a", 4), ("b", 4)))
        with pytest.raises(DataError):
            HorizonSpec((("a", 0),))

    def test_default_rows_on_52_forecasts(self):
        rng = np.random.default_rng(9)
        fs = ForecastSet(rng.uniform(1, 2, 52), rng.uniform(1, 2, 52))
        rows = evaluate_horizons(fs)
        assert [label for label, _ in rows] == ["1m", "6m", "12m"]

    def test_window_exceeding_forecasts_rejected(self):
        fs = ForecastSet(np.ones(52), np.ones(52))
        with pytest.raises(DataError, match="60"):
            evaluate_horizons(fs, HorizonSpec((("x", 60),)))

    def test_full_window_equals_whole_set(self):
        rng = np.random.default_rng(10)
        fs = ForecastSet(rng.uniform(1, 2, 52), rng.uniform(1, 2, 52))
        rows = dict(evaluate_horizons(fs))
        assert rows["12m"] == metric_row(fs)

    def test_prefix_semantics(self):
        rng = np.random.default_rng(12)
        fs = ForecastSet(rng.uniform(1, 2, 52), rng.uniform(1, 2, 52))
        rows = dict(evaluate_horizons(fs))
        head = ForecastSet(fs.actual[:4], fs.predicted[:4])
        assert rows["1m"] == metric_row(head)
