"""Forecast-accuracy measures and the random-walk benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import _frozen_array


@dataclass(frozen=True, eq=False)
class ForecastSet:
    """Paired actual and predicted values, both in original units."""

    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "actual", _frozen_array(self.actual))
        object.__setattr__(self, "predicted", _frozen_array(self.predicted))
        if self.actual.ndim != 1 or self.predicted.ndim != 1:
            raise DataError("forecast values must be one-dimensional")
        if len(self.actual) != len(self.predicted):
            raise DataError("actual and predicted differ in length")
        if len(self.actual) == 0:
            raise DataError("forecast set must contain at least one pair")
        if not (np.all(np.isfinite(self.actual)) and np.all(np.isfinite(self.predicted))):
            raise DataError("forecast set contains non-finite values")

    def __len__(self) -> int:
        return len(self.actual)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ForecastSet):
            return NotImplemented
        return np.array_equal(self.actual, other.actual) and np.array_equal(
            self.predicted, other.predicted
        )


@dataclass(frozen=True)
class MetricRow:
    """One (RMSE, MAE, MAPE) triple; MAPE is in percent."""

    rmse: float
    mae: float
    mape: float

    def __post_init__(self):
        for field_name in ("rmse", "mae", "mape"):
            value = getattr(self, field_name)
            if not (np.isfinite(value) and value >= 0.0):
                raise DataError(f"{field_name} must be finite and nonnegative")


@dataclass(frozen=True)
class HorizonSpec:
    """Prefix windows of the test-period forecast stream to evaluate over.

    Each window is a (label, length) pair; metrics for a window cover the
    first ``length`` one-step forecasts.
    """

    windows: tuple = (("1m", 4), ("6m", 26), ("12m", 52))

    def __post_init__(self):
        object.__setattr__(
            self, "windows", tuple((str(label), int(n)) for label, n in self.windows)
        )
        if not self.windows:
            raise DataError("horizon spec must define at least one window")
        lengths = [n for _, n in self.windows]
        if lengths[0] < 1:
            raise DataError("horizon windows must have positive length")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise DataError("horizon window lengths must be strictly increasing")

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.windows)


def _rmse(diff) -> float:
    return float(np.sqrt(np.mean(diff * diff)))


def _mae(diff) -> float:
    return float(np.mean(np.abs(diff)))


def _mape(actual, diff) -> float:
    if np.any(actual == 0.0):
        raise DataError("MAPE undefined: actual values contain zero")
    return float(np.mean(np.abs(diff / actual)) * 100.0)


def _metric_row(actual, diff) -> MetricRow:
    return MetricRow(rmse=_rmse(diff), mae=_mae(diff), mape=_mape(actual, diff))


def rmse(fs: ForecastSet) -> float:
    """Root mean squared error: sqrt(sum((y - yhat)^2) / T)."""
    return _rmse(fs.actual - fs.predicted)


def mae(fs: ForecastSet) -> float:
    """Mean absolute error: sum(|y - yhat|) / T."""
    return _mae(fs.actual - fs.predicted)


def mape(fs: ForecastSet) -> float:
    """Mean absolute percentage error: mean(|(y - yhat) / y|) * 100.

    Undefined when any actual value is zero; that raises rather than being
    patched with an epsilon, since a zero actual signals corrupt input here.
    """
    return _mape(fs.actual, fs.actual - fs.predicted)


def metric_row(fs: ForecastSet) -> MetricRow:
    """All three measures for one forecast set."""
    return _metric_row(fs.actual, fs.actual - fs.predicted)


def random_walk(history_last: float, test) -> ForecastSet:
    """Naive one-step-ahead benchmark: predict each value by its predecessor.

    The first prediction is ``history_last`` (the observation just before the
    test period); every later prediction is the previous actual test value.
    """
    test = np.asarray(test, dtype=float)
    if test.ndim != 1 or len(test) == 0:
        raise DataError("random walk requires a nonempty test sequence")
    predicted = np.concatenate(([float(history_last)], test[:-1]))
    return ForecastSet(actual=test, predicted=predicted)


def evaluate_horizons(fs: ForecastSet, spec: HorizonSpec = HorizonSpec()):
    """Metric rows over each horizon prefix of the forecast stream."""
    diff = fs.actual - fs.predicted
    rows = []
    for label, length in spec.windows:
        if length > len(fs):
            raise DataError(
                f"horizon window {label!r} needs {length} forecasts, have {len(fs)}"
            )
        rows.append((label, _metric_row(fs.actual[:length], diff[:length])))
    return tuple(rows)
