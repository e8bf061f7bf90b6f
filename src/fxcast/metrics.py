"""Forecast-accuracy measures and the random-walk benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _integer, _nonnegative
from .series import _Record


_NONFINITE = "forecast set contains non-finite values"


@dataclass(frozen=True, eq=False)
class ForecastSet(_Record):
    """Paired actual and predicted values, both in original units."""

    actual: np.ndarray
    predicted: np.ndarray
    _arrays = ("actual", "predicted")

    def __post_init__(self):
        super().__post_init__()
        if self.actual.ndim != 1 or self.predicted.ndim != 1:
            raise DataError("forecast values must be one-dimensional")
        if len(self.actual) != len(self.predicted):
            raise DataError("actual and predicted differ in length")
        if len(self.actual) == 0:
            raise DataError("forecast set must contain at least one pair")
        if not (np.all(np.isfinite(self.actual)) and np.all(np.isfinite(self.predicted))):
            raise DataError(_NONFINITE)

    def __len__(self) -> int:
        return len(self.actual)


@dataclass(frozen=True)
class MetricRow:
    """One (RMSE, MAE, MAPE) triple; MAPE is in percent."""

    rmse: float
    mae: float
    mape: float

    def __post_init__(self):
        _nonnegative(self, ("rmse", "mae", "mape"))


@dataclass(frozen=True)
class HorizonSpec:
    """Prefix windows of the test-period forecast stream to evaluate over.

    Each window is a (label, length) pair; metrics for a window cover the
    first ``length`` one-step forecasts.
    """

    windows: tuple = (("1m", 4), ("6m", 26), ("12m", 52))

    def __post_init__(self):
        try:  # once, so that a generator works
            windows = tuple((label, n) for label, n in self.windows)
        except (TypeError, ValueError):  # not iterable, or an item not a pair
            raise DataError(f"horizon windows {self.windows!r} are not (label, length) "
                            "pairs") from None
        if not all(isinstance(label, str) for label, _ in windows):
            raise DataError(f"horizon labels of {windows!r} are not all strings")
        labels = [label for label, _ in windows]
        if len(set(labels)) < len(labels):  # a view names its rows by label
            raise DataError(f"horizon labels {labels} are not distinct")
        object.__setattr__(self, "windows", tuple(
            (label, _integer(n, "horizon length")) for label, n in windows))
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


def _mean(x):
    """The mean along the last axis, as np.mean takes it (the same sum over
    the same count) without np.mean's few microseconds of Python."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _rmse(diff):
    return np.sqrt(_mean(diff * diff))


def _mae(diff):
    return _mean(np.abs(diff))


def _mape(actual, diff):
    if np.any(actual == 0.0):
        raise DataError("MAPE undefined: actual values contain zero")
    return _mean(np.abs(diff / actual)) * 100.0


def _measured(actual, diff, what: str) -> list:
    """The MetricRow of each row of the (K, n) differences ``diff`` of
    forecasts from the n values ``actual``, or the message of the first
    check the row fails: a zero actual (MAPE), then a measure that
    overflows, in a message where ``what`` names the forecasts.

    Each measure is one reduction along the rows, which gives every row the
    bits that its 1-D formula gives. Call under np.errstate(over="ignore"):
    an overflow leaves an inf, which the second check turns into a message.
    """
    try:
        columns = _rmse(diff).tolist(), _mae(diff).tolist(), _mape(actual, diff).tolist()
    except DataError as exc:
        return [str(exc)] * len(diff)
    rows = []
    for values in zip(*columns):
        overflow = next((name for name, value in zip(("rmse", "mae", "mape"), values)
                         if not math.isfinite(value)), None)
        rows.append(MetricRow(*values) if overflow is None else f"{what} overflow the {overflow}")
    return rows


def _finite_only(predicted, items) -> list:
    """``items``, one per row of ``predicted``, with the non-finite message
    in place of the item of each row that holds a non-finite forecast."""
    finite = np.isfinite(predicted).all(axis=-1).tolist()
    return [item if ok else _NONFINITE for ok, item in zip(finite, items)]


def _metric_rows(actual, predicted, what: str = "forecasts") -> list:
    """Score each row of the (K, n) forecasts ``predicted`` of the n values
    ``actual``: its MetricRow, or the message of the first check it fails,
    non-finite forecasts first, then the checks of ``_measured``."""
    with np.errstate(over="ignore"):
        return _finite_only(predicted, _measured(actual, actual - predicted, what))


def _horizon_rows(actual, predicted, spec: HorizonSpec, what: str = "forecasts") -> list:
    """Score each row of the (K, n) forecasts ``predicted`` of the n values
    ``actual`` over each horizon prefix.

    Returns one item per row: its ((label, MetricRow), ...) tuple, or the
    message of the first check it fails: non-finite forecasts anywhere in
    the row, then, prefix by prefix, a window longer than n or a check of
    ``_measured``.
    """
    n = predicted.shape[-1]
    windows = []
    with np.errstate(over="ignore"):
        diff = actual - predicted
        for label, length in spec.windows:
            if length > n:
                rows = [f"horizon window {label!r} needs {length} forecasts, have {n}"] * len(diff)
            else:
                rows = _measured(actual[:length], diff[:, :length], f"{what} over {label}")
            windows.append([(label, row) for row in rows])
    return _finite_only(predicted, [next((row for _, row in cell if isinstance(row, str)), cell)
                                    for cell in zip(*windows)])


def rmse(fs: ForecastSet) -> float:
    """Root mean squared error: sqrt(sum((y - yhat)^2) / T)."""
    return float(_rmse(fs.actual - fs.predicted))


def mae(fs: ForecastSet) -> float:
    """Mean absolute error: sum(|y - yhat|) / T."""
    return float(_mae(fs.actual - fs.predicted))


def mape(fs: ForecastSet) -> float:
    """Mean absolute percentage error: mean(|(y - yhat) / y|) * 100.

    Undefined when any actual value is zero; that raises rather than being
    patched with an epsilon, since a zero actual signals corrupt input here.
    """
    return float(_mape(fs.actual, fs.actual - fs.predicted))


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


def evaluate_horizons(fs: ForecastSet, spec: HorizonSpec = HorizonSpec(),
                      what: str = "forecasts"):
    """Metric rows over each horizon prefix of the forecast stream; the
    DataError of a check it fails names the forecasts as ``what``."""
    [rows] = _horizon_rows(fs.actual, fs.predicted[None], spec, what)
    if isinstance(rows, str):
        raise DataError(rows)
    return rows
