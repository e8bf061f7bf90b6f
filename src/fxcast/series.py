"""Univariate series ingestion, splitting, scaling, and window construction."""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, ParseError, _integer


class _Record:
    """Base of the frozen dataclasses that hold arrays.

    A subclass names its array fields once, in ``_arrays``. Construction
    stores a read-only float copy of each, so the record never shares
    memory with its caller's arrays, and two records of one type are equal
    when every field is, the arrays element by element. Records are not
    hashable. A subclass's ``__post_init__`` calls this one first, then
    checks its fields.
    """

    _arrays = ()

    def __post_init__(self):
        for name in self._arrays:
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(mine, theirs) if f.name in self._arrays else mine == theirs):
                return False
        return True


@dataclass(frozen=True, eq=False)
class TimeSeries(_Record):
    """Ordered real-valued observations, one calendar date per value.

    Dates are carried for reporting only; every algorithm in the package
    operates on index order.
    """

    dates: tuple
    values: np.ndarray
    name: str = "series"
    _arrays = ("values",)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "dates", tuple(self.dates))
        if self.values.ndim != 1:
            raise DataError("series values must be one-dimensional")
        if len(self.values) == 0:
            raise DataError("series must contain at least one observation")
        if len(self.dates) != len(self.values):
            raise DataError("series has mismatched date and value counts")
        if not np.all(np.isfinite(self.values)):
            raise DataError("series contains non-finite values")
        for previous, current in zip(self.dates, self.dates[1:]):
            if current <= previous:
                raise DataError(f"dates not strictly increasing at {current}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class WindowedDataset(_Record):
    """Supervised patterns built by sliding a length-``window_len`` window.

    Pattern ``i`` (0-based) has input ``values[i : i + p]`` and target
    ``values[i + p]``; a series of length N yields exactly N - p patterns.
    """

    window_len: int
    inputs: np.ndarray
    targets: np.ndarray
    _arrays = ("inputs", "targets")

    def __post_init__(self):
        super().__post_init__()
        if self.window_len < 1:
            raise DataError("window length must be positive")
        if self.inputs.ndim != 2 or self.inputs.shape[1] != self.window_len:
            raise DataError("pattern inputs do not match the window length")
        if self.targets.shape != (self.inputs.shape[0],):
            raise DataError("pattern inputs and targets differ in count")
        if len(self.targets) == 0:
            raise DataError("dataset must contain at least one pattern")

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class ColumnFormat:
    """Column layout of a delimited series file."""

    delimiter: str = ","
    date_col: int = 0
    value_col: int = 1

    def __post_init__(self):
        if (not isinstance(self.delimiter, str) or len(self.delimiter) != 1
                or self.delimiter in '\r\n"'):
            raise DataError("delimiter must be a one-character str, not a quote or line break")
        for name in ("date_col", "value_col"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.date_col < 0 or self.value_col < 0:
            raise DataError("column indices must be nonnegative")


def _parse_date(field: str, row: int):
    """The date of a field in the YYYY-MM-DD shape, None for any other field
    (date.fromisoformat takes more forms from Python 3.11 on)."""
    text = field.strip()
    try:
        if len(text) == 10 and text[4] == text[7] == "-":
            return datetime.date.fromisoformat(text)
    except ValueError:
        if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):  # no calendar date
            raise ParseError(f"malformed date {field!r}", row=row) from None
    return None


def _parse_value(field: str, row: int) -> float:
    text = field.strip()
    if not text:
        raise ParseError("empty value field", row=row)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed value {field!r}", row=row) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite value {field!r}", row=row)
    return value


def parse_series(text, fmt: ColumnFormat = ColumnFormat(), name: str = "series") -> TimeSeries:
    """Parse delimiter-separated (date, value) rows into a TimeSeries.

    ``text`` may be a string or a readable text stream; a byte-order mark at
    its start is dropped. A single header row is auto-detected when the
    first row's date field is not in the YYYY-MM-DD shape. Rows must arrive
    in strictly increasing date order; out-of-order input is an error, not
    a sort.
    """
    lines = iter(io.StringIO(text) if isinstance(text, str) else text)
    needed = max(fmt.date_col, fmt.value_col) + 1

    dates: list[datetime.date] = []
    values: list[float] = []
    seen_content = False
    try:
        first = next(lines, "").removeprefix("\ufeff")
        reader = csv.reader(itertools.chain([first], lines), delimiter=fmt.delimiter)
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not field.strip() for field in row):
                continue
            if len(row) < needed:
                raise ParseError(
                    f"expected at least {needed} columns, found {len(row)}", row=row_no
                )
            date = _parse_date(row[fmt.date_col], row_no)
            if date is None:
                if not seen_content:
                    seen_content = True
                    continue  # header row
                raise ParseError(f"malformed date {row[fmt.date_col]!r}", row=row_no)
            seen_content = True
            value = _parse_value(row[fmt.value_col], row_no)
            if dates:
                if date == dates[-1]:
                    raise ParseError(f"duplicate date {date.isoformat()}", row=row_no)
                if date < dates[-1]:
                    raise ParseError(f"decreasing date {date.isoformat()}", row=row_no)
            dates.append(date)
            values.append(value)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None

    if not values:
        raise ParseError("empty input")
    return TimeSeries(dates=dates, values=values, name=name)


def make_windows(series: TimeSeries, p: int) -> WindowedDataset:
    """Build the N - p sliding-window patterns of lag ``p`` from a series."""
    if p < 1:
        raise DataError("window length p must be positive")
    if p >= len(series):
        raise DataError(
            f"window length p={p} requires more than {len(series)} observations"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series.values, p)
    return WindowedDataset(
        window_len=p,
        inputs=windows[:-1],
        targets=series.values[p:],
    )


def split_by_count(series: TimeSeries, train_len: int, test_len: int):
    """Split off the final ``test_len`` observations, preceded by ``train_len``.

    Both segments come from the tail of the series; leading observations
    beyond ``train_len + test_len`` are discarded.
    """
    if train_len < 1 or test_len < 1:
        raise DataError("train and test lengths must be positive")
    total = train_len + test_len
    if total > len(series):
        raise DataError(
            f"train+test length {total} exceeds series length {len(series)}"
        )
    start = len(series) - total
    cut = len(series) - test_len
    train = TimeSeries(series.dates[start:cut], series.values[start:cut], series.name)
    test = TimeSeries(series.dates[cut:], series.values[cut:], series.name)
    return train, test


@dataclass(frozen=True)
class Scaler:
    """Affine map sending [min, max] onto [0, 1], fitted on training data only.

    Values outside the fitted range map outside [0, 1]; there is no clamping.
    """

    min: float
    max: float

    def __post_init__(self):
        # float(), so that a numpy scalar's overflow gives inf without a warning
        if not 0.0 < float(self.max) - float(self.min) < np.inf:
            raise DataError(f"cannot scale the range [{self.min!r}, {self.max!r}]: "
                            "max - min must be positive and finite")

    def apply(self, x):
        return (x - self.min) / (self.max - self.min)

    def invert(self, x):
        return self.min + x * (self.max - self.min)


def fit_scaler(train: TimeSeries) -> Scaler:
    """Fit a [0, 1] min-max scaler to the training series."""
    return Scaler(min=float(train.values.min()), max=float(train.values.max()))
