import datetime
import os
from pathlib import Path

import numpy as np

import fxcast
from fxcast import TimeSeries


def series_of(values, start=datetime.date(2000, 1, 7), name="series"):
    """TimeSeries over the given values with synthetic weekly dates."""
    values = np.asarray(values, dtype=float)
    dates = tuple(start + datetime.timedelta(weeks=i) for i in range(len(values)))
    return TimeSeries(dates=dates, values=values, name=name)


def subprocess_env() -> dict:
    """The environment for a child interpreter that imports the fxcast under test."""
    src = str(Path(fxcast.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
