"""Exception types shared across the package, the type checks that raise
them, and the opener, JSON parse and tag check of model and report files."""

import json
import numbers
from contextlib import contextmanager
from pathlib import Path


class FxcastError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FxcastError, ValueError):
    """A data file could not be parsed. Carries the offending 1-based row."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class DataError(FxcastError, ValueError):
    """Invalid data or arguments for an operation."""


class DivergenceError(FxcastError, RuntimeError):
    """Every training restart diverged or ran away; there is no usable solution."""


class ReportFormatError(FxcastError, ValueError):
    """A report or model file is corrupt or structurally invalid."""


class ReportVersionError(ReportFormatError):
    """A report or model file declares an unsupported format version."""


def _integer(value, what: str) -> int:
    """``value`` as an int: any numbers.Integral but a bool, such as a numpy integer."""
    if type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool):
        return int(value)
    raise DataError(f"{what} {value!r} is not an integer")


def _typed(value, kinds: tuple, what: str):
    """``value`` if its type is one of ``kinds``: a JSON value no config class checks."""
    if type(value) not in kinds:
        raise ReportFormatError(f"{what} {value!r} is not of type "
                                f"{' or '.join(kind.__name__ for kind in kinds)}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: a true, which float()
    would take as 1.0, is rejected, and so is an integer beyond the float
    range."""
    try:
        return float(_typed(value, (int, float), what))
    except OverflowError:
        raise ReportFormatError(f"{what} is an integer too large for a float") from None


@contextmanager
def _opened(source, mode: str):
    """``source`` as a text stream: a path (a str or a Path) opened as UTF-8
    and closed on exit, or an open stream as it is."""
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8") as handle:
            yield handle
    else:
        yield source


def _read_text(source, where: str) -> str:
    with _opened(source, "r") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise _corrupt(where, f"not UTF-8 text: {exc}") from None


# what building a record from parsed JSON raises on a bad value
_BUILD_ERRORS = (KeyError, TypeError, ValueError)


def _corrupt(where, exc) -> ReportFormatError:
    """The one error for a model or report record that cannot be read or
    built, "corrupt <where>: <exc>"; ``where`` is a text or, so that a text
    is built only on error, the 1-based number of a report line."""
    place = where if isinstance(where, str) else f"report line {where}"
    return ReportFormatError(f"corrupt {place}: {exc}")


def _json_object(text: str, where) -> dict:
    """The JSON object that ``text`` holds, or ``_corrupt(where, ...)``."""
    try:
        obj = json.loads(text)
    # ValueError includes an integer literal past int()'s digit limit,
    # RecursionError a value nested past the decoder's depth limit
    except (ValueError, RecursionError) as exc:
        raise _corrupt(where, exc) from None
    if not isinstance(obj, dict):
        raise _corrupt(where, "not a record")
    return obj


def _check_tag(record: dict, fmt: str, version: int, what: str, **fixed):
    """Check the format tag, version and ``fixed`` values of a file's record."""
    if record.get("format") != fmt:
        raise ReportFormatError(f"not a {what} file")
    found = record.get("version")
    if type(found) is not int or found != version:  # a true equals 1
        raise ReportVersionError(f"unsupported {what} version {found!r}")
    for key, value in fixed.items():
        if record.get(key) != value:
            raise ReportFormatError(f"unsupported {key} {record.get(key)!r}, expected {value!r}")
