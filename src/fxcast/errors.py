"""Exception types shared across the package, the type checks that raise
them, and the opener, JSON parse and tag check of model and report files."""

import json
import math
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
    """Every training restart diverged; there is no usable solution."""


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


def _real(value, what: str) -> float:
    """``value`` as a float: any numbers.Real, such as a numpy scalar, but a
    bool, which float() would take as 1.0, or an int beyond the float range."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise DataError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"{what} is an integer too large for a float") from None


def _integers(record, names):
    """Store the fields ``names`` of a frozen record as ints (``_integer``)."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:  # a computed or loaded value is one already
            object.__setattr__(record, name, _integer(value, name))


def _nonnegative(record, names):
    """Store the fields ``names`` of a frozen record as floats (``_real``)
    that are finite and >= 0."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not float:  # a computed or loaded value is one already
            value = _real(value, name)
            object.__setattr__(record, name, value)
        if not 0.0 <= value < math.inf:  # a comparison, so that nan fails it
            raise DataError(f"{name} {value!r} is not finite and >= 0")


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


def _check_tag(record: dict, fmt: str, versions, what: str, **fixed) -> int:
    """Check the format tag, the version, one of ``versions``, and the
    ``fixed`` values of a file's record; return the version."""
    if record.get("format") != fmt:
        raise ReportFormatError(f"not a {what} file")
    found = record.get("version")
    if type(found) is not int or found not in versions:  # a true equals 1
        raise ReportVersionError(f"unsupported {what} version {found!r}")
    for key, value in fixed.items():
        if record.get(key) != value:
            raise ReportFormatError(f"unsupported {key} {record.get(key)!r}, expected {value!r}")
    return found
