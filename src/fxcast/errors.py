"""Exception types shared across the package, and the type checks that raise them."""

import numbers


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


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: a true, which float()
    would take as 1.0, is rejected, and so is an integer beyond the float
    range."""
    try:
        return float(_typed(value, (int, float), what))
    except OverflowError:
        raise ReportFormatError(f"{what} is an integer too large for a float") from None
