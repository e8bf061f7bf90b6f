"""Exception types shared across the package."""


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
