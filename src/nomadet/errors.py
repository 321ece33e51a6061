"""Exception types shared across the package, and its config integer check."""

import operator


class NomadetError(Exception):
    """Base class for package-specific failures."""


class DataFormatError(NomadetError):
    """A serialized artifact (dataset, checkpoint) cannot be parsed."""


class BadMagicError(DataFormatError):
    pass


class VersionMismatchError(DataFormatError):
    pass


class TruncatedFileError(DataFormatError):
    pass


class NumericError(NomadetError):
    """Training or evaluation produced non-finite numbers."""


def checked_int(name: str, value, least: int | None = None) -> int:
    """``value`` as an int, if ``operator.index`` takes it and it is at least ``least``."""
    try:
        value = operator.index(value)  # a NumPy integer passes, a float does not
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value
