"""Exception hierarchy shared across the package.

Library code should pick the most specific class that applies instead of
raising bare exceptions.  Each class names the process exit code for its
failures: 1 for a bad invocation (``UsageError``, and the base class), 2 for
bad data and 3 for a numeric failure.
"""


class HazecastError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(HazecastError):
    """Bad invocation: unknown flags, malformed config, unknown variant."""

    exit_code = 1


class DataError(HazecastError):
    """Problem with input data: schema violations, bad ranges, missing files."""

    exit_code = 2


class NumericError(HazecastError):
    """Numeric failure: non-finite values, unstable process configuration."""

    exit_code = 3


def check_size(name: str, value, least: int = 1) -> None:
    """Raise ``UsageError`` unless ``value`` is an ``int`` >= ``least``; a bool is not a size."""
    if type(value) is not int or value < least:
        raise UsageError(f"{name} must be an int >= {least}, got {value!r}")
