"""Exception types shared across the toolkit, and the one rule for a count or an index.

Every size and every index is a plain int in range: check_count and check_index refuse a bool, a
float, a str or None however it compares, so each structure prints as its text format reads it."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """Structurally invalid data rejected by a validator."""


class IndexOutOfRangeError(ValidationError):
    pass


class NotAbsorbingError(ValidationError):
    pass


class MissingZeroError(ValidationError):
    pass


class BadCompositionError(ValidationError):
    pass


class NotAssociativeError(ValidationError):
    pass


class BadIdentityError(ValidationError):
    pass


class NotAGroupError(ValidationError):
    pass


class NotACategoryError(ValidationError):
    pass


class BasisMismatchError(ValidationError):
    pass


class OracleDisagreementError(ToolkitError):
    """The subset-arithmetic and span-arithmetic verdicts of an axiom check differ.

    One of the two oracles is wrong, so neither verdict is reported.
    """


class SizeOverflowError(ToolkitError):
    """A configured size or search budget was exceeded."""


class ParseError(ToolkitError):
    """Malformed input text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


def check_count(value, what: str, least: int = 1) -> int:
    """value when it is a plain int no less than least, else a ValidationError naming what."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an int, got {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be {'positive' if least == 1 else f'at least {least}'}, got {value!r}")
    return value


def check_index(value, size: int, what: str, error=IndexOutOfRangeError) -> int:
    """value when it is a plain int in 0..size-1, else error(message) naming what."""
    if type(value) is not int or not 0 <= value < size:
        raise error(f"{what} {value!r} outside 0..{size - 1}")
    return value
