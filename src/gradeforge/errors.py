"""Exception types shared across the toolkit."""


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


class ReductionMismatchError(ToolkitError):
    """A zero-magma homomorphism between adjoined magmas induced no consistent object map.

    This is flagged loudly instead of being discarded: it would falsify the
    reduction that the prefunctor enumeration relies on.
    """


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
