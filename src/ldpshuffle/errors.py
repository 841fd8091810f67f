"""Exception types shared across the package, and how their messages
quote a value read from an input."""

import math


def quote(value):
    """The repr of value, or its first 40 characters and "..." if it is
    longer, so that a message stays short whatever an input held. An int
    too long for Python to print (past 4300 digits) reads as "an integer
    of N digits", so that quoting a value never raises."""
    try:
        text = repr(value)
    except ValueError:
        size = abs(value)
        low = int(math.log10(size))  # its digits less one, give or take one
        text = "an integer of %d digits" % (low + sum(10 ** k <= size for k in (low, low + 1)))
    return text if len(text) <= 40 else text[:40] + "..."


class InvalidParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class OutOfRegimeError(InvalidParameterError):
    """Inputs violate the hypotheses a closed-form bound needs; no silent extrapolation."""


class MalformedReportError(InvalidParameterError):
    """A report's (level, timestep) pair does not address a valid tree node."""


class ParseError(InvalidParameterError):
    """A serialized input file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
