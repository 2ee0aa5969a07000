"""Exception hierarchy shared by the library and the command-line tool, and
the one check that compares a measured value with its threshold.

The three leaf classes map one-to-one onto the CLI exit codes:
ConfigError -> 2, PreconditionError -> 3, SelfCheckError -> 4.
"""

import math


class LocmomError(Exception):
    """Base class for all errors raised by locmom."""


class ConfigError(LocmomError):
    """Malformed configuration: bad recipe text, invalid grid parameters,
    unknown flags or field values."""


class PreconditionError(LocmomError):
    """A numerical precondition is violated: state does not fit the window,
    stability guard tripped, moment-order cap exceeded, masked region
    carries non-negligible probability, and similar."""


class SelfCheckError(LocmomError):
    """An internal cross-check between two routes to the same quantity
    failed; points at a bug or accuracy loss rather than bad input."""


def failure(what: str, value, limit, exc: type, hint: str = "",
            strict: bool = False) -> LocmomError | None:
    """The exc to raise unless value <= limit (so NaN fails), else None.

    A strict check fails at the limit too: it compares with, and reports,
    the largest float below it.  The message is "<what>: <value> exceeds
    <limit>[; <hint>]" with both numbers at repr precision, so that a
    failing value never prints equal to its limit."""
    if strict:
        limit = math.nextafter(limit, -math.inf)
    if value <= limit:
        return None
    message = "%s: %r exceeds %r" % (what, float(value), float(limit))
    return exc("%s; %s" % (message, hint) if hint else message)


def check(what: str, value, limit, exc: type, hint: str = "",
          strict: bool = False) -> None:
    """Raise the failure(...) of a value over its limit."""
    error = failure(what, value, limit, exc, hint, strict)
    if error is not None:
        raise error
