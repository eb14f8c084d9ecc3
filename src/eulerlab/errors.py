"""Exception types shared across the package, the integer checks behind them,
and the group-rank limit."""

import sys

# Largest group rank, and largest polynomial variable count, that any
# constructor accepts: `reps`' tables, flags, subgroups and group documents,
# and `polyring.Poly`, `Poly.one`, `Poly.variable` and `parse_poly` each apply
# it through `require_count`, before anything of that length is built.
MAX_GROUP_RANK = 64


class EulerlabError(Exception):
    """Base class for every error raised by this package."""


class InputError(EulerlabError):
    """Malformed input: bad documents, mismatched ranks or fields, invalid parameters."""


class HypothesisError(EulerlabError):
    """A theorem hypothesis fails; the message names the violated condition."""


class ResourceLimitError(EulerlabError):
    """The requested computation exceeds the enforced desk-scale limits."""


def require_int(value, what):
    """`value` itself if it is an int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def require_count(value, what, cap, positive=False):
    """`value` itself if it is an int from 0 (1 if `positive`) to `cap`.

    A smaller value is an input error, a larger one a resource limit.
    """
    value = require_int(value, what)
    if value < (1 if positive else 0):
        raise InputError(f"the {what} must be {'positive' if positive else 'nonnegative'}, got {value}")
    if value > cap:
        raise ResourceLimitError(f"{what} {value} is above the limit of {cap}")
    return value


def too_many_digits(what):
    """Message for an integer past the interpreter's int/str digit limit, which stays."""
    return f"{what} has more than {sys.get_int_max_str_digits()} digits"
