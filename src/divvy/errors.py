"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError (and subclasses) exit 1,
GuardError exits 2.
"""


class DivvyError(Exception):
    """Base class for everything raised deliberately by this package."""


class InputError(DivvyError):
    """Malformed data, queries, or files."""


class ConfigError(InputError):
    """An option combination that can never be valid (e.g. even k)."""


class MissingValueError(InputError):
    """A table value function was asked for a count pair it does not define."""


class GuardError(DivvyError):
    """A computation was refused because its cost or memory guard tripped."""
