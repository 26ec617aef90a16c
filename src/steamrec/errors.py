"""Exception types shared across the package, and the type check that raises them."""


class SteamrecError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SteamrecError, ValueError):
    """A raw input line could not be parsed at all.

    Carries the 1-based line number of the offending line.  It is also a
    ``ValueError``, since what it reports is a bad input value.
    """

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class FieldError(ParseError):
    """A parsed record is missing a required field or holds an invalid value."""


class ConfigError(SteamrecError):
    """A configuration value violates its contract (rank, split fraction, paths...)."""


class SolveError(SteamrecError):
    """A least-squares half-step hit a singular normal matrix."""


class EvaluationError(SteamrecError):
    """An evaluation could not produce a number (e.g. every test triple was cold)."""


class PipelineError(SteamrecError):
    """A pipeline stage failed; carries the stage name for error reporting."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               list: "a list", dict: "an object"}


def check_type(value, kind: type, what: str, error: type[Exception] = ConfigError,
               optional: bool = False):
    """``value`` when it is a JSON ``kind`` (or null, if ``optional``), else ``error``.

    A bool passes only as a ``bool``, and an integer also passes as a ``float``.
    """
    if (optional and value is None) or (
        isinstance(value, (int, float) if kind is float else kind)
        and (kind is bool) == isinstance(value, bool)
    ):
        return value
    expected = f"{_KIND_NAMES[kind]}{' or null' if optional else ''}"
    raise error(f"{what} must be {expected}, got {value!r}")
