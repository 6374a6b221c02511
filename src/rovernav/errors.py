"""Exception types shared across the package."""

from contextlib import contextmanager
from pathlib import Path


class RoverNavError(Exception):
    """Base class for all package errors."""


class ValidationError(RoverNavError, ValueError):
    """Input violates a documented precondition or invariant."""


def read_input_text(path) -> str:
    """The UTF-8 text of an input file. A path that cannot be read, such as
    a missing file or a directory, or a file that is not UTF-8 text, raises
    a `ValidationError` whose message starts with the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc


@contextmanager
def malformed_input(source: str):
    """Re-raise a missing key or a bad value met while parsing an input
    file as a `ValidationError` whose message starts with `source`."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{source}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{source}: {exc}") from exc


class EmptyPatchError(RoverNavError):
    """Requested sensing window lies entirely outside the terrain."""


class InsufficientDataError(RoverNavError):
    """Not enough known cells to evaluate the requested metric."""


class NoPathError(RoverNavError):
    """Planner exhausted the search space without reaching the goal."""


class InvalidStartError(RoverNavError):
    """Planning start cell is blocked or outside the grid."""


class MissionConfigError(RoverNavError):
    """Mission configuration file is missing, malformed, or inconsistent."""


class VlmError(RoverNavError):
    """Base class for vision-language-model client failures."""


class VlmTimeoutError(VlmError):
    """The classification endpoint did not answer within the timeout."""


class VlmTransportError(VlmError):
    """The classification endpoint was unreachable or returned an HTTP error."""


class VlmSchemaError(VlmError):
    """The endpoint response violates the strict JSON contract."""
