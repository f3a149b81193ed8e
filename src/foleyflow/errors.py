"""Error taxonomy shared across the package.

Everything user-facing derives from FoleyflowError so the CLI can map
failures onto a single machine-readable stderr line. check_positive_int
is the one rule for every count a caller passes: sizes, steps, k, nfe.
"""

import numbers


class FoleyflowError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ShapeError(FoleyflowError, ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


class ContractError(FoleyflowError, ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(FoleyflowError, ValueError):
    """A configuration value is out of its documented range."""


class FormatError(FoleyflowError, ValueError):
    """A serialized file does not match its documented layout."""


class DivergenceError(FoleyflowError, RuntimeError):
    """A numerical process produced non-finite values.

    step: index of the integrator or optimizer step that diverged.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def check_positive_int(name: str, value, error: type = ConfigError) -> None:
    """Raise error unless value is an integer >= 1. numpy integers count;
    bools and floats do not, even 2.0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
