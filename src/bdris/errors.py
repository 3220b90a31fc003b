"""Exception types shared across the toolkit, and the checks of integer and count arguments."""

import numbers


class RankDeficient(ValueError):
    """A matrix (or block) has a singular value at or below the rank threshold."""


class DimensionMismatch(ValueError):
    """Operand shapes are inconsistent."""


class BelowReferenceDistance(ValueError):
    """A link distance falls inside the path-loss reference distance."""


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class ZeroChannel(ValueError):
    """A channel vector required to be nonzero is zero."""


class ZeroVector(ValueError):
    """An embedding input is the zero vector."""


class TooLong(ValueError):
    """An embedding input exceeds the state dimension."""


class LengthMismatch(ValueError):
    """Paired sequences have different lengths."""


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""


class RankDeficientWarning(UserWarning):
    """Emitted when a one-shot design falls back to a random feasible point."""


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integers(**values) -> None:
    """Each value must be an integer and not a bool; InvalidInput names the first that is not."""
    for name, value in values.items():
        if not _is_integer(value):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")


def check_counts(**counts) -> None:
    """Each count must be an integer >= 1 and not a bool; InvalidInput names the first that is not."""
    for name, count in counts.items():
        if not _is_integer(count) or count < 1:
            raise InvalidInput(f"{name} must be an integer >= 1, got {count!r}")
