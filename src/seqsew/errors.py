"""Exception types shared across the package, and the one check that
an integer parameter is integral."""


class ArgumentError(ValueError):
    """A caller-supplied argument violates a documented precondition."""


class DimensionMismatchError(ArgumentError):
    """A vector has the wrong length for the object it is used with."""


class UnsupportedDimensionError(ArgumentError):
    """The requested operation only exists for low ambient dimension."""


class StateError(RuntimeError):
    """An operation was called on an object in an unusable state."""


class ContractViolationError(RuntimeError):
    """An internal protocol contract was broken (e.g. an increasing
    inverse temperature, or bound inputs inconsistent with a run)."""


class DataError(RuntimeError):
    """A data sequence could not be consumed (names the failing round)."""


def _checked_integer(label: str, value: object) -> int:
    """``value`` as an int: an integral float or a numpy integer passes,
    and anything else raises :class:`ArgumentError` starting with
    ``label``, rather than being truncated."""
    try:
        integer = int(value)
    except (TypeError, ValueError, OverflowError):
        integer = None
    if integer is None or integer != value:
        raise ArgumentError(f"{label} must be an integer, got {value!r}")
    return integer
