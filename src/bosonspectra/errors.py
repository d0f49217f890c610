"""Exception hierarchy, read-only record base and value rules (_integer, _real, _complex_array) of bosonspectra."""

import math
import numbers

import numpy as np


class BosonSpectraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(BosonSpectraError):
    """Matrix or vector shapes are inconsistent (e.g. non-square permanent input)."""


class ConfigurationError(BosonSpectraError):
    """Occupation configurations, mode lists or mixture weights are invalid."""


class RepresentationError(BosonSpectraError):
    """Spectral specifications cannot be reduced to a common basis."""


class CapacityError(BosonSpectraError):
    """Requested computation exceeds a hard size guard; refusing to hang."""


class _Record:
    """A read-only record: a frozen dataclass's repr, == and hash, without importing dataclasses.

    __init__ stores the fields in vars(self); repr, == and hash run over
    the names in _fields. Assigning or deleting any attribute raises
    AttributeError, while copy, pickle and functools.cached_property
    write vars(self) directly and work as on any class. The array fields
    named in _frozen, which __init__ makes read-only, are made read-only
    again in every copy and unpickled record.
    """

    _fields = ()
    _frozen = ()

    def __setstate__(self, state):
        vars(self).update(state)
        for name in self._frozen:
            state[name].setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())


def _integer(value, what: str, minimum: int | None = None, error=ConfigurationError) -> int:
    """value as an int if it is one exactly (numpy ints and 2.0 pass; True, "1", 2.5 and inf do not), >= minimum."""
    try:
        exact = isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool) and int(value) == value
    except (ValueError, OverflowError):  # nan, infinities
        exact = False
    if not exact:
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value!r}")
    return int(value)


def _real(value, what: str, error=ConfigurationError) -> float:
    """value as a finite float, -0.0 read as 0.0; a float skips the type checks, which cost more than the rest."""
    if value.__class__ is not float and (isinstance(value, bool) or not isinstance(value, (int, numbers.Real))):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        number = float(value) + 0.0
    except OverflowError:
        raise error(f"{what} must be finite: a {len(str(abs(value)))}-digit integer overflows a double") from None
    if not math.isfinite(number):
        raise error(f"{what} must be finite, got {value!r}")
    return number


def _complex_array(value, what: str, error=DimensionError) -> np.ndarray:
    """value as a new complex128 array of finite numbers, Fractions too; strings, booleans and ragged rows fail."""
    try:
        given = np.asarray(value)
        if given.dtype.kind not in "iufc" and not (given.dtype.kind == "O" and all(
                isinstance(x, numbers.Complex) and not isinstance(x, bool) for x in given.flat)):
            raise TypeError  # strings, booleans, None
        array = given.astype(np.complex128)
    except (TypeError, ValueError, OverflowError):  # and ragged rows, or a number beyond the double range
        raise error(f"{what} must be an array of numbers, got {type(value).__name__}") from None
    if not np.all(np.isfinite(array)):
        raise error(f"{what} entries must be finite")
    return array
