"""Exception hierarchy and the read-only record base shared by all bosonspectra modules."""


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
