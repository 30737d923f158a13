"""Immutable value records, without the import cost of `dataclasses`."""


class Record:
    """Base of the value classes, which annotate their fields.  Like frozen
    dataclasses, records of one class are equal, hashed and shown by their
    fields, and read-only; cached_property, which sets __dict__, caches."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if (len(args) + len(kwargs) != len(self._fields)
                or values.keys() != set(self._fields)):
            raise TypeError(f"{type(self).__name__} takes {self._fields}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    @classmethod
    def _unchecked(cls, *values):
        """Internal constructor for fields valid by construction: no arity
        check and no __post_init__."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls._fields, values))
        return obj

    def __post_init__(self):
        """Check or derive values once the fields are set."""

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__
