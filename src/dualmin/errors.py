"""Shared exception types, the default state bound, `quoted` for long values in
messages, and the frozen `Record` base of every automaton, matrix and basis class."""

from operator import attrgetter

DEFAULT_MAX_STATES = 1_000_000


class DimensionError(ValueError):
    """Matrix/vector dimensions do not line up."""


class SemiringError(ValueError):
    """Operation not supported over the given semiring, or operands mix semirings."""


class StateGuardError(RuntimeError):
    """A construction would materialise more states than the configured bound."""


class NonCongruenceError(ValueError):
    """A partition handed to a quotient is not a congruence; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FormatError(ValueError):
    """Malformed automaton file; `path` locates the offending field."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def quoted(value) -> str:
    """repr of a string, or of its first 60 characters followed by ..., so that
    an error about a long value stays short; any other value's repr is cut so."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 60 else f"{value[:60]!r}..."
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}..."


class Record:
    """A frozen record.  Its fields are the class's annotated names, in order,
    and a field's default is its value in the class body.  The constructor
    takes the fields by position or by keyword, then calls __post_init__;
    assigning or deleting an attribute raises AttributeError.  == and hash
    read every field but those the class names in `_uncompared`, or what its
    own `_compared` getter reads, and repr lists every field.  Instances keep
    a __dict__, so cached_property works.  Nothing is generated or exec'd
    when a class is defined."""

    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        cls._defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        if "_compared" not in vars(cls):
            cls._compared = attrgetter(*(f for f in fields if f not in cls._uncompared))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """Every field's value, in order, from a call's arguments and the defaults."""
        fields = self._fields
        rest = fields[len(args):]
        unknown = [name for name in kwargs if name not in rest]
        missing = [name for name in rest if name not in kwargs and name not in self._defaults]
        if len(args) > len(fields) or unknown or missing:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}; "
                            f"got {len(args)} by position, unknown or repeated {unknown}, "
                            f"missing {missing}")
        return [*args, *(kwargs[f] if f in kwargs else self._defaults[f] for f in rest)]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
