"""Frozen value records: the part of dataclasses the package uses, without
the cost of importing dataclasses (and with it inspect) in every process.

@record makes a class whose annotations name its fields, in order, an
immutable value; a class attribute of a field's name is that field's
default.  The class gets an __init__ that takes the fields by position or
keyword and then calls the class's __post_init__, if it has one, to
validate them; a __setattr__ and __delattr__ that refuse every change; and
__eq__, __hash__ and __repr__ over the field values.  Instances keep a
__dict__, so a functools.cached_property works on them, and pickle restores
them field by field without calling __init__.  fields lists a record's
field names, and replace copies a record with some fields changed,
validating the copy again.
"""


def record(cls):
    """Make cls a frozen record, as the module docstring describes."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing {', '.join(missing)}")
        state = self.__dict__
        state.update(defaults)
        state.update(values)
        if post_init is not None:
            post_init(self)

    def astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return astuple(self) == astuple(other)

    def __hash__(self) -> int:
        return hash(astuple(self))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                f"{', '.join(f'{name}={getattr(self, name)!r}' for name in names)})")

    cls.__record_fields__ = names
    cls.__init__ = __init__
    cls.__setattr__ = _refuse
    cls.__delattr__ = _refuse
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    return cls


def _refuse(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def fields(cls) -> tuple:
    """The field names of a record class or instance, in order."""
    return cls.__record_fields__


def replace(obj, **changes):
    """A copy of the record obj with changes applied, validated again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__record_fields__},
                        **changes})
