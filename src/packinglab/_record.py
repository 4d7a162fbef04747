"""Frozen value records: the base of the package's immutable classes.

    class Angle(Record):
        order: int
        sign: int = 1

A subclass's fields are its own annotated names, in order, and a class
attribute with a field's name is that field's default.  ``__init__``
binds positional and keyword arguments to the fields in the instance
``__dict__``, then calls the class's ``__post_init__``, if it has one,
which may normalise a field with ``object.__setattr__``.  Equality holds
only between instances of one class with equal field tuples, hashing is
on the field tuple, and ``repr`` prints ``Qualname(f=v, ...)``.
Assigning or deleting any attribute raises AttributeError.

This is the part of ``@dataclass(frozen=True)`` the package uses, with
no code generated per class: the ``dataclasses`` import and its ``exec``
per class were most of the CLI's start.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        own = vars(cls)
        defaults = {name: own[name] for name in names if name in own}
        # keywords[k]: the fields a keyword may name after k positional ones
        keywords = tuple(frozenset(names[k:]) for k in range(len(names) + 1))
        cls._record = (names, defaults, keywords, getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        names, defaults, keywords, post = self._record
        values = defaults.copy()
        values.update(zip(names, args))
        values.update(kwargs)
        # with every keyword a field after the positional ones, the count
        # says whether a field is missing
        if (
            len(values) != len(names)
            or len(args) > len(names)
            or (kwargs and not kwargs.keys() <= keywords[len(args)])
        ):
            raise TypeError(
                "%s() takes the fields (%s), got %d positional arguments and keywords %s"
                % (type(self).__qualname__, ", ".join(names), len(args), sorted(kwargs))
            )
        # a new dict, not the one self.__dict__ would materialise: CPython
        # 3.11 reads attributes from that one about four times slower
        object.__setattr__(self, "__dict__", values)
        if post is not None:
            post(self)

    def _fields(self):
        values = self.__dict__
        return tuple([values[name] for name in self._record[0]])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        values = self.__dict__
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(["%s=%r" % (name, values[name]) for name in self._record[0]]),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r of a frozen %s" % (name, type(self).__qualname__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r of a frozen %s" % (name, type(self).__qualname__))
