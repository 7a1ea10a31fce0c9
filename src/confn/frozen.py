"""The base class of the package's immutable value classes.

A subclass lists its fields in ``__slots__`` (a subclass of a subclass
lists only the fields it adds) and sets them in ``__init__`` through
``object.__setattr__``; after that, assigning or deleting an attribute
raises AttributeError.  The DSL's nodes, which the parser builds by the
thousand, set each field through its slot's own setter instead, such as
``Span.line.__set__``, bound once at import.  The methods are written
out, not generated with ``exec`` when the module is imported, so that a
short command-line run does not pay for building them on every start.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for cls in reversed(type(self).__mro__)
            for name in getattr(cls, "__slots__", ())
            if not name.startswith("_")
        )
        return f"{type(self).__name__}({fields})"
