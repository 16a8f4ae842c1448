"""Frozen value records: equality, hash and repr as in a frozen dataclass.

A subclass names its fields in its own class annotations, in order.  The
constructor binds them positionally or by keyword and runs __post_init__;
then any assignment or deletion raises AttributeError.  Equality compares
field tuples within one class, the hash is the field tuple's, and the repr
is Name(field=value, ...).  to_json_dict gives the fields by name in
order, each tuple as a list.  Unlike dataclasses, this costs a CLI start no
import of inspect and no exec of generated methods.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            bound = dict(zip(fields, args))
            if len(args) > len(fields) or bound.keys() & kwargs or bound.keys() | kwargs.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}({', '.join(fields)}) cannot take "
                                f"{len(args)} positional arguments and keywords {sorted(kwargs)}")
            bound.update(kwargs)
            args = [bound[f] for f in fields]
        d = self.__dict__
        for name, value in zip(fields, args):
            d[name] = value
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def to_json_dict(self) -> dict:
        d = self.__dict__
        return {f: list(d[f]) if isinstance(d[f], tuple) else d[f] for f in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        d = self.__dict__
        return f"{type(self).__qualname__}({', '.join([f'{f}={d[f]!r}' for f in self._fields])})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
