"""Frozen records: the base of the package's schema classes.

A `FrozenRecord` class declares its fields as annotations, in order, each
with an optional default. At class creation, and never after, it gets
`_fields` (the names) and `_field_defaults`, the one schema that the
record codec, the `key = value` files and the CLI read; `__slots__` of the
fields, so an instance has no `__dict__`; and one compiled `__init__`,
which calls `__post_init__` if the class has one. Repr, equality, hash
and frozenness are shared, and are those of a frozen dataclass.
`dataclasses` is imported only when `dataclasses.replace`, `fields` or
`asdict` first reads a class's `__dataclass_fields__`.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Any


class _RecordType(type):
    def __new__(mcls, name: str, bases: tuple[type, ...], ns: dict[str, Any]) -> type:
        names = tuple(ns.get("__annotations__", ()))
        ns["__slots__"] = names
        if names:  # a class without annotations keeps its base's fields
            defaults = {n: ns.pop(n) for n in names if n in ns}
            if names[len(names) - len(defaults) :] != tuple(defaults):
                raise TypeError(f"{name}: a field without a default follows one with a default")
            ns["_fields"], ns["_field_defaults"] = names, defaults
            getter = attrgetter(*names)  # a tuple of the values, unless there is one field
            ns["_values"] = property(getter if len(names) > 1 else lambda self: (getter(self),))
            ns["__init__"] = _init(f"{ns['__qualname__']}.__init__", names, defaults, "__post_init__" in ns)
        return super().__new__(mcls, name, bases, ns)


def _init(qualname: str, names: tuple[str, ...], defaults: dict[str, Any], post_init: bool):
    """`__init__(self, *names)`, each field set as a frozen dataclass sets it."""
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    body += "\n    self.__post_init__()" if post_init else ""
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__, init.__defaults__ = qualname, tuple(defaults.values())
    return init


class _DataclassFields:
    """`__dataclass_fields__`, for `dataclasses.replace`, `fields` and `asdict`."""

    def __get__(self, obj: Any, cls: type) -> dict:
        return _dataclass_fields(cls)


@cache
def _dataclass_fields(cls: type) -> dict:
    from dataclasses import dataclass

    annotations: dict[str, Any] = {}
    for c in reversed(cls.__mro__):  # `vars`: reading `__annotations__` may add it to a class
        annotations.update(vars(c).get("__annotations__", {}))
    shadow = {"__annotations__": {n: annotations[n] for n in cls._fields}, **cls._field_defaults}
    return dataclass(frozen=True)(type(cls.__name__, (), shadow)).__dataclass_fields__


class FrozenRecord(metaclass=_RecordType):
    """Base of a frozen record class; see the module docstring."""

    _fields, _field_defaults = (), {}  # unannotated: an annotation here would declare a field
    __dataclass_fields__ = _DataclassFields()

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        """For `copy` and `pickle`, which would otherwise set each slot."""
        return type(self), self._values
