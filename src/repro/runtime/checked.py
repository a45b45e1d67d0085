"""Configuration records checked once, where they are built: each field
against its annotation, then against its entry in a table of limits."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

_hints = cache(get_type_hints)

#: how an error names each annotated type
_KINDS = {
    bool: "true or false", int: "an integer", float: "a number",
    str: "a string", dict: "an object", list[str]: "a list of strings",
    dict[str, str]: "an object of strings", NoneType: "null",
}


@dataclass(frozen=True)
class Bound:
    """The lowest (and, when given, the highest) value of a number."""

    low: float
    high: float = math.inf

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"at least {self.low}"
        return f"within [{self.low}, {self.high}]"


def _conforms(value, hint) -> bool:
    """``bool`` is never a number, an ``int`` is a ``float``, and a list
    is a list or a tuple, never a string."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_conforms(value, arm) for arm in args)
    if hint is int or hint is float:
        return (
            isinstance(value, int if hint is int else (int, float))
            and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value))
        )
    if origin is list:
        return isinstance(value, (list, tuple)) and all(
            _conforms(item, args[0]) for item in value
        )
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(key, args[0]) and _conforms(item, args[1])
            for key, item in value.items()
        )
    return isinstance(value, hint)


def _kind(hint) -> str:
    if get_origin(hint) is UnionType:
        return " or ".join(map(_kind, get_args(hint)))
    return _KINDS[hint]


def check_value(name: str, value, hint, limit=None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` has the type
    ``hint`` and keeps to ``limit``: a :class:`Bound`, the names the
    value (a string, a list's items, a mapping's keys) may take, or a
    parser that raises ``ValueError``.  A list held to names must hold
    at least one.  ``None`` passes every limit."""
    if not _conforms(value, hint):
        raise ValueError(f"{name} must be {_kind(hint)}, got {value!r}")
    if value is None or limit is None:
        return
    if isinstance(limit, Bound):
        if not limit.low <= value <= limit.high:
            raise ValueError(f"{name} must be {limit}, got {value}")
    elif callable(limit):
        try:
            limit(value)
        except ValueError as error:
            raise ValueError(f"{name}: {error}") from None
    else:
        names = [value] if isinstance(value, str) else list(value)
        if isinstance(value, (list, tuple)) and not names:
            raise ValueError(f"{name} must name at least one, got []")
        unknown = [item for item in names if item not in limit]
        if unknown:
            shown = value if isinstance(value, str) else unknown
            raise ValueError(f"unknown {name} {shown!r}; known: {list(limit)}")


def check_fields(record, limits: dict) -> None:
    """:func:`check_value` on every field of the dataclass ``record``,
    against its annotation and its entry in ``limits``."""
    hints = _hints(type(record))
    for spec in fields(record):
        name = spec.name
        check_value(name, getattr(record, name), hints[name], limits.get(name))


__all__ = ["Bound", "check_fields", "check_value"]
