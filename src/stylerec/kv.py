"""The typed key=value codec behind config files, CLI flags and checkpoint headers.

A raw string becomes a value by the declared type of the dataclass field
it sets: ``true``/``false`` for bool, int and float literals, strings as
given, and comma-separated lists for the tuple grids. Every failure raises
the one error class the caller names: ``ConfigError`` for config files and
flags, ``FormatError`` for checkpoint headers.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Type

from .errors import StyleRecError


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw == "true"


# keyed by the annotation strings that ``from __future__ import annotations`` leaves
_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "str": str,
    "Optional[str]": str,
    "Tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.split(",")),
    "Tuple[float, ...]": lambda raw: tuple(float(x) for x in raw.split(",")),
}


def parse_value(type_name: str, raw: str, key: str, error: Type[StyleRecError]):
    """Parse ``raw`` as ``type_name``; ``error`` names ``key`` on failure."""
    try:
        return _PARSERS[type_name](raw)
    except ValueError as e:
        raise error(f"bad value for {key}: {raw!r} ({e})") from None


def parse_field(cls: type, name: str, raw: str, key: str, error: Type[StyleRecError]):
    """Parse ``raw`` for the field ``name`` of dataclass ``cls``.

    A name that is not a field, or whose type has no parser, is an
    unknown key.
    """
    types = {f.name: f.type for f in fields(cls)}
    if types.get(name) not in _PARSERS:
        raise error(f"unknown config key {key!r}")
    return parse_value(types[name], raw, key, error)


def format_value(value) -> str:
    """The raw string ``parse_value`` reads back as ``value``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
