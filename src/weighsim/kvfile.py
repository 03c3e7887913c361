"""Plain-text `key = value` configuration files.

Shared by the cell-spec, calibration, scenario, rule-table and station
config loaders. Format: one `key = value` pair per line, `#` starts a
comment, blank lines ignored. Keys are case-sensitive. Repeated keys are
allowed (the scenario format uses them for placements); use `as_dict`
when a format forbids duplicates.

The keys of a format are the fields of its record class, a
`schema.FrozenRecord`: its `_fields`, in order. `build` parses each field
by its annotated type (a finite float, an int, or an optional float) and
`write` emits the same fields as `name = repr(value)`. A key that no field
consumed is rejected by `reject_unknown`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, get_type_hints

from .errors import ConfigError, WeighSimError


@contextmanager
def named(path: str | Path) -> Iterator[None]:
    """Prefix `path: ` to any WeighSimError raised inside; non-UTF-8 text is a ConfigError naming `path`."""
    try:
        yield
    except WeighSimError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_kv(path: str | Path) -> list[tuple[str, str]]:
    """The (key, value) pairs of a file, in file order."""
    pairs: list[tuple[str, str]] = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        pairs.append((key, value))
    return pairs


def as_dict(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Collapse pairs to a dict, rejecting duplicate keys."""
    out: dict[str, str] = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_float(text: str, key: str) -> float:
    """`text` as a finite float; otherwise a ConfigError naming `key`."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key {key!r} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} is not a finite number: {text!r}")
    return value


def parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r} is not an integer: {text!r}") from None


#: Parser of each field type a file can spell.
_PARSERS: dict[Any, Callable] = {float: parse_float, float | None: parse_float, int: parse_int}


@cache
def _parsers(cls: type) -> dict[str, Callable[[str, str], Any]]:
    """Parser of each field of `cls` that a file can set, in field order."""
    hints = get_type_hints(cls)
    return {name: _PARSERS[hints[name]] for name in cls._fields if hints[name] in _PARSERS}


def take(values: dict[str, str], key: str, parse: Callable[[str, str], Any]) -> Any:
    """`key`'s value parsed and removed from `values`; a ConfigError when it is missing."""
    if key not in values:
        raise ConfigError(f"missing key {key!r}")
    return parse(values.pop(key), key)


def build(cls: type, values: dict[str, str], prefix: str = "", **defaults: Any) -> Any:
    """A `cls` from the `prefix + name` keys of `values`, which it removes.

    A field without a key takes its value from `defaults`, then from the
    class's default (`_field_defaults`); `take` raises for a field found in
    none of them. Fields of a type no file spells (tuples, nested records)
    come from `defaults` only.
    """
    parsers = _parsers(cls)
    kwargs = dict(defaults)
    for name, parse in parsers.items():
        key = prefix + name
        if key in values or name not in kwargs and name not in cls._field_defaults:
            kwargs[name] = take(values, key, parse)
    return cls(**kwargs)


def reject_unknown(values: dict[str, str]) -> None:
    """Raise for the first key of `values` that no `build` consumed."""
    if values:
        raise ConfigError(f"unknown key {next(iter(values))!r}")


def scalars(obj: Any) -> dict[str, Any]:
    """The fields of `obj` that its file format holds, by name in field order."""
    return {name: getattr(obj, name) for name in _parsers(type(obj))}


def write(path: str | Path, obj: Any, header: str, extra: Iterable[tuple[str, str]] = ()) -> None:
    """`obj`'s scalar fields as `name = repr(value)` lines, then the `extra`
    pairs, under a `# header` comment."""
    pairs = [*((name, repr(value)) for name, value in scalars(obj).items()), *extra]
    lines = [f"# {h}" for h in header.splitlines()]
    lines.extend(f"{k} = {v}" for k, v in pairs)
    Path(path).write_text("\n".join(lines) + "\n")
