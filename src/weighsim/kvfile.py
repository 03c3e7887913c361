"""Plain-text `key = value` configuration files.

Shared by the cell-spec, calibration, scenario, rule-table and station
config loaders. Format: one `key = value` pair per line, `#` starts a
comment, blank lines ignored. Keys are case-sensitive. Repeated keys are
allowed (the scenario format uses them for placements); use `as_dict`
when a format forbids duplicates.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError


def parse_kv_lines(text: str, source: str = "<string>") -> list[tuple[str, str]]:
    """Parse key=value text into an ordered list of (key, value) pairs."""
    pairs: list[tuple[str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{line_no}: empty key")
        pairs.append((key, value))
    return pairs


def read_kv(path: str | Path) -> list[tuple[str, str]]:
    path = Path(path)
    return parse_kv_lines(path.read_text(), source=str(path))


def as_dict(pairs: list[tuple[str, str]], source: str = "<config>") -> dict[str, str]:
    """Collapse pairs to a dict, rejecting duplicate keys."""
    out: dict[str, str] = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{source}: duplicate key {key!r}")
        out[key] = value
    return out


def get_float(values: dict[str, str], key: str, source: str, default: float | None = None) -> float:
    if key not in values:
        if default is not None:
            return default
        raise ConfigError(f"{source}: missing key {key!r}")
    try:
        value = float(values[key])
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} is not a number: {values[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{source}: key {key!r} is not a finite number: {values[key]!r}")
    return value


def get_int(values: dict[str, str], key: str, source: str, default: int | None = None) -> int:
    if key not in values:
        if default is not None:
            return default
        raise ConfigError(f"{source}: missing key {key!r}")
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} is not an integer: {values[key]!r}") from None


def write_kv(path: str | Path, pairs: list[tuple[str, str]], header: str | None = None) -> None:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.extend(f"{k} = {v}" for k, v in pairs)
    Path(path).write_text("\n".join(lines) + "\n")
