"""Persisted weigh records: the JSON codec and the append-only store.

Records are JSON objects, one per line, appended to `records.ndjson` in
the data directory. Keys follow the order of the record class's
`_fields` (`schema.FrozenRecord`, read by `to_json` and `from_json`),
floats round-trip exactly through their shortest repr, and
`started_at_ms`/`ended_at_ms` are taken from the input frames, so
identical inputs produce byte-identical lines except for the random
`record_id`. The data directory resolves in this order: explicit
argument, the WEIGHSIM_DATA_DIR environment variable, `./weighsim_records`.

No numpy here: reading and re-assessing a record starts fast.
"""

from __future__ import annotations

import json
import math
import os
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Iterator, get_args, get_origin, get_type_hints

from .cog import AlertPolicy, DeckGeometry, LoadAssessment, TwoCellAssessment, assess, is_unsafe
from .errors import InvalidReadingError, InvalidValueError, RecordParseError
from .schema import FrozenRecord

ENV_DATA_DIR = "WEIGHSIM_DATA_DIR"
DEFAULT_DATA_DIR = "weighsim_records"
RECORDS_FILENAME = "records.ndjson"

#: The assessment class of each record `kind`.
_ASSESSMENT = {cls.kind: cls for cls in (LoadAssessment, TwoCellAssessment)}


def to_json(obj: Any) -> dict:
    """A record (`schema.FrozenRecord`) as a JSON-ready dict of its fields in
    order (an assessment headed by its `kind`), nested records as dicts,
    tuples as lists."""
    names, converted, _ = _codecs(type(obj))
    values = [getattr(obj, name) for name in names]
    for i, encode, _ in converted:
        values[i] = encode(values[i])
    out = {"kind": obj.kind} if type(obj) in _ASSESSMENT.values() else {}
    out.update(zip(names, values))
    return out


def from_json(cls: type, obj: dict, what: str = "record") -> Any:
    """The `cls` that `to_json` wrote as `obj`, its fields passed by position
    (a record class has no keyword-only field). Keys no field names are ignored;
    an `obj` that is not a dict, or a field whose JSON value cannot hold its
    type, is an InvalidValueError that calls it `what`."""
    names, converted, checks = _codecs(cls)
    obj = _object(obj, what)
    values = [obj[name] for name in names]
    for i, fits in checks:
        if not fits(values[i]):
            raise InvalidValueError(f"field {names[i]!r} of {what} has the wrong JSON type: {values[i]!r}")
    for i, _, decode in converted:
        values[i] = decode(values[i])
    return cls(*values)


@cache
def _codecs(cls: type) -> tuple[tuple[str, ...], tuple[tuple[int, Callable, Callable], ...], tuple]:
    """The field names of `cls` in order, (index, encoder, decoder) of each
    field whose JSON value is not the field value itself, and (index, test)
    of each field but a nested record or assessment, whose JSON value `test`
    checks."""
    hints = get_type_hints(cls)
    names = cls._fields
    converted = tuple((i, *codec) for i, name in enumerate(names) if (codec := _codec(hints[name], name)))
    checks = tuple((i, fits) for i, name in enumerate(names) if (fits := _fits(hints[name])))
    return names, converted, checks


#: The JSON value types of each scalar field type; a float may be written as an int.
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,), dict: (dict,)}


def _fits(hint: Any) -> Callable[[Any], bool] | None:
    """Whether a JSON value can hold a field of type `hint` (`json.loads` gives
    exact types, so a bool is no int); None for a record or an assessment."""
    args = get_args(hint)
    if hint in _JSON_TYPES:
        return lambda v: type(v) in _JSON_TYPES[hint]
    if get_origin(hint) is tuple:  # tuple[X, ...] or tuple[X, X, ...]
        item, size = _fits(args[0]), None if args[-1] is Ellipsis else len(args)
        return lambda v: type(v) is list and size in (None, len(v)) and all(map(item, v))
    if type(None) in args:  # X | None
        fits = _fits(args[0])
        return lambda v: v is None or fits(v)
    return None


def _codec(hint: Any, name: str) -> tuple[Callable, Callable] | None:
    if get_origin(hint) is tuple:
        return list, tuple
    if isinstance(hint, type) and issubclass(hint, FrozenRecord):
        return to_json, partial(from_json, hint, what=f"field {name!r}")
    if set(get_args(hint)) == set(_ASSESSMENT.values()):
        return to_json, partial(_assessment_from_json, what=f"field {name!r}")
    return None


def _assessment_from_json(obj: dict, what: str) -> LoadAssessment | TwoCellAssessment:
    kind = _object(obj, what)["kind"]
    if kind not in _ASSESSMENT:
        raise InvalidValueError(f"unknown assessment kind {kind!r}")
    return from_json(_ASSESSMENT[kind], obj, what)


def _object(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise InvalidValueError(f"{what} is not a JSON object")
    return obj


def json_line(obj: dict) -> str:
    """`obj` as one compact JSON line."""
    return json.dumps(obj, separators=(",", ":"))


def assessment_line(a: LoadAssessment | TwoCellAssessment) -> str:
    return json_line(to_json(a))


class WeighRecord(FrozenRecord):
    """One persisted weighing."""

    record_id: str
    station_id: str
    started_at_ms: int
    ended_at_ms: int
    mode: str
    cell_masses_kg: tuple[float, ...]
    geometry: DeckGeometry
    policy: AlertPolicy
    assessment: LoadAssessment | TwoCellAssessment
    calibration_fingerprint: str
    compliance: tuple[dict, ...] = ()

    def unsafe(self) -> bool:
        """True when the record should exit the CLI with code 2."""
        return is_unsafe(self.assessment) or any(not entry["passed"] for entry in self.compliance)

    def to_line(self) -> str:
        return json_line(to_json(self))

    @classmethod
    def from_line(cls, line: str, line_no: int | None = None) -> "WeighRecord":
        """The record on one line; a RecordParseError that names `line_no`
        unless the line holds a record, with finite numbers only, whose cell
        masses `assess` takes."""
        try:
            record = from_json(cls, json.loads(line, parse_float=_finite, parse_constant=_finite))
            if any(type(entry.get("passed")) is not bool for entry in record.compliance):
                raise InvalidValueError("a compliance entry has no boolean 'passed'")
            record.reassess()
            return record
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"bad record JSON: {exc}", line_no) from None
        except (KeyError, TypeError) as exc:
            raise RecordParseError(f"record missing field: {exc}", line_no) from None
        except (ValueError, InvalidReadingError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise RecordParseError(str(exc), line_no) from None

    def reassess(self) -> LoadAssessment | TwoCellAssessment:
        """Recompute the assessment from the stored per-cell masses."""
        return assess(self.cell_masses_kg, self.geometry, self.policy)


class RecordStore:
    """Append-only newline-delimited record log, `filename` in `data_dir`.

    A crash mid-append can leave a torn final line: one with no trailing
    newline that is not valid JSON. Reads skip it and keep its line
    number in `torn_line`. A bad line that a read parses is a
    RecordParseError: `load_all` parses every line, `load` only those that
    could hold its record.
    """

    def __init__(self, data_dir: str | Path | None = None, filename: str = RECORDS_FILENAME):
        if data_dir is None:
            data_dir = os.environ.get(ENV_DATA_DIR, DEFAULT_DATA_DIR)
        self.data_dir = Path(data_dir)
        self.path = self.data_dir / filename
        self.torn_line: int | None = None

    def append(self, record: WeighRecord) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(record.to_line() + "\n")

    def _lines(self) -> Iterator[tuple[int, str]]:
        """(line number, text) of every non-blank line but a torn final one,
        in file order as it is read. Lines are numbered as by `splitlines()`
        of the whole text, blanks included."""
        self.torn_line = None
        if not self.path.exists():
            return
        line_no = 0
        with open(self.path) as fh:
            try:
                for physical in fh:
                    lines = physical.splitlines()
                    for k, line in enumerate(lines, 1):
                        line_no += 1
                        if not line.strip():
                            continue
                        if k == len(lines) and not physical.endswith("\n") and not _is_json(line):
                            self.torn_line = line_no
                            continue
                        yield line_no, line
            except UnicodeDecodeError as exc:
                raise RecordParseError(f"{self.path} is not UTF-8 text: {exc}") from None

    def load_all(self) -> list[WeighRecord]:
        return [WeighRecord.from_line(line, line_no) for line_no, line in self._lines()]

    def load(self, record_id: str) -> WeighRecord:
        """The first record with `record_id`; the lines after it are not read.
        A `{...}` line with neither a backslash nor `record_id` as a JSON string
        is skipped unparsed, bad or not: without a backslash, a JSON string is
        written out literally, so that line cannot hold the record."""
        token = json.dumps(record_id, ensure_ascii=False)  # a line may hold non-ASCII as it is
        for line_no, line in self._lines():
            if token not in line and "\\" not in line and _framed(line):
                continue
            record = WeighRecord.from_line(line, line_no)
            if record.record_id == record_id:
                return record
        raise RecordParseError(f"no record {record_id!r} in {self.path}")


def _finite(text: str) -> float:
    """A JSON number or constant (`NaN`, `Infinity`) as a float; an
    InvalidValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise InvalidValueError(f"number {text} is not finite")
    return value


def _framed(line: str) -> bool:
    text = line.strip()
    return text.startswith("{") and text.endswith("}")


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except (ValueError, RecursionError):
        return False
    return True
