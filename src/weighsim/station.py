"""Station operations: frame ingestion and weigh sessions.

Wire format is one ADC frame per line, ASCII, comma-separated:

    station_id,cell_index,timestamp_ms,adc_code,gain,saturated

`station_id` is any non-empty comma-free token, `cell_index` counts from
0 (FL, FR, RL, RR on a four-cell station; left, right in two-cell mode),
`gain` is one of 128/64/32, and `saturated` is 1 exactly when `adc_code`
is on a rail (`codec.RAILS`) and 0 otherwise: any other value is a parse
error. Timestamps are signed 64-bit and must be non-decreasing per cell.

One weighing is one vehicle on one deck, so a `FrameBatch` holds one
station's frames: its `station_id` and a numpy column per other wire
field but `saturated`, which the code implies, one row per frame in input
order. `FrameIngestor.ingest_lines` parses any iterable of lines (an open
file included) in the chunks of `codec.chunks`, so the strings of one
chunk at a time are alive. Each chunk is stripped of blank lines and
surrounding whitespace and read into columns: by numpy's text reader when
it can vouch for every line, else by `str.split` and `int()`, which find
the field-count, empty-station and non-numeric faults. One set of array
checks judges the columns either way; the first line that fails raises
its first failing check of: field count, empty station, non-numeric
field, cell, code, gain, flag, timestamp width (RecordParseError), a
second station (IncompleteStationError), time order on its cell
(SequencingError). So neither reader nor chunk size changes a result.
`run_session` reduces each cell's column slice: code→mass, then the
static-window or WIM mean.

Records, their JSON codec and the record store live in `weighsim.record`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

# code_to_mass, RecordStore and assessment_line are unused here but stay module
# attributes: callers, the benchmark among them, look them up on this module.
from .calibration import CalibrationState, code_to_mass, codes_to_kg  # noqa: F401
from .codec import CODE_MAX, CODE_MIN, GAIN_CHANNELS, RAILS, chunks, numbered
from .cog import DECKS, AlertPolicy, DeckGeometry, assess
from .compliance import (
    AxleConfiguration,
    ToleranceRule,
    check_compliance,
    static_weigh,
    wim_weigh,
    within_gvw_limit,
)
from .errors import IncompleteStationError, InsufficientSamplesError, RecordParseError
from .errors import InvalidValueError, SequencingError, is_integer, require_positive
from .record import RecordStore, WeighRecord, assessment_line, to_json  # noqa: F401

MODES = ("static", "wim")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Characters a chunk taken in bulk must not hold: a line break, which
#: would split a line in numpy's text reader, and the separators \x1c-\x1f,
#: which the reader strips from an integer field and int() does not.
_NOT_IN_BULK = "\r\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class SensorFrameRecord:
    """One wire-format frame."""

    station_id: str
    cell_index: int
    timestamp_ms: int
    adc_code: int
    gain: int = 128
    saturated: bool = False


#: The `FrameBatch` columns: the `SensorFrameRecord` fields but the station
#: and the saturated flag, which the code implies.
_COLUMNS = tuple(f.name for f in fields(SensorFrameRecord)[1:5])


def format_frame_line(rec: SensorFrameRecord) -> str:
    return (
        f"{rec.station_id},{rec.cell_index},{rec.timestamp_ms},"
        f"{rec.adc_code},{rec.gain},{int(rec.saturated)}"
    )


def parse_frame_line(line: str, line_no: int | None = None, cell_count: int = 4) -> SensorFrameRecord:
    """The frame of one wire line, judged as `FrameIngestor` judges it alone:
    every failure is a RecordParseError with the line number."""
    batch = FrameIngestor(cell_count)._chunk([line.strip()], [line_no])
    cell, ts, code, gain = (getattr(batch, c).item() for c in _COLUMNS)
    return SensorFrameRecord(batch.station_id, cell, ts, code, gain, code in RAILS)


def _outside(cell: np.ndarray, cell_count: int) -> np.ndarray:
    """The rows whose cell index is not one of `cell_count` cells."""
    return (cell < 0) | (cell >= cell_count)


def _frame_faults(ts: np.ndarray, code: np.ndarray, gain: np.ndarray, sat: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """A mask of the rows failing each check of a frame's values, in the
    order a wire line reports them after its cell: code range, gain,
    saturated flag (`sat`; None stands for each code's own), timestamp
    width. Columns of object dtype may hold any int."""
    on_rail = np.logical_or.reduce([code == rail for rail in RAILS])
    return (
        (code < CODE_MIN) | (code > CODE_MAX),
        np.logical_and.reduce([gain != g for g in GAIN_CHANNELS]),
        on_rail != (on_rail if sat is None else sat),
        (ts < _INT64_MIN) | (ts > _INT64_MAX),
    )


def _reasons(ts: object, code: int, gain: int, sat: object) -> list[str]:
    """What each check of `_frame_faults` says of a frame that fails it."""
    return [
        f"code {code} outside signed 24-bit range",
        f"gain {gain} not one of {sorted(GAIN_CHANNELS)}",
        f"saturated flag must be {int(code in RAILS)} for code {code}, got {sat}",
        f"timestamp {ts} ms does not fit in 64 bits",
    ]


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """One station's wire frames as columns, one row per frame in input order.

    `station_id` is None for an empty batch. The other columns hold the
    `SensorFrameRecord` field of the same name, int64; a row's saturation
    is its code's (`codec.RAILS`).
    """

    station_id: str | None
    cell_index: np.ndarray
    timestamp_ms: np.ndarray
    adc_code: np.ndarray
    gain: np.ndarray

    def __len__(self) -> int:
        return len(self.cell_index)

    @classmethod
    def from_records(cls, records: Iterable[SensorFrameRecord], cell_count: int = 4) -> "FrameBatch":
        """The batch of `records`, checked by `_require_integers` and by
        `_checked` for a deck of `cell_count` cells."""
        records = list(records)
        station = _one_station([r.station_id for r in records])
        # Plain attribute reads, which the interpreter specializes: twice as
        # fast as getattr, and that saving pays for the type scan.
        columns = [
            [r.cell_index for r in records],
            [r.timestamp_ms for r in records],
            [r.adc_code for r in records],
            [r.gain for r in records],
        ]
        _require_integers(dict(zip(_COLUMNS, columns)), records.__getitem__)
        try:
            batch = cls(station, *np.array(columns, np.int64))
        except OverflowError:  # a value no int64 holds, which `_checked` names
            batch = cls(station, *np.array(columns, object))
        return _checked(batch, cell_count, records)

    @classmethod
    def concat(cls, batches: Sequence["FrameBatch"]) -> "FrameBatch":
        """Rows of every batch in order."""
        if len(batches) == 1:
            return batches[0]
        return cls(
            _one_station(b.station_id for b in batches),
            *(np.concatenate([getattr(b, c) for b in batches]) for c in _COLUMNS),
        )


def _one_station(ids: Iterable[str | None]) -> str | None:
    """The one station id among `ids` (None when there is none);
    IncompleteStationError when there are several."""
    names = set(ids) - {None}
    if len(names) > 1:
        raise IncompleteStationError(f"frames span multiple stations: {sorted(names)}")
    return next(iter(names), None)


def _require_integers(columns: dict[str, list], frame: Callable[[int], SensorFrameRecord]) -> None:
    """Raise InvalidValueError("<field> <value!r> is not an integer: <frame(i)>")
    for the first row i, fields in `columns` order, holding a value that is
    not an int or a numpy integer: a bool, a str or a float, even an integral one."""
    if {*map(type, chain(*columns.values()))} - {int}:
        for i, row in enumerate(zip(*columns.values())):
            for name, value in zip(columns, row):
                if not is_integer(value):
                    raise InvalidValueError(f"{name} {value!r} is not an integer: {frame(i)}")


def _checked(batch: FrameBatch, cell_count: int, records: list[SensorFrameRecord] | None = None) -> FrameBatch:
    """`batch` with int64 columns. Without `records` (whose fields
    `from_records` checked), a column of an integer dtype holds integers
    and any other is read as Python objects for `_require_integers`. The
    first frame that fails a check of `_frame_faults` is an InvalidValueError
    that names it: its row, or the record of `records` it came from, whose
    saturated flag is checked too. Then the first frame for a cell off a
    deck of `cell_count` cells, one beyond int64 included, is an
    IncompleteStationError that names the cell."""
    columns = [getattr(batch, c) for c in _COLUMNS]

    def row(i: int) -> SensorFrameRecord:
        cell, ts, code, gain = (c.tolist()[i] for c in columns)
        return SensorFrameRecord(batch.station_id, cell, ts, code, gain, code in RAILS)

    if records is None:
        _require_integers({n: c.tolist() for n, c in zip(_COLUMNS, columns) if c.dtype.kind not in "iu"}, row)
    flags = None if records is None else np.array([r.saturated for r in records], bool)
    faults = _frame_faults(*columns[1:], flags)
    bad = np.logical_or.reduce(faults)
    if bad.any():
        i = int(bad.argmax())
        frame = row(i) if records is None else records[i]
        reasons = _reasons(frame.timestamp_ms, frame.adc_code, frame.gain, frame.saturated)
        reasons[2] = f"saturated flag {frame.saturated} disagrees with code {frame.adc_code}"
        raise InvalidValueError(f"{reasons[[f[i] for f in faults].index(True)]}: {frame}")
    outside = _outside(columns[0], cell_count)
    if outside.any():
        raise IncompleteStationError(f"frame for cell {columns[0][outside.argmax()]} on a {cell_count}-cell station")
    return FrameBatch(batch.station_id, *(np.asarray(c, np.int64) for c in columns))


class FrameIngestor:
    """Stateful wire parser of one station's frames, enforcing per-cell
    time order.

    The station and the order state persist across calls, so the files of
    one session are ingested one after another into the same ingestor.
    """

    def __init__(self, cell_count: int = 4):
        self.cell_count = cell_count
        self.station_id: str | None = None
        #: Last timestamp of each cell; INT64_MIN before its first frame.
        self._last_ts = np.full(cell_count, _INT64_MIN, dtype=np.int64)

    def ingest_lines(self, lines: Iterable[str]) -> FrameBatch:
        """Parse and check `lines` (any iterable, e.g. an open file), as the
        module docstring says. Blank lines are skipped; errors name the line
        number, counted from 1 with blank lines included."""
        batches = []
        for first_no, chunk in chunks(lines):
            kept, numbers = numbered(chunk, first_no)
            if kept:
                batches.append(self._chunk(kept, numbers))
        return FrameBatch.concat(batches) if batches else FrameBatch.from_records(())

    def _chunk(self, kept: list[str], numbers: list[int | None]) -> FrameBatch:
        """The batch of stripped non-blank wire lines, judged after the frames
        ingested so far; only a good chunk advances the state."""
        station = self.station_id or kept[0].partition(",")[0]
        stations, (cell, ts, code, gain, sat), error = _bulk(kept, station) or _split(kept)
        # prev: each row's cell's timestamp before it (its own off the cells)
        last, prev = self._last_ts.tolist(), ts.copy()
        for c in range(self.cell_count):
            rows = np.flatnonzero(cell == c)
            t = np.append(last[c], ts[rows])
            prev[rows], last[c] = t[:-1], t[-1]
        other = np.zeros(len(ts), bool) if stations is None else stations != station
        masks = (_outside(cell, self.cell_count), *_frame_faults(ts, code, gain, sat), other, ts < prev)
        bad = np.logical_or.reduce(masks)
        if bad.any():
            row = int(bad.argmax())
            check, line_no = [mask[row] for mask in masks].index(True), numbers[row]
            if check == 5:
                _one_station([station, stations[row]])  # raises
            if check == 6:
                raise SequencingError(
                    f"timestamp {ts[row]} ms before {prev[row]} ms on"
                    f" station {station!r} cell {cell[row]} (line {line_no})"
                )
            _, _, ts_s, _, _, sat_s = kept[row].split(",")
            reasons = [f"cell index {cell[row]} outside 0-{self.cell_count - 1}", *_reasons(ts_s, code[row], gain[row], sat_s)]
            raise RecordParseError(reasons[check], line_no)
        if error is not None:
            raise RecordParseError(error, numbers[len(ts)])
        self.station_id, self._last_ts = station, np.array(last, np.int64)
        return FrameBatch(station, *(np.asarray(c, np.int64) for c in (cell, ts, code, gain)))


def _bulk(kept: list[str], station: str) -> tuple[None, list[np.ndarray], None] | None:
    """`_split`'s result for stripped wire lines all of `station`, read by
    numpy's text reader, or None when that reader cannot vouch for them."""
    n, text = len(kept), "\n".join(kept)
    # numpy's reader takes some non-ASCII letters for digits. It refuses a
    # line of fewer than 6 fields, so 5 commas per line on average are 5 on
    # every line.
    if (not station or not text.isascii() or any(c in text for c in _NOT_IN_BULK) or text.count(",") != 5 * n
            or text.count("\n") != n - 1 or not text.startswith(station + ",") or text.count("\n" + station + ",") != n - 1):
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "1.0" as 1 with a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(kept, np.int64, delimiter=",", usecols=range(1, 6), comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return None, list(np.ascontiguousarray(table.T)), None


def _split(kept: list[str]) -> tuple[np.ndarray, list[np.ndarray], str | None]:
    """Stripped wire lines read by `str.split` and `int()` up to the first
    that does not parse: the station column and the five numeric columns of
    the lines before it (object dtype, so no value overflows), and the
    message of that line, or None."""
    rows, error = [], None
    for line in kept:
        fields = line.split(",")
        if len(fields) != 6:
            error = f"expected 6 fields, got {len(fields)}"
        elif not fields[0]:
            error = "empty station id"
        else:
            try:
                rows.append([fields[0], *map(int, fields[1:])])
                continue
            except ValueError:
                error = f"non-numeric field in {line!r}"
        break
    stations, *columns = np.array(rows, object).reshape(-1, 6).T
    return stations, columns, error


def check_tolerance_inputs(tolerance_rule: ToleranceRule | None, reference_kg: float | None) -> None:
    """InvalidValueError unless a tolerance check has neither a rule nor a
    reference mass, or both and a finite mass > 0."""
    if (tolerance_rule is None) != (reference_kg is None):
        raise InvalidValueError("a tolerance check needs both a tolerance rule and a reference mass")
    if reference_kg is not None:
        require_positive("reference mass", reference_kg)


def run_session(
    frames: FrameBatch | Iterable[SensorFrameRecord],
    calibrations: Sequence[CalibrationState],
    mode: str,
    policy: AlertPolicy,
    geometry: DeckGeometry,
    tolerance_rule: ToleranceRule | None = None,
    reference_kg: float | None = None,
    axle_config: AxleConfiguration | None = None,
) -> WeighRecord:
    """Weigh one vehicle on a deck of one cell per calibration.

    Each cell's frames off the rails (`codec.RAILS`) are taken in
    timestamp order (ties in input order); a cell with none raises
    InsufficientSamplesError. A frame whose code, gain or timestamp no
    wire line could carry, or a record whose `saturated` flag disagrees
    with its code or whose numeric field is not an integer, is an
    InvalidValueError that names it; a cell off the deck, one beyond int64
    included, is an IncompleteStationError.
    Static mode averages the trailing 15 s window per cell (and therefore
    needs at least that much data); WIM mode averages each cell's whole
    pass-over segment. A tolerance rule with a reference mass (both or
    neither) and an axle configuration each add a compliance entry.
    """
    if mode not in MODES:
        raise InvalidValueError(f"mode must be one of {MODES}, got {mode!r}")
    cell_count = len(calibrations)
    if cell_count not in DECKS:
        raise InvalidValueError(f"cell count (one per calibration) must be one of {sorted(DECKS)}, got {cell_count}")
    check_tolerance_inputs(tolerance_rule, reference_kg)

    batch = _checked(frames, cell_count) if isinstance(frames, FrameBatch) else FrameBatch.from_records(frames, cell_count)
    cell = batch.cell_index
    if not len(batch):
        raise IncompleteStationError("no frames at all")
    counts = np.bincount(cell, minlength=cell_count).tolist()
    missing = [i for i, c in enumerate(counts) if not c]
    if missing:
        raise IncompleteStationError(f"no frames for cell(s) {missing}")

    # A saturated frame is pinned at a rail and says nothing about the load.
    order = np.lexsort((batch.timestamp_ms, cell))
    order = order[~np.isin(batch.adc_code[order], RAILS)]
    times_s = batch.timestamp_ms[order] / 1000.0
    codes = batch.adc_code[order]
    counts = np.bincount(cell[order], minlength=cell_count).tolist()
    cell_masses = []
    lo = 0
    for i, (cal, count) in enumerate(zip(calibrations, counts)):
        if not count:
            raise InsufficientSamplesError(f"every frame of cell {i} is saturated")
        hi = lo + count
        # A scale large enough to overflow gives an infinite mass, which
        # `assess` rejects; numpy's warnings on the way say nothing more.
        with np.errstate(over="ignore", invalid="ignore"):
            masses = codes_to_kg(codes[lo:hi], cal)
            if mode == "static":
                cell_masses.append(static_weigh(times_s[lo:hi], masses))
            else:
                cell_masses.append(wim_weigh(masses)[0])
        lo = hi

    assessment = assess(cell_masses, geometry, policy)
    compliance_entries: list[dict] = []
    if tolerance_rule is not None:
        result = check_compliance(assessment.total_kg, reference_kg, tolerance_rule)
        compliance_entries.append({"check": "tolerance", **to_json(result)})
    if axle_config is not None:
        compliance_entries.append(
            {
                "check": "gvw",
                "config_code": axle_config.config_code,
                "gvw_limit_kg": axle_config.gvw_limit_kg,
                "measured_kg": assessment.total_kg,
                "passed": within_gvw_limit(axle_config, assessment.total_kg),
            }
        )

    return WeighRecord(
        record_id=os.urandom(6).hex(),
        station_id=batch.station_id,
        started_at_ms=int(batch.timestamp_ms.min()),
        ended_at_ms=int(batch.timestamp_ms.max()),
        mode=mode,
        cell_masses_kg=tuple(cell_masses),
        geometry=geometry,
        policy=policy,
        assessment=assessment,
        calibration_fingerprint="+".join(c.fingerprint() for c in calibrations),
        compliance=tuple(compliance_entries),
    )
