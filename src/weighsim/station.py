"""Station operations: frame ingestion and weigh sessions.

Wire format is one ADC frame per line, ASCII, comma-separated:

    station_id,cell_index,timestamp_ms,adc_code,gain,saturated

`station_id` is any non-empty comma-free token, `cell_index` counts from
0 (FL, FR, RL, RR on a four-cell station; left, right in two-cell mode),
`gain` is one of 128/64/32, and `saturated` is 1 exactly when `adc_code`
is on a rail (`codec.RAILS`) and 0 otherwise: any other value is a parse
error. Timestamps are signed 64-bit and must be non-decreasing per cell.

One weighing is one vehicle on one deck, so a `FrameBatch` holds one
station's frames: its `station_id` and an int64 column (`array('q')`, 8
bytes a value) per other wire field but `saturated`, which the code
implies, one row per frame in input order. `FrameIngestor.ingest_lines`
parses any iterable of lines (an open file included) in the chunks of
`codec.chunks`, so the strings of one chunk at a time are alive. Each chunk
is stripped of blank lines and surrounding whitespace and read by
`str.split` and `int()`: in bulk, all its fields split at once and a column
at a time converted, when every line holds six fields of one station and
every check passes; else line by line, which finds the first line that
fails and its first failing check of: field count, empty station,
non-numeric field, cell, code, gain, flag, timestamp width
(RecordParseError), a second station (IncompleteStationError), time order
on its cell (SequencingError). So neither the reading nor the chunk size
changes a result. The ingestor judges each row once, and its verdict is
final: its batch also holds the rows grouped per cell, in time order, and
`FrameBatch.concat` joins the verdicts of one ingestor's batches. Any other
input, records and batches built by hand included, is judged by
`run_session`, then grouped the same way. `run_session` reduces the groups
once: code→mass by `calibration.code_to_mass`, then the static-window or
WIM mean in float64, as numpy's `mean` adds (`compliance.mean`). No numpy
is loaded here.

Records, their JSON codec and the record store live in `weighsim.record`.
"""

from __future__ import annotations

import os
from array import array
from functools import reduce
from itertools import chain, compress, pairwise
from operator import iadd
from typing import Callable, Iterable, Sequence

# RecordStore and assessment_line are unused here but stay module attributes:
# callers, the benchmark among them, look them up on this module.
from .calibration import CalibrationState, code_to_mass
from .codec import CODE_MAX, CODE_MIN, GAIN_CHANNELS, RAILS, chunks, numbered
from .cog import DECKS, AlertPolicy, DeckGeometry, assess
from .compliance import (
    STATIC_WINDOW_S,
    AxleConfiguration,
    ToleranceRule,
    check_compliance,
    mean,
    static_weigh,
    within_gvw_limit,
)
from .errors import GainMismatchError, IncompleteStationError, InsufficientSamplesError, RecordParseError
from .errors import InvalidValueError, SequencingError, is_integer, require_positive
from .record import RecordStore, WeighRecord, assessment_line, to_json  # noqa: F401
from .schema import FrozenRecord

MODES = ("static", "wim")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class SensorFrameRecord(FrozenRecord):
    """One wire-format frame."""

    station_id: str
    cell_index: int
    timestamp_ms: int
    adc_code: int
    gain: int = 128
    saturated: bool = False


#: The `FrameBatch` columns: the `SensorFrameRecord` fields but the station
#: and the saturated flag, which the code implies.
_COLUMNS = SensorFrameRecord._fields[1:5]


def format_frame_line(rec: SensorFrameRecord) -> str:
    return (
        f"{rec.station_id},{rec.cell_index},{rec.timestamp_ms},"
        f"{rec.adc_code},{rec.gain},{int(rec.saturated)}"
    )


def parse_frame_line(line: str, line_no: int | None = None, cell_count: int = 4) -> SensorFrameRecord:
    """The frame of one wire line, judged as `FrameIngestor` judges it alone:
    every failure is a RecordParseError with the line number."""
    batch = FrameIngestor(cell_count)._chunk([line.strip()], [line_no])
    cell, ts, code, gain = (getattr(batch, c)[0] for c in _COLUMNS)
    return SensorFrameRecord(batch.station_id, cell, ts, code, gain, code in RAILS)


def _value_fault(ts: int, code: int, gain: int, flag: object) -> int | None:
    """The index in `_reasons` of the first check of a frame's values that
    fails, in the order a wire line reports them after its cell: code
    range, gain, saturated flag (`flag` must equal whether the code is on a
    rail), timestamp width; None when every check passes."""
    passed = (CODE_MIN <= code <= CODE_MAX, gain in GAIN_CHANNELS, flag == (code in RAILS), _INT64_MIN <= ts <= _INT64_MAX)
    return passed.index(False) if False in passed else None


def _values_pass(code: list[int], gain: list[int], flags: list | None) -> bool:
    """Whether every row passes the checks of `_value_fault` but the
    timestamp width, judged a column at a time; `flags` None stands for
    each code's own. Flags of 0 and 1 are the codes' own when each flagged
    code is on a rail and as many codes as flags are: counts, not a
    comparison a row at a time."""
    if not code:
        return True
    low, high = min(code), max(code)
    rails = (code.count(CODE_MIN) if low == CODE_MIN else 0) + (code.count(CODE_MAX) if high == CODE_MAX else 0)
    return CODE_MIN <= low and high <= CODE_MAX and set(gain) <= GAIN_CHANNELS.keys() and (
        flags is None or set(flags) <= {0, 1} and sum(flags) == rails and set(compress(code, flags)) <= set(RAILS)
    )


def _fits(ts: list[int]) -> bool:
    """Whether every timestamp fits in 64 bits."""
    return not ts or _INT64_MIN <= min(ts) and max(ts) <= _INT64_MAX


def _ints(texts: list[str]) -> list[int]:
    """int() of each text, each distinct text converted once: the cell and
    gain fields of a capture repeat a few texts."""
    values = {text: int(text) for text in set(texts)}
    return list(map(values.__getitem__, texts))


def _reasons(ts: object, code: int, gain: int, sat: object) -> list[str]:
    """What each check of `_value_fault` says of a frame that fails it."""
    return [
        f"code {code} outside signed 24-bit range",
        f"gain {gain} not one of {sorted(GAIN_CHANNELS)}",
        f"saturated flag must be {int(code in RAILS)} for code {code}, got {sat}",
        f"timestamp {ts} ms does not fit in 64 bits",
    ]


def _is_int64(column: Sequence[int]) -> bool:
    return isinstance(column, array) and column.typecode == "q"


def _values(column: Sequence[int]) -> list:
    """A column's values as a list, numpy's scalars made Python's."""
    return column if isinstance(column, list) else column.tolist()


class FrameBatch(FrozenRecord):
    """One station's wire frames as columns, one row per frame in input order.

    `station_id` is None for an empty batch. The other columns hold the
    `SensorFrameRecord` field of the same name as int64 (`array('q')`); a
    row's saturation is its code's (`codec.RAILS`). A batch built by hand
    may hold any columns of integers, numpy's included: `run_session`
    checks and converts them. A batch of `FrameIngestor` also holds its
    verdict, its rows grouped per cell, which `run_session` reduces in place
    of the columns.
    """

    station_id: str | None
    cell_index: Sequence[int]
    timestamp_ms: Sequence[int]
    adc_code: Sequence[int]
    gain: Sequence[int]

    __slots__ = ("_cells",)  # the ingestor's verdict, unset on a batch built by hand

    # A batch equals only itself: numpy columns do not compare to one bool.
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __len__(self) -> int:
        return len(self.cell_index)

    @classmethod
    def from_records(cls, records: Iterable[SensorFrameRecord], cell_count: int = 4) -> "FrameBatch":
        """The batch of `records`, checked by `_require_integers` and by
        `_checked` for a deck of `cell_count` cells."""
        return _records_checked(records, cell_count)[0]

    @classmethod
    def concat(cls, batches: Sequence["FrameBatch"]) -> "FrameBatch":
        """Rows of every batch in order: int64 columns of int64 columns,
        else lists of their values, for `run_session` to judge unless the
        ingestor's verdicts on the batches with rows join (`_joined`)."""
        if len(batches) == 1:
            return batches[0]
        columns = []
        for name in _COLUMNS:
            parts = [getattr(b, name) for b in batches]
            if all(map(_is_int64, parts)):
                columns.append(array("q"))
                for part in parts:
                    columns[-1].extend(part)
            else:
                columns.append([value for part in parts for value in _values(part)])
        verdicts = [getattr(b, "_cells", None) for b in batches if len(b)]
        return _judged(cls(_one_station(b.station_id for b in batches), *columns), _joined(verdicts) if verdicts else None)


def _records_checked(records: Iterable[SensorFrameRecord], cell_count: int) -> tuple[FrameBatch, list[list[int]]]:
    """`_checked`'s batch and columns of `records`, as `FrameBatch.from_records`
    checks them."""
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
    return _checked(FrameBatch(station, *columns), cell_count, records)


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


def _checked(
    batch: FrameBatch, cell_count: int, records: list[SensorFrameRecord] | None = None
) -> tuple[FrameBatch, list[list[int]]]:
    """`batch` with int64 columns, and those columns as lists of ints.
    Without `records` (whose fields `from_records` checked), a column that
    is not int64 already must hold integers (`_require_integers`). The first frame that fails a check of
    `_value_fault` is an InvalidValueError that names it: its row, or the
    record of `records` it came from, whose saturated flag is checked too.
    Then the first frame for a cell off a deck of `cell_count` cells, one
    beyond int64 included, is an IncompleteStationError that names the cell."""
    columns = [getattr(batch, c) for c in _COLUMNS]
    values = list(map(_values, columns))
    cell, ts, code, gain = values

    def row(i: int) -> SensorFrameRecord:
        return SensorFrameRecord(batch.station_id, cell[i], ts[i], code[i], gain[i], code[i] in RAILS)

    if records is None:
        _require_integers({n: v for n, v, c in zip(_COLUMNS, values, columns) if not _is_int64(c)}, row)
    flags = None if records is None else [bool(r.saturated) for r in records]
    if not (_values_pass(code, gain, flags) and (_is_int64(columns[1]) or _fits(ts))):
        for i, frame_values in enumerate(zip(ts, code, gain, flags or map(RAILS.__contains__, code))):
            if (check := _value_fault(*frame_values)) is not None:
                break
        frame = row(i) if records is None else records[i]
        reasons = _reasons(frame.timestamp_ms, frame.adc_code, frame.gain, frame.saturated)
        reasons[2] = f"saturated flag {frame.saturated} disagrees with code {frame.adc_code}"
        raise InvalidValueError(f"{reasons[check]}: {frame}")
    if cell and not (0 <= min(cell) and max(cell) < cell_count):
        off = next(c for c in cell if not 0 <= c < cell_count)
        raise IncompleteStationError(f"frame for cell {off} on a {cell_count}-cell station")
    if not all(map(_is_int64, columns)):
        batch = FrameBatch(batch.station_id, *(array("q", v) for v in values))
        values = [getattr(batch, c).tolist() for c in _COLUMNS]  # numpy integers made ints
    return batch, values


def _group(cell: Iterable[int], ts: Iterable[int], code: Iterable[int], cell_count: int) -> tuple[list, list]:
    """Per cell of a deck of `cell_count`, the timestamps and the codes of
    its rows in row order."""
    times: list[list[int]] = [[] for _ in range(cell_count)]
    codes: list[list[int]] = [[] for _ in range(cell_count)]
    add_time, add_code = [t.append for t in times], [c.append for c in codes]
    for c, t, k in zip(cell, ts, code):
        add_time[c](t)
        add_code[c](k)
    return times, codes


def _joined(verdicts: list[tuple | None]) -> tuple[list, list] | None:
    """The verdicts on consecutive batches as one; None when one is missing,
    their decks differ or a cell's times go back (batches of two ingestors)."""
    if (None in verdicts or len({len(v[0]) for v in verdicts}) > 1
            or any(a[-1] > b[0] for cell in zip(*(v[0] for v in verdicts)) for a, b in pairwise(filter(None, cell)))):
        return None
    return tuple([reduce(iadd, cell, []) for cell in zip(*parts)] for parts in zip(*verdicts))


def _judged(batch: FrameBatch, cells: tuple[list, list] | None) -> FrameBatch:
    object.__setattr__(batch, "_cells", cells)  # None: `run_session` judges the batch
    return batch


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
        self._last_ts = [_INT64_MIN] * cell_count

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
        ingested so far, its rows grouped per cell as its verdict; only a
        good chunk advances the state."""
        station = self.station_id or kept[0].partition(",")[0]
        columns, cells = self._in_bulk(kept, station) or self._line_by_line(kept, numbers, station)
        self.station_id, self._last_ts = station, [t[-1] if t else last for t, last in zip(cells[0], self._last_ts)]
        return _judged(FrameBatch(station, *(array("q", c) for c in columns)), cells)

    def _in_bulk(self, kept: list[str], station: str) -> tuple[list, tuple[list, list]] | None:
        """The cell, timestamp, code and gain columns of stripped wire lines,
        read a column at a time, and their rows grouped per cell (`_group`);
        None unless every line holds six fields of `station` and passes
        every check."""
        n = len(kept)
        # Joined by ",\n,", the lines split into seven fields each, the
        # seventh "\n", exactly when no line holds a "\n" and each holds six.
        text = ",\n,".join(kept)
        fields = text.split(",")
        if (not station or len(fields) != 7 * n - 1 or text.count("\n") != n - 1
                or fields[6::7] != ["\n"] * (n - 1) or fields[0::7].count(station) != n):
            return None
        try:
            cell, gain = _ints(fields[1::7]), _ints(fields[4::7])
            ts, code = list(map(int, fields[2::7])), list(map(int, fields[3::7]))
            flags = _ints(fields[5::7])
        except ValueError:
            return None
        if not (0 <= min(cell) and max(cell) < self.cell_count and _values_pass(code, gain, flags) and _fits(ts)):
            return None
        cells = _group(cell, ts, code, self.cell_count)
        # Time order: each cell's times non-decreasing from its last so far.
        if not all(not t or last <= t[0] and t == sorted(t) for t, last in zip(cells[0], self._last_ts)):
            return None
        return [cell, ts, code, gain], cells

    def _line_by_line(self, kept: list[str], numbers: list[int | None], station: str) -> tuple[list, tuple[list, list]]:
        """`_in_bulk`'s result, read one line at a time: the first line that
        fails a check raises its error."""
        rows, last = [], self._last_ts.copy()
        for line, line_no in zip(kept, numbers):
            fields = line.split(",")
            if len(fields) != 6:
                raise RecordParseError(f"expected 6 fields, got {len(fields)}", line_no)
            if not fields[0]:
                raise RecordParseError("empty station id", line_no)
            try:
                cell, ts, code, gain, flag = map(int, fields[1:])
            except ValueError:
                raise RecordParseError(f"non-numeric field in {line!r}", line_no) from None
            if not 0 <= cell < self.cell_count:
                raise RecordParseError(f"cell index {cell} outside 0-{self.cell_count - 1}", line_no)
            if (check := _value_fault(ts, code, gain, flag)) is not None:
                raise RecordParseError(_reasons(fields[2], code, gain, fields[5])[check], line_no)
            _one_station([station, fields[0]])
            if ts < last[cell]:
                raise SequencingError(
                    f"timestamp {ts} ms before {last[cell]} ms on"
                    f" station {station!r} cell {cell} (line {line_no})"
                )
            last[cell] = ts
            rows.append((cell, ts, code, gain))
        columns = list(zip(*rows))
        return columns, _group(*columns[:3], self.cell_count)


class _Masses:
    """A cell's codes as `code_to_mass` reads them, each converted when
    indexed, so a static weighing converts the codes of its window only."""

    def __init__(self, codes: list[int], cal: CalibrationState):
        self.codes, self.cal = codes, cal

    def __getitem__(self, i: int) -> float:
        return code_to_mass(self.codes[i], self.cal)


def _verdict(frames: FrameBatch | Iterable[SensorFrameRecord], cell_count: int) -> tuple[FrameBatch, tuple[list, list]]:
    """The batch of `frames` and its rows grouped per cell in time order:
    the ingestor's verdict on its own deck, else `_checked`'s (records:
    `_records_checked`) grouped here, ties in row order."""
    cells = getattr(frames, "_cells", None) if isinstance(frames, FrameBatch) else None
    if cells is not None and len(cells[0]) == cell_count:
        return frames, cells
    batch, (cell, ts, code, _) = (_checked if isinstance(frames, FrameBatch) else _records_checked)(frames, cell_count)
    order = sorted(range(len(ts)), key=ts.__getitem__)  # records and batches built by hand come in any order
    return batch, _group(*([column[i] for i in order] for column in (cell, ts, code)), cell_count)


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

    An ingested batch of a deck of that size is reduced as its ingestor
    judged it; other frames are judged here. Each cell's frames off the
    rails (`codec.RAILS`) are taken in timestamp order (ties in input
    order); a cell with none raises InsufficientSamplesError. A frame whose
    code, gain or timestamp no wire line could carry, or a record whose
    `saturated` flag disagrees with its code or whose numeric field is not
    an integer, is an InvalidValueError that names it; a cell off the deck,
    one beyond int64 included, is an IncompleteStationError. A cell's slope
    holds at its calibration's gain: a frame of another gain is a
    GainMismatchError naming the cell's first such gain in row order. The
    deck weighs one load at one moment: static mode averages every cell
    over the deck's last 15 s, (T - 15 s, T] for the deck's last timestamp
    T, and a cell with no frame off the rails there is an
    IncompleteStationError naming it; each cell's own frames must still
    span 15 s. WIM mode averages each cell's whole pass-over segment, and
    the cells' segments must overlap, else the same error names two cells.
    A tolerance rule with a reference mass (both or neither) and an axle
    configuration each add a compliance entry.
    """
    if mode not in MODES:
        raise InvalidValueError(f"mode must be one of {MODES}, got {mode!r}")
    cell_count = len(calibrations)
    if cell_count not in DECKS:
        raise InvalidValueError(f"cell count (one per calibration) must be one of {sorted(DECKS)}, got {cell_count}")
    check_tolerance_inputs(tolerance_rule, reference_kg)

    batch, cells = _verdict(frames, cell_count)
    missing = [i for i, times in enumerate(cells[0]) if not times]
    if len(missing) == cell_count:
        raise IncompleteStationError("no frames at all")
    if missing:
        raise IncompleteStationError(f"no frames for cell(s) {missing}")
    firsts, lasts = [t[0] for t in cells[0]], [t[-1] for t in cells[0]]
    started, ended = min(firsts), max(lasts)
    if mode == "wim" and min(lasts) < max(firsts):
        early, late = lasts.index(min(lasts)), firsts.index(max(firsts))
        raise IncompleteStationError(
            f"cell {early}'s frames end at {lasts[early]} ms, before cell {late}'s begin at {firsts[late]} ms"
        )

    # One count settles the usual capture: every frame at its calibrations' one gain.
    settled = len({c.gain for c in calibrations}) == 1 and batch.gain.count(calibrations[0].gain) == len(batch)
    cell_masses = []
    for i, (cal, times, codes) in enumerate(zip(calibrations, *cells)):
        rows = () if settled else zip(batch.cell_index, batch.gain)
        if (other := next((g for c, g in rows if c == i and g != cal.gain), None)) is not None:
            raise GainMismatchError(f"cell {i} has a frame of gain {other}, its calibration gain {cal.gain}")
        # A saturated frame is pinned at a rail and says nothing about the load.
        if CODE_MIN in codes or CODE_MAX in codes:
            loaded = [c not in RAILS for c in codes]
            times, codes = list(compress(times, loaded)), list(compress(codes, loaded))
        if not codes:
            raise InsufficientSamplesError(f"every frame of cell {i} is saturated")
        if mode == "wim":
            cell_masses.append(mean([code_to_mass(c, cal) for c in codes]))
        elif times[-1] / 1000.0 <= ended / 1000.0 - STATIC_WINDOW_S:
            raise IncompleteStationError(
                f"cell {i} has no frame in the deck's last {STATIC_WINDOW_S:g} s:"
                f" its last at {times[-1]} ms, the deck's at {ended} ms"
            )
        else:
            cell_masses.append(static_weigh(times, _Masses(codes, cal), key=lambda t: t / 1000.0, end=ended))

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
        started_at_ms=started,
        ended_at_ms=ended,
        mode=mode,
        cell_masses_kg=tuple(cell_masses),
        geometry=geometry,
        policy=policy,
        assessment=assessment,
        calibration_fingerprint="+".join(c.fingerprint() for c in calibrations),
        compliance=tuple(compliance_entries),
    )
