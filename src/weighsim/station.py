"""Station operations: frame ingestion and weigh sessions.

Wire format is one ADC frame per line, ASCII, comma-separated:

    station_id,cell_index,timestamp_ms,adc_code,gain,saturated

`station_id` is any non-empty comma-free token, `cell_index` counts from
0 (FL, FR, RL, RR on a four-cell station; left, right in two-cell mode),
`gain` is one of 128/64/32, and `saturated` is 1 exactly when `adc_code`
is on a rail (`codec.RAILS`) and 0 otherwise: any other value is a parse
error. Timestamps are signed 64-bit and must be non-decreasing per cell.

One weighing is one vehicle on one deck, so a `FrameBatch` holds one
station's judged frames: its `station_id` and, per cell of the deck, the
timestamps, codes and gains of the cell's frames in time order (ties in
input order). One judge, `_judge`, checks integer columns of frames and
groups them per cell. `FrameIngestor.ingest_lines` parses any iterable of
lines (an open file included) in the chunks of `codec.chunks`, so the
strings of one chunk at a time are alive. Each chunk is stripped of blank
lines and surrounding whitespace and read by `str.split` and `int()`: in
bulk, all its fields split at once and a column at a time converted and
judged, when every line holds six fields of one station and no line
break and every check passes; else line by line, which finds the first
line that fails and its first failing check of: field count, empty
station, line break, non-numeric field, cell, code, gain, flag, timestamp
width (RecordParseError), a second station (IncompleteStationError), time
order on its cell (SequencingError). So neither the reading nor the chunk
size changes a result. `run_session` judges `SensorFrameRecord`s by the
same judge, sorted stably by timestamp, and reduces a batch's cells:
code→mass by `calibration.code_to_mass` of the static window's codes (in
integer ms) or the WIM segment's, then their mean in float64, as numpy's
`mean` adds (`compliance.mean`). No numpy is loaded here.

Records, their JSON codec and the record store live in `weighsim.record`.
"""

from __future__ import annotations

import os
from itertools import chain, compress, pairwise, zip_longest
from operator import itemgetter
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
    static_window,
    within_gvw_limit,
)
from .errors import GainMismatchError, IncompleteStationError, InsufficientDurationError, InsufficientSamplesError
from .errors import InvalidValueError, RecordParseError, SequencingError, is_integer, require_positive
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


def format_frame_line(rec: SensorFrameRecord) -> str:
    return (
        f"{rec.station_id},{rec.cell_index},{rec.timestamp_ms},"
        f"{rec.adc_code},{rec.gain},{int(rec.saturated)}"
    )


def parse_frame_line(line: str, line_no: int | None = None, cell_count: int = 4) -> SensorFrameRecord:
    """The frame of one wire line, judged as `FrameIngestor` judges it alone:
    every failure is a RecordParseError with the line number."""
    line = line.strip()
    station = line.partition(",")[0]
    ((cell, ts, code, gain),) = FrameIngestor(cell_count)._line_by_line([line], [line_no], station)
    return SensorFrameRecord(station, cell, ts, code, gain, code in RAILS)


def _value_fault(ts: int, code: int, gain: int, flag: object) -> int | None:
    """The index in `_reasons` of the first check of a frame's values that
    fails, in the order a wire line reports them after its cell: code
    range, gain, saturated flag (`flag` must equal whether the code is on a
    rail), timestamp width; None when every check passes."""
    passed = (CODE_MIN <= code <= CODE_MAX, gain in GAIN_CHANNELS, flag == (code in RAILS), _INT64_MIN <= ts <= _INT64_MAX)
    return passed.index(False) if False in passed else None


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


def _group(cell: Iterable[int], ts: Iterable[int], code: Iterable[int], gain: Iterable[int], cell_count: int) -> tuple:
    """Per cell of a deck of `cell_count`, the timestamps, codes and gains
    of its rows in row order."""
    columns = [[[] for _ in range(cell_count)] for _ in range(3)]
    add_time, add_code, add_gain = ([c.append for c in column] for column in columns)
    for c, t, k, g in zip(cell, ts, code, gain):
        add_time[c](t)
        add_code[c](k)
        add_gain[c](g)
    return tuple(tuple(map(tuple, column)) for column in columns)


def _judge(cell: list[int], ts: list[int], code: list[int], gain: list[int], flags: list, last_ts: list[int]) -> tuple | None:
    """The rows of integer columns grouped per cell (`_group`) of a deck of
    one cell per `last_ts`, each cell's last timestamp so far; None unless
    every row passes the checks of a wire line, judged a column at a time:
    cell, code, gain, saturated flag, timestamp width, and each cell's times
    non-decreasing from its last. Flags of 0 and 1 are the codes' own when
    each flagged code is on a rail and as many codes as flags are: counts,
    not a comparison a row at a time."""
    low, high = min(code, default=0), max(code, default=0)
    rails = (code.count(CODE_MIN) if low == CODE_MIN else 0) + (code.count(CODE_MAX) if high == CODE_MAX else 0)
    if not (0 <= min(cell, default=0) and max(cell, default=0) < len(last_ts)
            and CODE_MIN <= low and high <= CODE_MAX and set(gain) <= GAIN_CHANNELS.keys()
            and flags.count(0) + flags.count(1) == len(flags)
            and sum(flags) == rails and set(compress(code, flags)) <= set(RAILS)
            and _INT64_MIN <= min(ts, default=0) and max(ts, default=0) <= _INT64_MAX):
        return None
    cells = _group(cell, ts, code, gain, len(last_ts))
    return cells if all(not t or last <= t[0] and list(t) == sorted(t) for t, last in zip(cells[0], last_ts)) else None


class FrameBatch(FrozenRecord):
    """One station's judged wire frames as per-cell columns.

    `station_id` is None for an empty batch. `times`, `codes` and `gains`
    hold, per cell of the deck, the timestamps, codes and gains of the
    cell's frames in time order, ties in input order; a frame's saturation
    is its code's (`codec.RAILS`). `FrameIngestor` builds batches, and
    `run_session` reduces one as it is.
    """

    station_id: str | None
    times: tuple[tuple[int, ...], ...]
    codes: tuple[tuple[int, ...], ...]
    gains: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return sum(map(len, self.times))

    @classmethod
    def concat(cls, batches: Sequence[FrameBatch]) -> FrameBatch:
        """The frames of `batches` in order: each cell's columns extended,
        and stably sorted by time where its times go back across batches
        (those of two ingestors, each of which checked its own order only)."""
        if len(batches) == 1:
            return batches[0]
        cells = []
        for parts in zip_longest(*(zip(b.times, b.codes, b.gains) for b in batches), fillvalue=((), (), ())):
            cell = [tuple(chain.from_iterable(column)) for column in zip(*parts)]
            if any(a[-1] > b[0] for a, b in pairwise(filter(None, (times for times, _, _ in parts)))):
                cell = list(zip(*sorted(zip(*cell), key=itemgetter(0))))
            cells.append(cell)
        return cls(_one_station(b.station_id for b in batches), *zip(*cells))


def _one_station(ids: Iterable[str | None]) -> str | None:
    """The one station id among `ids` (None when there is none);
    IncompleteStationError when there are several."""
    names = set(ids) - {None}
    if len(names) > 1:
        raise IncompleteStationError(f"frames span multiple stations: {sorted(names)}")
    return next(iter(names), None)


def _require_integers(columns: dict[str, list], frame: Callable[[int], SensorFrameRecord]) -> list[list[int]]:
    """The columns as lists of ints, numpy integers made ints. A value that
    is not an int or a numpy integer (a bool, a str or a float, even an
    integral one) raises InvalidValueError("<field> <value!r> is not an
    integer: <frame(i)>") for the first row i, fields in `columns` order."""
    if not {*map(type, chain(*columns.values()))} - {int}:
        return list(columns.values())
    for i, row in enumerate(zip(*columns.values())):
        for name, value in zip(columns, row):
            if not is_integer(value):
                raise InvalidValueError(f"{name} {value!r} is not an integer: {frame(i)}")
    return [list(map(int, column)) for column in columns.values()]


def _records_batch(records: Iterable[SensorFrameRecord], cell_count: int) -> FrameBatch:
    """The batch of `records` on a deck of `cell_count` cells: their fields
    made ints (`_require_integers`), their columns sorted stably by
    timestamp and judged (`_judge`). A refusal raises the error of the first
    record that fails a check of a wire line, in its order, naming it: a
    cell off the deck, then `_value_fault`'s."""
    records = list(records)
    station = _one_station([r.station_id for r in records])
    # Plain attribute reads, which the interpreter specializes: twice as
    # fast as getattr, and that saving pays for the type scan.
    columns = _require_integers(
        {
            "cell_index": [r.cell_index for r in records],
            "timestamp_ms": [r.timestamp_ms for r in records],
            "adc_code": [r.adc_code for r in records],
            "gain": [r.gain for r in records],
        },
        records.__getitem__,
    )
    columns.append([r.saturated for r in records])
    order = sorted(range(len(records)), key=columns[1].__getitem__)
    cells = _judge(*([column[i] for i in order] for column in columns), [_INT64_MIN] * cell_count)
    if cells is None:
        for rec in records:
            values = rec.timestamp_ms, rec.adc_code, rec.gain, rec.saturated
            if not 0 <= rec.cell_index < cell_count:
                raise IncompleteStationError(f"frame for cell {rec.cell_index} on a {cell_count}-cell station")
            if (check := _value_fault(*values)) is not None:
                raise InvalidValueError(f"{_reasons(*values)[check]}: {rec}")
    return FrameBatch(station, *cells)


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
        return FrameBatch.concat(batches) if batches else FrameBatch(None, *_group((), (), (), (), self.cell_count))

    def _chunk(self, kept: list[str], numbers: list[int | None]) -> FrameBatch:
        """The batch of stripped non-blank wire lines, judged after the frames
        ingested so far; only a good chunk advances the state."""
        station = self.station_id or kept[0].partition(",")[0]
        cells = self._in_bulk(kept, station) or _group(*zip(*self._line_by_line(kept, numbers, station)), self.cell_count)
        self.station_id, self._last_ts = station, [t[-1] if t else last for t, last in zip(cells[0], self._last_ts)]
        return FrameBatch(station, *cells)

    def _in_bulk(self, kept: list[str], station: str) -> tuple | None:
        """The per-cell columns of stripped wire lines, read a column at a
        time and judged (`_judge`); None unless every line holds six fields
        of `station` and no line break, and passes every check."""
        n = len(kept)
        # Joined by ",\n,", the lines split into seven fields each, the
        # seventh "\n", exactly when no line holds a "\n" and each holds six.
        text = ",\n,".join(kept)
        fields = text.split(",")
        if (not station or len(fields) != 7 * n - 1 or text.count("\n") != n - 1 or "\r" in text
                or fields[6::7] != ["\n"] * (n - 1) or fields[0::7].count(station) != n):
            return None
        try:
            cell, gain = _ints(fields[1::7]), _ints(fields[4::7])
            ts, code = list(map(int, fields[2::7])), list(map(int, fields[3::7]))
            flags = _ints(fields[5::7])
        except ValueError:
            return None
        return _judge(cell, ts, code, gain, flags, self._last_ts)

    def _line_by_line(self, kept: list[str], numbers: list[int | None], station: str) -> list[tuple[int, int, int, int]]:
        """The (cell, timestamp, code, gain) rows of `_in_bulk`'s lines, read
        one line at a time: the first line that fails a check raises its
        error."""
        rows, last = [], self._last_ts.copy()
        for line, line_no in zip(kept, numbers):
            fields = line.split(",")
            if len(fields) != 6:
                raise RecordParseError(f"expected 6 fields, got {len(fields)}", line_no)
            if not fields[0]:
                raise RecordParseError("empty station id", line_no)
            if "\n" in line or "\r" in line:
                raise RecordParseError(f"line break in {line!r}", line_no)
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
        return rows


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

    A batch is reduced as its ingestor judged it; records are judged here
    by the wire reader's judge (see the module docstring). Each cell's
    frames off the rails (`codec.RAILS`) are taken in timestamp order (ties
    in input order); a cell with none raises InsufficientSamplesError. A
    record whose code, gain or timestamp no wire line could carry, whose
    `saturated` flag disagrees with its code or whose numeric field is not
    an integer is an InvalidValueError that names it; a record or a batch's
    frame for a cell off the deck, one beyond int64 included, is an
    IncompleteStationError. A cell's slope holds at its calibration's gain:
    a frame of another gain is a GainMismatchError naming the cell's first
    such gain in time order. The deck weighs one load at one moment: static
    mode averages every cell over the deck's last 15 s, (T - 15 s, T] in
    integer ms for the deck's last timestamp T; a cell with no frame off
    the rails there is an IncompleteStationError naming it, and one whose
    own frames span under 15 s an InsufficientDurationError naming it.
    WIM mode averages each cell's whole pass-over segment, and the cells'
    segments must overlap, else an IncompleteStationError names two cells.
    A tolerance rule with a reference mass (both or neither) and an axle
    configuration each add a compliance entry.
    """
    if mode not in MODES:
        raise InvalidValueError(f"mode must be one of {MODES}, got {mode!r}")
    cell_count = len(calibrations)
    if cell_count not in DECKS:
        raise InvalidValueError(f"cell count (one per calibration) must be one of {sorted(DECKS)}, got {cell_count}")
    check_tolerance_inputs(tolerance_rule, reference_kg)

    batch = frames if isinstance(frames, FrameBatch) else _records_batch(frames, cell_count)
    # A batch of another deck: a frame for a cell off this one, else the cells it lacks.
    spans = (*batch.times, *[()] * cell_count)
    if off := [i for i in range(cell_count, len(batch.times)) if spans[i]]:
        raise IncompleteStationError(f"frame for cell {off[0]} on a {cell_count}-cell station")
    missing = [i for i in range(cell_count) if not spans[i]]
    if len(missing) == cell_count:
        raise IncompleteStationError("no frames at all")
    if missing:
        raise IncompleteStationError(f"no frames for cell(s) {missing}")
    firsts, lasts = [t[0] for t in spans[:cell_count]], [t[-1] for t in spans[:cell_count]]
    started, ended = min(firsts), max(lasts)
    if mode == "wim" and min(lasts) < max(firsts):
        early, late = lasts.index(min(lasts)), firsts.index(max(firsts))
        raise IncompleteStationError(
            f"cell {early}'s frames end at {lasts[early]} ms, before cell {late}'s begin at {firsts[late]} ms"
        )

    cell_masses = []
    for i, (cal, times, codes, gains) in enumerate(zip(calibrations, batch.times, batch.codes, batch.gains)):
        if gains.count(cal.gain) != len(gains):
            other = next(g for g in gains if g != cal.gain)
            raise GainMismatchError(f"cell {i} has a frame of gain {other}, its calibration gain {cal.gain}")
        # A saturated frame is pinned at a rail and says nothing about the load.
        if CODE_MIN in codes or CODE_MAX in codes:
            loaded = [c not in RAILS for c in codes]
            times, codes = list(compress(times, loaded)), list(compress(codes, loaded))
        if not codes:
            raise InsufficientSamplesError(f"every frame of cell {i} is saturated")
        try:
            start = static_window(times, STATIC_WINDOW_S * 1000, ended) if mode == "static" else 0
        except IncompleteStationError:
            raise IncompleteStationError(
                f"cell {i} has no frame in the deck's last {STATIC_WINDOW_S:g} s:"
                f" its last at {times[-1]} ms, the deck's at {ended} ms"
            ) from None
        except InsufficientDurationError:
            raise InsufficientDurationError(
                f"cell {i}'s frames span {times[-1] - times[0]} ms, static weighing needs {STATIC_WINDOW_S * 1000:g} ms"
            ) from None
        cell_masses.append(mean([code_to_mass(c, cal) for c in codes[start:]]))

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
