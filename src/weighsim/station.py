"""Station operations: frame ingestion and weigh sessions.

Wire format is one ADC frame per line, ASCII, comma-separated:

    station_id,cell_index,timestamp_ms,adc_code,gain,saturated

`station_id` is any non-empty comma-free token, `cell_index` counts from
0 (FL, FR, RL, RR on a four-cell station; left, right in two-cell mode),
`gain` is one of 128/64/32, and `saturated` is 1 exactly when `adc_code`
is on a rail (`sensor.RAILS`) and 0 otherwise: any other value is a parse
error. Timestamps are signed 64-bit and must be non-decreasing per cell.

One weighing is one vehicle on one deck, so a `FrameBatch` holds one
station's frames: its `station_id` and a numpy column per other wire
field but `saturated`, which the code implies, one row per frame in input
order. `FrameIngestor.ingest_lines` parses any iterable of lines (an open
file included) in the chunks of `codec.chunks`, so the strings of one
chunk at a time are alive. Each chunk is stripped of blank lines and
surrounding whitespace, then taken in bulk: numpy's text reader parses
its numeric columns and array checks cover the rest. Any chunk it refuses
is parsed line by line, which either raises the error of the first line
that fails to parse (RecordParseError), is of a second station
(IncompleteStationError) or goes back in time on its cell
(SequencingError), or returns the same rows, whatever the chunk size. So
the result depends on neither parser's quirks. `run_session` reduces each
cell's column slice: code→mass, then the static-window or WIM mean.

Records, their JSON codec and the record store live in `weighsim.record`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

# code_to_mass, RecordStore and assessment_line are unused here but stay module
# attributes: callers, the benchmark among them, look them up on this module.
from .calibration import CalibrationState, code_to_mass, codes_to_kg  # noqa: F401
from .codec import chunks, numbered
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
from .errors import InvalidValueError, SequencingError, require_positive
from .record import RecordStore, WeighRecord, assessment_line, to_json  # noqa: F401
from .sensor import CODE_MAX, CODE_MIN, GAIN_CHANNELS, RAILS

MODES = ("static", "wim")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_GAINS = np.array(sorted(GAIN_CHANNELS), dtype=np.int64)
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
    """Parse one wire line; every failure is a RecordParseError with the line number."""
    fields = line.strip().split(",")
    if len(fields) != 6:
        raise RecordParseError(f"expected 6 fields, got {len(fields)}", line_no)
    station_id, cell_s, ts_s, code_s, gain_s, sat_s = fields
    if not station_id:
        raise RecordParseError("empty station id", line_no)
    try:
        cell = int(cell_s)
        ts = int(ts_s)
        code = int(code_s)
        gain = int(gain_s)
        sat = int(sat_s)
    except ValueError:
        raise RecordParseError(f"non-numeric field in {line.strip()!r}", line_no) from None
    if not 0 <= cell < cell_count:
        raise RecordParseError(f"cell index {cell} outside 0-{cell_count - 1}", line_no)
    if not CODE_MIN <= code <= CODE_MAX:
        raise RecordParseError(f"code {code} outside signed 24-bit range", line_no)
    if gain not in GAIN_CHANNELS:
        raise RecordParseError(f"gain {gain} not one of {sorted(GAIN_CHANNELS)}", line_no)
    if sat != (on_rail := code in RAILS):
        raise RecordParseError(f"saturated flag must be {int(on_rail)} for code {code}, got {sat_s}", line_no)
    if not _INT64_MIN <= ts <= _INT64_MAX:
        raise RecordParseError(f"timestamp {ts_s} ms does not fit in 64 bits", line_no)
    return SensorFrameRecord(station_id, cell, ts, code, gain, bool(sat))


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """One station's wire frames as columns, one row per frame in input order.

    `station_id` is None for an empty batch. The other columns hold the
    `SensorFrameRecord` field of the same name, int64; a row's saturation
    is its code's (`sensor.RAILS`).
    """

    station_id: str | None
    cell_index: np.ndarray
    timestamp_ms: np.ndarray
    adc_code: np.ndarray
    gain: np.ndarray

    def __len__(self) -> int:
        return len(self.cell_index)

    @classmethod
    def from_records(cls, records: Iterable[SensorFrameRecord]) -> "FrameBatch":
        """The batch of `records`; InvalidValueError when a `saturated` flag disagrees with its code."""
        records = list(records)
        batch = cls(
            _one_station(r.station_id for r in records),
            *(np.array([getattr(r, c) for r in records], np.int64) for c in _COLUMNS),
        )
        wrong = np.array([r.saturated for r in records], bool) != np.isin(batch.adc_code, RAILS)
        if wrong.any():
            rec = records[int(wrong.argmax())]
            raise InvalidValueError(f"saturated flag {rec.saturated} disagrees with code {rec.adc_code}: {rec}")
        return batch

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
                batch = self._good_chunk(kept)
                batches.append(self._line_by_line(kept, numbers) if batch is None else batch)
        return FrameBatch.concat(batches) if batches else FrameBatch.from_records(())

    def _good_chunk(self, kept: list[str]) -> FrameBatch | None:
        """The batch of stripped non-blank wire lines, taken in bulk after the
        frames ingested so far, or None when the bulk path cannot vouch for
        every line: it then parsed none, and `_line_by_line` must. Only a
        good chunk advances the state."""
        n = len(kept)
        text = "\n".join(kept)
        station = self.station_id or kept[0].partition(",")[0]
        # numpy's reader takes some non-ASCII letters for digits. It refuses
        # a line of fewer than 6 fields, so 5 commas per line on average are
        # 5 on every line.
        if (
            not station
            or not text.isascii()
            or any(c in text for c in _NOT_IN_BULK)
            or text.count("\n") != n - 1
            or text.count(",") != 5 * n
            or not text.startswith(station + ",")
            or text.count("\n" + station + ",") != n - 1
        ):
            return None
        try:
            with warnings.catch_warnings():
                # numpy < 2 reads "1.0" as 1 with a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(
                    kept, np.int64, delimiter=",", usecols=range(1, 6), comments=None, ndmin=2
                )
        except (ValueError, DeprecationWarning):
            return None
        cell, ts, code, gain, sat = np.ascontiguousarray(table.T)
        bad = (
            (cell < 0)
            | (cell >= self.cell_count)
            | (code < CODE_MIN)
            | (code > CODE_MAX)
            | ~np.isin(gain, _GAINS)
            | (sat != np.isin(code, RAILS))
        )
        if bad.any():
            return None
        last_ts = self._last_ts.copy()
        for c in range(self.cell_count):
            t = np.append(last_ts[c], ts[cell == c])  # the cell's last timestamp, then the chunk's
            if (t[1:] < t[:-1]).any():
                return None
            last_ts[c] = t[-1]
        self.station_id, self._last_ts = station, last_ts
        return FrameBatch(station, cell, ts, code, gain)

    def _line_by_line(self, kept: list[str], numbers: list[int]) -> FrameBatch:
        """The batch of a chunk `_good_chunk` refused, read as the module
        docstring says: each line in turn is parsed, then checked for its
        station, then for its cell's time order, and the first that fails
        raises. A chunk whose every line passes advances the state."""
        station, last_ts, frames = self.station_id, self._last_ts.tolist(), []
        for text, line_no in zip(kept, numbers):
            frame = parse_frame_line(text, line_no, self.cell_count)
            station = _one_station([station, frame.station_id])
            cell, ts = frame.cell_index, frame.timestamp_ms
            if ts < last_ts[cell]:
                raise SequencingError(
                    f"timestamp {ts} ms before {last_ts[cell]} ms on"
                    f" station {station!r} cell {cell} (line {line_no})"
                )
            last_ts[cell] = ts
            frames.append(frame)
        self.station_id, self._last_ts = station, np.array(last_ts, np.int64)
        return FrameBatch.from_records(frames)


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

    Each cell's frames off the rails (`sensor.RAILS`) are taken in
    timestamp order (ties in input order); a cell with none raises
    InsufficientSamplesError. A record whose `saturated` flag disagrees
    with its code is an InvalidValueError.
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

    batch = frames if isinstance(frames, FrameBatch) else FrameBatch.from_records(frames)
    cell = batch.cell_index
    outside = (cell < 0) | (cell >= cell_count)
    if outside.any():
        raise IncompleteStationError(
            f"frame for cell {cell[outside.argmax()]} on a {cell_count}-cell station"
        )
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
