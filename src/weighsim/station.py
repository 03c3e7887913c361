"""Station operations: frame ingestion and weigh sessions.

Wire format is one ADC frame per line, ASCII, comma-separated:

    station_id,cell_index,timestamp_ms,adc_code,gain,saturated

`station_id` is any non-empty comma-free token, `cell_index` counts from
0 (FL, FR, RL, RR on a four-cell station; left, right in two-cell mode),
`gain` is one of 128/64/32 and `saturated` is 0 or 1. Timestamps are
signed 64-bit and must be non-decreasing per (station, cell); the
ingestor rejects regressions with a SequencingError.

Frames travel as a `FrameBatch`: one numpy column per wire field, one row
per frame in input order. `FrameIngestor.ingest_lines` parses any
iterable of lines (an open file included) in chunks of `CHUNK_LINES`, so
the per-line strings of one chunk at a time are alive. The first failing
line in input order raises, with the message `parse_frame_line` gives
for that line alone. `run_session` reduces each cell's column slice:
code→mass, then the static-window or WIM mean.

Records, their JSON codec and the record store live in `weighsim.record`.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, fields
from itertools import islice, repeat
from typing import Iterable, Sequence

import numpy as np

# code_to_mass, RecordStore and assessment_line are unused here but stay module
# attributes: callers, the benchmark among them, look them up on this module.
from .calibration import CalibrationState, code_to_mass, codes_to_kg  # noqa: F401
from .cog import DECKS, AlertPolicy, DeckGeometry, assess
from .compliance import (
    AxleConfiguration,
    ToleranceRule,
    check_compliance,
    static_weigh,
    wim_weigh,
    within_gvw_limit,
)
from .errors import IncompleteStationError, RecordParseError, SequencingError
from .record import RecordStore, WeighRecord, assessment_line, to_json  # noqa: F401
from .sensor import CODE_MAX, CODE_MIN, GAIN_CHANNELS

MODES = ("static", "wim")

#: Wire lines parsed per chunk. It bounds the per-line Python objects
#: alive at once while keeping numpy's per-call cost small per line.
CHUNK_LINES = 4096

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_GAINS = np.array(sorted(GAIN_CHANNELS), dtype=np.int64)


@dataclass(frozen=True)
class SensorFrameRecord:
    """One wire-format frame."""

    station_id: str
    cell_index: int
    timestamp_ms: int
    adc_code: int
    gain: int = 128
    saturated: bool = False


#: The `FrameBatch` columns that hold a `SensorFrameRecord` field as is.
_COLUMNS = tuple(f.name for f in fields(SensorFrameRecord)[1:])


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
    if sat not in (0, 1):
        raise RecordParseError(f"saturated flag must be 0 or 1, got {sat_s}", line_no)
    if not _INT64_MIN <= ts <= _INT64_MAX:
        raise RecordParseError(f"timestamp {ts_s} ms does not fit in 64 bits", line_no)
    return SensorFrameRecord(station_id, cell, ts, code, gain, bool(sat))


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """Wire frames as columns, one row per frame in input order.

    `station` indexes `station_ids`; the other columns hold the
    `SensorFrameRecord` field of the same name, int64 (bool for
    `saturated`).
    """

    station_ids: tuple[str, ...]
    station: np.ndarray
    cell_index: np.ndarray
    timestamp_ms: np.ndarray
    adc_code: np.ndarray
    gain: np.ndarray
    saturated: np.ndarray

    def __len__(self) -> int:
        return len(self.station)

    @classmethod
    def from_columns(cls, stations: Sequence[str], *columns: np.ndarray) -> "FrameBatch":
        """Batch from per-row station ids and the other five columns in field order."""
        ids = tuple(dict.fromkeys(stations))
        if len(ids) > 1:
            index = {s: i for i, s in enumerate(ids)}
            station = np.fromiter(map(index.__getitem__, stations), np.int64, len(stations))
        else:
            station = np.zeros(len(stations), np.int64)
        cell_index, timestamp_ms, adc_code, gain, saturated = columns
        return cls(ids, station, cell_index, timestamp_ms, adc_code, gain, saturated.astype(bool))

    @classmethod
    def from_records(cls, records: Iterable[SensorFrameRecord]) -> "FrameBatch":
        records = list(records)
        return cls.from_columns(
            [r.station_id for r in records],
            *(np.array([getattr(r, c) for r in records], np.int64) for c in _COLUMNS),
        )

    @classmethod
    def concat(cls, batches: Sequence["FrameBatch"]) -> "FrameBatch":
        """Rows of every batch in order, station ids merged by name."""
        if len(batches) == 1:
            return batches[0]
        ids = tuple(dict.fromkeys(s for b in batches for s in b.station_ids))
        index = {s: i for i, s in enumerate(ids)}
        station = [
            np.array([index[s] for s in b.station_ids], np.int64)[b.station] for b in batches
        ]
        return cls(
            ids,
            np.concatenate(station),
            *(np.concatenate([getattr(b, c) for b in batches]) for c in _COLUMNS),
        )


class FrameIngestor:
    """Stateful wire parser enforcing per-(station, cell) time order.

    The order state persists across calls, so the files of one session
    are ingested one after another into the same ingestor.
    """

    def __init__(self, cell_count: int = 4):
        self.cell_count = cell_count
        self._last_ts: dict[tuple[str, int], int] = {}

    def ingest_lines(self, lines: Iterable[str], start: int | None = 1) -> FrameBatch:
        """Parse and order-check `lines` (any iterable, e.g. an open file).

        Blank lines are skipped. Lines are numbered from `start` (None: no
        numbers in errors). The first failing line in input order raises:
        RecordParseError with `parse_frame_line`'s message, or
        SequencingError on a timestamp regression.
        """
        it = iter(lines)
        batches = []
        offset = 0
        while chunk := list(islice(it, CHUNK_LINES)):
            batches.append(self._ingest_chunk(chunk, None if start is None else start + offset))
            offset += len(chunk)
        return FrameBatch.concat(batches) if batches else FrameBatch.from_records(())

    def _ingest_chunk(self, lines: list[str], first_no: int | None) -> FrameBatch:
        stripped = list(map(str.strip, lines))
        kept = list(filter(None, stripped))
        batch = self._columns(kept)
        if batch is None:
            # A line fails a parse check; a time-order error before it comes first.
            numbers = _line_numbers(stripped, first_no)
            for j, text in enumerate(kept):
                try:
                    parse_frame_line(text, numbers[j], self.cell_count)
                except RecordParseError:
                    self._check_order(self._columns(kept[:j]), stripped, first_no)
                    raise
            raise AssertionError("chunk rejected although every line parses")
        self._check_order(batch, stripped, first_no)
        return batch

    def _columns(self, kept: list[str]) -> FrameBatch | None:
        """Batch of stripped non-blank wire lines, or None when any line
        fails a check of `parse_frame_line`."""
        n = len(kept)
        if not n:
            return FrameBatch.from_records(())
        if set(map(str.count, kept, repeat(","))) != {5}:
            return None
        fields = ",".join(kept).split(",")
        stations = fields[0::6]
        if "" in stations:
            return None
        del fields[0::6]
        try:
            table = np.fromiter(map(int, fields), np.int64, 5 * n)
        except (ValueError, OverflowError):
            return None
        cell, ts, code, gain, sat = np.ascontiguousarray(table.reshape(n, 5).T)
        bad = (
            (cell < 0)
            | (cell >= self.cell_count)
            | (code < CODE_MIN)
            | (code > CODE_MAX)
            | ~np.isin(gain, _GAINS)
            | (sat < 0)
            | (sat > 1)
        )
        if bad.any():
            return None
        return FrameBatch.from_columns(stations, cell, ts, code, gain, sat)

    def _check_order(self, batch: FrameBatch, stripped: list[str], first_no: int | None) -> None:
        """Raise on the first row whose timestamp precedes the last of its
        (station, cell) stream; otherwise advance every stream's last."""
        n = len(batch)
        if not n:
            return
        key = batch.station * self.cell_count + batch.cell_index
        order = np.argsort(key, kind="stable")
        key, ts = key[order], batch.timestamp_ms[order]
        first = np.ones(n, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        streams = [
            (batch.station_ids[k // self.cell_count], k % self.cell_count)
            for k in key[starts].tolist()
        ]
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = ts[:-1]
        has_prev = ~first
        for s, stream in zip(starts.tolist(), streams):
            if stream in self._last_ts:
                prev[s] = self._last_ts[stream]
                has_prev[s] = True
        bad = np.flatnonzero(has_prev & (ts < prev))
        if bad.size:
            pos = bad[np.argmin(order[bad])]
            station_id, cell = streams[np.searchsorted(starts, pos, side="right") - 1]
            line_no = _line_numbers(stripped, first_no)[order[pos]]
            raise SequencingError(
                f"timestamp {ts[pos]} ms before {prev[pos]} ms on"
                f" station {station_id!r} cell {cell}"
                + (f" (line {line_no})" if line_no is not None else "")
            )
        ends = np.append(starts[1:], n) - 1
        for stream, last in zip(streams, ts[ends].tolist()):
            self._last_ts[stream] = last


def _line_numbers(stripped: list[str], first_no: int | None) -> list[int | None]:
    """Line number of each non-blank line of a chunk whose first line is `first_no`."""
    return [None if first_no is None else first_no + k for k, s in enumerate(stripped) if s]


def run_session(
    frames: FrameBatch | Iterable[SensorFrameRecord],
    calibrations: Sequence[CalibrationState],
    mode: str,
    policy: AlertPolicy,
    geometry: DeckGeometry,
    tolerance_rule: ToleranceRule | None = None,
    reference_kg: float | None = None,
    axle_config: AxleConfiguration | None = None,
    cell_count: int = 4,
) -> WeighRecord:
    """Weigh one vehicle from its closed per-cell frame streams.

    Each cell's frames are taken in timestamp order (ties in input order).
    Static mode averages the trailing 15 s window per cell (and therefore
    needs at least that much data); WIM mode averages each cell's whole
    pass-over segment. Compliance entries are appended when a tolerance
    rule + reference mass and/or an axle configuration are provided.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if cell_count not in DECKS:
        raise ValueError(f"cell count must be one of {sorted(DECKS)}, got {cell_count}")
    if len(calibrations) != cell_count:
        raise ValueError(f"need {cell_count} calibrations, got {len(calibrations)}")

    batch = frames if isinstance(frames, FrameBatch) else FrameBatch.from_records(frames)
    cell = batch.cell_index
    outside = (cell < 0) | (cell >= cell_count)
    if outside.any():
        raise IncompleteStationError(
            f"frame for cell {cell[outside.argmax()]} on a {cell_count}-cell station"
        )
    if not len(batch):
        raise IncompleteStationError("no frames at all")
    if batch.station.min() != batch.station.max():
        names = sorted({batch.station_ids[i] for i in np.unique(batch.station)})
        raise IncompleteStationError(f"frames span multiple stations: {names}")
    counts = np.bincount(cell, minlength=cell_count).tolist()
    missing = [i for i, c in enumerate(counts) if not c]
    if missing:
        raise IncompleteStationError(f"no frames for cell(s) {missing}")

    order = np.lexsort((batch.timestamp_ms, cell))
    times_s = batch.timestamp_ms[order] / 1000.0
    codes = batch.adc_code[order]
    cell_masses = []
    lo = 0
    for cal, count in zip(calibrations, counts):
        hi = lo + count
        masses = codes_to_kg(codes[lo:hi], cal)
        if mode == "static":
            cell_masses.append(static_weigh(times_s[lo:hi], masses))
        else:
            cell_masses.append(wim_weigh(masses)[0])
        lo = hi

    assessment = assess(cell_masses, geometry, policy)
    compliance_entries: list[dict] = []
    if tolerance_rule is not None and reference_kg is not None:
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
        record_id=uuid.uuid4().hex[:12],
        station_id=batch.station_ids[batch.station[0]],
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
