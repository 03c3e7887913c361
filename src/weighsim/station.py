"""Station operations: frame ingestion, weigh sessions, persisted records.

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

Persisted weigh records are JSON objects, one per line, appended to
`records.ndjson` in the data directory. Key order is fixed (see
`WeighRecord.to_line`), floats round-trip exactly through their shortest
repr, and `started_at_ms`/`ended_at_ms` are taken from the input frames,
so identical inputs produce byte-identical lines except for the random
`record_id`. The data directory resolves in this order: explicit
argument, the WEIGHSIM_DATA_DIR environment variable, `./weighsim_records`.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# code_to_mass is unused here but stays a module attribute: callers, the
# benchmark tracer tests among them, look it up on this module.
from .calibration import CalibrationState, code_to_mass, codes_to_kg  # noqa: F401
from .cog import (
    AlertPolicy,
    DeckGeometry,
    FourCellReading,
    LoadAssessment,
    TwoCellAssessment,
    TwoCellReading,
    assess_four_cell,
    assess_two_cell,
)
from .compliance import (
    AxleConfiguration,
    ToleranceRule,
    check_compliance,
    static_mean,
    wim_stats,
    within_gvw_limit,
)
from .errors import IncompleteStationError, RecordParseError, SequencingError
from .sensor import CODE_MAX, CODE_MIN, GAIN_CHANNELS

ENV_DATA_DIR = "WEIGHSIM_DATA_DIR"
DEFAULT_DATA_DIR = "weighsim_records"
RECORDS_FILENAME = "records.ndjson"

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
    return SensorFrameRecord(
        station_id=station_id,
        cell_index=cell,
        timestamp_ms=ts,
        adc_code=code,
        gain=gain,
        saturated=bool(sat),
    )


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

    def row(self, i: int) -> SensorFrameRecord:
        return SensorFrameRecord(
            station_id=self.station_ids[self.station[i]],
            cell_index=int(self.cell_index[i]),
            timestamp_ms=int(self.timestamp_ms[i]),
            adc_code=int(self.adc_code[i]),
            gain=int(self.gain[i]),
            saturated=bool(self.saturated[i]),
        )

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
            np.array([r.cell_index for r in records], np.int64),
            np.array([r.timestamp_ms for r in records], np.int64),
            np.array([r.adc_code for r in records], np.int64),
            np.array([r.gain for r in records], np.int64),
            np.array([r.saturated for r in records], bool),
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
        columns = ("cell_index", "timestamp_ms", "adc_code", "gain", "saturated")
        return cls(
            ids,
            np.concatenate(station),
            *(np.concatenate([getattr(b, c) for b in batches]) for c in columns),
        )


class FrameIngestor:
    """Stateful wire parser enforcing per-(station, cell) time order.

    The order state persists across calls, so the files of one session
    are ingested one after another into the same ingestor.
    """

    def __init__(self, cell_count: int = 4):
        self.cell_count = cell_count
        self._last_ts: dict[tuple[str, int], int] = {}

    def ingest(self, line: str, line_no: int | None = None) -> SensorFrameRecord:
        """Ingest one non-blank line."""
        batch = self.ingest_lines([line], line_no)
        if not len(batch):
            parse_frame_line(line, line_no, self.cell_count)  # raises for the blank line
        return batch.row(0)

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


def assessment_dict(a: LoadAssessment | TwoCellAssessment) -> dict:
    """Assessment as a fixed-key-order JSON-ready dict (the single-line form)."""
    if isinstance(a, LoadAssessment):
        return {
            "kind": "four_cell",
            "total_kg": a.total_kg,
            "x_cg_m": a.x_cg_m,
            "y_cg_m": a.y_cg_m,
            "centreline_offset_m": a.centreline_offset_m,
            "front_kg": a.front_kg,
            "rear_kg": a.rear_kg,
            "left_kg": a.left_kg,
            "right_kg": a.right_kg,
            "quadrant_pct": list(a.quadrant_pct),
            "overloaded": a.overloaded,
            "flagged_quadrants": list(a.flagged_quadrants),
            "front_heavy": a.front_heavy,
            "rear_heavy": a.rear_heavy,
            "left_heavy": a.left_heavy,
            "right_heavy": a.right_heavy,
        }
    return {
        "kind": "two_cell",
        "total_kg": a.total_kg,
        "lateral_offset_m": a.lateral_offset_m,
        "overloaded": a.overloaded,
        "left_heavy": a.left_heavy,
        "right_heavy": a.right_heavy,
    }


def assessment_line(a: LoadAssessment | TwoCellAssessment) -> str:
    return json.dumps(assessment_dict(a), separators=(",", ":"))


@dataclass(frozen=True)
class WeighRecord:
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
        if self.assessment.overloaded:
            return True
        if isinstance(self.assessment, LoadAssessment) and self.assessment.flagged_quadrants:
            return True
        return any(not entry["passed"] for entry in self.compliance)

    def to_line(self) -> str:
        obj = {
            "record_id": self.record_id,
            "station_id": self.station_id,
            "started_at_ms": self.started_at_ms,
            "ended_at_ms": self.ended_at_ms,
            "mode": self.mode,
            "cell_masses_kg": list(self.cell_masses_kg),
            "geometry": {
                "wheelbase_m": self.geometry.wheelbase_m,
                "track_m": self.geometry.track_m,
                "breadth_m": self.geometry.breadth_m,
            },
            "policy": {
                "overload_threshold_kg": self.policy.overload_threshold_kg,
                "quadrant_threshold_pct": self.policy.quadrant_threshold_pct,
            },
            "assessment": assessment_dict(self.assessment),
            "calibration_fingerprint": self.calibration_fingerprint,
            "compliance": list(self.compliance),
        }
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str, line_no: int | None = None) -> "WeighRecord":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"bad record JSON: {exc}", line_no) from None
        try:
            a = obj["assessment"]
            if a["kind"] == "four_cell":
                assessment: LoadAssessment | TwoCellAssessment = LoadAssessment(
                    total_kg=a["total_kg"],
                    x_cg_m=a["x_cg_m"],
                    y_cg_m=a["y_cg_m"],
                    centreline_offset_m=a["centreline_offset_m"],
                    front_kg=a["front_kg"],
                    rear_kg=a["rear_kg"],
                    left_kg=a["left_kg"],
                    right_kg=a["right_kg"],
                    quadrant_pct=tuple(a["quadrant_pct"]),
                    overloaded=a["overloaded"],
                    flagged_quadrants=tuple(a["flagged_quadrants"]),
                    front_heavy=a["front_heavy"],
                    rear_heavy=a["rear_heavy"],
                    left_heavy=a["left_heavy"],
                    right_heavy=a["right_heavy"],
                )
            elif a["kind"] == "two_cell":
                assessment = TwoCellAssessment(
                    total_kg=a["total_kg"],
                    lateral_offset_m=a["lateral_offset_m"],
                    overloaded=a["overloaded"],
                    left_heavy=a["left_heavy"],
                    right_heavy=a["right_heavy"],
                )
            else:
                raise RecordParseError(f"unknown assessment kind {a['kind']!r}", line_no)
            return cls(
                record_id=obj["record_id"],
                station_id=obj["station_id"],
                started_at_ms=obj["started_at_ms"],
                ended_at_ms=obj["ended_at_ms"],
                mode=obj["mode"],
                cell_masses_kg=tuple(obj["cell_masses_kg"]),
                geometry=DeckGeometry(
                    wheelbase_m=obj["geometry"]["wheelbase_m"],
                    track_m=obj["geometry"]["track_m"],
                    breadth_m=obj["geometry"]["breadth_m"],
                ),
                policy=AlertPolicy(
                    overload_threshold_kg=obj["policy"]["overload_threshold_kg"],
                    quadrant_threshold_pct=obj["policy"]["quadrant_threshold_pct"],
                ),
                assessment=assessment,
                calibration_fingerprint=obj["calibration_fingerprint"],
                compliance=tuple(obj["compliance"]),
            )
        except (KeyError, TypeError) as exc:
            raise RecordParseError(f"record missing field: {exc}", line_no) from None

    def reassess(self) -> LoadAssessment | TwoCellAssessment:
        """Recompute the assessment from the stored per-cell masses."""
        if len(self.cell_masses_kg) == 4:
            reading = FourCellReading(*self.cell_masses_kg)
            return assess_four_cell(reading, self.geometry, self.policy)
        reading2 = TwoCellReading(*self.cell_masses_kg)
        return assess_two_cell(reading2, self.geometry, self.policy)


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
    if cell_count not in (2, 4):
        raise ValueError(f"cell count must be 2 or 4, got {cell_count}")
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
            cell_masses.append(static_mean(times_s[lo:hi], masses))
        else:
            cell_masses.append(wim_stats(masses)[0])
        lo = hi

    if cell_count == 4:
        assessment: LoadAssessment | TwoCellAssessment = assess_four_cell(
            FourCellReading(*cell_masses), geometry, policy
        )
    else:
        assessment = assess_two_cell(TwoCellReading(*cell_masses), geometry, policy)

    compliance_entries: list[dict] = []
    if tolerance_rule is not None and reference_kg is not None:
        result = check_compliance(assessment.total_kg, reference_kg, tolerance_rule)
        compliance_entries.append(
            {
                "check": "tolerance",
                "jurisdiction": result.jurisdiction,
                "verification_kind": result.verification_kind,
                "reference_kg": result.reference_kg,
                "error_kg": result.error_kg,
                "max_error_kg": result.max_error_kg,
                "passed": result.passed,
            }
        )
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


class RecordStore:
    """Append-only newline-delimited record log."""

    def __init__(self, data_dir: str | Path | None = None):
        if data_dir is None:
            data_dir = os.environ.get(ENV_DATA_DIR, DEFAULT_DATA_DIR)
        self.data_dir = Path(data_dir)
        self.path = self.data_dir / RECORDS_FILENAME

    def append(self, record: WeighRecord) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(record.to_line() + "\n")

    def load_all(self) -> list[WeighRecord]:
        if not self.path.exists():
            return []
        lines = self.path.read_text().splitlines()
        return [WeighRecord.from_line(line, i) for i, line in enumerate(lines, 1) if line.strip()]

    def load(self, record_id: str) -> WeighRecord:
        for record in self.load_all():
            if record.record_id == record_id:
                return record
        raise RecordParseError(f"no record {record_id!r} in {self.path}")
