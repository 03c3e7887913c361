import contextlib
import json
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weighsim import codec, station
from weighsim.calibration import CalibrationState
from weighsim.codec import CHUNK_LINES
from weighsim.cog import DeckGeometry, LoadAssessment, POLICIES, TwoCellAssessment
from weighsim.compliance import AXLE_CONFIGURATIONS, KENYA_REVERIFICATION
from weighsim.errors import (
    GainMismatchError,
    IncompleteStationError,
    InsufficientDurationError,
    InsufficientSamplesError,
    InvalidReadingError,
    InvalidValueError,
    RecordParseError,
    SequencingError,
    WeighSimError,
)
from weighsim.sensor import CODE_MAX, CODE_MIN, RAILS
from weighsim.station import (
    FrameBatch,
    FrameIngestor,
    RecordStore,
    SensorFrameRecord,
    WeighRecord,
    format_frame_line,
    parse_frame_line,
    run_session,
)

GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
P2 = POLICIES["prototype2"]

#: mass = 0.001 kg per LSB, tare 0
CAL = CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),))


def rows(batch):
    """Each frame of a FrameBatch as a SensorFrameRecord, flagged saturated
    when its code is on a rail: cell by cell, each cell's in time order."""
    return [
        SensorFrameRecord(batch.station_id, cell, ts, code, gain, code in RAILS)
        for cell, columns in enumerate(zip(batch.times, batch.codes, batch.gains))
        for ts, code, gain in zip(*columns)
    ]


def by_cell(frames):
    """`frames` cell by cell, each cell's in input order: the `rows` of a
    batch of frames that are in time order per cell."""
    return sorted(frames, key=lambda f: f.cell_index)


#: A 24-bit code, on a rail at times.
codes = st.one_of(st.integers(CODE_MIN, CODE_MAX), st.sampled_from(RAILS))


def pinned_capture():
    """604 wire lines: four cells at code 100,000 from 0 to 15,000 ms, 100 ms
    apart, but 1 frame in 10 of cell 0 at CODE_MAX, flagged saturated."""

    def line(cell, t):
        pinned = cell == 0 and t % 1000 == 500
        return f"st1,{cell},{t},{CODE_MAX if pinned else 100_000},128,{int(pinned)}"

    return [line(cell, t) for t in range(0, 15_001, 100) for cell in range(4)]


def cell_frames(cell, code, n=151, station="st1", t0=0, dt_ms=100):
    return [
        SensorFrameRecord(station, cell, t0 + i * dt_ms, code)
        for i in range(n)
    ]


def session_frames(codes, **kwargs):
    frames = []
    for cell, code in enumerate(codes):
        frames.extend(cell_frames(cell, code, **kwargs))
    return frames


class TestParseFrameLine:
    def test_happy_path(self):
        rec = parse_frame_line("st1,0,1000,12345,128,0")
        assert rec == SensorFrameRecord("st1", 0, 1000, 12345, 128, False)

    def test_out_of_range_code(self):
        with pytest.raises(RecordParseError):
            parse_frame_line("st1,0,1000,9999999,128,0")

    def test_invalid_cell_index(self):
        with pytest.raises(RecordParseError):
            parse_frame_line("st1,4,1000,100,128,0", cell_count=4)
        parse_frame_line("st1,4,1000,100,128,0", cell_count=5)

    def test_wrong_field_count(self):
        with pytest.raises(RecordParseError):
            parse_frame_line("st1,0,1000,12345,128")

    def test_non_numeric(self):
        with pytest.raises(RecordParseError):
            parse_frame_line("st1,zero,1000,12345,128,0")

    def test_bad_gain(self):
        with pytest.raises(RecordParseError):
            parse_frame_line("st1,0,1000,12345,100,0")

    def test_bad_saturated_flag(self):
        # the flag is 1 exactly on a rail: a rail code flagged 0 used to be read as a load
        for line, message in [
            ("st1,0,1000,12345,128,2", "must be 0 for code 12345, got 2"),
            ("st1,0,1000,8388607,128,0", "must be 1 for code 8388607, got 0"),
            ("st1,0,1000,-8388608,128,0", "must be 1 for code -8388608, got 0"),
            ("st1,0,1000,100000,128,1", "must be 0 for code 100000, got 1"),
        ]:
            with pytest.raises(RecordParseError, match=f"^line 9: saturated flag {message}$"):
                parse_frame_line(line, line_no=9)

    def test_timestamp_wider_than_int64(self):
        with pytest.raises(RecordParseError, match="line 5: timestamp 1000+ ms does not fit in 64 bits"):
            parse_frame_line(f"st1,0,{10**400},12345,128,0", line_no=5)
        assert parse_frame_line(f"st1,0,{2**63 - 1},1,128,0").timestamp_ms == 2**63 - 1
        assert parse_frame_line(f"st1,0,{-(2**63)},1,128,0").timestamp_ms == -(2**63)

    def test_error_carries_line_number(self):
        with pytest.raises(RecordParseError, match="line 17"):
            parse_frame_line("nope", line_no=17)

    @given(
        st.text(alphabet=st.characters(blacklist_characters=",\n", min_codepoint=33, max_codepoint=126), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10**9),
        codes,
        st.sampled_from([128, 64, 32]),
    )
    def test_round_trip(self, station, cell, ts, code, gain):
        rec = SensorFrameRecord(station, cell, ts, code, gain, code in RAILS)
        assert parse_frame_line(format_frame_line(rec)) == rec


class TestIngestor:
    def test_rejects_time_regression_per_cell(self):
        ing = FrameIngestor()
        ing.ingest_lines(["st1,0,1000,1,128,0"])
        ing.ingest_lines(["st1,1,500,1,128,0"])  # other cell: independent clock
        ing.ingest_lines(["st1,0,1000,2,128,0"])  # equal timestamp is fine
        with pytest.raises(SequencingError):
            ing.ingest_lines(["st1,0,999,3,128,0"])

    def test_ingest_lines_numbers_errors(self):
        ing = FrameIngestor()
        lines = ["st1,0,1000,1,128,0", "", "st1,0,garbage,1,128,0"]
        with pytest.raises(RecordParseError, match="line 3"):
            ing.ingest_lines(lines)

    def test_ingest_lines_returns_columns(self, tmp_path):
        path = tmp_path / "frames.txt"
        path.write_text("st1,0,1000,-5,128,0\n\n  st1,1,900,-8388608,32,1  \nst1,0,1000,3,64,0\n")
        with open(path) as fh:
            batch = FrameIngestor().ingest_lines(fh)
        assert isinstance(batch, FrameBatch) and len(batch) == 3
        assert batch.station_id == "st1"
        assert batch.times == ((1000, 1000), (900,), (), ())
        assert batch.codes == ((-5, 3), (CODE_MIN,), (), ())
        assert batch.gains == ((128, 64), (32,), (), ())

    def test_two_stations_in_one_call(self):
        lines = ["st2,0,1000,1,128,0", "", "st1,1,900,7,32,0"]
        with pytest.raises(IncompleteStationError, match=r"^frames span multiple stations: \['st1', 'st2'\]$"):
            FrameIngestor().ingest_lines(lines)

    def test_two_stations_across_calls(self):
        ing = FrameIngestor()
        assert ing.ingest_lines(["st2,0,1000,1,128,0"]).station_id == "st2"
        assert len(ing.ingest_lines(["", "  "])) == 0  # no frame, no station
        with pytest.raises(IncompleteStationError, match=r"^frames span multiple stations: \['st1', 'st2'\]$"):
            ing.ingest_lines(["st1,1,900,7,32,0"])

    def test_one_line_is_one_row(self):
        ing = FrameIngestor()
        assert rows(ing.ingest_lines(["st1,2,5,8388607,128,1"])) == [SensorFrameRecord("st1", 2, 5, CODE_MAX, 128, True)]
        assert len(ing.ingest_lines(["   "])) == 0  # blank lines are skipped
        with pytest.raises(RecordParseError, match="expected 6 fields, got 1"):
            parse_frame_line("   ")

    def test_int64_overflow_is_a_parse_error(self):
        lines = ["st1,0,1000,1,128,0", f"st1,0,{10**400},1,128,0"]
        with pytest.raises(RecordParseError, match="line 2: timestamp 1+0+ ms does not fit"):
            FrameIngestor().ingest_lines(lines)

    def test_sequencing_error_before_a_later_parse_error(self):
        lines = ["st1,0,1000,1,128,0", "st1,0,999,1,128,0", "st1,1,5,1,128,0", "st1,0,x,1,128,0"]
        with pytest.raises(SequencingError, match=r"999 ms before 1000 ms .* cell 0 \(line 2\)"):
            FrameIngestor().ingest_lines(lines)

    def test_parse_error_before_a_later_sequencing_error(self):
        lines = ["st1,0,1000,1,128,0", "st1,9,5,1,128,0", "st1,0,999,1,128,0"]
        with pytest.raises(RecordParseError, match="line 2: cell index 9"):
            FrameIngestor().ingest_lines(lines)

    def test_first_regression_in_input_order_is_reported(self):
        # cell 1 regresses on line 4; cell 0 regresses later, on line 5,
        # although cell 0 sorts first
        lines = [
            "st1,0,100,1,128,0", "st1,1,100,1,128,0", "st1,0,200,1,128,0",
            "st1,1,50,1,128,0", "st1,0,10,1,128,0",
        ]
        with pytest.raises(SequencingError, match=r"50 ms before 100 ms .* cell 1 \(line 4\)"):
            FrameIngestor().ingest_lines(lines)

    def test_regression_straddling_a_chunk_boundary(self):
        lines = [f"st1,0,{t},1,128,0" for t in range(CHUNK_LINES)]
        lines.append("st1,0,0,1,128,0")
        with pytest.raises(SequencingError, match=rf"\(line {CHUNK_LINES + 1}\)"):
            FrameIngestor().ingest_lines(lines)

    def test_line_numbers_past_a_chunk_count_blank_lines(self):
        lines = [f"st1,0,{t},1,128,0" if t % 3 else "" for t in range(CHUNK_LINES + 10)]
        lines.append("st1,0,1,2,3,4")
        with pytest.raises(RecordParseError, match=rf"line {CHUNK_LINES + 11}: gain 3"):
            FrameIngestor().ingest_lines(lines)

    def test_order_carries_across_calls_and_numbers_restart(self):
        ing = FrameIngestor()
        assert len(ing.ingest_lines(["st1,0,1000,1,128,0", "st1,1,2000,1,128,0"])) == 2
        with pytest.raises(SequencingError, match=r"999 ms before 1000 ms .* \(line 3\)"):
            ing.ingest_lines(["st1,1,2000,1,128,0", "", "st1,0,999,1,128,0"])

    def test_order_is_kept_per_cell_across_chunks(self):
        lines = [f"st1,{cell},{t},1,128,0" for t in range(4) for cell in (0, 1)]
        ing = FrameIngestor(cell_count=2)
        with mock.patch.object(codec, "CHUNK_LINES", 3):
            assert len(ing.ingest_lines(lines)) == 8
            assert len(ing.ingest_lines(["st1,1,3,1,128,0", "st1,0,5,1,128,0"])) == 2
            # line 5 regresses against line 1, a chunk earlier
            lines = ["st1,0,5,1,128,0", "st1,1,4,1,128,0", "", "st1,1,6,1,128,0", "st1,0,4,1,128,0"]
            with pytest.raises(SequencingError, match=r"^timestamp 4 ms before 5 ms on station 'st1' cell 0 \(line 5\)$"):
                ing.ingest_lines(lines)

    @staticmethod
    def capture_604(station="st1"):
        """604 wire lines: four cells at 0-15,000 ms, 100 ms apart."""
        return [f"{station},{i % 4},{i // 4 * 100},1,128,0" for i in range(604)]

    @pytest.mark.parametrize("chunk_lines", [CHUNK_LINES, 7, 605])
    def test_regression_before_a_second_station_comes_first(self, chunk_lines):
        # a chunk used to check its stations before its time order, so this
        # reported "frames span multiple stations" for line 606
        lines = self.capture_604() + ["st1,0,0,1,128,0", "xx,1,15100,1,128,0"]
        with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
            with pytest.raises(
                SequencingError,
                match=r"^timestamp 0 ms before 15000 ms on station 'st1' cell 0 \(line 605\)$",
            ):
                FrameIngestor().ingest_lines(lines)

    @pytest.mark.parametrize("chunk_lines", [CHUNK_LINES, 7])
    def test_second_station_before_a_regression_comes_first(self, chunk_lines):
        lines = self.capture_604() + ["xx,1,15100,1,128,0", "st1,0,0,1,128,0"]
        with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
            with pytest.raises(IncompleteStationError, match=r"^frames span multiple stations: \['st1', 'xx'\]$"):
                FrameIngestor().ingest_lines(lines)

    @pytest.mark.parametrize("line", ["ws,0,1_000,0,128,0", "ws,0,1000,\uff11,128,0", "ws,0,\xa01000,0,128,0\x0b"])
    def test_line_the_bulk_reader_refuses_is_read_line_by_line(self, line):
        # numpy's text reader, the bulk reader until it was replaced by int(),
        # refused these int() texts; the chunk used to end in
        # AssertionError("chunk rejected although every line passes")
        lines = ["ws,1,5,-8388608,64,1", line]
        ing = FrameIngestor()
        batch = ing.ingest_lines(lines)
        assert batch.station_id == "ws"
        assert rows(batch) == by_cell(parse_frame_line(text) for text in lines)
        # the station and the order state advance as after a bulk chunk
        with pytest.raises(SequencingError, match=r"^timestamp 999 ms before 1000 ms on station 'ws' cell 0 \(line 1\)$"):
            ing.ingest_lines(["ws,0,999,0,128,0"])
        with pytest.raises(IncompleteStationError, match=r"^frames span multiple stations: \['st1', 'ws'\]$"):
            ing.ingest_lines(["st1,0,2000,0,128,0"])

    @pytest.mark.parametrize("field", ["\u01fe", "1\u01ff", "\x1c1", "1\x1f", "7\x1e"])
    def test_text_the_bulk_reader_misreads_is_a_parse_error(self, field):
        # numpy's text reader read U+01FE as 462 and stripped \x1c-\x1f; int(),
        # the one reader now, does neither
        lines = ["ws,0,0,5,128,0", f"ws,0,1,{field},128,0"]
        with pytest.raises(RecordParseError, match="^line 2: non-numeric field in"):
            FrameIngestor().ingest_lines(lines)

    @pytest.mark.parametrize(
        "lines",
        [["ws,0,1,1,128,0,0"], ["ws,0,1,1,128,0,0", "ws,0,2,1,128"], ["ws,0,1,1,128", "ws,0,2,1,128,0,0"]],
    )
    def test_seven_fields_and_five_fields_in_one_chunk(self, lines):
        # numpy's reader ignores a seventh field; the last two captures hold
        # 5 commas per line on average
        with pytest.raises(RecordParseError, match="^line 1: expected 6 fields, got [57]$"):
            FrameIngestor().ingest_lines(lines)

    def test_a_float_text_is_a_parse_error(self):
        # numpy < 2's text reader read "1.0" as the integer 1 and only warned
        with pytest.raises(RecordParseError, match=r"^line 1: non-numeric field in 'ws,0,1.0,5,128,0'$"):
            FrameIngestor().ingest_lines(["ws,0,1.0,5,128,0"])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("st1,0,500,8388607,128,0", "saturated flag must be 1 for code 8388607, got 0"),
            ("st1,0,500,100000,128,1", "saturated flag must be 0 for code 100000, got 1"),
        ],
    )
    def test_flag_that_disagrees_with_the_code_names_its_line(self, bad, message):
        # alone, and inside a chunk of CHUNK_LINES lines that is clean but for
        # it. A rail code flagged 0 used to reach run_session as a load: one
        # frame in 10 at the rail made a 100 kg cell read 928.86 kg.
        with pytest.raises(RecordParseError, match=f"^line 1: {message}$"):
            FrameIngestor().ingest_lines([bad])
        lines = [f"st1,{i % 4},{i // 4 * 100},100000,128,0" for i in range(CHUNK_LINES)]
        lines[20] = bad
        with pytest.raises(RecordParseError, match=f"^line 21: {message}$"):
            FrameIngestor().ingest_lines(lines)

    @pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "split"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("st1,4,500,9000000,128,0", "cell index 4 outside 0-3"),
            ("st1,0,500,100000,7,1", "gain 7 not one of [32, 64, 128]"),
            (f"st1,0,{2**63},100000,128,1", "saturated flag must be 0 for code 100000, got 1"),
        ],
        ids=["cell+code", "gain+flag", "flag+timestamp"],
    )
    def test_a_line_that_fails_two_checks_reports_the_first(self, bad, message, bulk):
        # alone, and inside a chunk of CHUNK_LINES lines that is clean but for
        # it; without `bulk`, every chunk is read line by line
        lines = [f"st1,{i % 4},{i // 4 * 100},100000,128,0" for i in range(CHUNK_LINES)]
        lines[20] = bad
        with contextlib.nullcontext() if bulk else mock.patch.object(FrameIngestor, "_in_bulk", return_value=None):
            with pytest.raises(RecordParseError, match=f"^line 1: {re.escape(message)}$"):
                FrameIngestor().ingest_lines([bad])
            with pytest.raises(RecordParseError, match=f"^line 21: {re.escape(message)}$"):
                FrameIngestor().ingest_lines(lines)

    @pytest.mark.parametrize("chunk_lines", [CHUNK_LINES, 100])
    @pytest.mark.parametrize("final_newline", ["\n", ""])
    @pytest.mark.parametrize("gaps", [False, True])
    def test_good_lines_are_never_read_line_by_line(self, tmp_path, chunk_lines, final_newline, gaps):
        # lines as read from a file end in a newline, lines in a list need
        # not; every chunk is stripped, so blank or padded lines stay in bulk
        lines = pinned_capture()
        if gaps:
            lines = [f" {line}\t" if i % 50 else "" for i, line in enumerate(lines)]
        path = tmp_path / "frames.txt"
        path.write_text("\n".join(lines) + final_newline)
        refuse = mock.patch.object(FrameIngestor, "_line_by_line", side_effect=AssertionError("read line by line"))
        with refuse, mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
            from_list = FrameIngestor().ingest_lines(lines)
            with open(path) as fh:
                from_file = FrameIngestor().ingest_lines(fh)
        assert rows(from_list) == rows(from_file) == by_cell(parse_frame_line(line) for line in lines if line)

    def test_an_item_that_holds_two_lines_is_read_line_by_line(self):
        # joined, the items read as three good lines
        lines = ["st1,0,1,1,128,0\n", "st1,0,2,1,128,0\nst1,0,3,1,1", "28,0\n"]
        with pytest.raises(RecordParseError, match="^line 2: expected 6 fields, got 10$"):
            FrameIngestor().ingest_lines(lines)

    @pytest.mark.parametrize("chunk_lines", [1, CHUNK_LINES])
    @pytest.mark.parametrize(
        "lines, line_no",
        [
            (["st1,0,1\n,1,128,0", "st1,1,\n5,7,128,0"], 1),
            (["st1,0,1,1,128,0", "st1,1,5,7\r,128,0"], 2),
            (["st1,0,1,1,128,0\n", "st\r1,1,5,7,128,0"], 2),
        ],
        ids=["newline", "return", "return-in-station"],
    )
    def test_an_item_with_a_line_break_inside_names_its_line(self, lines, line_no, chunk_lines):
        # int() strips a break, so each item used to be read as one frame:
        # line by line always, in bulk for a carriage return
        with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
            with pytest.raises(RecordParseError, match=f"^line {line_no}: line break in {re.escape(repr(lines[line_no - 1]))}$"):
                FrameIngestor().ingest_lines(lines)
        with pytest.raises(RecordParseError, match=f"^line 4: line break in "):
            parse_frame_line(lines[line_no - 1], line_no=4)

    def test_concat_keeps_one_station(self):
        ingestor = FrameIngestor()
        a = ingestor.ingest_lines(["s1,0,1,2,128,0", "s1,1,1,2,128,0"])
        empty = ingestor.ingest_lines(["", "  "])
        b = ingestor.ingest_lines([f"s1,2,3,{CODE_MAX},64,1"])
        assert empty.station_id is None and len(empty) == 0
        both = FrameBatch.concat([a, empty, b])
        assert both.station_id == "s1"
        assert rows(both) == rows(a) + rows(b)
        other = FrameIngestor().ingest_lines(["s0,0,5,6,128,0"])
        with pytest.raises(IncompleteStationError, match=r"^frames span multiple stations: \['s0', 's1'\]$"):
            FrameBatch.concat([a, other])
        with pytest.raises(IncompleteStationError, match=r"^frames span multiple stations: \['s0', 's1'\]$"):
            run_session([SensorFrameRecord("s1", 0, 1, 2), SensorFrameRecord("s0", 0, 1, 2)], [CAL] * 4, "static", P2, GEOM)


def reference_frame(line, line_no, cell_count):
    """One wire line read by the wire format in the `station` docstring,
    with none of the code under test: its SensorFrameRecord, or the
    RecordParseError of its first failing check."""
    fields = line.strip().split(",")
    if len(fields) != 6:
        raise RecordParseError(f"expected 6 fields, got {len(fields)}", line_no)
    station, cell_s, ts_s, code_s, gain_s, sat_s = fields
    if not station:
        raise RecordParseError("empty station id", line_no)
    if "\n" in line.strip() or "\r" in line.strip():
        raise RecordParseError(f"line break in {line.strip()!r}", line_no)
    try:
        cell, ts, code, gain, sat = map(int, (cell_s, ts_s, code_s, gain_s, sat_s))
    except ValueError:
        raise RecordParseError(f"non-numeric field in {line.strip()!r}", line_no) from None
    on_rail = code in (-(2**23), 2**23 - 1)
    for ok, message in [
        (0 <= cell < cell_count, f"cell index {cell} outside 0-{cell_count - 1}"),
        (-(2**23) <= code < 2**23, f"code {code} outside signed 24-bit range"),
        (gain in (32, 64, 128), f"gain {gain} not one of [32, 64, 128]"),
        (sat == on_rail, f"saturated flag must be {int(on_rail)} for code {code}, got {sat_s}"),
        (-(2**63) <= ts < 2**63, f"timestamp {ts_s} ms does not fit in 64 bits"),
    ]:
        if not ok:
            raise RecordParseError(message, line_no)
    return SensorFrameRecord(station, cell, ts, code, gain, on_rail)


def reference_ingest(files, cell_count):
    """The per-line reading of the wire files of one session that
    `FrameIngestor.ingest_lines` must match: the frames of each file, then
    the (type, message) of the first error, or None. Each line is parsed
    by `reference_frame`, then checked for its station, then for its
    cell's time order."""
    station, last_ts, batches = None, {}, []
    try:
        for lines in files:
            frames = []
            for line_no, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                frame = reference_frame(line, line_no, cell_count)
                station = station or frame.station_id
                if frame.station_id != station:
                    raise IncompleteStationError(
                        f"frames span multiple stations: {sorted([station, frame.station_id])}"
                    )
                cell, ts = frame.cell_index, frame.timestamp_ms
                if cell in last_ts and ts < last_ts[cell]:
                    raise SequencingError(
                        f"timestamp {ts} ms before {last_ts[cell]} ms on"
                        f" station {station!r} cell {cell} (line {line_no})"
                    )
                last_ts[cell] = ts
                frames.append(frame)
            batches.append(frames)
    except WeighSimError as exc:
        return batches, (type(exc), str(exc))
    return batches, None


_FAULTS = [
    "st1,0,1", "st1,0,1,1,128,0,0", ",0,1,1,128,0", "st1,x,1,1,128,0", "st1,-1,1,1,128,0",
    "st1,0,1,8388608,128,0", "st1,0,1,1,100,0", "st1,0,1,1,128,2", f"st1,0,{2**63},1,128,0",
    f"st1,0,1,{10**30},128,0",
]


#: 19- and 20-digit values at and beyond the int64 limits.
_INT64_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**19, -(10**19), 10**20 - 1]


@st.composite
def field_texts(draw, value):
    """A text of the int field `value` that int() may read and numpy's text
    reader may not, or the other way round: a sign and padding, and some of
    `_`, `.`, `e`, full-width digits or letters numpy reads as digits."""
    digits = str(abs(value))
    kind = draw(st.sampled_from(["plain", "wide", "odd", "letter"]))
    if kind == "wide":
        digits = "".join(chr(ord(d) + 0xFEE0) if draw(st.booleans()) else d for d in digits)
    elif kind == "odd":
        i = draw(st.integers(1, len(digits)))
        digits = digits[:i] + draw(st.sampled_from(["_", ".", ".0", "e", "e0", "\uff11", "+"])) + digits[i:]
    elif kind == "letter":  # numpy reads these as 462, 4631 and 1841
        digits = draw(st.sampled_from(["\u01fe", "1\u01ff", "\u0761"]))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    pad = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x0b", "\x1c", "\x1f", "\r"])
    return draw(pad) + sign + digits + draw(pad)


@st.composite
def field_text_lines(draw, line):
    """Wire `line` with one numeric field written by `field_texts`; a
    timestamp may first become one of `_INT64_EDGES`."""
    fields = line.split(",")
    j = draw(st.integers(1, 5))
    value = int(fields[j])
    if j == 2:
        value = draw(st.sampled_from([value, *_INT64_EDGES]))
    fields[j] = draw(field_texts(value))
    return ",".join(fields)


@st.composite
def captures(draw):
    """The wire files of one session: frames of up to three stations with
    blank lines, padding, parse faults, saturated flags that disagree with
    the code, odd field texts and time regressions, each only in some
    captures so that others ingest. The lines end in a newline, as read
    from a file, or not, as in a list."""
    cell_count = draw(st.sampled_from([2, 4]))
    stations = draw(st.sampled_from([["st1"], ["st1"] * 8 + ["st2"], ["st1"] * 6 + ["st2", "st3"], ["st2", "st1", "st3"]]))
    step = st.integers(-3, 3) if draw(st.booleans()) else st.integers(0, 3)
    kinds = ["frame"] * 8 + ["blank"] + ["odd"] * draw(st.sampled_from([0, 2]))
    kinds += ["fault"] * draw(st.sampled_from([0, 1])) + ["misflag"] * draw(st.sampled_from([0, 1]))
    end = draw(st.sampled_from(["", "\n"]))
    t, lines = 0, []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "fault":
            lines.append(draw(st.sampled_from(_FAULTS + [f"st1,{cell_count},1,1,128,0"])))
        else:
            t += draw(step)
            station, cell, code = draw(st.sampled_from(stations)), draw(st.integers(0, cell_count - 1)), draw(codes)
            frame = SensorFrameRecord(
                station, cell, t, code, draw(st.sampled_from([128, 64, 32])), (code in RAILS) != (kind == "misflag"),
            )
            line = format_frame_line(frame)
            if kind == "odd":
                line = draw(field_text_lines(line))
            lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "", " ", "\t"])))
    lines = [line + end for line in lines]
    cut = draw(st.integers(0, len(lines)))
    files = [lines[:cut], lines[cut:]] if draw(st.booleans()) else [lines]
    return files, cell_count


@settings(max_examples=300, deadline=None)
@given(captures(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, CHUNK_LINES]))
def test_ingestor_matches_per_line_reference(capture, chunk_lines):
    assert_ingests_as_reference(*capture, chunk_lines)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda cell, ts, code, gain: SensorFrameRecord("st1", cell, ts, code, gain, code in RAILS),
            st.integers(0, 3), st.integers(0, 9), codes, st.sampled_from([128, 64, 32]),
        ).map(format_frame_line).flatmap(field_text_lines),
        min_size=1, max_size=6,
    ),
    st.sampled_from([1, CHUNK_LINES]),
)
def test_field_text_matches_per_line_reference(lines, chunk_lines):
    # with one line per chunk, the bulk path judges each line alone
    assert_ingests_as_reference([lines], 4, chunk_lines)


def assert_ingests_as_reference(files, cell_count, chunk_lines):
    """One ingestor fed `files` in chunks of `chunk_lines` gives the rows or
    the error of `reference_ingest`."""
    expected_batches, expected_error = reference_ingest(files, cell_count)
    ingestor, error = FrameIngestor(cell_count), None
    with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
        batches = []
        try:
            for lines in files:
                batches.append(rows(ingestor.ingest_lines(lines)))
        except WeighSimError as exc:
            error = (type(exc), str(exc))
    assert error == expected_error
    assert batches == [by_cell(frames) for frames in expected_batches]


class TestRunSession:
    def test_static_overload_assessment(self):
        # four constant 110 kg cells -> 440 kg total > 400
        record = run_session(session_frames([110_000] * 4), [CAL] * 4, "static", P2, GEOM)
        assert isinstance(record.assessment, LoadAssessment)
        assert record.assessment.overloaded
        assert record.assessment.total_kg == pytest.approx(440.0)
        assert record.started_at_ms == 0 and record.ended_at_ms == 15_000
        assert record.mode == "static"

    def test_static_needs_full_window(self):
        with pytest.raises(InsufficientDurationError):
            run_session(session_frames([1000] * 4, n=101), [CAL] * 4, "static", P2, GEOM)

    def test_wim_accepts_short_pass(self):
        record = run_session(session_frames([110_000] * 4, n=15), [CAL] * 4, "wim", P2, GEOM)
        assert record.assessment.total_kg == pytest.approx(440.0)

    def test_missing_cell_stream(self):
        frames = session_frames([1000] * 3)  # cells 0..2 only
        with pytest.raises(IncompleteStationError):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    def test_mixed_stations_rejected(self):
        frames = session_frames([1000] * 4) + cell_frames(0, 1000, station="st2")
        with pytest.raises(IncompleteStationError):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    def test_two_cell_compatibility_mode(self):
        frames = session_frames([5000, 4500])  # 5.0 kg + 4.5 kg
        record = run_session(frames, [CAL] * 2, "static", POLICIES["prototype1"], GEOM)
        assert isinstance(record.assessment, TwoCellAssessment)
        assert record.assessment.total_kg == pytest.approx(9.5)
        assert not record.assessment.overloaded

    def test_compliance_entries(self):
        record = run_session(
            session_frames([110_000] * 4),
            [CAL] * 4,
            "static",
            P2,
            GEOM,
            tolerance_rule=KENYA_REVERIFICATION,
            reference_kg=80_000.0,
            axle_config=AXLE_CONFIGURATIONS["2"],
        )
        kinds = [c["check"] for c in record.compliance]
        assert kinds == ["tolerance", "gvw"]
        assert record.compliance[1]["passed"]  # 440 kg under 18 t
        assert not record.compliance[0]["passed"]  # 440 vs 80,000 reference
        assert record.unsafe()

    def test_takes_a_batch_in_any_row_order(self):
        # lines cell by cell or in time order make one batch; records in any
        # order weigh as it does
        frames = session_frames([110_000, 90_000, 80_000, 70_000])
        by_time = sorted(frames, key=lambda f: f.timestamp_ms)
        batch = FrameIngestor().ingest_lines(map(format_frame_line, frames))
        assert FrameIngestor().ingest_lines(map(format_frame_line, by_time)) == batch
        from_batch = run_session(batch, [CAL] * 4, "static", P2, GEOM)
        for records in (frames, by_time, frames[::-1]):
            from_records = run_session(records, [CAL] * 4, "static", P2, GEOM)
            assert from_records.to_line().replace(from_records.record_id, from_batch.record_id) == from_batch.to_line()

    def test_an_ingested_capture_is_judged_once(self):
        # the ingestor judges each chunk of one ingestor's files once, and
        # run_session reduces the joined batch without judging or grouping
        # its frames again
        frames = session_frames([110_000, 90_000, 80_000, 70_000])
        lines = [format_frame_line(f) for f in sorted(frames, key=lambda f: f.timestamp_ms)]
        ingestor = FrameIngestor()
        with mock.patch.object(codec, "CHUNK_LINES", 50), mock.patch.object(station, "_judge", wraps=station._judge) as judge:
            files = [ingestor.ingest_lines(lines[:301]), ingestor.ingest_lines([""]), ingestor.ingest_lines(lines[301:])]
        assert judge.call_count == 7 + 7  # chunks of 301 and 303 lines
        expected = run_session(frames, [CAL] * 4, "static", P2, GEOM)
        judged_again = AssertionError("judged again")
        with mock.patch.object(station, "_judge", side_effect=judged_again), \
                mock.patch.object(station, "_group", side_effect=judged_again):
            record = run_session(FrameBatch.concat(files), [CAL] * 4, "static", P2, GEOM)
        assert record.to_line().replace(record.record_id, expected.record_id) == expected.to_line()

    def test_batches_of_two_ingestors_are_sorted_and_weighed(self):
        # each ingestor checks the time order of its own frames only: per
        # cell, the frames of `a` and `b` interleave, so concat sorts each
        # cell by time
        a = [SensorFrameRecord("st1", c, t, 100_000) for t in range(0, 30_001, 200) for c in range(4)]
        b = [SensorFrameRecord("st1", c, t, 300_000) for t in range(100, 30_000, 200) for c in range(4)]
        joined = FrameBatch.concat([FrameIngestor().ingest_lines(map(format_frame_line, part)) for part in (a, b)])
        record = run_session(joined, [CAL] * 4, "static", P2, GEOM)
        expected = run_session(a + b, [CAL] * 4, "static", P2, GEOM)
        assert record.to_line().replace(record.record_id, expected.record_id) == expected.to_line()
        assert (record.started_at_ms, record.ended_at_ms) == (0, 30_000)
        assert record.cell_masses_kg == pytest.approx((200.0,) * 4)

    @pytest.mark.parametrize("last_ms", [15_000, 165_000])
    def test_a_cell_with_no_frame_in_the_decks_window_is_named(self, last_ms):
        # cells 0-2 at 100 kg, 10 Hz for 180 s; cell 3 at 300 kg at 0 s and
        # 10 kg at 15 s used to read (100, 100, 100, 10): cell 3 from one
        # frame, 165 s before the other cells' window. The window is
        # half-open, so a last frame at 165 s is outside it too.
        frames = [SensorFrameRecord("st1", c, t, 100_000) for t in range(0, 180_001, 100) for c in range(3)]
        frames += [SensorFrameRecord("st1", 3, 0, 300_000), SensorFrameRecord("st1", 3, last_ms, 10_000)]
        message = f"^cell 3 has no frame in the deck's last 15 s: its last at {last_ms} ms, the deck's at 180000 ms$"
        lines = [format_frame_line(f) for f in sorted(frames, key=lambda f: f.timestamp_ms)]
        for source in (frames, FrameIngestor().ingest_lines(lines)):
            with pytest.raises(IncompleteStationError, match=message):
                run_session(source, [CAL] * 4, "static", P2, GEOM)

    def test_a_cell_that_stops_early_averages_the_decks_window(self):
        # cell 3 stops at 25 s, the others at 30 s: its own last 15 s would
        # hold 300 kg frames from before 12 s, the deck's last 15 s do not
        frames = [SensorFrameRecord("st1", c, t, 100_000) for t in range(0, 30_001, 100) for c in range(3)]
        frames += [SensorFrameRecord("st1", 3, t, 300_000 if t < 12_000 else 100_000) for t in range(0, 25_001, 100)]
        lines = [format_frame_line(f) for f in sorted(frames, key=lambda f: f.timestamp_ms)]
        for source in (frames, FrameIngestor().ingest_lines(lines)):
            assert run_session(source, [CAL] * 4, "static", P2, GEOM).cell_masses_kg == (100.0,) * 4

    def test_wim_needs_the_cells_segments_to_overlap(self):
        frames = session_frames([100_000] * 3, n=20) + cell_frames(3, 100_000, n=20, t0=5_000)
        lines = [format_frame_line(f) for f in sorted(frames, key=lambda f: f.timestamp_ms)]
        message = "^cell 0's frames end at 1900 ms, before cell 3's begin at 5000 ms$"
        for source in (frames, FrameIngestor().ingest_lines(lines)):
            with pytest.raises(IncompleteStationError, match=message):
                run_session(source, [CAL] * 4, "wim", P2, GEOM)
        overlapping = session_frames([100_000] * 3, n=20) + cell_frames(3, 100_000, n=20, t0=1_900)
        assert run_session(overlapping, [CAL] * 4, "wim", P2, GEOM).cell_masses_kg == (100.0,) * 4

    def test_negative_cell_index_rejected(self):
        frames = session_frames([1000] * 4) + [SensorFrameRecord("st1", -1, 0, 1000)]
        with pytest.raises(IncompleteStationError, match="frame for cell -1 on a 4-cell station"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    @pytest.mark.parametrize("check", [{"tolerance_rule": KENYA_REVERIFICATION}, {"reference_kg": 80_000.0}])
    def test_tolerance_check_needs_a_rule_and_a_reference(self, check):
        # either alone used to add no tolerance entry, silently
        with pytest.raises(ValueError, match="^a tolerance check needs both a tolerance rule and a reference mass$"):
            run_session(session_frames([1000] * 4), [CAL] * 4, "static", P2, GEOM, **check)

    def test_deck_size_is_the_calibration_count(self):
        frames = session_frames([1000] * 4)
        with pytest.raises(ValueError, match=r"^cell count \(one per calibration\) must be one of \[2, 4\], got 3$"):
            run_session(frames, [CAL] * 3, "static", P2, GEOM)
        # a four-cell ingestor's batch holds frames for cells off a two-cell deck
        for source in (frames, FrameIngestor().ingest_lines(map(format_frame_line, frames))):
            with pytest.raises(IncompleteStationError, match="^frame for cell 2 on a 2-cell station$"):
                run_session(source, [CAL] * 2, "static", P2, GEOM)

    @pytest.mark.parametrize("mode", ["static", "wim"])
    def test_saturated_frames_are_left_out(self, mode):
        # 1 frame in 10 of the 100 kg cell pinned at the rail used to be
        # averaged in as a reading: the cell read 928.9 kg
        record = run_session(FrameIngestor().ingest_lines(pinned_capture()), [CAL] * 4, mode, P2, GEOM)
        assert record.cell_masses_kg == (100.0,) * 4
        assert record.assessment.total_kg == 400.0

    def test_saturated_frames_do_not_count_towards_the_window(self):
        frames = session_frames([1000] * 4)
        frames[-1] = SensorFrameRecord("st1", 3, 15_000, CODE_MAX, saturated=True)
        with pytest.raises(InsufficientDurationError, match=r"^stream spans 14\.900 s"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    @pytest.mark.parametrize("code, flag", [(CODE_MAX, False), (CODE_MIN, False), (5, True), (5, None), (5, "0"), (5, [0])])
    def test_record_flag_that_disagrees_with_the_code(self, code, flag):
        # the wire rejects these flags, and so does the record path: a flag
        # is read as the wire's 0 or 1, not by its truth
        frames = session_frames([1000] * 4)
        frames[7] = SensorFrameRecord("st1", 0, frames[7].timestamp_ms, code, saturated=flag)
        named = re.escape(f"saturated flag must be {int(code in RAILS)} for code {code}, got {flag}: {frames[7]}")
        with pytest.raises(InvalidValueError, match=f"^{named}$"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    @pytest.mark.parametrize("step", [1, -1], ids=["records", "reversed-records"])
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            # the 9,000,000 code used to read as a 9000.0 kg cell and an overload
            ("adc_code", 9_000_000, "code 9000000 outside signed 24-bit range"),
            # gain 7 used to pass, and a 2**63 timestamp to raise a bare OverflowError
            ("gain", 7, "gain 7 not one of [32, 64, 128]"),
            ("timestamp_ms", 2**63, "timestamp 9223372036854775808 ms does not fit in 64 bits"),
        ],
        ids=["code", "gain", "timestamp"],
    )
    def test_a_frame_no_wire_line_could_carry_is_named(self, field, value, reason, step):
        frames = session_frames([100_000] * 4, n=16, dt_ms=1000)
        frames[0] = replace(frames[0], **{field: value})
        named = re.escape(f"{reason}: {frames[0]}")
        with pytest.raises(InvalidValueError, match=f"^{named}$"):
            run_session(frames[::step], [CAL] * 4, "static", P2, GEOM)

    @pytest.mark.parametrize(
        "field, value",
        [
            # each used to be weighed as the int numpy converts it to: a
            # first frame at 500 ms (InsufficientDurationError: stream spans
            # 14.500 s), code 100000, gain 128, cell 1, cell 1, code 100000
            ("timestamp_ms", 500.9),
            ("adc_code", 100_000.9),
            ("gain", 128.0),
            ("cell_index", 1.5),
            ("cell_index", True),
            ("adc_code", "100000"),
        ],
        ids=["timestamp", "code", "integral-gain", "cell", "bool-cell", "str-code"],
    )
    def test_a_field_that_is_not_an_integer_is_named(self, field, value):
        frames = session_frames([100_000] * 4, n=16, dt_ms=1000)
        frames[0] = replace(frames[0], **{field: value})
        named = re.escape(f"{field} {value!r} is not an integer: {frames[0]}")
        with pytest.raises(InvalidValueError, match=f"^{named}$"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    def test_the_first_faulty_record_is_named_by_the_wire_readers_checks(self):
        # records meet a wire line's checks in its order: the cell, then the
        # code, gain, flag and timestamp; the first faulty record in input
        # order is named, though records are weighed in time order
        frames = session_frames([100_000] * 4, n=16, dt_ms=1000)
        frames[40] = replace(frames[40], cell_index=9, adc_code=9_000_000)
        frames[20] = replace(frames[20], timestamp_ms=15_000, gain=7, saturated=True)
        with pytest.raises(InvalidValueError, match=f"^{re.escape(f'gain 7 not one of [32, 64, 128]: {frames[20]}')}$"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)
        del frames[20]
        with pytest.raises(IncompleteStationError, match="^frame for cell 9 on a 4-cell station$"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    def test_numpy_integers_are_integers(self):
        frames = session_frames([100_000] * 4, n=16, dt_ms=1000)
        as_numpy = [
            replace(f, cell_index=np.int8(f.cell_index), adc_code=np.int64(f.adc_code), gain=np.uint8(f.gain))
            for f in frames
        ]
        record = run_session(as_numpy, [CAL] * 4, "static", P2, GEOM)
        assert record.cell_masses_kg == run_session(frames, [CAL] * 4, "static", P2, GEOM).cell_masses_kg

    @pytest.mark.parametrize("step", [1, -1], ids=["records", "reversed-records"])
    def test_a_cell_beyond_int64_is_off_the_deck(self, step):
        # used to raise a bare OverflowError
        frames = session_frames([100_000] * 4, n=16, dt_ms=1000)
        frames[0] = replace(frames[0], cell_index=2**70)
        with pytest.raises(IncompleteStationError, match=f"^frame for cell {2**70} on a 4-cell station$"):
            run_session(frames[::step], [CAL] * 4, "static", P2, GEOM)

    @pytest.mark.parametrize("mode", ["static", "wim"])
    def test_a_cell_with_only_saturated_frames_is_named(self, mode):
        frames = session_frames([1000] * 4)
        frames = [
            SensorFrameRecord("st1", 2, f.timestamp_ms, CODE_MIN, saturated=True) if f.cell_index == 2 else f
            for f in frames
        ]
        with pytest.raises(InsufficientSamplesError, match="^every frame of cell 2 is saturated$"):
            run_session(frames, [CAL] * 4, mode, P2, GEOM)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_session(session_frames([1] * 4), [CAL] * 4, "rolling", P2, GEOM)

    @pytest.mark.parametrize("mode", ["static", "wim"])
    def test_an_overflowing_scale_warns_nothing(self, mode):
        # numpy printed overflow warnings (multiply, reduce) and, in WIM mode,
        # an invalid value in the variance before the mass was rejected
        cal = CalibrationState(tare_code=0, scale_kg_per_lsb=1e306, reference_points=((1.0, 1),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidReadingError, match="^cell FL mass must be finite and >= 0, got inf$"):
                run_session(session_frames([1000] * 4), [cal] * 4, mode, P2, GEOM)


    @pytest.mark.parametrize("mode", ["static", "wim"])
    def test_a_capture_of_another_gain_is_refused(self, mode):
        # a gain-64 capture through gain-128 calibrations used to read 100.0 kg
        # per cell: run_session never read the frames' gain
        frames = [replace(f, gain=64) for f in session_frames([100_000] * 4)]
        lines = [format_frame_line(f) for f in frames]
        message = "^cell 0 has a frame of gain 64, its calibration gain 128$"
        for source in (frames, FrameIngestor().ingest_lines(lines)):
            with pytest.raises(GainMismatchError, match=message):
                run_session(source, [CAL] * 4, mode, P2, GEOM)
        cal64 = replace(CAL, gain=64)
        record = run_session(frames, [cal64] * 4, mode, P2, GEOM)
        assert record.cell_masses_kg == (100.0,) * 4
        assert record.calibration_fingerprint == "+".join([cal64.fingerprint()] * 4)

    @pytest.mark.parametrize("chunk_lines", [1, 7, CHUNK_LINES])
    @pytest.mark.parametrize("odd, other", [(((50, 64), (60, 32)), 64), (((0, 32), (60, 64)), 32)], ids=["64-then-32", "32-first"])
    def test_the_first_other_gain_in_row_order_is_named(self, chunk_lines, odd, other):
        # ingested in chunks, a cell's gains join in the order its rows meet them
        frames = session_frames([100_000] * 4)
        for i, gain in odd:
            frames[3 * 151 + i] = replace(frames[3 * 151 + i], gain=gain)
        with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
            ingested = FrameIngestor().ingest_lines(map(format_frame_line, frames))
        for source in (frames, ingested):
            with pytest.raises(GainMismatchError, match=f"^cell 3 has a frame of gain {other}, its calibration gain 128$"):
                run_session(source, [CAL] * 4, "static", P2, GEOM)

    def test_one_frame_of_another_gain_names_its_cell(self):
        frames = session_frames([100_000] * 4)
        frames[3 * 151 + 70] = replace(frames[3 * 151 + 70], gain=32)
        cals = [CAL, CAL, CAL, replace(CAL, gain=64)]
        with pytest.raises(GainMismatchError, match="^cell 3 has a frame of gain 128, its calibration gain 64$"):
            run_session(frames, cals, "static", P2, GEOM)
        with pytest.raises(GainMismatchError, match="^cell 3 has a frame of gain 32, its calibration gain 128$"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)


class TestRecordSerialization:
    def record(self):
        return run_session(session_frames([110_000, 90_000, 80_000, 70_000]), [CAL] * 4, "static", P2, GEOM)

    def test_line_round_trip(self):
        record = self.record()
        restored = WeighRecord.from_line(record.to_line())
        assert restored == record

    def test_reassess_reproduces_stored_assessment(self):
        record = self.record()
        restored = WeighRecord.from_line(record.to_line())
        assert restored.reassess() == record.assessment

    def test_deterministic_except_record_id(self):
        a, b = self.record(), self.record()
        da, db = json.loads(a.to_line()), json.loads(b.to_line())
        da.pop("record_id"), db.pop("record_id")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_record_id_is_twelve_lowercase_hex_digits(self):
        ids = [self.record().record_id for _ in range(20)]
        assert all(re.fullmatch("[0-9a-f]{12}", i) for i in ids), ids
        assert len(set(ids)) == len(ids)

    def test_bad_json_line(self):
        with pytest.raises(RecordParseError):
            WeighRecord.from_line("{not json", 3)


class TestRecordStore:
    def test_append_and_load(self, tmp_path):
        store = RecordStore(tmp_path / "data")
        record = run_session(session_frames([110_000] * 4), [CAL] * 4, "static", P2, GEOM)
        store.append(record)
        store.append(record)
        assert len(store.load_all()) == 2
        assert store.load(record.record_id) == record

    def test_append_only(self, tmp_path):
        store = RecordStore(tmp_path / "data")
        r1 = run_session(session_frames([110_000] * 4), [CAL] * 4, "static", P2, GEOM)
        store.append(r1)
        first = store.path.read_text()
        r2 = run_session(session_frames([50_000] * 4), [CAL] * 4, "static", P2, GEOM)
        store.append(r2)
        assert store.path.read_text().startswith(first)

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEIGHSIM_DATA_DIR", str(tmp_path / "elsewhere"))
        store = RecordStore()
        assert store.data_dir == tmp_path / "elsewhere"

    def test_unknown_record_id(self, tmp_path):
        with pytest.raises(RecordParseError):
            RecordStore(tmp_path / "data").load("deadbeef")
