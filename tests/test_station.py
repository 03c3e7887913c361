import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weighsim.calibration import CalibrationState
from weighsim.cog import DeckGeometry, LoadAssessment, POLICIES, TwoCellAssessment
from weighsim.compliance import AXLE_CONFIGURATIONS, KENYA_REVERIFICATION
from weighsim.errors import (
    IncompleteStationError,
    InsufficientDurationError,
    RecordParseError,
    SequencingError,
)
from weighsim.station import (
    CHUNK_LINES,
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
        with pytest.raises(RecordParseError):
            parse_frame_line("st1,0,1000,12345,128,2")

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
        st.integers(min_value=-(2**23), max_value=2**23 - 1),
        st.sampled_from([128, 64, 32]),
        st.booleans(),
    )
    def test_round_trip(self, station, cell, ts, code, gain, sat):
        rec = SensorFrameRecord(station, cell, ts, code, gain, sat)
        assert parse_frame_line(format_frame_line(rec)) == rec


class TestIngestor:
    def test_rejects_time_regression_per_cell(self):
        ing = FrameIngestor()
        ing.ingest("st1,0,1000,1,128,0")
        ing.ingest("st1,1,500,1,128,0")  # other cell: independent clock
        ing.ingest("st1,0,1000,2,128,0")  # equal timestamp is fine
        with pytest.raises(SequencingError):
            ing.ingest("st1,0,999,3,128,0")

    def test_ingest_lines_numbers_errors(self):
        ing = FrameIngestor()
        lines = ["st1,0,1000,1,128,0", "", "st1,0,garbage,1,128,0"]
        with pytest.raises(RecordParseError, match="line 3"):
            ing.ingest_lines(lines)

    def test_ingest_lines_returns_columns(self, tmp_path):
        path = tmp_path / "frames.txt"
        path.write_text("st1,0,1000,-5,128,0\n\n  st2,1,900,7,32,1  \nst1,0,1000,3,64,0\n")
        with open(path) as fh:
            batch = FrameIngestor().ingest_lines(fh)
        assert isinstance(batch, FrameBatch) and len(batch) == 3
        assert batch.station_ids == ("st1", "st2")
        assert batch.timestamp_ms.dtype == np.int64 and batch.saturated.dtype == bool
        assert [batch.row(i) for i in range(3)] == [
            SensorFrameRecord("st1", 0, 1000, -5, 128, False),
            SensorFrameRecord("st2", 1, 900, 7, 32, True),
            SensorFrameRecord("st1", 0, 1000, 3, 64, False),
        ]

    def test_ingest_returns_one_record(self):
        ing = FrameIngestor()
        assert ing.ingest("st1,2,5,6,128,1") == SensorFrameRecord("st1", 2, 5, 6, 128, True)
        with pytest.raises(RecordParseError, match="expected 6 fields, got 1"):
            ing.ingest("   ")

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

    def test_concat_merges_station_ids(self):
        a = FrameBatch.from_records([SensorFrameRecord("s2", 0, 1, 2), SensorFrameRecord("s1", 1, 1, 2)])
        b = FrameBatch.from_records([SensorFrameRecord("s1", 2, 3, 4, 64, True)])
        both = FrameBatch.concat([a, b])
        assert both.station_ids == ("s2", "s1")
        assert [both.row(i) for i in range(3)] == [a.row(0), a.row(1), b.row(0)]


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
        record = run_session(
            frames, [CAL] * 2, "static", POLICIES["prototype1"], GEOM, cell_count=2
        )
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
        frames = session_frames([110_000, 90_000, 80_000, 70_000])
        from_records = run_session(frames, [CAL] * 4, "static", P2, GEOM)
        from_batch = run_session(FrameBatch.from_records(frames[::-1]), [CAL] * 4, "static", P2, GEOM)
        assert from_batch.to_line().replace(from_batch.record_id, from_records.record_id) == from_records.to_line()

    def test_negative_cell_index_rejected(self):
        frames = session_frames([1000] * 4) + [SensorFrameRecord("st1", -1, 0, 1000)]
        with pytest.raises(IncompleteStationError, match="frame for cell -1 on a 4-cell station"):
            run_session(frames, [CAL] * 4, "static", P2, GEOM)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_session(session_frames([1] * 4), [CAL] * 4, "rolling", P2, GEOM)


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
