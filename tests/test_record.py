"""The record store: streaming lookups and the torn final line."""

import dataclasses
import json
import re
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from weighsim.calibration import CalibrationState
from weighsim.cli import main
from weighsim.cog import DeckGeometry, POLICIES
from weighsim.errors import RecordParseError, WeighSimError
from weighsim.record import json_line, to_json
from weighsim.station import RecordStore, SensorFrameRecord, WeighRecord, run_session

CAL = CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),))


def make_record(code=100_000):
    frames = [SensorFrameRecord("st1", cell, i * 100, code) for cell in range(4) for i in range(151)]
    return run_session(frames, [CAL] * 4, "static", POLICIES["prototype2"], DeckGeometry(2.0, 1.5))


@pytest.fixture
def store(tmp_path):
    """A store holding three records."""
    store = RecordStore(tmp_path / "data")
    for code in (100_000, 110_000, 120_000):
        store.append(make_record(code))
    return store


def ids(store):
    return [json.loads(line)["record_id"] for line in store.path.read_text().splitlines()]


def tear(store):
    """Append the first half of a record without its newline, as a crash mid-append leaves it."""
    with open(store.path, "a") as fh:
        fh.write(make_record().to_line()[:200])


class TestTornFinalLine:
    def test_load_all_and_load_skip_it(self, store):
        records = store.load_all()
        tear(store)
        assert store.load_all() == records
        assert store.torn_line == 4
        assert store.load(records[-1].record_id) == records[-1]

    def test_missing_id_still_fails(self, store):
        tear(store)
        with pytest.raises(RecordParseError, match="no record 'deadbeef'"):
            store.load("deadbeef")
        assert store.torn_line == 4

    def test_torn_line_after_blank_lines_is_numbered_in_the_file(self, store):
        with open(store.path, "a") as fh:
            fh.write("\n\n{\"record_id\": ")
        assert len(store.load_all()) == 3
        assert store.torn_line == 6

    def test_clean_store_has_no_torn_line(self, store):
        store.load_all()
        assert store.torn_line is None

    @pytest.mark.parametrize(
        "tail, line_no",
        [
            ("not json\n", 4),  # a bad line that ends in a newline was written whole
            ('{"record_id": "x"}', 4),  # valid JSON, so not torn: a bad record
            ("not json\n" + "{}", 4),  # the bad line is not the last one
        ],
    )
    def test_other_bad_lines_still_raise(self, store, tail, line_no):
        with open(store.path, "a") as fh:
            fh.write(tail)
        with pytest.raises(RecordParseError, match=f"^line {line_no}: "):
            store.load_all()

    def test_bad_middle_line_raises(self, store):
        lines = store.path.read_text().splitlines()
        store.path.write_text("\n".join([lines[0], lines[1][:100], lines[2]]))
        with pytest.raises(RecordParseError, match="^line 2: bad record JSON"):
            store.load_all()

    def test_assess_output_is_unchanged_by_a_torn_line(self, store, capsys):
        argv = ["assess", ids(store)[2], "--data-dir", str(store.data_dir)]
        code = main(argv)
        clean = capsys.readouterr()
        tear(store)
        assert main(argv) == code
        assert capsys.readouterr() == clean

    def test_assess_reports_the_torn_line_it_reads(self, store, capsys):
        tear(store)
        assert main(["assess", "deadbeef", "--data-dir", str(store.data_dir)]) == 1
        assert capsys.readouterr().err == (
            f"weighsim: warning: {store.path}:4: skipped a torn final line\n"
            f"weighsim: error: no record 'deadbeef' in {store.path}\n"
        )


class TestStreamingLookup:
    def test_parses_only_up_to_the_match(self, store, monkeypatch):
        parsed = []
        real = WeighRecord.from_line.__func__

        def counting(cls, line, line_no=None):
            parsed.append(line_no)
            return real(cls, line, line_no)

        monkeypatch.setattr(WeighRecord, "from_line", classmethod(counting))
        assert store.load(ids(store)[1]).record_id == ids(store)[1]
        assert parsed == [2]

    def test_corrupt_line_after_the_match_is_not_read(self, store):
        first = ids(store)[0]
        with open(store.path, "a") as fh:
            fh.write("not json\n")
        assert store.load(first).record_id == first
        with pytest.raises(RecordParseError, match="^line 4: "):
            store.load("deadbeef")

    def test_corrupt_line_before_the_match_raises(self, store):
        lines = store.path.read_text().splitlines()
        store.path.write_text("\n".join([lines[0], "not json", lines[1], ""]))
        with pytest.raises(RecordParseError, match="^line 2: "):
            store.load(json.loads(lines[1])["record_id"])

    def test_line_numbers_match_splitlines_of_the_whole_text(self, store):
        # \x1c separates lines for str.splitlines, though not for file iteration
        lines = store.path.read_text().splitlines()
        store.path.write_text(lines[0] + "\x1c\n" + lines[1] + "\x1cnot json\n")
        with pytest.raises(RecordParseError, match="^line 4: "):
            store.load_all()


class TestLookupSkipsLinesThatCannotHoldTheId:
    """`load(id)` leaves unparsed a `{...}` line with neither a backslash nor
    the id, so a bad one before the match goes unreported; `load_all` and
    `assess PATH` still read every line."""

    @pytest.mark.parametrize(
        "make_bad", [lambda line: '{"record_id": "x"}', lambda line: line[:100] + line[-100:]], ids=["other_id", "cut"]
    )
    def test_framed_bad_line_before_the_match(self, store, capsys, make_bad):
        lines = store.path.read_text().splitlines()  # lines[0] is the safe record
        store.path.write_text(make_bad(lines[1]) + "\n" + lines[0] + "\n")
        first = json.loads(lines[0])["record_id"]
        assert store.load(first).to_line() == lines[0]
        assert main(["assess", first, "--data-dir", str(store.data_dir)]) == 0
        assert capsys.readouterr() == (lines[0] + "\n", "")
        with pytest.raises(RecordParseError, match="^line 1: "):
            store.load_all()

    def test_appends_after_a_torn_write(self, store, capsys):
        tear(store)  # line 4 is cut short
        after, later = make_record(), make_record()
        store.append(after)  # finishes line 4
        store.append(later)  # line 5
        assert main(["assess", later.record_id, "--data-dir", str(store.data_dir)]) == 0
        assert capsys.readouterr() == (later.to_line() + "\n", "")
        assert main(["assess", after.record_id, "--data-dir", str(store.data_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("weighsim: error: line 4: bad record JSON")


class TestNonObjectValues:
    @pytest.mark.parametrize("value", ["5", "[1]", '"x"', "null"])
    def test_record_that_is_not_an_object(self, store, value):
        with open(store.path, "a") as fh:
            fh.write(value + "\n")
        for read in (store.load_all, lambda: store.load("deadbeef")):
            with pytest.raises(RecordParseError, match="^line 4: record is not a JSON object$"):
                read()

    @pytest.mark.parametrize("field", ["geometry", "policy", "assessment"])
    @pytest.mark.parametrize("value", [5, [1], "x", None])
    def test_field_that_is_not_an_object(self, store, field, value):
        obj = json.loads(store.path.read_text().splitlines()[0])
        obj[field] = value
        store.path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(RecordParseError, match=f"^line 1: field '{field}' is not a JSON object$"):
            store.load(obj["record_id"])


class TestFieldTypes:
    """A hand-edited field of the wrong JSON type is a RecordParseError at its
    line, through `load`, `load_all` and `assess`, not a crash in `assess`."""

    CASES = [
        # (path to the field, value, what the error calls the field)
        (("compliance",), [5], "field 'compliance' of record"),
        (("cell_masses_kg",), "abcd", "field 'cell_masses_kg' of record"),
        (("cell_masses_kg",), [1.0, "a", 1.0, 1.0], "field 'cell_masses_kg' of record"),
        (("started_at_ms",), 1.5, "field 'started_at_ms' of record"),
        (("mode",), None, "field 'mode' of record"),
        (("geometry", "wheelbase_m"), "2", "field 'wheelbase_m' of field 'geometry'"),
        (("geometry", "breadth_m"), True, "field 'breadth_m' of field 'geometry'"),
        (("assessment", "overloaded"), 0, "field 'overloaded' of field 'assessment'"),
        (("assessment", "quadrant_pct"), [25.0, 25.0, 50.0], "field 'quadrant_pct' of field 'assessment'"),
    ]

    @staticmethod
    def edit(store, path, value):
        """Set the field at `path` of the second record to `value`; its id."""
        lines = store.path.read_text().splitlines()
        obj = json.loads(lines[1])
        *outer, name = path
        target = obj
        for key in outer:
            target = target[key]
        target[name] = value
        lines[1] = json.dumps(obj)
        store.path.write_text("\n".join(lines) + "\n")
        return obj["record_id"]

    @pytest.mark.parametrize("path, value, what", CASES)
    def test_wrong_json_type(self, store, capsys, path, value, what):
        record_id = self.edit(store, path, value)
        message = f"line 2: {what} has the wrong JSON type: {value!r}"
        for argv in (["assess", record_id, "--data-dir", str(store.data_dir)], ["assess", str(store.path)]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"weighsim: error: {message}\n")
        for read in (store.load_all, lambda: store.load(record_id)):
            with pytest.raises(RecordParseError, match=f"^{re.escape(message)}$"):
                read()
        # the lookup of a later record still skips the edited line unparsed
        assert store.load(ids(store)[2]).record_id == ids(store)[2]

    @pytest.mark.parametrize("entries", [[{}], [{"passed": 1}], [{"passed": True}, {"passed": None}]])
    def test_compliance_entry_without_a_boolean_passed(self, store, capsys, entries):
        record_id = self.edit(store, ("compliance",), entries)
        assert main(["assess", record_id, "--data-dir", str(store.data_dir)]) == 1
        message = "line 2: a compliance entry has no boolean 'passed'"
        assert capsys.readouterr() == ("", f"weighsim: error: {message}\n")
        with pytest.raises(RecordParseError, match=f"^{message}$"):
            store.load_all()

    def test_an_int_may_stand_for_a_float(self, store):
        record_id = self.edit(store, ("geometry", "wheelbase_m"), 2)
        assert store.load(record_id).geometry.wheelbase_m == 2


@cache
def base_records():
    return tuple(make_record(code) for code in (100_000, 110_000, 120_000))


def reference_load(path, record_id):
    """(result, torn_line) of a lookup that parses every non-blank line up to
    the match in full: the result is the record or the error's (type, message)."""
    text = path.read_text()
    lines = text.splitlines()
    torn = None
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line_no == len(lines) and not text.endswith("\n") and not is_json(line):
            torn = line_no
            continue
        try:
            record = WeighRecord.from_line(line, line_no)
        except RecordParseError as exc:
            return (RecordParseError, str(exc)), None
        if record.record_id == record_id:
            return record, None
    return (RecordParseError, f"no record {record_id!r} in {path}"), torn


def is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def lookup(store, record_id):
    try:
        result = store.load(record_id)
    except WeighSimError as exc:
        result = (type(exc), str(exc))
    return result, store.torn_line


#: Text of ids: JSON escapes ('"', backslash), non-ASCII, and the braces and
#: punctuation of the lines around them.
ID_TEXT = st.text('ab"\\é€😀{}:, ', max_size=4)
#: Line ends that str.splitlines() honours, not only newlines.
ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x1c\n", "\x85", "\u2028"])
LINES = st.one_of(
    # a record under a drawn id and station, written ASCII-escaped or as it is
    st.tuples(st.integers(0, 2), ID_TEXT, ID_TEXT, st.booleans()),
    st.sampled_from(["", "  ", "not json", "5", "[1]", "{"]),
)


class TestLookupMatchesFullParse:
    """`load(id)` against a lookup that parses every line up to the match."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return RecordStore(tmp_path_factory.mktemp("data"))

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.tuples(LINES, ENDS), max_size=8),
        torn=st.none() | st.tuples(st.integers(0, 2), st.floats(0, 1)),
        data=st.data(),
    )
    def test_same_record_torn_line_and_error(self, store, entries, torn, data):
        texts, present = [], []
        for entry, end in entries:
            if isinstance(entry, tuple):
                base, record_id, station_id, ascii = entry
                record = dataclasses.replace(base_records()[base], record_id=record_id, station_id=station_id)
                present.append(record_id)
                obj = to_json(record)
                entry = json_line(obj) if ascii else json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
            texts.append(entry + end)
        if torn is not None:
            line = base_records()[torn[0]].to_line()
            texts.append(line[: 1 + int(torn[1] * (len(line) - 2))])
        store.path.write_text("".join(texts), newline="")
        record_id = data.draw(st.sampled_from(present) | ID_TEXT if present else ID_TEXT)
        assert lookup(store, record_id) == reference_load(store.path, record_id)


class TestAssessFile:
    """`assess PATH`: a record file named on the command line."""

    @pytest.fixture
    def lines(self, store):
        # totals 400 kg (safe), 440 and 480 kg (overloaded)
        return store.path.read_text().splitlines()

    def assess(self, capsys, *argv):
        code = main(["assess", *map(str, argv)])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_one_record(self, tmp_path, lines, capsys):
        path = tmp_path / "one.ndjson"
        path.write_text(lines[0] + "\n")
        assert self.assess(capsys, path) == (0, lines[0] + "\n", "")

    def test_several_records_print_the_last(self, store, lines, capsys):
        assert self.assess(capsys, store.path) == (2, lines[2] + "\n", "")

    def test_record_id_picks_its_record(self, store, lines, capsys):
        assert self.assess(capsys, store.path, "--record-id", ids(store)[0]) == (0, lines[0] + "\n", "")

    def test_unknown_record_id(self, store, capsys):
        assert self.assess(capsys, store.path, "--record-id", "deadbeef") == (
            1, "", f"weighsim: error: no record 'deadbeef' in {store.path}\n"
        )

    def test_file_without_records(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text("\n  \n")
        assert self.assess(capsys, path) == (1, "", f"weighsim: error: {path} holds no records\n")

    def test_errors_name_the_physical_line(self, tmp_path, lines, capsys):
        path = tmp_path / "blank.ndjson"
        path.write_text(lines[0] + "\n\nnot json\n")
        code, out, err = self.assess(capsys, path)
        assert (code, out) == (1, "")
        assert err.startswith("weighsim: error: line 3: bad record JSON")

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path, lines, capsys):
        path = tmp_path / "torn.ndjson"
        path.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[2][:200])
        assert self.assess(capsys, path) == (
            2, lines[1] + "\n", f"weighsim: warning: {path}:3: skipped a torn final line\n"
        )

    def test_torn_final_line_is_reported_when_no_record_matches(self, tmp_path, lines, capsys):
        path = tmp_path / "torn.ndjson"
        path.write_text(lines[0] + "\n" + lines[1][:200])
        assert self.assess(capsys, path, "--record-id", "deadbeef") == (
            1,
            "",
            f"weighsim: warning: {path}:2: skipped a torn final line\n"
            f"weighsim: error: no record 'deadbeef' in {path}\n",
        )
