"""Fuzz every input file of the CLI: one value replaced, then `main` in process.

Each surface is a valid file, the regular expression of the values it
holds, and the commands that read it. A mutation replaces one of those
values with an extreme float, a 5,000-digit integer, junk text or bytes no
UTF-8 text contains. Whatever the input, `main` must end in one of the
three exit codes, with no exception and no warning: exit 1 with one
`weighsim: error:` line on stderr (replay may instead name the bad trace
line as `PATH:N:`), exit 0 or 2 with one strict JSON line on stdout.
"""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from weighsim.cli import main
from weighsim.codec import encode_frame
from weighsim.sensor import CODE_MAX, CODE_MIN, AdcFrame

#: What a mutation puts in place of one value.
REPLACEMENTS = st.one_of(
    st.sampled_from(
        [b"1e308", b"-1e308", b"5e-324", b"-0.0", b"1" * 5000, b"nan", b"Infinity", b"", b"\xff", b"\xc3(", b"1\x80"]
    ),
    st.text(max_size=6).map(str.encode),
)

#: A number in a `key = value` file (not the digit of a key such as `ref_code_0`).
NUMBER = rb"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"
#: A JSON scalar.
JSON_SCALAR = rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null'

SPEC = b"""capacity_kg = 120.0
rated_output_mv_v = 2.0
excitation_v = 5.0
zero_offset_mv = 0.01
nonlinearity = 0.001
noise_sigma_mv = 0.002
temp_coeff_zero_mv_c = 0.0001
temp_coeff_span_per_c = 1e-05
reference_temp_c = 20.0
"""

SCENARIO = b"""wheelbase_m = 2.0
track_m = 1.5
breadth_m = 1.25
curb_fl_kg = 25
curb_fr_kg = 25.5
curb_rl_kg = 24
curb_rr_kg = 25
temperature_c = 22.5
noise_seed = 42
placement = 60.0 @ 0.8, 0.9
placement = 20 @ 1.5, 0.25
"""

STATION = b"""wheelbase_m = 2.0
track_m = 1.5
breadth_m = 1.5
overload_threshold_kg = 400.0
quadrant_threshold_pct = 30.0
"""

RULES = b"""Kenya/first_time = anchors 80:10 400:40
NewZealand/acceptance = band 10:40 40
US/acceptance = percent 0.1
"""

AXLES = b"""9 = 9, 60000
3A = 3, 26000.5
"""

# Two cells for 15 s at 2 Sa/s, about 56 kg each on the calibration below.
FRAMES = b"".join(b"ws,%d,%d,%d,128,0\n" % (cell, t, 1_000_000 + cell) for cell in (0, 1) for t in range(0, 15_001, 500))

TRACE = b"".join(
    encode_frame(AdcFrame(code, gain, channel)).to_line().encode() + b"\n"
    for code, gain, channel in [(0, 128, "A"), (CODE_MAX, 64, "A"), (-1, 32, "B"), (CODE_MIN, 128, "A")]
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the fixed inputs, a calibration made by `calibrate`
    and a record file made by `weigh`."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "spec.cfg").write_bytes(b"capacity_kg = 120\n")
    (work / "scenario.cfg").write_bytes(SCENARIO)
    (work / "frames.txt").write_bytes(FRAMES)
    argv = ["calibrate", "--cell-spec", work / "spec.cfg", "--known-mass", "100", "--out", work / "cal.cfg"]
    assert run(argv)[0] == 0
    argv = [
        "weigh", "--mode", "static", "--cells", "2", "--frames", work / "frames.txt",
        "--cal", work / "cal.cfg", work / "cal.cfg", "--data-dir", work / "records",
        "--jurisdiction", "US", "--kind", "acceptance", "--reference", "110", "--axle-config", "2",
    ]
    assert run(argv)[0] == 2  # the tolerance check fails: 112 kg against 110 kg
    return work


def run(argv):
    """(exit code, stdout, stderr) of `main`, every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def mutated(base: bytes, value: bytes):
    """`base` with one match of `value` replaced by one of `REPLACEMENTS`."""
    spans = [m.span() for m in re.finditer(value, base)]
    assert spans
    return st.tuples(st.sampled_from(spans), REPLACEMENTS).map(lambda s: base[: s[0][0]] + s[1] + base[s[0][1] :])


def reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def check(code, out, err, replay=False):
    assert code in (0, 1, 2)
    if code == 1:
        assert err.count("\n") == 1
        assert err.startswith("weighsim: error: ") or replay and re.match(r"[^\n]*:\d+: ", err)
        if not replay:
            assert out == ""
    else:
        assert err == ""
        if replay:
            assert all(re.fullmatch(r"\d+,-?\d+,(128,A|64,A|32,B),[01]", row) for row in out.splitlines())
        else:
            assert out.count("\n") == 1
            json.loads(out, parse_constant=reject_constant)


def commands(work, path):
    """The command lines that read each surface, `path` its mutated file."""
    cal, frames, scenario = work / "cal.cfg", work / "frames.txt", work / "scenario.cfg"
    weigh = ["weigh", "--mode", "static", "--cells", "2", "--data-dir", work / "records"]
    return {
        "cell_spec": [
            ["simulate", scenario, "--cell-spec", path],
            ["calibrate", "--cell-spec", path, "--known-mass", "100", "--out", work / "out.cfg"],
        ],
        "calibration": [[*weigh, "--frames", frames, "--cal", path, cal], [*weigh, "--frames", frames, "--cal", cal, path]],
        "scenario": [["simulate", path]],
        "station_config": [["simulate", scenario, "--config", path], [*weigh, "--frames", frames, "--cal", cal, cal, "--config", path]],
        "tolerance_table": [
            ["rules", "--jurisdiction", "Kenya", "--kind", "first_time", "--capacity", "240", "--rules-file", path],
            ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--measured", "100.05", "--reference", "100", "--rules-file", path],
        ],
        "axle_table": [["rules", "--axle-config", "9", "--total", "56000", "--axle-file", path]],
        "frames": [[*weigh, "--frames", path, "--cal", cal, cal]],
        "bit_trace": [["replay", path]],
        "record_file": [["assess", path]],
    }


def surfaces(work):
    """Each surface's valid file and the regular expression of its values."""
    record = (work / "records" / "records.ndjson").read_bytes().splitlines(keepends=True)[0]
    return {
        "cell_spec": (SPEC, NUMBER),
        "calibration": ((work / "cal.cfg").read_bytes(), NUMBER),
        "scenario": (SCENARIO, NUMBER),
        "station_config": (STATION, NUMBER),
        "tolerance_table": (RULES, NUMBER),
        "axle_table": (AXLES, NUMBER),
        "frames": (FRAMES, rb"[^,\n]+"),
        "bit_trace": (TRACE, rb"[01]+"),
        "record_file": (record, JSON_SCALAR),
    }


SURFACES = [
    "cell_spec", "calibration", "scenario", "station_config", "tolerance_table", "axle_table",
    "frames", "bit_trace", "record_file",
]


@pytest.mark.parametrize("surface", SURFACES)
def test_every_surface_accepts_its_valid_file(work, surface):
    path = work / f"valid-{surface}"
    path.write_bytes(surfaces(work)[surface][0])
    for argv in commands(work, path)[surface]:
        code, out, err = run(argv)
        assert code in (0, 2), err
        check(code, out, err, replay=argv[0] == "replay")


@pytest.mark.parametrize("surface", SURFACES)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_bad_value_ends_in_a_clean_exit(work, surface, data):
    path = work / f"mutated-{surface}"
    path.write_bytes(data.draw(mutated(*surfaces(work)[surface])))
    argv = data.draw(st.sampled_from(commands(work, path)[surface]))
    check(*run(argv), replay=argv[0] == "replay")
