"""Cold start: the modules each command loads, and the lazy public names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import weighsim
from weighsim.calibration import CalibrationState
from weighsim.codec import encode_frame
from weighsim.cog import DeckGeometry, POLICIES
from weighsim.record import RecordStore
from weighsim.sensor import AdcFrame
from weighsim.station import SensorFrameRecord, run_session

DEMOS = Path(__file__).resolve().parents[1] / "demos"

#: A fresh child imports the CLI, runs `main` on the argv given (if any)
#: and reports its exit code, the weighsim modules then loaded, and whether
#: numpy, uuid, dataclasses, inspect and hashlib are.
CHILD = """
import contextlib, io, json, sys
import weighsim.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = weighsim.cli.main(sys.argv[1:])
modules = sorted(m.removeprefix("weighsim.") for m in sys.modules if m.split(".")[0] == "weighsim")
print(json.dumps([code, modules, *(m in sys.modules for m in ("numpy", "uuid", "dataclasses", "inspect", "hashlib"))]))
"""

CAL = CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),))

#: What `import weighsim.cli` loads of the package, and what each command adds.
CLI = ["cli", "errors", "kvfile", "weighsim"]
REPLAY = sorted(CLI + ["codec"])
ASSESS = sorted(CLI + ["cog", "record", "schema"])
RULES = sorted(CLI + ["cog", "compliance", "record", "schema"])
WEIGH = sorted(CLI + ["calibration", "codec", "cog", "compliance", "record", "schema", "station"])


def run_child(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(weighsim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_errors_and_kvfile_only(tmp_path):
    assert run_child([], tmp_path) == [None, CLI, False, False, False, False, False]


def test_replay_assess_and_rules_load_no_numpy(tmp_path):
    """Each command, in a fresh child, loads no numpy and exactly its own
    modules, and neither dataclasses nor inspect: the schema classes of
    `cog`, `compliance` and `record` derive from `schema.FrozenRecord`."""
    (tmp_path / "trace.txt").write_text(encode_frame(AdcFrame(-123, gain=64)).to_line() + "\n")
    frames = [SensorFrameRecord("st1", cell, i * 100, 100_000) for cell in range(4) for i in range(151)]
    record = run_session(frames, [CAL] * 4, "static", POLICIES["prototype2"], DeckGeometry(2.0, 1.5))
    RecordStore(tmp_path / "records").append(record)
    steps = [
        (["replay", "trace.txt"], REPLAY),
        (["assess", record.record_id, "--data-dir", "records"], ASSESS),
        (["assess", "records/records.ndjson"], ASSESS),
        (["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "20"], RULES),
        (["rules", "--axle-config", "7", "--total", "50000"], RULES),
        (["rules", "--jurisdiction", "US", "--kind", "acceptance", "--measured", "10", "--reference", "10"], RULES),
    ]
    for argv, modules in steps:
        assert run_child(argv, tmp_path) == [0, modules, False, False, False, False, False], argv


def weigh_argv(tmp_path):
    """A `weigh` of a good four-cell capture in `tmp_path`."""
    cal = tmp_path / "cal.cfg"
    CAL.to_file(cal)
    frames = "".join(f"st9,{c},{t},10000,128,0\n" for t in range(0, 15_001, 100) for c in range(4))
    (tmp_path / "frames.txt").write_text(frames)
    return ["weigh", "--mode", "static", "--frames", "frames.txt", "--cal", *[str(cal)] * 4]


def test_weigh_loads_no_numpy_and_simulate_does(tmp_path):
    """`weigh` reads, checks and averages its frames without numpy, on a
    good capture and on one whose last line fails; `simulate` runs the
    sensor model, which loads it. Neither loads uuid: a record id comes
    from os.urandom."""
    weigh = weigh_argv(tmp_path)
    with open(tmp_path / "frames.txt") as fh:
        (tmp_path / "bad.txt").write_text(fh.read() + "st9,0,15100,8388607,128,0\n")
    bad_weigh = [*weigh[:3], "--frames", "bad.txt", *weigh[5:]]
    for argv, expected in [
        (weigh, (0, False, False)),
        (bad_weigh, (1, False, False)),
        (["simulate", str(DEMOS / "scenarios" / "balanced.cfg")], (0, True, False)),
    ]:
        code, _, numpy_loaded, uuid_loaded, *_ = run_child(argv, tmp_path)
        assert (code, numpy_loaded, uuid_loaded) == expected, argv


def test_weigh_and_a_bad_replay_load_no_sensor_model(tmp_path):
    """`weigh` takes the code range and the gains from `codec`, and `replay`
    imports the sensor model (and with it numpy) only for a line that
    `decode_frame` decodes: replaying a trace with a bad line loads neither.
    Neither loads dataclasses, inspect or hashlib: a calibration's
    fingerprint takes SHA-256 from the interpreter's own module."""
    assert run_child(weigh_argv(tmp_path), tmp_path) == [0, WEIGH, False, False, False, False, False]
    (tmp_path / "bad.txt").write_text("0" * 25 + "\n" + "0" * 24 + "1111\n")
    assert run_child(["replay", "bad.txt"], tmp_path) == [1, REPLAY, False, False, False, False, False]


#: The public names of the package and the submodule each comes from.
PUBLIC = {
    "errors": "WeighSimError",
    "sensor": "AdcConfig AdcFrame FOUR_CELL_120KG LoadCellSpec TWO_CELL_5KG add_noise"
    " bridge_output quantize",
    "codec": "BitTrace decode_frame encode_frame",
    "calibration": "CalibrationState calibrate code_to_mass tare",
    "cog": "AlertPolicy DeckGeometry FourCellReading LoadAssessment POLICIES TwoCellAssessment"
    " assess_four_cell assess_two_cell classify policy render_lcd",
    "compliance": "AXLE_CONFIGURATIONS AxleConfiguration ComplianceResult KENYA_FIRST_TIME KENYA_REVERIFICATION"
    " NZ_BAND ToleranceRule US_HANDBOOK44 check_compliance max_permissible_error"
    " simulate_weigh_stream static_weigh wim_weigh within_gvw_limit",
    "scenario": "Placement Scenario centroid corner_loads ideal_calibration run_end_to_end total_mass",
    "station": "FrameIngestor RecordStore SensorFrameRecord WeighRecord format_frame_line parse_frame_line"
    " run_session",
}


def test_public_names_are_their_submodule_objects():
    modules = {name: importlib.import_module(f"weighsim.{name}") for name in PUBLIC}
    before = dict(vars(weighsim))
    expected = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert sorted(weighsim.__all__) == sorted(expected)
    for name, module in expected.items():
        assert getattr(weighsim, name) is getattr(modules[module], name), name
    namespace = {}
    exec("from weighsim import *", namespace)
    assert {k: v for k, v in namespace.items() if k != "__builtins__"}.keys() == expected.keys()
    # resolving a name stores nothing in the package
    assert vars(weighsim).keys() == before.keys()
    assert all(vars(weighsim)[k] is v for k, v in before.items())
    assert set(weighsim.__all__) <= set(dir(weighsim))
