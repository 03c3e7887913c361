"""Cold start: which commands load numpy, and the lazy public names."""

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

#: Each child step runs `main` on one argv and reports its exit code and
#: whether numpy is loaded afterwards.
CHILD = """
import contextlib, io, json, sys
import weighsim.cli
report = [["import", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = weighsim.cli.main(argv)
    report.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(report))
"""


CAL = CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),))


def run_child(steps, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(weighsim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(steps)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_replay_assess_and_rules_load_no_numpy(tmp_path):
    (tmp_path / "trace.txt").write_text(encode_frame(AdcFrame(-123, gain=64)).to_line() + "\n")
    frames = [SensorFrameRecord("st1", cell, i * 100, 100_000) for cell in range(4) for i in range(151)]
    record = run_session(frames, [CAL] * 4, "static", POLICIES["prototype2"], DeckGeometry(2.0, 1.5))
    RecordStore(tmp_path / "records").append(record)
    steps = [
        ["replay", "trace.txt"],
        ["assess", record.record_id, "--data-dir", "records"],
        ["assess", "records/records.ndjson"],
        ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "20"],
        ["rules", "--axle-config", "7", "--total", "50000"],
        ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--measured", "10", "--reference", "10"],
    ]
    report = run_child(steps, tmp_path)
    assert report == [["import", None, False]] + [[argv[0], 0, False] for argv in steps]


def test_weigh_and_simulate_load_numpy(tmp_path):
    cal = tmp_path / "cal.cfg"
    CAL.to_file(cal)
    frames = "".join(f"st9,{c},{t},10000,128,0\n" for t in range(0, 15_001, 100) for c in range(4))
    (tmp_path / "frames.txt").write_text(frames)
    weigh = ["weigh", "--mode", "static", "--frames", "frames.txt", "--cal", *[str(cal)] * 4]
    for argv in (weigh, ["simulate", str(DEMOS / "scenarios" / "balanced.cfg")]):
        assert run_child([argv], tmp_path) == [["import", None, False], [argv[0], 0, True]]


#: The public names of the package and the submodule each comes from.
PUBLIC = {
    "errors": "WeighSimError",
    "sensor": "AdcConfig AdcFrame BridgeReading FOUR_CELL_120KG LoadCellSpec TWO_CELL_5KG add_noise"
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
