"""Golden bytes: persisted records, spec/calibration files and `simulate`
output, pinned as literals so that a serializer refactor cannot change them."""

import dataclasses
from pathlib import Path

import pytest

from weighsim.calibration import CalibrationState
from weighsim.cli import main
from weighsim.cog import POLICIES, DeckGeometry
from weighsim.compliance import AXLE_CONFIGURATIONS, BUILTIN_RULES
from weighsim.sensor import LoadCellSpec
from weighsim.station import SensorFrameRecord, WeighRecord, run_session

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

CAL = CalibrationState(
    tare_code=-1234,
    scale_kg_per_lsb=0.0011,
    calibrated_at_temp_c=21.5,
    reference_points=((120.0, 107857), (60.0, 53311)),
)
GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5, breadth_m=1.25)

FOUR_CELL_LINE = (
    '{"record_id":"golden4cell","station_id":"st7","started_at_ms":0,"ended_at_ms":16000,'
    '"mode":"static","cell_masses_kg":[100.3585,78.3607,133.36510000000004,34.3695],'
    '"geometry":{"wheelbase_m":2.0,"track_m":1.5,"breadth_m":1.25},'
    '"policy":{"overload_threshold_kg":400.0,"quadrant_threshold_pct":30.0},'
    '"assessment":{"kind":"four_cell","total_kg":346.45380000000006,"x_cg_m":0.9682941852564471,'
    '"y_cg_m":1.0119253995770865,"centreline_offset_m":0.2619253995770865,"front_kg":178.7192,'
    '"rear_kg":167.73460000000006,"left_kg":233.72360000000003,"right_kg":112.7302,'
    '"quadrant_pct":[28.96735437740905,22.6179363597686,38.49433892773005,9.920370335092297],'
    '"overloaded":false,"flagged_quadrants":["RL"],"front_heavy":true,"rear_heavy":false,'
    '"left_heavy":true,"right_heavy":false},'
    '"calibration_fingerprint":"5b2255c870589724+5b2255c870589724+5b2255c870589724+5b2255c870589724",'
    '"compliance":[{"check":"tolerance","jurisdiction":"US","verification_kind":"acceptance",'
    '"reference_kg":340.0,"error_kg":6.453800000000058,"max_error_kg":0.34,"passed":false},'
    '{"check":"gvw","config_code":"2","gvw_limit_kg":18000,"measured_kg":346.45380000000006,"passed":true}]}'
)
TWO_CELL_LINE = (
    '{"record_id":"golden2cell","station_id":"st7","started_at_ms":0,"ended_at_ms":16000,'
    '"mode":"static","cell_masses_kg":[4.658500000000001,3.5607],'
    '"geometry":{"wheelbase_m":2.0,"track_m":1.5,"breadth_m":1.25},'
    '"policy":{"overload_threshold_kg":9.5,"quadrant_threshold_pct":30.0},'
    '"assessment":{"kind":"two_cell","total_kg":8.2192,"lateral_offset_m":0.0834783190578159,'
    '"overloaded":false,"left_heavy":true,"right_heavy":false},'
    '"calibration_fingerprint":"5b2255c870589724+5b2255c870589724",'
    '"compliance":[{"check":"tolerance","jurisdiction":"US","verification_kind":"acceptance",'
    '"reference_kg":5.5,"error_kg":2.7192000000000007,"max_error_kg":0.0055,"passed":false},'
    '{"check":"gvw","config_code":"2","gvw_limit_kg":18000,"measured_kg":8.2192,"passed":true}]}'
)
ZERO_LOAD_LINE = (
    '{"record_id":"goldenzero","station_id":"st7","started_at_ms":0,"ended_at_ms":16000,'
    '"mode":"static","cell_masses_kg":[0.0,0.0,0.0,0.0],'
    '"geometry":{"wheelbase_m":2.0,"track_m":1.5,"breadth_m":1.25},'
    '"policy":{"overload_threshold_kg":400.0,"quadrant_threshold_pct":30.0},'
    '"assessment":{"kind":"four_cell","total_kg":0.0,"x_cg_m":null,"y_cg_m":null,'
    '"centreline_offset_m":null,"front_kg":0.0,"rear_kg":0.0,"left_kg":0.0,"right_kg":0.0,'
    '"quadrant_pct":[0.0,0.0,0.0,0.0],"overloaded":false,"flagged_quadrants":[],'
    '"front_heavy":false,"rear_heavy":false,"left_heavy":false,"right_heavy":false},'
    '"calibration_fingerprint":"5b2255c870589724+5b2255c870589724+5b2255c870589724+5b2255c870589724",'
    '"compliance":[{"check":"tolerance","jurisdiction":"US","verification_kind":"acceptance",'
    '"reference_kg":1000.0,"error_kg":1000.0,"max_error_kg":1.0,"passed":false},'
    '{"check":"gvw","config_code":"2","gvw_limit_kg":18000,"measured_kg":0.0,"passed":true}]}'
)


def golden_record(codes, record_id, policy, reference_kg, wiggle=True):
    """A static session over 16 s of frames, codes jittering by ±1 LSB
    unless `wiggle` is off, with tolerance and GVW checks."""
    frames = [
        SensorFrameRecord("st7", cell, t, code + wiggle * ((t // 100) % 3 - 1))
        for t in range(0, 16_001, 100)
        for cell, code in enumerate(codes)
    ]
    record = run_session(
        frames,
        [CAL] * len(codes),
        "static",
        POLICIES[policy],
        GEOM,
        tolerance_rule=BUILTIN_RULES[("US", "acceptance")],
        reference_kg=reference_kg,
        axle_config=AXLE_CONFIGURATIONS["2"],
    )
    return dataclasses.replace(record, record_id=record_id)


RECORDS = [
    (([90_001, 70_003, 120_007, 30_011], "golden4cell", "prototype2", 340.0), FOUR_CELL_LINE),
    (([3_001, 2_003], "golden2cell", "prototype1", 5.5), TWO_CELL_LINE),
    (([-1234] * 4, "goldenzero", "prototype2", 1000.0, False), ZERO_LOAD_LINE),
]


@pytest.mark.parametrize("args, line", RECORDS, ids=["four_cell", "two_cell", "zero_load"])
def test_record_line_bytes(args, line):
    record = golden_record(*args)
    assert record.to_line() == line
    restored = WeighRecord.from_line(line)
    assert restored == record
    assert restored.to_line() == line
    assert restored.reassess() == record.assessment


def test_cell_spec_file_bytes(tmp_path):
    spec = LoadCellSpec(
        capacity_kg=120.0,
        rated_output_mv_v=2.5,
        zero_offset_mv=-0.125,
        nonlinearity=0.001,
        noise_sigma_mv=0.002,
        temp_coeff_zero_mv_c=1e-4,
        temp_coeff_span_per_c=-2e-5,
        reference_temp_c=20.0,
    )
    spec.to_file(tmp_path / "cell.cfg")
    assert (tmp_path / "cell.cfg").read_text() == (
        "# load cell parameters\ncapacity_kg = 120.0\nrated_output_mv_v = 2.5\n"
        "excitation_v = 5.0\nzero_offset_mv = -0.125\nnonlinearity = 0.001\n"
        "noise_sigma_mv = 0.002\ntemp_coeff_zero_mv_c = 0.0001\n"
        "temp_coeff_span_per_c = -2e-05\nreference_temp_c = 20.0\n"
    )
    assert LoadCellSpec.from_file(tmp_path / "cell.cfg") == spec


def test_calibration_file_bytes(tmp_path):
    CAL.to_file(tmp_path / "cal.cfg")
    assert (tmp_path / "cal.cfg").read_text() == (
        "# cell calibration\ntare_code = -1234\nscale_kg_per_lsb = 0.0011\n"
        "calibrated_at_temp_c = 21.5\nref_mass_kg_0 = 120.0\nref_code_0 = 107857\n"
        "ref_mass_kg_1 = 60.0\nref_code_1 = 53311\n"
    )
    assert CalibrationState.from_file(tmp_path / "cal.cfg") == CAL


SIMULATE = {
    "balanced.cfg": (
        0,
        '{"kind":"four_cell","total_kg":99.99988824130936,"x_cg_m":1.0,"y_cg_m":0.75,'
        '"centreline_offset_m":0.0,"front_kg":49.99994412065468,"rear_kg":49.99994412065468,'
        '"left_kg":49.99994412065468,"right_kg":49.99994412065468,"quadrant_pct":[25.0,25.0,25.0,25.0],'
        '"overloaded":false,"flagged_quadrants":[],"front_heavy":false,"rear_heavy":false,'
        '"left_heavy":false,"right_heavy":false}\n',
    ),
    "corner_heavy.cfg": (
        2,
        '{"kind":"four_cell","total_kg":230.00000000000003,"x_cg_m":0.47826111251889264,'
        '"y_cg_m":1.1739130434782608,"centreline_offset_m":0.42391304347826075,'
        '"front_kg":174.99997206032737,"rear_kg":55.00002793967266,"left_kg":180.0,"right_kg":50.0,'
        '"quadrant_pct":[63.47825601049171,12.608688363563655,14.782613554725678,9.130442071218955],'
        '"overloaded":false,"flagged_quadrants":["FL"],"front_heavy":true,"rear_heavy":false,'
        '"left_heavy":true,"right_heavy":false}\n',
    ),
    "overloaded.cfg": (
        2,
        '{"kind":"four_cell","total_kg":499.9998882413094,"x_cg_m":1.0,"y_cg_m":0.75,'
        '"centreline_offset_m":0.0,"front_kg":249.9999441206547,"rear_kg":249.9999441206547,'
        '"left_kg":249.9999441206547,"right_kg":249.9999441206547,"quadrant_pct":[25.0,25.0,25.0,25.0],'
        '"overloaded":true,"flagged_quadrants":[],"front_heavy":false,"rear_heavy":false,'
        '"left_heavy":false,"right_heavy":false}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_demo_scenarios(name, capsys):
    code, stdout = SIMULATE[name]
    assert main(["simulate", str(SCENARIOS / name)]) == code
    assert capsys.readouterr().out == stdout
