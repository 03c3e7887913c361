"""The schema classes: one frozen-record base behaves as the frozen dataclasses it replaced.

Each case builds one instance of a schema class. Its repr is the text the
dataclass printed, pinned here because error messages print frames.
"""

from __future__ import annotations  # so a class body's annotations stay a dict, as in the package

import copy
import dataclasses
import pickle

import pytest

from weighsim.calibration import CalibrationState
from weighsim.cog import AlertPolicy, DeckGeometry, FourCellReading, assess_four_cell, assess_two_cell
from weighsim.compliance import NZ_BAND, AxleConfiguration, ToleranceRule, check_compliance
from weighsim.record import WeighRecord
from weighsim.scenario import Placement, Scenario
from weighsim.schema import FrozenRecord
from weighsim.sensor import AdcConfig, AdcFrame, LoadCellSpec
from weighsim.station import FrameBatch, SensorFrameRecord

GEOM = DeckGeometry(2.0, 1.5)
POLICY = AlertPolicy(400.0)
MASSES = (100.0, 120.5, 90.0, 0.0)

GEOM_TEXT = "DeckGeometry(wheelbase_m=2.0, track_m=1.5, breadth_m=1.5)"
POLICY_TEXT = "AlertPolicy(overload_threshold_kg=400.0, quadrant_threshold_pct=30.0)"
READING_TEXT = "FourCellReading(fl_kg=1.0, fr_kg=2.5, rl_kg=0.0, rr_kg=4.0)"
ASSESSMENT_TEXT = (
    "LoadAssessment(total_kg=310.5, x_cg_m=0.5797101449275363, y_cg_m=0.9178743961352657,"
    " centreline_offset_m=0.16787439613526567, front_kg=220.5, rear_kg=90.0, left_kg=190.0,"
    " right_kg=120.5, quadrant_pct=(32.2061191626409, 38.808373590982285, 28.985507246376812, 0.0),"
    " overloaded=False, flagged_quadrants=('FL', 'FR'), front_heavy=True, rear_heavy=False,"
    " left_heavy=True, right_heavy=False)"
)
PLACEMENT_TEXT = "Placement(mass_kg=120.0, x_m=0.8, y_m=0.9)"


#: class name → (a maker of one instance, the instance's dataclass repr)
CASES = {
    "DeckGeometry": (lambda: DeckGeometry(2.0, 1.5), GEOM_TEXT),
    "FourCellReading": (lambda: FourCellReading(1.0, 2.5, 0.0, 4.0), READING_TEXT),
    "AlertPolicy": (lambda: AlertPolicy(400.0), POLICY_TEXT),
    "LoadAssessment": (lambda: assess_four_cell(MASSES, GEOM, POLICY), ASSESSMENT_TEXT),
    "TwoCellAssessment": (
        lambda: assess_two_cell((3.0, 7.0), GEOM, AlertPolicy(9.5)),
        "TwoCellAssessment(total_kg=10.0, lateral_offset_m=-0.30000000000000004, overloaded=True,"
        " left_heavy=False, right_heavy=True)",
    ),
    "ToleranceRule": (
        lambda: ToleranceRule("NewZealand", "acceptance", band_t=(10.0, 40.0), band_error_kg=40.0),
        "ToleranceRule(jurisdiction='NewZealand', verification_kind='acceptance', anchor_points_t_kg=(),"
        " band_t=(10.0, 40.0), band_error_kg=40.0, percent_of_load=None)",
    ),
    "ComplianceResult": (
        lambda: check_compliance(20_010.0, 20_000.0, NZ_BAND),
        "ComplianceResult(jurisdiction='NewZealand', verification_kind='acceptance', reference_kg=20000.0,"
        " error_kg=10.0, max_error_kg=40.0, passed=True)",
    ),
    "AxleConfiguration": (
        lambda: AxleConfiguration("2A", 2, 18_000),
        "AxleConfiguration(config_code='2A', axle_count=2, gvw_limit_kg=18000)",
    ),
    "CalibrationState": (
        lambda: CalibrationState(-12, 0.001, reference_points=((10.0, 9_988),), gain=64),
        "CalibrationState(tare_code=-12, scale_kg_per_lsb=0.001, calibrated_at_temp_c=25.0,"
        " reference_points=((10.0, 9988),), gain=64)",
    ),
    "WeighRecord": (
        lambda: WeighRecord(
            "0a1b2c3d4e5f", "st1", 0, 15_000, "static", MASSES, GEOM, POLICY,
            assess_four_cell(MASSES, GEOM, POLICY), "abcd",
        ),
        "WeighRecord(record_id='0a1b2c3d4e5f', station_id='st1', started_at_ms=0, ended_at_ms=15000,"
        f" mode='static', cell_masses_kg=(100.0, 120.5, 90.0, 0.0), geometry={GEOM_TEXT},"
        f" policy={POLICY_TEXT}, assessment={ASSESSMENT_TEXT}, calibration_fingerprint='abcd', compliance=())",
    ),
    "SensorFrameRecord": (
        lambda: SensorFrameRecord("st1", 3, 1_500, -8_388_608, 64, True),
        "SensorFrameRecord(station_id='st1', cell_index=3, timestamp_ms=1500, adc_code=-8388608, gain=64,"
        " saturated=True)",
    ),
    "FrameBatch": (
        lambda: FrameBatch("st1", ((0,), (100,)), ((5,), (-5,)), ((128,), (128,))),
        "FrameBatch(station_id='st1', times=((0,), (100,)), codes=((5,), (-5,)), gains=((128,), (128,)))",
    ),
    "LoadCellSpec": (
        lambda: LoadCellSpec(120.0, noise_sigma_mv=0.02),
        "LoadCellSpec(capacity_kg=120.0, rated_output_mv_v=2.0, excitation_v=5.0, zero_offset_mv=0.0,"
        " nonlinearity=0.0, noise_sigma_mv=0.02, temp_coeff_zero_mv_c=0.0, temp_coeff_span_per_c=0.0,"
        " reference_temp_c=25.0)",
    ),
    "AdcConfig": (
        lambda: AdcConfig(gain=32, channel="B"),
        "AdcConfig(vref_v=5.0, gain=32, channel='B', sample_rate_hz=10.0)",
    ),
    "AdcFrame": (lambda: AdcFrame(-123, 64), "AdcFrame(code=-123, gain=64, channel='A')"),
    "Placement": (lambda: Placement(120.0, 0.8, 0.9), PLACEMENT_TEXT),
    "Scenario": (
        lambda: Scenario(GEOM, (Placement(120.0, 0.8, 0.9),), FourCellReading(1.0, 2.5, 0.0, 4.0), noise_seed=7),
        f"Scenario(geometry={GEOM_TEXT}, placements=({PLACEMENT_TEXT},), curb={READING_TEXT}, noise_seed=7,"
        " temperature_c=25.0)",
    ),
}

cases = pytest.mark.parametrize("make, text", CASES.values(), ids=list(CASES))


def test_every_schema_class_has_a_case():
    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}

    assert {cls.__name__ for cls in subclasses(FrozenRecord) if cls.__module__.startswith("weighsim.")} == CASES.keys()


@cases
def test_repr_is_the_dataclass_text(make, text):
    assert repr(make()) == text


@cases
def test_equality_and_hash(make, text):
    a, b = make(), make()
    assert a is not b and a == a and a.__eq__(object()) is NotImplemented
    values = tuple(getattr(a, name) for name in type(a)._fields)
    assert a == b and hash(a) == hash(b) == hash(values)


@cases
def test_fields_are_frozen_and_slotted(make, text):
    obj = make()
    assert not hasattr(obj, "__dict__")
    for name in (*type(obj)._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert repr(obj) == text


@cases
def test_dataclasses_functions_still_work(make, text):
    obj, cls = make(), type(make())
    before = dict(vars(cls))
    assert dataclasses.is_dataclass(obj)
    assert tuple(f.name for f in dataclasses.fields(obj)) == cls._fields
    assert {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING} == (
        cls._field_defaults
    )
    assert list(dataclasses.asdict(obj)) == list(cls._fields)
    again = dataclasses.replace(obj)
    assert type(again) is cls and repr(again) == text
    # the fields are built once, outside the class: its namespace never changes
    assert dataclasses.fields(obj) == dataclasses.fields(cls)
    assert vars(cls).keys() == before.keys() and all(vars(cls)[k] is v for k, v in before.items())


@cases
def test_copy_and_pickle(make, text):
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and repr(twin) == text


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError, match="Bad: a field without a default follows one with a default"):

        class Bad(FrozenRecord):
            a: int = 0
            b: int


def test_a_subclass_without_annotations_keeps_the_fields_of_its_base():
    class Heavier(Placement):
        pass

    obj = Heavier(1.0, 0.5, 0.5)
    assert Heavier._fields == Placement._fields and not hasattr(obj, "__dict__")
    assert repr(obj).endswith(".<locals>.Heavier(mass_kg=1.0, x_m=0.5, y_m=0.5)")
    assert obj != Placement(1.0, 0.5, 0.5)
