import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weighsim.calibration import (
    CalibrationState,
    calibrate,
    code_to_mass,
    tare,
)
from weighsim.errors import (
    ConfigError,
    DegenerateCalibrationError,
    InsufficientSamplesError,
    InvertedWiringError,
    TareRangeError,
)
from weighsim.scenario import ideal_calibration
from weighsim.sensor import CODE_MAX, CODE_MIN, AdcConfig, AdcFrame, LoadCellSpec, bridge_output, quantize


def frames(*codes):
    return [AdcFrame(c) for c in codes]


class TestTare:
    def test_constant_samples(self):
        assert tare(frames(100, 100, 100)) == 100

    def test_symmetric_mean(self):
        assert tare(frames(99, 100, 101)) == 100

    def test_saturated_samples_excluded(self):
        sat = AdcFrame(2**23 - 1)
        assert tare([*frames(50, 50), sat]) == 50

    def test_no_usable_samples(self):
        with pytest.raises(InsufficientSamplesError):
            tare([])
        with pytest.raises(InsufficientSamplesError):
            tare([AdcFrame(2**23 - 1), AdcFrame(-(2**23))])

    def test_noisy_tare_converges(self):
        # statistical oracle: mean of N draws sits within 3*sigma/sqrt(N)
        # of the true offset (plus the final rounding step).
        true_offset, sigma, n = 5000, 50.0, 1000
        rng = np.random.default_rng(2024)
        noisy = frames(*(int(round(c)) for c in rng.normal(true_offset, sigma, size=n)))
        assert abs(tare(noisy) - true_offset) <= 3 * sigma / np.sqrt(n) + 0.5


class TestCalibrate:
    def test_direct_slope(self):
        cal = calibrate(0, 10.0, 100_000)
        assert cal.scale_kg_per_lsb == 1e-4

    def test_offset_independent(self):
        assert calibrate(500, 10.0, 100_500).scale_kg_per_lsb == 1e-4

    def test_degenerate(self):
        with pytest.raises(DegenerateCalibrationError):
            calibrate(0, 10.0, 0)

    def test_inverted_wiring(self):
        with pytest.raises(InvertedWiringError):
            calibrate(1000, 10.0, 500)

    def test_known_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            calibrate(0, 0.0, 100)

    @given(st.integers(min_value=-10_000, max_value=10_000))
    def test_shift_invariance(self, shift):
        base = calibrate(0, 10.0, 100_000)
        shifted = calibrate(shift, 10.0, 100_000 + shift)
        assert shifted.scale_kg_per_lsb == base.scale_kg_per_lsb


class TestCodeToMass:
    CAL = CalibrationState(tare_code=500, scale_kg_per_lsb=1e-4, reference_points=((10.0, 100_500),))

    def test_tare_code_is_zero(self):
        assert code_to_mass(500, self.CAL) == 0.0

    def test_below_tare_clamps_to_zero(self):
        assert code_to_mass(498, self.CAL) == 0.0

    def test_positive(self):
        assert code_to_mass(100_500, self.CAL) == pytest.approx(10.0)

    def test_temperature_warning(self):
        cal = CalibrationState(
            tare_code=0, scale_kg_per_lsb=1e-4, calibrated_at_temp_c=20.0,
            reference_points=((10.0, 100_000),),
        )
        assert not cal.temperature_warning(30.0)
        assert cal.temperature_warning(30.1)


class TestEndToEnd:
    SPEC = LoadCellSpec(capacity_kg=120.0)
    ADC = AdcConfig()

    def test_recovers_calibration_mass(self):
        cal = ideal_calibration(self.SPEC)
        code = quantize(bridge_output(self.SPEC, 120.0), self.ADC).code
        assert abs(code_to_mass(code, cal) - 120.0) <= cal.scale_kg_per_lsb

    @given(st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
    def test_linear_recovery_anywhere(self, mass):
        cal = ideal_calibration(self.SPEC)
        code = quantize(bridge_output(self.SPEC, mass), self.ADC).code
        assert abs(code_to_mass(code, cal) - mass) <= cal.scale_kg_per_lsb


def test_state_validation():
    with pytest.raises(ValueError):
        CalibrationState(tare_code=0, scale_kg_per_lsb=-1e-4, reference_points=((1.0, 100),))
    with pytest.raises(ValueError):
        CalibrationState(tare_code=0, scale_kg_per_lsb=1e-4, reference_points=())


@pytest.mark.parametrize("field", ["scale_kg_per_lsb", "calibrated_at_temp_c"])
def test_state_rejects_nan(field):
    # a NaN scale passed `<= 0` and turned every code into a NaN mass
    kwargs = {"tare_code": 0, "scale_kg_per_lsb": 1e-4, "reference_points": ((1.0, 100),), field: float("nan")}
    with pytest.raises(ValueError, match="must be finite, got nan"):
        CalibrationState(**kwargs)


@pytest.mark.parametrize("mass, message", [(float("nan"), "must be finite, got nan"), (0.0, "must be > 0, got 0.0")])
def test_state_rejects_a_bad_reference_mass(mass, message):
    # a NaN mass constructed, and to_file wrote a file from_file rejects
    with pytest.raises(ValueError, match=f"^reference mass {message}$"):
        CalibrationState(0, 1e-3, reference_points=((1.0, 100), (mass, 5)))


def test_reference_points_survive_a_file_round_trip(tmp_path):
    cal = CalibrationState(-7, 1e-3, 18.5, reference_points=((0.1, 93), (2.5, 2_493), (1e4, 9_999_993)))
    cal.to_file(tmp_path / "cal.cfg")
    assert CalibrationState.from_file(tmp_path / "cal.cfg") == cal


def write_calibration(path, tare_code):
    path.write_text(f"tare_code = {tare_code}\nscale_kg_per_lsb = 1e-4\nref_mass_kg_0 = 1.0\nref_code_0 = 100\n")
    return path


@pytest.mark.parametrize("tare_code", [CODE_MIN, CODE_MAX])
def test_tare_on_the_rails_loads(tmp_path, tare_code):
    assert CalibrationState.from_file(write_calibration(tmp_path / "cal.cfg", tare_code)).tare_code == tare_code


@pytest.mark.parametrize(
    "tare_code",
    [CODE_MAX + 1, CODE_MIN - 1, 2**63 - 1, -(2**63), 2**64, -(2**70)],
    ids=["above_24_bit", "below_24_bit", "int64_max", "int64_min", "beyond_int64", "below_int64"],
)
def test_tare_outside_the_code_range_is_rejected(tmp_path, tare_code):
    path = write_calibration(tmp_path / "cal.cfg", tare_code)
    # the dataclass's own error keeps its type and names the file
    message = f"{path}: tare code {tare_code} outside signed 24-bit range"
    with pytest.raises(TareRangeError, match=f"^{re.escape(message)}$"):
        CalibrationState.from_file(path)


def test_file_round_trip(tmp_path):
    cal = calibrate(123, 10.0, 100_123, temperature_c=22.5)
    path = tmp_path / "cal.cfg"
    cal.to_file(path)
    loaded = CalibrationState.from_file(path)
    assert loaded == cal
    assert loaded.fingerprint() == cal.fingerprint()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("ref_code_1 = 200\n", "unknown key 'ref_code_1'"),
        ("temp_c = 20\n", "unknown key 'temp_c'"),
        ("ref_mass_kg_1 = 2.0\n", "missing key 'ref_code_1'"),
    ],
)
def test_calibration_file_keys_are_checked(tmp_path, extra, message):
    path = write_calibration(tmp_path / "cal.cfg", 0)
    path.write_text(path.read_text() + extra)
    with pytest.raises(ConfigError, match=message):
        CalibrationState.from_file(path)
