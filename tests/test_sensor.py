import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weighsim.errors import ConfigError, InvalidValueError, MechanicalOverrangeError
from weighsim.sensor import (
    AdcConfig,
    AdcFrame,
    CODE_MAX,
    CODE_MIN,
    LoadCellSpec,
    add_noise,
    bridge_output,
    quantize,
)

IDEAL_120 = LoadCellSpec(capacity_kg=120.0, rated_output_mv_v=2.0, excitation_v=5.0)
ADC = AdcConfig(vref_v=5.0, gain=128, channel="A")


class TestBridgeOutput:
    def test_zero_load_is_zero_output(self):
        assert bridge_output(IDEAL_120, 0.0) == 0.0

    def test_full_capacity(self):
        # 5 V * 2 mV/V * 1.0
        assert bridge_output(IDEAL_120, 120.0) == pytest.approx(10.0, abs=1e-12)

    def test_half_load_half_output(self):
        assert bridge_output(IDEAL_120, 60.0) == pytest.approx(5.0, abs=1e-12)

    def test_zero_offset_adds(self):
        spec = LoadCellSpec(capacity_kg=120.0, zero_offset_mv=0.5)
        assert bridge_output(spec, 0.0) == pytest.approx(0.5)

    def test_quadratic_nonlinearity(self):
        spec = LoadCellSpec(capacity_kg=120.0, nonlinearity=0.01)
        # 5 mV + 0.01 * 10 mV * 0.5**2
        assert bridge_output(spec, 60.0) == pytest.approx(5.025)

    def test_zero_temp_drift(self):
        spec = LoadCellSpec(capacity_kg=120.0, temp_coeff_zero_mv_c=0.05)
        assert bridge_output(spec, 0.0, temperature_c=35.0) == pytest.approx(0.5)

    def test_span_temp_drift(self):
        spec = LoadCellSpec(capacity_kg=120.0, temp_coeff_span_per_c=0.001)
        assert bridge_output(spec, 120.0, temperature_c=35.0) == pytest.approx(10.0 * 1.01)

    def test_temperature_neutral_without_coefficients(self):
        for temp in (-20.0, 25.0, 60.0):
            assert bridge_output(IDEAL_120, 60.0, temperature_c=temp) == 5.0

    def test_overrange_rejected(self):
        bridge_output(IDEAL_120, 180.0)  # exactly 150 % is still allowed
        with pytest.raises(MechanicalOverrangeError):
            bridge_output(IDEAL_120, 180.1)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            bridge_output(IDEAL_120, -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_or_temperature_rejected(self, value):
        # a NaN mass or temperature gave a NaN reading, and quantize failed later
        with pytest.raises(ValueError, match=f"^applied mass must be finite and >= 0, got {value}$"):
            bridge_output(IDEAL_120, value)
        with pytest.raises(ValueError, match=f"^temperature must be finite, got {value}$"):
            bridge_output(IDEAL_120, 10.0, temperature_c=value)


class TestNoise:
    def test_zero_sigma_is_identity(self):
        r = bridge_output(IDEAL_120, 60.0)
        assert add_noise(r, IDEAL_120, np.random.default_rng(42)) == r

    def test_fixed_seed_reproducible(self):
        spec = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.01)
        r = bridge_output(spec, 60.0)
        draw = partial(add_noise, r, spec)
        assert draw(np.random.default_rng(7)) == draw(np.random.default_rng(7))
        assert draw(np.random.default_rng(7)) != draw(np.random.default_rng(8))

    def test_sample_std_matches_sigma(self):
        spec = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.01)
        r = bridge_output(spec, 60.0)
        rng = np.random.default_rng(123)
        draws = np.array([add_noise(r, spec, rng) for _ in range(10_000)])
        assert np.std(draws, ddof=1) == pytest.approx(0.01, rel=0.05)
        assert np.mean(draws) == pytest.approx(5.0, abs=5e-4)


class TestQuantize:
    def test_zero_input_zero_code(self):
        frame = quantize(bridge_output(IDEAL_120, 0.0), ADC)
        assert frame.code == 0 and not frame.saturated

    def test_positive_overrange_saturates(self):
        r = bridge_output(LoadCellSpec(capacity_kg=120.0, rated_output_mv_v=8.0), 120.0)
        assert r == 40.0  # beyond the ±39.0625 mV window
        frame = quantize(r, ADC)
        assert frame.code == CODE_MAX
        assert frame.saturated

    def test_half_scale_code(self):
        assert abs(quantize(ADC.full_scale_mv / 2, ADC).code - 4194304) <= 1

    def test_negative_rail(self):
        frame = quantize(-100.0, ADC)
        assert frame.code == CODE_MIN and frame.saturated

    def test_bit_identical_determinism(self):
        a = quantize(bridge_output(IDEAL_120, 37.5), ADC)
        b = quantize(bridge_output(IDEAL_120, 37.5), ADC)
        assert a == b

    @pytest.mark.parametrize("mv, code", [(math.inf, CODE_MAX), (-math.inf, CODE_MIN), (1e308, CODE_MAX), (-1e308, CODE_MIN)])
    def test_an_infinite_code_reads_as_a_rail(self, mv, code):
        # round() of the infinite code raised OverflowError
        assert quantize(mv, ADC) == AdcFrame(code)

    def test_a_nan_voltage_is_rejected(self):
        # it failed in round() with an untyped "cannot convert float NaN to integer"
        with pytest.raises(InvalidValueError, match="^bridge voltage must not be NaN, got nan$"):
            quantize(math.nan, ADC)

    @given(st.floats(min_value=-1e300, max_value=1e300))
    def test_clamping_before_rounding_keeps_every_finite_code(self, mv):
        code = round(mv / ADC.full_scale_mv * 2**23)
        assert quantize(mv, ADC).code == max(CODE_MIN, min(CODE_MAX, code))

    @given(st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
    def test_code_within_one_lsb_of_the_voltage(self, mass):
        r = bridge_output(IDEAL_120, mass)
        frame = quantize(r, ADC)
        lsb_mv = ADC.full_scale_mv / 2**23
        assert abs(frame.code * lsb_mv - r) <= lsb_mv

    @given(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    )
    def test_monotone_in_mass(self, m1, m2):
        if m1 > m2:
            m1, m2 = m2, m1
        c1 = quantize(bridge_output(IDEAL_120, m1), ADC).code
        c2 = quantize(bridge_output(IDEAL_120, m2), ADC).code
        assert c1 <= c2


class TestBenchmarkCallShapes:
    """The calls the benchmark's input generators make (`bench/workloads.py`),
    pinned here too because its self-tests run on one Python version only."""

    CELL = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.002)
    ADC = AdcConfig(sample_rate_hz=80.0)
    MASSES = (0.0, 0.5, 60.0, 120.0, 180.0)

    def test_bridge_output_keeps_an_unused_timestamp(self):
        for mass in self.MASSES:
            mv = bridge_output(self.CELL, mass, timestamp_ms=5)
            assert mv == bridge_output(self.CELL, mass) and isinstance(mv, float)

    def test_a_noisy_conversion_is_a_frame(self):
        mv = add_noise(bridge_output(self.CELL, 60.0), self.CELL, np.random.default_rng(1))
        frame = quantize(mv, self.ADC)
        assert isinstance(mv, float) and isinstance(frame.code, int)
        assert (frame.gain, frame.channel, frame.saturated) == (128, "A", False)

    @pytest.mark.parametrize(
        "seed, codes",
        [(11, [15, 9532, 1074268, 2147264, 3221097]), (9107, [449, 8655, 1073759, 2147755, 3221009])],
    )
    def test_noisy_codes_are_unchanged(self, seed, codes):
        # the benchmark's generated inputs are built from these codes, so they must not move
        rng = np.random.default_rng(seed)
        chain = [
            quantize(add_noise(bridge_output(self.CELL, mass, timestamp_ms=5), self.CELL, rng), self.ADC)
            for mass in self.MASSES
        ]
        assert [frame.code for frame in chain] == codes


class TestConfigValidation:
    def test_gain_channel_pairs(self):
        AdcConfig(gain=128, channel="A")
        AdcConfig(gain=64, channel="A")
        AdcConfig(gain=32, channel="B")
        with pytest.raises(ValueError):
            AdcConfig(gain=32, channel="A")
        with pytest.raises(ValueError):
            AdcConfig(gain=128, channel="B")
        with pytest.raises(ValueError):
            AdcConfig(gain=100, channel="A")

    def test_frame_code_range(self):
        AdcFrame(CODE_MAX)
        AdcFrame(CODE_MIN)
        with pytest.raises(ValueError):
            AdcFrame(CODE_MAX + 1)

    def test_rail_codes_flag_saturated(self):
        assert AdcFrame(CODE_MAX).saturated
        assert AdcFrame(CODE_MIN).saturated
        assert not AdcFrame(0).saturated
        assert not AdcFrame(CODE_MAX - 1, 32, "B").saturated
        # the flag follows the code: a frame cannot store one of its own
        with pytest.raises(TypeError):
            AdcFrame(0, 128, "A", True)

    def test_spec_sanity_bounds(self):
        with pytest.raises(ValueError):
            LoadCellSpec(capacity_kg=0.0)
        with pytest.raises(ValueError):
            LoadCellSpec(capacity_kg=5.0, nonlinearity=0.05)
        with pytest.raises(ValueError):
            LoadCellSpec(capacity_kg=5.0, noise_sigma_mv=-0.1)


def test_spec_file_round_trip(tmp_path):
    spec = LoadCellSpec(
        capacity_kg=120.0,
        rated_output_mv_v=2.0,
        excitation_v=5.0,
        zero_offset_mv=0.05,
        nonlinearity=0.002,
        noise_sigma_mv=0.001,
        temp_coeff_zero_mv_c=0.01,
        temp_coeff_span_per_c=0.0001,
        reference_temp_c=20.0,
    )
    path = tmp_path / "cell.cfg"
    spec.to_file(path)
    assert LoadCellSpec.from_file(path) == spec


def test_spec_file_rejects_an_unknown_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("capacity_kg = 120\nrated_output = 2.0\n")
    with pytest.raises(ConfigError, match="unknown key 'rated_output'"):
        LoadCellSpec.from_file(path)


def test_spec_file_needs_capacity(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("rated_output_mv_v = 2.0\n")
    with pytest.raises(ConfigError, match="missing key 'capacity_kg'"):
        LoadCellSpec.from_file(path)


SPEC_FIELDS = [
    "capacity_kg", "rated_output_mv_v", "excitation_v", "zero_offset_mv", "nonlinearity",
    "noise_sigma_mv", "temp_coeff_zero_mv_c", "temp_coeff_span_per_c", "reference_temp_c",
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_spec_rejects_a_non_finite_field(field, value):
    # NaN passed every `<= 0` check and failed only later, in quantize
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        LoadCellSpec(**{"capacity_kg": 120.0, field: value})


@pytest.mark.parametrize("field, name", [("vref_v", "vref"), ("sample_rate_hz", "sample rate")])
def test_adc_config_rejects_non_finite_and_non_positive(field, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got nan"):
        AdcConfig(**{field: float("nan")})
    with pytest.raises(ValueError, match=f"^{name} must be > 0, got 0.0"):
        AdcConfig(**{field: 0.0})


@pytest.mark.parametrize("field", ["rated_output_mv_v", "excitation_v"])
def test_spec_rejects_a_span_that_overflows(field):
    # an infinite span made bridge_output return NaN at zero load
    with pytest.raises(InvalidValueError, match=r"^span \(excitation x rated output\) must be finite, got inf$"):
        LoadCellSpec(**{"capacity_kg": 120.0, field: 1e308})


def test_adc_config_rejects_a_full_scale_that_underflows():
    # a zero full scale made quantize divide by zero
    with pytest.raises(InvalidValueError, match=r"^full scale \(vref / gain\) must be > 0, got 0.0$"):
        AdcConfig(vref_v=5e-324)


def test_frame_and_config_share_the_gain_channel_check():
    for make in (AdcConfig, partial(AdcFrame, 0)):
        with pytest.raises(ValueError, match="^gain 32 is only valid on channel 'B', got 'A'$"):
            make(gain=32, channel="A")
        with pytest.raises(ValueError, match=r"^gain must be one of \[32, 64, 128\], got 100$"):
            make(gain=100, channel="A")
