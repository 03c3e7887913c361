"""Load-cell signal chain: applied mass → bridge voltage → 24-bit ADC code.

Models one strain-gauge load cell read through a Wheatstone bridge and a
weigh-scale ADC of the HX711 family (24-bit, gain/channel selected per
conversion). Everything here is deterministic unless noise is explicitly
added, so the chain doubles as a firmware test bench.

Unit conventions
----------------
  mass           kg
  bridge output  mV (differential)
  excitation     V
  rated output   mV per V of excitation at full capacity
  temperature    °C
  time           ms (monotonic, producer-assigned)

Bridge model
------------
With load fraction f = applied_mass / capacity and dT = T - reference_temp:

    span = excitation_v * rated_output_mv_v          # mV at full capacity
    v = span * f * (1 + temp_coeff_span_per_c * dT)  # proportional term
        + nonlinearity * span * f**2                 # smooth quadratic bow
        + zero_offset_mv
        + temp_coeff_zero_mv_c * dT                  # zero drift

The quadratic is the simplest smooth deviation from proportionality and is
bounded by the |nonlinearity| < 5 % sanity check.

ADC characterization
--------------------
The full-scale differential input referred to the bridge is ±vref/gain
(so higher gain narrows the input window). Codes are

    code = round(v / full_scale * 2**23)

clamped to the signed 24-bit range. A code sitting on either rail
(`RAILS`) is saturated: at the rail an in-range reading is
indistinguishable from an overrange one, and the serial frame carries no
separate flag. `RAILS` is the package's only saturation rule; every
saturation test, on a frame, a wire line or a column, reads it.

Default excitation (5 V), noise (0) and sample rate (10 Sa/s) are
implementer-chosen placeholders, not characterized hardware values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import MechanicalOverrangeError, require_positive
from . import kvfile

# numpy is imported inside the functions that use it, to keep imports fast.
if TYPE_CHECKING:
    import numpy as np

CODE_MIN = -(2**23)
CODE_MAX = 2**23 - 1

#: The two ends of the 24-bit range: a code on either is saturated.
RAILS = (CODE_MIN, CODE_MAX)

#: Gain → valid channel. Gain is selected by the extra clock pulses of the
#: serial frame; only these three combinations exist.
GAIN_CHANNELS = {128: "A", 64: "A", 32: "B"}

#: Mechanical overrange: loads beyond this fraction of capacity risk
#: permanent deformation and are rejected rather than simulated.
OVERRANGE_FACTOR = 1.5


@dataclass(frozen=True)
class LoadCellSpec:
    """Physical and electrical parameters of one load cell.

    capacity_kg          rated capacity
    rated_output_mv_v    sensitivity, mV per V of excitation at capacity
    excitation_v         bridge excitation voltage
    zero_offset_mv       bridge output at zero load, reference temperature
    nonlinearity         fraction of full scale, quadratic bow (|x| < 0.05)
    noise_sigma_mv       std dev of additive Gaussian voltage noise
    temp_coeff_zero_mv_c zero drift, mV per °C away from reference
    temp_coeff_span_per_c span drift, fraction per °C away from reference
    reference_temp_c     temperature at which offsets/drift vanish
    """

    capacity_kg: float
    rated_output_mv_v: float = 2.0
    excitation_v: float = 5.0
    zero_offset_mv: float = 0.0
    nonlinearity: float = 0.0
    noise_sigma_mv: float = 0.0
    temp_coeff_zero_mv_c: float = 0.0
    temp_coeff_span_per_c: float = 0.0
    reference_temp_c: float = 25.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        require_positive("capacity", self.capacity_kg)
        require_positive("excitation", self.excitation_v)
        require_positive("rated output", self.rated_output_mv_v)
        if self.noise_sigma_mv < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma_mv}")
        if abs(self.nonlinearity) >= 0.05:
            raise ValueError(f"|nonlinearity| must be < 0.05, got {self.nonlinearity}")

    @property
    def span_mv(self) -> float:
        """Bridge output swing from zero load to capacity, in mV."""
        return self.excitation_v * self.rated_output_mv_v

    @classmethod
    def from_file(cls, path: str | Path) -> "LoadCellSpec":
        """Load a spec from a `key = value` file (keys match field names)."""
        source = str(path)
        values = kvfile.as_dict(kvfile.read_kv(path), source)
        spec = kvfile.build(cls, values, source)
        kvfile.reject_unknown(values, source)
        return spec

    def to_file(self, path: str | Path) -> None:
        kvfile.write(path, self, "load cell parameters")


#: 5 kg cell of the two-cell deck configuration.
TWO_CELL_5KG = LoadCellSpec(capacity_kg=5.0)

#: 120 kg cell of the four-cell deck configuration.
FOUR_CELL_120KG = LoadCellSpec(capacity_kg=120.0)


@dataclass(frozen=True)
class BridgeReading:
    """One differential bridge voltage sample."""

    differential_mv: float
    temperature_c: float
    timestamp_ms: int = 0


def _check_gain_channel(gain: int, channel: str) -> None:
    """Raise unless (gain, channel) is one of the converter's three settings."""
    if gain not in GAIN_CHANNELS:
        raise ValueError(f"gain must be one of {sorted(GAIN_CHANNELS)}, got {gain}")
    if GAIN_CHANNELS[gain] != channel:
        raise ValueError(f"gain {gain} is only valid on channel {GAIN_CHANNELS[gain]!r}, got {channel!r}")


@dataclass(frozen=True)
class AdcConfig:
    """Converter configuration for one conversion.

    Gain 128 and 64 exist on channel A only; gain 32 on channel B only.
    """

    vref_v: float = 5.0
    gain: int = 128
    channel: str = "A"
    sample_rate_hz: float = 10.0

    def __post_init__(self) -> None:
        _check_gain_channel(self.gain, self.channel)
        require_positive("vref", self.vref_v)
        require_positive("sample rate", self.sample_rate_hz)

    @property
    def full_scale_mv(self) -> float:
        """Positive full-scale differential input referred to the bridge."""
        return self.vref_v / self.gain * 1000.0


#: The converter the chain uses when none is given: gain 128, channel A.
DEFAULT_ADC = AdcConfig()


@dataclass(frozen=True)
class AdcFrame:
    """One signed 24-bit conversion result plus the next gain selection."""

    code: int
    gain: int = 128
    channel: str = "A"

    def __post_init__(self) -> None:
        if not CODE_MIN <= self.code <= CODE_MAX:
            raise ValueError(f"code {self.code} outside signed 24-bit range")
        _check_gain_channel(self.gain, self.channel)

    @property
    def saturated(self) -> bool:
        """True exactly when the code sits on either rail."""
        return self.code in RAILS


def bridge_output(
    spec: LoadCellSpec,
    applied_mass_kg: float,
    temperature_c: float | None = None,
    timestamp_ms: int = 0,
) -> BridgeReading:
    """Noise-free bridge voltage for a compressive load.

    Raises MechanicalOverrangeError beyond 150 % of capacity; that is a
    destructive load, distinct from (and well before) electrical
    saturation of the ADC. A non-finite mass or temperature is a ValueError.
    """
    if not 0 <= applied_mass_kg < math.inf:  # NaN fails both comparisons
        raise ValueError(f"applied mass must be finite and >= 0, got {applied_mass_kg}")
    if applied_mass_kg > OVERRANGE_FACTOR * spec.capacity_kg:
        raise MechanicalOverrangeError(
            f"{applied_mass_kg} kg exceeds {OVERRANGE_FACTOR:.0%} of the"
            f" {spec.capacity_kg} kg capacity"
        )
    if temperature_c is None:
        temperature_c = spec.reference_temp_c
    elif not math.isfinite(temperature_c):
        raise ValueError(f"temperature must be finite, got {temperature_c}")
    fraction = applied_mass_kg / spec.capacity_kg
    dt = temperature_c - spec.reference_temp_c
    v = (
        spec.span_mv * fraction * (1.0 + spec.temp_coeff_span_per_c * dt)
        + spec.nonlinearity * spec.span_mv * fraction**2
        + spec.zero_offset_mv
        + spec.temp_coeff_zero_mv_c * dt
    )
    return BridgeReading(differential_mv=v, temperature_c=temperature_c, timestamp_ms=timestamp_ms)


def add_noise(
    reading: BridgeReading,
    spec: LoadCellSpec,
    rng: int | np.random.Generator,
) -> BridgeReading:
    """Add Gaussian voltage noise (std dev = spec.noise_sigma_mv).

    `rng` is a seed or a Generator; pass one Generator through a stream of
    readings to get independent draws that are still reproducible.
    """
    if spec.noise_sigma_mv == 0.0:
        return reading
    import numpy as np

    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    noisy = reading.differential_mv + rng.normal(0.0, spec.noise_sigma_mv)
    return BridgeReading(noisy, reading.temperature_c, reading.timestamp_ms)


def quantize(reading: BridgeReading, adc: AdcConfig = DEFAULT_ADC) -> AdcFrame:
    """Quantize a bridge voltage to a signed 24-bit code.

    Saturation clamps to the rails, where the frame reads as saturated;
    it is never an error. Rounding is Python's round-half-even.
    """
    code = round(reading.differential_mv / adc.full_scale_mv * 2**23)
    code = max(CODE_MIN, min(CODE_MAX, code))
    return AdcFrame(code, adc.gain, adc.channel)
