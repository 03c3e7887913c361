"""Two-point calibration: tare at zero load, slope from one known weight.

The slope maps ADC codes to mass:

    mass = scale_kg_per_lsb * (code - tare_code)

A slope holds at the ADC gain it was taken at (`gain`, 128 by default),
so a session refuses frames of another gain.

Tiny negative masses are routine at zero load once noise is present, so
conversion clamps them to 0 kg instead of erroring. The temperature
recorded at calibration time lets a session warn when it is operating far
from where the slope was taken (default alarm band ±10 °C).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Literal

from .errors import (
    DegenerateCalibrationError,
    InsufficientSamplesError,
    InvalidValueError,
    InvertedWiringError,
    TareRangeError,
    is_integer,
    require_non_negative,
    require_positive,
)
from .codec import CODE_MAX, CODE_MIN, GAIN_CHANNELS, RAILS
from .schema import FrozenRecord
from . import kvfile

# The interpreter's own SHA-256: `hashlib` loads OpenSSL's `_hashlib`, about
# 3 ms of a cold `weigh`, for the same digest.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: Warn when operating this many °C away from the calibration temperature.
DEFAULT_TEMP_DELTA_C = 10.0


class CalibrationState(FrozenRecord):
    """Immutable code→mass mapping for one cell.

    `gain` is not one of the file's scalars: the file holds a `gain` key
    only for a gain other than 128, so files and fingerprints of gain-128
    calibrations read as they did before the field existed.
    """

    tare_code: int
    scale_kg_per_lsb: float
    calibrated_at_temp_c: float = 25.0
    reference_points: tuple[tuple[float, int], ...] = ()
    gain: Literal[128, 64, 32] = 128

    def __post_init__(self) -> None:
        if not CODE_MIN <= self.tare_code <= CODE_MAX:
            raise TareRangeError(f"tare code {self.tare_code} outside signed 24-bit range")
        require_positive("scale", self.scale_kg_per_lsb)
        if not math.isfinite(self.calibrated_at_temp_c):
            raise InvalidValueError(f"calibration temperature must be finite, got {self.calibrated_at_temp_c}")
        if len(self.reference_points) < 1:
            raise InvalidValueError("need at least one reference point beyond tare")
        for mass, _ in self.reference_points:
            require_positive("reference mass", mass)
        if not is_integer(self.gain) or self.gain not in GAIN_CHANNELS:
            raise InvalidValueError(f"gain must be one of {sorted(GAIN_CHANNELS)}, got {self.gain!r}")

    def temperature_warning(self, operating_temp_c: float, max_delta_c: float = DEFAULT_TEMP_DELTA_C) -> bool:
        """True when the operating temperature is outside the trusted band; a
        NaN temperature, or a `max_delta_c` that is negative or not finite, is
        an InvalidValueError."""
        require_non_negative("max_delta_c", max_delta_c)
        if operating_temp_c != operating_temp_c:
            raise InvalidValueError(f"operating temperature must be a number, got {operating_temp_c}")
        return abs(operating_temp_c - self.calibrated_at_temp_c) > max_delta_c

    def fingerprint(self) -> str:
        """Short stable hash of the calibration parameters."""
        text = f"{self.tare_code}|{self.scale_kg_per_lsb!r}|{self.calibrated_at_temp_c!r}"
        if self.gain != 128:
            text += f"|{self.gain}"
        return sha256(text.encode()).hexdigest()[:16]

    def to_file(self, path: str | Path) -> None:
        pairs = []
        for i, (mass, code) in enumerate(self.reference_points):
            pairs.append((f"ref_mass_kg_{i}", repr(mass)))
            pairs.append((f"ref_code_{i}", str(code)))
        if self.gain != 128:
            pairs.append(("gain", str(self.gain)))
        kvfile.write(path, self, "cell calibration", pairs)

    @classmethod
    def from_file(cls, path: str | Path) -> "CalibrationState":
        with kvfile.named(path):
            values = kvfile.as_dict(kvfile.read_kv(path))
            points = []
            while f"ref_mass_kg_{len(points)}" in values:
                i = len(points)
                mass = kvfile.take(values, f"ref_mass_kg_{i}", kvfile.parse_float)
                code = kvfile.take(values, f"ref_code_{i}", kvfile.parse_int)
                points.append((mass, code))
            gain = kvfile.take(values, "gain", kvfile.parse_int) if "gain" in values else 128
            cal = kvfile.build(cls, values, reference_points=tuple(points), gain=gain)
            kvfile.reject_unknown(values)
        return cal


def tare(codes: Iterable[int]) -> int:
    """Zero-load code: mean of the ADC codes off the rails (`codec.RAILS`), rounded.

    Rail codes are discarded: a pinned rail says nothing about the true
    offset, nor about a known mass (`scenario.read_code` averages by this
    rule). Raises InsufficientSamplesError when nothing usable is left.
    """
    codes = [code for code in codes if code not in RAILS]
    if not codes:
        raise InsufficientSamplesError("tare needs at least one non-saturated sample")
    return round(sum(codes) / len(codes))


def calibrate(
    tare_code: int,
    known_mass_kg: float,
    code_at_mass: int,
    temperature_c: float = 25.0,
    gain: int = 128,
) -> CalibrationState:
    """Derive the code→mass slope from one known weight, read at ADC `gain`."""
    require_positive("known mass", known_mass_kg)
    delta = code_at_mass - tare_code
    if delta == 0:
        raise DegenerateCalibrationError(
            f"code at {known_mass_kg} kg equals the tare code ({tare_code}); no slope"
        )
    scale = known_mass_kg / delta
    if scale < 0:
        raise InvertedWiringError(
            f"negative slope ({scale:.3e} kg/LSB): signal pair is likely swapped"
        )
    return CalibrationState(
        tare_code=tare_code,
        scale_kg_per_lsb=scale,
        calibrated_at_temp_c=temperature_c,
        reference_points=((known_mass_kg, code_at_mass),),
        gain=gain,
    )


def code_to_mass(code: int, cal: CalibrationState) -> float:
    """Convert one code to mass in kg, clamping negatives to zero
    (`max` returns -0.0 and NaN as they are)."""
    return max(cal.scale_kg_per_lsb * (code - cal.tare_code), 0.0)

