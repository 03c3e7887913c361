"""Two-point calibration: tare at zero load, slope from one known weight.

The slope maps ADC codes to mass:

    mass = scale_kg_per_lsb * (code - tare_code)

Tiny negative masses are routine at zero load once noise is present, so
conversion clamps them to 0 kg instead of erroring. The temperature
recorded at calibration time lets a session warn when it is operating far
from where the slope was taken (default alarm band ±10 °C).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateCalibrationError,
    InsufficientSamplesError,
    InvertedWiringError,
    TareRangeError,
    require_positive,
)
from .sensor import CODE_MAX, CODE_MIN, AdcFrame
from . import kvfile

#: Warn when operating this many °C away from the calibration temperature.
DEFAULT_TEMP_DELTA_C = 10.0


@dataclass(frozen=True)
class CalibrationState:
    """Immutable code→mass mapping for one cell."""

    tare_code: int
    scale_kg_per_lsb: float
    calibrated_at_temp_c: float = 25.0
    reference_points: tuple[tuple[float, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not CODE_MIN <= self.tare_code <= CODE_MAX:
            raise TareRangeError(f"tare code {self.tare_code} outside signed 24-bit range")
        require_positive("scale", self.scale_kg_per_lsb)
        if not math.isfinite(self.calibrated_at_temp_c):
            raise ValueError(f"calibration temperature must be finite, got {self.calibrated_at_temp_c}")
        if len(self.reference_points) < 1:
            raise ValueError("need at least one reference point beyond tare")
        for mass, _ in self.reference_points:
            require_positive("reference mass", mass)

    def temperature_warning(self, operating_temp_c: float, max_delta_c: float = DEFAULT_TEMP_DELTA_C) -> bool:
        """True when the operating temperature is outside the trusted band."""
        return abs(operating_temp_c - self.calibrated_at_temp_c) > max_delta_c

    def fingerprint(self) -> str:
        """Short stable hash of the calibration parameters."""
        text = f"{self.tare_code}|{self.scale_kg_per_lsb!r}|{self.calibrated_at_temp_c!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_file(self, path: str | Path) -> None:
        pairs = []
        for i, (mass, code) in enumerate(self.reference_points):
            pairs.append((f"ref_mass_kg_{i}", repr(mass)))
            pairs.append((f"ref_code_{i}", str(code)))
        kvfile.write(path, self, "cell calibration", pairs)

    @classmethod
    def from_file(cls, path: str | Path) -> "CalibrationState":
        source = str(path)
        values = kvfile.as_dict(kvfile.read_kv(path), source)
        points = []
        while f"ref_mass_kg_{len(points)}" in values:
            i = len(points)
            mass = kvfile.take(values, f"ref_mass_kg_{i}", kvfile.parse_float, source)
            code = kvfile.take(values, f"ref_code_{i}", kvfile.parse_int, source)
            points.append((mass, code))
        cal = kvfile.build(cls, values, source, reference_points=tuple(points))
        kvfile.reject_unknown(values, source)
        return cal


def tare(samples: Iterable[AdcFrame]) -> int:
    """Zero-load code: mean of non-saturated sample codes, rounded.

    Saturated frames are discarded; a pinned rail says nothing about the
    true offset (nor about a known mass, whose samples the CLI averages
    the same way). Raises InsufficientSamplesError when nothing usable is
    left.
    """
    codes = [f.code for f in samples if not f.saturated]
    if not codes:
        raise InsufficientSamplesError("tare needs at least one non-saturated sample")
    return round(sum(codes) / len(codes))


def calibrate(
    tare_code: int,
    known_mass_kg: float,
    code_at_mass: int,
    temperature_c: float = 25.0,
) -> CalibrationState:
    """Derive the code→mass slope from one known weight."""
    if known_mass_kg <= 0:
        raise ValueError(f"known mass must be > 0, got {known_mass_kg}")
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
    )


def code_to_mass(code: int, cal: CalibrationState) -> float:
    """Convert one code to mass in kg, clamping negatives to zero
    (`max` returns -0.0 and NaN as they are)."""
    return max(cal.scale_kg_per_lsb * (code - cal.tare_code), 0.0)


def codes_to_kg(codes: np.ndarray, cal: CalibrationState) -> np.ndarray:
    """`code_to_mass(code, cal)` for every int64 code, with the same clamp.

    The int64 difference converts to float64 exactly as a Python int does,
    so each element equals the scalar conversion bit for bit; `maximum`
    keeps a NaN as the scalar clamp does.
    """
    mass = cal.scale_kg_per_lsb * (codes - cal.tare_code)
    return np.maximum(mass, 0.0, out=mass)
