"""Two-point calibration: tare at zero load, slope from one known weight.

The slope maps ADC codes to mass:

    mass = scale_kg_per_lsb * (code - tare_code)

Tiny negative masses are routine at zero load once noise is present, so
conversion clamps them to 0 kg and sets a below-zero flag instead of
erroring. The temperature recorded at calibration time lets a session
warn when it is operating far from where the slope was taken (default
alarm band ±10 °C).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DegenerateCalibrationError,
    InsufficientSamplesError,
    InvertedWiringError,
)
from .sensor import AdcFrame
from . import kvfile

#: Samples averaged for a tare when the caller does not say otherwise.
DEFAULT_TARE_SAMPLES = 16

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
        if self.scale_kg_per_lsb <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale_kg_per_lsb}")
        if len(self.reference_points) < 1:
            raise ValueError("need at least one reference point beyond tare")

    def temperature_warning(self, operating_temp_c: float, max_delta_c: float = DEFAULT_TEMP_DELTA_C) -> bool:
        """True when the operating temperature is outside the trusted band."""
        return abs(operating_temp_c - self.calibrated_at_temp_c) > max_delta_c

    def fingerprint(self) -> str:
        """Short stable hash of the calibration parameters."""
        text = f"{self.tare_code}|{self.scale_kg_per_lsb!r}|{self.calibrated_at_temp_c!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_file(self, path: str | Path) -> None:
        pairs = [
            ("tare_code", str(self.tare_code)),
            ("scale_kg_per_lsb", repr(self.scale_kg_per_lsb)),
            ("calibrated_at_temp_c", repr(self.calibrated_at_temp_c)),
        ]
        for i, (mass, code) in enumerate(self.reference_points):
            pairs.append((f"ref_mass_kg_{i}", repr(mass)))
            pairs.append((f"ref_code_{i}", str(code)))
        kvfile.write_kv(path, pairs, header="cell calibration")

    @classmethod
    def from_file(cls, path: str | Path) -> "CalibrationState":
        source = str(path)
        values = kvfile.as_dict(kvfile.read_kv(path), source)
        points = []
        i = 0
        while f"ref_mass_kg_{i}" in values:
            points.append(
                (
                    kvfile.get_float(values, f"ref_mass_kg_{i}", source),
                    kvfile.get_int(values, f"ref_code_{i}", source),
                )
            )
            i += 1
        return cls(
            tare_code=kvfile.get_int(values, "tare_code", source),
            scale_kg_per_lsb=kvfile.get_float(values, "scale_kg_per_lsb", source),
            calibrated_at_temp_c=kvfile.get_float(values, "calibrated_at_temp_c", source, 25.0),
            reference_points=tuple(points),
        )


class MassReading(NamedTuple):
    """Converted mass with the zero-clamp flag."""

    kg: float
    below_zero: bool


def tare(samples: Iterable[AdcFrame]) -> int:
    """Zero-load code: mean of non-saturated sample codes, rounded.

    Saturated frames are discarded; a pinned rail says nothing about the
    true offset. Raises InsufficientSamplesError when nothing usable is
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


def code_to_mass(code: int, cal: CalibrationState) -> MassReading:
    """Convert one code to mass, clamping small negatives to zero."""
    mass = cal.scale_kg_per_lsb * (code - cal.tare_code)
    if mass < 0:
        return MassReading(0.0, True)
    return MassReading(mass, False)


def codes_to_kg(codes: np.ndarray, cal: CalibrationState) -> np.ndarray:
    """`code_to_mass(code, cal).kg` for every int64 code, with the same clamp.

    The int64 difference converts to float64 exactly as a Python int does,
    so each element equals the scalar conversion bit for bit; `maximum`
    keeps a NaN as the scalar clamp does.
    """
    mass = cal.scale_kg_per_lsb * (codes - cal.tare_code)
    return np.maximum(mass, 0.0, out=mass)
