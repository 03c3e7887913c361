"""Forward statics: placed point masses → per-corner loads.

This is the ground-truth side of the package. A rigid deck on four
supports distributes a point mass bilinearly between the corners, which
is the standard corner-weight-scale resolution of the four-support
problem and makes the CoG round trip exact: feeding the corner loads of
any scenario back through the four-cell assessment recovers the mass
centroid to floating-point precision.

Coordinates follow the package convention (x rearward from the front cell
line, y leftward from the right cell line), so the corner weights for a
mass m at (x, y) on an L×T deck are

    FL  m * (1 - x/L) * (y/T)        FR  m * (1 - x/L) * (1 - y/T)
    RL  m * (x/L)     * (y/T)        RR  m * (x/L)     * (1 - y/T)

Scenario text format (`key = value`, see `Scenario.from_file`); the keys
are the fields of `DeckGeometry`, of `FourCellReading` prefixed `curb_`
and of `Scenario`, and any other key is an error:

    wheelbase_m = 2.0
    track_m     = 1.5
    breadth_m   = 1.25        # optional, > 0, default the track
    curb_fl_kg  = 55.0        # optional, default 0 (likewise fr/rl/rr)
    temperature_c = 25.0      # optional
    noise_seed  = 42          # optional, >= 0, default 0
    placement   = 120.0 @ 0.8, 0.9     # mass_kg @ x_m, y_m; repeatable
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .calibration import CalibrationState, calibrate, code_to_mass, tare
from .cog import AlertPolicy, DeckGeometry, FourCellReading, LoadAssessment, assess_four_cell
from .errors import ConfigError, InvalidPlacementError, InvalidSeedError, UndefinedCentroidError
from .errors import require_positive
from .sensor import LoadCellSpec, add_noise, bridge_output, quantize
from . import kvfile


@dataclass(frozen=True)
class Placement:
    """One point mass on the deck."""

    mass_kg: float
    x_m: float
    y_m: float


#: Curb weights of a scenario that names none.
NO_CURB = FourCellReading(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    """A deck, its curb weights, and the masses placed on it."""

    geometry: DeckGeometry
    placements: tuple[Placement, ...] = ()
    curb: FourCellReading = NO_CURB
    noise_seed: int = 0
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if not (isinstance(self.noise_seed, (int, np.integer)) and self.noise_seed >= 0):
            raise InvalidSeedError(f"noise_seed must be an integer >= 0, got {self.noise_seed!r}")
        if not math.isfinite(self.temperature_c):
            raise ValueError(f"temperature_c must be finite, got {self.temperature_c}")
        for p in self.placements:
            require_positive("placement mass", p.mass_kg, InvalidPlacementError)
            if not 0.0 <= p.x_m <= self.geometry.wheelbase_m:
                raise InvalidPlacementError(
                    f"x={p.x_m} m outside deck [0, {self.geometry.wheelbase_m}]"
                )
            if not 0.0 <= p.y_m <= self.geometry.track_m:
                raise InvalidPlacementError(
                    f"y={p.y_m} m outside deck [0, {self.geometry.track_m}]"
                )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        source = str(path)
        pairs = kvfile.read_kv(path)
        placements = tuple(_parse_placement(v, source) for k, v in pairs if k == "placement")
        values = kvfile.as_dict([(k, v) for k, v in pairs if k != "placement"], source)
        geometry = kvfile.build(DeckGeometry, values, source)
        curb = kvfile.build(FourCellReading, values, source, "curb_", **asdict(NO_CURB))
        scenario = kvfile.build(cls, values, source, geometry=geometry, placements=placements, curb=curb)
        kvfile.reject_unknown(values, source)
        return scenario


def _parse_placement(value: str, source: str) -> Placement:
    try:
        mass_part, pos_part = value.split("@")
        x_part, y_part = pos_part.split(",")
    except ValueError:
        raise ConfigError(
            f"{source}: placement must be 'mass_kg @ x_m, y_m', got {value!r}"
        ) from None
    return Placement(
        *(kvfile.parse_float(part.strip(), "placement", source) for part in (mass_part, x_part, y_part))
    )


def corner_loads(scenario: Scenario) -> FourCellReading:
    """Bilinear distribution of every placement, plus the curb weights."""
    geom = scenario.geometry
    fl, fr, rl, rr = scenario.curb.as_tuple()
    for p in scenario.placements:
        ax = p.x_m / geom.wheelbase_m  # rearward fraction
        ay = p.y_m / geom.track_m      # leftward fraction
        fl += p.mass_kg * (1.0 - ax) * ay
        fr += p.mass_kg * (1.0 - ax) * (1.0 - ay)
        rl += p.mass_kg * ax * ay
        rr += p.mass_kg * ax * (1.0 - ay)
    return FourCellReading(fl_kg=fl, fr_kg=fr, rl_kg=rl, rr_kg=rr)


def total_mass(scenario: Scenario) -> float:
    curb = scenario.curb
    return sum(p.mass_kg for p in scenario.placements) + (
        curb.fl_kg + curb.fr_kg + curb.rl_kg + curb.rr_kg
    )


def centroid(scenario: Scenario) -> tuple[float, float]:
    """Mass-weighted mean position of placements and curb weights.

    The curb contributes at the CoG implied by its own corner reading.
    Raises UndefinedCentroidError at zero total mass.
    """
    geom = scenario.geometry
    total = 0.0
    mx = 0.0
    my = 0.0
    for p in scenario.placements:
        total += p.mass_kg
        mx += p.mass_kg * p.x_m
        my += p.mass_kg * p.y_m
    curb = scenario.curb
    curb_total = curb.fl_kg + curb.fr_kg + curb.rl_kg + curb.rr_kg
    if curb_total > 0:
        total += curb_total
        mx += (curb.rl_kg + curb.rr_kg) * geom.wheelbase_m
        my += (curb.fl_kg + curb.rl_kg) * geom.track_m
    if total == 0:
        raise UndefinedCentroidError("scenario has no mass")
    return mx / total, my / total


def run_end_to_end(
    scenario: Scenario,
    specs: tuple[LoadCellSpec, LoadCellSpec, LoadCellSpec, LoadCellSpec],
    cals: tuple[CalibrationState, CalibrationState, CalibrationState, CalibrationState],
    policy: AlertPolicy,
) -> LoadAssessment:
    """Full pipeline: corner loads → bridge → `DEFAULT_ADC` → calibration → assessment.

    Cell i draws its noise from child i of `SeedSequence(noise_seed)`,
    `SeedSequence(noise_seed, spawn_key=(i,))`, which is what
    `SeedSequence(noise_seed).spawn(4)[i]` builds, so repeated runs of the
    same scenario are bit-identical. A stream is seeded only for a cell
    whose spec has noise; a noise-free chain builds none. A ValueError
    unless there are four specs and four calibrations, one per corner.
    """
    if len(specs) != 4 or len(cals) != 4:
        raise ValueError(f"need 4 cell specs and 4 calibrations, got {len(specs)} and {len(cals)}")
    loads = corner_loads(scenario)
    masses = []
    for i, (mass, spec, cal) in enumerate(zip(loads.as_tuple(), specs, cals)):
        reading = bridge_output(spec, mass, temperature_c=scenario.temperature_c)
        if spec.noise_sigma_mv > 0:
            rng = np.random.default_rng(np.random.SeedSequence(scenario.noise_seed, spawn_key=(i,)))
            reading = add_noise(reading, spec, rng)
        masses.append(code_to_mass(quantize(reading).code, cal))
    return assess_four_cell(masses, scenario.geometry, policy)


def ideal_calibration(spec: LoadCellSpec) -> CalibrationState:
    """Calibration taken against the noise-free sensor model itself, read
    through `DEFAULT_ADC`.

    Tare at zero load, slope from the cell's capacity as the known mass.
    This is the software analogue of placing a reference weight on a
    freshly installed cell.
    """
    zero = quantize(bridge_output(spec, 0.0))
    loaded = quantize(bridge_output(spec, spec.capacity_kg))
    return calibrate(tare([zero]), spec.capacity_kg, loaded.code, temperature_c=spec.reference_temp_c)
