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

`run_end_to_end`, `ideal_calibration` and `calibrate_cell` (the CLI's
`calibrate`) read every modeled cell through `read_code`: bridge, noise,
the ADC at a gain (`DEFAULT_ADC` at 128), and the mean of the conversions
off the rails, as `weigh` leaves rail frames out. A point whose every
conversion sits on a rail is an InsufficientSamplesError naming its mass
(and, in `run_end_to_end`, its cell), never a load.

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
from pathlib import Path

import numpy as np

from .calibration import CalibrationState, calibrate, code_to_mass, tare
from .cog import QUADRANT_NAMES, AlertPolicy, DeckGeometry, FourCellReading, LoadAssessment, assess_four_cell
from .errors import ConfigError, InsufficientSamplesError, InvalidPlacementError, InvalidValueError
from .errors import UndefinedCentroidError, require_positive, require_seed
from .schema import FrozenRecord
from .sensor import DEFAULT_ADC, GAIN_CHANNELS, RAILS, AdcConfig, LoadCellSpec, add_noise, bridge_output, quantize
from . import kvfile


class Placement(FrozenRecord):
    """One point mass on the deck."""

    mass_kg: float
    x_m: float
    y_m: float


#: Curb weights of a scenario that names none.
NO_CURB = FourCellReading(0.0, 0.0, 0.0, 0.0)


class Scenario(FrozenRecord):
    """A deck, its curb weights, and the masses placed on it."""

    geometry: DeckGeometry
    placements: tuple[Placement, ...] = ()
    curb: FourCellReading = NO_CURB
    noise_seed: int = 0
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        require_seed("noise_seed", self.noise_seed)
        if not math.isfinite(self.temperature_c):
            raise InvalidValueError(f"temperature_c must be finite, got {self.temperature_c}")
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
        with kvfile.named(path):
            pairs = kvfile.read_kv(path)
            placements = tuple(_parse_placement(v) for k, v in pairs if k == "placement")
            values = kvfile.as_dict([(k, v) for k, v in pairs if k != "placement"])
            geometry = kvfile.build(DeckGeometry, values)
            curb = kvfile.build(FourCellReading, values, "curb_", **kvfile.scalars(NO_CURB))
            scenario = kvfile.build(cls, values, geometry=geometry, placements=placements, curb=curb)
            kvfile.reject_unknown(values)
        return scenario


def _parse_placement(value: str) -> Placement:
    try:
        mass_part, pos_part = value.split("@")
        x_part, y_part = pos_part.split(",")
    except ValueError:
        raise ConfigError(
            f"placement must be 'mass_kg @ x_m, y_m', got {value!r}"
        ) from None
    return Placement(
        *(kvfile.parse_float(part.strip(), "placement") for part in (mass_part, x_part, y_part))
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
    whose spec has noise; a noise-free chain builds none. An InvalidValueError
    unless there are four specs and four calibrations, one per corner.
    """
    if len(specs) != 4 or len(cals) != 4:
        raise InvalidValueError(f"need 4 cell specs and 4 calibrations, got {len(specs)} and {len(cals)}")
    loads = corner_loads(scenario)
    masses = []
    for i, (name, mass, spec, cal) in enumerate(zip(QUADRANT_NAMES, loads.as_tuple(), specs, cals)):
        noisy = spec.noise_sigma_mv > 0
        rng = np.random.default_rng(np.random.SeedSequence(scenario.noise_seed, spawn_key=(i,))) if noisy else None
        masses.append(code_to_mass(read_code(spec, mass, scenario.temperature_c, rng, cell=name), cal))
    return assess_four_cell(masses, scenario.geometry, policy)


def read_code(
    spec: LoadCellSpec, mass_kg: float, temperature_c: float, rng: np.random.Generator | None,
    samples: int = 1, cell: str | None = None, gain: int = 128,
) -> int:
    """`tare`'s mean of `samples` conversions of a modeled cell at `mass_kg`
    through the ADC at `gain` on its channel (`DEFAULT_ADC` at 128), each
    with noise from `rng` unless it is None. An InsufficientSamplesError
    names the mass, and `cell` if given, when every conversion sits on a
    rail; a gain the converter has not is an InvalidValueError."""
    adc = DEFAULT_ADC if gain == DEFAULT_ADC.gain else AdcConfig(gain=gain, channel=GAIN_CHANNELS.get(gain, "A"))
    mv = bridge_output(spec, mass_kg, temperature_c)
    if samples > 1:
        codes = [quantize(mv if rng is None else add_noise(mv, spec, rng), adc).code for _ in range(samples)]
        if not all(code in RAILS for code in codes):
            return tare(codes)
    elif (code := quantize(mv if rng is None else add_noise(mv, spec, rng), adc).code) not in RAILS:
        return code  # tare's rule on one conversion, without its list
    raise InsufficientSamplesError(f"no non-saturated sample at {mass_kg} kg" + (f" on cell {cell}" if cell else ""))


def calibrate_cell(
    spec: LoadCellSpec, known_mass_kg: float, temperature_c: float, rng: np.random.Generator | None, samples: int,
    gain: int = 128,
) -> CalibrationState:
    """Tare at zero load, then the slope from `known_mass_kg`: each point is
    `read_code` at `gain`, zero first, and the calibration holds at `gain`."""
    tare_code, code = (read_code(spec, mass, temperature_c, rng, samples, gain=gain) for mass in (0.0, known_mass_kg))
    return calibrate(tare_code, known_mass_kg, code, temperature_c=temperature_c, gain=gain)


def ideal_calibration(spec: LoadCellSpec) -> CalibrationState:
    """Noise-free `calibrate_cell` at the cell's capacity and reference temperature, one conversion
    per point: the software analogue of a reference weight on a freshly installed cell."""
    return calibrate_cell(spec, spec.capacity_kg, spec.reference_temp_c, None, 1)
