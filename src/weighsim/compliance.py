"""Weighing modes and jurisdictional checks.

Static weighing averages the trailing 15 s of a stopped-vehicle stream.
Weigh-in-motion (WIM) averages a short pass-over segment instead; it is
simulated as fewer samples under amplified noise (default ×5), which is
what makes it measurably less accurate than the static mode in paired
runs.

Tolerance rules express the maximum permissible weighing error:

  Kenya        anchored at capacities 80 t and 400 t, linear interpolation
               between them (re-verification 20→80 kg, first-time
               verification 10→40 kg); outside the anchors the rule does
               not apply.
  New Zealand  flat ±40 kg over the 10-40 t load band.
  US           0.1 % of the load (Handbook 44 acceptance tolerance).

Gross-vehicle-weight limits are a small data table keyed by axle
configuration code; the shipped entries are the two-axle configurations
("2", "2A": 18 000 kg) and the articulated six/seven-axle ones
("6A", "7": 56 000 kg). Both the tolerance comparison and the GVW
comparison are boundary-inclusive.
"""

from __future__ import annotations

import bisect
import math
from functools import partial, reduce
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ConfigError,
    IncompleteStationError,
    InsufficientDurationError,
    InvalidValueError,
    NoVehicleError,
    UncoveredCapacityError,
    require_non_negative,
    require_positive,
    require_seed,
)
from .schema import FrozenRecord
from . import kvfile

# numpy is imported only by `simulate_weigh_stream`, so a weighing loads none.
if TYPE_CHECKING:
    import numpy as np

JURISDICTIONS = ("Kenya", "NewZealand", "US")
VERIFICATION_KINDS = ("first_time", "re_verification", "acceptance")

#: Static-mode averaging window, seconds.
STATIC_WINDOW_S = 15.0

#: Weigh stream simulation: sample rate, WIM pass-over duration and WIM
#: noise amplification.
SIMULATED_RATE_HZ = 10.0
WIM_PASS_DURATION_S = 1.5
WIM_NOISE_FACTOR = 5.0

class ToleranceRule(FrozenRecord):
    """Maximum permissible error for one jurisdiction/verification kind.

    Exactly one of the three shapes is populated:
      anchor_points_t_kg   (capacity_tonnes, max_error_kg) pairs, linearly
                           interpolated, strictly increasing capacities
      band_t / band_error_kg  flat error over a closed load band
      percent_of_load      fractional error, e.g. 0.001 for 0.1 %
    """

    jurisdiction: str
    verification_kind: str
    anchor_points_t_kg: tuple[tuple[float, float], ...] = ()
    band_t: tuple[float, float] | None = None
    band_error_kg: float | None = None
    percent_of_load: float | None = None

    def __post_init__(self) -> None:
        if self.jurisdiction not in JURISDICTIONS:
            raise InvalidValueError(f"jurisdiction must be one of {JURISDICTIONS}, got {self.jurisdiction!r}")
        if self.verification_kind not in VERIFICATION_KINDS:
            raise InvalidValueError(
                f"verification kind must be one of {VERIFICATION_KINDS}, got {self.verification_kind!r}"
            )
        shapes = sum(
            (bool(self.anchor_points_t_kg), self.band_t is not None, self.percent_of_load is not None)
        )
        if shapes != 1:
            raise InvalidValueError("exactly one of anchors / band / percent must be given")
        for cap, err in self.anchor_points_t_kg:
            require_positive("anchor capacity", cap)
            require_positive("anchor max error", err)
        caps = [c for c, _ in self.anchor_points_t_kg]
        if sorted(set(caps)) != caps:
            raise InvalidValueError("anchor capacities must be strictly increasing")
        if self.band_t is not None:
            if self.band_error_kg is None:
                raise InvalidValueError("band rules need band_error_kg")
            require_positive("band max error", self.band_error_kg)
            lo, hi = self.band_t
            if not 0 <= lo <= hi:
                raise InvalidValueError(f"band must satisfy 0 <= low <= high, got {self.band_t}")
        if self.percent_of_load is not None:
            require_positive("percent of load", self.percent_of_load)


KENYA_REVERIFICATION = ToleranceRule(
    jurisdiction="Kenya",
    verification_kind="re_verification",
    anchor_points_t_kg=((80.0, 20.0), (400.0, 80.0)),
)
KENYA_FIRST_TIME = ToleranceRule(
    jurisdiction="Kenya",
    verification_kind="first_time",
    anchor_points_t_kg=((80.0, 10.0), (400.0, 40.0)),
)
NZ_BAND = ToleranceRule(
    jurisdiction="NewZealand",
    verification_kind="acceptance",
    band_t=(10.0, 40.0),
    band_error_kg=40.0,
)
US_HANDBOOK44 = ToleranceRule(
    jurisdiction="US",
    verification_kind="acceptance",
    percent_of_load=0.001,
)

BUILTIN_RULES = {
    ("Kenya", "re_verification"): KENYA_REVERIFICATION,
    ("Kenya", "first_time"): KENYA_FIRST_TIME,
    ("NewZealand", "acceptance"): NZ_BAND,
    ("US", "acceptance"): US_HANDBOOK44,
}


def max_permissible_error(rule: ToleranceRule, capacity_or_load_t: float) -> float:
    """Maximum permissible error in kg at the given capacity/load in tonnes."""
    if rule.percent_of_load is not None:
        if not 0 < capacity_or_load_t < math.inf:  # NaN fails both comparisons
            raise UncoveredCapacityError(f"load must be > 0 t, got {capacity_or_load_t}")
        return rule.percent_of_load * capacity_or_load_t * 1000.0
    if rule.band_t is not None:
        lo, hi = rule.band_t
        if not lo <= capacity_or_load_t <= hi:
            raise UncoveredCapacityError(
                f"{capacity_or_load_t} t outside the {lo}-{hi} t band of the"
                f" {rule.jurisdiction} rule"
            )
        assert rule.band_error_kg is not None
        return rule.band_error_kg
    caps = [c for c, _ in rule.anchor_points_t_kg]
    errs = [e for _, e in rule.anchor_points_t_kg]
    if not caps[0] <= capacity_or_load_t <= caps[-1]:
        raise UncoveredCapacityError(
            f"{capacity_or_load_t} t outside the {caps[0]}-{caps[-1]} t range of the"
            f" {rule.jurisdiction} {rule.verification_kind} rule"
        )
    i = bisect.bisect_right(caps, capacity_or_load_t) - 1
    if i == len(caps) - 1:
        return errs[-1]
    frac = (capacity_or_load_t - caps[i]) / (caps[i + 1] - caps[i])
    return errs[i] + frac * (errs[i + 1] - errs[i])


class ComplianceResult(FrozenRecord):
    """Outcome of one measured-vs-reference check."""

    jurisdiction: str
    verification_kind: str
    reference_kg: float
    error_kg: float
    max_error_kg: float
    passed: bool

    @property
    def margin_kg(self) -> float:
        """Remaining headroom; negative when the check failed."""
        return self.max_error_kg - self.error_kg


def check_compliance(measured_kg: float, reference_kg: float, rule: ToleranceRule) -> ComplianceResult:
    """Pass iff |measured - reference| ≤ the rule's tolerance (inclusive).

    The rule is evaluated at the reference mass (in tonnes), which serves
    as the capacity/load anchor. A reference mass that is not > 0, or a
    measured mass that is negative or not finite, is an InvalidValueError.
    """
    require_positive("reference mass", reference_kg)
    require_non_negative("measured mass", measured_kg)
    mpe = max_permissible_error(rule, reference_kg / 1000.0)
    error = abs(measured_kg - reference_kg)
    return ComplianceResult(
        jurisdiction=rule.jurisdiction,
        verification_kind=rule.verification_kind,
        reference_kg=reference_kg,
        error_kg=error,
        max_error_kg=mpe,
        passed=error <= mpe,
    )


class AxleConfiguration(FrozenRecord):
    """One row of the GVW limit table."""

    config_code: str
    axle_count: int
    gvw_limit_kg: float

    def __post_init__(self) -> None:
        require_positive("GVW limit", self.gvw_limit_kg)
        if self.axle_count < 2:
            raise InvalidValueError(f"axle count must be >= 2, got {self.axle_count}")


AXLE_CONFIGURATIONS = {
    "2": AxleConfiguration("2", axle_count=2, gvw_limit_kg=18_000),
    "2A": AxleConfiguration("2A", axle_count=2, gvw_limit_kg=18_000),
    "6A": AxleConfiguration("6A", axle_count=6, gvw_limit_kg=56_000),
    "7": AxleConfiguration("7", axle_count=7, gvw_limit_kg=56_000),
}


def within_gvw_limit(config: AxleConfiguration, measured_total_kg: float) -> bool:
    """True while the measured total does not exceed the limit (inclusive).
    A total that is negative or not finite is an InvalidValueError."""
    require_non_negative("measured total", measured_total_kg)
    return measured_total_kg <= config.gvw_limit_kg


def load_axle_table(path: str | Path) -> dict[str, AxleConfiguration]:
    """Built-in GVW table extended/overridden from a config file.

    One line per configuration: `code = axle_count, gvw_limit_kg`.
    """
    table = dict(AXLE_CONFIGURATIONS)
    with kvfile.named(path):
        for code, value in kvfile.read_kv(path):
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"{code!r} needs 'axle_count, gvw_limit_kg', got {value!r}")
            axle_count = kvfile.parse_int(parts[0], code)
            gvw_limit_kg = kvfile.parse_float(parts[1], code)
            try:
                table[code] = AxleConfiguration(code, axle_count, gvw_limit_kg)
            except InvalidValueError as exc:
                raise ConfigError(f"bad entry for {code!r}: {exc}") from None
    return table


def load_tolerance_rules(path: str | Path) -> dict[tuple[str, str], ToleranceRule]:
    """Built-in rules extended/overridden from a config file.

    One line per rule, keyed `jurisdiction/kind`, value one of:
      `anchors 80:20 400:80`   interpolated anchor points (t:kg)
      `band 10:40 40`          flat error (kg) over a load band (t)
      `percent 0.1`            percentage of load
    A part missing or left over is a ConfigError that names the key and
    the part.
    """
    rules = dict(BUILTIN_RULES)
    with kvfile.named(path):
        for key, value in kvfile.read_kv(path):
            if "/" not in key:
                raise ConfigError(f"rule key must be 'jurisdiction/kind', got {key!r}")
            jurisdiction, kind = key.split("/", 1)
            shape, *parts = value.split() or [""]
            number = partial(kvfile.parse_float, key=key)
            parts_of = partial(_rule_parts, key)
            try:
                if shape == "anchors":
                    points = [parts_of(f"anchor {a!r}", a.split(":"), ("tonnes", "kg")) for a in parts]
                    anchors = tuple((number(t), number(kg)) for t, kg in points)
                    rule = ToleranceRule(jurisdiction, kind, anchor_points_t_kg=anchors)
                elif shape == "band":
                    band, error = parts_of(repr(value), parts, ("low:high", "max_error_kg"))
                    lo, hi = (number(x) for x in parts_of(f"band {band!r}", band.split(":"), ("low", "high")))
                    rule = ToleranceRule(jurisdiction, kind, band_t=(lo, hi), band_error_kg=number(error))
                elif shape == "percent":
                    [percent] = parts_of(repr(value), parts, ("percent",))
                    rule = ToleranceRule(jurisdiction, kind, percent_of_load=number(percent) / 100.0)
                else:
                    raise ConfigError(f"unknown rule shape {shape!r} for {key!r}")
            except ValueError as exc:
                raise ConfigError(f"bad rule {key!r}: {exc}") from None
            rules[(jurisdiction, kind)] = rule
    return rules


def _rule_parts(key: str, what: str, parts: list[str], names: tuple[str, ...]) -> list[str]:
    """`parts`, one per name in `names`; else a ConfigError that names the
    rule's `key` and, in `what`, the first name missing or part left over."""
    if len(parts) < len(names):
        raise ConfigError(f"bad rule {key!r}: {what} has no {names[len(parts)]}")
    if len(parts) > len(names):
        raise ConfigError(f"bad rule {key!r}: {what} has an extra part {parts[len(names)]!r}")
    return parts


# -- weighing modes ----------------------------------------------------------


def static_window(times: Sequence[float], width: float, end: float | None = None) -> int:
    """The index of the first of the time-ordered `times` in the static
    window (end - width, end], `end` the last time unless given, compared
    by differences in the times' own unit, so integer times exactly. No
    times or a span under `width` is an InsufficientDurationError, a window
    without a time (a later `end`) an IncompleteStationError."""
    if not len(times):
        raise InsufficientDurationError("empty stream")
    end = times[-1] if end is None else end
    if end - times[-1] >= width:
        raise IncompleteStationError(f"no time in the window ({end} - {width}, {end}]")
    if times[-1] - times[0] < width:
        raise InsufficientDurationError(f"stream spans {times[-1] - times[0]}, static weighing needs {width}")
    return bisect.bisect_left(times, True, key=lambda t: end - t < width)


def static_weigh(times_s: Sequence[float], masses_kg: Sequence[float]) -> float:
    """Mean of the masses (kg) in the trailing `STATIC_WINDOW_S` window
    (`static_window`) of a stream of times (s) in time order. A value that
    is not finite or a time before the one ahead of it is an
    InvalidValueError naming its index, and so are columns of two lengths."""
    _require_finite("time", times_s)
    _require_finite("mass", masses_kg)
    if len(times_s) != len(masses_kg):
        raise InvalidValueError(f"{len(times_s)} times for {len(masses_kg)} masses")
    if back := next((i for i in range(1, len(times_s)) if times_s[i] < times_s[i - 1]), None):
        raise InvalidValueError(f"time {times_s[back]} at index {back} is before time {times_s[back - 1]} at {back - 1}")
    return mean(masses_kg[static_window(times_s, STATIC_WINDOW_S):])


def wim_weigh(masses_kg: Sequence[float]) -> tuple[float, float]:
    """Mean and sample variance over a column of finite pass-over masses."""
    if not len(masses_kg):
        raise NoVehicleError("no samples in the pass-over segment")
    _require_finite("mass", masses_kg)
    average = mean(masses_kg)
    deviations = [(m - average) * (m - average) for m in masses_kg]
    var = _sum(deviations) / (len(masses_kg) - 1) if len(masses_kg) > 1 else 0.0
    return average, float(var)


def _require_finite(name: str, values: Sequence[float]) -> None:
    """InvalidValueError naming the first of `values` that is not finite."""
    if (bad := next((i for i, v in enumerate(values) if not -math.inf < v < math.inf), None)) is not None:
        raise InvalidValueError(f"{name} {values[bad]} at index {bad} is not finite")


def mean(values: Sequence[float]) -> float:
    """The mean of float64 values, bit for bit numpy's `ndarray.mean()`:
    their sum as numpy adds them (`_sum`), divided by their count. NaN,
    infinities and -0.0 come out as numpy's do."""
    return float(_sum(values) / len(values))


def _sum(values: Sequence[float]) -> float:
    """numpy's float64 `add.reduce`: 0.0, its identity, plus the pairwise
    sum of `values`."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of `values[lo:lo + n]` (`pairwise_sum` in its
    umath loops). Under 8 values: added in order to 0.0. Up to 128: eight
    running sums, the j-th over every 8th value from the j-th, added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the last n % 8
    values in order. Above: the sums of two parts, the first n // 2 values
    rounded down to a multiple of 8, and the rest."""
    if n < 8:
        total = 0.0
        for value in values[lo : lo + n]:
            total += value
        return total
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[lo + j : end : 8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[end : lo + n]:
            total += value
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def simulate_weigh_stream(
    true_mass_kg: float, mode: str, noise_sigma_kg: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the per-mode measurement stream for one vehicle, as
    columns of sample times (s) and masses (kg), at `SIMULATED_RATE_HZ`.

    Static mode: `STATIC_WINDOW_S` of samples at `noise_sigma_kg`.
    WIM mode: a short `WIM_PASS_DURATION_S` pass with noise amplified by
    `WIM_NOISE_FACTOR`, the fewer-samples-more-noise model of weighing a
    moving vehicle. A mass or sigma that is negative or not finite is an
    InvalidValueError; a seed that is not an integer >= 0 (a bool is not) is
    an InvalidSeedError.
    """
    require_non_negative("true_mass_kg", true_mass_kg)
    require_non_negative("noise_sigma_kg", noise_sigma_kg)
    require_seed("seed", seed)
    if mode == "static":
        duration, sigma = STATIC_WINDOW_S, noise_sigma_kg
    elif mode == "wim":
        duration, sigma = WIM_PASS_DURATION_S, noise_sigma_kg * WIM_NOISE_FACTOR
    else:
        raise InvalidValueError(f"mode must be 'static' or 'wim', got {mode!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(round(duration * SIMULATED_RATE_HZ))
    dt = 1.0 / SIMULATED_RATE_HZ
    noise = rng.normal(0.0, sigma, size=n + 1) if sigma > 0 else np.zeros(n + 1)
    return np.arange(n + 1) * dt, true_mass_kg + noise
