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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDurationError,
    NoVehicleError,
    UncoveredCapacityError,
)
from . import kvfile

JURISDICTIONS = ("Kenya", "NewZealand", "US")
VERIFICATION_KINDS = ("first_time", "re_verification", "acceptance")

#: Static-mode averaging window, seconds.
STATIC_WINDOW_S = 15.0

#: WIM simulation defaults: pass-over duration and noise amplification.
WIM_PASS_DURATION_S = 1.5
WIM_NOISE_FACTOR = 5.0

#: A timestamped mass sample: (time in seconds, mass in kg).
MassSample = tuple[float, float]


@dataclass(frozen=True)
class ToleranceRule:
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
            raise ValueError(f"jurisdiction must be one of {JURISDICTIONS}, got {self.jurisdiction!r}")
        if self.verification_kind not in VERIFICATION_KINDS:
            raise ValueError(
                f"verification kind must be one of {VERIFICATION_KINDS}, got {self.verification_kind!r}"
            )
        shapes = sum(
            (bool(self.anchor_points_t_kg), self.band_t is not None, self.percent_of_load is not None)
        )
        if shapes != 1:
            raise ValueError("exactly one of anchors / band / percent must be given")
        if self.anchor_points_t_kg:
            caps = [c for c, _ in self.anchor_points_t_kg]
            if sorted(set(caps)) != caps:
                raise ValueError("anchor capacities must be strictly increasing")
            if any(err <= 0 for _, err in self.anchor_points_t_kg):
                raise ValueError("anchor max errors must be > 0")
        if self.band_t is not None and self.band_error_kg is None:
            raise ValueError("band rules need band_error_kg")


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


def builtin_rule(jurisdiction: str, verification_kind: str) -> ToleranceRule:
    try:
        return BUILTIN_RULES[(jurisdiction, verification_kind)]
    except KeyError:
        known = ", ".join(f"{j}/{k}" for j, k in sorted(BUILTIN_RULES))
        raise ValueError(
            f"no built-in rule for {jurisdiction}/{verification_kind}; known: {known}"
        ) from None


def max_permissible_error(rule: ToleranceRule, capacity_or_load_t: float) -> float:
    """Maximum permissible error in kg at the given capacity/load in tonnes."""
    if rule.percent_of_load is not None:
        if capacity_or_load_t <= 0:
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


@dataclass(frozen=True)
class ComplianceResult:
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
    as the capacity/load anchor.
    """
    if reference_kg <= 0:
        raise ValueError(f"reference mass must be > 0, got {reference_kg}")
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


@dataclass(frozen=True)
class AxleConfiguration:
    """One row of the GVW limit table."""

    config_code: str
    axle_count: int
    gvw_limit_kg: float

    def __post_init__(self) -> None:
        if self.gvw_limit_kg <= 0:
            raise ValueError(f"GVW limit must be > 0, got {self.gvw_limit_kg}")
        if self.axle_count < 2:
            raise ValueError(f"axle count must be >= 2, got {self.axle_count}")


AXLE_CONFIGURATIONS = {
    "2": AxleConfiguration("2", axle_count=2, gvw_limit_kg=18_000),
    "2A": AxleConfiguration("2A", axle_count=2, gvw_limit_kg=18_000),
    "6A": AxleConfiguration("6A", axle_count=6, gvw_limit_kg=56_000),
    "7": AxleConfiguration("7", axle_count=7, gvw_limit_kg=56_000),
}


def within_gvw_limit(config: AxleConfiguration, measured_total_kg: float) -> bool:
    """True while the measured total does not exceed the limit (inclusive)."""
    return measured_total_kg <= config.gvw_limit_kg


def load_axle_table(path: str | Path) -> dict[str, AxleConfiguration]:
    """Built-in GVW table extended/overridden from a config file.

    One line per configuration: `code = axle_count, gvw_limit_kg`.
    """
    table = dict(AXLE_CONFIGURATIONS)
    source = str(path)
    for code, value in kvfile.read_kv(path):
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"{source}: {code!r} needs 'axle_count, gvw_limit_kg', got {value!r}")
        try:
            table[code] = AxleConfiguration(code, axle_count=int(parts[0]), gvw_limit_kg=float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{source}: bad entry for {code!r}: {exc}") from None
    return table


def load_tolerance_rules(path: str | Path) -> dict[tuple[str, str], ToleranceRule]:
    """Built-in rules extended/overridden from a config file.

    One line per rule, keyed `jurisdiction/kind`, value one of:
      `anchors 80:20 400:80`   interpolated anchor points (t:kg)
      `band 10:40 40`          flat error (kg) over a load band (t)
      `percent 0.1`            percentage of load
    """
    rules = dict(BUILTIN_RULES)
    source = str(path)
    for key, value in kvfile.read_kv(path):
        if "/" not in key:
            raise ConfigError(f"{source}: rule key must be 'jurisdiction/kind', got {key!r}")
        jurisdiction, kind = key.split("/", 1)
        parts = value.split()
        try:
            if parts[0] == "anchors":
                anchors = tuple(
                    (float(a.split(":")[0]), float(a.split(":")[1])) for a in parts[1:]
                )
                rule = ToleranceRule(jurisdiction, kind, anchor_points_t_kg=anchors)
            elif parts[0] == "band":
                lo, hi = (float(x) for x in parts[1].split(":"))
                rule = ToleranceRule(
                    jurisdiction, kind, band_t=(lo, hi), band_error_kg=float(parts[2])
                )
            elif parts[0] == "percent":
                rule = ToleranceRule(jurisdiction, kind, percent_of_load=float(parts[1]) / 100.0)
            else:
                raise ConfigError(f"{source}: unknown rule shape {parts[0]!r} for {key!r}")
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{source}: bad rule {key!r}: {exc}") from None
        rules[(jurisdiction, kind)] = rule
    return rules


# -- weighing modes ----------------------------------------------------------


def static_mean(times_s: np.ndarray, masses_kg: np.ndarray, window_s: float = STATIC_WINDOW_S) -> float:
    """`static_weigh` over time-ordered columns of sample times and masses."""
    if not len(times_s):
        raise InsufficientDurationError("empty stream")
    span = times_s[-1] - times_s[0]
    if span < window_s:
        raise InsufficientDurationError(
            f"stream spans {span:.3f} s, static weighing needs {window_s:.3f} s"
        )
    return float(masses_kg[times_s > times_s[-1] - window_s].mean())


def wim_stats(masses_kg: np.ndarray) -> tuple[float, float]:
    """`wim_weigh` over a column of sample masses."""
    if not len(masses_kg):
        raise NoVehicleError("no samples in the pass-over segment")
    mean = float(masses_kg.mean())
    var = float(masses_kg.var(ddof=1)) if len(masses_kg) > 1 else 0.0
    return mean, var


def _sample_columns(samples: Sequence[MassSample]) -> tuple[np.ndarray, np.ndarray]:
    table = np.array(samples, dtype=float).reshape(-1, 2)
    return table[:, 0], np.ascontiguousarray(table[:, 1])


def static_weigh(samples: Sequence[MassSample], window_s: float = STATIC_WINDOW_S) -> float:
    """Mean of the samples in the trailing window of a static weighing.

    Samples must be time-ordered (the ingestion path guarantees this).
    The stream must span at least the window. The window is half-open,
    (t_end - window, t_end], so a stream spanning exactly the window
    contributes everything after its first sample.
    """
    return static_mean(*_sample_columns(samples), window_s)


def wim_weigh(samples: Sequence[MassSample]) -> tuple[float, float]:
    """Mean and sample variance over a pass-over segment."""
    return wim_stats(_sample_columns(samples)[1])


def simulate_weigh_stream(
    true_mass_kg: float,
    mode: str,
    noise_sigma_kg: float,
    seed: int,
    sample_rate_hz: float = 10.0,
    static_duration_s: float = STATIC_WINDOW_S,
    wim_duration_s: float = WIM_PASS_DURATION_S,
    wim_noise_factor: float = WIM_NOISE_FACTOR,
) -> list[MassSample]:
    """Synthesize the per-mode measurement stream for one vehicle.

    Static mode: `static_duration_s` of samples at `noise_sigma_kg`.
    WIM mode: a short `wim_duration_s` pass with noise amplified by
    `wim_noise_factor`, the fewer-samples-more-noise model of weighing a
    moving vehicle.
    """
    if mode == "static":
        duration, sigma = static_duration_s, noise_sigma_kg
    elif mode == "wim":
        duration, sigma = wim_duration_s, noise_sigma_kg * wim_noise_factor
    else:
        raise ValueError(f"mode must be 'static' or 'wim', got {mode!r}")
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate_hz))
    dt = 1.0 / sample_rate_hz
    noise = rng.normal(0.0, sigma, size=n + 1) if sigma > 0 else np.zeros(n + 1)
    return [(i * dt, true_mass_kg + noise[i]) for i in range(n + 1)]
