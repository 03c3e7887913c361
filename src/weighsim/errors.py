"""Exception hierarchy, and the finite-and-positive check of the dataclasses.

Every failure the library signals deliberately derives from WeighSimError,
so callers (and the CLI, which maps them to exit code 1) can catch one type.
"""

import math


def require_positive(name: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise `error` unless `value` is a finite number > 0 (NaN fails both)."""
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if value <= 0:
        raise error(f"{name} must be > 0, got {value}")


class WeighSimError(Exception):
    """Base class for all errors raised by this package."""


# sensor chain ---------------------------------------------------------------

class MechanicalOverrangeError(WeighSimError):
    """Applied mass exceeds the destructive limit of the load cell."""


# serial frame codec ---------------------------------------------------------

class FrameError(WeighSimError):
    """Base for serial bit-trace decode failures.

    `line_no` is the 1-based trace line when the frame came from a trace
    decoded by `codec.decode_lines`; the message itself carries no number.
    """

    line_no: int | None = None


class MalformedFrameError(FrameError):
    """Trace has an invalid pulse count or carries non-bit symbols."""


class TruncatedFrameError(FrameError):
    """Trace ends before all 24 data pulses were clocked out."""


# calibration ----------------------------------------------------------------

class InsufficientSamplesError(WeighSimError):
    """Tare requested with no usable (non-saturated) samples."""


class DegenerateCalibrationError(WeighSimError):
    """Known-mass code equals the tare code; no slope can be derived."""


class InvertedWiringError(WeighSimError):
    """Calibration slope came out negative (signal pair swapped)."""


class TareRangeError(WeighSimError):
    """Tare code lies outside the signed 24-bit range an ADC can report."""


# centre-of-gravity engine ---------------------------------------------------

class InvalidReadingError(WeighSimError):
    """A per-cell weight was negative or not finite."""


# weighing modes & compliance ------------------------------------------------

class InsufficientDurationError(WeighSimError):
    """Static weighing needs the full averaging window of data."""


class NoVehicleError(WeighSimError):
    """Weigh-in-motion pass-over segment contained no samples."""


class UncoveredCapacityError(WeighSimError):
    """Capacity/load outside the range a tolerance rule covers."""


# scenario harness -----------------------------------------------------------

class InvalidPlacementError(WeighSimError):
    """Placed mass is non-positive or lies outside the deck."""


class InvalidSeedError(WeighSimError):
    """Noise seed is not an integer >= 0, the seeds a numpy SeedSequence takes."""


class UndefinedCentroidError(WeighSimError):
    """Centroid requested for a scenario with zero total mass."""


# station service ------------------------------------------------------------

class RecordParseError(WeighSimError):
    """A wire-format or persisted line could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SequencingError(WeighSimError):
    """Timestamp went backwards within one (station, cell) stream."""


class IncompleteStationError(WeighSimError):
    """A weigh session is missing frames for one or more cells."""


class ConfigError(WeighSimError):
    """A plain-text configuration file is malformed or incomplete."""
