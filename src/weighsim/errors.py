"""Exception hierarchy, the finite-and-positive and finite-and-non-negative
checks, and the seed and integer checks.

Every failure the library signals deliberately derives from WeighSimError; a
value out of range is an InvalidValueError, a ValueError as well. The CLI maps
a WeighSimError or an OSError to exit code 1: any other exception is a bug.
"""

import math
import sys


class WeighSimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValueError(WeighSimError, ValueError):
    """A value is out of its range: not finite, not positive, not one of a set."""


def require_positive(name: str, value: float, error: type[Exception] = InvalidValueError) -> None:
    """Raise `error` unless `value` is a finite number > 0 (NaN fails both)."""
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if value <= 0:
        raise error(f"{name} must be > 0, got {value}")


def require_non_negative(name: str, value: float) -> None:
    """Raise InvalidValueError unless `value` is a finite number >= 0 (NaN fails both comparisons)."""
    if not 0 <= value < math.inf:
        raise InvalidValueError(f"{name} must be finite and >= 0, got {value}")


def require_seed(name: str, seed: object) -> None:
    """Raise InvalidSeedError unless `seed` is an integer >= 0, the seeds a
    numpy SeedSequence takes: an int or a numpy integer, never a bool."""
    if type(seed) is not int and not is_integer(seed) or seed < 0:
        raise InvalidSeedError(f"{name} must be an integer >= 0, got {seed!r}")


def is_integer(value: object) -> bool:
    """An int that is not a bool, or a numpy integer (numpy is not imported
    here: a value cannot be one before something else has loaded it)."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.integer)


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
    """No usable (non-saturated) sample: for a tare, a modeled cell's reading or a weighed cell."""


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


class GainMismatchError(WeighSimError):
    """A cell's frames carry a gain other than its calibration's."""


class ConfigError(WeighSimError):
    """A plain-text input file is malformed, incomplete or not UTF-8 text."""
