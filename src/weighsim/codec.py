"""Bit-exact codec for the weigh-scale ADC serial frame.

One conversion is clocked out as 25-27 pulses on a shared clock/data pair:

    pulses 1-24   data bits, two's complement code, MSB first
    extra pulses  select gain/channel for the *next* conversion:
                      +1 pulse (25 total) → channel A, gain 128
                      +2 pulses (26 total) → channel B, gain 32
                      +3 pulses (27 total) → channel A, gain 64

The data line idles high once bit 24 has been shifted out, so the encoder
emits '1' for every configuration pulse; the decoder ignores those bit
values and counts pulses only.

Wire text format: one frame per line, each line a string of '0'/'1'
characters, length 25-27. The decoder is total over arbitrary lines:
anything invalid raises a typed FrameError, never an unhandled crash.

`decode_frame` decodes one line into an `AdcFrame`. `decode_lines`
decodes a whole trace in chunks of `CHUNK_LINES` into rows of plain
values, without a per-line object; its first invalid line raises the
error `decode_frame` gives for that line alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice
from typing import Iterable, Iterator

from .errors import FrameError, MalformedFrameError, TruncatedFrameError
from .sensor import AdcFrame, CODE_MAX, CODE_MIN

DATA_BITS = 24

#: (gain, channel) → number of configuration pulses after the data bits.
CONFIG_PULSES = {(128, "A"): 1, (32, "B"): 2, (64, "A"): 3}

#: Total pulse count → (gain, channel). Bijective with CONFIG_PULSES.
PULSE_COUNT_GAIN = {DATA_BITS + n: gc for gc, n in CONFIG_PULSES.items()}

#: Lines read per chunk by `numbered_chunks`. It bounds the per-line
#: Python objects alive at once while keeping the per-chunk cost small.
CHUNK_LINES = 4096

#: `str.translate` table deleting both bit symbols: a text consists of
#: bits only exactly when nothing is left of it.
_DROP_BITS = str.maketrans("", "", "01")

#: One decoded trace line: (line_no, code, gain, channel, saturated).
TraceRow = tuple[int, int, int, str, bool]


@dataclass(frozen=True)
class BitTrace:
    """Clock-pulse sequence; each pulse carries one data-line bit."""

    bits: str

    def __post_init__(self) -> None:
        if self.bits.translate(_DROP_BITS):
            raise MalformedFrameError(f"trace contains non-bit symbols: {self.bits!r}")

    def __len__(self) -> int:
        return len(self.bits)

    def to_line(self) -> str:
        return self.bits

    @classmethod
    def from_line(cls, line: str) -> "BitTrace":
        return cls(line.strip())


def encode_frame(frame: AdcFrame) -> BitTrace:
    """Serialize a frame to its 25/26/27-pulse bit trace."""
    word = frame.code & 0xFFFFFF  # two's complement, 24 bits
    data = format(word, "024b")
    config = "1" * CONFIG_PULSES[(frame.gain, frame.channel)]
    return BitTrace(data + config)


def decode_frame(trace: BitTrace | str | bytes) -> AdcFrame:
    """Inverse of encode_frame; sign-extends bit 23.

    Total over arbitrary text or byte lines: raises TruncatedFrameError
    when fewer than 24 data pulses arrived and MalformedFrameError for any
    other invalid pulse count or symbol.
    """
    if isinstance(trace, (bytes, bytearray)):
        trace = trace.decode("latin-1")
    if isinstance(trace, str):
        trace = BitTrace.from_line(trace)
    n = len(trace)
    if n < DATA_BITS:
        raise TruncatedFrameError(f"only {n} pulses, need {DATA_BITS} data bits")
    if n not in PULSE_COUNT_GAIN:
        raise MalformedFrameError(f"invalid pulse count {n}, expected one of {sorted(PULSE_COUNT_GAIN)}")
    gain, channel = PULSE_COUNT_GAIN[n]
    return AdcFrame.from_code(_data_code(trace.bits), gain=gain, channel=channel)


def numbered_chunks(lines: Iterable[str]) -> Iterator[tuple[list[str], list[int]]]:
    """Read `lines` (any iterable, e.g. an open file) `CHUNK_LINES` at a time.

    Yields, per chunk with a non-blank line, its stripped non-blank lines
    and their line numbers, counted from 1 with blank lines included.
    """
    it = iter(lines)
    first_no = 1
    while chunk := list(islice(it, CHUNK_LINES)):
        stripped = list(map(str.strip, chunk))
        if kept := list(filter(None, stripped)):
            yield kept, list(compress(count(first_no), stripped))
        first_no += len(chunk)


def decode_lines(lines: Iterable[str]) -> Iterator[list[TraceRow]]:
    """Decode trace lines (any iterable, e.g. an open file) chunk by chunk.

    Yields, for each chunk of `numbered_chunks`, one row
    (line_no, code, gain, channel, saturated) per non-blank line, each
    equal to the fields of `decode_frame(line)`. At the first invalid
    line, the rows of the lines before it are yielded, then the FrameError
    `decode_frame` raises for that line propagates with its `line_no` set.
    """
    for kept, numbers in numbered_chunks(lines):
        configs = list(map(PULSE_COUNT_GAIN.get, map(len, kept)))
        bad = None
        if None in configs or "".join(kept).translate(_DROP_BITS):
            bad = next(
                j for j, (bits, config) in enumerate(zip(kept, configs))
                if config is None or bits.translate(_DROP_BITS)
            )
        yield [
            (line_no, code, gain, channel, code in (CODE_MIN, CODE_MAX))
            for line_no, code, (gain, channel) in zip(
                numbers[:bad], map(_data_code, kept[:bad]), configs
            )
        ]
        if bad is not None:
            try:
                decode_frame(kept[bad])
            except FrameError as exc:
                exc.line_no = numbers[bad]
                raise
            raise AssertionError(f"line {numbers[bad]} rejected although it decodes")


def _data_code(bits: str) -> int:
    """Signed code of the 24 data bits that open a valid trace; sign-extends bit 23."""
    code = int(bits[:DATA_BITS], 2)
    return code - 2**24 if code >= 2**23 else code
