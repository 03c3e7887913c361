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
decodes a whole trace `CHUNK_LINES` lines at a time into columns (line
numbers, codes, (gain, channel) configs), without a per-line object. A
chunk whose every line is a frame as it stands (no blank line, padding or
fault) is decoded in one pass: its codes come from a single base-2
conversion of all its data bits, and its line numbers are a `range`. Any
other chunk is stripped and numbered line by line, and its first invalid
line raises the error `decode_frame` gives for that line alone.

The wire code's four tables are defined here only: the 24-bit code range
`CODE_MIN`..`CODE_MAX`, its ends `RAILS` (a code on either is saturated)
and `GAIN_CHANNELS`, each gain's channel, from `CONFIG_PULSES`. `sensor`
re-exports them; `station` and `calibration` import them from here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import FrameError, MalformedFrameError, TruncatedFrameError

# `sensor` imports its tables from here; `decode_frame` takes `AdcFrame`
# from it only for a line that decodes, so a bad trace loads no numpy.
if TYPE_CHECKING:
    from .sensor import AdcFrame

DATA_BITS = 24

#: The signed range of a DATA_BITS-bit two's complement code.
CODE_MIN = -(2 ** (DATA_BITS - 1))
CODE_MAX = 2 ** (DATA_BITS - 1) - 1

#: The two ends of the code range: a code on either is saturated.
RAILS = (CODE_MIN, CODE_MAX)

#: (gain, channel) → number of configuration pulses after the data bits.
CONFIG_PULSES = {(128, "A"): 1, (32, "B"): 2, (64, "A"): 3}

#: Gain → valid channel: only the three settings of CONFIG_PULSES exist.
GAIN_CHANNELS = {gain: channel for gain, channel in CONFIG_PULSES}

#: Total pulse count → (gain, channel). Bijective with CONFIG_PULSES.
PULSE_COUNT_GAIN = {DATA_BITS + n: gc for gc, n in CONFIG_PULSES.items()}

#: Lines read per chunk by `chunks`, for `decode_lines` and the wire
#: ingestor alike. It bounds the per-line Python objects alive at once
#: while keeping the per-chunk cost small.
CHUNK_LINES = 4096

#: `str.translate` table deleting both bit symbols: a text consists of
#: bits only exactly when nothing is left of it.
_DROP_BITS = str.maketrans("", "", "01")

#: The data bits of a trace line, and the sign byte of a word's top data byte.
_DATA_PART = itemgetter(slice(0, DATA_BITS))
_SIGN_BYTE = bytes(0xFF if byte & 0x80 else 0 for byte in range(256))

#: One decoded chunk: line numbers, codes and (gain, channel) configs.
TraceColumns = tuple[Sequence[int], Sequence[int], list[tuple[int, str]]]


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
    from .sensor import AdcFrame

    gain, channel = PULSE_COUNT_GAIN[n]
    return AdcFrame(_data_codes([trace.bits])[0], gain, channel)


def decode_lines(lines: Iterable[str]) -> Iterator[TraceColumns]:
    """Decode trace lines (any iterable, e.g. an open file) chunk by chunk.

    Yields, per chunk of `CHUNK_LINES` lines, the columns of its non-blank
    lines: line numbers (counted from 1, blank lines included), codes and
    (gain, channel) configs, row i holding what `decode_frame` gives for
    the i-th non-blank line. A chunk of frames as they stand takes one
    bulk pass and a `range` of line numbers. At the first invalid line,
    the columns of the lines before it are yielded, then the FrameError
    `decode_frame` raises for that line propagates with its `line_no` set.
    """
    for first_no, chunk in chunks(lines):
        configs = list(map(PULSE_COUNT_GAIN.get, map(len, chunk)))
        if None not in configs and not "".join(chunk).translate(_DROP_BITS):
            yield range(first_no, first_no + len(chunk)), _data_codes(chunk), configs
            continue
        kept, numbers = numbered(chunk, first_no)
        configs = list(map(PULSE_COUNT_GAIN.get, map(len, kept)))
        bad = len(kept)
        if None in configs or "".join(kept).translate(_DROP_BITS):
            bad = next(
                j for j, (bits, config) in enumerate(zip(kept, configs))
                if config is None or bits.translate(_DROP_BITS)
            )
        yield numbers[:bad], _data_codes(kept[:bad]), configs[:bad]
        if bad < len(kept):
            try:
                decode_frame(kept[bad])
            except FrameError as exc:
                exc.line_no = numbers[bad]
                raise
            raise AssertionError(f"line {numbers[bad]} rejected although it decodes")


def chunks(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """`lines` in lists of up to `CHUNK_LINES`, each with the line number
    (from 1) of its first line."""
    it = iter(lines)
    first_no = 1
    while chunk := list(islice(it, CHUNK_LINES)):
        yield first_no, chunk
        first_no += len(chunk)


def numbered(chunk: list[str], first_no: int) -> tuple[list[str], list[int]]:
    """The stripped non-blank lines of `chunk` and their line numbers."""
    stripped = list(map(str.strip, chunk))
    return list(filter(None, stripped)), list(compress(count(first_no), stripped))


def _data_codes(lines: list[str]) -> tuple[int, ...]:
    """Signed codes of trace lines that each open with 24 data bits.

    The data bits of all lines are converted by one `int(..., 2)` (base 2
    is exempt from the int digit limit) into 3 big-endian bytes per line.
    Each line's 3 bytes, after a sign byte copied from bit 23, make one
    32-bit two's complement word, and the words are unpacked at once.
    """
    n = len(lines)
    data = int("".join(map(_DATA_PART, lines)) or "0", 2).to_bytes(3 * n, "big")
    words = bytearray(4 * n)
    words[0::4] = data[0::3].translate(_SIGN_BYTE)
    words[1::4], words[2::4], words[3::4] = data[0::3], data[1::3], data[2::3]
    return struct.unpack(f">{n}i", words)
