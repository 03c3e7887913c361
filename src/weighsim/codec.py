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

One verdict, `_fault`, judges a stripped line: a non-bit symbol, then
fewer than 24 pulses, then a pulse count other than 25-27 is its
FrameError. `decode_frame` decodes one line into an `AdcFrame`;
`decode_lines` decodes a trace `CHUNK_LINES` lines at a time into columns
(line numbers, codes, pulse counts), with no per-line object.
A chunk of frames as they stand is decoded in one pass (one base-2
conversion of all its data bits, a `range` of line numbers); any other is
stripped and numbered, and if it still holds a bad line, `_fault` finds
the first. A `BitTrace` is a `str` of bits only: a trace is its wire line.

The wire code's four tables are defined here only: the 24-bit code range
`CODE_MIN`..`CODE_MAX`, its ends `RAILS` (a code on either is saturated)
and `GAIN_CHANNELS`, each gain's channel, from `CONFIG_PULSES`. `sensor`
re-exports them; `station` and `calibration` import them from here.
"""

from __future__ import annotations

import struct
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

#: One decoded chunk: line numbers, codes and pulse counts.
TraceColumns = tuple[Sequence[int], tuple[int, ...], list[int]]


class BitTrace(str):
    """A trace line: one '0'/'1' data-line bit per clock pulse."""

    __slots__ = ()

    def __new__(cls, bits: str) -> BitTrace:
        if bits.translate(_DROP_BITS):
            raise _fault(bits)
        return super().__new__(cls, bits)

    #: The line as a plain `str`.
    bits = property(str.__str__)
    to_line = str.__str__


def encode_frame(frame: AdcFrame) -> BitTrace:
    """Serialize a frame to its 25/26/27-pulse bit trace."""
    word = frame.code & 0xFFFFFF  # two's complement, 24 bits
    data = format(word, "024b")
    config = "1" * CONFIG_PULSES[(frame.gain, frame.channel)]
    return BitTrace(data + config)


def decode_frame(trace: str | bytes) -> AdcFrame:
    """Inverse of encode_frame; sign-extends bit 23. Total over arbitrary
    text or byte lines: an invalid line raises the FrameError of `_fault`."""
    if isinstance(trace, (bytes, bytearray)):
        trace = trace.decode("latin-1")
    line = trace.strip()
    if fault := _fault(line):
        raise fault
    from .sensor import AdcFrame

    return AdcFrame(_data_codes([line])[0], *PULSE_COUNT_GAIN[len(line)])


def _fault(line: str) -> FrameError | None:
    """The verdict on a stripped trace line: None for a frame, else the
    FrameError of its first fault, checked in this order: a non-bit symbol,
    fewer than 24 pulses, a pulse count other than 25-27."""
    n = len(line)
    if line.translate(_DROP_BITS):
        return MalformedFrameError(f"trace contains non-bit symbols: {line!r}")
    if n < DATA_BITS:
        return TruncatedFrameError(f"only {n} pulses, need {DATA_BITS} data bits")
    if n not in PULSE_COUNT_GAIN:
        return MalformedFrameError(f"invalid pulse count {n}, expected one of {sorted(PULSE_COUNT_GAIN)}")
    return None


def decode_lines(lines: Iterable[str]) -> Iterator[TraceColumns]:
    """Decode trace lines (any iterable, e.g. an open file) chunk by chunk:
    per chunk, the columns of its non-blank lines, row i holding the line
    number, code and pulse count of the i-th (line numbers count blank
    lines; `PULSE_COUNT_GAIN` maps a pulse count to its (gain, channel)). At
    the first invalid line, the rows before it are yielded, then its
    FrameError is raised with `line_no` set."""
    for first_no, chunk in chunks(lines):
        numbers, pulses = range(first_no, first_no + len(chunk)), _pulses(chunk)
        if pulses is None:
            chunk, numbers = numbered(chunk, first_no)
            pulses = _pulses(chunk)
        bad = len(chunk) if pulses is not None else next(compress(count(), map(_fault, chunk)))
        good = chunk[:bad]
        yield numbers[:bad], _data_codes(good), pulses or list(map(len, good))
        if bad < len(chunk):
            fault = _fault(chunk[bad])
            fault.line_no = numbers[bad]
            raise fault


def _pulses(lines: list[str]) -> list[int] | None:
    """Each line's pulse count if every line is a frame as it stands, else
    None: the verdict of `_fault` on a whole chunk at once."""
    pulses = list(map(len, lines))
    return None if set(pulses) - PULSE_COUNT_GAIN.keys() or "".join(lines).translate(_DROP_BITS) else pulses


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
