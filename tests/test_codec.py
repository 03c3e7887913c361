from unittest import mock

import pytest
from hypothesis import given, strategies as st

from weighsim import codec
from weighsim.codec import (
    BitTrace,
    CONFIG_PULSES,
    PULSE_COUNT_GAIN,
    decode_frame,
    encode_frame,
)
from weighsim.errors import FrameError, MalformedFrameError, TruncatedFrameError
from weighsim.sensor import AdcFrame, CODE_MAX, CODE_MIN

GAIN_CHANNEL = [(128, "A"), (64, "A"), (32, "B")]


def frame(code, gain=128, channel="A"):
    return AdcFrame(code, gain=gain, channel=channel)


class TestEncode:
    def test_zero_code_gain_128(self):
        trace = encode_frame(frame(0, 128, "A"))
        assert len(trace) == 25
        assert trace.bits[:24] == "0" * 24

    def test_minus_one_gain_64(self):
        trace = encode_frame(frame(-1, 64, "A"))
        assert len(trace) == 27
        assert trace.bits[:24] == "1" * 24

    def test_binary_expansion_gain_32(self):
        trace = encode_frame(frame(4194304, 32, "B"))
        assert len(trace) == 26
        assert trace.bits[:24] == "01" + "0" * 22

    def test_config_pulses_idle_high(self):
        assert encode_frame(frame(0, 32, "B")).bits[24:] == "11"


class TestDecode:
    def test_sign_extension(self):
        assert decode_frame("1" + "0" * 23 + "1").code == CODE_MIN

    def test_pulse_count_selects_gain(self):
        f = decode_frame("0" * 26)
        assert (f.gain, f.channel) == (32, "B")

    def test_decodes_from_plain_string(self):
        assert decode_frame("0" * 24 + "1").code == 0

    def test_truncated_below_24_pulses(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame("0" * 10)

    def test_exactly_24_pulses_is_malformed(self):
        with pytest.raises(MalformedFrameError):
            decode_frame("0" * 24)

    def test_too_many_pulses_is_malformed(self):
        with pytest.raises(MalformedFrameError):
            decode_frame("0" * 28)

    def test_non_bit_symbols_are_malformed(self):
        with pytest.raises(MalformedFrameError):
            decode_frame("0" * 24 + "x")


def test_bulk_codes_equal_decode_frame():
    frames = [frame(code, *gc) for gc in GAIN_CHANNEL for code in (CODE_MIN, CODE_MAX, -1, 0, 1)]
    lines = [encode_frame(f).to_line() for f in frames]
    assert codec._data_codes(lines) == tuple(decode_frame(line).code for line in lines)
    assert codec._data_codes(lines) == tuple(f.code for f in frames)
    assert codec._data_codes([]) == ()


def test_pulse_count_table_is_a_bijection():
    assert len(PULSE_COUNT_GAIN) == len(CONFIG_PULSES) == 3
    assert sorted(PULSE_COUNT_GAIN) == [25, 26, 27]
    assert set(PULSE_COUNT_GAIN.values()) == set(CONFIG_PULSES)


@given(
    st.integers(min_value=CODE_MIN, max_value=CODE_MAX),
    st.sampled_from(GAIN_CHANNEL),
)
def test_round_trip_identity(code, gain_channel):
    f = frame(code, *gain_channel)
    assert decode_frame(encode_frame(f)) == f


@given(st.text(alphabet="01", max_size=40))
def test_bit_strings_never_crash(bits):
    try:
        f = decode_frame(bits)
    except FrameError:
        return
    assert CODE_MIN <= f.code <= CODE_MAX


@given(st.text(max_size=40))
def test_arbitrary_text_never_crashes(line):
    try:
        f = decode_frame(line)
    except FrameError:
        return
    assert CODE_MIN <= f.code <= CODE_MAX


@given(st.binary(max_size=40))
def test_arbitrary_bytes_never_crash(raw):
    try:
        f = decode_frame(raw)
    except FrameError:
        return
    assert CODE_MIN <= f.code <= CODE_MAX


def test_bit_trace_rejects_non_bits():
    with pytest.raises(MalformedFrameError):
        BitTrace("01012")


def test_numbered_counts_blank_lines_across_chunks():
    with mock.patch.object(codec, "CHUNK_LINES", 2):
        lines = ["", " ", "a", "\t", "", " b "]
        chunks = [codec.numbered(chunk, first_no) for first_no, chunk in codec.chunks(lines)]
    assert chunks == [([], []), (["a"], [3]), (["b"], [6])]
