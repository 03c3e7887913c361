"""Serial bit traces: what the converter clocks out, and decoding them."""

from weighsim import AdcFrame, decode_frame, encode_frame
from weighsim.errors import FrameError

print("encoding (24 data bits MSB-first, then 1/2/3 gain-select pulses):")
for code, gain, channel in [(0, 128, "A"), (-1, 64, "A"), (4_194_304, 32, "B"), (-8_388_608, 128, "A")]:
    trace = encode_frame(AdcFrame(code, gain, channel))
    print(f"  code {code:>9} gain {gain:>3}/{channel}: {trace.to_line()}  ({len(trace)} pulses)")

print("\ndecoding round trip:")
frame = AdcFrame(-123_456, 32, "B")
line = encode_frame(frame).to_line()
back = decode_frame(line)
print(f"  {frame}")
print(f"  -> {line}")
print(f"  -> {back}")
print(f"  identical: {back == frame}")

print("\nmalformed traces produce typed errors, never crashes:")
for junk in ["0" * 10, "0" * 24, "0" * 28, "01xyz" + "0" * 20]:
    try:
        decode_frame(junk)
    except FrameError as exc:
        print(f"  {junk[:28]:<30} -> {type(exc).__name__}: {exc}")
