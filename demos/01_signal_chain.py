"""Walk one load cell from applied mass to calibrated mass.

Shows the full chain: bridge voltage, 24-bit quantization, two-point
calibration, and what noise and temperature drift do to readings.
"""

import numpy as np

from weighsim import (
    AdcConfig,
    LoadCellSpec,
    add_noise,
    bridge_output,
    quantize,
    code_to_mass,
)
from weighsim.scenario import ideal_calibration

spec = LoadCellSpec(capacity_kg=120.0, rated_output_mv_v=2.0, excitation_v=5.0)
adc = AdcConfig(vref_v=5.0, gain=128, channel="A")
cal = ideal_calibration(spec)

print(f"cell: {spec.capacity_kg} kg capacity, span {spec.span_mv} mV")
print(f"adc:  gain {adc.gain}, full scale ±{adc.full_scale_mv:.4f} mV")
print(f"cal:  tare {cal.tare_code}, scale {cal.scale_kg_per_lsb:.3e} kg/LSB")
print()

print(f"{'mass kg':>8} {'bridge mV':>10} {'code':>9} {'recovered kg':>13}")
for mass in (0.0, 30.0, 60.0, 90.0, 120.0):
    mv = bridge_output(spec, mass)
    frame = quantize(mv, adc)
    recovered = code_to_mass(frame.code, cal)
    print(f"{mass:8.1f} {mv:10.4f} {frame.code:9d} {recovered:13.6f}")

print()
print("with 1 µV rms noise, 60 kg applied, 10 samples:")
noisy_spec = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.001)
rng = np.random.default_rng(7)
masses = []
for _ in range(10):
    mv = add_noise(bridge_output(noisy_spec, 60.0), noisy_spec, rng)
    masses.append(code_to_mass(quantize(mv, adc).code, cal))
print("  " + "  ".join(f"{m:.4f}" for m in masses))
print(f"  mean {np.mean(masses):.4f} kg, std {np.std(masses, ddof=1) * 1000:.2f} g")

print()
print("temperature drift (zero coeff 0.02 mV/°C), no load:")
drifty = LoadCellSpec(capacity_kg=120.0, temp_coeff_zero_mv_c=0.02)
for temp in (15.0, 25.0, 35.0, 45.0):
    mv = bridge_output(drifty, 0.0, temperature_c=temp)
    code = quantize(mv, adc).code
    flag = " (below tare, clamped)" if code < cal.tare_code else ""
    print(f"  {temp:5.1f} °C -> {mv:+.3f} mV -> {code_to_mass(code, cal):.4f} kg{flag}")
