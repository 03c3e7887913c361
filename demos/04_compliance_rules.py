"""Tolerance rules and GVW limits, plus static vs weigh-in-motion error."""

import numpy as np

from weighsim import (
    AXLE_CONFIGURATIONS,
    KENYA_FIRST_TIME,
    KENYA_REVERIFICATION,
    NZ_BAND,
    US_HANDBOOK44,
    check_compliance,
    max_permissible_error,
    simulate_weigh_stream,
    static_weigh,
    wim_weigh,
    within_gvw_limit,
)

print("max permissible error (kg) by capacity/load (t):")
print(f"{'t':>6} {'Kenya re-verif':>15} {'Kenya first':>12}")
for cap in (80, 160, 240, 320, 400):
    print(
        f"{cap:6d} {max_permissible_error(KENYA_REVERIFICATION, cap):15.1f}"
        f" {max_permissible_error(KENYA_FIRST_TIME, cap):12.1f}"
    )
print(f"NZ band (10-40 t): {max_permissible_error(NZ_BAND, 25):.0f} kg flat")
print(f"US 0.1 % at 40 t: {max_permissible_error(US_HANDBOOK44, 40):.0f} kg")

print("\ncompliance check, 80 t reference on a re-verified Kenyan unit:")
for measured in (80_000.0, 80_020.0, 80_020.1):
    r = check_compliance(measured, 80_000.0, KENYA_REVERIFICATION)
    print(f"  measured {measured:9.1f} kg -> error {r.error_kg:5.1f} kg,"
          f" margin {r.margin_kg:+6.1f} kg, {'PASS' if r.passed else 'FAIL'}")

print("\nGVW limits:")
for code, total in [("2", 17_500.0), ("2A", 18_000.0), ("7", 56_000.0), ("7", 56_001.0)]:
    config = AXLE_CONFIGURATIONS[code]
    verdict = "within" if within_gvw_limit(config, total) else "EXCEEDS"
    print(f"  config {code:>2} ({config.axle_count} axles): {total:9.1f} kg"
          f" {verdict} {config.gvw_limit_kg} kg")

print("\nstatic vs weigh-in-motion, 50 paired seeded runs, true mass 12,000 kg:")
static_errs, wim_errs = [], []
for seed in range(50):
    times_s, masses_kg = simulate_weigh_stream(12_000.0, "static", 1.0, seed)
    static_errs.append(abs(static_weigh(times_s, masses_kg) - 12_000.0))
    _, masses_kg = simulate_weigh_stream(12_000.0, "wim", 1.0, seed + 999)
    wim_errs.append(abs(wim_weigh(masses_kg)[0] - 12_000.0))
print(f"  mean |error| static: {np.mean(static_errs):.3f} kg")
print(f"  mean |error| wim:    {np.mean(wim_errs):.3f} kg")
