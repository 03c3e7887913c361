"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion; each test also prints an ACCEPTANCE summary line.
"""

import json
import time

import numpy as np
import pytest

from weighsim.calibration import code_to_mass
from weighsim.codec import decode_frame, encode_frame
from weighsim.cog import (
    DeckGeometry,
    FourCellReading,
    POLICIES,
    assess_four_cell,
    assess_two_cell,
)
from weighsim.compliance import (
    AXLE_CONFIGURATIONS,
    KENYA_FIRST_TIME,
    KENYA_REVERIFICATION,
    NZ_BAND,
    US_HANDBOOK44,
    max_permissible_error,
    simulate_weigh_stream,
    static_weigh,
    wim_weigh,
    within_gvw_limit,
)
from weighsim.errors import FrameError, InsufficientDurationError
from weighsim.scenario import (
    Placement,
    Scenario,
    centroid,
    corner_loads,
    ideal_calibration,
    total_mass,
)
from weighsim.sensor import (
    AdcConfig,
    AdcFrame,
    CODE_MAX,
    CODE_MIN,
    FOUR_CELL_120KG,
    TWO_CELL_5KG,
    bridge_output,
    quantize,
)
from weighsim.station import SensorFrameRecord, run_session

GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
P1 = POLICIES["prototype1"]
P2 = POLICIES["prototype2"]


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_threshold_reproduction():
    # two-cell, 9.5 kg limit: boundary does not flag, just above does
    assert not assess_two_cell((5.0, 4.5), GEOM, P1).overloaded
    assert assess_two_cell((5.0, 4.51), GEOM, P1).overloaded
    # four-cell, 400 kg limit
    assert not assess_four_cell((100.0, 100.0, 100.0, 100.0), GEOM, P2).overloaded
    assert assess_four_cell((100.0, 100.0, 100.0, 100.1), GEOM, P2).overloaded
    report(1, "9.5/9.51 kg and 400/400.1 kg thresholds reproduce")


def test_criterion_2_quadrant_rule():
    exactly_30 = assess_four_cell((30.0, 30.0, 30.0, 10.0), GEOM, P2)
    assert exactly_30.flagged_quadrants == ()
    just_over = assess_four_cell((30.1, 30.0, 29.9, 10.0), GEOM, P2)
    assert just_over.flagged_quadrants == ("FL",)
    report(2, "30.0 % share does not flag, 30.1 % flags that quadrant")


def test_criterion_3_cog_round_trip_and_flags():
    rng = np.random.default_rng(20240814)
    start = time.monotonic()
    false_positives = false_negatives = 0
    for _ in range(1000):
        placements = tuple(
            Placement(
                float(rng.uniform(10.0, 200.0)),
                float(rng.uniform(0.0, GEOM.wheelbase_m)),
                float(rng.uniform(0.0, GEOM.track_m)),
            )
            for _ in range(int(rng.integers(1, 6)))
        )
        curb = FourCellReading(*(float(rng.uniform(0.0, 40.0)) for _ in range(4)))
        s = Scenario(geometry=GEOM, placements=placements, curb=curb)
        a = assess_four_cell(corner_loads(s).as_tuple(), GEOM, P2)
        cx, cy = centroid(s)
        assert abs(a.x_cg_m - cx) <= 1e-9
        assert abs(a.y_cg_m - cy) <= 1e-9
        truly_overloaded = total_mass(s) > P2.overload_threshold_kg
        if a.overloaded and not truly_overloaded:
            false_positives += 1
        if truly_overloaded and not a.overloaded:
            false_negatives += 1
    elapsed = time.monotonic() - start
    assert false_positives == 0 and false_negatives == 0
    assert elapsed < 10.0
    report(3, f"1000 scenarios: CoG within 1e-9 m, 0 FP / 0 FN, {elapsed:.2f} s")


def test_criterion_4_end_to_end_linearity():
    adc = AdcConfig()
    for spec in (TWO_CELL_5KG, FOUR_CELL_120KG):
        cal = ideal_calibration(spec)
        worst = 0.0
        for i in range(100):
            mass = spec.capacity_kg * i / 99.0
            code = quantize(bridge_output(spec, mass), adc).code
            err = abs(code_to_mass(code, cal) - mass)
            worst = max(worst, err)
            assert err <= cal.scale_kg_per_lsb
    report(4, "zero-noise pipeline recovers mass within 1 LSB*scale on both cell specs")


def test_criterion_5_codec():
    rng = np.random.default_rng(5)
    gain_channel = [(128, "A"), (64, "A"), (32, "B")]
    for _ in range(10_000):
        code = int(rng.integers(CODE_MIN, CODE_MAX + 1))
        gain, channel = gain_channel[rng.integers(0, 3)]
        f = AdcFrame(code, gain, channel)
        assert decode_frame(encode_frame(f)) == f
    # every gain/channel pulse count round-trips
    for gain, channel in gain_channel:
        f = AdcFrame(12345, gain, channel)
        assert decode_frame(encode_frame(f)) == f
    # fuzz: arbitrary junk either decodes or raises a typed error
    alphabet = list("01 abc\t\N{DEGREE SIGN}#,-")
    for _ in range(5000):
        n = int(rng.integers(0, 40))
        line = "".join(rng.choice(alphabet, size=n))
        try:
            f = decode_frame(line)
            assert CODE_MIN <= f.code <= CODE_MAX
        except FrameError:
            pass
    report(5, "10,000 frames round-trip; fuzzed traces only raise typed errors")


def test_criterion_6_tolerance_table():
    assert max_permissible_error(KENYA_REVERIFICATION, 80.0) == 20.0
    assert max_permissible_error(KENYA_REVERIFICATION, 400.0) == 80.0
    assert max_permissible_error(KENYA_FIRST_TIME, 80.0) == 10.0
    assert max_permissible_error(KENYA_FIRST_TIME, 400.0) == 40.0
    assert max_permissible_error(NZ_BAND, 25.0) == 40.0
    assert max_permissible_error(US_HANDBOOK44, 40.0) == 40.0
    report(6, "all six tolerance figures reproduce exactly")


def test_criterion_7_gvw_table():
    for code in ("2", "2A"):
        assert AXLE_CONFIGURATIONS[code].gvw_limit_kg == 18_000
        assert within_gvw_limit(AXLE_CONFIGURATIONS[code], 18_000.0)
        assert not within_gvw_limit(AXLE_CONFIGURATIONS[code], 18_000.1)
    assert AXLE_CONFIGURATIONS["7"].gvw_limit_kg == 56_000
    assert within_gvw_limit(AXLE_CONFIGURATIONS["7"], 56_000.0)
    assert not within_gvw_limit(AXLE_CONFIGURATIONS["7"], 56_000.1)
    report(7, "GVW limits 18,000 kg (2/2A) and 56,000 kg (7), boundary-inclusive")


def test_criterion_8_static_beats_wim():
    static_errs, wim_errs = [], []
    for seed in range(120):
        true = float(600.0 + 37.0 * seed % 4000)
        static = static_weigh(*simulate_weigh_stream(true, "static", 1.0, seed))
        wim, _ = wim_weigh(simulate_weigh_stream(true, "wim", 1.0, seed + 500_000)[1])
        static_errs.append(abs(static - true))
        wim_errs.append(abs(wim - true))
    assert float(np.mean(static_errs)) < float(np.mean(wim_errs))
    # static mode refuses anything shorter than its 15 s window
    with pytest.raises(InsufficientDurationError):
        static_weigh(np.arange(100) / 10.0, np.full(100, 500.0))
    report(
        8,
        f"mean |err| static {np.mean(static_errs):.3f} kg < wim {np.mean(wim_errs):.3f} kg;"
        " short static streams rejected",
    )


def test_criterion_9_record_determinism(tmp_path):
    spec = FOUR_CELL_120KG
    adc = AdcConfig()
    cal = ideal_calibration(spec)

    def synthesize_and_weigh():
        # fixed per-cell loads through the noise-free sensor chain
        frames = []
        for cell, mass in enumerate([110.0, 95.0, 120.0, 100.0]):
            code = quantize(bridge_output(spec, mass), adc).code
            frames.extend(
                SensorFrameRecord("stA", cell, t * 100, code) for t in range(151)
            )
        return run_session(frames, [cal] * 4, "static", P2, GEOM)

    lines = []
    for run in range(2):
        record = synthesize_and_weigh()
        obj = json.loads(record.to_line())
        obj.pop("record_id")
        lines.append(json.dumps(obj, sort_keys=False))
    assert lines[0] == lines[1]

    # and through two whole CLI invocations on the same input files
    from weighsim.cli import main

    frames_path = tmp_path / "frames.txt"
    code = quantize(bridge_output(spec, 100.0), adc).code
    frames_path.write_text(
        "\n".join(
            f"stB,{cell},{t * 100},{code},128,0" for cell in range(4) for t in range(151)
        )
        + "\n"
    )
    cal_path = tmp_path / "cal.cfg"
    cal.to_file(cal_path)
    persisted = []
    for run in range(2):
        data_dir = tmp_path / f"run{run}"
        assert main(
            [
                "weigh", "--mode", "static",
                "--frames", str(frames_path),
                "--cal", *[str(cal_path)] * 4,
                "--data-dir", str(data_dir),
            ]
        ) in (0, 2)
        obj = json.loads((data_dir / "records.ndjson").read_bytes())
        obj.pop("record_id")
        persisted.append(json.dumps(obj, sort_keys=False))
    assert persisted[0] == persisted[1]
    report(9, "repeated runs persist byte-identical records apart from record_id")
