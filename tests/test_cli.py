import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weighsim import cli, codec
from weighsim.cli import _split_lines, main
from weighsim.codec import encode_frame
from weighsim.errors import InvalidValueError, WeighSimError, require_positive
from weighsim.sensor import CODE_MAX, CODE_MIN, RAILS, AdcFrame, LoadCellSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

BALANCED_SCENARIO = """
wheelbase_m = 2.0
track_m = 1.5
curb_fl_kg = 25
curb_fr_kg = 25
curb_rl_kg = 25
curb_rr_kg = 25
"""

OVERLOAD_SCENARIO = """
wheelbase_m = 2.0
track_m = 1.5
placement = 500 @ 1.0, 0.75
"""


@pytest.fixture
def scenario_file(tmp_path):
    def write(text, name="scenario.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestSimulate:
    def test_balanced_exits_safe(self, scenario_file, capsys):
        assert main(["simulate", scenario_file(BALANCED_SCENARIO)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total_kg"] == pytest.approx(100.0, abs=0.01)
        assert not out["overloaded"]

    def test_overload_exits_2(self, scenario_file, capsys):
        assert main(["simulate", scenario_file(OVERLOAD_SCENARIO)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["overloaded"]

    def test_lcd_flag(self, scenario_file, capsys):
        main(["simulate", scenario_file(OVERLOAD_SCENARIO), "--lcd"])
        out = capsys.readouterr().out
        assert "OVERLOAD" in out and "TOTAL" in out

    def test_missing_file_is_operational_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_config_value_is_rejected(self, scenario_file, capsys, value):
        config = scenario_file(f"overload_threshold_kg = {value}\n", "station.cfg")
        assert main(["simulate", scenario_file(OVERLOAD_SCENARIO), "--config", config]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"weighsim: error: {config}: key 'overload_threshold_kg' is not a finite number: {value!r}\n"
        )

    def test_prototype1_policy(self, scenario_file, capsys):
        # 100 kg curb is overloaded against the 9.5 kg limit
        assert main(["simulate", scenario_file(BALANCED_SCENARIO), "--policy", "prototype1"]) == 2

    def test_non_finite_placement_is_rejected(self, scenario_file, capsys):
        path = scenario_file("wheelbase_m = 2.0\ntrack_m = 1.5\nplacement = nan @ 1.0, 0.75\n")
        assert main(["simulate", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"weighsim: error: {path}: key 'placement' is not a finite number: 'nan'\n"

    def test_unknown_scenario_key_is_rejected(self, scenario_file, capsys):
        path = scenario_file(BALANCED_SCENARIO + "curb_fl = 500\n")
        assert main(["simulate", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"weighsim: error: {path}: unknown key 'curb_fl'\n"

    def test_scenario_breadth_must_be_positive(self, scenario_file, capsys):
        path = scenario_file(BALANCED_SCENARIO + "breadth_m = -3\n")
        assert main(["simulate", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"weighsim: error: {path}: breadth_m must be > 0, got -3.0\n"

    @pytest.mark.parametrize("spec", [None, "capacity_kg = 120\nnoise_sigma_mv = 0.002\n"], ids=["noise_free", "noisy"])
    def test_negative_noise_seed_is_rejected(self, scenario_file, capsys, spec):
        # a noise-free chain seeds no stream, so numpy never sees the seed
        path = scenario_file(BALANCED_SCENARIO + "noise_seed = -1\n")
        argv = ["simulate", path] + (["--cell-spec", scenario_file(spec, "spec.cfg")] if spec else [])
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"weighsim: error: {path}: noise_seed must be an integer >= 0, got -1\n"

    def test_config_policy_key_overrides_the_preset(self, scenario_file, capsys):
        # every quadrant holds 25 %, above a 10 % share limit
        config = scenario_file("quadrant_threshold_pct = 10\n", "station.cfg")
        assert main(["simulate", scenario_file(BALANCED_SCENARIO), "--config", config]) == 2
        assert json.loads(capsys.readouterr().out)["flagged_quadrants"] == ["FL", "FR", "RL", "RR"]
        assert main(["simulate", scenario_file(BALANCED_SCENARIO), "--config", config, "--policy", "prototype2"]) == 0


class TestCalibrateWeighAssess:
    def make_frame_file(self, tmp_path, cal, masses_kg, n=151):
        # codes that the given calibration maps back to the wanted masses
        lines = []
        for cell, mass in enumerate(masses_kg):
            code = round(mass / cal.scale_kg_per_lsb) + cal.tare_code
            for i in range(n):
                lines.append(f"st9,{cell},{i * 100},{code},128,0")
        path = tmp_path / "frames.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_full_flow(self, tmp_path, capsys):
        spec_path = tmp_path / "cell.cfg"
        LoadCellSpec(capacity_kg=120.0).to_file(spec_path)
        cal_path = tmp_path / "cal.cfg"
        assert (
            main(
                [
                    "calibrate",
                    "--cell-spec", str(spec_path),
                    "--known-mass", "120",
                    "--out", str(cal_path),
                ]
            )
            == 0
        )
        capsys.readouterr()

        from weighsim.calibration import CalibrationState

        cal = CalibrationState.from_file(cal_path)
        frames = self.make_frame_file(tmp_path, cal, [110.0, 115.0, 108.0, 112.0])
        data_dir = tmp_path / "records"
        code = main(
            [
                "weigh",
                "--mode", "static",
                "--frames", frames,
                "--cal", str(cal_path), str(cal_path), str(cal_path), str(cal_path),
                "--data-dir", str(data_dir),
                "--axle-config", "2",
            ]
        )
        assert code == 2  # 445 kg > 400 kg preset
        record = json.loads(capsys.readouterr().out)
        assert record["assessment"]["overloaded"]
        assert record["compliance"][0]["check"] == "gvw"
        assert record["compliance"][0]["passed"]  # far below 18 t

        assert main(["assess", record["record_id"], "--data-dir", str(data_dir)]) == 2
        again = json.loads(capsys.readouterr().out)
        assert again == record

    def test_short_static_stream_fails(self, tmp_path, capsys):
        from weighsim.calibration import CalibrationState

        cal_path = tmp_path / "cal.cfg"
        CalibrationState(
            tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),)
        ).to_file(cal_path)
        cal = CalibrationState.from_file(cal_path)
        frames = self.make_frame_file(tmp_path, cal, [10.0] * 4, n=101)  # 10 s only
        code = main(
            [
                "weigh",
                "--mode", "static",
                "--frames", frames,
                "--cal", *([str(cal_path)] * 4),
                "--data-dir", str(tmp_path / "records"),
            ]
        )
        assert code == 1
        assert "15" in capsys.readouterr().err

    def test_cell_spec_check_names_its_file(self, tmp_path, capsys):
        # used to print "capacity must be > 0, got -5.0" without the file
        spec = tmp_path / "spec.cfg"
        spec.write_text("capacity_kg = -5\n")
        code = main(["calibrate", "--cell-spec", str(spec), "--known-mass", "1", "--out", str(tmp_path / "c.cfg")])
        assert code == 1
        out = capsys.readouterr()
        assert out.out == "" and not (tmp_path / "c.cfg").exists()
        assert out.err == f"weighsim: error: {spec}: capacity must be > 0, got -5.0\n"


class TestCalibrateSaturation:
    """`calibrate` averages each point over its non-saturated samples."""

    SPEC = LoadCellSpec(capacity_kg=120.0, rated_output_mv_v=8.0, noise_sigma_mv=0.02)  # rail at ~117.19 kg

    def calibrate(self, tmp_path, known_mass):
        spec_path, out = tmp_path / "spec.cfg", tmp_path / "cal.cfg"
        self.SPEC.to_file(spec_path)
        code = main(["calibrate", "--cell-spec", str(spec_path), "--known-mass", known_mass, "--out", str(out)])
        return code, out

    def test_a_point_where_every_sample_saturates_is_rejected(self, tmp_path, capsys):
        # used to exit 0 with ref_code_0 = 8388607, so 50 kg then read as 64.0 kg
        code, out = self.calibrate(tmp_path, "150")
        assert code == 1 and not out.exists()
        assert capsys.readouterr() == ("", "weighsim: error: no non-saturated sample at 150.0 kg\n")

    def test_saturated_samples_are_left_out_of_the_mean(self, tmp_path):
        from weighsim.calibration import CalibrationState
        from weighsim.sensor import AdcConfig, add_noise, bridge_output, quantize

        code, out = self.calibrate(tmp_path, "117.2")
        assert code == 0
        rng = np.random.default_rng(0)  # the --seed default; the zero point is drawn first
        codes = [
            [quantize(add_noise(bridge_output(self.SPEC, mass), self.SPEC, rng), AdcConfig()) for _ in range(16)]
            for mass in (0.0, 117.2)
        ]
        zero, loaded = ([f.code for f in frames if not f.saturated] for frames in codes)
        assert len(zero) == 16 and 0 < len(loaded) < 16
        cal = CalibrationState.from_file(out)
        assert cal.tare_code == round(sum(zero) / 16)
        assert cal.reference_points == ((117.2, round(sum(loaded) / len(loaded))),)


class TestCalibrateGain:
    """`calibrate --gain` reads the modeled cell at the station's gain, and
    the calibration holds at that gain."""

    SPEC = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.002)
    MASSES = (50.0, 60.0, 55.0, 45.0)

    def calibrate(self, tmp_path, *gain):
        spec_path, out = tmp_path / "spec.cfg", tmp_path / f"cal{''.join(gain)}.cfg"
        self.SPEC.to_file(spec_path)
        argv = ["calibrate", "--cell-spec", str(spec_path), "--known-mass", "100", "--out", str(out), "--seed", "3"]
        return main([*argv, *gain]), out

    def weigh(self, tmp_path, cal_path, gain):
        from weighsim.scenario import read_code

        codes = [read_code(self.SPEC, mass, 25.0, None, gain=gain) for mass in self.MASSES]
        lines = [f"st9,{cell},{t * 100},{code},{gain},0" for t in range(151) for cell, code in enumerate(codes)]
        (tmp_path / "frames.txt").write_text("\n".join(lines) + "\n")
        argv = ["weigh", "--mode", "static", "--frames", str(tmp_path / "frames.txt"), "--cal", *[str(cal_path)] * 4]
        return main([*argv, "--data-dir", str(tmp_path / "records")])

    @pytest.mark.parametrize("gain, channel_scale", [(64, 2.0), (32, 4.0)])
    def test_a_calibration_at_a_gain_weighs_a_capture_of_that_gain(self, tmp_path, capsys, gain, channel_scale):
        # used to be refused: calibrate had no --gain, so its file held gain 128
        from weighsim.calibration import CalibrationState

        code, out = self.calibrate(tmp_path, "--gain", str(gain))
        assert code == 0 and f"\ngain = {gain}\n" in out.read_text()
        cal, cal128 = CalibrationState.from_file(out), CalibrationState.from_file(self.calibrate(tmp_path)[1])
        assert cal.gain == gain and cal.scale_kg_per_lsb == pytest.approx(channel_scale * cal128.scale_kg_per_lsb, rel=1e-3)
        capsys.readouterr()
        assert self.weigh(tmp_path, out, gain) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cell_masses_kg"] == pytest.approx(self.MASSES, abs=0.05)
        assert record["calibration_fingerprint"] == "+".join([cal.fingerprint()] * 4)

    def test_a_gain_128_calibration_refuses_a_gain_64_capture(self, tmp_path, capsys):
        _, out = self.calibrate(tmp_path)
        capsys.readouterr()
        assert self.weigh(tmp_path, out, 64) == 1
        assert capsys.readouterr().err == "weighsim: error: cell 0 has a frame of gain 64, its calibration gain 128\n"

    @pytest.mark.parametrize("gain", [(), ("--gain", "128")], ids=["default", "128"])
    def test_a_gain_128_file_keeps_its_bytes(self, tmp_path, capsys, gain):
        code, out = self.calibrate(tmp_path, *gain)
        assert code == 0
        assert out.read_text() == (
            "# cell calibration\n"
            "tare_code = -98\n"
            "scale_kg_per_lsb = 5.5872757616714e-05\n"
            "calibrated_at_temp_c = 25.0\n"
            "ref_mass_kg_0 = 100.0\n"
            "ref_code_0 = 1789683\n"
        )
        assert capsys.readouterr().out == (
            '{"tare_code":-98,"scale_kg_per_lsb":5.5872757616714e-05,"calibrated_at_temp_c":25.0,'
            f'"out":"{out}"}}\n'
        )


PAIRING ="a tolerance check needs both a tolerance rule and a reference mass"


class TestWeighInput:
    """Frame-file and geometry errors: exit 1 with one line on stderr."""

    @pytest.fixture
    def weigh(self, tmp_path, capsys):
        from weighsim.calibration import CalibrationState

        cal_path = tmp_path / "cal.cfg"
        CalibrationState(
            tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),)
        ).to_file(cal_path)

        def run(*frame_texts, extra=()):
            paths = []
            for i, text in enumerate(frame_texts):
                path = tmp_path / f"frames{i}.txt"
                (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
                paths.append(str(path))
            code = main(
                [
                    "weigh", "--mode", "static", "--frames", *paths,
                    "--cal", *([str(cal_path)] * 4),
                    "--data-dir", str(tmp_path / "records"), *extra,
                ]
            )
            return code, capsys.readouterr()

        return run

    @staticmethod
    def frames(t_from=0, t_to=15_000, step=100, station="st9"):
        return "".join(
            f"{station},{cell},{t},10000,128,0\n" for t in range(t_from, t_to + 1, step) for cell in range(4)
        )

    @pytest.mark.parametrize(
        "cells, scale, message",
        [(4, 3e306, "quadrant FL share must be finite, got inf"), (2, 1e308, "total mass must be finite, got inf")],
    )
    def test_sums_that_overflow_print_and_store_nothing(self, tmp_path, capsys, cells, scale, message):
        # printed and stored "quadrant_pct":[Infinity,...] or "total_kg":Infinity, exit 2,
        # and assess of the store then failed on the stored line
        from weighsim.calibration import CalibrationState

        cal = tmp_path / "cal.cfg"
        CalibrationState(tare_code=0, scale_kg_per_lsb=scale, reference_points=((scale, 1),)).to_file(cal)
        frames = tmp_path / "frames.txt"
        frames.write_text("".join(f"st9,{c},{t},1,128,0\n" for t in (0, 15_000) for c in range(cells)))
        argv = ["weigh", "--mode", "static", "--cells", str(cells), "--frames", str(frames)]
        assert main(argv + ["--cal", *[str(cal)] * cells, "--data-dir", str(tmp_path / "records")]) == 1
        assert capsys.readouterr() == ("", f"weighsim: error: {message}\n")
        assert not (tmp_path / "records").exists()

    def test_valid_frames_exit_0(self, weigh):
        code, out = weigh(self.frames())
        assert code == 0 and json.loads(out.out)["cell_masses_kg"] == [10.0] * 4

    def test_an_empty_capture(self, weigh, tmp_path):
        code, out = weigh("")
        assert (code, out.out, out.err) == (1, "", "weighsim: error: no frames at all\n")
        assert not (tmp_path / "records").exists()

    def test_two_empty_frames_files(self, weigh, tmp_path):
        # two batches without rows join into a batch without a verdict
        code, out = weigh("", "\n\n")
        assert (code, out.out, out.err) == (1, "", "weighsim: error: no frames at all\n")
        assert not (tmp_path / "records").exists()

    @pytest.mark.parametrize("flag", ["--wheelbase-m", "--track-m", "--breadth-m"])
    def test_zero_geometry_flag_is_rejected(self, weigh, flag):
        code, out = weigh(self.frames(), extra=(flag, "0"))
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {flag[2:].replace('-', '_')} must be > 0, got 0.0\n"

    def test_timestamp_wider_than_int64(self, weigh, tmp_path):
        code, out = weigh(self.frames() + f"st9,0,{10**400},10000,128,0\n")
        assert code == 1 and out.out == ""
        assert out.err.startswith(f"weighsim: error: {tmp_path / 'frames0.txt'}: line 605: timestamp 1000")
        assert out.err.count("\n") == 1

    def test_regression_across_frames_files(self, weigh, tmp_path):
        code, out = weigh(self.frames(0, 15_000), self.frames(14_000, 16_000))
        assert code == 1
        assert out.err == (
            f"weighsim: error: {tmp_path / 'frames1.txt'}:"
            " timestamp 14000 ms before 15000 ms on station 'st9' cell 0 (line 1)\n"
        )

    def test_line_numbers_restart_per_file(self, weigh, tmp_path):
        code, out = weigh(self.frames(0, 7_500), self.frames(7_600, 15_000) + "\nst9,0,1\n")
        assert code == 1
        assert out.err == f"weighsim: error: {tmp_path / 'frames1.txt'}: line 302: expected 6 fields, got 3\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("st9,0,15100,8388607,128,0", "saturated flag must be 1 for code 8388607, got 0"),
            ("st9,0,15100,10000,128,1", "saturated flag must be 0 for code 10000, got 1"),
        ],
    )
    def test_saturated_flag_that_disagrees_with_the_code(self, weigh, tmp_path, line, message):
        # a rail code flagged 0 used to be averaged in as a load, and a code
        # off the rails flagged 1 to be left out
        code, out = weigh(self.frames() + line + "\n")
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {tmp_path / 'frames0.txt'}: line 605: {message}\n"
        assert not (tmp_path / "records").exists()

    def test_frames_split_across_files(self, weigh):
        code, out = weigh(self.frames(0, 7_500), self.frames(7_600, 15_000))
        assert code == 0 and json.loads(out.out)["ended_at_ms"] == 15_000

    def test_a_capture_shifted_in_time_weighs_as_from_0(self, weigh):
        # from 1,400 ms to 16,400 ms the capture used to exit 1: "stream spans
        # 15.000 s, static weighing needs 15.000 s", its span in float seconds
        # 14.999999999999998
        code, at_0 = weigh(self.frames())
        assert code == 0
        code, shifted = weigh(self.frames(1_400, 16_400))
        assert (code, shifted.err) == (0, "")
        a, b = json.loads(at_0.out), json.loads(shifted.out)
        assert (a["cell_masses_kg"], a["assessment"]) == (b["cell_masses_kg"], b["assessment"])

    def test_a_capture_split_by_cell_weighs_as_one_file(self, weigh):
        # the batches of the two files join with the ingestor's verdict
        lines = [f"st9,{c},{t},{10_000 + 1_000 * c},128,0\n" for t in range(0, 15_001, 100) for c in range(4)]
        code, whole = weigh("".join(lines))
        assert code == 0
        by_cell = ["".join(line for line in lines if line.split(",")[1] in cells) for cells in ("23", "01")]
        code, split = weigh(*by_cell)
        assert code == 0 and split.err == ""
        masked = [json.loads(out.out) | {"record_id": "*"} for out in (whole, split)]
        assert masked[0] == masked[1] and masked[0]["cell_masses_kg"] == [10.0, 11.0, 12.0, 13.0]

    def test_a_staggered_cell_is_named(self, weigh, tmp_path):
        # cell 3 sends two frames, at 0 and 15 s, while the others run to 180 s:
        # its "static mean" used to be its 15 s frame alone
        text = "".join(f"st9,{c},{t},100000,128,0\n" for t in range(0, 180_001, 100) for c in range(3))
        code, out = weigh(text + "st9,3,0,300000,128,0\nst9,3,15000,10000,128,0\n")
        assert (code, out.out) == (1, "")
        assert out.err == (
            "weighsim: error: cell 3 has no frame in the deck's last 15 s: its last at 15000 ms, the deck's at 180000 ms\n"
        )
        assert not (tmp_path / "records").exists()

    def test_frames_files_from_two_stations(self, weigh, tmp_path):
        code, out = weigh(self.frames(station="ws"), self.frames(15_100, 16_000, station="ws2"))
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {tmp_path / 'frames1.txt'}: frames span multiple stations: ['ws', 'ws2']\n"
        assert not (tmp_path / "records").exists()

    @pytest.mark.parametrize("flags", [("--jurisdiction", "US", "--kind", "acceptance"), ("--reference", "40")])
    def test_tolerance_check_needs_a_rule_and_a_reference(self, weigh, tmp_path, flags):
        # --jurisdiction without --reference used to exit 0 with "compliance":[]
        code, out = weigh(self.frames(), extra=flags)
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {PAIRING}\n"
        assert not (tmp_path / "records").exists()

    def test_calibration_count_is_checked_before_any_frame(self, weigh, tmp_path):
        code, out = weigh("not a frame\n", extra=("--cal", str(tmp_path / "cal.cfg")))
        assert code == 1 and out.out == ""
        assert out.err == "weighsim: error: need 4 calibrations, got 1\n"

    def test_frames_error_names_its_file_among_several(self, weigh, tmp_path):
        code, out = weigh(self.frames(0, 7_500) + "st9,0,x,1,128,0\n", self.frames(7_600, 15_000))
        assert code == 1 and out.out == ""
        assert out.err == (
            f"weighsim: error: {tmp_path / 'frames0.txt'}: line 305: non-numeric field in 'st9,0,x,1,128,0'\n"
        )

    def test_undecodable_frames_file_is_named(self, weigh, tmp_path):
        # used to print the codec error alone, so the bad one of several files was not named
        code, out = weigh(self.frames(0, 7_500), b"st9,0,7600,10000,128,0\n\xff\n")
        assert code == 1 and out.out == ""
        assert out.err.startswith(f"weighsim: error: {tmp_path / 'frames1.txt'}: ")
        assert "codec can't decode byte 0xff in position 23" in out.err and out.err.count("\n") == 1
        assert not (tmp_path / "records").exists()

    @pytest.mark.parametrize(
        "case",
        [
            "kind", "axle", "geometry", "config", "cal", "reference", "rule_alone", "reference_alone",
            "rules_key", "rules_shape", "axle_parts", "axle_entry", "config_duplicate",
        ],
    )
    def test_checks_that_need_no_frame_come_before_the_capture(self, weigh, tmp_path, config, case):
        # each used to be reported only after the whole capture was read, so a
        # bad capture hid it
        bad_cal = tmp_path / "bad.cfg"
        bad_cal.write_text((tmp_path / "cal.cfg").read_text().replace("tare_code = ", "tare_code = 99999999  # was "))
        tables = {
            "rules_key": "US = percent 0.1\n",
            "rules_shape": "US/acceptance = flat 40\n",
            "axle_parts": "9 = 9\n",
            "axle_entry": "9 = 1, 62000\n",
            "config_duplicate": "track_m = 3\ntrack_m = 4\n",
        }
        table = {name: tmp_path / f"{name}.cfg" for name in tables}
        for name, text in tables.items():
            table[name].write_text(text)
        rule = ("--jurisdiction", "US", "--kind", "acceptance", "--rules-file")
        extra, message = {
            "kind": (
                ("--jurisdiction", "US", "--reference", "40"),
                "no tolerance rule for US/re_verification; known:"
                " Kenya/first_time, Kenya/re_verification, NewZealand/acceptance, US/acceptance",
            ),
            "axle": (("--axle-config", "Z9"), "unknown axle configuration 'Z9'"),
            "geometry": (("--track-m", "-1"), "track_m must be > 0, got -1.0"),
            "config": (("--config", config("track = 3\n")), f"{tmp_path / 'station.cfg'}: unknown key 'track'"),
            "cal": (("--cal", *[str(tmp_path / "cal.cfg")] * 3, str(bad_cal)), f"{bad_cal}: tare code 99999999 outside signed 24-bit range"),
            "reference": (("--jurisdiction", "US", "--kind", "acceptance", "--reference", "-5"), "reference mass must be > 0, got -5.0"),
            "rule_alone": (("--jurisdiction", "US", "--kind", "acceptance"), PAIRING),
            "reference_alone": (("--reference", "40"), PAIRING),
            "rules_key": ((*rule, str(table["rules_key"])), f"{table['rules_key']}: rule key must be 'jurisdiction/kind', got 'US'"),
            "rules_shape": (
                (*rule, str(table["rules_shape"])), f"{table['rules_shape']}: unknown rule shape 'flat' for 'US/acceptance'"
            ),
            "axle_parts": (
                ("--axle-config", "9", "--axle-file", str(table["axle_parts"])),
                f"{table['axle_parts']}: '9' needs 'axle_count, gvw_limit_kg', got '9'",
            ),
            "axle_entry": (
                ("--axle-config", "9", "--axle-file", str(table["axle_entry"])),
                f"{table['axle_entry']}: bad entry for '9': axle count must be >= 2, got 1",
            ),
            "config_duplicate": (
                ("--config", str(table["config_duplicate"])), f"{table['config_duplicate']}: duplicate key 'track_m'"
            ),
        }[case]
        code, out = weigh("not a frame\n", extra=extra)
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {message}\n"

    @pytest.fixture
    def config(self, tmp_path):
        def write(text):
            path = tmp_path / "station.cfg"
            path.write_text(text)
            return str(path)

        return write

    def test_config_keys_override_defaults_one_by_one(self, weigh, config):
        code, out = weigh(self.frames(), extra=("--config", config("track_m = 3\nquadrant_threshold_pct = 31\n")))
        record = json.loads(out.out)
        assert code == 0
        assert record["geometry"] == {"wheelbase_m": 2.0, "track_m": 3.0, "breadth_m": 3.0}
        assert record["policy"] == {"overload_threshold_kg": 400.0, "quadrant_threshold_pct": 31.0}

    def test_flags_override_config_keys(self, weigh, config):
        path = config("track_m = 3\nquadrant_threshold_pct = 20\n")
        code, out = weigh(self.frames(), extra=("--config", path, "--track-m", "1.0", "--policy", "prototype2"))
        record = json.loads(out.out)
        assert code == 0
        assert record["geometry"] == {"wheelbase_m": 2.0, "track_m": 1.0, "breadth_m": 1.0}
        assert record["policy"]["quadrant_threshold_pct"] == 30.0

    def test_config_breadth_must_be_positive(self, weigh, config):
        path = config("breadth_m = -3\n")
        code, out = weigh(self.frames(), extra=("--config", path))
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {path}: breadth_m must be > 0, got -3.0\n"

    def test_bad_geometry_flag_is_not_blamed_on_the_config(self, weigh, config):
        code, out = weigh(self.frames(), extra=("--config", config("track_m = 3\n"), "--wheelbase-m", "0"))
        assert code == 1 and out.out == ""
        assert out.err == "weighsim: error: wheelbase_m must be > 0, got 0.0\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tare_code", "99999999", "tare code 99999999 outside signed 24-bit range"),
            ("ref_mass_kg_0", "-1.0", "reference mass must be > 0, got -1.0"),
        ],
    )
    def test_calibration_check_names_its_file(self, weigh, tmp_path, key, value, message):
        # used to print the message alone, so with four --cal files the bad one was not named
        good = tmp_path / "cal.cfg"
        bad = tmp_path / "bad.cfg"
        bad.write_text(good.read_text().replace(f"{key} = ", f"{key} = {value}  # was "))
        code, out = weigh(self.frames(), extra=("--cal", str(good), str(good), str(bad), str(good)))
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {bad}: {message}\n"

    def test_unknown_config_key_is_rejected(self, weigh, config):
        path = config("wheelbase_m = 2.5\nquadrant_threshold = 10\n")
        code, out = weigh(self.frames(), extra=("--config", path))
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {path}: unknown key 'quadrant_threshold'\n"

    def test_assess_names_the_field_that_does_not_reproduce(self, weigh, tmp_path, capsys):
        code, out = weigh(self.frames())
        assert code == 0
        assert '"y_cg_m":0.75,' in out.out
        path = tmp_path / "tampered.ndjson"
        path.write_text(out.out.replace('"y_cg_m":0.75,', '"y_cg_m":0.8,'))
        assert main(["assess", str(path)]) == 1
        err = capsys.readouterr()
        assert err.out == ""
        record_id = json.loads(out.out)["record_id"]
        assert err.err == (
            f"weighsim: error: stored assessment for {record_id} does not reproduce:"
            " y_cg_m is 0.8, recomputed 0.75\n"
        )


LCD_STDOUT = {
    2: (
        '{"record_id":"ID","station_id":"st9","started_at_ms":0,"ended_at_ms":15000,"mode":"static",'
        '"cell_masses_kg":[3.0,4.0],"geometry":{"wheelbase_m":2.0,"track_m":1.5,"breadth_m":1.5},'
        '"policy":{"overload_threshold_kg":9.5,"quadrant_threshold_pct":30.0},'
        '"assessment":{"kind":"two_cell","total_kg":7.0,"lateral_offset_m":-0.10714285714285714,'
        '"overloaded":false,"left_heavy":false,"right_heavy":true},'
        '"calibration_fingerprint":"413a4c9e2a434b3a+413a4c9e2a434b3a","compliance":[]}\n'
        "TOTAL       7.00 kg\n"
        "COG    centreline -0.107m\n"
        "RIGHT-HEAVY\n"
    ),
    4: (
        '{"record_id":"ID","station_id":"st9","started_at_ms":0,"ended_at_ms":15000,"mode":"static",'
        '"cell_masses_kg":[100.0,100.0,150.0,200.0],"geometry":{"wheelbase_m":2.0,"track_m":1.5,"breadth_m":1.5},'
        '"policy":{"overload_threshold_kg":400.0,"quadrant_threshold_pct":30.0},'
        '"assessment":{"kind":"four_cell","total_kg":550.0,"x_cg_m":1.2727272727272727,"y_cg_m":0.6818181818181818,'
        '"centreline_offset_m":-0.06818181818181823,"front_kg":200.0,"rear_kg":350.0,"left_kg":250.0,"right_kg":300.0,'
        '"quadrant_pct":[18.181818181818183,18.181818181818183,27.272727272727273,36.36363636363637],'
        '"overloaded":true,"flagged_quadrants":["RR"],"front_heavy":false,"rear_heavy":true,'
        '"left_heavy":false,"right_heavy":true},"calibration_fingerprint":'
        '"413a4c9e2a434b3a+413a4c9e2a434b3a+413a4c9e2a434b3a+413a4c9e2a434b3a","compliance":[]}\n'
        "TOTAL     550.00 kg\n"
        "COG    x=1.273m y=0.682m (centreline -0.068m)\n"
        "FRONT     200.00 kg  REAR      350.00 kg\n"
        "LEFT      250.00 kg  RIGHT     300.00 kg\n"
        "SHARE  FL  18.2%  FR  18.2%  RL  27.3%  RR  36.4%\n"
        "OVERLOAD total=550.00kg limit=400.00kg\n"
        "IMBALANCE RR=36.4% limit=30.0%\n"
        "REAR-HEAVY\n"
        "RIGHT-HEAVY\n"
    ),
}


@pytest.mark.parametrize(
    "codes, extra, status",
    [((3000, 4000), ("--policy", "prototype1"), 0), ((100_000, 100_000, 150_000, 200_000), (), 2)],
    ids=["two_cell", "four_cell"],
)
def test_weigh_and_assess_print_the_lcd(tmp_path, capsys, codes, extra, status):
    # the record line, then the LCD text; `assess` by id and by file prints
    # what `weigh` printed
    from weighsim.calibration import CalibrationState

    cal, frames, data_dir = tmp_path / "cal.cfg", tmp_path / "frames.txt", tmp_path / "records"
    CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),)).to_file(cal)
    frames.write_text("".join(f"st9,{c},{t},{code},128,0\n" for t in range(0, 15_001, 100) for c, code in enumerate(codes)))
    argv = ["weigh", "--mode", "static", "--cells", str(len(codes)), "--frames", str(frames)]
    assert main(argv + ["--cal", *[str(cal)] * len(codes), "--data-dir", str(data_dir), "--lcd", *extra]) == status
    out, err = capsys.readouterr()
    record_id = json.loads(out.splitlines()[0])["record_id"]
    assert (out.replace(record_id, "ID", 1), err) == (LCD_STDOUT[len(codes)], "")
    for assess in ([record_id, "--data-dir", str(data_dir)], [str(data_dir / "records.ndjson")]):
        assert main(["assess", *assess, "--lcd"]) == status
        assert capsys.readouterr() == (out, "")


_GAIN_CHANNELS = [(128, "A"), (64, "A"), (32, "B")]
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]


@st.composite
def replay_inputs(draw):
    """Trace file bytes: valid frames of every gain and both rails, padded
    frames, bad pulse counts, junk and non-ASCII text, blank lines, every
    kind of line break, and at times a byte no UTF-8 text contains."""
    frame_line = st.builds(
        lambda code, gc: encode_frame(AdcFrame(code, *gc)).to_line(),
        st.one_of(st.integers(CODE_MIN, CODE_MAX), st.sampled_from([CODE_MIN, CODE_MAX])),
        st.sampled_from(_GAIN_CHANNELS),
    )
    line = st.one_of(
        frame_line,
        frame_line.map(lambda bits: f" \t{bits}\xa0"),
        st.sampled_from(["", " ", "\t \x1f", "0" * 24, "0" * 28, "é" + "0" * 25]),
        st.text(alphabet="01", max_size=30),
        st.text(max_size=12),
    )
    lines = draw(st.lists(line, max_size=12))
    breaks = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(lines), max_size=len(lines)))
    text = "".join(l + b for l, b in zip(lines, breaks))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    tail = draw(st.sampled_from([b"", b"", b"\xff", b"\xc3", b"\x80" + b"0" * 25]))
    return text.encode() + tail


#: Pulse count → (gain, channel), and the two rail codes, as the `codec`
#: docstring gives them.
REFERENCE_PULSES = {25: (128, "A"), 26: (32, "B"), 27: (64, "A")}
REFERENCE_RAILS = (-(2**23), 2**23 - 1)


def reference_frame(line):
    """(code, gain, channel) of one trace line, decoded from the wire format
    in the `codec` docstring; a ValueError with replay's message for a line
    that is not a frame."""
    bits = line.strip()
    if set(bits) - {"0", "1"}:
        raise ValueError(f"trace contains non-bit symbols: {bits!r}")
    if len(bits) < 24:
        raise ValueError(f"only {len(bits)} pulses, need 24 data bits")
    if len(bits) not in REFERENCE_PULSES:
        raise ValueError(f"invalid pulse count {len(bits)}, expected one of [25, 26, 27]")
    code = int(bits[:24], 2) - (2**24 if bits[0] == "1" else 0)  # bit 23 is the sign
    return (code, *REFERENCE_PULSES[len(bits)])


def reference_replay(trace):
    """The per-line replay that `codec.decode_lines` replaced, decoding each
    line with `reference_frame`, with the error `main` prints for a trace
    that is not UTF-8 text."""
    try:
        lines = Path(trace).read_text().splitlines()
    except UnicodeDecodeError as exc:
        print(f"weighsim: error: {trace}: {exc}", file=sys.stderr)
        return 1
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            code, gain, channel = reference_frame(line)
        except ValueError as exc:
            print(f"{trace}:{line_no}: {exc}", file=sys.stderr)
            return 1
        print(f"{line_no},{code},{gain},{channel},{int(code in REFERENCE_RAILS)}")
    return 0


def captured(fn, *args):
    """(return value, stdout, stderr) of fn(*args)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


class TestReplay:
    def test_decodes_frames(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        lines = [
            encode_frame(AdcFrame(0, 128, "A")).to_line(),
            encode_frame(AdcFrame(-1, 64, "A")).to_line(),
            encode_frame(AdcFrame(4_194_304, 32, "B")).to_line(),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,0,128,A,0", "2,-1,64,A,0", "3,4194304,32,B,0"]

    def test_malformed_trace_reports_line(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("0" * 25 + "\n" + "0" * 10 + "\n")
        assert main(["replay", str(path)]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_frames_before_a_bad_line_are_printed(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        minus_one = encode_frame(AdcFrame(-1, 64, "A")).to_line()
        path.write_text("0" * 25 + "\n\n" + minus_one + "\n" + "0" * 10 + "\n" + "0" * 25 + "\n")
        with mock.patch.object(codec, "CHUNK_LINES", 2):
            assert main(["replay", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == "1,0,128,A,0\n3,-1,64,A,0\n"
        assert out.err == f"{path}:4: only 10 pulses, need 24 data bits\n"

    @pytest.mark.parametrize("blank", ["", "\n"])
    def test_non_bit_symbol_in_a_line_of_frame_length(self, tmp_path, capsys, blank):
        path = tmp_path / "trace.txt"
        junk = "0" * 24 + "x"
        path.write_text(blank + "0" * 25 + "\n" + junk + "\n")
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == f"{1 + len(blank)},0,128,A,0\n"
        assert out.err == f"{path}:{2 + len(blank)}: trace contains non-bit symbols: {junk!r}\n"

    @given(replay_inputs(), st.sampled_from([1, 2, 3, 4, 5, codec.CHUNK_LINES]))
    def test_matches_per_line_reference(self, data, chunk_lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            path.write_bytes(data)
            expected = captured(reference_replay, str(path))
            with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
                assert captured(main, ["replay", str(path)]) == expected

    def test_trace_longer_than_one_chunk(self, tmp_path):
        # the first chunk is all frames, so it takes the bulk path
        edges = [CODE_MIN, CODE_MAX, -1, 0, 1]
        codes = edges * 3 + [(i * 2_654_435_761) % 2**24 - 2**23 for i in range(codec.CHUNK_LINES - 15)]
        gains = [gc for gc in _GAIN_CHANNELS for _ in edges] + _GAIN_CHANNELS * codec.CHUNK_LINES
        first = [encode_frame(AdcFrame(code, *gc)).to_line() for code, gc in zip(codes, gains)]
        frame = first[20]
        second = [frame, "", f" \t{frame} ", frame, "0" * 28]
        path = tmp_path / "trace.txt"
        path.write_text("\n".join(first + second) + "\n")
        expected = captured(reference_replay, str(path))
        assert captured(main, ["replay", str(path)]) == expected
        code, out, err = expected
        assert code == 1 and len(out.splitlines()) == codec.CHUNK_LINES + 3
        assert out.startswith("1,-8388608,128,A,1\n2,8388607,128,A,1\n3,-1,128,A,0\n4,0,128,A,0\n")
        assert err == f"{path}:{codec.CHUNK_LINES + 5}: invalid pulse count 28, expected one of [25, 26, 27]\n"

    def test_rail_rows_at_chunk_edges(self, tmp_path):
        # rails back to back at every gain, first and last in a chunk, a
        # chunk of rails only, and rails in a chunk that a blank and a padded
        # line send down the per-line path
        n = codec.CHUNK_LINES
        rails = [encode_frame(AdcFrame(code, *gc)).to_line() for gc in _GAIN_CHANNELS for code in RAILS]
        inner = [
            encode_frame(AdcFrame((i * 2_654_435_761) % (2**24 - 2) + CODE_MIN + 1, *_GAIN_CHANNELS[i % 3])).to_line()
            for i in range(n - 2 * len(rails))
        ]
        first = rails + inner + rails[::-1]
        only_rails = (rails * n)[:n]
        per_line = [rails[1], "", f" \t{rails[2]} ", inner[0], rails[5]]
        path = tmp_path / "trace.txt"
        path.write_text("\n".join(first + only_rails + per_line) + "\n")
        expected = captured(reference_replay, str(path))
        assert expected[0] == 0 and expected[1].count(",1\n") == 2 * len(rails) + n + 3
        for chunk_lines in [1, 2, 3, n]:
            with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
                assert captured(main, ["replay", str(path)]) == expected, chunk_lines

    @given(st.text(alphabet="01\n\r\x0c\u2028 x", max_size=60), st.integers(1, 8))
    def test_split_lines_matches_splitlines(self, text, size):
        assert list(_split_lines(text, size)) == text.splitlines()


class TestRules:
    def test_tolerance_query(self, capsys):
        assert main(["rules", "--jurisdiction", "Kenya", "--kind", "re_verification", "--capacity", "80"]) == 0
        assert json.loads(capsys.readouterr().out)["max_error_kg"] == 20.0

    def test_compliance_check_pass_fail(self, capsys):
        argv = [
            "rules", "--jurisdiction", "Kenya", "--kind", "re_verification",
            "--reference", "80000", "--measured",
        ]
        assert main(argv + ["80020"]) == 0
        capsys.readouterr()
        assert main(argv + ["80020.1"]) == 2

    def test_gvw_check(self, capsys):
        assert main(["rules", "--axle-config", "7", "--total", "56000"]) == 0
        capsys.readouterr()
        assert main(["rules", "--axle-config", "2A", "--total", "18001"]) == 2

    @pytest.mark.parametrize("measured", ["-1e308", "-5"])
    def test_negative_measured_mass_is_refused(self, capsys, measured):
        # -1e308 printed "error_kg":Infinity and exit 2; -5 was scored as a failed check
        argv = ["rules", "--jurisdiction", "US", "--kind", "acceptance", f"--measured={measured}", "--reference", "1e308"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"weighsim: error: measured mass must be finite and >= 0, got {float(measured)}\n")

    def test_negative_gvw_total_is_refused(self, capsys):
        # -5 printed "passed":true and exited 0
        assert main(["rules", "--axle-config", "2", "--total", "-5"]) == 1
        assert capsys.readouterr() == ("", "weighsim: error: measured total must be finite and >= 0, got -5.0\n")

    def test_zero_load_on_the_percent_rule_is_refused(self, capsys):
        assert main(["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "0"]) == 1
        assert capsys.readouterr() == ("", "weighsim: error: load must be > 0 t, got 0.0\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axle-config", "7"], "--total is required with --axle-config"),
            ([], "need --jurisdiction (tolerance query) or --axle-config (GVW check)"),
            (["--jurisdiction", "US", "--kind", "acceptance"], "need --capacity, or --measured with --reference"),
            (["--jurisdiction", "US", "--kind", "acceptance", "--measured", "40"], "need --capacity, or --measured with --reference"),
        ],
        ids=["gvw_without_total", "no_query", "tolerance_without_load", "measured_without_reference"],
    )
    def test_a_query_without_its_inputs(self, capsys, argv, message):
        assert main(["rules", *argv]) == 1
        assert capsys.readouterr() == ("", f"weighsim: error: {message}\n")

    def test_unknown_rule_is_error(self, capsys):
        assert main(["rules", "--jurisdiction", "NewZealand", "--kind", "re_verification", "--capacity", "20"]) == 1

    def test_non_finite_axle_limit_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "axles.cfg"
        path.write_text("7 = 6, nan\n")
        assert main(["rules", "--axle-config", "7", "--total", "99999", "--axle-file", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"weighsim: error: {path}: key '7' is not a finite number: 'nan'\n"

    def test_non_finite_rule_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "rules.cfg"
        path.write_text("US/acceptance = percent nan\n")
        argv = ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "10"]
        assert main(argv + ["--rules-file", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"weighsim: error: {path}: key 'US/acceptance' is not a finite number: 'nan'\n"


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "x", "--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1


    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_calibrate_samples_must_be_positive(self, tmp_path, capsys, samples):
        # used to exit 1 blaming saturation: "no non-saturated sample at 0.0 kg"
        spec, out_path = tmp_path / "spec.cfg", tmp_path / "cal.cfg"
        spec.write_text("capacity_kg = 120\n")
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--cell-spec", str(spec), "--known-mass", "100", "--out", str(out_path), "--samples", samples])
        assert exc.value.code == 1 and not out_path.exists()
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"weighsim calibrate: error: argument --samples: not a positive integer: '{samples}'\n")


    def test_calibrate_samples_must_be_an_integer(self, tmp_path, capsys):
        spec, out_path = tmp_path / "spec.cfg", tmp_path / "cal.cfg"
        spec.write_text("capacity_kg = 120\n")
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--cell-spec", str(spec), "--known-mass", "100", "--out", str(out_path), "--samples", "x"])
        assert exc.value.code == 1 and not out_path.exists()
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith("weighsim calibrate: error: argument --samples: invalid int value: 'x'\n")

    def test_calibrate_seed_must_not_be_negative(self, tmp_path, capsys):
        # numpy's untyped ValueError for the seed reached main
        spec, out_path = tmp_path / "spec.cfg", tmp_path / "cal.cfg"
        spec.write_text("capacity_kg = 120\n")
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--cell-spec", str(spec), "--known-mass", "100", "--out", str(out_path), "--seed", "-1"])
        assert exc.value.code == 1 and not out_path.exists()
        assert capsys.readouterr().err.endswith("weighsim calibrate: error: argument --seed: not an integer >= 0: '-1'\n")


class TestErrorPath:
    """Every input fault ends as one `weighsim: error:` line and exit 1;
    `main` catches nothing but WeighSimError and OSError."""

    def test_an_invalid_value_is_both_a_weighsim_error_and_a_value_error(self):
        with pytest.raises(InvalidValueError, match="^x must be > 0, got 0.0$") as exc:
            require_positive("x", 0.0)
        assert isinstance(exc.value, WeighSimError) and isinstance(exc.value, ValueError)

    def test_main_lets_an_untyped_error_through(self, monkeypatch):
        def bug(args):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "_cmd_rules", bug)
        with pytest.raises(ValueError, match="^a bug$"):
            main(["rules"])

    def test_a_bad_line_is_named_once(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("capacity_kg = 120\nfoo\n")
        assert main(["calibrate", "--cell-spec", str(spec), "--known-mass", "100", "--out", str(tmp_path / "c.cfg")]) == 1
        assert capsys.readouterr() == ("", f"weighsim: error: {spec}: line 2: expected 'key = value', got 'foo'\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "BAD"],
            ["simulate", "SCENARIO", "--cell-spec", "BAD"],
            ["simulate", "SCENARIO", "--config", "BAD"],
            ["calibrate", "--cell-spec", "BAD", "--known-mass", "100", "--out", "OUT"],
            ["weigh", "--mode", "static", "--cells", "2", "--frames", "FRAMES", "--cal", "BAD", "BAD"],
            ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "20", "--rules-file", "BAD"],
            ["rules", "--axle-config", "2", "--total", "1", "--axle-file", "BAD"],
            ["replay", "BAD"],
        ],
        ids=["scenario", "cell_spec", "station_config", "calibrate", "calibration", "rules_file", "axle_file", "trace"],
    )
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys, argv):
        # the codec error named no file
        paths = {"BAD": tmp_path / "bad.cfg", "SCENARIO": tmp_path / "scenario.cfg", "OUT": tmp_path / "out.cfg"}
        paths["BAD"].write_bytes(b"capacity_kg = 120\n\xff\n")
        paths["SCENARIO"].write_text(BALANCED_SCENARIO)
        assert main([str(paths.get(a, a)) for a in argv]) == 1
        assert capsys.readouterr() == (
            "", f"weighsim: error: {paths['BAD']}: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "spec, command, message",
        [
            ("zero_offset_mv = 1e308", "simulate", "no non-saturated sample at 0.0 kg"),
            ("zero_offset_mv = 1e308", "calibrate", "no non-saturated sample at 0.0 kg"),
            ("noise_sigma_mv = 1e308", "calibrate", "no non-saturated sample at 0.0 kg"),
            ("excitation_v = 1e308", "simulate", "SPEC: span (excitation x rated output) must be finite, got inf"),
            ("rated_output_mv_v = 1e308", "calibrate", "SPEC: span (excitation x rated output) must be finite, got inf"),
        ],
    )
    def test_an_extreme_cell_spec(self, tmp_path, capsys, spec, command, message):
        # an infinite code raised OverflowError in quantize (a traceback), an
        # infinite span a NaN voltage that failed there untyped
        path, scenario = tmp_path / "spec.cfg", tmp_path / "scenario.cfg"
        path.write_text(f"capacity_kg = 120\n{spec}\n")
        scenario.write_text(BALANCED_SCENARIO)
        argv = {
            "simulate": ["simulate", str(scenario), "--cell-spec", str(path)],
            "calibrate": ["calibrate", "--cell-spec", str(path), "--known-mass", "100", "--out", str(tmp_path / "c.cfg")],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"weighsim: error: {message.replace('SPEC', str(path))}\n")

    def test_noise_that_overflows_is_refused_on_its_cell(self, tmp_path, capsys):
        # every cell read its rail as a load: 1406.25 kg, exit 2
        path, scenario = tmp_path / "spec.cfg", tmp_path / "scenario.cfg"
        path.write_text("capacity_kg = 120\nnoise_sigma_mv = 1e308\n")
        scenario.write_text(BALANCED_SCENARIO)
        assert main(["simulate", str(scenario), "--cell-spec", str(path)]) == 1
        assert capsys.readouterr() == ("", "weighsim: error: no non-saturated sample at 25.0 kg on cell FL\n")

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    def test_a_known_mass_past_full_scale_is_refused(self, tmp_path, capsys, command):
        # 120 kg reads 45 mV, past the 39.06 mV full scale: simulate calibrated
        # on the rail code and read the 100 kg deck as 246.15 kg, exit 0
        path, out = tmp_path / "spec.cfg", tmp_path / "c.cfg"
        path.write_text("capacity_kg = 120\nzero_offset_mv = 35\n")
        argv = {
            "simulate": ["simulate", str(SCENARIOS / "balanced.cfg"), "--cell-spec", str(path)],
            "calibrate": ["calibrate", "--cell-spec", str(path), "--known-mass", "120", "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "weighsim: error: no non-saturated sample at 120.0 kg\n")
        assert not out.exists()


class TestNonFiniteFlags:
    """Every float flag rejects nan and inf as a usage error (exit 1)."""

    WEIGH = ["weigh", "--mode", "static", "--frames", "f.txt", "--cal", "c.cfg"]
    CALIBRATE = ["calibrate", "--cell-spec", "s.cfg", "--out", "c.cfg"]
    RULES = ["rules", "--jurisdiction", "US"]
    FLAGS = [
        (WEIGH, "--wheelbase-m"),
        (WEIGH, "--track-m"),
        (WEIGH, "--breadth-m"),
        (WEIGH, "--reference"),
        (CALIBRATE + ["--known-mass", "1"], "--temperature"),
        (CALIBRATE, "--known-mass"),
        (RULES, "--capacity"),
        (RULES, "--measured"),
        (RULES, "--reference"),
        (RULES, "--total"),
    ]

    @pytest.mark.parametrize("argv, flag", FLAGS, ids=[argv[0] + flag for argv, flag in FLAGS])
    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity"])
    def test_flag_rejects_non_finite(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"error: argument {flag}: not a finite number: {value!r}\n")

    def test_non_numeric_flag_message_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rules", "--jurisdiction", "US", "--capacity", "abc"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith("error: argument --capacity: invalid float value: 'abc'\n")

    def test_weigh_breadth_nan_stores_nothing(self, tmp_path, capsys):
        # used to exit 0 and store "breadth_m":NaN, which is not JSON
        frames = tmp_path / "frames.txt"
        frames.write_text("".join(f"st9,{c},{t},10000,128,0\n" for t in range(0, 15_001, 100) for c in range(2)))
        cal = tmp_path / "cal.cfg"
        from weighsim.calibration import CalibrationState

        CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),)).to_file(cal)
        argv = ["weigh", "--mode", "static", "--cells", "2", "--frames", str(frames), "--cal", str(cal), str(cal)]
        argv += ["--data-dir", str(tmp_path / "records")]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--breadth-m", "nan"])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""
        assert len((tmp_path / "records" / "records.ndjson").read_text().splitlines()) == 1

    def test_rules_total_nan(self, capsys):
        # used to print "measured_kg":NaN and exit 2
        with pytest.raises(SystemExit) as exc:
            main(["rules", "--axle-config", "7", "--total", "nan"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith("error: argument --total: not a finite number: 'nan'\n")
