import json

import pytest

from weighsim.cli import main
from weighsim.codec import encode_frame
from weighsim.sensor import AdcFrame, LoadCellSpec

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

    def test_prototype1_policy(self, scenario_file, capsys):
        # 100 kg curb is overloaded against the 9.5 kg limit
        assert main(["simulate", scenario_file(BALANCED_SCENARIO), "--policy", "prototype1"]) == 2


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
                path.write_text(text)
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
    def frames(t_from=0, t_to=15_000, step=100):
        return "".join(
            f"st9,{cell},{t},10000,128,0\n" for t in range(t_from, t_to + 1, step) for cell in range(4)
        )

    def test_valid_frames_exit_0(self, weigh):
        code, out = weigh(self.frames())
        assert code == 0 and json.loads(out.out)["cell_masses_kg"] == [10.0] * 4

    @pytest.mark.parametrize("flag", ["--wheelbase-m", "--track-m", "--breadth-m"])
    def test_zero_geometry_flag_is_rejected(self, weigh, flag):
        code, out = weigh(self.frames(), extra=(flag, "0"))
        assert code == 1 and out.out == ""
        assert out.err == f"weighsim: error: {flag[2:].replace('-', '_')} must be > 0, got 0.0\n"

    def test_timestamp_wider_than_int64(self, weigh):
        code, out = weigh(self.frames() + f"st9,0,{10**400},10000,128,0\n")
        assert code == 1 and out.out == ""
        assert out.err.startswith("weighsim: error: line 605: timestamp 1000")
        assert out.err.count("\n") == 1

    def test_regression_across_frames_files(self, weigh):
        code, out = weigh(self.frames(0, 15_000), self.frames(14_000, 16_000))
        assert code == 1
        assert out.err == (
            "weighsim: error: timestamp 14000 ms before 15000 ms on station 'st9' cell 0 (line 1)\n"
        )

    def test_line_numbers_restart_per_file(self, weigh):
        code, out = weigh(self.frames(0, 7_500), self.frames(7_600, 15_000) + "\nst9,0,1\n")
        assert code == 1
        assert out.err == "weighsim: error: line 302: expected 6 fields, got 3\n"

    def test_frames_split_across_files(self, weigh):
        code, out = weigh(self.frames(0, 7_500), self.frames(7_600, 15_000))
        assert code == 0 and json.loads(out.out)["ended_at_ms"] == 15_000


class TestReplay:
    def test_decodes_frames(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        lines = [
            encode_frame(AdcFrame.from_code(0, 128, "A")).to_line(),
            encode_frame(AdcFrame.from_code(-1, 64, "A")).to_line(),
            encode_frame(AdcFrame.from_code(4_194_304, 32, "B")).to_line(),
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

    def test_unknown_rule_is_error(self, capsys):
        assert main(["rules", "--jurisdiction", "NewZealand", "--kind", "re_verification", "--capacity", "20"]) == 1


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "x", "--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1
