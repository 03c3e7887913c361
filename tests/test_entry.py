"""The process entry, `cli.run`: a command run in a fresh `python -m
weighsim.cli` child exits, prints and writes what `main` does in process,
and `main` leaves the garbage collector as it found it."""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weighsim
from weighsim.calibration import CalibrationState
from weighsim.cli import main
from weighsim.codec import GAIN_CHANNELS, encode_frame
from weighsim.sensor import CODE_MAX, CODE_MIN, AdcFrame

SRC = Path(weighsim.__file__).resolve().parents[1]
OVERLOADED = SRC.parent / "demos" / "scenarios" / "overloaded.cfg"
CAL = CalibrationState(tare_code=0, scale_kg_per_lsb=0.001, reference_points=((10.0, 10_000),))
RULES = ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "20"]
WEIGH = ["weigh", "--mode", "static", "--cal", *["cal.cfg"] * 4, "--data-dir", "recs", "--frames"]

#: name → (argv, exit code, the file it writes), each run in a directory
#: that `inputs` filled
CASES = {
    "rules": (RULES, 0, None),
    "bad-policy": (["weigh", "--policy", "bogus"], 1, None),
    "missing-frames": (WEIGH + ["missing.txt"], 1, None),
    "overloaded": (["simulate", "overloaded.cfg"], 2, None),
    "replay": (["replay", "trace.txt"], 0, None),
    "calibrate": (["calibrate", "--cell-spec", "spec.cfg", "--known-mass", "100", "--out", "out.cfg"], 0, "out.cfg"),
    "weigh": (WEIGH + ["frames.txt"], 0, "recs/records.ndjson"),
}

_RECORD_ID = re.compile(rb'"record_id":"[0-9a-f]{12}"')


def inputs(path: Path) -> Path:
    """`path`, made and filled with every case's input files."""
    path.mkdir()
    (path / "overloaded.cfg").write_bytes(OVERLOADED.read_bytes())
    (path / "spec.cfg").write_text("capacity_kg = 120\n")
    CAL.to_file(path / "cal.cfg")
    (path / "frames.txt").write_text("".join(f"st9,{c},{t},10000,128,0\n" for t in range(0, 15_001, 100) for c in range(4)))
    # 5,000 frames print about 100 kB, more than a pipe holds
    codes = [CODE_MIN + 3_355 * i for i in range(5_000)] + [CODE_MAX]
    gains = [(128, 64, 32)[i % 3] for i in range(len(codes))]
    trace = [encode_frame(AdcFrame(code, gain, GAIN_CHANNELS[gain])).to_line() for code, gain in zip(codes, gains)]
    (path / "trace.txt").write_text("\n".join(trace) + "\n")
    return path


def masked(data: bytes) -> bytes:
    return _RECORD_ID.sub(b'"record_id":"*"', data)


def files(path: Path) -> dict[str, bytes]:
    """Every file under `path` by relative name, its record ids masked."""
    return {str(p.relative_to(path)): masked(p.read_bytes()) for p in path.rglob("*") if p.is_file()}


def in_child(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of a fresh `python -m weighsim.cli`,
    record ids masked."""
    # Block-buffered output, a pipe's default, so what the child prints
    # last reaches the pipe only if exit flushes it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "weighsim.cli", *argv], cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.returncode, masked(proc.stdout), masked(proc.stderr)


def in_process(argv: list[str], cwd: Path, monkeypatch) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `main(argv)`, record ids masked."""
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, masked(out.getvalue().encode()), masked(err.getvalue().encode())


@pytest.mark.parametrize("case", list(CASES))
def test_a_child_matches_main_in_process(case, tmp_path, monkeypatch):
    argv, expected, written = CASES[case]
    child = in_child(argv, inputs(tmp_path / "child"))
    here = in_process(argv, inputs(tmp_path / "here"), monkeypatch)
    assert here[0] == expected
    assert child == here
    assert files(tmp_path / "child") == files(tmp_path / "here")
    assert written is None or written in files(tmp_path / "here")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_alone(enabled, monkeypatch, tmp_path):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        for i, (argv, _, _) in enumerate(CASES.values()):
            in_process(argv, inputs(tmp_path / str(i)), monkeypatch)
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
    finally:
        (gc.enable if was_enabled else gc.disable)()


#: A child that runs `run` on a stand-in `main`, which prints whether the
#: collector is on; at exit it prints whether the heap was frozen.
RUN = """
import atexit, gc, sys
import weighsim.cli as cli
cli.main = lambda: print(gc.isenabled()) or int(sys.argv[1])
atexit.register(lambda: print(gc.get_freeze_count() > 0))
cli.run()
"""


@pytest.mark.parametrize("code", [0, 1, 2])
def test_run_turns_the_collector_off_and_freezes_the_heap(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", RUN, str(code)], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "False\nTrue\n", "")
