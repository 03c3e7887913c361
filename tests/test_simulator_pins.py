"""Byte pins of the modeled-cell commands on fault-free inputs.

`calibrate` (stdout and calibration file) over seeds, sample counts and
temperatures on a noisy cell, and `simulate` (stdout, plain and with
`--lcd`) of every demo scenario on the default and that noisy cell. Each
case is pinned by the SHA-256 of its exit code and output bytes, so a
refactor of the sensor chain behind them cannot change a bit.
"""

import hashlib
from pathlib import Path

import pytest

from weighsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

NOISY_SPEC = "capacity_kg = 120\nnoise_sigma_mv = 0.002\n"

CALIBRATE = {
    ("0", "1", "25"): "bb4348f3ab38e4dd",
    ("0", "1", "31.5"): "e10482f88a215401",
    ("0", "16", "25"): "5f2ed8ab48662271",
    ("0", "16", "31.5"): "7721f7149fc89203",
    ("1", "1", "25"): "e2c16bd033e21c81",
    ("1", "1", "31.5"): "03c2c88a799e1f0b",
    ("1", "16", "25"): "8d58d963f5339f47",
    ("1", "16", "31.5"): "5f9ce9fd6e2202c8",
    ("7", "1", "25"): "fd103a2b10c3c7dd",
    ("7", "1", "31.5"): "ac3907de4f4f50af",
    ("7", "16", "25"): "db46dd98a1204a85",
    ("7", "16", "31.5"): "8f3bd0a287f5e619",
}

SIMULATE = {
    ("balanced.cfg", "default", "plain"): "ff16cac8252b795c",
    ("balanced.cfg", "default", "lcd"): "0ab37eaf8612cc07",
    ("balanced.cfg", "noisy", "plain"): "39988fdca2fd66cf",
    ("balanced.cfg", "noisy", "lcd"): "553f3cb520bf88fc",
    ("corner_heavy.cfg", "default", "plain"): "b1c8f4186f055e57",
    ("corner_heavy.cfg", "default", "lcd"): "f4a2f2cc8f4d8d20",
    ("corner_heavy.cfg", "noisy", "plain"): "628fa597924fe658",
    ("corner_heavy.cfg", "noisy", "lcd"): "548cab3a393302c1",
    ("overloaded.cfg", "default", "plain"): "a4ba52e209f303e7",
    ("overloaded.cfg", "default", "lcd"): "8cc963d806ee1b20",
    ("overloaded.cfg", "noisy", "plain"): "bf5587600e72b959",
    ("overloaded.cfg", "noisy", "lcd"): "0e30a1275132b18d",
}


def _digest(code: int, *parts: str) -> str:
    return hashlib.sha256("\0".join([str(code), *parts]).encode()).hexdigest()[:16]


def _calibrate(tmp_path, monkeypatch, capsys, seed, samples, temperature):
    """The digest of `calibrate --seed SEED --samples SAMPLES --temperature TEMPERATURE`."""
    monkeypatch.chdir(tmp_path)
    Path("spec.cfg").write_text(NOISY_SPEC)
    argv = ["calibrate", "--cell-spec", "spec.cfg", "--known-mass", "100", "--out", "cal.cfg"]
    code = main(argv + ["--seed", seed, "--samples", samples, "--temperature", temperature])
    out = capsys.readouterr()
    assert out.err == ""
    return _digest(code, out.out, Path("cal.cfg").read_text())


def _simulate(tmp_path, capsys, scenario, spec, lcd):
    """The digest of `simulate SCENARIO` on the `default` or `noisy` cell, `plain` or with `lcd`."""
    argv = ["simulate", str(SCENARIOS / scenario)]
    if spec == "noisy":
        (tmp_path / "spec.cfg").write_text(NOISY_SPEC)
        argv += ["--cell-spec", str(tmp_path / "spec.cfg")]
    if lcd == "lcd":
        argv.append("--lcd")
    code = main(argv)
    out = capsys.readouterr()
    assert out.err == ""
    return _digest(code, out.out)


@pytest.mark.parametrize("case", sorted(CALIBRATE), ids="-".join)
def test_calibrate_bytes(case, tmp_path, monkeypatch, capsys):
    assert _calibrate(tmp_path, monkeypatch, capsys, *case) == CALIBRATE[case]


@pytest.mark.parametrize("case", sorted(SIMULATE), ids="-".join)
def test_simulate_bytes(case, tmp_path, capsys):
    assert _simulate(tmp_path, capsys, *case) == SIMULATE[case]
