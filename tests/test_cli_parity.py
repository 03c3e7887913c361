"""Help text and usage errors, pinned byte for byte.

Each case runs `main` in process and compares the SHA-256 digests of its
stdout and stderr, and its exit code, with pinned values. argparse words
its help and errors differently from one Python version to the next, so
the pins are those of Python 3.11; on every version the same outputs must
equal what the parser with every subcommand's arguments prints.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from weighsim.cli import build_parser, main

#: argv → (exit code, stdout digest, stderr digest), first 16 hex digits.
PINS = {
    "-h": (0, "a64f0b44bfe33f40", "e3b0c44298fc1c14"),
    "simulate -h": (0, "5fb125deb208c10b", "e3b0c44298fc1c14"),
    "calibrate -h": (0, "3ffa372aaa381c09", "e3b0c44298fc1c14"),
    "weigh -h": (0, "b66a9edd8a69034f", "e3b0c44298fc1c14"),
    "assess -h": (0, "b2f7e16304154657", "e3b0c44298fc1c14"),
    "replay -h": (0, "5d8dc0fe69f69790", "e3b0c44298fc1c14"),
    "rules -h": (0, "eabb0681ef9a77f1", "e3b0c44298fc1c14"),
    "": (1, "e3b0c44298fc1c14", "4c15004c5c4db7e4"),
    "bogus": (1, "e3b0c44298fc1c14", "0f82b4f838a734d9"),
    "weigh --cells 3": (1, "e3b0c44298fc1c14", "9960373140e8ea1e"),
    "weigh --policy bogus": (1, "e3b0c44298fc1c14", "70c5ee9e89fa7271"),
    "rules --jurisdiction Mars": (1, "e3b0c44298fc1c14", "de3f7b9916c1c845"),
    "replay": (1, "e3b0c44298fc1c14", "2cb813d332e1ba5d"),
    "replay a b": (1, "e3b0c44298fc1c14", "cae52555a2c4db89"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(call) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    # argparse wraps help at the terminal width, which it reads from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pins are of Python 3.11's argparse")
@pytest.mark.parametrize("argv", list(PINS))
def test_pinned(argv):
    code, out, err = _run(lambda: main(argv.split()))
    assert (code, _digest(out), _digest(err)) == PINS[argv]


@pytest.mark.parametrize("argv", list(PINS))
def test_same_as_the_full_parser(argv):
    assert _run(lambda: main(argv.split())) == _run(lambda: build_parser().parse_args(argv.split()))


@pytest.mark.parametrize("argv", ["weigh --policy bogus", "replay -h", "-h"])
def test_main_reads_sys_argv(argv, monkeypatch):
    expected = _run(lambda: main(argv.split()))
    monkeypatch.setattr(sys, "argv", ["weighsim", *argv.split()])
    assert _run(lambda: main()) == expected
