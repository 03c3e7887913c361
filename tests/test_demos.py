"""Every script in demos/ runs to completion against the library in src/,
and the README's library quick start prints what its comments say."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    assert out.getvalue().splitlines() == expected
