"""Every script under ``demos/`` and every ``python`` block of ``README.md``
runs to completion against this checkout, and no demo prints ``False``."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncbieberbach

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(args):
    src = str(Path(ncbieberbach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run = _run([str(demo)])
    assert run.returncode == 0, run.stderr
    assert run.stdout
    # every boolean a demo prints is a check that should hold
    assert not re.search(r"\bFalse\b", run.stdout), run.stdout


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"README-block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(code):
    run = _run(["-c", code])
    assert run.returncode == 0, run.stderr
