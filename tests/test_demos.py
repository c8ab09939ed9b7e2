"""The six demos print exactly what they printed when their output was recorded.

Each ``demos/0*.py`` runs in a fresh interpreter with ``src`` on the path; its
stdout must equal ``tests/demo_stdout/<demo name>.txt`` byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_stdout").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS] and len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_stdout_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("QWPROJ_LOG", None)
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    expected = (ROOT / "tests" / "demo_stdout" / f"{demo.stem}.txt").read_bytes()
    assert run.stdout == expected
