"""Every demo script runs to completion against the library in src/ and
prints its transcript in tests/data/demos byte for byte."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = ROOT / "tests" / "data" / "demos"


def test_demos_exist():
    assert DEMOS
    assert sorted(p.stem for p in TRANSCRIPTS.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (TRANSCRIPTS / f"{demo.stem}.txt").read_bytes()
