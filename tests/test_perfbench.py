"""The benchmark tracer finds every function it reports on by qualified
name, so a public name it needs that goes missing must fail here, not in
``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_reports():
    code = "from tracer import Tracer\nt = Tracer('t')\nt.install()\nprint(len(t.metrics()))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0
