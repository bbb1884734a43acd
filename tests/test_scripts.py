"""The runnable scripts under scripts/ finish with their documented exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("stochastic_acs.py", ["200", "1"]),
    ("acs_truncation.py", []),
    ("laplacian_weyl.py", ["{tmp}"]),
])
def test_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [arg.format(tmp=tmp_path / "out") for arg in args]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
