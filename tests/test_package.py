import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_package_loads_no_submodule():
    probe = (
        "import sys, unitcat\n"
        "print(unitcat.__version__)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('unitcat.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout.split("\n")
    assert out[0] == "0.1.0"
    assert out[1] == ""
