import ast
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


def test_config_and_corpus_load_without_numpy():
    # config and corpus parse text; the setup path through them needs no numpy
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for module in ("unitcat.config", "unitcat.corpus"):
        probe = f"import sys, {module}\nprint('numpy' in sys.modules)\n"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out == "False\n", module


def test_modules_import_only_the_standard_library_numpy_and_unitcat():
    # numpy is the one runtime dependency
    allowed = sys.stdlib_module_names | {"numpy", "unitcat"}
    for path in sorted((SRC / "unitcat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
