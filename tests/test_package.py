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


def test_no_module_uses_numpy_random():
    # every draw comes from unitcat.rng's splitmix64 streams; importing
    # numpy.random also loads secrets, hmac and hashlib
    for path in sorted((SRC / "unitcat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                assert not name.startswith(("numpy.random", "np.random")), (
                    f"{path.name}:{node.lineno} uses {name}"
                )


def test_training_never_loads_numpy_random(tmp_path):
    probe = (
        "import sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from unitcat.archive import write_archive\n"
        "from unitcat.corpus import UtteranceRecord, save_manifest\n"
        "from unitcat.pipeline import train_model\n"
        "root = Path(sys.argv[1])\n"
        "ids = [('a1', 'spkA'), ('a2', 'spkA'), ('b1', 'spkB'), ('b2', 'spkB')]\n"
        "feats = np.cos(0.37 * np.arange(len(ids) * 30 * 40)).reshape(len(ids), 30, 40)\n"
        "write_archive(root / 'feats', [(u, f) for (u, _), f in zip(ids, feats)])\n"
        "records = [UtteranceRecord(u, s, ('ni',), u + '.wav') for u, s in ids]\n"
        "save_manifest(root / 'm.tsv', records)\n"
        "train_model(root / 'feats', [root / 'm.tsv'], root / 'params.bin', 2, 0.05, 7)\n"
        "print((root / 'params.bin').exists(), 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out == "True False\n"


def _moves(node, function=None):
    """(enclosing def, callee, line) of every call under node to rmtree, to
    a rename method or to os.replace."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _moves(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            is_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
            if name in ("rmtree", "rename") or (name == "replace" and is_os):
                yield function, name, child.lineno
        yield from _moves(child, function)


def test_only_the_swap_helper_removes_or_renames_directories():
    # one rule keeps a directory output whole: pipeline.swapped_in's .partial
    # swap; an archive's two files keep ArchiveWriter's temporary siblings
    allowed = {
        ("pipeline.py", "swapped_in", "rmtree"),
        ("pipeline.py", "swapped_in", "rename"),
        ("archive.py", "close", "replace"),
    }
    seen = set()
    for path in sorted((SRC / "unitcat").glob("*.py")):
        for function, name, line in _moves(ast.parse(path.read_text(encoding="utf-8"))):
            assert (path.name, function, name) in allowed, f"{path.name}:{line} calls {name}"
            seen.add((path.name, function, name))
    assert seen == allowed
