import re
from pathlib import Path


def test_readme_library_imports_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    assert "import" in blocks[0]
    exec(compile(blocks[0], "README.md", "exec"), {})
