"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_readme_python_blocks_run():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
