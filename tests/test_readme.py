"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README.md has no python block"
    namespace = {}
    exec(compile(block.group(1), f"{README}:library example", "exec"), namespace)
    assert namespace["err"] >= 0.0
