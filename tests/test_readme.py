"""The README's library usage examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_usage_blocks():
    text = README.read_text()
    section = text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_usage_runs():
    blocks = library_usage_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["series"]) == 20
    assert namespace["failures"] == {}
