"""The fenced Python examples of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize(
    "source", EXAMPLES, ids=[f"example{i}" for i in range(1, len(EXAMPLES) + 1)]
)
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
