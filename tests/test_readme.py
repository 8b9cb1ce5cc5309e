"""The fenced Python examples of README.md run as written, and the names its
module table writes as calls exist."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
# (module, contents) of each row of the module table
MODULE_ROWS = re.findall(r"^\| `(gapfem\.\w+)` \| (.*) \|$", README.read_text(), re.M)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize(
    "source", EXAMPLES, ids=[f"example{i}" for i in range(1, len(EXAMPLES) + 1)]
)
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def resolve(module, name):
    """The object a dotted name denotes: in the named gapfem module when
    its first part is one, else in module; AttributeError if it is not."""
    first, *rest = name.split(".")
    try:
        obj = importlib.import_module(f"gapfem.{first}")
    except ModuleNotFoundError:
        obj, rest = module, [first, *rest]
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_module_table_calls_resolve():
    """Every name the module table writes as a call, `name(`, resolves in
    its row's module (numpy and scipy names are skipped)."""
    checked, missing = [], []
    for module_name, contents in MODULE_ROWS:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_][\w.]*)\(", contents):
            if name.split(".")[0] in ("np", "numpy", "scipy", "sparse", "sla"):
                continue
            checked.append(name)
            try:
                resolve(module, name)
            except AttributeError:
                missing.append(f"{module_name}: {name}")
    assert missing == []
    assert len(MODULE_ROWS) >= 8 and len(checked) >= 30
