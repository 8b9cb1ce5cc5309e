"""The benchmark's per-layer tracer must find every function it wraps.

A wrapped name that no longer resolves would silently read as a zero
per-layer metric, so a consolidation that renames or removes one fails here.
The tracer module is only loaded, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, name) for module_name, name, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name,name", _targets())
def test_traced_target_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))
