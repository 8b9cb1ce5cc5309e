"""The benchmark's per-layer tracer must find every function it wraps.

A wrapped name that no longer resolves would silently read as a zero
per-layer metric, so a consolidation that renames or removes one fails here.
The tracer module is only loaded, never installed.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(module_name, name) for module_name, name, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("module_name,name", _targets())
def test_traced_target_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


def test_refine_marked_twice_calls_the_module_refine_bisection(monkeypatch):
    """The tracer wraps `gapfem.mesh.refine_bisection` on its module, and its
    refine hook counts `mesh.elements_bisected` from the (mesh, parent map)
    pair the function returns.  Both generations of `refine_marked_twice`
    must pass through that attribute and return that pair."""
    from gapfem import mesh as gapfem_mesh
    from gapfem.problems import lshape_mesh

    after_refine = _tracing()._after_refine
    tracer = SimpleNamespace(counts=Counter())
    refine = gapfem_mesh.refine_bisection
    results = []

    def traced(mesh, marked):
        result = refine(mesh, marked)
        results.append(result)
        after_refine(tracer, {"marked": marked}, result)
        return result

    monkeypatch.setattr(gapfem_mesh, "refine_bisection", traced)
    gapfem_mesh.refine_marked_twice(lshape_mesh(2), [0, 1])
    assert len(results) == 2
    for result in results:
        assert type(result) is tuple and len(result) == 2
        assert isinstance(result[0], gapfem_mesh.Triangulation)
        assert isinstance(result[1], dict)
    # the two marked elements, then at least their four children
    assert tracer.counts["mesh.elements_bisected"] >= 6


def test_tracer_sees_the_identity_samples(monkeypatch):
    """The names the tracer wraps are the functions `identity_rows` calls:
    each level of a two-level run takes one call of each sample span.
    Every attribute `install` rebinds, scipy's `splu` included, is first
    registered with monkeypatch, so the originals come back afterwards."""
    from gapfem.adaptive import identity_rows
    from gapfem.problems import taylor_green_stokes

    tracing = _tracing()
    for module_name, name, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, name)
        for mod in list(sys.modules.values()):
            if mod is module or getattr(mod, "__name__", "").startswith("gapfem"):
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    monkeypatch.setattr(mod, key, fn)
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []
    identity_rows(taylor_green_stokes(), 2, 2)
    spans = ["duality.random_divfree_cr", "duality.random_divfree_rt", "duality.energies",
             "duality.strong_convexity"]
    assert [tracer.calls[span] for span in spans] == [2, 2, 2, 2]
