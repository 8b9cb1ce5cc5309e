"""Per-layer spans and counts, recorded from outside the package.

`install` wraps gapfem's public functions, and scipy's `splu`, at every
module attribute that is bound to them, so a call is traced however its
caller looked the function up.  Each wrapper records a span; a span's self
time is its duration minus the spans it encloses.  Counts come from the
wrapped calls' arguments and results.  Time spent computing counts is
hidden from every span's self time (its enclosing span treats it as a
child), so it shows only in `trace.overhead_s`.

Not measured until the package records spans of its own: Triangulation
construction inside `refine_bisection` (part of `mesh.refine_bisection_s`),
`triangle_rule` set-up (cached, part of its callers' self time) and the
refinement steps inside `solve_sparse` (part of `forms.solve_sparse_s`).
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Self time and calls per span name, plus named counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.backward_error_max = 0.0
        self.final_elements = 0
        self.top_s = 0.0  # summed duration of spans opened outside any span
        self._open = []  # per open span: seconds covered by its children

    def wrap(self, span, fn, after=None):
        signature = inspect.signature(fn) if after is not None else None
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                children = open_spans.pop()
                self.self_s[span] += t1 - t0 - children
                self.calls[span] += 1
                if open_spans:
                    open_spans[-1] += t1 - t0
                else:
                    self.top_s += t1 - t0
            if after is not None:
                after(self, signature.bind(*args, **kwargs).arguments, result)
                if open_spans:
                    open_spans[-1] += clock() - t1
            return result

        return traced


def _after_factor(tracer, arguments, lu):
    tracer.counts["forms.unknowns"] += arguments["A"].shape[0]
    tracer.counts["forms.lu_fill"] += lu.L.nnz + lu.U.nnz


def _after_solve_sparse(tracer, arguments, result):
    _, report = result
    tracer.backward_error_max = max(tracer.backward_error_max, report.residual_norm)


def _after_refine(tracer, arguments, result):
    _, parent_map = result
    tracer.counts["mesh.elements_marked"] += len({int(t) for t in arguments["marked"]})
    tracer.counts["mesh.elements_bisected"] += sum(
        len(children) > 1 for children in parent_map.values()
    )


def _after_discretize(tracer, arguments, result):
    tracer.counts["adaptive.iterations"] += 1
    tracer.final_elements = arguments["mesh"].num_elements


def _after_strong_convexity(tracer, arguments, result):
    tracer.counts["duality.samples"] += 1


# (defining module, function, span, count hook)
TARGETS = [
    ("gapfem.cli", "identity_rows", "cli.identity_rows", None),
    ("gapfem.adaptive", "run_adaptive", "adaptive.run_adaptive", None),
    ("gapfem.adaptive", "mark_max", "adaptive.mark_max", None),
    ("gapfem.problems", "get_problem", "problems.get_problem", None),
    ("gapfem.problems", "discretize_stokes", "problems.discretize", _after_discretize),
    ("gapfem.problems", "discretize_elasticity", "problems.discretize",
     _after_discretize),
    ("gapfem.problems", "interpolate_lift", "problems.interpolate_lift", None),
    ("gapfem.problems", "project_data", "problems.project_data", None),
    ("gapfem.problems", "exact_errors", "problems.exact_errors", None),
    ("gapfem.mesh", "refine_bisection", "mesh.refine_bisection", _after_refine),
    ("gapfem.quadrature", "physical_points", "quadrature.physical_points", None),
    ("gapfem.spaces", "nodal_average", "spaces.nodal_average", None),
    ("gapfem.forms", "assemble_stokes", "forms.assemble", None),
    ("gapfem.forms", "assemble_elasticity", "forms.assemble", None),
    ("gapfem.forms", "solve_sparse", "forms.solve_sparse", _after_solve_sparse),
    ("gapfem.forms", "solve_lifting", "forms.solve_lifting", None),
    ("scipy.sparse.linalg", "splu", "forms.factor", _after_factor),
    ("gapfem.duality", "marini_stokes", "duality.marini", None),
    ("gapfem.duality", "marini_elasticity", "duality.marini", None),
    ("gapfem.duality", "gap_indicator_stokes", "duality.gap_indicator", None),
    ("gapfem.duality", "gap_indicator_elasticity", "duality.gap_indicator", None),
    ("gapfem.duality", "oscillation_indicator", "duality.oscillation", None),
    ("gapfem.duality", "random_divfree_cr", "duality.random_divfree_cr", None),
    ("gapfem.duality", "random_divfree_rt", "duality.random_divfree_rt", None),
    ("gapfem.duality", "energies_stokes", "duality.energies", None),
    ("gapfem.duality", "strong_convexity_stokes", "duality.strong_convexity",
     _after_strong_convexity),
]


def install(tracer):
    """Wrap every target; returns the targets that no longer exist."""
    missing = []
    for module_name, name, span, after in TARGETS:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, name)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{name}")
            continue
        traced = tracer.wrap(span, fn, after)
        for mod in list(sys.modules.values()):
            if mod is not module and not getattr(mod, "__name__", "").startswith("gapfem"):
                continue
            for key in [k for k, v in vars(mod).items() if v is fn]:
                setattr(mod, key, traced)
    return missing


# per-layer metric -> unit; "count" metrics must repeat exactly
PER_LAYER_UNITS = {
    "forms.factor_s": "s",
    "forms.factor_calls": "count",
    "forms.lu_fill": "count",
    "forms.solve_sparse_s": "s",
    "forms.assemble_s": "s",
    "forms.solve_lifting_s": "s",
    "forms.unknowns": "count",
    "forms.backward_error_max": "1",
    "mesh.refine_bisection_s": "s",
    "mesh.refine_bisection_calls": "count",
    "mesh.elements_marked": "count",
    "mesh.elements_bisected": "count",
    "mesh.closure_ratio": "1",
    "mesh.final_elements": "count",
    "quadrature.physical_points_s": "s",
    "quadrature.physical_points_calls": "count",
    "spaces.nodal_average_s": "s",
    "problems.interpolate_lift_s": "s",
    "problems.project_data_s": "s",
    "problems.exact_errors_s": "s",
    "duality.marini_s": "s",
    "duality.gap_indicator_s": "s",
    "duality.oscillation_s": "s",
    "duality.random_divfree_cr_s": "s",
    "duality.random_divfree_rt_s": "s",
    "duality.energies_s": "s",
    "duality.strong_convexity_s": "s",
    "duality.samples": "count",
    "adaptive.mark_max_s": "s",
    "adaptive.iterations": "count",
    "cli.unattributed_s": "s",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, time_to_solution_s):
    """Per-layer metrics of one traced repetition, except trace.overhead_s."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    marked = counts["mesh.elements_marked"]
    return {
        "forms.factor_s": s["forms.factor"],
        "forms.factor_calls": calls["forms.factor"],
        "forms.lu_fill": counts["forms.lu_fill"],
        "forms.solve_sparse_s": s["forms.solve_sparse"],
        "forms.assemble_s": s["forms.assemble"],
        "forms.solve_lifting_s": s["forms.solve_lifting"],
        "forms.unknowns": counts["forms.unknowns"],
        "forms.backward_error_max": tracer.backward_error_max,
        "mesh.refine_bisection_s": s["mesh.refine_bisection"],
        "mesh.refine_bisection_calls": calls["mesh.refine_bisection"],
        "mesh.elements_marked": marked,
        "mesh.elements_bisected": counts["mesh.elements_bisected"],
        "mesh.closure_ratio": counts["mesh.elements_bisected"] / marked if marked else 0.0,
        "mesh.final_elements": tracer.final_elements,
        "quadrature.physical_points_s": s["quadrature.physical_points"],
        "quadrature.physical_points_calls": calls["quadrature.physical_points"],
        "spaces.nodal_average_s": s["spaces.nodal_average"],
        "problems.interpolate_lift_s": s["problems.interpolate_lift"],
        "problems.project_data_s": s["problems.project_data"],
        "problems.exact_errors_s": s["problems.exact_errors"],
        "duality.marini_s": s["duality.marini"],
        "duality.gap_indicator_s": s["duality.gap_indicator"],
        "duality.oscillation_s": s["duality.oscillation"],
        "duality.random_divfree_cr_s": s["duality.random_divfree_cr"],
        "duality.random_divfree_rt_s": s["duality.random_divfree_rt"],
        "duality.energies_s": s["duality.energies"],
        "duality.strong_convexity_s": s["duality.strong_convexity"],
        "duality.samples": counts["duality.samples"],
        "adaptive.mark_max_s": s["adaptive.mark_max"],
        "adaptive.iterations": counts["adaptive.iterations"],
        "cli.unattributed_s": time_to_solution_s - tracer.top_s,
        "trace.coverage": tracer.top_s / time_to_solution_s,
    }
