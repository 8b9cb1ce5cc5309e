"""Adaptive loop: SOLVE, ESTIMATE, MARK, REFINE with max-marking.

The REFINE step bisects every marked element twice (newest-vertex bisection
with conforming closure after each generation), so theta = 0 quarters every
element and halves the mesh size, reproducing the uniform-refinement DOF
sequence of the benchmark tables.  `identity_rows` checks the discrete
Prager-Synge identity on the same uniform refinement sequence.
"""

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .duality import (
    energies_stokes,
    gap_indicator_elasticity,
    gap_indicator_stokes,
    random_divfree_cr,
    random_divfree_rt,
    strong_convexity_stokes,
)
from .forms import NumericalFailure
from .mesh import refine_marked_twice
from .problems import discretize_elasticity, discretize_stokes, estimate_stokes, exact_errors
from .quadrature import VOLUME_DEGREE
from .spaces import nodal_average


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive loop; theta = 0 means uniform refinement."""

    theta: float = 0.5
    max_iter: int = 10
    eps_stop: float = 0.0
    refinement_mode: str = "adaptive"

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if not 0.0 <= self.eps_stop:
            raise ValueError("eps_stop must be at least 0")
        if self.refinement_mode == "uniform":
            self.theta = 0.0
        elif self.refinement_mode != "adaptive":
            raise ValueError("refinement_mode must be 'adaptive' or 'uniform'")


@dataclass
class IterationRecord:
    k: int
    num_elements: int
    num_dof: int
    h: float
    estimator_total: float
    osc_total: float
    eta_max: float
    eta_min: float
    marked: int
    errors: dict = field(default_factory=dict)
    wall_time: float = 0.0
    backward_error: float = 0.0  # of the linear solve, JSON report only
    reconstruction_jump: float = 0.0  # of the stress reconstruction, JSON only
    optimality_residual: float = 0.0  # of the solution, JSON report only

    def to_dict(self):
        """The record's fields in declaration order, the errors last."""
        out = asdict(self)
        out.update(out.pop("errors"))
        return out


class RunReport:
    """Per-iteration records plus experimental orders of convergence.

    EOCs are computed against h_k proportional to num_dof^(-1/2), the
    convention behind the benchmark tables.
    """

    def __init__(self, problem_name, config, records):
        self.problem_name = problem_name
        self.config = config
        self.records = records
        self.eoc = {}
        if len(records) >= 2:
            dofs = np.array([r.num_dof for r in records], dtype=float)
            hs = dofs**-0.5
            quantities = {"estimator": [np.sqrt(r.estimator_total) for r in records]}
            for key in records[0].errors:
                quantities[key] = [r.errors[key] for r in records]
            for name, vals in quantities.items():
                vals = np.asarray(vals, dtype=float)
                if np.all(vals > 0):
                    self.eoc[name] = eoc(vals, hs)

    def error_columns(self):
        return sorted(self.records[0].errors) if self.records else []

    def to_json(self, path):
        payload = {
            "problem": self.problem_name,
            "config": asdict(self.config),
            "records": [r.to_dict() for r in self.records],
            "eoc": {k: list(v) for k, v in self.eoc.items()},
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    def csv_rows(self):
        """Deterministic CSV rows (wall time excluded by design)."""
        err_cols = self.error_columns()
        header = [
            "k", "num_elements", "num_dof", "h", "estimator_total",
            "estimator", "osc_total", "eta_max", "marked",
        ] + err_cols + [f"eoc_{c}" for c in ["estimator"] + err_cols]
        rows = [header]
        for i, r in enumerate(self.records):
            row = [
                str(r.k), str(r.num_elements), str(r.num_dof), _fmt(r.h),
                _fmt(r.estimator_total), _fmt(np.sqrt(r.estimator_total)),
                _fmt(r.osc_total), _fmt(r.eta_max), str(r.marked),
            ]
            row += [_fmt(r.errors[c]) for c in err_cols]
            for name in ["estimator"] + err_cols:
                series = self.eoc.get(name)
                row.append(_fmt(series[i - 1]) if series is not None and i > 0 else "")
            rows.append(row)
        return rows

    def to_csv(self, path):
        with open(path, "w") as f:
            for row in self.csv_rows():
                f.write(",".join(row) + "\n")


def _fmt(x):
    """Fixed CSV float format: scientific below 1e-3, plain otherwise."""
    x = float(x)
    if x != 0.0 and abs(x) < 1e-3:
        return f"{x:.6e}"
    return f"{x:.6f}"


def eoc(values, hs):
    """Experimental orders (log e_k - log e_{k-1}) / (log h_k - log h_{k-1})."""
    values = np.asarray(values, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if np.any(values <= 0) or np.any(hs <= 0):
        raise ValueError("EOC requires positive errors and mesh sizes")
    return np.diff(np.log(values)) / np.diff(np.log(hs))


class IndicatorError(NumericalFailure, ValueError):
    """An error indicator that is negative, nan or infinite."""


def mark_max(indicators, theta):
    """Elements T with eta_T^2 >= theta * max eta^2; empty if all zero.

    A negative, nan or infinite indicator raises IndicatorError: the
    marking of a non-finite one would be empty and read as convergence.
    """
    indicators = np.asarray(indicators, dtype=float)
    if not np.all(np.isfinite(indicators) & (indicators >= 0)):
        raise IndicatorError("indicators must be finite and nonnegative")
    top = indicators.max(initial=0.0)
    if top <= 0.0:
        return np.array([], dtype=np.int64)
    return np.nonzero(indicators >= theta * top)[0]


def _estimate(problem, mesh, sol):
    """Per-element indicator eta_T^2 = gap_T^2 + osc_T^2 and error norms; the
    oscillation is the one `project_data` computed for the solution.  With
    an exact Stokes solution the gap and the errors come from one pass over
    the element blocks (`estimate_stokes`)."""
    errs = {}
    if problem.kind == "stokes" and problem.grad_u is not None:
        # the homogeneous part; the indicator adds the lift's exact gradient
        gap, errs = estimate_stokes(sol, problem, nodal_average(sol.u_h, mesh))
    else:
        vhat = nodal_average(sol.u_h + sol.u_hat, mesh, dirichlet_values=problem.u)
        if problem.kind == "stokes":
            gap = gap_indicator_stokes(sol.system, vhat, sol.t_h, None)
        else:
            gap = gap_indicator_elasticity(sol.system, vhat, sol.sigma_star)
        if problem.grad_u is not None:
            errs = exact_errors(sol, problem)
    return gap, sol.oscillation, {f"err_{k}": v for k, v in errs.items()}


def num_dof(problem_kind, mesh):
    """Total DOF count: all CR components, plus pressures for Stokes."""
    base = 2 * mesh.num_sides
    return base + mesh.num_elements if problem_kind == "stokes" else base


def run_adaptive(problem, config):
    """Run SOLVE / ESTIMATE / MARK / REFINE and collect a RunReport."""
    mesh = problem.mesh_factory()
    records = []
    for k in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        if problem.kind == "stokes":
            sol = discretize_stokes(problem, mesh)
            stress = sol.t_h
        else:
            sol = discretize_elasticity(problem, mesh)
            stress = sol.sigma_star
        gap, osc, errors = _estimate(problem, mesh, sol)
        eta = gap + osc
        total = float(eta.sum())
        marked = mark_max(eta, config.theta)
        record = IterationRecord(
            k=k,
            num_elements=mesh.num_elements,
            num_dof=num_dof(problem.kind, mesh),
            h=float(np.sqrt(mesh.total_area / mesh.num_vertices)),
            estimator_total=total,
            osc_total=float(osc.sum()),
            eta_max=float(eta.max(initial=0.0)),
            eta_min=float(eta.min(initial=0.0)),
            marked=len(marked),
            errors=errors,
            wall_time=time.perf_counter() - t0,
            backward_error=sol.solve_report.residual_norm,
            reconstruction_jump=stress.reconstruction_jump,
            optimality_residual=sol.optimality_residual(),
        )
        records.append(record)
        if total < config.eps_stop or len(marked) == 0:
            break
        # free this level's solution before the refinement; the old mesh
        # and its cached fields go once the refined mesh replaces it, which
        # keeps only a compact copy of their rows at the copied elements
        del sol, stress
        if k < config.max_iter:
            mesh = refine_marked_twice(mesh, marked)
    return RunReport(problem.name, config, records)


def identity_rows(problem, levels, seeds, seed_offset=0, tamper=False):
    """Relative identity errors for random admissible pairs per level."""
    mesh = problem.mesh_factory()
    rows = []
    for level in range(1, levels + 1):
        # the level's solution, with its system, is freed on return, before
        # the refinement; the old mesh and its cached fields go as soon as
        # the refined mesh replaces it (every element is bisected, so no
        # field rows are carried over)
        rows += _identity_level(problem, mesh, level, seeds, seed_offset, tamper)
        if level < levels:
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    return rows


def _identity_level(problem, mesh, level, seeds, seed_offset, tamper):
    """The `identity_rows` rows of one mesh: its seeds' pairs as one block,
    v = u_h + w a (2 ns, k) DOF block and tau = T_h + r an (ns, 2 k) flux
    block, formed in place from the samples w and r; the exact errors and
    the samples read the solved system's one operator set, `system.ops`."""
    sol = discretize_stokes(problem, mesh)
    errs = exact_errors(sol, problem)
    # the exact errors are the last readers of the bundle's broken gradient
    # and of the mesh's degree-10 field values: uniform refinement carries
    # no rows of them to the next mesh
    system, u_h, t_h = sol.system, sol.u_h, sol.t_h
    del sol
    for f in (problem.grad_u, problem.p):
        mesh.pop_cached(("rule_values", f, VOLUME_DEGREE))
    level_seeds = [seed_offset + 1000 * level + i for i in range(1, seeds + 1)]
    # vary the perturbation size around the discretisation error
    sizes = np.array([0.5 + ((7 * seed) % 8) / 4.0 for seed in level_seeds])
    v = random_divfree_cr(
        system.ops, level_seeds, sizes * np.sqrt(2.0 / problem.nu) * errs["primal"]
    )
    v += u_h.dofs()[:, None]
    tau = random_divfree_rt(
        system.ops, [seed + 500000 for seed in level_seeds],
        sizes * np.sqrt(2.0 * problem.nu) * errs["dual"],
    )
    for i in range(2):
        tau[:, i::2] += t_h.flux[i][:, None]
    if tamper:
        _tamper(tau, mesh)
    en = energies_stokes(v, tau, system)
    rho = strong_convexity_stokes(v, tau, system, u_h, t_h)
    gap = en["primal"] - en["dual"]
    rho_tot = rho["primal"] + rho["dual"]
    rel = np.abs(gap - rho_tot) / rho_tot  # inf in an inadmissible column
    return [
        {
            "level": level,
            "sample": i,
            "num_dof": num_dof("stokes", mesh),
            "rho_primal": float(rho["primal"][i - 1]),
            "rho_dual": float(rho["dual"][i - 1]),
            "gap": float(gap[i - 1]),
            "err_iden": float(rel[i - 1]),
        }
        for i in range(1, seeds + 1)
    ]


def _tamper(flux, mesh):
    """Break the divergence constraint of every stress of an (ns, 2 k) flux
    block on one element: row 0's flux through the first side of element 0
    grows by 0.1 (1 + the stress's largest flux)."""
    largest = flux.reshape(mesh.num_sides, -1, 2).max(axis=(0, 2))
    flux[mesh.element_sides[0, 0], 0::2] += 0.1 * (1.0 + largest)
