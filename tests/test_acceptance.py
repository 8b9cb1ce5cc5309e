"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; the whole suite takes a few minutes (the identity check
solves the Taylor-Green problem up to 820,480 unknowns).
"""

import time

import numpy as np
from test_spaces import block_oscillation, block_pi0

from gapfem import (
    DIRICHLET,
    NEUMANN,
    broken_gradient,
    cr_interpolate,
    rt_interpolate,
    structured_square_mesh,
)
from gapfem.adaptive import (
    AdaptiveConfig,
    identity_rows,
    refine_marked_twice,
    run_adaptive,
)
from gapfem.duality import gap_indicator_elasticity
from gapfem.problems import (
    apriori_identity_check_stokes,
    cook_membrane,
    discretize_elasticity,
    discretize_stokes,
    exact_stress,
    lshape_stokes,
    manufactured_elasticity,
    taylor_green_stokes,
)
from gapfem.quadrature import physical_points, triangle_rule
from gapfem.spaces import MeshOperators, nodal_average, sym


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def fit_slope(dofs, values):
    return float(np.polyfit(np.log(np.asarray(dofs, float)), np.log(values), 1)[0])


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    prob = taylor_green_stokes()
    rep = run_adaptive(prob, AdaptiveConfig(refinement_mode="uniform", max_iter=4))
    elapsed = time.perf_counter() - t0
    dofs = [r.num_dof for r in rep.records]
    ep = [r.errors["err_primal"] for r in rep.records]
    ed = [r.errors["err_dual"] for r in rep.records]
    eocs = list(rep.eoc["err_primal"]) + list(rep.eoc["err_dual"])
    ok = (
        dofs[0] == 840
        and dofs == [840, 3280, 12960, 51520]
        and abs(ep[0] - 0.1830) / 0.1830 <= 0.05
        and abs(ed[0] - 0.1573) / 0.1573 <= 0.05
        and all(0.97 <= e <= 1.05 for e in eocs)
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"dofs {dofs}, primal[0] {ep[0]:.4f} (ref 0.1830), dual[0] {ed[0]:.4f} "
        f"(ref 0.1573), EOCs {np.round(eocs, 4).tolist()}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_discrete_prager_synge_identity():
    prob = taylor_green_stokes()
    rows = identity_rows(prob, levels=6, seeds=3)
    worst = max(r["err_iden"] for r in rows)
    ok = len(rows) == 18 and worst <= 1e-6
    report(
        2,
        ok,
        f"{len(rows)} samples over 6 levels (up to {rows[-1]['num_dof']} DOFs), "
        f"worst relative identity error {worst:.3e} <= 1e-6",
    )


def test_criterion_3_reconstruction_contracts():
    worst = {"div": 0.0, "jump": 0.0, "neumann": 0.0, "optimality": 0.0}

    def track(sol, f_h, g_h, mesh):
        ops = MeshOperators(mesh)
        div = sol.t_h.divergence(ops) if hasattr(sol, "t_h") else (
            sol.sigma_star.divergence(ops)
        )
        fv = f_h if f_h is not None else 0.0
        worst["div"] = max(worst["div"], float(np.abs(div + fv).max()))
        field = sol.t_h if hasattr(sol, "t_h") else sol.sigma_star
        worst["jump"] = max(worst["jump"], field.reconstruction_jump)
        neumann = mesh.sides_with_label(NEUMANN)
        if len(neumann):
            tn = field.flux[:, neumann].T
            if g_h is not None:
                tn = tn - g_h[neumann]
            # with a tensor load the field is relative to F_h, whose traces
            # carry the Neumann datum, so the relative fluxes must vanish
            worst["neumann"] = max(worst["neumann"], float(np.abs(tn).max()))
        worst["optimality"] = max(worst["optimality"], sol.optimality_residual())

    stokes_probs = [taylor_green_stokes(), taylor_green_stokes(load="tensor"),
                    lshape_stokes()]
    for prob in stokes_probs:
        mesh = prob.mesh_factory()
        for _ in range(2):
            sol = discretize_stokes(prob, mesh)
            track(sol, sol.system.f_h, sol.system.g_h, mesh)
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))

    elastic_probs = [cook_membrane(), manufactured_elasticity("patch"),
                     manufactured_elasticity("smooth")]
    for prob in elastic_probs:
        mesh = prob.mesh_factory()
        for _ in range(2):
            sol = discretize_elasticity(prob, mesh)
            track(sol, sol.system.f_h, sol.system.g_h, mesh)
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))

    ok = all(v <= 1e-10 for v in worst.values())
    report(
        3,
        ok,
        "max residuals over 6 problems x 2 meshes: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (tol 1e-10)",
    )


def test_criterion_4_apriori_identity():
    prob = taylor_green_stokes(load="tensor")
    mesh = prob.mesh_factory()
    rels = []
    for _ in range(3):
        out = apriori_identity_check_stokes(prob, mesh)
        rels.append(abs(out["lhs"] - out["rhs"]) / out["rhs"])
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    ok = max(rels) <= 1e-8
    report(4, ok, f"relative identity defects over 3 levels: "
           f"{[f'{r:.2e}' for r in rels]} (tol 1e-8)")


def test_criterion_5_lshape_rates():
    t0 = time.perf_counter()
    prob = lshape_stokes()
    rep = run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=12))
    dofs = [r.num_dof for r in rep.records]
    est = [np.sqrt(r.estimator_total) for r in rep.records]
    err = [
        np.hypot(r.errors["err_primal"], r.errors["err_dual_dev"])
        for r in rep.records
    ]
    s_est_a = fit_slope(dofs, est)
    s_err_a = fit_slope(dofs, err)

    repu = run_adaptive(prob, AdaptiveConfig(refinement_mode="uniform", max_iter=4))
    dofs_u = [r.num_dof for r in repu.records]
    est_u = [np.sqrt(r.estimator_total) for r in repu.records]
    err_u = [
        np.hypot(r.errors["err_primal"], r.errors["err_dual_dev"])
        for r in repu.records
    ]
    s_est_u = fit_slope(dofs_u, est_u)
    s_err_u = fit_slope(dofs_u, err_u)
    elapsed = time.perf_counter() - t0
    ok = (
        -0.60 <= s_est_a <= -0.40
        and -0.60 <= s_err_a <= -0.40
        and -0.32 <= s_est_u <= -0.20
        and -0.32 <= s_err_u <= -0.20
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"adaptive slopes est {s_est_a:.3f} / err {s_err_a:.3f} "
        f"(window [-0.60,-0.40]); uniform est {s_est_u:.3f} / err {s_err_u:.3f} "
        f"(window [-0.32,-0.20]); runtime {elapsed:.0f}s",
    )


def test_criterion_6_cook_rates():
    prob = cook_membrane()
    rep = run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=13))
    dofs = [r.num_dof for r in rep.records]
    est = [np.sqrt(r.estimator_total) for r in rep.records]
    s_adaptive = fit_slope(dofs[-6:], est[-6:])

    repu = run_adaptive(prob, AdaptiveConfig(refinement_mode="uniform", max_iter=5))
    dofs_u = [r.num_dof for r in repu.records]
    est_u = [np.sqrt(r.estimator_total) for r in repu.records]
    # the 120-element initial mesh is preasymptotic for the uniform fit
    # (consecutive slopes -0.63, -0.40, -0.39, -0.37); drop the first level,
    # mirroring the last-6-of-13 convention of the adaptive fit
    s_uniform = fit_slope(dofs_u[1:], est_u[1:])
    ok = -0.60 <= s_adaptive <= -0.40 and -0.40 <= s_uniform <= -0.27
    report(
        6,
        ok,
        f"adaptive slope (last 6 of 13) {s_adaptive:.3f} (window [-0.60,-0.40]); "
        f"uniform slope (levels 2-5) {s_uniform:.3f} (window [-0.40,-0.27])",
    )


def test_criterion_7_structure_preservation():
    def labeler(mid):
        return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN

    def velocity(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack(
            [np.sin(np.pi * x1) * np.cos(np.pi * x2),
             -np.cos(np.pi * x1) * np.sin(np.pi * x2)], axis=-1
        )

    def velocity_grad(x):
        pi = np.pi
        x1, x2 = x[..., 0], x[..., 1]
        g = np.empty(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = pi * np.cos(pi * x1) * np.cos(pi * x2)
        g[..., 0, 1] = -pi * np.sin(pi * x1) * np.sin(pi * x2)
        g[..., 1, 0] = pi * np.sin(pi * x1) * np.sin(pi * x2)
        g[..., 1, 1] = -pi * np.cos(pi * x1) * np.cos(pi * x2)
        return g

    def tensor(x):
        # smooth non-divergence-free tensor field
        x1, x2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.sin(np.pi * x1)
        out[..., 0, 1] = np.cos(np.pi * x2)
        out[..., 1, 0] = x1 * x2
        out[..., 1, 1] = np.exp(x1 - x2)
        return out

    def tensor_div(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack(
            [np.pi * np.cos(np.pi * x1) - np.pi * np.sin(np.pi * x2),
             x2 - np.exp(x1 - x2)], axis=-1
        )

    worst_grad = worst_div = worst_rt = 0.0
    mesh = structured_square_mesh(10, labeler)
    for _ in range(3):
        grads = broken_gradient(cr_interpolate(velocity, mesh))
        g_err = np.abs(grads - block_pi0(velocity_grad, mesh, degree=20)).max()
        d_err = np.abs(grads[:, 0, 0] + grads[:, 1, 1]).max()  # the broken divergence
        tau = rt_interpolate(tensor, mesh)
        rt_err = np.abs(
            tau.divergence(MeshOperators(mesh)) - block_pi0(tensor_div, mesh, degree=20)
        ).max()
        worst_grad = max(worst_grad, float(g_err))
        worst_div = max(worst_div, float(d_err))
        worst_rt = max(worst_rt, float(rt_err))
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    ok = max(worst_grad, worst_div, worst_rt) <= 1e-10
    report(
        7,
        ok,
        f"CR gradient preservation {worst_grad:.2e}, CR divergence "
        f"{worst_div:.2e}, RT divergence preservation {worst_rt:.2e} (tol 1e-10)",
    )


def test_criterion_8_elasticity_gap_lower_bound():
    from gapfem.adaptive import mark_max

    prob = manufactured_elasticity("smooth", n=4)
    mat = prob.material
    mesh = prob.mesh_factory()
    ratios = []
    for _ in range(4):  # every iteration of an adaptive run
        sol = discretize_elasticity(prob, mesh)
        vhat = nodal_average(sol.u_h + sol.u_hat, mesh, dirichlet_values=prob.u)
        eta = gap_indicator_elasticity(sol.system, vhat, sol.sigma_star)
        gap = eta.sum()
        w = triangle_rule(12)[1]
        pts = physical_points(mesh, 12)
        gu = prob.grad_u(pts)
        gv = vhat.gradient()[:, None] + np.zeros_like(gu)
        ed = sym(gv) - sym(gu)
        rho_p = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(ed, ed))
        )
        sd = sol.sigma_star.evaluate(pts, MeshOperators(mesh)) - exact_stress(prob, gu, None)
        rho_d = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.complementary_product(sd, sd))
        )
        ratios.append(gap / (rho_p + rho_d))
        mesh = refine_marked_twice(mesh, mark_max(eta, 0.5))
    ok = all(r <= 2.0 * (1 + 1e-12) for r in ratios)
    report(
        8,
        ok,
        f"gap / rho_tot ratios over 4 adaptive iterations: "
        f"{[f'{r:.3f}' for r in ratios]} "
        "(bound 2)",
    )


def test_criterion_9_oscillation_scaling():
    def f(x):
        return np.stack([np.sin(np.pi * x[..., 0]), 0.0 * x[..., 1]], axis=-1)

    mesh = structured_square_mesh(8, lambda mid: DIRICHLET)
    totals = []
    for _ in range(3):
        osc = block_oscillation(f, block_pi0(f, mesh), None, None, mesh)
        totals.append(float(osc.sum()))
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    ratios = [totals[k] / totals[k + 1] for k in range(2)]
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    report(9, ok, f"oscillation decrease factors {[f'{r:.2f}' for r in ratios]} "
           "(window [12, 20], theoretical 16)")
