"""Stress reconstruction, gap estimators, and discrete duality checks.

Admissible pairs for the Stokes problem consist of a discretely
divergence-free Crouzeix-Raviart field and a Raviart-Thomas stress whose
divergence and Neumann traces match the discrete data; the primal-dual gap
of such a pair equals the sum of the two strong convexity measures
(discrete hypercircle identity), which this module both computes and
stress-tests with randomized admissible perturbations.
"""

import numpy as np

from . import mesh as _mesh
from .forms import stokes_saddle
from .quadrature import physical_points, rule_values, triangle_rule
from .spaces import (
    CRField,
    P0Field,
    RTField,
    broken_divergence,
    broken_gradient,
    broken_sym_gradient,
    dev,
    inner_p0,
    norm_p0,
    pi0,
    rt_interpolate,
    sym,
)


class AdmissibilityError(Exception):
    """A reconstructed or supplied field violates its constraint set."""


class ElasticityTensor:
    """Lame pair (mu, lambda) with forward/inverse action and induced norms.

    Forward action: C A = 2 mu A + lambda tr(A) I.
    Inverse action: C^-1 B = dev(B)/(2 mu) + tr(B) I / (2 d mu + d^2 lambda),
    d = 2.
    """

    def __init__(self, mu, lam):
        if mu <= 0 or lam <= 0:
            raise ValueError("Lame parameters must be positive")
        self.mu = float(mu)
        self.lam = float(lam)

    def apply(self, a):
        a = np.asarray(a, dtype=float)
        tr = a[..., 0, 0] + a[..., 1, 1]
        out = 2.0 * self.mu * a
        out[..., 0, 0] += self.lam * tr
        out[..., 1, 1] += self.lam * tr
        return out

    def inverse(self, b):
        b = np.asarray(b, dtype=float)
        tr = b[..., 0, 0] + b[..., 1, 1]
        out = dev(b) / (2.0 * self.mu)
        c = tr / (4.0 * self.mu + 4.0 * self.lam)
        out[..., 0, 0] += c
        out[..., 1, 1] += c
        return out

    def energy_product(self, a, b):
        """Point-wise C a : b."""
        return np.einsum("...ij,...ij->...", self.apply(a), b)

    def complementary_product(self, a, b):
        """Point-wise C^-1 a : b."""
        return np.einsum("...ij,...ij->...", self.inverse(a), b)


# -- Marini reconstructions ----------------------------------------------------


# largest interior discrepancy a reconstruction from a discrete solution may show
JUMP_TOL = 1e-8


def _two_sided(mesh, side_values):
    """Average of per-side values over the views of the adjacent elements.

    side_values(sel, e) returns the (m, 2) values that element e[k] gives
    side sel[k].  Returns the (ns, 2) averages and the largest discrepancy
    between the two views of an interior side.
    """
    ns = mesh.num_sides
    out = np.zeros((ns, 2))
    count = np.zeros(ns)
    jump = 0.0
    for slot in (0, 1):
        sel = np.nonzero(mesh.side_elements[:, slot] >= 0)[0]
        vals = side_values(sel, mesh.side_elements[sel, slot])
        if slot == 0:
            out[sel] = vals
        else:
            jump = np.abs(out[sel] - vals).max(initial=0.0)
            out[sel] += vals
        count[sel] += 1.0
    return out / count[:, None], jump


def _flux_from_local(mesh, p0_part, slope):
    """Side fluxes of the local fields row_i(x) = p0_part[T,i,:] + slope[T,i]*(x-x_T).

    Interior fluxes are taken from the two element views and must agree;
    their maximum discrepancy is returned along with the (2, ns) averaged
    fluxes.
    """
    geo = mesh.geometry()
    mid = geo["side_midpoint"]
    nrm = geo["side_normal"]
    cent = geo["centroids"]

    def side_flux(sel, e):
        rel = mid[sel] - cent[e]  # (m, 2)
        return (
            np.einsum("mid,md->im", p0_part[e], nrm[sel])
            + slope[e].T * np.einsum("md,md->m", rel, nrm[sel])
        ).T

    flux, jump = _two_sided(mesh, side_flux)
    return np.ascontiguousarray(flux.T), jump


def _equilibrate(mesh, p0_part, f_h, big_f_h, cause):
    """RT field p0_part - F_h - (1/d) f_h otimes (id - Pi_h id), d = 2.

    The one Marini equilibration: raises AdmissibilityError, naming `cause`,
    if the interior flux jumps exceed JUMP_TOL, and records the largest jump
    as `reconstruction_jump` on the returned field.
    """
    if big_f_h is not None:
        p0_part = p0_part - _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))
    fv = _p0_values(f_h, mesh, (mesh.num_elements, 2))
    slope = -0.5 * fv  # row slopes of -(1/d) f (x - x_T)
    flux, jump = _flux_from_local(mesh, p0_part, slope)
    if jump > JUMP_TOL:
        raise AdmissibilityError(
            f"stress reconstruction has interior flux jumps {jump:.3e}; {cause}"
        )
    field = RTField(mesh, flux)
    field.reconstruction_jump = jump
    return field


def marini_stokes(u_h, p_h, u_hat, f_h, nu, mesh, big_f_h=None):
    """Stress reconstruction from the discrete Stokes solution.

    T_h = nu grad_h(u_h + u_hat) - p_h I - (1/d) f_h otimes (id - Pi_h id).

    With a tensor load part F_h the returned field is the Raviart-Thomas
    part T_h - F_h (the full stress is the sum of the two); without one it
    is the stress itself.  An interior-flux discrepancy above JUMP_TOL
    signals that (u_h, p_h) does not solve the discrete system.
    """
    grads = broken_gradient(u_h + u_hat).values
    pvals = p_h.values if isinstance(p_h, P0Field) else np.asarray(p_h)
    p0_part = nu * grads
    p0_part[:, 0, 0] -= pvals
    p0_part[:, 1, 1] -= pvals
    return _equilibrate(
        mesh, p0_part, f_h, big_f_h,
        "the input pair does not solve the discrete system",
    )


def marini_stokes_inverse(t_h, u_bar, u_hat, nu, mesh):
    """Velocity reconstruction from the discrete dual (mixed) solution.

    u_h = u_bar + [(1/nu) dev(Pi_h T_h) - grad_h u_hat] (id - Pi_h id),
    evaluated at the side midpoints.  Since dev Pi_h T_h equals
    nu grad_h(u_h + u_hat) at the discrete solution, subtracting the lift
    gradient recovers the primal solution itself; the bracket reduces to
    (1/nu) dev Pi_h T_h for a homogeneous lift.  The result must lie in the
    CR space: each interior side midpoint receives the same value from both
    adjacent elements, up to JUMP_TOL.
    """
    geo = mesh.geometry()
    mid = geo["side_midpoint"]
    cent = geo["centroids"]
    dv = dev(t_h.cell_average().values) / nu - broken_gradient(u_hat).values
    ubv = u_bar.values if isinstance(u_bar, P0Field) else np.asarray(u_bar)

    def side_value(sel, e):
        return ubv[e] + np.einsum("mij,mj->mi", dv[e], mid[sel] - cent[e])

    vals, jump = _two_sided(mesh, side_value)
    if jump > JUMP_TOL:
        raise AdmissibilityError(
            f"velocity reconstruction jumps {jump:.3e}: input does not solve "
            "the discrete dual system"
        )
    return CRField(mesh, vals)


def marini_elasticity(u_h, u_hat, r_h, f_h, material, mesh, big_f_h=None):
    """Equilibrated stress from the discrete elasticity solution.

    sigma*_h = C eps_h(u_h + u_hat) + grad_h r_h - (1/d) f_h otimes (id - Pi_h id),
    with r_h the lifting of the jump-stabilisation residual.  The row-wise
    correction (rather than its symmetrised variant) is used so that every
    row is a Raviart-Thomas field with single-valued normal fluxes.  With a
    tensor load part F_h the returned field is sigma*_h - F_h, as for the
    Stokes reconstruction.
    """
    eps = broken_sym_gradient(u_h + u_hat).values
    p0_part = material.apply(eps) + broken_gradient(r_h).values
    return _equilibrate(
        mesh, p0_part, f_h, big_f_h, "inconsistent lifting or solution"
    )


def _p0_values(f, mesh, shape):
    if f is None:
        return np.zeros(shape)
    if isinstance(f, P0Field):
        return f.values
    return np.asarray(f, dtype=float)


# -- admissibility checks --------------------------------------------------------


def check_stokes_admissible_velocity(v_h, tol=1e-10):
    """Max |div_h v| and Dirichlet-side violation of a candidate velocity."""
    div = np.abs(broken_divergence(v_h).values).max(initial=0.0)
    bc = np.abs(v_h.values[v_h.mesh.side_labels == _mesh.DIRICHLET]).max(initial=0.0)
    return max(div, bc) <= tol, max(div, bc)


def check_stress_admissible(tau, f_h, g_h, mesh, tol=1e-10):
    """Constraint residual of a stress candidate (given relative to F_h).

    Checks div(tau) = -f_h element-wise and tau n = g_h on Neumann sides;
    interior normal-flux continuity is structural for RTField storage.
    """
    fv = _p0_values(f_h, mesh, (mesh.num_elements, 2))
    div = tau.divergence().values
    res = np.abs(div + fv).max(initial=0.0)
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    if len(neumann):
        tn = tau.flux[:, neumann].T  # (m, 2)
        if g_h is not None:
            tn = tn - np.asarray(g_h)[neumann]
        res = max(res, np.abs(tn).max(initial=0.0))
    return res <= tol, res


# -- energies, gaps, strong convexity measures ------------------------------------


def _total_dev_avg(tau_rel, big_f_h, mesh):
    avg = tau_rel.cell_average().values
    if big_f_h is not None:
        avg = avg + _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))
    return dev(avg)


def energies_stokes(v_h, tau_h, system, admissibility_tol=1e-8):
    """Discrete primal and dual energies of a candidate pair.

    tau_h is given relative to the tensor load F_h (the identity mapping
    when there is none).  Returns a dict with I_h(v_h) and D_h(tau_h); an
    inadmissible velocity yields +inf for the primal energy, an
    inadmissible stress -inf for the dual energy.
    """
    mesh = system.mesh
    nu = system.nu
    grad_tot = broken_gradient(v_h + system.u_hat)
    ok_v, _ = check_stokes_admissible_velocity(v_h, tol=admissibility_tol)
    if ok_v:
        primal = 0.5 * nu * norm_p0(grad_tot) ** 2 - system.load(v_h)
    else:
        primal = np.inf
    ok_t, _ = check_stress_admissible(
        tau_h, system.f_h, system.g_h, mesh, tol=admissibility_tol
    )
    if ok_t:
        devavg = P0Field(mesh, _total_dev_avg(tau_h, system.big_f_h, mesh))
        grad_hat = broken_gradient(system.u_hat)
        dual = -norm_p0(devavg) ** 2 / (2.0 * nu) + inner_p0(devavg, grad_hat)
    else:
        dual = -np.inf
    return {"primal": primal, "dual": dual}


def gap_indicator_stokes_discrete(v_h, tau_h, u_hat, nu, mesh, big_f_h=None):
    """Per-element discrete gap (nu/2)||grad_h(v+u_hat) - dev(Pi_h tau)/nu||_T^2."""
    grads = broken_gradient(v_h + u_hat).values
    devavg = _total_dev_avg(tau_h, big_f_h, mesh)
    diff = grads - devavg / nu
    per_element = 0.5 * nu * mesh.areas * np.einsum("nij,nij->n", diff, diff)
    return per_element


def strong_convexity_stokes(v_h, tau_h, solution):
    """Discrete strong convexity measures of a candidate pair.

    rho_primal^2 = (nu/2) ||grad_h v - grad_h u_h||^2 and
    rho_dual^2 = 1/(2 nu) ||dev Pi_h tau - dev Pi_h T_h||^2, with (u_h, T_h)
    the discrete solution pair.
    """
    nu = solution.nu
    dgrad = broken_gradient(v_h - solution.u_h)
    rho_primal = 0.5 * nu * norm_p0(dgrad) ** 2
    ddev = dev(tau_h.cell_average().values) - dev(
        solution.t_h.cell_average().values
    )
    mesh = v_h.mesh
    rho_dual = np.sum(mesh.areas * np.einsum("nij,nij->n", ddev, ddev)) / (2.0 * nu)
    return {"primal": rho_primal, "dual": float(rho_dual)}


class StokesSolution:
    """Bundle of the discrete Stokes solution and its reconstruction.

    t_h stores the Raviart-Thomas part of the stress relative to the tensor
    load F_h (equal to the stress itself when no tensor load is present).
    The load data f_h, F_h and g_h live on `system`.
    """

    def __init__(self, mesh, nu, u_h, p_h, t_h, u_hat, system, solve_report):
        self.mesh = mesh
        self.nu = nu
        self.u_h = u_h
        self.p_h = p_h
        self.t_h = t_h
        self.u_hat = u_hat
        self.system = system
        self.solve_report = solve_report

    def optimality_residual(self):
        """Max |dev Pi_h T_h - nu grad_h(u_h + u_hat)| over elements."""
        devavg = _total_dev_avg(self.t_h, self.system.big_f_h, self.mesh)
        grads = broken_gradient(self.u_h + self.u_hat).values
        return float(np.abs(devavg - self.nu * grads).max())


class ElasticitySolution:
    """Bundle of the discrete elasticity solution and its reconstruction.

    The load data f_h, F_h and g_h live on `system`.
    """

    def __init__(self, mesh, material, u_h, r_h, sigma_star, u_hat, system,
                 solve_report):
        self.mesh = mesh
        self.material = material
        self.u_h = u_h
        self.r_h = r_h
        self.sigma_star = sigma_star
        self.u_hat = u_hat
        self.system = system
        self.solve_report = solve_report

    def optimality_residual(self):
        """Max |Pi_h sigma* - C eps_h(u_h+u_hat) - grad_h r_h| over elements."""
        avg = self.sigma_star.cell_average().values
        eps = broken_sym_gradient(self.u_h + self.u_hat).values
        target = self.material.apply(eps) + broken_gradient(self.r_h).values
        return float(np.abs(avg - target).max())


# -- continuous-level indicators ---------------------------------------------------


def gap_indicator_stokes(v, tau_h, grad_u, nu, mesh, degree=10, big_f_h=None):
    """Per-element indicator (nu/2) ||grad v + grad u_hat - dev(tau)/nu||_T^2.

    Parameters
    ----------
    v : P1ConformingField
        Conforming post-processed velocity (homogeneous part).
    tau_h : RTField
        Stress relative to the tensor load F_h (the stress itself without one).
    grad_u : callable or None
        Gradient of the Dirichlet lift u_hat (`ProblemSpec.grad_u`), cached
        on the mesh by `rule_values`; None means zero.
    """
    w = triangle_rule(degree)[1]
    # diff = gv - dev(tau) / nu, formed in place to keep the peak memory down
    diff = tau_h.evaluate(physical_points(mesh, degree))
    if big_f_h is not None:
        diff += _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))[:, None]
    dev(diff, in_place=True)
    diff /= nu
    gv = v.gradient().values[:, None, :, :]
    if grad_u is not None:
        gv = gv + rule_values(grad_u, mesh, degree)
    np.subtract(gv, diff, out=diff)
    vals = np.einsum("q,nqij,nqij->n", w, diff, diff)
    return 0.5 * nu * mesh.areas * vals


def gap_indicator_elasticity(v, sigma, material, mesh, degree=10, grad_u=None,
                             big_f_h=None):
    """Per-element indicator (1/2) ||C^(1/2)(eps(v) - C^-1 sigma)||_T^2.

    v is the conforming post-processed total displacement (Dirichlet lift
    included); pass grad_u to add the gradient of an analytic lift instead.
    sigma is relative to the tensor load F_h when one is present.
    """
    w = triangle_rule(degree)[1]
    pts = physical_points(mesh, degree)
    gv = v.gradient().values[:, None, :, :] + np.zeros(pts.shape[:2] + (2, 2))
    if grad_u is not None:
        gv = gv + rule_values(grad_u, mesh, degree)
    sv = sigma.evaluate(pts)
    if big_f_h is not None:
        sv = sv + _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))[:, None]
    diff = sym(gv) - material.inverse(sv)
    vals = material.energy_product(diff, diff)
    return 0.5 * mesh.areas * np.einsum("q,nq->n", w, vals)


def oscillation_indicator(f, f_h, big_f, big_f_h, mesh, degree=10):
    """Per-element data oscillation (h_T^2/pi^2)||f - f_h||_T^2 + ||F - F_h||_T^2."""
    geo = mesh.geometry()
    w = triangle_rule(degree)[1]
    out = np.zeros(mesh.num_elements)
    if f is not None:
        fv = rule_values(f, mesh, degree)
        fhv = _p0_values(f_h, mesh, (mesh.num_elements, 2))
        diff = fv - fhv[:, None, :]
        out += (
            (geo["h_t"] ** 2 / np.pi**2)
            * mesh.areas
            * np.einsum("q,nqi,nqi->n", w, diff, diff)
        )
    if big_f is not None:
        fv = rule_values(big_f, mesh, degree)
        fhv = _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))
        diff = fv - fhv[:, None, :, :]
        out += mesh.areas * np.einsum("q,nqij,nqij->n", w, diff, diff)
    return out


# -- random admissible fields ------------------------------------------------------


def random_divfree_cr(mesh, seeds, scales):
    """Random fields in the discretely divergence-free homogeneous CR space.

    Returns one CRField per seed: Uniform[-1,1] DOFs drawn from
    default_rng(seed) are zeroed on Dirichlet sides and projected onto
    ker(div_h) orthogonally in the broken H1 seminorm, all seeds in one
    block projection; the field of seeds[k] is normalised to broken-H1
    seminorm scales[k] (a scalar scales every field alike).
    """
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (len(seeds),))
    ns = mesh.num_sides
    dirichlet = mesh.side_labels == _mesh.DIRICHLET
    raw = np.empty((2 * ns, len(seeds)))
    for k, seed in enumerate(seeds):
        vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(ns, 2))
        vals[dirichlet] = 0.0
        raw[:ns, k], raw[ns:, k] = vals.T
    fields = project_divfree_cr(mesh, raw)
    for k, field in enumerate(fields):
        nrm = norm_p0(broken_gradient(field))
        if nrm == 0.0:
            raise AdmissibilityError("random divergence-free sample degenerated to zero")
        fields[k] = (scales[k] / nrm) * field
    return fields


def project_divfree_cr(mesh, dofs):
    """Broken-H1-orthogonal projections onto the divergence-free subspace.

    dofs is a (2 ns, k) block of CR DOF vectors (`CRField.dofs` layout);
    returns the k projected CRFields.  All columns go through one block
    solve of the nu = 1 Stokes saddle system with load A v, by the mesh's
    one `stokes_saddle`, so the projections and the Stokes solve share its
    factor; every column is residual-checked.
    """
    saddle = stokes_saddle(mesh)
    rhs = saddle.restrict(
        saddle.a1_full @ dofs, np.zeros((mesh.num_elements, dofs.shape[1]))
    )
    x, _ = saddle.al_solve(rhs, 1.0)
    return [saddle.velocity(col) for col in x.T]


def random_divfree_rt(mesh, seed, scale=1.0):
    """Random RT tensor with exactly zero divergence and zero Neumann trace.

    Each row is the rotated gradient (d2 phi, -d1 phi) of a random conforming
    P1 potential vanishing at all vertices on the closure of the Neumann
    boundary, so the divergence vanishes identically and Neumann normal
    traces are zero by construction.  Normalised so ||dev Pi_h .|| = scale
    (unless the deviatoric part degenerates).
    """
    rng = np.random.default_rng(seed)
    nv = mesh.num_vertices
    phi = rng.uniform(-1.0, 1.0, size=(nv, 2))
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    pinned = np.unique(mesh.side_vertices[neumann]) if len(neumann) else []
    phi[pinned] = 0.0
    geo = mesh.geometry()
    gl = geo["grad_lambda"]  # (ne, 3, 2)
    pv = phi[mesh.elements]  # (ne, 3, 2) s: vertex, component=row
    grads = np.einsum("nki,nkd->nid", pv, gl)  # (ne, row, d)
    rows = np.stack([grads[:, :, 1], -grads[:, :, 0]], axis=2)  # rot
    flux, jump = _flux_from_local(mesh, rows, np.zeros((mesh.num_elements, 2)))
    if jump > 1e-12:
        raise AdmissibilityError("rotated-gradient construction lost conformity")
    field = RTField(mesh, flux)
    nrm = norm_p0(P0Field(mesh, dev(field.cell_average().values)))
    if nrm < 1e-14:
        raise AdmissibilityError("random stress perturbation has no deviatoric part")
    return (scale / nrm) * field


# -- a priori identity --------------------------------------------------------------


def apriori_identity_check_stokes(problem, mesh, degree=14):
    """Evaluate both sides of the a priori error identity on one mesh.

    Requires a Stokes problem in tensor-load form (exact stress T, tensor
    part F with (T - F) n = 0 on the Neumann boundary, f = -div(T - F)).
    The discrete problem is solved with f_h = Pi_h f, F_h = Pi_h F and the
    interpolated lift; returns a dict with lhs, rhs and the solution bundle.
    """
    from .problems import discretize_stokes, exact_stress  # avoids a cycle

    sol = discretize_stokes(problem, mesh)
    nu = problem.nu

    # the exact velocity is the lift itself, so I_cr(u - u_hat) = 0
    lhs1 = 0.5 * nu * norm_p0(broken_gradient(sol.u_h)) ** 2

    def t_minus_f(x):
        p = None if problem.p is None else problem.p(x)
        return exact_stress(problem, problem.grad_u(x), p) - problem.big_f(x)

    irt = rt_interpolate(t_minus_f, mesh)
    pi_irt = P0Field(mesh, dev(irt.cell_average().values))
    # sol.t_h already stores the stress relative to F_h
    pi_th = P0Field(mesh, dev(sol.t_h.cell_average().values))
    lhs2 = norm_p0(P0Field(mesh, pi_irt.values - pi_th.values)) ** 2 / (2.0 * nu)

    pi_exact = pi0(t_minus_f, mesh, degree=degree)
    diff = P0Field(mesh, dev(pi_exact.values) - pi_irt.values)
    rhs = norm_p0(diff) ** 2 / (2.0 * nu)
    return {"lhs": lhs1 + lhs2, "lhs_primal": lhs1, "lhs_dual": lhs2, "rhs": rhs,
            "solution": sol}

