"""Stress reconstruction, gap estimators, and discrete duality checks.

Admissible pairs for the Stokes problem consist of a discretely
divergence-free Crouzeix-Raviart field and a Raviart-Thomas stress whose
divergence and Neumann traces match the discrete data; the primal-dual gap
of such a pair equals the sum of the two strong convexity measures
(discrete hypercircle identity), which this module both computes and
stress-tests with randomized admissible perturbations.
"""

import numpy as np
import scipy.sparse as sparse

from . import mesh as _mesh
from .forms import NumericalFailure
from .quadrature import VOLUME_DEGREE, physical_points, rule_values, triangle_rule
from .spaces import (
    CRField,
    RTField,
    broken_gradient,
    broken_sym_gradient,
    cr_gradient_operator,
    curl_operator,
    dev,
    divfree_cr_operator,
    rt_average_operator,
    rt_divergence_operator,
    sym,
)


class AdmissibilityError(NumericalFailure):
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


# largest interior discrepancy a reconstruction from a discrete solution may
# show, relative to the largest term summed into its values: the discrepancy
# is their roundoff, which grows with the data, so it needs a relative bound
JUMP_TOL = 1e-8


def _side_average(mesh, table, size, failure):
    """Side values of an element-side table, and their largest interior discrepancy.

    table is (ne, 3, r): table[n, j] is the value element n gives side
    element_sides[n, j].  Each side value is the mean over the side's
    adjacent elements, one sparse product with weights 1/count.  Returns the
    (ns, r) means and the largest difference between the two views of an
    interior side, 2 max |table - mean| (a boundary side deviates by 0).
    AdmissibilityError(failure) is raised if it exceeds JUMP_TOL times size,
    the largest magnitude of a term summed into the table.
    """
    ne, ns = mesh.num_elements, mesh.num_sides
    sides = mesh.element_sides.ravel()
    count = 1.0 + (mesh.side_elements[:, 1] >= 0)
    mean = sparse.csr_matrix(
        (1.0 / count[sides], (sides, np.arange(3 * ne))), shape=(ns, 3 * ne)
    )
    avg = mean @ table.reshape(3 * ne, -1)
    jump = 2.0 * np.abs(table - avg[mesh.element_sides]).max(initial=0.0)
    if jump > JUMP_TOL * size:
        raise AdmissibilityError(
            f"{failure} (interior jumps {jump:.3e}, terms up to {size:.3e})"
        )
    return avg, jump


def _side_offsets(mesh):
    """(ne, 3, 2) offsets m_S - x_T of an element's side midpoints from its centroid."""
    geo = mesh.geometry()
    return geo["side_midpoint"][mesh.element_sides] - geo["centroids"][:, None, :]


def _equilibrate(mesh, p0_part, f_h, big_f_h, cause):
    """RT field p0_part - F_h - (1/d) f_h otimes (id - Pi_h id), d = 2.

    The one Marini equilibration: raises AdmissibilityError, naming `cause`,
    if the interior flux jumps exceed JUMP_TOL times the largest entry of
    p0_part - F_h or of the slope term, and records the largest jump, as an
    absolute value, as `reconstruction_jump` on the returned field.
    """
    if big_f_h is not None:
        p0_part = p0_part - _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))
    fv = _p0_values(f_h, mesh, (mesh.num_elements, 2))
    slope = -0.5 * fv  # row slopes of -(1/d) f (x - x_T)
    # row i's flux through local side j: p0_part_i . n + slope_i (m_S - x_T) . n
    nrm = mesh.geometry()["side_normal"][mesh.element_sides]  # (ne, 3, 2)
    reach = np.einsum("njd,njd->nj", _side_offsets(mesh), nrm)
    table = nrm @ p0_part.transpose(0, 2, 1)
    table += slope[:, None, :] * reach[..., None]
    size = np.abs(p0_part).max() + np.abs(slope).max() * np.abs(reach).max()
    flux, jump = _side_average(
        mesh, table, size, f"stress reconstruction has interior flux jumps: {cause}"
    )
    field = RTField(mesh, np.ascontiguousarray(flux.T))
    field.reconstruction_jump = jump
    return field


def marini_stokes(u_h, p_h, u_hat, f_h, nu, mesh, big_f_h=None):
    """Stress reconstruction from the discrete Stokes solution.

    T_h = nu grad_h(u_h + u_hat) - p_h I - (1/d) f_h otimes (id - Pi_h id).

    With a tensor load part F_h the returned field is the Raviart-Thomas
    part T_h - F_h (the full stress is the sum of the two); without one it
    is the stress itself.  An interior-flux discrepancy above JUMP_TOL
    times the largest term of the fluxes signals that (u_h, p_h) does not
    solve the discrete system.
    """
    p0_part = nu * broken_gradient(u_h + u_hat).values
    p0_part[:, 0, 0] -= p_h.values
    p0_part[:, 1, 1] -= p_h.values
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
    adjacent elements, up to JUMP_TOL times the largest of |u_bar| and of
    either bracket term times |m_S - x_T|: the bracket cancels to the
    primal correction, which may be far smaller than either term.
    """
    avg, grad_hat = dev(t_h.cell_average().values) / nu, broken_gradient(u_hat).values
    offsets = _side_offsets(mesh)
    table = u_bar.values[:, None, :] + np.einsum("nij,nkj->nki", avg - grad_hat, offsets)
    size = np.abs(u_bar.values).max() + np.abs(offsets).max() * (
        np.abs(avg).max() + np.abs(grad_hat).max())
    vals, _ = _side_average(
        mesh, table, size,
        "velocity reconstruction jumps: input does not solve the discrete dual system",
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
    """Values of a P0Field f, zeros of the given shape for None."""
    return np.zeros(shape) if f is None else f.values


# -- admissibility checks --------------------------------------------------------


def check_stokes_admissible_velocity(v_h):
    """(admissible, residual) of a CRField candidate velocity: the residual
    is the larger of max |div_h v| and the Dirichlet-side violation, and the
    candidate is admissible when it is at most 1e-10.
    """
    mesh, dofs = v_h.mesh, _cr_block([v_h])
    res = float(_velocity_residuals(mesh, dofs, _broken_gradients(mesh, dofs))[0])
    return res <= 1e-10, res


def _velocity_residuals(mesh, dofs, grads):
    """Per-column residual of `check_stokes_admissible_velocity`, from a
    `_cr_block` and its `_broken_gradients`."""
    res = np.abs(grads[..., 0, 0] + grads[..., 1, 1]).max(axis=1, initial=0.0)
    dirichlet = mesh.side_labels == _mesh.DIRICHLET
    bc = np.abs(dofs.reshape(2, mesh.num_sides, -1)[:, dirichlet])
    return np.maximum(res, bc.max(axis=(0, 1), initial=0.0))


def check_stress_admissible(tau, f_h, g_h, mesh):
    """(admissible, residual) of an RTField stress candidate (given relative
    to F_h), admissible when the residual is at most 1e-10.

    Checks div(tau) = -f_h element-wise and tau n = g_h on Neumann sides;
    interior normal-flux continuity is structural for RTField storage.
    """
    res = float(_stress_residuals(mesh, _rt_block([tau]), f_h, g_h)[0])
    return res <= 1e-10, res


def _stress_residuals(mesh, flux, f_h, g_h):
    """Per-candidate residual of `check_stress_admissible`, from a `_rt_block`."""
    fv = _p0_values(f_h, mesh, (mesh.num_elements, 2))
    div = (rt_divergence_operator(mesh) @ flux).reshape(mesh.num_elements, -1, 2)
    res = np.abs(div + fv[:, None]).max(axis=(0, 2), initial=0.0)
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    if len(neumann):
        tn = flux[neumann].reshape(len(neumann), -1, 2)
        if g_h is not None:
            tn = tn - np.asarray(g_h)[neumann][:, None]
        res = np.maximum(res, np.abs(tn).max(axis=(0, 2)))
    return res


# -- energies, gaps, strong convexity measures ------------------------------------
#
# The candidates of a call are k columns.  Velocities go through the
# broken-gradient operator and stresses through the RT cell-average
# operator as one block each; a tensor block is (k, ne, 2, 2).


def _cr_block(vs):
    """(2 ns, k) block of the DOF vectors of k CR fields."""
    return np.stack([v.dofs() for v in vs], axis=1)


def _rt_block(taus):
    """(ns, 2 k) block of the row fluxes of k RT fields: column 2 j + i is
    row i of taus[j]."""
    return np.stack([t.flux for t in taus]).reshape(2 * len(taus), -1).T


def _broken_gradients(mesh, dofs):
    """Broken gradients of a (2 ns, k) DOF block as a (k, ne, 2, 2) block."""
    grads = cr_gradient_operator(mesh) @ dofs  # (4 ne, k)
    return np.ascontiguousarray(grads.T).reshape(-1, mesh.num_elements, 2, 2)


def _dev_averages(mesh, flux, big_f_h=None):
    """dev Pi_h(tau + F_h) of a `_rt_block` of k RT fields: (k, ne, 2, 2)."""
    avg = rt_average_operator(mesh) @ flux  # (2 ne, 2 k): rows (n, d), columns (j, i)
    avg = np.ascontiguousarray(
        avg.T.reshape(-1, 2, mesh.num_elements, 2).transpose(0, 2, 1, 3)
    )
    if big_f_h is not None:
        avg += _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))
    return dev(avg, in_place=True)


def _dev_average(tau, big_f_h=None):
    """dev Pi_h(tau + F_h) of one RT field: (ne, 2, 2)."""
    return _dev_averages(tau.mesh, tau.flux.T, big_f_h)[0]


def _inner(mesh, a, b):
    """L2 products (a_j, b_j) of the columns of (k, ne, 2, 2) blocks (b may
    be one (ne, 2, 2) field), each summed pairwise over the elements."""
    per_element = np.einsum("...nij,...nij->...n", a, b, order="C")
    return (per_element * mesh.areas).sum(axis=-1)


def _squared_norms(mesh, block):
    """Squared L2 norms ||.||^2 of the k columns of a (k, ne, 2, 2) block."""
    return _inner(mesh, block, block)


def energies_stokes(vs, taus, system):
    """Discrete primal and dual energies of the candidate pairs (vs[j], taus[j]).

    The taus are given relative to the tensor load F_h (the identity
    mapping when there is none).  Returns a dict of (k,) arrays I_h(v) and
    D_h(tau); an inadmissible velocity yields +inf in its column of the
    primal energy, an inadmissible stress -inf in its column of the dual; a
    candidate is admissible when its residual is at most 1e-8.
    """
    mesh = system.mesh
    nu = system.nu
    grad_hat = broken_gradient(system.u_hat).values
    dofs = _cr_block(vs)
    grads = _broken_gradients(mesh, dofs)
    ok_v = _velocity_residuals(mesh, dofs, grads) <= 1e-8
    grads += grad_hat
    primal = 0.5 * nu * _squared_norms(mesh, grads) - system.load_vector @ dofs
    del dofs, grads
    flux = _rt_block(taus)
    ok_t = _stress_residuals(mesh, flux, system.f_h, system.g_h) <= 1e-8
    devavg = _dev_averages(mesh, flux, system.big_f_h)
    del flux
    dual = -_squared_norms(mesh, devavg) / (2.0 * nu) + _inner(mesh, devavg, grad_hat)
    return {
        "primal": np.where(ok_v, primal, np.inf),
        "dual": np.where(ok_t, dual, -np.inf),
    }


def gap_indicator_stokes_discrete(v_h, tau_h, u_hat, nu, mesh, big_f_h=None):
    """Per-element discrete gap (nu/2)||grad_h(v+u_hat) - dev(Pi_h tau)/nu||_T^2."""
    grads = broken_gradient(v_h + u_hat).values
    diff = grads - _dev_average(tau_h, big_f_h) / nu
    per_element = 0.5 * nu * mesh.areas * np.einsum("nij,nij->n", diff, diff)
    return per_element


def strong_convexity_stokes(vs, taus, solution):
    """Discrete strong convexity measures of the candidate pairs (vs[j], taus[j]).

    rho_primal^2 = (nu/2) ||grad_h v - grad_h u_h||^2 and
    rho_dual^2 = 1/(2 nu) ||dev Pi_h tau - dev Pi_h T_h||^2, with (u_h, T_h)
    the discrete solution pair; returns a dict of (k,) arrays.
    """
    nu = solution.nu
    mesh = solution.mesh
    dofs = _cr_block(vs) - solution.u_h.dofs()[:, None]
    rho_primal = 0.5 * nu * _squared_norms(mesh, _broken_gradients(mesh, dofs))
    del dofs
    ddev = _dev_averages(mesh, _rt_block(taus)) - _dev_average(solution.t_h)
    rho_dual = _squared_norms(mesh, ddev) / (2.0 * nu)
    return {"primal": rho_primal, "dual": rho_dual}


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
        devavg = _dev_average(self.t_h, self.system.big_f_h)
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


def gap_indicator_stokes(v, tau_h, grad_u, nu, mesh, big_f_h=None):
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
    w = triangle_rule(VOLUME_DEGREE)[1]
    # diff = dev(tau) / nu - grad v - grad u_hat, the negated integrand,
    # formed in place to keep the peak memory down
    diff = tau_h.evaluate(physical_points(mesh, VOLUME_DEGREE))
    if big_f_h is not None:
        diff += _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))[:, None]
    dev(diff, in_place=True)
    diff /= nu
    diff -= v.gradient().values[:, None, :, :]
    if grad_u is not None:
        diff -= rule_values(grad_u, mesh, VOLUME_DEGREE)
    vals = np.einsum("q,nqij,nqij->n", w, diff, diff)
    return 0.5 * nu * mesh.areas * vals


def gap_indicator_elasticity(v, sigma, material, mesh, big_f_h=None):
    """Per-element indicator (1/2) ||C^(1/2)(eps(v) - C^-1 sigma)||_T^2.

    v is the conforming post-processed total displacement (Dirichlet lift
    included), sigma is relative to the tensor load F_h when one is present.
    eps(v) and F_h are constant and sigma is affine on each element, so the
    integrand is quadratic there, and the edge-midpoint rule (the three side
    midpoints, weights 1/3) integrates it exactly (Strang & Fix, 1973).
    """
    sv = sigma.evaluate(mesh.geometry()["side_midpoint"][mesh.element_sides])
    if big_f_h is not None:
        sv += _p0_values(big_f_h, mesh, (mesh.num_elements, 2, 2))[:, None]
    diff = sym(v.gradient().values)[:, None] - material.inverse(sv)
    vals = material.energy_product(diff, diff)
    return 0.5 * mesh.areas * (vals.sum(axis=1) / 3.0)


def oscillation_indicator(f, f_h, big_f, big_f_h, mesh, degree=VOLUME_DEGREE):
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


def _uniform_draws(seeds, size):
    """One Uniform[-1,1] draw of the given size per default_rng(seed), on axis 1."""
    return np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, size) for s in seeds], axis=1)


def random_divfree_cr(mesh, seeds, scales):
    """Random fields in the discretely divergence-free homogeneous CR space.

    Returns one CRField per seed, with no solve: `divfree_cr_operator`
    applied to nv potentials phi and then ns tangential parts psi, drawn
    Uniform[-1,1] from default_rng(seeds[k]), phi zero at every vertex of a
    Dirichlet side and psi zero on the Dirichlet sides.  The field of
    seeds[k] is normalised to broken-H1 seminorm scales[k] (a scalar scales
    every field alike).
    """
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (len(seeds),))
    nv = mesh.num_vertices
    draws = _uniform_draws(seeds, nv + mesh.num_sides)
    dirichlet = mesh.sides_with_label(_mesh.DIRICHLET)
    draws[mesh.side_vertices[dirichlet].ravel()] = 0.0
    draws[nv + dirichlet] = 0.0
    dofs = divfree_cr_operator(mesh) @ draws  # (2 ns, k)
    del draws
    nrm = np.sqrt(_squared_norms(mesh, _broken_gradients(mesh, dofs)))
    if np.any(nrm == 0.0):
        raise AdmissibilityError("random divergence-free sample degenerated to zero")
    dofs *= scales / nrm
    return [CRField(mesh, dofs[:, k].reshape(2, -1).T) for k in range(len(seeds))]


def random_divfree_rt(mesh, seeds, scales):
    """Random RT tensors with exactly zero divergence and zero Neumann trace.

    Returns one RTField per seed.  Row i of the field of seeds[k] has the
    fluxes C phi_i, C the `curl_operator` and phi a Uniform[-1,1] conforming
    P1 potential (nv, 2) drawn from default_rng(seeds[k]) and zero at every
    vertex on the closure of the Neumann boundary: the normal traces of
    rot phi, so the divergence vanishes identically and the Neumann traces
    are zero by construction.  All seeds take one sparse product; the field
    of seeds[k] is normalised to ||dev Pi_h .|| = scales[k] (a scalar
    scales every field alike).
    """
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (len(seeds),))
    nv = mesh.num_vertices
    phi = _uniform_draws(seeds, (nv, 2)).reshape(nv, -1)  # column 2 k + i: row i of seeds[k]
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    phi[mesh.side_vertices[neumann].ravel()] = 0.0
    flux = curl_operator(mesh) @ phi  # (ns, 2 k), the layout of _rt_block
    del phi
    nrm = np.sqrt(_squared_norms(mesh, _dev_averages(mesh, flux)))
    if np.any(nrm < 1e-14):
        raise AdmissibilityError("random stress perturbation has no deviatoric part")
    flux *= np.repeat(scales / nrm, 2)
    return [RTField(mesh, flux[:, 2 * k: 2 * k + 2].T) for k in range(len(seeds))]
