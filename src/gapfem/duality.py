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
from .quadrature import VOLUME_DEGREE, element_blocks, rule_values, triangle_rule
from .spaces import RTField, curl_operator, dev, divfree_cr_operator, sym


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


def _equilibrate(system, p0_part, terms, cause):
    """RT field p0_part - F_h - (1/d) f_h otimes (id - Pi_h id), d = 2, with
    the loads of the system that was solved.

    The one Marini equilibration.  Each element gives its three sides the
    fluxes of its rows, and each side flux is their mean over the side's
    adjacent elements, one sparse product with weights 1/count.  The largest
    difference between the two views of an interior side, 2 max |table -
    mean|, is the interior jump: AdmissibilityError, naming `cause`, is
    raised if it exceeds JUMP_TOL times the size of the terms summed into
    the table, and it is recorded, as an absolute value, as
    `reconstruction_jump` on the returned field, and the size as
    `term_size`.  That size is the largest slope term plus the larger of the
    largest entry of p0_part - F_h and `terms`, the caller's size of the
    terms of p0_part before they cancel.
    """
    mesh = system.mesh
    ne, ns = mesh.num_elements, mesh.num_sides
    if system.big_f_h is not None:
        p0_part = p0_part - system.big_f_h
    slope = -0.5 * _p0_values(system.f_h, (ne, 2))  # row slopes of -(1/d) f (x - x_T)
    # row i's flux through local side j: p0_part_i . n + slope_i (m_S - x_T) . n
    geo = mesh.geometry()
    nrm = geo["side_normal"][mesh.element_sides]  # (ne, 3, 2)
    offsets = geo["side_midpoint"][mesh.element_sides] - geo["centroids"][:, None, :]
    reach = np.einsum("njd,njd->nj", offsets, nrm)
    table = nrm @ p0_part.transpose(0, 2, 1)
    table += slope[:, None, :] * reach[..., None]
    size = max(np.abs(p0_part).max(), terms) + np.abs(slope).max() * np.abs(reach).max()
    sides = mesh.element_sides.ravel()
    weight = 1.0 / (1.0 + (mesh.side_elements[sides, 1] >= 0))
    mean = sparse.csr_matrix((weight, (sides, np.arange(3 * ne))), shape=(ns, 3 * ne))
    flux = mean @ table.reshape(3 * ne, -1)
    jump = 2.0 * np.abs(table - flux[mesh.element_sides]).max(initial=0.0)
    if jump > JUMP_TOL * size:
        raise AdmissibilityError(
            f"stress reconstruction has interior flux jumps: {cause} "
            f"(interior jumps {jump:.3e}, terms up to {size:.3e})"
        )
    field = RTField(mesh, np.ascontiguousarray(flux.T))
    field.reconstruction_jump, field.term_size = jump, size
    return field


def marini_stokes(system, grad_h, p_h):
    """Stress reconstruction from the discrete solution of a `StokesSystem`.

    T_h = nu grad_h(u_h + u_hat) - p_h I - (1/d) f_h otimes (id - Pi_h id),
    with grad_h the (ne, 2, 2) broken gradient of u_h + u_hat.

    With a tensor load part F_h the returned field is the Raviart-Thomas
    part T_h - F_h (the full stress is the sum of the two); without one it
    is the stress itself.  An interior-flux discrepancy above JUMP_TOL
    times the largest term of the fluxes signals that (u_h, p_h) does not
    solve the discrete system.  No size before cancellation is passed: the
    entries of nu grad_h - p_h I measure their own roundoff, and the check
    held for nu from 1e-8 to 1e8.
    """
    p0_part = system.nu * grad_h
    p0_part[:, 0, 0] -= p_h
    p0_part[:, 1, 1] -= p_h
    return _equilibrate(system, p0_part, 0.0,
                        "the input pair does not solve the discrete system")


def marini_elasticity(system, grad_h, grad_r):
    """Equilibrated stress from the discrete solution of an `ElasticitySystem`.

    sigma*_h = C eps_h(u_h + u_hat) + grad_h r_h - (1/d) f_h otimes (id - Pi_h id),
    with r_h the lifting of the jump-stabilisation residual; grad_h and
    grad_r are the (ne, 2, 2) broken gradients of u_h + u_hat and r_h.  The row-wise
    correction (rather than its symmetrised variant) is used so that every
    row is a Raviart-Thomas field with single-valued normal fluxes.  With a
    tensor load part F_h the returned field is sigma*_h - F_h, as for the
    Stokes reconstruction.

    The interior jumps are measured against the terms before lambda tr eps
    cancels, 2 mu |eps_h| + lambda (|eps_11| + |eps_22|) + |grad_h r_h|,
    whose roundoff they are, so the check holds at any lambda.
    """
    mat, eps = system.material, sym(grad_h)
    p0_part = mat.apply(eps) + grad_r
    terms = (2.0 * mat.mu * np.abs(eps).max()
             + mat.lam * (np.abs(eps[:, 0, 0]) + np.abs(eps[:, 1, 1])).max()
             + np.abs(grad_r).max())
    return _equilibrate(system, p0_part, terms, "inconsistent lifting or solution")


def _p0_values(f, shape):
    """The element-wise constants f, zeros of the given shape for None."""
    return np.zeros(shape) if f is None else f


# -- admissibility ---------------------------------------------------------------


# largest residual an admissible candidate may show, relative to the terms its
# constraint sums: roundoff grows with the data, so the bound is scale-free
ADMISSIBLE_TOL = 1e-8


def _relative(res, size):
    """res / size per column, 0 where res is 0 and inf where only size is."""
    return np.divide(res, size, out=np.where(res > 0.0, np.inf, 0.0), where=size > 0.0)


def _velocity_residuals(ops, dofs, div, hat):
    """Per-column relative residual of a (2 ns, k) DOF block v, given max |div_h v|:
    the larger of max |div_h v| over the largest element sum of the terms
    |div_h|(|v + u_hat|) (u_h's divergence is the roundoff of
    B u_h = -B u_hat), and of v's largest Dirichlet value over max |v + u_hat|.
    hat holds u_hat's DOFs; ops is the mesh's `MeshOperators`."""
    mesh = ops.mesh
    dirichlet = mesh.side_labels == _mesh.DIRICHLET
    bc = np.abs(dofs.reshape(2, mesh.num_sides, -1)[:, dirichlet]).max(axis=1, initial=0.0)
    total = dofs + hat[:, None]
    np.abs(total, out=total)
    terms = (ops.abs_div_h @ total).max(axis=0)
    return np.maximum(_relative(div, terms), _relative(bc.max(axis=0), total.max(axis=0)))


def _largest(block):
    """Largest |entry| of each candidate of an (m, 2 k) or (m, k, 2) stress block."""
    return np.abs(block).max(axis=0).reshape(-1, 2).max(axis=1)


def _stress_residuals(ops, flux, f_h, g_h):
    """Per-candidate relative residual of an (ns, 2 k) flux block: the larger of
    max |div tau + f_h| over the largest |D| |flux| + |f_h|, D the
    `rt_divergence_operator`, and of max |tau n - g_h| on the Neumann sides
    over max |flux| + max |g_h| (a zero datum is met to the fluxes' roundoff).
    RTField storage makes the interior normal fluxes continuous.  ops is the
    mesh's `MeshOperators`."""
    mesh = ops.mesh
    ne = mesh.num_elements
    fv = _p0_values(f_h, (ne, 2))[:, None]
    div = _largest((ops.div @ flux).reshape(ne, -1, 2) + fv)
    res = _relative(div, _largest((ops.abs_div @ np.abs(flux)).reshape(ne, -1, 2) + abs(fv)))
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    if len(neumann):
        gn = 0.0 if g_h is None else np.asarray(g_h)[neumann][:, None]
        trace = _largest(flux[neumann].reshape(len(neumann), -1, 2) - gn)
        res = np.maximum(res, _relative(trace, _largest(flux) + np.abs(gn).max()))
    return res


# -- energies, gaps, strong convexity measures ------------------------------------
#
# The candidates of a call are k columns: the velocities a (2 ns, k) block of
# CR DOF vectors, the stresses an (ns, 2 k) block of RT fluxes, column 2 j + i
# row i of candidate j.  Velocities go through the broken-gradient operator
# and stresses through the RT cell-average operator as one block each, read
# from the solved system's `ops`; a tensor block is (k, ne, 2, 2).  The
# functions read their blocks without changing them.


def _broken_gradients(ops, dofs):
    """Broken gradients of a (2 ns, k) DOF block as a (k, ne, 2, 2) block."""
    grads = ops.grad @ dofs  # (4 ne, k)
    # the contiguous copy fixes the summation order of the element sums
    return np.ascontiguousarray(grads.T).reshape(-1, ops.mesh.num_elements, 2, 2)


def _dev_averages(ops, flux, big_f_h=None):
    """dev Pi_h(tau + F_h) of an (ns, 2 k) flux block of k RT fields: (k, ne, 2, 2)."""
    avg = ops.avg @ flux  # (2 ne, 2 k): rows (n, d), columns (j, i)
    avg = np.ascontiguousarray(  # as in _broken_gradients, fixes the summation order
        avg.T.reshape(-1, 2, ops.mesh.num_elements, 2).transpose(0, 2, 1, 3)
    )
    if big_f_h is not None:
        avg += big_f_h
    return dev(avg, in_place=True)


def _dev_average(ops, tau, big_f_h=None):
    """dev Pi_h(tau + F_h) of one RT field: (ne, 2, 2)."""
    return _dev_averages(ops, tau.flux.T, big_f_h)[0]


def _inner(mesh, a, b):
    """L2 products (a_j, b_j) of the columns of (k, ne, 2, 2) blocks (b may
    be one (ne, 2, 2) field), each summed pairwise over the elements."""
    per_element = np.einsum("...nij,...nij->...n", a, b, order="C")
    return (per_element * mesh.areas).sum(axis=-1)


def _squared_norms(mesh, block):
    """Squared L2 norms ||.||^2 of the k columns of a (k, ne, 2, 2) block."""
    return _inner(mesh, block, block)


def energies_stokes(dofs, flux, system):
    """Discrete primal and dual energies of the candidate pairs of a (2 ns, k)
    DOF block and an (ns, 2 k) flux block.

    The stresses are given relative to the tensor load F_h (the identity
    mapping when there is none).  Returns a dict of (k,) arrays I_h(v) and
    D_h(tau); an inadmissible velocity yields +inf in its column of the
    primal energy, an inadmissible stress -inf in its column of the dual.  A
    candidate is admissible when its residuals, relative to the terms its
    constraints sum, are at most ADMISSIBLE_TOL, at any scale of the data.
    """
    mesh, nu, ops = system.mesh, system.nu, system.ops
    hat = system.u_hat.dofs()
    grad_hat = (ops.grad @ hat).reshape(-1, 2, 2)
    grads = _broken_gradients(ops, dofs)
    div = np.abs(grads[..., 0, 0] + grads[..., 1, 1]).max(axis=1)
    grads += grad_hat
    primal = 0.5 * nu * _squared_norms(mesh, grads) - system.load_vector @ dofs
    del grads
    ok_v = _velocity_residuals(ops, dofs, div, hat) <= ADMISSIBLE_TOL
    ok_t = _stress_residuals(ops, flux, system.f_h, system.g_h) <= ADMISSIBLE_TOL
    devavg = _dev_averages(ops, flux, system.big_f_h)
    dual = -_squared_norms(mesh, devavg) / (2.0 * nu) + _inner(mesh, devavg, grad_hat)
    return {
        "primal": np.where(ok_v, primal, np.inf),
        "dual": np.where(ok_t, dual, -np.inf),
    }


def gap_indicator_stokes_discrete(system, dofs, flux):
    """Per-element discrete gaps (nu/2)||grad_h(v+u_hat) - dev(Pi_h tau)/nu||_T^2
    of the candidates of a (2 ns, k) DOF block and an (ns, 2 k) flux block,
    as a (k, ne) array."""
    nu, ops = system.nu, system.ops
    diff = _broken_gradients(ops, dofs + system.u_hat.dofs()[:, None])
    diff -= _dev_averages(ops, flux, system.big_f_h) / nu
    return 0.5 * nu * system.mesh.areas * np.einsum("knij,knij->kn", diff, diff)


def strong_convexity_stokes(dofs, flux, system, u_h, t_h):
    """Discrete strong convexity measures of the candidate pairs of a
    (2 ns, k) DOF block and an (ns, 2 k) flux block.

    rho_primal^2 = (nu/2) ||grad_h v - grad_h u_h||^2 and
    rho_dual^2 = 1/(2 nu) ||dev Pi_h tau - dev Pi_h T_h||^2, with (u_h, t_h)
    the discrete solution pair of system; returns a dict of (k,) arrays.
    """
    nu, mesh, ops = system.nu, system.mesh, system.ops
    diff = dofs - u_h.dofs()[:, None]
    rho_primal = 0.5 * nu * _squared_norms(mesh, _broken_gradients(ops, diff))
    del diff
    ddev = _dev_averages(ops, flux) - _dev_average(ops, t_h)
    rho_dual = _squared_norms(mesh, ddev) / (2.0 * nu)
    return {"primal": rho_primal, "dual": rho_dual}


class StokesSolution:
    """Bundle of the discrete Stokes solution and its reconstruction.

    grad_h is the (ne, 2, 2) broken gradient of u_h + u_hat, formed once
    after the solve for the reconstruction, the exact errors and the
    optimality residual.  t_h stores the Raviart-Thomas part of the stress
    relative to the tensor load F_h (equal to the stress itself when no
    tensor load is present).  mesh, nu and u_hat are the solved `system`'s;
    the load data f_h, F_h and g_h and the operator set live on it.
    oscillation is the per-element data oscillation of `project_data`.
    """

    def __init__(self, system, u_h, p_h, grad_h, t_h, oscillation, solve_report):
        self.system = system
        self.mesh, self.nu, self.u_hat = system.mesh, system.nu, system.u_hat
        self.u_h = u_h
        self.p_h = p_h
        self.grad_h = grad_h
        self.t_h = t_h
        self.oscillation = oscillation
        self.solve_report = solve_report

    def optimality_residual(self):
        """Max |dev Pi_h T_h - nu grad_h(u_h + u_hat)| over elements, relative
        to the size of the terms summed into T_h's fluxes (`term_size`)."""
        devavg = _dev_average(self.system.ops, self.t_h, self.system.big_f_h)
        return float(_relative(np.abs(devavg - self.nu * self.grad_h).max(), self.t_h.term_size))


class ElasticitySolution:
    """Bundle of the discrete elasticity solution and its reconstruction.

    grad_h and grad_r are the (ne, 2, 2) broken gradients of u_h + u_hat
    and of r_h, formed once after the solve.  mesh, material and u_hat are
    the solved `system`'s; the load data f_h, F_h and g_h and the operator
    set live on it.  oscillation is the per-element data oscillation of
    `project_data`.
    """

    def __init__(self, system, u_h, r_h, grad_h, grad_r, sigma_star, oscillation, solve_report):
        self.system = system
        self.mesh, self.material, self.u_hat = system.mesh, system.material, system.u_hat
        self.u_h = u_h
        self.r_h = r_h
        self.grad_h = grad_h
        self.grad_r = grad_r
        self.sigma_star = sigma_star
        self.oscillation = oscillation
        self.solve_report = solve_report

    def optimality_residual(self):
        """Max |Pi_h sigma* - C eps_h(u_h+u_hat) - grad_h r_h| over elements,
        relative to the size of the terms summed into sigma*'s fluxes before
        lambda tr eps cancels (`term_size`)."""
        avg = self.sigma_star.cell_average(self.system.ops)
        target = self.material.apply(sym(self.grad_h)) + self.grad_r
        return float(_relative(np.abs(avg - target).max(), self.sigma_star.term_size))


# -- continuous-level indicators ---------------------------------------------------


def gap_indicator_stokes(system, v, tau_h, grad_u):
    """Per-element indicator (nu/2) ||grad v + grad u_hat - dev(tau)/nu||_T^2.

    Parameters
    ----------
    system : StokesSystem
        The solved system: its mesh, nu, tensor load F_h and operator set.
    v : P1ConformingField
        Conforming post-processed velocity: its homogeneous part, or the
        total field when grad_u is None.
    tau_h : RTField
        Stress relative to the tensor load F_h (the stress itself without one).
    grad_u : callable or None
        Gradient of the Dirichlet lift u_hat (`ProblemSpec.grad_u`), cached
        on the mesh by `rule_values`; None means zero.

    The integrand is formed one `element_blocks` block at a time
    (`gap_block_stokes`).
    """
    mesh = system.mesh
    grad_v = v.gradient()
    grad_hat = None if grad_u is None else rule_values(grad_u, mesh, VOLUME_DEGREE)
    out = np.empty(mesh.num_elements)
    for block, values in tau_h.block_values(element_blocks(mesh, VOLUME_DEGREE), system.ops):
        out[block.rows] = gap_block_stokes(system, grad_v, grad_hat, block.rows, values)
    return out


def gap_block_stokes(system, grad_v, grad_hat, rows, diff):
    """The `gap_indicator_stokes` values of the elements `rows` of one
    `ElementBlock`, from tau_h at its points (`RTField.block_values`) in
    diff, which is overwritten; grad_v (ne, 2, 2) and grad_hat
    (ne, nq, 2, 2), None for zero, are the whole mesh's."""
    nu = system.nu
    # diff becomes dev(tau) / nu - grad v - grad u_hat, the negated integrand
    if system.big_f_h is not None:
        diff += system.big_f_h[rows, None]
    dev(diff, in_place=True)
    diff /= nu
    diff -= grad_v[rows, None]
    if grad_hat is not None:
        diff -= grad_hat[rows]
    vals = np.einsum("q,nqij,nqij->n", triangle_rule(VOLUME_DEGREE)[1], diff, diff)
    return 0.5 * nu * system.mesh.areas[rows] * vals


def gap_indicator_elasticity(system, v, sigma):
    """Per-element indicator (1/2) ||C^(1/2)(eps(v) - C^-1 sigma)||_T^2.

    v is the conforming post-processed total displacement (Dirichlet lift
    included).  The solved `system` gives the mesh, C, the tensor load F_h
    and the operator set; sigma is relative to F_h when one is present.
    eps(v) and F_h are constant and sigma is affine on each element, so the
    integrand is quadratic there, and the edge-midpoint rule (the three side
    midpoints, weights 1/3) integrates it exactly (Strang & Fix, 1973).
    """
    mesh, material = system.mesh, system.material
    sv = sigma.evaluate(mesh.geometry()["side_midpoint"][mesh.element_sides], system.ops)
    if system.big_f_h is not None:
        sv += system.big_f_h[:, None]
    diff = sym(v.gradient())[:, None] - material.inverse(sv)
    vals = material.energy_product(diff, diff)
    return 0.5 * mesh.areas * (vals.sum(axis=1) / 3.0)


def oscillation_indicator(f, f_h, big_f, big_f_h, block):
    """Per-element data oscillation (h_T^2/pi^2)||f - f_h||_T^2 + ||F - F_h||_T^2
    on the elements of one `ElementBlock`, integrated with its rule.

    f and F (None: absent) are their values at the block's points; f_h and
    F_h (None: zeros) have one row per element of the block's mesh.
    """
    tri, rows, pts, degree = block
    ne = tri.num_elements
    for name, c in (("f_h", f_h), ("big_f_h", big_f_h)):
        if c is not None and len(c) != ne:
            raise ValueError(f"{name} must have one row per element, not {len(c)}")
    w = triangle_rule(degree)[1]
    areas = tri.areas[rows]
    out = np.zeros(len(pts))
    if f is not None:
        diff = f - _p0_values(f_h, (ne, 2))[rows, None, :]
        out += (
            (tri.geometry()["h_t"][rows] ** 2 / np.pi**2)
            * areas
            * np.einsum("q,nqi,nqi->n", w, diff, diff)
        )
    if big_f is not None:
        diff = big_f - _p0_values(big_f_h, (ne, 2, 2))[rows, None, :, :]
        out += areas * np.einsum("q,nqij,nqij->n", w, diff, diff)
    return out


# -- random admissible fields ------------------------------------------------------


def _uniform_draws(seeds, size):
    """One Uniform[-1,1] draw of the given size per default_rng(seed), on axis 1."""
    return np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, size) for s in seeds], axis=1)


def random_divfree_cr(ops, seeds, scales):
    """Random fields in the discretely divergence-free homogeneous CR space.

    Returns one field per seed as a (2 ns, k) DOF block, column k the field
    of seeds[k], with no solve: `divfree_cr_operator` applied to nv
    potentials phi and then ns tangential parts psi, drawn Uniform[-1,1]
    from default_rng(seeds[k]), phi zero at every vertex of a Dirichlet side
    and psi zero on the Dirichlet sides.  The field of seeds[k] is
    normalised to broken-H1 seminorm scales[k] (a scalar scales every field
    alike); ops is the mesh's `MeshOperators`.
    """
    mesh = ops.mesh
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (len(seeds),))
    nv = mesh.num_vertices
    draws = _uniform_draws(seeds, nv + mesh.num_sides)
    dirichlet = mesh.sides_with_label(_mesh.DIRICHLET)
    draws[mesh.side_vertices[dirichlet].ravel()] = 0.0
    draws[nv + dirichlet] = 0.0
    dofs = divfree_cr_operator(mesh) @ draws  # (2 ns, k)
    del draws
    nrm = np.sqrt(_squared_norms(mesh, _broken_gradients(ops, dofs)))
    if np.any(nrm == 0.0):
        raise AdmissibilityError("random divergence-free sample degenerated to zero")
    dofs *= scales / nrm
    return dofs


def random_divfree_rt(ops, seeds, scales):
    """Random RT tensors with exactly zero divergence and zero Neumann trace.

    Returns one field per seed as an (ns, 2 k) flux block, columns 2 k and
    2 k + 1 the rows of the field of seeds[k].  Row i of that field has the
    fluxes C phi_i, C the `curl_operator` and phi a Uniform[-1,1] conforming
    P1 potential (nv, 2) drawn from default_rng(seeds[k]) and zero at every
    vertex on the closure of the Neumann boundary: the normal traces of
    rot phi, so the divergence vanishes identically and the Neumann traces
    are zero by construction.  All seeds take one sparse product; the field
    of seeds[k] is normalised to ||dev Pi_h .|| = scales[k] (a scalar
    scales every field alike); ops is the mesh's `MeshOperators`.
    """
    mesh = ops.mesh
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (len(seeds),))
    nv = mesh.num_vertices
    phi = _uniform_draws(seeds, (nv, 2)).reshape(nv, -1)  # column 2 k + i: row i of seeds[k]
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    phi[mesh.side_vertices[neumann].ravel()] = 0.0
    flux = curl_operator(mesh) @ phi  # (ns, 2 k)
    del phi
    nrm = np.sqrt(_squared_norms(mesh, _dev_averages(ops, flux)))
    if np.any(nrm < 1e-14):
        raise AdmissibilityError("random stress perturbation has no deviatoric part")
    flux *= np.repeat(scales / nrm, 2)
    return flux
