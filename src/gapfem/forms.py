"""Sparse assembly and direct solves for the Stokes and elasticity systems.

Crouzeix-Raviart vector fields use the DOF layout of `CRField.dofs`.
Dirichlet sides are eliminated by restriction to free DOFs; the lift enters
the right-hand side.

The load functional is
    l(v) = (f_h, Pi_h v) + (F_h, grad_h v) + sum_{S Neumann} (g_S, pi_h v)_S
with element-wise constant f_h, F_h and side-wise constant tractions g_S.
"""

import weakref

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from . import mesh as _mesh
from .spaces import (
    CRField,
    P0Field,
    _trace_coefficients,
    broken_divergence,
    cr_basis_gradients,
    jump_eval,
)


class AssemblyError(Exception):
    pass


class SingularSystemError(Exception):
    pass


class LinearSolveReport:
    """Outcome of a residual-checked sparse solve."""

    def __init__(self, residual_norm, factorization_kind):
        self.residual_norm = residual_norm
        self.factorization_kind = factorization_kind

    def __repr__(self):
        return (
            f"LinearSolveReport(residual_norm={self.residual_norm:.3e}, "
            f"kind={self.factorization_kind!r})"
        )


def _inf_norm(matrix):
    """Row-sum norm ||A||_inf of a sparse matrix (1 for an empty one)."""
    return np.abs(matrix).sum(axis=1).max() if matrix.nnz else 1.0


def _column_norms(a):
    """2-norm of a vector, or of each column of an (n, k) block, formed
    without a temporary the size of a."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


# Normwise backward error every linear solve must reach.
SOLVE_TOL = 1e-10


def _checked(matrix, norm, rhs, x, kind):
    """LinearSolveReport of a solution x of matrix @ x = rhs.

    The report holds the normwise backward error
    ||b - A x|| / (||A||_inf ||x|| + ||b||), `norm` being ||A||_inf; when
    rhs holds several columns, it is the largest backward error of a
    column, so one bad column cannot hide behind good ones.  A zero
    solution of a zero right-hand side has backward error 0 (the 0/0 case).
    SingularSystemError is raised if x is not finite or its backward error
    exceeds SOLVE_TOL.
    """
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    denom = norm * _column_norms(x) + _column_norms(rhs)
    residual = matrix @ x
    np.subtract(rhs, residual, out=residual)
    res = np.max(
        _column_norms(residual) / np.where(denom > 0, denom, 1.0), initial=0.0
    )
    if res > SOLVE_TOL:
        raise SingularSystemError(
            f"relative residual {res:.3e} exceeds {SOLVE_TOL:.1e}"
        )
    return LinearSolveReport(res, kind)


# SuperLU options of every factorisation; each factored matrix is SPD, so
# the pivots stay on the diagonal and the ordering is symmetric: minimum
# degree on the pattern of A + A^T (COLAMD orders A^T A and gave twice the
# fill on Cook elasticity).  relax=1 turns off relaxed supernodes: on one
# Xeon core, SuperLU's default relaxation made the numeric phase on that
# ordering of Cook's 23,136-unknown elasticity matrix take 9.6 s, relax=1
# 0.34 s, at the same fill of 4.55 M (COLAMD: 0.96 s, 8.41 M).
SPD_FACTOR_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "relax": 1,
    "options": {"SymmetricMode": True},
}


def spd_factor(matrix):
    """SuperLU factor of a sparse SPD matrix with `SPD_FACTOR_OPTIONS`.

    SingularSystemError is raised if SuperLU finds the factor singular.
    """
    try:
        return sla.splu(matrix.tocsc(), **SPD_FACTOR_OPTIONS)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def solve_sparse(matrix, rhs):
    """Solve an SPD system by `spd_factor`, checked by `_checked`.

    matrix must be symmetric positive definite; on other matrices the
    diagonal pivots may be unstable, which the check then reports.  rhs is
    a vector or an (n, k) block of right-hand sides.  Returns (solution,
    LinearSolveReport); the factor is discarded.  SingularSystemError is
    raised if the factorisation or the check fails.
    """
    x = spd_factor(matrix).solve(rhs)
    return x, _checked(matrix, _inf_norm(matrix), rhs, x, "superlu")


# -- scalar building blocks ----------------------------------------------------


def cr_stiffness(mesh, weights=None):
    """Scalar CR stiffness sum_T w_T (grad theta_i, grad theta_j)_T as CSR."""
    dtheta = cr_basis_gradients(mesh)
    w = mesh.areas if weights is None else mesh.areas * weights
    local = np.einsum("n,nid,njd->nij", w, dtheta, dtheta)
    es = mesh.element_sides
    rows = np.repeat(es, 3, axis=1).ravel()
    cols = np.tile(es, (1, 3)).ravel()
    ns = mesh.num_sides
    return sparse.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(ns, ns)
    ).tocsr()


def cr_divergence_matrix(mesh):
    """Map CR vector DOFs to element-wise divergence: (ne, 2 ns) CSR."""
    dtheta = cr_basis_gradients(mesh)
    es = mesh.element_sides
    ne, ns = mesh.num_elements, mesh.num_sides
    rows = np.repeat(np.arange(ne), 3)
    data_x = dtheta[:, :, 0].ravel()
    data_y = dtheta[:, :, 1].ravel()
    cols_x = es.ravel()
    cols_y = es.ravel() + ns
    return sparse.coo_matrix(
        (
            np.concatenate([data_x, data_y]),
            (np.concatenate([rows, rows]), np.concatenate([cols_x, cols_y])),
        ),
        shape=(ne, 2 * ns),
    ).tocsr()


# exact integrals over [0,1] of products of the endpoint hat functions;
# equals the 2-point Gauss value (the rule is exact for quadratics)
_ENDPOINT_MASS = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])


def jump_penalty_matrix(mesh, weight_per_side):
    """Scalar jump form sum_S w_S int_S [u][v] ds as CSR (ns x ns).

    weight_per_side is an (ns,) array; sides with weight zero are skipped.
    Side integrals of products of P1 traces are exact (2-point Gauss).
    """
    geo = mesh.geometry()
    ns = mesh.num_sides
    w_eff = weight_per_side * geo["side_length"]
    blocks_r, blocks_c, blocks_v = [], [], []
    for interior in (True, False):
        if interior:
            sel = np.nonzero((mesh.side_elements[:, 1] >= 0) & (w_eff != 0))[0]
        else:
            sel = np.nonzero((mesh.side_elements[:, 1] < 0) & (w_eff != 0))[0]
        if len(sel) == 0:
            continue
        d0, c0 = _trace_coefficients(mesh, sel, 0)
        if interior:
            d1, c1 = _trace_coefficients(mesh, sel, 1)
            dofs = np.concatenate([d0, d1], axis=1)
            coef = np.concatenate([c0, -c1], axis=2)
        else:
            dofs, coef = d0, c0
        vals = np.einsum(
            "m,mki,kl,mlj->mij", w_eff[sel], coef, _ENDPOINT_MASS, coef
        )
        nd = dofs.shape[1]
        blocks_r.append(np.repeat(dofs, nd, axis=1).ravel())
        blocks_c.append(np.tile(dofs, (1, nd)).ravel())
        blocks_v.append(vals.ravel())
    if not blocks_v:
        return sparse.csr_matrix((ns, ns))
    return sparse.coo_matrix(
        (
            np.concatenate(blocks_v),
            (np.concatenate(blocks_r), np.concatenate(blocks_c)),
        ),
        shape=(ns, ns),
    ).tocsr()


def stabilization_jump_matrix(mesh, mu):
    """Jump form with stabilization_weights(mesh, mu) on both components.

    A (2 ns, 2 ns) CSR matrix, built once per mesh and mu.
    """

    def build():
        scal = jump_penalty_matrix(mesh, stabilization_weights(mesh, mu))
        return sparse.block_diag([scal, scal]).tocsr()

    return mesh.cached(("jump_matrix", mu), build)


def stabilization_weights(mesh, mu):
    """Weights 2 mu / h_S on interior and Dirichlet sides, zero on Neumann."""
    geo = mesh.geometry()
    w = 2.0 * mu / geo["side_length"]
    w[mesh.side_labels == _mesh.NEUMANN] = 0.0
    return w


def dirichlet_penalty_load(mesh, mu, datum, npoints=8):
    """Load vector c with c_dof = sum_{S Dirichlet} (2 mu / h_S) int_S datum . theta.

    On Dirichlet sides the jump of a total field v + u_hat is its deviation
    from the boundary datum, so the penalty contributes this datum-weighted
    functional to the right-hand side.  Returns a (2 ns,) vector.
    """
    from .quadrature import segment_rule, side_points

    ns = mesh.num_sides
    out = np.zeros(2 * ns)
    if datum is None:
        return out
    sel = mesh.sides_with_label(_mesh.DIRICHLET)
    if len(sel) == 0:
        return out
    geo = mesh.geometry()
    t, w = segment_rule(npoints)
    pts = side_points(mesh, t, sides=sel)  # (m, q, 2)
    gvals = np.asarray(datum(pts))  # (m, q, 2)
    dofs, coef = _trace_coefficients(mesh, sel, 0)  # (m,3), (m,2,3)
    # basis trace at parameter t: coef0 (1-t) + coef1 t
    basis = coef[:, 0, :][:, None, :] * (1 - t)[None, :, None] + coef[
        :, 1, :
    ][:, None, :] * t[None, :, None]  # (m, q, 3)
    weight = 2.0 * mu  # (2 mu / h_S) * |S| = 2 mu
    vals = weight * np.einsum("q,mqi,mqj->mji", w, gvals, basis)  # (m, 3, 2)
    for comp in range(2):
        np.add.at(out, dofs.ravel() + comp * ns, vals[:, :, comp].ravel())
    return out


def stabilization_energy(mesh, mu, u_total, datum, npoints=8):
    """Value of the data-consistent jump penalty at a total field.

    Interior sides contribute (2 mu / h_S) int [u]^2; Dirichlet sides
    contribute (2 mu / h_S) int |u - datum|^2 (datum None means zero).
    """
    from .quadrature import segment_rule, side_points

    total = 0.0
    t, w = segment_rule(npoints)
    for label in (_mesh.INTERIOR, _mesh.DIRICHLET):
        sel = mesh.sides_with_label(label)
        if len(sel) == 0:
            continue
        jump_end = jump_eval(u_total, sel)  # (m, 2, 2) endpoint values
        if label == _mesh.INTERIOR:
            total += np.sum(
                (2.0 * mu)
                * np.einsum("mki,kl,mli->m", jump_end, _ENDPOINT_MASS, jump_end)
            )
        else:
            tq = jump_end[:, 0, :][:, None] * (1 - t)[None, :, None] + jump_end[
                :, 1, :
            ][:, None] * t[None, :, None]  # (m, q, 2)
            if datum is not None:
                pts = side_points(mesh, t, sides=sel)
                tq = tq - np.asarray(datum(pts))
            total += np.sum(
                (2.0 * mu) * np.einsum("q,mqi,mqi->", w, tq, tq)
            )
    return float(total)


# -- load functional -----------------------------------------------------------


def load_vector(mesh, f_h=None, big_f_h=None, g_h=None):
    """Assemble the load functional as a (2 ns,) vector over all CR DOFs."""
    ns = mesh.num_sides
    rhs = np.zeros(2 * ns)
    es = mesh.element_sides
    if f_h is not None:
        fv = f_h.values if isinstance(f_h, P0Field) else np.asarray(f_h)
        contrib = (mesh.areas / 3.0)[:, None] * fv  # (ne, 2)
        for comp in range(2):
            np.add.at(rhs, es.ravel() + comp * ns, np.repeat(contrib[:, comp], 3))
    if big_f_h is not None:
        fv = big_f_h.values if isinstance(big_f_h, P0Field) else np.asarray(big_f_h)
        dtheta = cr_basis_gradients(mesh)
        contrib = np.einsum("n,nid,ntd->nti", mesh.areas, fv, dtheta)
        for comp in range(2):
            np.add.at(rhs, es.ravel() + comp * ns, contrib[:, :, comp].ravel())
    if g_h is not None:
        geo = mesh.geometry()
        neumann = mesh.sides_with_label(_mesh.NEUMANN)
        gv = np.asarray(g_h)
        for comp in range(2):
            rhs[neumann + comp * ns] += geo["side_length"][neumann] * gv[neumann, comp]
    return rhs


class _LoadedSystem:
    """Lift, load data and the load functional's vector, assembled once."""

    def _assemble_load(self, u_hat, f_h, big_f_h, g_h):
        self.u_hat = u_hat
        self.f_h = f_h
        self.big_f_h = big_f_h
        self.g_h = g_h
        self.load_vector = load_vector(self.mesh, f_h, big_f_h, g_h)

    def load(self, v):
        """Value l(v) of the load functional at a CR field."""
        return float(self.load_vector @ v.dofs())


# -- Stokes --------------------------------------------------------------------


def _free_dofs(mesh):
    """Non-Dirichlet sides and their DOFs in both components."""
    free = np.nonzero(mesh.side_labels != _mesh.DIRICHLET)[0]
    return free, np.concatenate([free, free + mesh.num_sides])


def _free_field(mesh, free, x):
    """CR field holding x's two component blocks on the free sides, zero elsewhere."""
    vals = np.zeros((mesh.num_sides, 2))
    nf = len(free)
    vals[free, 0] = x[:nf]
    vals[free, 1] = x[nf: 2 * nf]
    return CRField(mesh, vals)


# Augmented-Lagrangian penalty per unit viscosity, gamma = AL_GAMMA0 * nu.
# A larger gamma contracts the Uzawa iteration faster but worsens the
# condition of K; 1e3 reaches roundoff in a few steps without a refinement
# pass, 1e4 does not.
AL_GAMMA0 = 1e3
AL_MAX_ITER = 30
# Uzawa stops a column once ||B u - g|| <= AL_ROUNDOFF eps (||B||_inf ||u|| + ||g||),
# the roundoff floor of the constraint residual; below it the residual only
# wanders in the noise
AL_ROUNDOFF = 8.0


class StokesSaddle:
    """The CR-P0 Stokes saddle operator of one mesh, for every viscosity.

    a1_full = vector CR stiffness (the velocity block at nu = 1) and
    b_full = -(q, div_h v), with q the element pressures, act on all CR
    DOFs; a1 and b are their restrictions to the free velocity DOFs
    `vel_index`.  With an empty Neumann set one extra Lagrange multiplier
    enforces the zero-mean pressure gauge.

    `al_solve` never factors the saddle `matrix(nu)`; it only multiplies it
    to check each solution.  Its one factor `lu` is the sparse SPD
    K_1 = A_1 + AL_GAMMA0 B^T M^-1 B, with M the diagonal of element areas.
    Since K_nu = nu K_1 for gamma = AL_GAMMA0 nu, it serves every viscosity.
    """

    def __init__(self, mesh):
        # the mesh caches its saddle; a strong reference back would make a
        # cycle that keeps old meshes and factors until the cyclic collector runs
        self._mesh = weakref.ref(mesh)
        self.areas = mesh.areas
        self.free_sides, self.vel_index = _free_dofs(mesh)
        k_scal = cr_stiffness(mesh)
        self.a1_full = sparse.block_diag([k_scal, k_scal]).tocsr()
        # (q, div v) weighted by element areas
        self.b_full = sparse.diags(mesh.areas) @ -cr_divergence_matrix(mesh)
        self.a1 = self.a1_full[self.vel_index][:, self.vel_index]
        self.b = self.b_full[:, self.vel_index]
        # B^T as the CSC view of b: no copy, and no transpose per Uzawa step
        self.bt = self.b.T
        self.b_norm = _inf_norm(self.b)
        self.pure_dirichlet = len(mesh.sides_with_label(_mesh.NEUMANN)) == 0
        self._checks = {}  # nu -> (saddle matrix, its row-sum norm)

        k1 = self.a1 + AL_GAMMA0 * (
            self.b.T @ sparse.diags(1.0 / mesh.areas) @ self.b
        )
        self.lu = spd_factor(k1)

    def _check(self, nu):
        """The saddle matrix at nu and its row-sum norm, built once per nu."""
        if nu not in self._checks:
            a, b = nu * self.a1, self.b
            blocks = [[a, b.T], [b, None]]
            if self.pure_dirichlet:
                gauge = sparse.csr_matrix(self.areas[None, :])
                blocks = [[a, b.T, None], [b, None, gauge.T], [None, gauge, None]]
            matrix = sparse.bmat(blocks, format="csc")
            self._checks[nu] = (matrix, _inf_norm(matrix))
        return self._checks[nu]

    def matrix(self, nu):
        """[[nu A_1, B^T], [B, 0]], bordered by the gauge row if present."""
        return self._check(nu)[0]

    def restrict(self, load_v, load_p):
        """Right-hand side for a load on all CR DOFs and one per element.

        load_v and load_p are vectors, or blocks of k columns each.
        """
        gauge = np.zeros((int(self.pure_dirichlet),) + load_p.shape[1:])
        return np.concatenate([load_v[self.vel_index], load_p, gauge])

    def velocity(self, x):
        """Velocity part of a solution vector as a homogeneous CR field."""
        return _free_field(self._mesh(), self.free_sides, x)

    def al_solve(self, rhs, nu):
        """Solve matrix(nu) @ x = rhs by augmented-Lagrangian Uzawa iteration.

        rhs is an (n,) vector or an (n, k) block of right-hand sides; each
        step makes one triangular solve with the factor on the block of
        active columns.  For each column, a step solves
        K u = f + gamma B^T M^-1 g - B^T p and updates
        p += gamma M^-1 (B u - g).  The u of an update and the updated p
        satisfy the momentum rows exactly.  A column stops once its
        constraint residual ||B u - g|| reaches the roundoff floor
        AL_ROUNDOFF eps (||B||_inf ||u|| + ||g||), or stops decreasing; it
        keeps its last decreasing iterate.  On pure-Dirichlet meshes B u
        sums to zero, so the gauge multiplier is the mean of g, and p is
        shifted to the gauge.  Returns (x, LinearSolveReport) of the shape
        of rhs, checked column by column against matrix(nu).
        """
        # the iteration's work arrays are freed before the check
        x = self._uzawa(rhs.reshape(len(rhs), -1), nu).reshape(rhs.shape)
        matrix, norm = self._check(nu)
        return x, _checked(matrix, norm, rhs, x, "augmented-lagrangian")

    def _uzawa(self, block, nu):
        """The `al_solve` iterate of an (n, k) block of right-hand sides."""
        nv, areas = len(self.vel_index), self.areas
        ne = len(areas)
        x = np.zeros(block.shape)
        u_out, p = x[:nv], x[nv: nv + ne]
        f, g = block[:nv], block[nv: nv + ne]
        mass = areas[:, None]  # M, one column per right-hand side
        if self.pure_dirichlet:
            lam = g.sum(axis=0) / areas.sum()
            g = g - mass * lam
        gamma = AL_GAMMA0 * nu
        load = f + gamma * (self.bt @ (g / mass))
        g_norm = _column_norms(g)
        best = np.full(block.shape[1], np.inf)
        active = np.arange(block.shape[1])
        for _ in range(AL_MAX_ITER):
            if not len(active):
                break
            # in place: the block's copies set the identity workload's peak memory
            u = load[:, active]
            u -= self.bt @ p[:, active]
            u = self.lu.solve(u)
            u /= nu
            r = self.b @ u
            r -= g[:, active]
            r_norm = _column_norms(r)
            better = r_norm < best[active]
            cols = active[better]
            if not better.all():
                u, r, r_norm = u[:, better], r[:, better], r_norm[better]
            u_out[:, cols] = u
            p[:, cols] += gamma * (r / mass)
            best[cols] = r_norm
            roundoff = AL_ROUNDOFF * np.finfo(float).eps * (
                self.b_norm * _column_norms(u) + g_norm[cols]
            )
            active = cols[r_norm > roundoff]
        if self.pure_dirichlet:
            p += (block[-1] - areas @ p) / areas.sum()
            x[-1] = lam
        return x


def stokes_saddle(mesh):
    """The mesh's one StokesSaddle, shared by every viscosity."""
    return mesh.cached("stokes_saddle", lambda: StokesSaddle(mesh))


class StokesSystem(_LoadedSystem):
    """Assembled discrete Stokes saddle-point system and its load.

    Unknowns: free velocity DOFs (both components) followed by element
    pressures and, on pure-Dirichlet meshes, the gauge multiplier; the
    operator is the mesh's `saddle` at viscosity nu.
    """

    def __init__(self, mesh, nu, u_hat, f_h, big_f_h, g_h):
        self.mesh = mesh
        self.nu = nu
        self.saddle = stokes_saddle(mesh)
        self._assemble_load(u_hat, f_h, big_f_h, g_h)

        uhat_vec = u_hat.dofs()
        div_lift = broken_divergence(u_hat).values
        if np.abs(div_lift).max() > 1e-10:
            raise AssemblyError(
                "Dirichlet lift is not discretely divergence-free "
                f"(max |div_h| = {np.abs(div_lift).max():.2e})"
            )
        rhs_v = self.load_vector - nu * (self.saddle.a1_full @ uhat_vec)
        self.rhs = self.saddle.restrict(rhs_v, -(self.saddle.b_full @ uhat_vec))

    def solve(self):
        """Solve; returns (u_h, p_h, report) with u_h in the homogeneous space."""
        x, report = self.saddle.al_solve(self.rhs, self.nu)
        nfree = len(self.saddle.vel_index)
        p_h = P0Field(self.mesh, x[nfree: nfree + self.mesh.num_elements])
        return self.saddle.velocity(x), p_h, report

    def residual(self, u_h, p_h):
        """Euler-Lagrange residual tested against every free CR basis function."""
        saddle = self.saddle
        mom = (
            self.nu * (saddle.a1_full @ (u_h.dofs() + self.u_hat.dofs()))
            + saddle.b_full.T @ p_h.values
            - self.load_vector
        )
        return np.abs(mom[saddle.vel_index]).max()


def assemble_stokes(mesh, nu, u_hat, f_h, big_f_h=None, g_h=None):
    """Assemble the discrete Stokes saddle system for (u_h, p_h).

    Parameters
    ----------
    mesh : Triangulation
    nu : float
        Kinematic viscosity.
    u_hat : CRField
        Discrete Dirichlet lift; must satisfy div_h u_hat = 0 to 1e-10.
    f_h : P0Field or (ne, 2) array or None
    big_f_h : P0Field or (ne, 2, 2) array or None
        Element-wise constant tensor part of the load.
    g_h : (ns, 2) array or None
        Side-wise constant Neumann tractions (used on Neumann sides only).
    """
    return StokesSystem(mesh, nu, u_hat, f_h, big_f_h, g_h)


# -- elasticity ------------------------------------------------------------------


class ElasticitySystem(_LoadedSystem):
    """Assembled stabilised Navier-Lame system for the displacement.

    The jump penalty on Dirichlet sides measures the deviation of the total
    field from the boundary datum, so conforming data (e.g. rigid motions)
    carry no spurious penalty energy.
    """

    def __init__(self, mesh, material, u_hat, f_h, big_f_h, g_h, dirichlet_datum=None):
        self.mesh = mesh
        self.material = material
        self._assemble_load(u_hat, f_h, big_f_h, g_h)
        self.dirichlet_datum = dirichlet_datum

        ns = mesh.num_sides
        self.free_sides, self.vel_index = _free_dofs(mesh)

        mu, lam = material.mu, material.lam
        dtheta = cr_basis_gradients(mesh)
        es = mesh.element_sides

        # (C eps(u), eps(v)) = 2 mu (eps(u), eps(v)) + lam (div u, div v);
        # assemble the 6x6 local vector blocks directly
        ne = mesh.num_elements
        local = np.zeros((ne, 2, 3, 2, 3))
        d = dtheta  # (ne, 3, 2)
        area = mesh.areas
        for i in range(2):
            for j in range(2):
                # eps(e_i theta_a) : eps(e_j theta_b)
                term = 0.5 * np.einsum("nad,nbd->nab", d, d) * (i == j)
                term = term + 0.5 * np.einsum("na,nb->nab", d[:, :, j], d[:, :, i])
                div_term = np.einsum("na,nb->nab", d[:, :, i], d[:, :, j])
                local[:, i, :, j, :] = (
                    (2.0 * mu) * term + lam * div_term
                ) * area[:, None, None]

        rows = np.empty((ne, 2, 3, 2, 3), dtype=np.int64)
        cols = np.empty_like(rows)
        for i in range(2):
            for j in range(2):
                rows[:, i, :, j, :] = (es + i * ns)[:, :, None]
                cols[:, i, :, j, :] = (es + j * ns)[:, None, :]
        k_eps = sparse.coo_matrix(
            (local.ravel(), (rows.ravel(), cols.ravel())),
            shape=(2 * ns, 2 * ns),
        ).tocsr()

        self.a_full = k_eps + stabilization_jump_matrix(mesh, mu)
        self.matrix = self.a_full[self.vel_index][:, self.vel_index].tocsc()
        self.datum_load = dirichlet_penalty_load(mesh, mu, dirichlet_datum)

        rhs = self.load_vector - self.a_full @ u_hat.dofs() + self.datum_load
        self.rhs = rhs[self.vel_index]

    def s_h_total(self, u_total):
        """Penalty energy of a total field against the stored datum."""
        return stabilization_energy(
            self.mesh, self.material.mu, u_total, self.dirichlet_datum
        )

    def solve(self):
        x, report = solve_sparse(self.matrix, self.rhs)
        return _free_field(self.mesh, self.free_sides, x), report

    def residual(self, u_h):
        r = (
            self.a_full @ (u_h.dofs() + self.u_hat.dofs())
            - self.datum_load
            - self.load_vector
        )
        return np.abs(r[self.vel_index]).max()


def assemble_elasticity(
    mesh, material, u_hat, f_h, big_f_h=None, g_h=None, dirichlet_datum=None
):
    """Assemble the jump-stabilised elasticity operator and right-hand side."""
    if len(mesh.sides_with_label(_mesh.DIRICHLET)) == 0:
        raise AssemblyError("elasticity requires a nonempty Dirichlet boundary")
    return ElasticitySystem(mesh, material, u_hat, f_h, big_f_h, g_h, dirichlet_datum)


def solve_lifting(mesh, u_total, mu, dirichlet_datum=None):
    """Solve (grad_h r, grad_h v) = s_h(u_total, v) for r in the homogeneous space.

    u_total is the full discrete displacement u_h + u_hat; the jump weights
    are 2 mu / h_S on interior and Dirichlet sides, where Dirichlet jumps
    are deviations from the boundary datum.  The operator is the scalar CR
    stiffness on both components, so one factor solves both as the columns
    of an (n, 2) right-hand side.
    """
    free, _ = _free_dofs(mesh)
    k_free = cr_stiffness(mesh)[free][:, free]
    s_full = stabilization_jump_matrix(mesh, mu)
    datum_load = dirichlet_penalty_load(mesh, mu, dirichlet_datum)
    rhs = (s_full @ u_total.dofs() - datum_load).reshape(2, -1).T[free]
    x, _ = solve_sparse(k_free, rhs)
    vals = np.zeros((mesh.num_sides, 2))
    vals[free] = x
    return CRField(mesh, vals)
