"""Sparse assembly and direct solves for the Stokes and elasticity systems.

Crouzeix-Raviart vector fields use the DOF layout of `CRField.dofs`.
Dirichlet sides are eliminated by restriction to free DOFs; the lift enters
the right-hand side.

The load functional is
    l(v) = (f_h, Pi_h v) + (F_h, grad_h v) + sum_{S Neumann} (g_S, pi_h v)_S
with element-wise constant f_h, F_h and side-wise constant tractions g_S.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from . import mesh as _mesh
from .quadrature import SIDE_POINTS, segment_rule, side_points
from .spaces import (
    CRField,
    MeshOperators,
    _gradient_operator,
    _jump_rows,
    cr_gradient_operator,
    cr_jump_operator,
    divfree_cr_operator,
)


class NumericalFailure(Exception):
    """A computation that gives no trustworthy result on valid input; the
    CLI reports every subclass as a numerical failure (exit code 2)."""


class AssemblyError(NumericalFailure):
    pass


class SingularSystemError(NumericalFailure):
    pass


class LinearSolveReport:
    """Outcome of a residual-checked sparse solve."""

    def __init__(self, residual_norm):
        self.residual_norm = residual_norm

    def __repr__(self):
        return f"LinearSolveReport(residual_norm={self.residual_norm:.3e})"


def _inf_norm(matrix):
    """Row-sum norm ||A||_inf of a sparse matrix (1 for an empty one)."""
    return np.abs(matrix).sum(axis=1).max() if matrix.nnz else 1.0


def _column_norms(a):
    """2-norm of a vector, or of each column of an (n, k) block, formed
    without a temporary the size of a."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


# Normwise backward error every linear solve must reach.
SOLVE_TOL = 1e-10


def _backward_error(norm, rhs, x, residual):
    """LinearSolveReport of a solution x of A x = rhs, from norm = ||A||_inf
    and residual = rhs - A x.

    The report holds the normwise backward error
    ||b - A x|| / (||A||_inf ||x|| + ||b||); when rhs holds several
    columns, it is the largest backward error of a column, so one bad
    column cannot hide behind good ones.  A zero solution of a zero
    right-hand side has backward error 0 (the 0/0 case).
    SingularSystemError is raised if x is not finite or its backward error
    exceeds SOLVE_TOL.
    """
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    denom = norm * _column_norms(x) + _column_norms(rhs)
    res = np.max(
        _column_norms(residual) / np.where(denom > 0, denom, 1.0), initial=0.0
    )
    if res > SOLVE_TOL:
        raise SingularSystemError(
            f"relative residual {res:.3e} exceeds {SOLVE_TOL:.1e}"
        )
    return LinearSolveReport(res)


def _checked(matrix, rhs, x):
    """`_backward_error` of a solution x of matrix @ x = rhs."""
    residual = matrix @ x
    np.subtract(rhs, residual, out=residual)
    return _backward_error(_inf_norm(matrix), rhs, x, residual)


# SuperLU options of every factorisation; each factored matrix is SPD, so
# the pivots stay on the diagonal and the ordering is symmetric: minimum
# degree on the pattern of A + A^T (COLAMD orders A^T A and gave twice the
# fill on Cook elasticity).  relax=1 turns off relaxed supernodes: on one
# Xeon core, SuperLU's default relaxation made the numeric phase on that
# ordering of Cook's 23,136-unknown elasticity matrix take 9.6 s, relax=1
# 0.34 s, at the same fill of 4.55 M (COLAMD: 0.96 s, 8.41 M).  The panel
# width pays only with wide supernodes (Demmel, Eisenstat, Gilbert, Li &
# Liu, SIAM J. Matrix Anal. Appl. 20, 1999), and relax=1 keeps them
# narrow, so panel_size=1: the same ordering and the fill within 0.01%,
# while the summed factor time of the matrices of each benchmark run fell
# 283 -> 246 ms (Cook, 48 factors), 101 -> 75 (Taylor-Green, 4), 58 -> 47
# (L-shape, 13) and 18 -> 15 (verify-identity, 3), medians of 7 passes on
# one CPU.
SPD_FACTOR_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "relax": 1,
    "panel_size": 1,
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
    return x, _checked(matrix, rhs, x)


# -- forms: products of the broken-gradient and side-jump operators -----------


def _block_half(scale, local_half):
    """diag(scale) (x) local_half as CSR, built from its arrays.

    Row k p + i holds scale_k H_ij at column k q + j for each nonzero H_ij,
    columns ascending; zero scales and zero entries of the (p, q) local
    half H are left out.  These are the entries and the row order of
    `sparse.kron(sparse.diags(scale), H, format="csr")`.
    """
    rows, cols = np.nonzero(local_half)  # row-major: columns ascending
    (p, q), m = local_half.shape, len(scale)
    kept = np.flatnonzero(scale)
    counts = np.zeros((m, p), dtype=np.int64)
    counts[kept] = np.bincount(rows, minlength=p)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sparse.csr_matrix(
        ((scale[kept, None] * local_half[rows, cols]).ravel(),
         (q * kept[:, None] + cols).ravel(), indptr),
        shape=(p * m, q * m),
    )


def _gram(op, scale, local_half):
    """The form b^T b with b = half @ op, as CSR: op^T W op for W = half^T half,
    half = diag(scale) (x) local_half (`_block_half`).

    The half is built from its index arithmetic, not as a `sparse.kron` of
    a `sparse.diags`: on Cook's meshes (at most 2,900 sides) one such kron
    took 0.48 ms and one `sparse.block_diag` of a form 0.84 ms, nearly all
    of it COO round trips and format checks, not arithmetic.  Its entries
    and row order are those of the kron, so b, and with it the form, is
    the same to the bit.
    Entries (i, j) and (j, i) sum the same products b_ki b_kj in the same
    order, k ascending in the rows of b^T, so the form is exactly symmetric;
    on Cook's first mesh a roundoff-level asymmetry of op^T (W op) changed
    the fill of the elasticity factor.
    """
    b = _block_half(scale, local_half) @ op
    return b.T.tocsr() @ b


def _block_pair(block):
    """The block-diagonal pair [[block, 0], [0, block]] of a CSR matrix, as CSR.

    block's indices are sorted in place first; the pair then has the
    entries and the row order of `sparse.block_diag([block, block],
    format="csr")`, which sorts.  An unsorted pair changed the order in
    which products with it sum each row, and so the last bits of the
    Stokes right-hand side and solution.
    """
    block.sort_indices()
    (n, m), nnz = block.shape, block.nnz
    return sparse.csr_matrix(
        (np.tile(block.data, 2), np.concatenate([block.indices, block.indices + m]),
         np.concatenate([block.indptr, block.indptr[1:] + nnz])),
        shape=(2 * n, 2 * m),
    )


def _scaled_rows(scale, matrix):
    """diag(scale) @ matrix for a CSR matrix and a nonzero (n,) scale, as CSR.

    Each row's data is scaled and its entries reversed: the sparse product
    lists a row's columns in the reverse order of their first touch, and
    products with the result sum each row in that order.
    """
    counts = np.diff(matrix.indptr)
    rows = np.repeat(np.arange(len(counts)), counts)
    order = matrix.indptr[rows] + matrix.indptr[rows + 1] - 1 - np.arange(matrix.nnz)
    return sparse.csr_matrix(
        (scale[rows] * matrix.data[order], matrix.indices[order], matrix.indptr),
        shape=matrix.shape,
    )


def cr_stiffness(mesh):
    """Scalar CR stiffness sum_T (grad theta_i, grad theta_j)_T as CSR (ns x ns)."""
    return _gram(_gradient_operator(mesh, 1), np.sqrt(mesh.areas), np.eye(2))


# exact integrals over [0,1] of products of the endpoint hat functions;
# equals the 2-point Gauss value (the rule is exact for quadratics)
_ENDPOINT_MASS = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
# its transposed Cholesky factor, in closed form: calling LAPACK at import
# raised the peak RSS by about 0.3 MB
_ENDPOINT_HALF = np.array([[np.sqrt(1.0 / 3.0), np.sqrt(1.0 / 12.0)], [0.0, 0.5]])


def jump_penalty_matrix(mesh, weight_per_side):
    """Scalar jump form sum_S w_S int_S [u][v] ds as CSR (ns x ns).

    weight_per_side is an (ns,) array.  The form is J^T W J, J the
    `cr_jump_operator` and W the exact endpoint mass of each side times
    w_S |S|, so side integrals of products of P1 traces are exact.  W's
    half is sqrt(w_S |S|) times `_ENDPOINT_HALF`.
    """
    w = weight_per_side * mesh.geometry()["side_length"]
    return _gram(cr_jump_operator(mesh), np.sqrt(w), _ENDPOINT_HALF)


def stabilization_weights(mesh, mu):
    """Weights 2 mu / h_S on interior and Dirichlet sides, zero on Neumann."""
    geo = mesh.geometry()
    w = 2.0 * mu / geo["side_length"]
    w[mesh.side_labels == _mesh.NEUMANN] = 0.0
    return w


def dirichlet_penalty_load(mesh, mu, datum_values):
    """Load vector c with c_dof = sum_{S Dirichlet} (2 mu / h_S) int_S datum . theta.

    On Dirichlet sides the jump of a total field v + u_hat is its deviation
    from the boundary datum, so the penalty contributes this datum-weighted
    functional to the right-hand side.  datum_values (m, SIDE_POINTS, 2)
    holds the datum at the `segment_rule(SIDE_POINTS)` points of the m
    Dirichlet sides, in side order (zeros for a zero datum).  The load is
    J^T m, J the `cr_jump_operator` and m the datum's moments against the
    two endpoint hat functions of each Dirichlet side.  Returns a (2 ns,)
    vector.
    """
    sel = mesh.sides_with_label(_mesh.DIRICHLET)
    t, w = segment_rule(SIDE_POINTS)
    hats = np.stack([1.0 - t, t], axis=1)  # (q, 2)
    # (2 mu / h_S) * |S| = 2 mu
    moments = (2.0 * mu) * np.einsum("q,qk,mqi->mki", w, hats, datum_values)
    return (_jump_rows(mesh, sel).T @ moments.reshape(-1, 2)).T.ravel()


def stabilization_energy(mesh, mu, u_total, datum_values):
    """Value of the data-consistent jump penalty at a total field.

    s_h = sum_S (2 mu / h_S) int_S |[u] - g|^2 over the interior and
    Dirichlet sides, g zero on interior sides and the datum on Dirichlet
    ones: datum_values as for `dirichlet_penalty_load`.
    The jumps are interpolated from their endpoint values to the datum's
    Gauss points, which integrate the interior squares exactly.
    """
    labels = mesh.side_labels
    sides = np.nonzero(labels != _mesh.NEUMANN)[0]
    t, w = segment_rule(SIDE_POINTS)
    ends = (_jump_rows(mesh, sides) @ u_total.values).reshape(-1, 2, 2)  # (m, k, i)
    resid = np.einsum("qk,mki->mqi", np.stack([1.0 - t, t], axis=1), ends)
    resid[labels[sides] == _mesh.DIRICHLET] -= datum_values
    # (2 mu / h_S) * |S| = 2 mu
    return float((2.0 * mu) * np.einsum("q,mqi,mqi->", w, resid, resid))


# -- load functional -----------------------------------------------------------


def load_vector(mesh, grad, f_h, big_f_h, g_h):
    """Assemble the load functional as a (2 ns,) vector over all CR DOFs; None
    omits a part.  grad is the mesh's `cr_gradient_operator`, which the
    tensor part F_h is tested against."""
    ns = mesh.num_sides
    rhs = np.zeros(2 * ns)
    if f_h is not None:
        # Pi_h v on an element is the mean of v over its three sides
        dofs = mesh.element_sides[:, :, None] + ns * np.arange(2)  # (ne, 3, 2)
        weighted = (mesh.areas / 3.0)[:, None, None] * f_h[:, None]  # (ne, 1, 2)
        contrib = np.broadcast_to(weighted, dofs.shape)
        rhs += np.bincount(dofs.ravel(), contrib.ravel(), minlength=2 * ns)
    if big_f_h is not None:
        weighted = mesh.areas[:, None, None] * big_f_h
        rhs += grad.T @ weighted.ravel()
    if g_h is not None:
        geo = mesh.geometry()
        neumann = mesh.sides_with_label(_mesh.NEUMANN)
        gv = np.asarray(g_h)
        for comp in range(2):
            rhs[neumann + comp * ns] += geo["side_length"][neumann] * gv[neumann, comp]
    return rhs


class _LoadedSystem:
    """Lift, load data, the load functional's vector and the mesh's operators."""

    @cached_property
    def ops(self):
        """The mesh's `MeshOperators`, read only after the solves: none lives under a factor."""
        return MeshOperators(self.mesh)

    def _assemble_load(self, grad, u_hat, f_h, big_f_h, g_h):
        for name, f in (("f_h", f_h), ("big_f_h", big_f_h)):
            if f is not None and len(f) != self.mesh.num_elements:
                raise ValueError(f"{name} must have one row per element, not {len(f)}")
        if g_h is not None and len(g_h) != self.mesh.num_sides:
            raise ValueError(f"g_h must have one row per side, not {len(g_h)}")
        self.u_hat = u_hat
        self.f_h = f_h
        self.big_f_h = big_f_h
        self.g_h = g_h
        self.load_vector = load_vector(self.mesh, grad, f_h, big_f_h, g_h)


# -- Stokes --------------------------------------------------------------------


def _free_dofs(mesh):
    """Non-Dirichlet sides and their DOFs in both components."""
    free = np.nonzero(mesh.side_labels != _mesh.DIRICHLET)[0]
    return free, np.concatenate([free, free + mesh.num_sides])


def _free_field(mesh, free, x):
    """CR field holding x's two component blocks on the free sides, zero elsewhere."""
    vals = np.zeros((mesh.num_sides, 2))
    vals[free] = x[: 2 * len(free)].reshape(2, -1).T
    return CRField(mesh, vals)


def _potential_columns(mesh):
    """Column of each vertex's stream-function unknown, -1 where pinned: one
    per connected piece of the Dirichlet boundary (a component of the graph
    of the Dirichlet sides), the first pinned to 0, and one per other vertex.

    Pieces and free vertices are numbered in the order of their smallest
    vertex, the numbering of scipy's `connected_components`, so Z's columns,
    and with them every factor and solve, do not depend on how the pieces
    are found.  Each vertex's label starts as itself; each round lowers the
    label of the larger end label of every Dirichlet side to the smaller,
    then replaces each label by that label's label.  Labels only fall and
    stay within their piece, so once both ends of every side agree, all of
    a piece's labels are the one vertex labelled by itself, its smallest.
    """
    ends = mesh.side_vertices[mesh.sides_with_label(_mesh.DIRICHLET)]
    root = np.arange(mesh.num_vertices)
    while True:
        ra, rb = root[ends[:, 0]], root[ends[:, 1]]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        root = root[root]
    labels = np.cumsum(root == np.arange(mesh.num_vertices))[root] - 1
    pin = labels[ends[0, 0]]
    return np.where(labels == pin, -1, labels - (labels > pin))


def _divfree_basis(mesh, free, potential):
    """The map Z = R D P of (phi, psi) to the free velocity DOFs, as CSR.

    D is the `divfree_cr_operator`, R takes its free rows (`vel_index`) and
    the 0/1 matrix P sums each vertex column into its unknown of `potential`
    (dropping the pinned piece) and keeps the psi columns of the free sides.
    Where both ends of a side share an unknown, (-x) + x is exactly 0, and
    the product drops it.  Sorted rows make Z @ c add each tangential part
    last.
    """
    nv, nphi = mesh.num_vertices, potential.max() + 1
    col = np.concatenate([potential, np.full(mesh.num_sides, -1)])  # P's column, or -1
    col[nv + free] = nphi + np.arange(len(free))
    rows = np.flatnonzero(col >= 0)
    p = sparse.csr_matrix((np.ones(len(rows)), (rows, col[rows])), (len(col), nphi + len(free)))
    z = divfree_cr_operator(mesh)[np.concatenate([free, free + mesh.num_sides])] @ p
    z.sort_indices()
    return z


def _spanning_forest(mesh, free):
    """A spanning forest of the elements joined across free interior sides,
    and B's entries at each element's tree side.

    The roots are the elements with a Neumann side, each with one such side
    as its tree side; on pure-Dirichlet meshes the root is element 0, which
    has none.  A breadth-first search in numpy layers reaches every other
    element T from its parent through T's tree side S, the first finder
    winning.  T's column there is S's velocity component k with the larger
    |n_S,k|, where B's entry in T's row is b_T = -|S| n_{T,S,k} (n_{T,S}
    T's outward normal) and in the parent's row -b_T.
    Returns (layers, parent, col, b): the element layers from the roots
    out, and per element its parent, its column among the free DOFs (as
    ordered by `StokesSystem.vel_index`) and b_T; -1 where T has no parent
    or tree side.  AssemblyError is raised if an element is not reached.
    """
    ne, sides = mesh.num_elements, mesh.element_sides
    # the element across each local side, (T + T') - T, which is -1 on
    # boundary sides (T - 1 - T); interior sides are never Dirichlet
    neighbour = mesh.side_elements[sides].sum(axis=2) - np.arange(ne)[:, None]
    neumann = mesh.sides_with_label(_mesh.NEUMANN)
    roots, first = np.unique(mesh.side_elements[neumann, 0], return_index=True)
    tree_side, parent = np.full(ne, -1), np.full(ne, -1)
    tree_side[roots] = neumann[first]
    layers = [roots if len(roots) else np.zeros(1, dtype=np.int64)]
    # the last slot, which the boundary's -1 indexes, counts as reached
    reached = np.zeros(ne + 1, dtype=bool)
    reached[layers[0]] = reached[-1] = True
    while True:
        front = layers[-1]
        found = neighbour[front].ravel()
        fresh = np.flatnonzero(~reached[found])
        new, at = np.unique(found[fresh], return_index=True)
        if not len(new):
            break
        via = fresh[at]
        parent[new] = front[via // 3]
        tree_side[new] = sides[parent[new], via % 3]
        reached[new] = True
        layers.append(new)
    if not reached.all():
        raise AssemblyError(
            f"{ne + 1 - reached.sum()} of {ne} elements are not reached through "
            "free sides from an element with a Neumann side (or element 0)"
        )
    tree = np.flatnonzero(tree_side >= 0)
    s = tree_side[tree]
    geo = mesh.geometry()
    normal = geo["side_normal"][s]
    k = np.abs(normal[:, 1]) > np.abs(normal[:, 0])
    col, b = np.full(ne, -1), np.full(ne, -1.0)
    col[tree] = np.searchsorted(free, s) + k * len(free)
    # the global normal is outward for the side's first element
    b[tree] = np.where(mesh.side_elements[s, 0] == tree, -1.0, 1.0) * (
        geo["side_length"][s] * np.where(k, normal[:, 1], normal[:, 0])
    )
    return layers, parent, col, b


class StokesSystem(_LoadedSystem):
    """Assembled CR-P0 Stokes saddle-point system at viscosity nu, and its load.

    a1 (the vector CR stiffness, the velocity block at nu = 1) and
    b = -(q, div_h v), with q the element pressures, act on the free
    velocity DOFs `vel_index`; their Dirichlet columns enter only `rhs`,
    through the lift.  The unknowns are the free velocity DOFs (both
    components) followed by the element pressures and, with an empty
    Neumann set, one Lagrange multiplier enforcing the zero-mean pressure
    gauge.  They solve M x = rhs, M the bordered matrix
    [[nu A_1, B^T], [B, 0]], with the gauge row (the element areas) and its
    transpose as its last row and column when present; no code builds M.

    The lift must be discretely divergence-free (`assemble_stokes`).
    `solve_saddle` solves in the stream-function basis Z = R D P of the
    divergence-free CR fields (`_divfree_basis`, D the
    `divfree_cr_operator`) with one sparse SPD factor, of
    Z^T A_1 Z, and finds a particular velocity and the pressure by sweeps
    over a spanning forest of the elements (`_spanning_forest`: the
    tree-cotree splitting of Alotto & Perugia, Calcolo 36, 1999; Scheichl,
    SIAM J. Sci. Comput. 23, 2002), and checks the solution against M
    from its blocks.  Z spans the kernel of b, and has its
    2 n_free - ne + [pure Dirichlet] columns (Euler's formula), only if all
    boundary curves (the outer one, each hole's) but at most one are
    entirely Dirichlet; other meshes, e.g. a Neumann hole in a partly
    Neumann outer boundary, raise AssemblyError.
    """

    def __init__(self, mesh, nu, u_hat, f_h, big_f_h, g_h):
        self.mesh = mesh
        self.nu = nu
        grad = cr_gradient_operator(mesh)
        self._assemble_load(grad, u_hat, f_h, big_f_h, g_h)
        # div_h, the trace rows of G, sums |S| u . n / |T| over each element's
        # sides; its roundoff grows with those terms, so the lift is measured
        # against the largest element sum of their magnitudes (scale-free)
        div = grad[0::4] + grad[3::4]
        # the sum comes with each row's columns unsorted; sorted, they set the
        # entry order of B and so the summation order of -(b_full @ u_hat)
        div.sort_indices()
        uhat_vec = u_hat.dofs()
        lift_div = np.abs(div @ uhat_vec).max()
        terms = (abs(div) @ np.abs(uhat_vec)).max()
        if lift_div > 1e-10 * terms:
            raise AssemblyError(
                "Dirichlet lift is not discretely divergence-free (max |div_h| = "
                f"{lift_div:.2e}, terms up to {terms:.2e})"
            )

        self.free_sides, self.vel_index = _free_dofs(mesh)
        self.pure_dirichlet = len(mesh.sides_with_label(_mesh.NEUMANN)) == 0
        self.potential_columns = _potential_columns(mesh)
        # Z has nphi + n_free columns, the kernel 2 n_free - ne + [pure Dirichlet]
        nphi = self.potential_columns.max() + 1
        if nphi != len(self.free_sides) - mesh.num_elements + self.pure_dirichlet:
            raise AssemblyError(
                "the divergence-free CR basis does not span the discrete kernel: "
                "every boundary curve but at most one must be entirely Dirichlet"
            )
        # the vector stiffness G^T (|T| I) G acts on each component alone
        a1_full = _block_pair(cr_stiffness(mesh))
        b_full = _scaled_rows(-mesh.areas, div)  # -(q, div_h v)
        self.a1 = a1_full[self.vel_index][:, self.vel_index]
        self.b = b_full[:, self.vel_index]

        rhs_v = (self.load_vector - nu * (a1_full @ uhat_vec))[self.vel_index]
        gauge_rhs = np.zeros(int(self.pure_dirichlet))
        self.rhs = np.concatenate([rhs_v, -(b_full @ uhat_vec), gauge_rhs])

    def solve_saddle(self, rhs):
        """Solve M x = rhs, M = [[nu A_1, B^T], [B, 0]] and the gauge row and
        column on pure-Dirichlet meshes, in the divergence-free basis Z.

        With f, g the velocity and pressure rows of rhs, the particular
        velocity u_g is nonzero only in the tree columns of
        `_spanning_forest`: B u_g = g holds when b_T (u_g)_T, the flux
        through T's tree side, is g summed over T's subtree, one
        `np.add.at` per layer from the leaves to the roots.  Then
        nu (Z^T A_1 Z) c = Z^T (f - nu A_1 u_g) by the one SPD factor, a
        temporary of its one solve, and u = u_g + Z c.  The pressure
        solves B^T p = r = f - nu A_1 u in the tree columns:
        p_T = p_parent + r_T / b_T, one layer at a time from the roots, with
        p_parent = 0 at a root.  On pure-Dirichlet meshes 1^T B = 0, so the
        gauge multiplier is sum(g) / sum(|T|), and its part of g is
        subtracted first; the root, which has no tree side, keeps p = 0 in
        the sweep, and p is shifted to the gauge.
        Returns (x, LinearSolveReport), x checked against M blockwise.
        """
        nu, nv, ne = self.nu, len(self.vel_index), self.mesh.num_elements
        areas = self.mesh.areas
        x = np.zeros(len(rhs))
        u, p = x[:nv], x[nv: nv + ne]
        f, g = rhs[:nv], rhs[nv: nv + ne]
        if self.pure_dirichlet:
            x[-1] = g.sum() / areas.sum()
            g = g - areas * x[-1]
        layers, parent, col, b = _spanning_forest(self.mesh, self.free_sides)
        tree = col >= 0
        flux = g.copy()
        for layer in reversed(layers[1:]):
            np.add.at(flux, parent[layer], flux[layer])
        u[col[tree]] = flux[tree] / b[tree]
        z = _divfree_basis(self.mesh, self.free_sides, self.potential_columns)
        # Z^T (A_1 Z) sums its (i, j) and (j, i) entries in different
        # orders; its mean with its transpose is exactly symmetric (the
        # b^T b form of `_gram`, b = |T|^(1/2) G Z, multiplies out 1.6x slower)
        zaz = z.T.tocsr() @ (self.a1 @ z)
        zaz = zaz + zaz.T
        zaz.data *= 0.5
        # drop the cancellation residue below 1e-12 sqrt(|d_i d_j|), d the
        # diagonal, so that the pattern, and with it the ordering and the
        # fill, does not depend on roundoff: on the benchmark's Stokes runs,
        # residue entries were at most 1.2e-15 of that scale and every true
        # one at least 2.8e-2; the check on the bordered system still guards
        # the result
        d = np.sqrt(np.abs(zaz.diagonal()))
        rows = np.repeat(np.arange(len(d)), np.diff(zaz.indptr))
        zaz.data[np.abs(zaz.data) < 1e-12 * (d[rows] * d[zaz.indices])] = 0.0
        zaz.eliminate_zeros()
        c = spd_factor(zaz).solve(z.T @ (f - nu * (self.a1 @ u)))
        u += z @ (c / nu)
        step = np.zeros(ne)
        step[tree] = (f - nu * (self.a1 @ u))[col[tree]] / b[tree]
        p[layers[0]] = step[layers[0]]
        for layer in layers[1:]:
            p[layer] = p[parent[layer]] + step[layer]
        if self.pure_dirichlet:
            p += (rhs[-1] - areas @ p) / areas.sum()
        return x, self._checked(rhs, x)

    def _checked(self, rhs, x):
        """`_checked(M, rhs, x)`, M = [[nu A_1, B^T], [B, 0]] and the gauge
        row and column, formed from a1, b and the areas without building M.

        A CSC product of the bordered matrix sums each row over its columns
        in ascending order: a velocity row over nu A_1's, then B^T's; a
        pressure row over B's, then the gauge column.  The blocks are summed
        in that order here, so the residual and the row sums of ||A||_inf
        are the same numbers.
        """
        nv, ne = len(self.vel_index), self.mesh.num_elements
        u, p = x[:nv], x[nv: nv + ne]
        a = self.nu * self.a1
        a.sort_indices()  # each row's columns ascending
        bt = self.b.T.tocsr()  # by rows, each row's columns ascending
        # np.add.at adds B^T's entries to their rows one at a time, in order
        rows = np.repeat(np.arange(nv), np.diff(bt.indptr))
        sums = [abs(a) @ np.ones(nv), abs(bt).T @ np.ones(nv)]
        np.add.at(sums[0], rows, np.abs(bt.data))
        products = [a @ u, bt.T @ u]
        np.add.at(products[0], rows, bt.data * p[bt.indices])
        if self.pure_dirichlet:
            areas = self.mesh.areas
            gauge = sparse.csr_matrix(areas[None, :])
            sums[1] += areas
            products[1] += areas * x[-1]
            sums.append(gauge @ np.ones(ne))
            products.append(gauge @ p)
        residual = rhs - np.concatenate(products)
        return _backward_error(np.concatenate(sums).max(), rhs, x, residual)

    def solve(self):
        """Solve; returns (u_h, p_h, report): u_h in the homogeneous space, p_h (ne,)."""
        x, report = self.solve_saddle(self.rhs)
        p_h = x[len(self.vel_index):][: self.mesh.num_elements]
        return _free_field(self.mesh, self.free_sides, x), p_h, report


def assemble_stokes(mesh, nu, u_hat, f_h, big_f_h, g_h):
    """Assemble the discrete Stokes saddle system for (u_h, p_h).

    Parameters
    ----------
    mesh : Triangulation
    nu : float
        Kinematic viscosity.
    u_hat : CRField
        Discrete Dirichlet lift; |div_h u_hat| must be at most 1e-10 of the
        largest element sum of the magnitudes of the terms div_h sums, else
        AssemblyError is raised.
    f_h : (ne, 2) array or None
    big_f_h : (ne, 2, 2) array or None
        Element-wise constant tensor part of the load.
    g_h : (ns, 2) array or None
        Side-wise constant Neumann tractions (used on Neumann sides only).
    """
    return StokesSystem(mesh, nu, u_hat, f_h, big_f_h, g_h)


# -- elasticity ------------------------------------------------------------------


def _strain_half(mu, lam):
    """The 3 x 4 matrix H with H^T H = C, C g = 2 mu sym(g) + lam tr(g) I on
    the flattened gradient g = (g00, g01, g10, g11).

    C is only semidefinite (the skew part of g is in its kernel), so it has
    no Cholesky factor; the rows of H take the trace, the normal-strain
    difference and the shear of g.
    """
    a, b = np.sqrt(mu + lam), np.sqrt(mu)
    return np.array([[a, 0.0, 0.0, a], [b, 0.0, 0.0, -b], [0.0, b, b, 0.0]])


class ElasticitySystem(_LoadedSystem):
    """Assembled stabilised Navier-Lame system for the displacement.

    The jump penalty on Dirichlet sides measures the deviation of the total
    field from the boundary datum, so conforming data (e.g. rigid motions)
    carry no spurious penalty energy.
    """

    def __init__(self, mesh, material, u_hat, f_h, big_f_h, g_h, dirichlet_datum):
        self.mesh = mesh
        self.material = material
        grad = cr_gradient_operator(mesh)
        self._assemble_load(grad, u_hat, f_h, big_f_h, g_h)
        # the datum at the Gauss points of the Dirichlet sides, evaluated once
        # for the load and every penalty energy
        pts = side_points(
            mesh, segment_rule(SIDE_POINTS)[0],
            sides=mesh.sides_with_label(_mesh.DIRICHLET),
        )
        self.datum_values = np.asarray(dirichlet_datum(pts), dtype=float)

        self.free_sides, self.vel_index = _free_dofs(mesh)

        # (C eps_h u, eps_h v) = sum_T |T| (H g_u) . (H g_v), g the flattened
        # broken gradient
        mu = material.mu
        k_eps = _gram(grad, np.sqrt(mesh.areas), _strain_half(mu, material.lam))
        del grad
        # the jump form on both components, kept for the lifting; no local
        # holds the scalar block, which would raise the peak memory
        self.jump = _block_pair(jump_penalty_matrix(mesh, stabilization_weights(mesh, mu)))

        a_full = k_eps + self.jump
        self.matrix = a_full[self.vel_index][:, self.vel_index].tocsc()
        self.datum_load = dirichlet_penalty_load(mesh, mu, self.datum_values)

        rhs = self.load_vector - a_full @ u_hat.dofs() + self.datum_load
        self.rhs = rhs[self.vel_index]

    def s_h_total(self, u_total):
        """Penalty energy of a total field against the stored datum values."""
        return stabilization_energy(
            self.mesh, self.material.mu, u_total, self.datum_values
        )

    def solve(self):
        x, report = solve_sparse(self.matrix, self.rhs)
        return _free_field(self.mesh, self.free_sides, x), report


def assemble_elasticity(mesh, material, u_hat, f_h, big_f_h, g_h, *, dirichlet_datum):
    """Assemble the jump-stabilised elasticity operator and right-hand side.

    dirichlet_datum is the boundary datum g, a callable of (..., 2) points
    (`lambda x: np.zeros(x.shape)` for a clamped boundary).
    """
    return ElasticitySystem(mesh, material, u_hat, f_h, big_f_h, g_h, dirichlet_datum)


def solve_lifting(system, u_total):
    """Solve (grad_h r, grad_h v) = s_h(u_total, v) for r in the homogeneous space.

    u_total is the full discrete displacement u_h + u_hat of the
    `ElasticitySystem` system; s_h is its jump form `jump` less its
    `datum_load`, so Dirichlet jumps are deviations from the boundary datum.
    The operator is the scalar CR stiffness on both components of the
    system's free sides, so one factor solves both as the columns of an
    (n, 2) right-hand side.
    """
    mesh, free = system.mesh, system.free_sides
    k_free = cr_stiffness(mesh)[free][:, free]
    rhs = system.jump @ u_total.dofs() - system.datum_load
    rhs = rhs.reshape(2, -1).T[free]
    x, _ = solve_sparse(k_free, rhs)
    return _free_field(mesh, free, x.T.ravel())
