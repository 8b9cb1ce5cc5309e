"""Piecewise-polynomial fields on a triangulation.

Three discrete spaces are provided:

* CRField -- vector Crouzeix-Raviart: one 2-vector per side (midpoint value),
* RTField -- tensor lowest-order Raviart-Thomas: one normal flux per side
  and row, stored against the mesh's global side normal,
* P1ConformingField -- one 2-vector per vertex.

Element-wise constants (projections, broken gradients, RT cell averages and
divergences) are plain arrays of shape (ne,), (ne, 2) or (ne, 2, 2).

The scalar CR basis attached to local side j of an element is
theta_j = 1 - 2 lambda_{j+2} (lambda_k the barycentric coordinate of
vertex k), so theta_j is 1 on side j and has zero mean on the other two.

Each derived value of a field comes from the one sparse operator that
defines it: broken CR gradients from G (`cr_gradient_operator`), RT cell
averages and divergences from A and D (`rt_average_operator`,
`rt_divergence_operator`), and RT point values from those two.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .quadrature import SIDE_POINTS, VOLUME_DEGREE, segment_rule, side_points, triangle_rule


class CRField:
    """Vector Crouzeix-Raviart field: one 2-vector per side.

    A field representing an element of the homogeneous space carries zeros
    on the Dirichlet sides.
    """

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_sides, 2):
            raise ValueError("CRField values must have shape (ns, 2)")
        self.mesh = mesh
        self.values = values

    def dofs(self):
        """The (2 ns,) DOF vector of every assembled system.

        Component 0 of side s is DOF s, component 1 is DOF ns + s.
        """
        return np.concatenate([self.values[:, 0], self.values[:, 1]])

    def __add__(self, other):
        return CRField(self.mesh, self.values + other.values)


class RTField:
    """Tensor Raviart-Thomas field stored as per-side, per-row normal fluxes.

    flux[i, s] is the (constant) normal trace of row i on side s against the
    global side normal; the field holds nothing else.  Its cell averages and
    divergences are the flux operators A and D applied to the rows, and row i
    on T is the affine field c_i x + (avg_i - c_i x_T) with c_i = div_i / 2.
    """

    def __init__(self, mesh, flux):
        flux = np.asarray(flux, dtype=float)
        if flux.shape != (2, mesh.num_sides):
            raise ValueError("RTField flux must have shape (2, ns)")
        self.mesh = mesh
        self.flux = flux

    def evaluate(self, points, ops):
        """Values at points (ne, nq, 2) -> (ne, nq, 2, 2), from ops's A and D."""
        return _stacked(self.entries(points, ops), points.shape)

    def entries(self, points, ops):
        """Yield ((i, d), entry (i, d) of the values at points, (ne, nq)),
        one entry at a time: c_i x_d + (avg - c x_T)_id with c = div / 2."""
        return _affine_entries(*self._affine(ops), points)

    def block_values(self, blocks, ops):
        """Yield (block, values at its points, (nb, nq, 2, 2)) for each
        `ElementBlock`, the rows of `evaluate` bit for bit; the divergences
        and cell averages are computed once per call, not per block."""
        c, a = self._affine(ops)
        for block in blocks:
            entries = _affine_entries(c[block.rows], a[block.rows], block.points)
            yield block, _stacked(entries, block.points.shape)

    def _affine(self, ops):
        """(c, avg - c x_T), c = div / 2: row i on T is c_i x + (avg - c x_T)_i."""
        c = 0.5 * self.divergence(ops)
        cent = self.mesh.geometry()["centroids"]
        return c, self.cell_average(ops) - np.einsum("ni,nd->nid", c, cent)

    def cell_average(self, ops):
        """Row-wise cell averages: (ne, 2, 2), from the A of ops."""
        avg = ops.avg @ self.flux.T  # (2 ne, 2): rows (n, d)
        return avg.reshape(-1, 2, 2).transpose(0, 2, 1)

    def divergence(self, ops):
        """Row-wise divergences: (ne, 2), from the D of ops."""
        return ops.div @ self.flux.T


def _affine_entries(c, a, points):
    """Yield ((i, d), c_i x_d + a_id at points) for each entry (i, d)."""
    for i in range(2):
        for d in range(2):
            value = c[:, i, None] * points[..., d]
            value += a[:, None, i, d]
            yield (i, d), value


def _stacked(entries, shape):
    """The ((i, d), value) entries at points of the given shape as one array."""
    out = np.empty(shape + (2,))
    for (i, d), value in entries:
        out[..., i, d] = value
    return out


def _rt_local_factors(mesh):
    """Per-mesh factors of the RT basis: the (ne, 3) flux weights
    sign * |S_j| / (2 |T|) and the (ne, 3, 2) vertex opposite each local side.

    Row i of an RT field on T is sum_j weight_j * flux_i(S_j) * (x - opp_j).
    """

    def build():
        ls = mesh.geometry()["side_length"][mesh.element_sides]  # (ne, 3)
        coef = mesh.element_side_signs * ls / (2.0 * mesh.areas)[:, None]
        # vertex opposite local side j is vertex j+2
        return coef, mesh.vertices[mesh.elements[:, [2, 0, 1]]]

    return mesh.cached("rt_local", build)


class P1ConformingField:
    """Vertex-based conforming P1 vector field."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices, 2):
            raise ValueError("P1ConformingField values must have shape (nv, 2)")
        self.mesh = mesh
        self.values = values

    def gradient(self):
        """Element-wise constant gradient: (ne, 2, 2), entry (i, d) = d_d v_i."""
        vv = self.values[self.mesh.elements]  # (ne, 3, 2)
        return vv.transpose(0, 2, 1) @ self.mesh.geometry()["grad_lambda"]


# -- tensor helpers ----------------------------------------------------------


def dev(a, in_place=False):
    """Deviatoric (trace-free) part of 2x2 tensors, any leading shape.

    With in_place, a float array a is overwritten instead of copied.
    """
    a = np.asarray(a, dtype=float)
    tr = a[..., 0, 0] + a[..., 1, 1]
    out = a if in_place else a.copy()
    out[..., 0, 0] -= 0.5 * tr
    out[..., 1, 1] -= 0.5 * tr
    return out


def sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


# -- projections and interpolation -------------------------------------------


def pi0(values, degree=VOLUME_DEGREE):
    """Element-wise L2 projection onto constants: (ne,) + the value shape.

    values holds a field's values of shape (...,), (..., 2) or (..., 2, 2)
    at the points of `triangle_rule(degree)` on ne elements, such as those
    of one `ElementBlock` (as `problems.project_data` passes them).
    """
    w = triangle_rule(degree)[1]
    ne, nq = values.shape[:2]
    return (w @ values.reshape(ne, nq, -1)).reshape((ne,) + values.shape[2:])


def side_averages(f, mesh, sides=None):
    """Side averages of f over all sides, or the sides of an index array: (ns, ...)."""
    t, w = segment_rule(SIDE_POINTS)
    pts = side_points(mesh, t, sides)
    vals = np.asarray(f(pts), dtype=float)
    return np.einsum("q,sq...->s...", w, vals)


def cr_interpolate(v, mesh, stream=None, sides=None):
    """Canonical CR interpolant: side DOF = side average of v.

    With a scalar stream function, v = (d2 stream, -d1 stream), it is
    `divfree_cr_operator` applied to the stream's vertex values and the
    tangential parts of the side averages: the normal parts are endpoint
    differences of the stream, so the broken divergence vanishes to
    roundoff even for fields that quadrature does not capture well.

    With an index array sides, v is averaged over those sides only, and only
    their rows are bit for bit a full call's (a row of D reads only its own
    side's tangential part; the stream is evaluated at every vertex).
    """
    values = np.zeros((mesh.num_sides, 2))
    values[slice(None) if sides is None else sides] = side_averages(v, mesh, sides)
    if stream is not None:
        tang = np.einsum("si,si->s", values, mesh.geometry()["side_tangent"])
        phi = np.asarray(stream(mesh.vertices), dtype=float)
        values = (divfree_cr_operator(mesh) @ np.concatenate([phi, tang])).reshape(2, -1).T
    return CRField(mesh, values)


def rt_interpolate(tau, mesh):
    """Canonical RT interpolant: per-side, per-row normal-trace average."""
    avg = side_averages(tau, mesh)  # (ns, 2, 2)
    return RTField(mesh, np.einsum("sij,sj->is", avg, mesh.geometry()["side_normal"]))


def cr_basis_gradients(mesh):
    """Gradients of the three scalar CR basis functions per element: (ne, 3, 2).

    grad theta_j = -2 grad lambda_{j+2}.
    """
    return -2.0 * mesh.geometry()["grad_lambda"][:, [2, 0, 1], :]


def broken_gradient(v):
    """Element-wise gradient of a CR field, G @ v.dofs(), as an (ne, 2, 2) array."""
    return (cr_gradient_operator(v.mesh) @ v.dofs()).reshape(-1, 2, 2)


# theta_j at local vertex k: 1 - 2 [j == k + 1 mod 3]
_THETA_AT_VERTEX = 1.0 - 2.0 * np.eye(3)[[1, 2, 0]]


def cr_gradient_operator(mesh):
    """Broken gradient as a (4 ne, 2 ns) CSR matrix acting on `CRField.dofs`.

    Row 4 n + 2 i + d holds d_d v_i on element n, so G @ v.dofs() is
    broken_gradient(v).ravel().
    """
    return _gradient_operator(mesh, 2)


def _gradient_operator(mesh, ncomp):
    """Broken gradient of ncomp-component CR fields: (2 ncomp ne, ncomp ns) CSR.

    Row (n, i, d) holds d_d of component i on element n, and column
    i ns + s is component i of side s; a row has one entry per side of n.
    """
    ne, ns = mesh.num_elements, mesh.num_sides
    shape = (ne, ncomp, 2, 3)
    data = np.broadcast_to(cr_basis_gradients(mesh).transpose(0, 2, 1)[:, None], shape)
    cols = mesh.element_sides[:, None, None, :] + ns * np.arange(ncomp)[:, None, None]
    return sparse.csr_matrix(
        (data.ravel(), np.broadcast_to(cols, shape).ravel(), np.arange(0, data.size + 1, 3)),
        shape=(2 * ncomp * ne, ncomp * ns),
    )


def cr_jump_operator(mesh):
    """Side jumps of scalar CR fields as a (2 ns, ns) CSR matrix.

    Row 2 s + k is the jump at endpoint k of side s, in side_vertices order.
    Interior sides: the trace from the element the global normal points out
    of (side_elements slot 0) minus the trace from the other (slot 1).
    Boundary sides: the trace itself.  A row holds the three coefficients of
    each slot; on boundary sides those of slot 1 are zeros.
    """
    return _jump_rows(mesh, np.arange(mesh.num_sides))


def _jump_rows(mesh, sides):
    """The rows of `cr_jump_operator` at an array of sides: (2 m, ns) CSR."""
    elems = mesh.side_elements[sides]
    inner = elems[:, 1] >= 0
    # endpoint k is local vertex loc + k of the slot-0 element and loc + 1 - k
    # of the slot-1 element: ends[m, k, slot]
    ends = (mesh.side_local[sides][:, None, :] + np.array([[0, 1], [1, 0]])) % 3
    data = _THETA_AT_VERTEX[ends]  # (m, k, slot, j)
    data[:, :, 1] *= np.where(inner, -1.0, 0.0)[:, None, None]
    dofs = mesh.element_sides[np.where(inner[:, None], elems, elems[:, :1])]
    cols = np.broadcast_to(dofs[:, None], data.shape)
    return sparse.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, data.size + 1, 6)),
        shape=(2 * len(sides), mesh.num_sides),
    )


def curl_operator(mesh):
    """Side fluxes of rot phi = (d2 phi, -d1 phi) as an (ns, nv) CSR matrix.

    phi is a conforming P1 potential given by its vertex values.  Side s
    with endpoints (a, b) in side_vertices order has C[s, b] = 1/|S| and
    C[s, a] = -1/|S|: the mean normal trace of rot phi against the global
    side normal, the normal part of each column of `divfree_cr_operator`.
    C is the first map of the exact sequence P1 -> RT0 -> P0, so an RT row
    with fluxes C phi is divergence-free.
    """
    ns = mesh.num_sides
    inv = 1.0 / mesh.geometry()["side_length"]
    return sparse.csr_matrix(
        (np.stack([-inv, inv], axis=1).ravel(), mesh.side_vertices.ravel(),
         np.arange(0, 2 * ns + 1, 2)),
        shape=(ns, mesh.num_vertices),
    )


def divfree_cr_operator(mesh):
    """Divergence-free CR fields as a (2 ns, nv + ns) CSR matrix from
    (phi, psi), vertex potentials and then side tangential parts, to
    `CRField.dofs`: v(m_S) = (C phi)_S n_S + psi_S t_S, C the `curl_operator`.

    Row i ns + s holds -n_S,i/|S| and n_S,i/|S| at the side's endpoints, in
    side_vertices order, and t_S,i at column nv + s.  The element sum of
    |S| v . n telescopes, so every column is discretely divergence-free: the
    curl of a Morley potential (Griffiths, Math. Methods Appl. Sci. 1, 1979;
    Thomasset, 1981), for the Stokes kernel basis, the lift and the samples.
    """
    geo = mesh.geometry()
    nv, ns = mesh.num_vertices, mesh.num_sides
    normal = geo["side_normal"].T / geo["side_length"]
    data = np.stack([-normal, normal, geo["side_tangent"].T], axis=2)  # (2, ns, 3)
    cols = np.tile(np.column_stack([mesh.side_vertices, nv + np.arange(ns)]), (2, 1))
    return sparse.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, 6 * ns + 1, 3)), shape=(2 * ns, nv + ns)
    )


def rt_average_operator(mesh):
    """Cell averages of one RT row as a (2 ne, ns) CSR matrix on its fluxes.

    Row 2 n + d is component d of the average on element n: the sum over
    the element's sides of weight_j * flux(S_j) * (x_T - opp_j).  So
    (A @ t.flux[i]).reshape(-1, 2) is t.cell_average(ops)[:, i].
    """
    coef, opp = _rt_local_factors(mesh)
    data = coef[:, None, :] * (mesh.geometry()["centroids"][:, :, None]
                               - opp.transpose(0, 2, 1))  # (ne, d, j)
    return _element_side_rows(mesh, data)


def rt_divergence_operator(mesh):
    """Divergence of one RT row as an (ne, ns) CSR matrix on its fluxes.

    Row n holds 2 weight_j on the element's sides, so D @ t.flux[i] is
    t.divergence(ops)[:, i].
    """
    return _element_side_rows(mesh, 2.0 * _rt_local_factors(mesh)[0][:, None, :])


class MeshOperators:
    """The flux and gradient operators of one mesh, each built on first use
    and then shared by the callers the set is handed to.

    grad, avg and div are G, A and D (`cr_gradient_operator`,
    `rt_average_operator`, `rt_divergence_operator`); abs_div_h and abs_div
    are |div_h| (|G's trace rows|) and |D|, the weights of the terms that the
    admissibility residuals of `duality` measure against.  The solved system
    owns its mesh's set (`forms._LoadedSystem.ops`), the one place a set is
    built; held by the mesh, a set would keep the mesh alive in a reference
    cycle.
    """

    def __init__(self, mesh):
        self.mesh = mesh

    @cached_property
    def grad(self):
        return cr_gradient_operator(self.mesh)

    @cached_property
    def avg(self):
        return rt_average_operator(self.mesh)

    @cached_property
    def div(self):
        return rt_divergence_operator(self.mesh)

    @cached_property
    def abs_div_h(self):
        return abs(self.grad[0::4] + self.grad[3::4])

    @cached_property
    def abs_div(self):
        # abs sorts its operand's column indices in place, which would change
        # the summation order of every later product with D
        return abs(self.div.copy())


def _element_side_rows(mesh, data):
    """CSR matrix with rows (n, r) holding data[n, r, j] at side element_sides[n, j]."""
    cols = np.broadcast_to(mesh.element_sides[:, None, :], data.shape)
    return sparse.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, data.size + 1, 3)),
        shape=(data.shape[0] * data.shape[1], mesh.num_sides),
    )


def nodal_average(v, mesh, dirichlet_values=None):
    """Average a broken CR field to a conforming P1 field.

    Parameters
    ----------
    v : CRField
    dirichlet_values : callable or None
        Values imposed at every vertex on the closure of the Dirichlet
        boundary; the callable receives the (k, 2) vertex coordinates.  None
        imposes zeros (the homogeneous space).

    Interior and Neumann vertices receive the arithmetic mean over all
    adjacent elements of the local affine evaluated at the vertex.
    """
    nv = mesh.num_vertices
    verts = mesh.elements.ravel()
    vals = _THETA_AT_VERTEX @ v.values[mesh.element_sides]  # (ne, 3, 2) at the vertices
    out = np.stack([np.bincount(verts, vals[..., i].ravel(), nv) for i in (0, 1)], axis=1)
    out /= np.bincount(verts, minlength=nv)[:, None]

    dv = mesh.dirichlet_vertices()
    if dirichlet_values is None:
        out[dv] = 0.0
    else:
        out[dv] = np.asarray(dirichlet_values(mesh.vertices[dv]), dtype=float)
    return P1ConformingField(mesh, out)


# -- integrals ---------------------------------------------------------------


def norm_p0(mesh, values):
    """L2 norm of (ne, ...) element-wise constants (point-wise Frobenius norm)."""
    v = values.reshape(mesh.num_elements, -1)
    return float(np.sqrt(np.sum(mesh.areas * np.sum(v * v, axis=1))))
