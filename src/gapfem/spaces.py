"""Piecewise-polynomial fields on a triangulation.

Four discrete spaces are provided:

* P0Field -- one value per element (scalar, 2-vector, or 2x2 tensor),
* CRField -- vector Crouzeix-Raviart: one 2-vector per side (midpoint value),
* RTField -- tensor lowest-order Raviart-Thomas: one normal flux per side
  and row, stored against the mesh's global side normal,
* P1ConformingField -- one 2-vector per vertex.

The scalar CR basis attached to local side j of an element is
theta_j = 1 - 2 lambda_{j+2} (lambda_k the barycentric coordinate of
vertex k), so theta_j is 1 on side j and has zero mean on the other two.

Each derived value of a field comes from the one sparse operator that
defines it: broken CR gradients from G (`cr_gradient_operator`), RT cell
averages and divergences from A and D (`rt_average_operator`,
`rt_divergence_operator`), and RT point values from those two.
"""

import numpy as np
import scipy.sparse as sparse

from .quadrature import (SIDE_POINTS, VOLUME_DEGREE, physical_points, segment_rule,
                         side_points, triangle_rule)


class P0Field:
    """Element-wise constant field; values has shape (ne,), (ne,2) or (ne,2,2)."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.num_elements:
            raise ValueError("one value per element required")
        self.mesh = mesh
        self.values = values


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

    def __sub__(self, other):
        return CRField(self.mesh, self.values - other.values)

    def __mul__(self, a):
        return CRField(self.mesh, a * self.values)

    __rmul__ = __mul__


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

    def evaluate(self, points):
        """Values at points of shape (ne, nq, 2) -> (ne, nq, 2, 2)."""
        out = np.empty(points.shape + (2,))
        for (i, d), value in self.entries(points):
            out[..., i, d] = value
        return out

    def entries(self, points):
        """Yield ((i, d), entry (i, d) of the values at points, (ne, nq)),
        one entry at a time: c_i x_d + (avg - c x_T)_id with c = div / 2."""
        c = 0.5 * self.divergence().values
        cent = self.mesh.geometry()["centroids"]
        a = self.cell_average().values - np.einsum("ni,nd->nid", c, cent)
        for i in range(2):
            for d in range(2):
                value = c[:, i, None] * points[..., d]
                value += a[:, None, i, d]
                yield (i, d), value

    def cell_average(self):
        avg = rt_average_operator(self.mesh) @ self.flux.T  # (2 ne, 2): rows (n, d)
        return P0Field(self.mesh, avg.reshape(-1, 2, 2).transpose(0, 2, 1))

    def divergence(self):
        return P0Field(self.mesh, rt_divergence_operator(self.mesh) @ self.flux.T)

    def __add__(self, other):
        return RTField(self.mesh, self.flux + other.flux)

    def __sub__(self, other):
        return RTField(self.mesh, self.flux - other.flux)

    def __mul__(self, a):
        return RTField(self.mesh, a * self.flux)

    __rmul__ = __mul__


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
        """Element-wise constant gradient as a P0 tensor field."""
        geo = self.mesh.geometry()
        vv = self.values[self.mesh.elements]  # (ne, 3, 2)
        grads = vv.transpose(0, 2, 1) @ geo["grad_lambda"]
        return P0Field(self.mesh, grads)


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


def pi0(f, mesh, degree=VOLUME_DEGREE):
    """Element-wise L2 projection onto constants.

    Parameters
    ----------
    f : callable or ndarray
        Maps an (..., 2) point array to values of shape (...,), (..., 2) or
        (..., 2, 2); a callable is evaluated on every call.  An array holds
        those values at `physical_points(mesh, degree)` already, e.g. from
        `rule_values` for a field evaluated more than once per mesh.
    degree : int
        Quadrature degree used for the element averages.
    """
    vals = f if isinstance(f, np.ndarray) else f(physical_points(mesh, degree))
    w = triangle_rule(degree)[1]
    ne, nq = vals.shape[:2]
    return P0Field(mesh, (w @ vals.reshape(ne, nq, -1)).reshape((ne,) + vals.shape[2:]))


def side_averages(f, mesh):
    """Side averages of f over all sides: (ns, ...)."""
    t, w = segment_rule(SIDE_POINTS)
    pts = side_points(mesh, t)
    vals = np.asarray(f(pts), dtype=float)
    return np.einsum("q,sq...->s...", w, vals)


def cr_interpolate(v, mesh, stream=None):
    """Canonical CR interpolant: side DOF = side average of v.

    With a scalar stream function, v = (d2 stream, -d1 stream), it is
    `divfree_cr_operator` applied to the stream's vertex values and the
    tangential parts of the side averages: the normal parts are endpoint
    differences of the stream, so the broken divergence vanishes to
    roundoff even for fields that quadrature does not capture well.
    """
    avg = side_averages(v, mesh)
    if stream is not None:
        tang = np.einsum("si,si->s", avg, mesh.geometry()["side_tangent"])
        phi = np.asarray(stream(mesh.vertices), dtype=float)
        avg = (divfree_cr_operator(mesh) @ np.concatenate([phi, tang])).reshape(2, -1).T
    return CRField(mesh, avg)


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
    """Element-wise gradient of a CR field as a P0 tensor field: G @ v.dofs()."""
    return P0Field(v.mesh, (cr_gradient_operator(v.mesh) @ v.dofs()).reshape(-1, 2, 2))


def broken_sym_gradient(v):
    g = broken_gradient(v)
    return P0Field(v.mesh, sym(g.values))


def broken_divergence(v):
    g = broken_gradient(v)
    return P0Field(v.mesh, g.values[:, 0, 0] + g.values[:, 1, 1])


# theta_j at local vertex k: 1 - 2 [j == k + 1 mod 3]
_THETA_AT_VERTEX = 1.0 - 2.0 * np.eye(3)[[1, 2, 0]]


def cr_gradient_operator(mesh):
    """Broken gradient as a (4 ne, 2 ns) CSR matrix acting on `CRField.dofs`.

    Row 4 n + 2 i + d holds d_d v_i on element n, so G @ v.dofs() is
    broken_gradient(v).values.ravel().
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
    (A @ t.flux[i]).reshape(-1, 2) is t.cell_average().values[:, i].
    """
    coef, opp = _rt_local_factors(mesh)
    data = coef[:, None, :] * (mesh.geometry()["centroids"][:, :, None]
                               - opp.transpose(0, 2, 1))  # (ne, d, j)
    return _element_side_rows(mesh, data)


def rt_divergence_operator(mesh):
    """Divergence of one RT row as an (ne, ns) CSR matrix on its fluxes.

    Row n holds 2 weight_j on the element's sides, so D @ t.flux[i] is
    t.divergence().values[:, i].
    """
    return _element_side_rows(mesh, 2.0 * _rt_local_factors(mesh)[0][:, None, :])


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


def norm_p0(field):
    """L2 norm of a P0 field (Frobenius norm point-wise for tensors)."""
    v = field.values.reshape(field.mesh.num_elements, -1)
    return float(np.sqrt(np.sum(field.mesh.areas * np.sum(v * v, axis=1))))
