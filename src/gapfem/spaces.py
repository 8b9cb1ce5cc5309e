"""Piecewise-polynomial fields on a triangulation.

Four discrete spaces are provided:

* P0Field -- one value per element (scalar, 2-vector, or 2x2 tensor),
* CRField -- vector Crouzeix-Raviart: one 2-vector per side (midpoint value),
* RTField -- tensor lowest-order Raviart-Thomas: one normal flux per side
  and row, stored against the mesh's global side normal, together with the
  element-wise representation row_i(x) = a_i + c_i * x,
* P1ConformingField -- one 2-vector per vertex.

The scalar CR basis attached to local side j of an element is
theta_j = 1 - 2 lambda_{j+2} (lambda_k the barycentric coordinate of
vertex k), so theta_j is 1 on side j and has zero mean on the other two.
"""

import numpy as np

from .quadrature import physical_points, segment_rule, side_points, triangle_rule

# 8-point Gauss keeps side averages of smooth data well below the 1e-10
# tolerances of the structure-preservation contracts; 4 points is not enough
# on the coarse benchmark meshes
DEFAULT_SIDE_POINTS = 8
DEFAULT_VOLUME_DEGREE = 10


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
    global side normal.  The element-wise representation
    row_i|_T(x) = a[T, i] + c[T, i] * x is derived once at construction.
    """

    def __init__(self, mesh, flux):
        flux = np.asarray(flux, dtype=float)
        if flux.shape != (2, mesh.num_sides):
            raise ValueError("RTField flux must have shape (2, ns)")
        self.mesh = mesh
        self.flux = flux
        self._build_local()

    def _build_local(self):
        m = self.mesh
        geo = m.geometry()
        ne = m.num_elements
        es = m.element_sides  # (ne, 3)
        sg = m.element_side_signs.astype(float)
        ls = geo["side_length"][es]  # (ne, 3)
        coef = sg * ls / (2.0 * m.areas)[:, None]  # (ne, 3)
        # vertex opposite local side j is vertex j+2
        opp = m.vertices[m.elements[:, [2, 0, 1]]]  # (ne, 3, 2)
        f = self.flux[:, es]  # (2, ne, 3)
        self.c = np.einsum("int,nt->ni", f, coef)  # (ne, 2)
        self.a = -np.einsum("int,nt,ntd->nid", f, coef, opp)  # (ne, 2, 2)

    def evaluate(self, points):
        """Values at points of shape (ne, nq, 2) -> (ne, nq, 2, 2)."""
        out = np.einsum("ni,nqd->nqid", self.c, points)
        out += self.a[:, None, :, :]
        return out

    def cell_average(self):
        geo = self.mesh.geometry()
        cent = geo["centroids"]
        vals = self.a + np.einsum("ni,nd->nid", self.c, cent)
        return P0Field(self.mesh, vals)

    def divergence(self):
        return P0Field(self.mesh, 2.0 * self.c)

    def __add__(self, other):
        return RTField(self.mesh, self.flux + other.flux)

    def __sub__(self, other):
        return RTField(self.mesh, self.flux - other.flux)

    def __mul__(self, a):
        return RTField(self.mesh, a * self.flux)

    __rmul__ = __mul__


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
        grads = np.einsum("nki,nkd->nid", vv, geo["grad_lambda"])
        return P0Field(self.mesh, grads)

    def evaluate(self, bary):
        """Values at barycentric points: (ne, nq, 2)."""
        vv = self.values[self.mesh.elements]
        return np.einsum("qk,nki->nqi", bary, vv)


# -- tensor helpers ----------------------------------------------------------


def dev(a):
    """Deviatoric (trace-free) part of 2x2 tensors, any leading shape."""
    a = np.asarray(a, dtype=float)
    tr = a[..., 0, 0] + a[..., 1, 1]
    out = a.copy()
    out[..., 0, 0] -= 0.5 * tr
    out[..., 1, 1] -= 0.5 * tr
    return out


def sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


# -- projections and interpolation -------------------------------------------


def pi0(f, mesh, degree=DEFAULT_VOLUME_DEGREE):
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
    return P0Field(mesh, np.einsum("q,nq...->n...", w, vals))


def pi_side(f, mesh, s, npoints=DEFAULT_SIDE_POINTS):
    """Side average of f over side s."""
    t, w = segment_rule(npoints)
    pts = side_points(mesh, t, sides=np.array([s]))[0]
    vals = np.asarray(f(pts), dtype=float)
    return np.einsum("q,q...->...", w, vals)


def side_averages(f, mesh, npoints=DEFAULT_SIDE_POINTS):
    """Side averages of f over all sides: (ns, ...)."""
    t, w = segment_rule(npoints)
    pts = side_points(mesh, t)
    vals = np.asarray(f(pts), dtype=float)
    return np.einsum("q,sq...->s...", w, vals)


def cr_interpolate(v, mesh, npoints=DEFAULT_SIDE_POINTS, stream=None):
    """Canonical CR interpolant: side DOF = side average of v.

    When a scalar stream function with v = (d2 stream, -d1 stream) is
    supplied, the normal part of each side average is taken from the exact
    endpoint difference of the stream function, which makes the broken
    divergence of the interpolant vanish to machine precision even for
    fields that quadrature does not capture well.
    """
    avg = side_averages(v, mesh, npoints=npoints)
    if stream is not None:
        geo = mesh.geometry()
        sv = mesh.side_vertices
        phi = np.asarray(stream(mesh.vertices), dtype=float)
        ls = geo["side_length"]
        n = geo["side_normal"]
        tvec = (mesh.vertices[sv[:, 1]] - mesh.vertices[sv[:, 0]]) / ls[:, None]
        flux = (phi[sv[:, 1]] - phi[sv[:, 0]]) / ls  # mean of v . n
        tang = np.einsum("si,si->s", avg, tvec)
        avg = flux[:, None] * n + tang[:, None] * tvec
    return CRField(mesh, avg)


def rt_interpolate(tau, mesh, npoints=DEFAULT_SIDE_POINTS):
    """Canonical RT interpolant: per-side, per-row normal-trace average."""
    t, w = segment_rule(npoints)
    pts = side_points(mesh, t)
    vals = np.asarray(tau(pts), dtype=float)  # (ns, nq, 2, 2)
    geo = mesh.geometry()
    n = geo["side_normal"]
    flux = np.einsum("q,sqij,sj->is", w, vals, n)
    return RTField(mesh, flux)


def cr_basis_gradients(mesh):
    """Gradients of the three scalar CR basis functions per element: (ne, 3, 2).

    grad theta_j = -2 grad lambda_{j+2}.
    """
    return -2.0 * mesh.geometry()["grad_lambda"][:, [2, 0, 1], :]


def broken_gradient(v):
    """Element-wise gradient of a CR field as a P0 tensor field."""
    m = v.mesh
    vv = v.values[m.element_sides]  # (ne, 3, 2)
    grads = np.einsum("nti,ntd->nid", vv, cr_basis_gradients(m))
    return P0Field(m, grads)


def broken_sym_gradient(v):
    g = broken_gradient(v)
    return P0Field(v.mesh, sym(g.values))


def broken_divergence(v):
    g = broken_gradient(v)
    return P0Field(v.mesh, g.values[:, 0, 0] + g.values[:, 1, 1])


def _trace_coefficients(mesh, sides, slot):
    """Endpoint trace coefficients of the three CR basis functions.

    For each side in `sides` and the adjacent element in `slot` (0 primary,
    1 secondary), returns (dofs (m,3), coef (m,2,3)) such that the trace of
    the CR function at side endpoint k is sum_j coef[m,k,j] * value[dofs[m,j]].
    """
    elems = mesh.side_elements[sides, slot]
    loc = mesh.side_local[sides, slot]
    if slot == 0:
        lv0, lv1 = loc, (loc + 1) % 3
    else:
        lv0, lv1 = (loc + 1) % 3, loc
    # theta_j(vertex k) = 1 - 2 [j == k+1 mod 3]
    j = np.arange(3)
    coef0 = 1.0 - 2.0 * (j[None, :] == ((lv0 + 1) % 3)[:, None])
    coef1 = 1.0 - 2.0 * (j[None, :] == ((lv1 + 1) % 3)[:, None])
    return mesh.element_sides[elems], np.stack([coef0, coef1], axis=1)


def jump_eval(v, sides):
    """Jumps of a CR field across an array of sides at their endpoints.

    Returns (m, 2, 2): [m, k] is the jump at endpoint k of sides[m], in
    side_vertices order.  Interior sides: difference of traces ordered by
    the global normal (trace from the element the normal points out of,
    minus the other).  Boundary sides: the trace itself.
    """
    m = v.mesh
    sides = np.asarray(sides, dtype=np.int64)
    dofs, coef = _trace_coefficients(m, sides, 0)
    jump = np.einsum("mkj,mji->mki", coef, v.values[dofs])
    inner = m.side_elements[sides, 1] >= 0
    dofs, coef = _trace_coefficients(m, sides[inner], 1)
    jump[inner] -= np.einsum("mkj,mji->mki", coef, v.values[dofs])
    return jump


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
    acc = np.zeros((nv, 2))
    cnt = np.zeros(nv)
    vv = v.values[mesh.element_sides]  # (ne, 3, 2)
    total = vv.sum(axis=1)  # (ne, 2)
    for lv in range(3):
        verts = mesh.elements[:, lv]
        vals = total - 2.0 * vv[:, (lv + 1) % 3]
        np.add.at(acc, verts, vals)
        np.add.at(cnt, verts, 1.0)
    out = acc / cnt[:, None]

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


def inner_p0(f1, f2):
    v1 = f1.values.reshape(f1.mesh.num_elements, -1)
    v2 = f2.values.reshape(f2.mesh.num_elements, -1)
    return float(np.sum(f1.mesh.areas * np.sum(v1 * v2, axis=1)))

