"""Benchmark problem definitions and exact-error evaluation.

Each problem bundles a mesh factory, boundary labeler, material constants,
load data and one set of analytic fields: the Dirichlet lift u (the exact
solution when its gradient grad_u is given) and the Stokes pressure p.  The
exact stress is built from grad_u and p in one place, `exact_stress`.
Loads are passed either as side tractions (g evaluated with the outward
normal) or as an element-wise tensor part F; both enter the discrete load
functional
l(v) = (f_h, Pi_h v) + (F_h, grad_h v) + sum_N (g_S, pi_h v)_S.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .duality import (
    ElasticityTensor,
    ElasticitySolution,
    StokesSolution,
    gap_block_stokes,
    marini_elasticity,
    marini_stokes,
    oscillation_indicator,
)
from .forms import assemble_elasticity, assemble_stokes, solve_lifting
from .mesh import (
    DIRICHLET,
    NEUMANN,
    build_triangulation,
    grid_triangles,
    refine_marked_twice,
    structured_square_mesh,
)
from .quadrature import (SIDE_POINTS, VOLUME_DEGREE, _frozen, element_blocks,
                         joint_rule_values, physical_points, rule_values, segment_rule,
                         side_points, triangle_rule)
from .spaces import (
    CRField,
    broken_gradient,
    cr_gradient_operator,
    cr_interpolate,
    dev,
    norm_p0,
    pi0,
    rt_interpolate,
    sym,
)

@dataclass(eq=False)
class ProblemSpec:
    """Data bundle describing a benchmark problem.

    Attributes
    ----------
    kind : str
        'stokes' or 'elasticity'.
    mesh_factory : callable -> Triangulation
    nu : float (Stokes) / material : ElasticityTensor (elasticity)
    f, big_f : callables or None
        Interior load and tensor load part.
    g : callable(x, n) or None
        Neumann traction with outward normal.
    u : callable
        Lift of the boundary datum (divergence-free for Stokes).  When
        grad_u is set, u is also the exact solution.
    grad_u : callable or None
        Analytic gradient of u, for the exact errors and as the lift's
        gradient in the Stokes gap indicator.  None means no exact solution:
        no exact errors, and that indicator averages u_h + u_hat instead.
    p : callable or None
        Exact Stokes pressure; None means 0.
    lift_stream : callable or None
        Scalar stream function of the lift (makes the interpolated lift
        discretely divergence-free to machine precision).

    The exact stress is `exact_stress(problem, grad_u values, p values)`.
    """

    name: str
    kind: str
    mesh_factory: Callable
    nu: float | None = None
    material: ElasticityTensor | None = None
    f: Callable | None = None
    big_f: Callable | None = None
    g: Callable | None = None
    u: Callable | None = None
    grad_u: Callable | None = None
    p: Callable | None = None
    lift_stream: Callable | None = None


def exact_stress(problem, grad_u_values, p_values):
    """Exact stress from values of grad u (and p): nu grad u - p I or C eps(u).

    For Stokes, nu * grad u is formed first and p is then subtracted on the
    diagonal (p_values None means 0).
    """
    if problem.kind == "elasticity":
        return problem.material.apply(sym(grad_u_values))
    out = problem.nu * grad_u_values
    if p_values is not None:
        out[..., 0, 0] -= p_values
        out[..., 1, 1] -= p_values
    return out


# -- Taylor-Green vortex -------------------------------------------------------


def _tg_u(x):
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack(
        [np.sin(np.pi * x1) * np.cos(np.pi * x2),
         -np.cos(np.pi * x1) * np.sin(np.pi * x2)],
        axis=-1,
    )


def _tg_grad_u(x):
    pi = np.pi
    x1, x2 = x[..., 0], x[..., 1]
    # each product once, in the closed form's order; negation is exact
    cc = pi * np.cos(pi * x1) * np.cos(pi * x2)
    ss = pi * np.sin(pi * x1) * np.sin(pi * x2)
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = cc
    g[..., 0, 1] = -ss
    g[..., 1, 0] = ss
    g[..., 1, 1] = -cc
    return g


def _tg_p(x):
    x1, x2 = x[..., 0], x[..., 1]
    return 0.25 * (np.cos(2 * np.pi * x1) + np.sin(2 * np.pi * x2))


def _tg_stream(x):
    x1, x2 = x[..., 0], x[..., 1]
    return np.sin(np.pi * x1) * np.sin(np.pi * x2) / np.pi


def taylor_green_stokes(n=10, load="traction"):
    """Taylor-Green vortex on the unit square, nu = 1/2, mixed boundary.

    Dirichlet on the left/right walls, Neumann on top/bottom.  With
    load='traction' the Neumann datum is the exact stress traction
    (nu grad u - p I) n entering as side-wise constants; load='tensor'
    represents the same functional through an element-wise tensor part F
    (with f = -div(stress - F)), which the a priori identity requires.
    """
    nu = 0.5

    def labeler(mid):
        return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN

    def f_pde(x):
        pi = np.pi
        u = _tg_u(x)
        x1, x2 = x[..., 0], x[..., 1]
        gp = np.stack(
            [-0.5 * pi * np.sin(2 * pi * x1), 0.5 * pi * np.cos(2 * pi * x2)],
            axis=-1,
        )
        return 2.0 * nu * pi**2 * u + gp

    common = dict(nu=nu, u=_tg_u, grad_u=_tg_grad_u, p=_tg_p, lift_stream=_tg_stream)
    if load == "traction":

        def traction(x, nrm):
            stress = exact_stress(spec, _tg_grad_u(x), _tg_p(x))
            return np.einsum("...ij,...j->...i", stress, nrm)

        spec = ProblemSpec(
            "taylor-green",
            "stokes",
            lambda: structured_square_mesh(n, labeler),
            f=f_pde,
            g=traction,
            **common,
        )
        return spec
    if load == "tensor":
        pi = np.pi

        def big_f(x):
            # (stress - F) n = 0 on the Neumann walls for this diagonal F
            x1, x2 = x[..., 0], x[..., 1]
            phi = -nu * pi * np.cos(pi * x1) * np.cos(pi * x2) - _tg_p(x)
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = phi
            out[..., 1, 1] = phi
            return out

        def f_div(x):
            u = _tg_u(x)
            return nu * pi**2 * np.stack([3.0 * u[..., 0], u[..., 1]], axis=-1)

        return ProblemSpec(
            "taylor-green-tensor",
            "stokes",
            lambda: structured_square_mesh(n, labeler),
            f=f_div,
            big_f=big_f,
            **common,
        )
    raise ValueError(f"unknown load convention {load!r}")


# -- L-shape singular Stokes flow ------------------------------------------------

_LSHAPE_ALPHA = 856399.0 / 1572864.0


def _lshape_psi(theta):
    """Angular stream profile psi and its first three derivatives, from one
    sine and cosine each of (1 + alpha) theta and (alpha - 1) theta, with
    alpha = _LSHAPE_ALPHA."""
    w = np.cos(1.5 * np.pi * _LSHAPE_ALPHA)
    ap, am = 1.0 + _LSHAPE_ALPHA, _LSHAPE_ALPHA - 1.0
    sp, cp = np.sin(ap * theta), np.cos(ap * theta)
    sm, cm = np.sin(am * theta), np.cos(am * theta)
    psi = w / ap * sp - cp + w / (1.0 - _LSHAPE_ALPHA) * sm + cm
    dpsi = w * cp + ap * sp - w * cm - am * sm
    d2psi = -w * ap * sp + ap**2 * cp + w * am * sm - am**2 * cm
    d3psi = -w * ap**2 * cp - ap**3 * sp + w * am**2 * cm + am**3 * sm
    return psi, dpsi, d2psi, d3psi


def _polar(x):
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.arctan2(x[..., 1], x[..., 0])
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    return r, theta


def _lshape_u(x):
    r, theta = _polar(x)
    ra = r**_LSHAPE_ALPHA
    psi, dpsi, _, _ = _lshape_psi(theta)
    s, c = np.sin(theta), np.cos(theta)
    u1 = ra * ((1 + _LSHAPE_ALPHA) * psi * s + dpsi * c)
    u2 = ra * (dpsi * s - (1 + _LSHAPE_ALPHA) * psi * c)
    return np.stack([u1, u2], axis=-1)


def _lshape_stream(x):
    r, theta = _polar(x)
    return r ** (1.0 + _LSHAPE_ALPHA) * _lshape_psi(theta)[0]


def _lshape_grad_u(x):
    """Gradient of the singular velocity via stream-function second derivatives."""
    r, theta = _polar(x)
    return _lshape_gradient(r ** (_LSHAPE_ALPHA - 1.0), theta, _lshape_psi(theta))


def _lshape_p(x):
    r, theta = _polar(x)
    return _lshape_pressure(r ** (_LSHAPE_ALPHA - 1.0), _lshape_psi(theta))


def _lshape_grad_u_p(x):
    """(_lshape_grad_u(x), _lshape_p(x)) bit for bit, sharing `_polar` and `_lshape_psi`."""
    r, theta = _polar(x)
    ra1, profile = r ** (_LSHAPE_ALPHA - 1.0), _lshape_psi(theta)
    del r
    return _lshape_gradient(ra1, theta, profile), _lshape_pressure(ra1, profile)


def _lshape_gradient(ra1, theta, profile):  # ra1 = r^(alpha - 1)
    psi, dpsi, d2psi, _ = profile
    s, c = np.sin(theta), np.cos(theta)
    ss, cc, sc = s * s, c * c, s * c
    del s, c
    ap = 1.0 + _LSHAPE_ALPHA
    # g = [[phi_xy, phi_yy], [-phi_xx, -phi_xy]]: the phi are summed in its
    # slices one closed-form term f at a time, each f dropped once used
    g = np.empty(theta.shape + (2, 2))
    xx, yy, xy = g[..., 1, 0], g[..., 0, 1], g[..., 0, 0]
    f = _LSHAPE_ALPHA * ap * ra1 * psi  # f_rr
    np.multiply(cc, f, out=xx)
    np.multiply(ss, f, out=yy)
    np.multiply(sc, f, out=xy)
    f = ap * ra1 * dpsi  # f_rtheta / r
    xx -= 2 * sc * f
    yy += 2 * sc * f
    xy += (cc - ss) * f
    f = ra1 * d2psi  # f_thetatheta / r^2
    xx += ss * f
    yy += cc * f
    xy -= sc * f
    f = ap * ra1 * psi  # f_r / r
    xx += ss * f
    yy += cc * f
    xy -= sc * f
    f = ra1 * dpsi  # f_theta / r^2
    xx += 2 * sc * f
    yy -= 2 * sc * f
    xy += (ss - cc) * f
    np.negative(xx, out=xx)
    np.negative(xy, out=g[..., 1, 1])
    return g


def _lshape_pressure(ra1, profile):
    _, dpsi, _, d3psi = profile
    return ra1 / (_LSHAPE_ALPHA - 1.0) * ((1 + _LSHAPE_ALPHA) ** 2 * dpsi + d3psi)


# the (grad u, p) evaluators that share work between the two fields
_JOINT_GRAD_U_P = {(_lshape_grad_u, _lshape_p): _lshape_grad_u_p}


def lshape_mesh(n_per_unit):
    """Structured triangulation of (-1,1)^2 minus the fourth quadrant.

    The grid vertices are numbered in the order the cells first use them.
    """
    n = n_per_unit
    h = 1.0 / n
    # the cells (i, j) of the grid on [-1, 1]^2, shifted by n, less the
    # removed quadrant i >= n, j < n
    i, j = np.divmod(np.arange(4 * n * n), 2 * n)
    tris = grid_triangles(2 * n, 2 * n)[np.repeat((i < n) | (j >= n), 2)]
    used, first = np.unique(tris, return_index=True)
    used = used[np.argsort(first)]
    number = np.empty((2 * n + 1) ** 2, dtype=np.int64)
    number[used] = np.arange(len(used))
    gi, gj = np.divmod(used, 2 * n + 1)
    vertices = np.stack([(gi - n) * h, (gj - n) * h], axis=1)
    return build_triangulation(vertices, number[tris], lambda mid: DIRICHLET)


def lshape_stokes():
    """Singular vortex on the L-shaped domain: zero load, nu = 1, Gamma_D = boundary.

    The initial 96-element mesh is built in two levels: a coarse grid with
    two cells per unit length, uniformly bisection-refined once, so the
    refinement-edge bookkeeping matches the bisection hierarchy used later.
    """
    def factory():
        m = lshape_mesh(2)
        return refine_marked_twice(m, range(m.num_elements))

    return ProblemSpec(
        "lshape",
        "stokes",
        factory,
        nu=1.0,
        f=None,
        u=_lshape_u,
        grad_u=_lshape_grad_u,
        p=_lshape_p,
        lift_stream=_lshape_stream,
    )


# -- Cook's membrane --------------------------------------------------------------


def cook_mesh(nx=6, ny=10):
    """Mapped structured grid on the Cook trapezoid (0,0)-(.48,.44)-(.48,.6)-(0,.44)."""
    xi = np.arange(nx + 1) / nx
    y_b = 0.44 * xi
    y_t = 0.44 + 0.16 * xi
    y = y_b[:, None] + (y_t - y_b)[:, None] * np.arange(ny + 1) / ny
    verts = np.stack([np.repeat(0.48 * xi, ny + 1), y.ravel()], axis=1)

    def labeler(mid):
        return DIRICHLET if abs(mid[0]) < 1e-12 else NEUMANN

    return build_triangulation(verts, grid_triangles(nx, ny), labeler)


def cook_membrane(nx=6, ny=10):
    """Cook's membrane: clamped left wall, shear traction gamma = 0.01 on the
    right edge, mu = 1, lambda = 5."""

    def traction(x, nrm):
        out = np.zeros(x.shape)
        on_right = np.abs(x[..., 0] - 0.48) < 1e-12
        out[..., 1] = np.where(on_right, 0.01, 0.0)
        return out

    return ProblemSpec(
        "cook",
        "elasticity",
        lambda: cook_mesh(nx, ny),
        material=ElasticityTensor(1.0, 5.0),
        f=None,
        g=traction,
        u=lambda x: np.zeros(x.shape),
    )


# -- manufactured elasticity -------------------------------------------------------


def manufactured_elasticity(kind, n=4):
    """Polynomial elasticity problems on the unit square, Gamma_D = boundary,
    mu = 1, lambda = 5.

    kind='patch': quadratic displacement with element-wise constant load
    (zero data oscillation, so the reconstructed stress is exactly
    admissible); kind='smooth': cubic displacement with varying load.
    Each load is f = -div(C eps(u)) in closed form (the test suite
    re-derives it symbolically as an oracle).
    """
    mu, lam = 1.0, 5.0

    if kind == "patch":

        def u(x):
            x1, x2 = x[..., 0], x[..., 1]
            return np.stack([x1 * x1 + 0.5 * x2 * x2, x1 * x2 - x2 * x2], axis=-1)

        def grad_u(x):
            x1, x2 = x[..., 0], x[..., 1]
            g = np.empty(x.shape[:-1] + (2, 2))
            g[..., 0, 0] = 2 * x1
            g[..., 0, 1] = x2
            g[..., 1, 0] = x2
            g[..., 1, 1] = x1 - 2 * x2
            return g

        def f(x):
            out = np.empty(x.shape)
            out[..., 0] = -(6.0 * mu + 3.0 * lam)
            out[..., 1] = 4.0 * mu + 2.0 * lam
            return out

    elif kind == "smooth":

        def u(x):
            x1, x2 = x[..., 0], x[..., 1]
            return np.stack(
                [x1**3 - 3 * x1 * x2**2 + x2**2, x1**2 * x2 + x2**3], axis=-1
            )

        def grad_u(x):
            x1, x2 = x[..., 0], x[..., 1]
            g = np.empty(x.shape[:-1] + (2, 2))
            g[..., 0, 0] = 3 * x1**2 - 3 * x2**2
            g[..., 0, 1] = -6 * x1 * x2 + 2 * x2
            g[..., 1, 0] = 2 * x1 * x2
            g[..., 1, 1] = x1**2 + 3 * x2**2
            return g

        def f(x):
            return np.stack(
                [
                    -(8.0 * mu + 8.0 * lam) * x[..., 0] - 2.0 * mu,
                    -8.0 * mu * x[..., 1],
                ],
                axis=-1,
            )

    else:
        raise ValueError(f"unknown manufactured elasticity kind {kind!r}")

    return ProblemSpec(
        f"elasticity-{kind}",
        "elasticity",
        lambda: structured_square_mesh(n, lambda mid: DIRICHLET),
        material=ElasticityTensor(mu, lam),
        f=f,
        u=u,
        grad_u=grad_u,
    )


PROBLEMS = {
    "taylor-green": taylor_green_stokes,
    "lshape": lshape_stokes,
    "cook": cook_membrane,
}


def get_problem(name):
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}")
    return PROBLEMS[name]()


# -- discretisation drivers --------------------------------------------------------


def interpolate_lift(problem, mesh):
    """The lift's `cr_interpolate`, cached on the mesh (the solution holds the
    array): u is averaged only over the sides a refinement did not carry."""
    key = ("lift", problem.u, problem.lift_stream)
    return CRField(mesh, mesh.cached(key, lambda: _frozen(cr_interpolate(
        problem.u, mesh, problem.lift_stream, mesh.pop_cached(("carried",) + key)).values)))


def side_tractions(problem, mesh):
    """Side-wise constant tractions g_h = pi_h(g(., n)) on Neumann sides, zero
    elsewhere, cached on the mesh like the lift: g is evaluated only on the
    Neumann sides a refinement did not carry."""
    if problem.g is None:
        return None

    def build():
        g_h, fresh = np.zeros((mesh.num_sides, 2)), mesh.side_labels == NEUMANN
        mesh.pop_carried(("tractions", problem.g), g_h, fresh)
        neumann = np.flatnonzero(fresh)
        t, w = segment_rule(SIDE_POINTS)
        pts = side_points(mesh, t, sides=neumann)
        nrm = mesh.geometry()["side_normal"][neumann][:, None, :] + np.zeros_like(pts)
        g_h[neumann] = np.einsum("q,sqi->si", w, problem.g(pts, nrm))
        return _frozen(g_h)

    return mesh.cached(("tractions", problem.g), build)


def project_data(problem, mesh):
    """f_h = Pi_h f and F_h = Pi_h F (None where absent), the side tractions
    g_h and the data oscillation (`oscillation_indicator`), in one pass over
    `element_blocks` that evaluates f and F once per element.

    The element rows of f_h, F_h and the oscillation are one array, cached
    on the mesh under ("projection", f, F), so that `mesh.refine_bisection`
    carries the rows of the elements it copies with their vertex row
    unchanged, as it does for `quadrature.rule_values`: their points, and so
    their rows, are the parent's bit for bit, and f and F are evaluated only
    at the other elements.  The returned arrays are read-only views of it.
    """
    ne = mesh.num_elements
    g_h = side_tractions(problem, mesh)
    if problem.f is None and problem.big_f is None:
        return None, None, g_h, np.zeros(ne)
    data = mesh.cached(("projection", problem.f, problem.big_f),
                       lambda: _projected_rows(problem, mesh))
    return (*_projection_views(problem, data), g_h, data[:, -1])


def _projection_views(problem, data):
    """f_h and F_h (None where absent) in a ("projection", f, F) array, whose
    columns are f_h (two, with f), F_h (four, with F) and the oscillation."""
    f_h = None if problem.f is None else data[:, :2]
    big_f_h = None if problem.big_f is None else data[:, -5:-1].reshape(-1, 2, 2)
    return f_h, big_f_h


def _projected_rows(problem, mesh):
    """The ("projection", f, F) array of `project_data`: the carried rows,
    and f and F evaluated block by block at the other elements."""
    ne = mesh.num_elements
    data = np.empty((ne, 1 + 2 * (problem.f is not None) + 4 * (problem.big_f is not None)))
    f_h, big_f_h = _projection_views(problem, data)
    fresh = np.ones(ne, dtype=bool)
    mesh.pop_carried(("projection", problem.f, problem.big_f), data, fresh)
    rows = None if fresh.all() else np.flatnonzero(fresh)
    for block in element_blocks(mesh, VOLUME_DEGREE, rows):
        fv, big_fv = (None if f is None else np.asarray(f(block.points), dtype=float)
                      for f in (problem.f, problem.big_f))
        for values, out in ((fv, f_h), (big_fv, big_f_h)):
            if values is not None:
                out[block.rows] = pi0(values, mesh)
        data[block.rows, -1] = oscillation_indicator(fv, f_h, big_fv, big_f_h, block)
    return _frozen(data)


def discretize_stokes(problem, mesh):
    """Assemble, solve, and reconstruct the stress for a Stokes problem."""
    u_hat = interpolate_lift(problem, mesh)
    f_h, big_f_h, g_h, osc = project_data(problem, mesh)
    system = assemble_stokes(mesh, problem.nu, u_hat, f_h, big_f_h, g_h)
    u_h, p_h, report = system.solve()
    grad_h = broken_gradient(u_h + u_hat)
    t_h = marini_stokes(system, grad_h, p_h)
    return StokesSolution(system, u_h, p_h, grad_h, t_h, osc, report)


def discretize_elasticity(problem, mesh):
    """Assemble, solve, lift, and reconstruct the stress for elasticity."""
    u_hat = interpolate_lift(problem, mesh)
    f_h, big_f_h, g_h, osc = project_data(problem, mesh)
    system = assemble_elasticity(
        mesh, problem.material, u_hat, f_h, big_f_h, g_h,
        dirichlet_datum=problem.u,
    )
    u_h, report = system.solve()
    u_total = u_h + u_hat
    r_h = solve_lifting(system, u_total)
    # both broken gradients from one build of the operator
    grad = cr_gradient_operator(mesh)
    grad_h = (grad @ u_total.dofs()).reshape(-1, 2, 2)
    grad_r = (grad @ r_h.dofs()).reshape(-1, 2, 2)
    sigma = marini_elasticity(system, grad_h, grad_r)
    return ElasticitySolution(system, u_h, r_h, grad_h, grad_r, sigma, osc, report)


# -- a priori identity --------------------------------------------------------------


def apriori_identity_check_stokes(problem, mesh):
    """Evaluate both sides of the a priori error identity on one mesh.

    Requires a Stokes problem in tensor-load form (exact stress T, tensor
    part F with (T - F) n = 0 on the Neumann boundary, f = -div(T - F)).
    The discrete problem is solved with f_h = Pi_h f, F_h = Pi_h F and the
    interpolated lift; returns a dict with lhs, rhs and the solution bundle.
    """
    sol = discretize_stokes(problem, mesh)
    nu, ops = problem.nu, sol.system.ops

    # the exact velocity is the lift itself, so I_cr(u - u_hat) = 0
    lhs1 = 0.5 * nu * norm_p0(mesh, broken_gradient(sol.u_h)) ** 2

    def t_minus_f(x):
        p = None if problem.p is None else problem.p(x)
        return exact_stress(problem, problem.grad_u(x), p) - problem.big_f(x)

    irt = rt_interpolate(t_minus_f, mesh)
    pi_irt = dev(irt.cell_average(ops))
    # sol.t_h already stores the stress relative to F_h
    pi_th = dev(sol.t_h.cell_average(ops))
    lhs2 = norm_p0(mesh, pi_irt - pi_th) ** 2 / (2.0 * nu)

    # a rule above the data's degree, so the projection error stays negligible
    pi_exact = pi0(t_minus_f, mesh, degree=14)
    rhs = norm_p0(mesh, dev(pi_exact) - pi_irt) ** 2 / (2.0 * nu)
    return {"lhs": lhs1 + lhs2, "lhs_primal": lhs1, "lhs_dual": lhs2, "rhs": rhs,
            "solution": sol}


# -- exact errors -------------------------------------------------------------------


def exact_errors(solution, problem):
    """Exact error measures against the problem's manufactured solution.

    Stokes: primal error sqrt(nu/2) || grad u_orig - grad_h(u_h + u_hat) ||
    (the total-field strong convexity measure) and dual error
    sqrt(1/(2 nu)) || stress_exact - T_h || with the affine reconstructed
    stress.  On pure-Dirichlet problems the stress error is minimised over
    the pressure gauge (constant multiples of the identity).  The adaptive
    estimate computes the same numbers with the gap indicator in one pass,
    `estimate_stokes`.

    Elasticity: energy error || u_h + u_hat - u_exact ||_h and complementary
    stress error || C^(-1/2)(sigma* - stress_exact) ||.

    The A and D of the stress values are the solved system's (`ops`).
    """
    if problem.grad_u is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    if problem.kind == "stokes":
        return _stokes_errors(solution, problem, lambda *block: None)

    mesh, ops = solution.mesh, solution.system.ops
    w = triangle_rule(VOLUME_DEGREE)[1]
    gu = rule_values(problem.grad_u, mesh, VOLUME_DEGREE)
    pts = physical_points(mesh, VOLUME_DEGREE)
    mat = problem.material
    eps_exact = sym(gu)
    eps_h = sym(solution.grad_h)[:, None]
    diff = eps_h - eps_exact
    energy = np.sum(
        mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(diff, diff))
    )
    energy += solution.system.s_h_total(solution.u_h + solution.u_hat)
    sdiff = solution.sigma_star.evaluate(pts, ops) - exact_stress(problem, gu, None)
    stress = np.sum(
        mesh.areas
        * np.einsum("q,nq->n", w, mat.complementary_product(sdiff, sdiff))
    )
    return {"energy": float(np.sqrt(energy)), "stress": float(np.sqrt(stress))}


def estimate_stokes(solution, problem, v):
    """`gap_indicator_stokes(solution.system, v, solution.t_h, problem.grad_u)`
    and `exact_errors(solution, problem)` of a Stokes problem with an exact
    solution, from one `element_blocks` pass: the gap (`gap_block_stokes`)
    overwrites each block's stress values once the stress error has read
    them.  Returns (gap, errors)."""
    system, mesh = solution.system, solution.mesh
    grad_v = v.gradient()
    gap = np.empty(mesh.num_elements)

    def gap_block(rows, t_h, grad_hat):
        gap[rows] = gap_block_stokes(system, grad_v, grad_hat, rows, t_h)

    return gap, _stokes_errors(solution, problem, gap_block)


def _stokes_errors(solution, problem, then):
    """The Stokes `exact_errors`: the element-wise terms one element block at
    a time, summed over the mesh at the end.  then(rows, t_h, gu) is handed
    each block's stress values (`RTField.block_values`), which it may
    overwrite once the stress error has read them, and the grad u values;
    grad u and p come from one pass of a joint evaluator (`_JOINT_GRAD_U_P`)."""
    mesh, nu, big_f_h = solution.mesh, solution.nu, solution.system.big_f_h
    w = triangle_rule(VOLUME_DEGREE)[1]
    grad_u, p = problem.grad_u, problem.p
    joint = _JOINT_GRAD_U_P.get((grad_u, p)) or (lambda x: (grad_u(x), p(x)))
    gu, pv = ((rule_values(grad_u, mesh, VOLUME_DEGREE), None) if p is None
              else joint_rule_values((grad_u, p), joint, mesh, VOLUME_DEGREE))

    def stress_errors():
        blocks = element_blocks(mesh, VOLUME_DEGREE)
        for block, t_h in solution.t_h.block_values(blocks, solution.system.ops):
            rows = block.rows
            sdiff = exact_stress(problem, gu[rows], None if pv is None else pv[rows])
            sdiff -= t_h
            if big_f_h is not None:
                sdiff -= big_f_h[rows, None]
            then(rows, t_h, gu)
            yield rows, sdiff

    errors, tr_mean = stress_errors(), 0.0
    if len(mesh.sides_with_label(NEUMANN)) == 0:
        # a first pass finds the pressure-gauge shift c I, so the blocks
        # are kept for the second: every one is read twice
        errors, tr = list(errors), np.empty(mesh.num_elements)
        for rows, sdiff in errors:
            tr[rows] = np.einsum("q,nq->n", w, sdiff[..., 0, 0] + sdiff[..., 1, 1])
        tr_mean = np.sum(mesh.areas * tr) / (2.0 * mesh.total_area)
    terms = np.empty((3, mesh.num_elements))  # primal, dual, dual_dev
    for rows, sdiff in errors:
        diff = solution.grad_h[rows, None] - gu[rows]
        terms[0, rows] = np.einsum("q,nqij,nqij->n", w, diff, diff)
        sdiff[..., 0, 0] -= tr_mean
        sdiff[..., 1, 1] -= tr_mean
        terms[1, rows] = np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)
        dev(sdiff, in_place=True)
        terms[2, rows] = np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)
    primal, dual, dual_dev = np.sum(mesh.areas * terms, axis=1)
    return {
        "primal": float(np.sqrt(0.5 * nu * primal)),
        "dual": float(np.sqrt(dual / (2.0 * nu))),
        "dual_dev": float(np.sqrt(dual_dev / (2.0 * nu))),
    }
