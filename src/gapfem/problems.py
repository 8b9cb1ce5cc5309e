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
    marini_elasticity,
    marini_stokes,
)
from .forms import assemble_elasticity, assemble_stokes, solve_lifting
from .mesh import DIRICHLET, NEUMANN, build_triangulation, structured_square_mesh
from .quadrature import physical_points, rule_values, segment_rule, side_points, triangle_rule
from .spaces import (
    broken_gradient,
    broken_sym_gradient,
    cr_interpolate,
    dev,
    pi0,
    sym,
)

# quadrature degree of the element projections f_h = Pi_h f and F_h = Pi_h F
DATA_DEGREE = 10


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
        Analytic gradient of u; None means the problem has no exact
        solution (no exact errors are computed).
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
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = pi * np.cos(pi * x1) * np.cos(pi * x2)
    g[..., 0, 1] = -pi * np.sin(pi * x1) * np.sin(pi * x2)
    g[..., 1, 0] = pi * np.sin(pi * x1) * np.sin(pi * x2)
    g[..., 1, 1] = -pi * np.cos(pi * x1) * np.cos(pi * x2)
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


def _lshape_psi(theta, alpha=_LSHAPE_ALPHA):
    """Angular stream profile psi and its first three derivatives, from one
    sine and cosine each of (1 + alpha) theta and (alpha - 1) theta."""
    w = np.cos(1.5 * np.pi * alpha)
    ap, am = 1.0 + alpha, alpha - 1.0
    sp, cp = np.sin(ap * theta), np.cos(ap * theta)
    sm, cm = np.sin(am * theta), np.cos(am * theta)
    psi = w / ap * sp - cp + w / (1.0 - alpha) * sm + cm
    dpsi = w * cp + ap * sp - w * cm - am * sm
    d2psi = -w * ap * sp + ap**2 * cp + w * am * sm - am**2 * cm
    d3psi = -w * ap**2 * cp - ap**3 * sp + w * am**2 * cm + am**3 * sm
    return psi, dpsi, d2psi, d3psi


def _polar(x):
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.arctan2(x[..., 1], x[..., 0])
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    return r, theta


def _lshape_u(x, alpha=_LSHAPE_ALPHA):
    r, theta = _polar(x)
    ra = r**alpha
    psi, dpsi, _, _ = _lshape_psi(theta, alpha)
    s, c = np.sin(theta), np.cos(theta)
    u1 = ra * ((1 + alpha) * psi * s + dpsi * c)
    u2 = ra * (dpsi * s - (1 + alpha) * psi * c)
    return np.stack([u1, u2], axis=-1)


def _lshape_stream(x, alpha=_LSHAPE_ALPHA):
    r, theta = _polar(x)
    return r ** (1.0 + alpha) * _lshape_psi(theta, alpha)[0]


def _lshape_grad_u(x, alpha=_LSHAPE_ALPHA):
    """Gradient of the singular velocity via stream-function second derivatives."""
    r, theta = _polar(x)
    s, c = np.sin(theta), np.cos(theta)
    psi, dpsi, d2psi, _ = _lshape_psi(theta, alpha)
    ap = 1.0 + alpha
    ra1 = r ** (alpha - 1.0)
    f_rr = alpha * ap * ra1 * psi
    f_rt_r = ap * ra1 * dpsi        # f_rtheta / r
    f_tt_rr = ra1 * d2psi           # f_thetatheta / r^2
    f_r_r = ap * ra1 * psi          # f_r / r
    f_t_rr = ra1 * dpsi             # f_theta / r^2

    phi_xx = c * c * f_rr - 2 * s * c * f_rt_r + s * s * f_tt_rr \
        + s * s * f_r_r + 2 * s * c * f_t_rr
    phi_yy = s * s * f_rr + 2 * s * c * f_rt_r + c * c * f_tt_rr \
        + c * c * f_r_r - 2 * s * c * f_t_rr
    phi_xy = s * c * f_rr + (c * c - s * s) * f_rt_r - s * c * f_tt_rr \
        - s * c * f_r_r + (s * s - c * c) * f_t_rr

    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = phi_xy
    g[..., 0, 1] = phi_yy
    g[..., 1, 0] = -phi_xx
    g[..., 1, 1] = -phi_xy
    return g


def _lshape_p(x, alpha=_LSHAPE_ALPHA):
    r, theta = _polar(x)
    _, dpsi, _, d3psi = _lshape_psi(theta, alpha)
    return r ** (alpha - 1.0) / (alpha - 1.0) * ((1 + alpha) ** 2 * dpsi + d3psi)


def lshape_mesh(n_per_unit=4):
    """Structured triangulation of (-1,1)^2 minus the fourth quadrant."""
    n = n_per_unit
    h = 1.0 / n
    coords = {}
    vertices = []

    def vid(i, j):
        key = (i, j)
        if key not in coords:
            coords[key] = len(vertices)
            vertices.append((i * h, j * h))
        return coords[key]

    tris = []
    for i in range(-n, n):
        for j in range(-n, n):
            if i >= 0 and j < 0:
                continue  # the removed quadrant
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return build_triangulation(np.array(vertices), np.array(tris),
                               lambda mid: DIRICHLET)


def lshape_stokes(n_per_unit=2, prerefine=1):
    """Singular vortex on the L-shaped domain: zero load, nu = 1, Gamma_D = boundary.

    The initial 96-element mesh is built in two levels: a coarse grid with
    two cells per unit length, uniformly bisection-refined once, so the
    refinement-edge bookkeeping matches the bisection hierarchy used later.
    """
    def factory():
        from .adaptive import refine_marked_twice

        m = lshape_mesh(n_per_unit)
        for _ in range(prerefine):
            m = refine_marked_twice(m, range(m.num_elements))
        return m

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
    verts = []
    for i in range(nx + 1):
        xi = i / nx
        x = 0.48 * xi
        y_b = 0.44 * xi
        y_t = 0.44 + 0.16 * xi
        for j in range(ny + 1):
            verts.append((x, y_b + (y_t - y_b) * j / ny))

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))

    def labeler(mid):
        return DIRICHLET if abs(mid[0]) < 1e-12 else NEUMANN

    return build_triangulation(np.array(verts), np.array(tris), labeler)


def cook_membrane(nx=6, ny=10, gamma=0.01, mu=1.0, lam=5.0):
    """Cook's membrane: clamped left wall, shear traction on the right edge."""

    def traction(x, nrm):
        out = np.zeros(x.shape)
        on_right = np.abs(x[..., 0] - 0.48) < 1e-12
        out[..., 1] = np.where(on_right, gamma, 0.0)
        return out

    return ProblemSpec(
        "cook",
        "elasticity",
        lambda: cook_mesh(nx, ny),
        material=ElasticityTensor(mu, lam),
        f=None,
        g=traction,
        u=lambda x: np.zeros(x.shape),
    )


# -- manufactured elasticity -------------------------------------------------------


def manufactured_elasticity(kind="smooth", mu=1.0, lam=5.0, n=4):
    """Polynomial elasticity problems on the unit square, Gamma_D = boundary.

    kind='patch': quadratic displacement with element-wise constant load
    (zero data oscillation, so the reconstructed stress is exactly
    admissible); kind='smooth': cubic displacement with varying load.
    """
    material = ElasticityTensor(mu, lam)

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

    else:
        raise ValueError(f"unknown manufactured elasticity kind {kind!r}")

    # f = -div(C eps(u)) of the polynomial displacement, in closed form
    # (the test suite re-derives this symbolically as an oracle)
    if kind == "patch":

        def f(x):
            out = np.empty(x.shape)
            out[..., 0] = -(6.0 * mu + 3.0 * lam)
            out[..., 1] = 4.0 * mu + 2.0 * lam
            return out

    else:

        def f(x):
            return np.stack(
                [
                    -(8.0 * mu + 8.0 * lam) * x[..., 0] - 2.0 * mu,
                    -8.0 * mu * x[..., 1],
                ],
                axis=-1,
            )

    return ProblemSpec(
        f"elasticity-{kind}",
        "elasticity",
        lambda: structured_square_mesh(n, lambda mid: DIRICHLET),
        material=material,
        f=f,
        u=u,
        grad_u=grad_u,
    )


PROBLEMS = {
    "taylor-green": taylor_green_stokes,
    "lshape": lshape_stokes,
    "cook": cook_membrane,
}


def get_problem(name, **kw):
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}")
    return PROBLEMS[name](**kw)


# -- discretisation drivers --------------------------------------------------------


def interpolate_lift(problem, mesh):
    return cr_interpolate(problem.u, mesh, stream=problem.lift_stream)


def side_tractions(problem, mesh):
    """Side-wise constant tractions g_h = pi_h(g(., n)) on Neumann sides."""
    if problem.g is None:
        return None
    geo = mesh.geometry()
    t, w = segment_rule(8)
    pts = side_points(mesh, t)
    nrm = geo["side_normal"][:, None, :] + np.zeros_like(pts)
    vals = problem.g(pts, nrm)
    g_h = np.einsum("q,sqi->si", w, vals)
    g_h[mesh.side_labels != NEUMANN] = 0.0
    return g_h


def project_data(problem, mesh):
    """f_h = Pi_h f, F_h = Pi_h F (None where absent) and the side tractions g_h."""
    f_h, big_f_h = (
        None if f is None else pi0(rule_values(f, mesh, DATA_DEGREE), mesh, DATA_DEGREE)
        for f in (problem.f, problem.big_f)
    )
    return f_h, big_f_h, side_tractions(problem, mesh)


def discretize_stokes(problem, mesh):
    """Assemble, solve, and reconstruct the stress for a Stokes problem."""
    u_hat = interpolate_lift(problem, mesh)
    f_h, big_f_h, g_h = project_data(problem, mesh)
    system = assemble_stokes(mesh, problem.nu, u_hat, f_h, big_f_h, g_h)
    u_h, p_h, report = system.solve()
    t_h = marini_stokes(u_h, p_h, u_hat, f_h, problem.nu, mesh, big_f_h=big_f_h)
    return StokesSolution(mesh, problem.nu, u_h, p_h, t_h, u_hat, system, report)


def discretize_elasticity(problem, mesh):
    """Assemble, solve, lift, and reconstruct the stress for elasticity."""
    u_hat = interpolate_lift(problem, mesh)
    f_h, big_f_h, g_h = project_data(problem, mesh)
    system = assemble_elasticity(
        mesh, problem.material, u_hat, f_h, big_f_h, g_h,
        dirichlet_datum=problem.u,
    )
    u_h, report = system.solve()
    r_h = solve_lifting(
        mesh, u_h + u_hat, problem.material.mu,
        dirichlet_datum=problem.u,
    )
    sigma = marini_elasticity(
        u_h, u_hat, r_h, f_h, problem.material, mesh, big_f_h=big_f_h
    )
    return ElasticitySolution(
        mesh, problem.material, u_h, r_h, sigma, u_hat, system, report
    )


# -- exact errors -------------------------------------------------------------------


def exact_errors(solution, problem, mesh, degree=10):
    """Exact error measures against the problem's manufactured solution.

    Stokes: primal error sqrt(nu/2) || grad u_orig - grad_h(u_h + u_hat) ||
    (the total-field strong convexity measure) and dual error
    sqrt(1/(2 nu)) || stress_exact - T_h || with the affine reconstructed
    stress.  On pure-Dirichlet problems the stress error is minimised over
    the pressure gauge (constant multiples of the identity).

    Elasticity: energy error || u_h + u_hat - u_exact ||_h and complementary
    stress error || C^(-1/2)(sigma* - stress_exact) ||.
    """
    if problem.grad_u is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    w = triangle_rule(degree)[1]
    pts = physical_points(mesh, degree)
    gu = rule_values(problem.grad_u, mesh, degree)
    if problem.kind == "stokes":
        nu = solution.nu
        pv = None if problem.p is None else rule_values(problem.p, mesh, degree)
        gh = broken_gradient(solution.u_h + solution.u_hat).values[:, None]
        diff = gh - gu
        primal = 0.5 * nu * np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, diff, diff)
        )
        del diff  # keeps the peak memory at that of the stress terms
        sdiff = exact_stress(problem, gu, pv)
        sdiff -= solution.t_h.evaluate(pts)
        big_f_h = solution.system.big_f_h
        if big_f_h is not None:
            sdiff -= big_f_h.values[:, None]
        if len(mesh.sides_with_label(NEUMANN)) == 0:
            # remove the pressure-gauge component c I
            tr_mean = np.sum(
                mesh.areas
                * np.einsum("q,nq->n", w, sdiff[..., 0, 0] + sdiff[..., 1, 1])
            ) / (2.0 * mesh.total_area)
            sdiff[..., 0, 0] -= tr_mean
            sdiff[..., 1, 1] -= tr_mean
        dual = np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)
        ) / (2.0 * nu)
        # in place: a copy of sdiff would set the peak memory
        dev(sdiff, in_place=True)
        dual_dev = np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)
        ) / (2.0 * nu)
        return {
            "primal": float(np.sqrt(primal)),
            "dual": float(np.sqrt(dual)),
            "dual_dev": float(np.sqrt(dual_dev)),
        }

    mat = problem.material
    eps_exact = sym(gu)
    eps_h = broken_sym_gradient(solution.u_h + solution.u_hat).values[:, None]
    diff = eps_h - eps_exact
    energy = np.sum(
        mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(diff, diff))
    )
    energy += solution.system.s_h_total(solution.u_h + solution.u_hat)
    sdiff = solution.sigma_star.evaluate(pts) - exact_stress(problem, gu, None)
    stress = np.sum(
        mesh.areas
        * np.einsum("q,nq->n", w, mat.complementary_product(sdiff, sdiff))
    )
    return {"energy": float(np.sqrt(energy)), "stress": float(np.sqrt(stress))}
