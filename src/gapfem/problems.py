"""Benchmark problem definitions and exact-error evaluation.

Each problem bundles a mesh factory, boundary labeler, material constants,
load data, a divergence-free Dirichlet lift (Stokes), and optional exact
fields for error evaluation.  Loads are passed either as side tractions
(g evaluated with the outward normal) or as an element-wise tensor part F;
both enter the discrete load functional
l(v) = (f_h, Pi_h v) + (F_h, grad_h v) + sum_N (g_S, pi_h v)_S.
"""

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
from .quadrature import physical_points, segment_rule, side_points, triangle_rule
from .spaces import (
    broken_gradient,
    broken_sym_gradient,
    cr_interpolate,
    dev,
    pi0,
)

# quadrature degree of the element projections f_h = Pi_h f and F_h = Pi_h F
DATA_DEGREE = 10


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
    dirichlet_lift : callable
        Lift of the boundary datum (divergence-free for Stokes).
    grad_lift : callable or None
        Analytic gradient of the lift, used by the continuous indicators.
    lift_stream : callable or None
        Scalar stream function of the lift (makes the interpolated lift
        discretely divergence-free to machine precision).
    exact : dict or None
        Optional exact fields: 'u', 'grad_u', 'p' (Stokes), 'stress'.
    """

    def __init__(self, name, kind, mesh_factory, **kw):
        self.name = name
        self.kind = kind
        self.mesh_factory = mesh_factory
        self.nu = kw.pop("nu", None)
        self.material = kw.pop("material", None)
        self.f = kw.pop("f", None)
        self.big_f = kw.pop("big_f", None)
        self.g = kw.pop("g", None)
        self.dirichlet_lift = kw.pop("dirichlet_lift", None)
        self.grad_lift = kw.pop("grad_lift", None)
        self.lift_stream = kw.pop("lift_stream", None)
        self.exact = kw.pop("exact", None)
        if kw:
            raise TypeError(f"unknown ProblemSpec fields: {sorted(kw)}")


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

    def stress(x):
        g = _tg_grad_u(x)
        p = _tg_p(x)
        out = nu * g
        out[..., 0, 0] -= p
        out[..., 1, 1] -= p
        return out

    def f_pde(x):
        pi = np.pi
        u = _tg_u(x)
        x1, x2 = x[..., 0], x[..., 1]
        gp = np.stack(
            [-0.5 * pi * np.sin(2 * pi * x1), 0.5 * pi * np.cos(2 * pi * x2)],
            axis=-1,
        )
        return 2.0 * nu * pi**2 * u + gp

    exact = {"u": _tg_u, "grad_u": _tg_grad_u, "p": _tg_p, "stress": stress}
    common = dict(
        nu=nu,
        dirichlet_lift=_tg_u,
        grad_lift=_tg_grad_u,
        lift_stream=_tg_stream,
        exact=exact,
    )
    if load == "traction":
        return ProblemSpec(
            "taylor-green",
            "stokes",
            lambda: structured_square_mesh(n, labeler),
            f=f_pde,
            g=lambda x, nrm: np.einsum("...ij,...j->...i", stress(x), nrm),
            **common,
        )
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
    w = np.cos(1.5 * np.pi * alpha)
    ap, am = 1.0 + alpha, alpha - 1.0
    return (
        w / ap * np.sin(ap * theta)
        - np.cos(ap * theta)
        + w / (1.0 - alpha) * np.sin(am * theta)
        + np.cos(am * theta)
    )


def _lshape_dpsi(theta, alpha=_LSHAPE_ALPHA):
    w = np.cos(1.5 * np.pi * alpha)
    ap, am = 1.0 + alpha, alpha - 1.0
    return (
        w * np.cos(ap * theta)
        + ap * np.sin(ap * theta)
        - w * np.cos(am * theta)
        - am * np.sin(am * theta)
    )


def _lshape_d2psi(theta, alpha=_LSHAPE_ALPHA):
    w = np.cos(1.5 * np.pi * alpha)
    ap, am = 1.0 + alpha, alpha - 1.0
    return (
        -w * ap * np.sin(ap * theta)
        + ap**2 * np.cos(ap * theta)
        + w * am * np.sin(am * theta)
        - am**2 * np.cos(am * theta)
    )


def _lshape_d3psi(theta, alpha=_LSHAPE_ALPHA):
    w = np.cos(1.5 * np.pi * alpha)
    ap, am = 1.0 + alpha, alpha - 1.0
    return (
        -w * ap**2 * np.cos(ap * theta)
        - ap**3 * np.sin(ap * theta)
        + w * am**2 * np.cos(am * theta)
        + am**3 * np.sin(am * theta)
    )


def _polar(x):
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.arctan2(x[..., 1], x[..., 0])
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    return r, theta


def _lshape_u(x, alpha=_LSHAPE_ALPHA):
    r, theta = _polar(x)
    ra = r**alpha
    psi, dpsi = _lshape_psi(theta), _lshape_dpsi(theta)
    s, c = np.sin(theta), np.cos(theta)
    u1 = ra * ((1 + alpha) * psi * s + dpsi * c)
    u2 = ra * (dpsi * s - (1 + alpha) * psi * c)
    return np.stack([u1, u2], axis=-1)


def _lshape_stream(x, alpha=_LSHAPE_ALPHA):
    r, theta = _polar(x)
    return r ** (1.0 + alpha) * _lshape_psi(theta)


def _lshape_grad_u(x, alpha=_LSHAPE_ALPHA):
    """Gradient of the singular velocity via stream-function second derivatives."""
    r, theta = _polar(x)
    s, c = np.sin(theta), np.cos(theta)
    psi, dpsi = _lshape_psi(theta), _lshape_dpsi(theta)
    d2psi = _lshape_d2psi(theta)
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
    return (
        r ** (alpha - 1.0)
        / (alpha - 1.0)
        * ((1 + alpha) ** 2 * _lshape_dpsi(theta) + _lshape_d3psi(theta))
    )


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
    exact = {
        "u": _lshape_u,
        "grad_u": _lshape_grad_u,
        "p": _lshape_p,
        "stress": lambda x: _lshape_grad_u(x) - _pad_pressure(_lshape_p(x)),
    }

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
        dirichlet_lift=_lshape_u,
        grad_lift=_lshape_grad_u,
        lift_stream=_lshape_stream,
        exact=exact,
    )


def _pad_pressure(p):
    out = np.zeros(p.shape + (2, 2))
    out[..., 0, 0] = p
    out[..., 1, 1] = p
    return out


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
        dirichlet_lift=lambda x: np.zeros(x.shape),
        grad_lift=None,
        exact=None,
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

    def stress(x):
        eps = grad_u(x)
        eps = 0.5 * (eps + np.swapaxes(eps, -1, -2))
        return material.apply(eps)

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
        dirichlet_lift=u,
        grad_lift=grad_u,
        exact={"u": u, "grad_u": grad_u, "stress": stress},
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
    u_hat = cr_interpolate(problem.dirichlet_lift, mesh, stream=problem.lift_stream)
    return u_hat


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
    f_h = (
        pi0(problem.f, mesh, degree=DATA_DEGREE)
        if problem.f is not None
        else None
    )
    big_f_h = (
        pi0(problem.big_f, mesh, degree=DATA_DEGREE)
        if problem.big_f is not None
        else None
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
        dirichlet_datum=problem.dirichlet_lift,
    )
    u_h, report = system.solve()
    r_h = solve_lifting(
        mesh, u_h + u_hat, problem.material.mu,
        dirichlet_datum=problem.dirichlet_lift,
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
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    bary, w = triangle_rule(degree)
    pts = physical_points(mesh, bary)
    if problem.kind == "stokes":
        nu = solution.nu
        gu = problem.exact["grad_u"](pts)
        gh = broken_gradient(solution.u_h + solution.u_hat).values[:, None]
        diff = gh - gu
        primal = 0.5 * nu * np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, diff, diff)
        )
        sdiff = problem.exact["stress"](pts) - solution.t_h.evaluate(pts)
        big_f_h = solution.system.big_f_h
        if big_f_h is not None:
            sdiff = sdiff - big_f_h.values[:, None]
        if len(mesh.sides_with_label(NEUMANN)) == 0:
            # remove the pressure-gauge component c I
            tr_mean = np.sum(
                mesh.areas
                * np.einsum("q,nq->n", w, sdiff[..., 0, 0] + sdiff[..., 1, 1])
            ) / (2.0 * mesh.total_area)
            sdiff = sdiff.copy()
            sdiff[..., 0, 0] -= tr_mean
            sdiff[..., 1, 1] -= tr_mean
        dual = np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)
        ) / (2.0 * nu)
        ddev = dev(sdiff)
        dual_dev = np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, ddev, ddev)
        ) / (2.0 * nu)
        return {
            "primal": float(np.sqrt(primal)),
            "dual": float(np.sqrt(dual)),
            "dual_dev": float(np.sqrt(dual_dev)),
        }

    mat = problem.material
    gu = problem.exact["grad_u"](pts)
    eps_exact = 0.5 * (gu + np.swapaxes(gu, -1, -2))
    eps_h = broken_sym_gradient(solution.u_h + solution.u_hat).values[:, None]
    diff = eps_h - eps_exact
    energy = np.sum(
        mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(diff, diff))
    )
    energy += solution.system.s_h_total(solution.u_h + solution.u_hat)
    sdiff = solution.sigma_star.evaluate(pts) - problem.exact["stress"](pts)
    stress = np.sum(
        mesh.areas
        * np.einsum("q,nq->n", w, mat.complementary_product(sdiff, sdiff))
    )
    return {"energy": float(np.sqrt(energy)), "stress": float(np.sqrt(stress))}
