import numpy as np
import pytest
from test_forms import div_h

from gapfem import DIRICHLET, NEUMANN
from gapfem import problems, quadrature
from gapfem.adaptive import _estimate, mark_max, refine_marked_twice
from gapfem.duality import gap_indicator_stokes
from gapfem.problems import (
    cook_membrane,
    discretize_elasticity,
    discretize_stokes,
    estimate_stokes,
    exact_errors,
    exact_stress,
    get_problem,
    interpolate_lift,
    lshape_stokes,
    manufactured_elasticity,
    project_data,
    side_tractions,
    taylor_green_stokes,
)
from gapfem.quadrature import (BLOCK_ELEMENTS, element_blocks, physical_points, segment_rule,
                               side_points, triangle_rule)
from gapfem.spaces import MeshOperators, broken_gradient, dev, nodal_average, pi0


class TestTaylorGreen:
    def test_divergence_free_velocity(self):
        prob = taylor_green_stokes()
        pts = physical_points(prob.mesh_factory(), 10)
        g = prob.grad_u(pts)
        assert np.abs(g[..., 0, 0] + g[..., 1, 1]).max() < 1e-12

    def test_load_against_symbolic_oracle(self):
        import sympy as sy

        x1, x2 = sy.symbols("x1 x2")
        nu = sy.Rational(1, 2)
        u1 = sy.sin(sy.pi * x1) * sy.cos(sy.pi * x2)
        u2 = -sy.cos(sy.pi * x1) * sy.sin(sy.pi * x2)
        p = (sy.cos(2 * sy.pi * x1) + sy.sin(2 * sy.pi * x2)) / 4
        f1 = -nu * (sy.diff(u1, x1, 2) + sy.diff(u1, x2, 2)) + sy.diff(p, x1)
        f2 = -nu * (sy.diff(u2, x1, 2) + sy.diff(u2, x2, 2)) + sy.diff(p, x2)
        oracle = sy.lambdify((x1, x2), (f1, f2))
        prob = taylor_green_stokes()
        pts = np.array([[0.25, 0.25], [0.8, 0.3], [0.1, 0.9]])
        ours = prob.f(pts)
        for k, (px, py) in enumerate(pts):
            assert np.allclose(ours[k], oracle(px, py), atol=1e-12)

    def test_pressure_mean_zero(self):
        prob = taylor_green_stokes()
        mesh = prob.mesh_factory()
        w = triangle_rule(10)[1]
        pts = physical_points(mesh, 10)
        mean = np.sum(mesh.areas * np.einsum("q,nq->n", w, prob.p(pts)))
        assert abs(mean) < 1e-12

    def test_pde_residual_random_points(self):
        # -nu lap u + grad p - f = 0 at 20 random interior points, finite
        # differences as an independent check of the coded derivatives
        prob = taylor_green_stokes()
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.1, 0.9, (20, 2))
        h = 1e-5
        nu = prob.nu
        lap = np.zeros((20, 2))
        gp = np.zeros((20, 2))
        for j, e in enumerate(np.eye(2)):
            lap += (
                prob.u(pts + h * e)
                - 2 * prob.u(pts)
                + prob.u(pts - h * e)
            ) / h**2
            gp[:, j] = (prob.p(pts + h * e) - prob.p(pts - h * e)) / (
                2 * h
            )
        res = -nu * lap + gp - prob.f(pts)
        assert np.abs(res).max() < 1e-5

    def test_grad_u_equals_former_expression(self):
        # pi cos cos and pi sin sin are formed once each, bit for bit as the
        # four closed-form entries were
        pi = np.pi
        x = np.random.default_rng(5).uniform(-3.0, 3.0, (400, 25, 2))
        x1, x2 = x[..., 0], x[..., 1]
        former = np.stack([
            pi * np.cos(pi * x1) * np.cos(pi * x2),
            -pi * np.sin(pi * x1) * np.sin(pi * x2),
            pi * np.sin(pi * x1) * np.sin(pi * x2),
            -pi * np.cos(pi * x1) * np.cos(pi * x2),
        ], axis=-1).reshape(x.shape[:-1] + (2, 2))
        assert np.array_equal(taylor_green_stokes().grad_u(x), former)

    def test_tensor_load_equivalent_traction(self):
        # (stress - F) n = 0 on the Neumann walls for the tensor-load variant
        prob = taylor_green_stokes(load="tensor")
        x = np.stack(
            [np.linspace(0.05, 0.95, 9), np.zeros(9)], axis=-1
        )  # bottom wall
        for wall_y, normal in ((0.0, [0, -1.0]), (1.0, [0, 1.0])):
            x[:, 1] = wall_y
            diff = exact_stress(prob, prob.grad_u(x), prob.p(x)) - prob.big_f(x)
            tn = diff @ np.asarray(normal)
            assert np.abs(tn).max() < 1e-12


class TestLShape:
    def test_velocity_scaling_homogeneity(self):
        prob = lshape_stokes()
        alpha = 856399.0 / 1572864.0
        x = np.array([[-0.3, 0.4]])
        assert np.allclose(
            prob.u(2.0 * x), 2.0**alpha * prob.u(x), rtol=1e-12
        )

    def test_psi_consistency_five_angles(self):
        import sympy as sy

        from gapfem.problems import _lshape_psi

        th = sy.symbols("theta")
        al = sy.Rational(856399, 1572864)
        w = sy.cos(sy.Rational(3, 2) * sy.pi * al)
        psi = (
            w / (al + 1) * sy.sin((al + 1) * th)
            - sy.cos((al + 1) * th)
            + w / (1 - al) * sy.sin((al - 1) * th)
            + sy.cos((al - 1) * th)
        )
        # psi and its first three derivatives against symbolic differentiation
        fns = [sy.lambdify(th, sy.diff(psi, th, k)) for k in range(4)]
        for theta in (0.0, 0.7, 1.5, 2.9, 4.2):
            ours = _lshape_psi(theta)
            for k, fn in enumerate(fns):
                assert ours[k] == pytest.approx(float(fn(theta)), abs=1e-13)

    def test_interior_pde_residual(self):
        # zero load: -nu lap u + grad p ~ 0 away from the corner (the
        # rational alpha leaves a ~1e-6 defect in the eigenvalue relation)
        prob = lshape_stokes()
        rng = np.random.default_rng(1)
        raw = rng.uniform(-0.95, 0.95, (200, 2))
        inside = (raw[:, 0] < -0.1) | (raw[:, 1] > 0.1)
        pts = raw[inside][:20]
        h = 1e-4
        lap = np.zeros((len(pts), 2))
        gp = np.zeros((len(pts), 2))
        for j, e in enumerate(np.eye(2)):
            lap += (
                prob.u(pts + h * e)
                - 2 * prob.u(pts)
                + prob.u(pts - h * e)
            ) / h**2
            gp[:, j] = (
                prob.p(pts + h * e) - prob.p(pts - h * e)
            ) / (2 * h)
        res = -prob.nu * lap + gp
        assert np.abs(res).max() < 1e-4

    def test_initial_mesh(self):
        prob = lshape_stokes()
        mesh = prob.mesh_factory()
        assert mesh.num_elements == 96
        assert mesh.total_area == pytest.approx(3.0, rel=1e-12)

    def test_lift_discretely_divergence_free(self):
        prob = lshape_stokes()
        mesh = prob.mesh_factory()
        for _ in range(2):
            lift = interpolate_lift(prob, mesh)
            assert np.abs(div_h(lift)).max() < 1e-11
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))


def oracle_side_tractions(problem, mesh):
    """Former side_tractions: g on every side, then zero off the Neumann sides."""
    t, w = segment_rule(8)
    pts = side_points(mesh, t)
    nrm = mesh.geometry()["side_normal"][:, None, :] + np.zeros_like(pts)
    g_h = np.einsum("q,sqi->si", w, problem.g(pts, nrm))
    g_h[mesh.side_labels != NEUMANN] = 0.0
    return g_h


@pytest.mark.parametrize("prob", [taylor_green_stokes(), cook_membrane()],
                         ids=["taylor-green", "cook"])
def test_side_tractions_bit_identical(prob):
    mesh = prob.mesh_factory()
    for _ in range(2):
        assert np.array_equal(side_tractions(prob, mesh), oracle_side_tractions(prob, mesh))
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))


class TestCook:
    def test_traction_total_force(self):
        prob = cook_membrane()
        mesh = prob.mesh_factory()
        g_h = side_tractions(prob, mesh)
        geo = mesh.geometry()
        total = np.zeros(2)
        for s in mesh.sides_with_label(NEUMANN):
            total += geo["side_length"][s] * g_h[s]
        assert total == pytest.approx([0.0, 0.01 * 0.16], abs=1e-14)

    def test_traction_zero_on_slanted_edges(self):
        prob = cook_membrane()
        mesh = prob.mesh_factory()
        g_h = side_tractions(prob, mesh)
        geo = mesh.geometry()
        for s in mesh.sides_with_label(NEUMANN):
            if abs(geo["side_midpoint"][s][0] - 0.48) > 1e-9:
                assert np.abs(g_h[s]).max() == 0.0

    def test_material(self):
        prob = cook_membrane()
        assert prob.material.lam / prob.material.mu == pytest.approx(5.0)


class TestManufacturedElasticity:
    def test_load_matches_symbolic_divergence(self):
        import sympy as sy

        for kind in ("patch", "smooth"):
            prob = manufactured_elasticity(kind)
            x1, x2 = sy.symbols("x1 x2")
            pts2 = np.array([[0.3, 0.7], [0.9, 0.2], [0.5, 0.5]])
            usym = prob.u
            mu, lam = prob.material.mu, prob.material.lam
            # recover the exact polynomial coefficients of u by a Vandermonde
            # solve, then differentiate symbolically: an oracle independent
            # of the problem module's hand-coded load
            deg = 3
            terms = [
                (i, j) for i in range(deg + 1) for j in range(deg + 1 - i)
            ]
            rng = np.random.default_rng(0)
            sample = rng.uniform(0, 1, (len(terms), 2))
            vand = np.array(
                [[px**i * py**j for (i, j) in terms] for (px, py) in sample]
            )
            uvals = usym(sample)
            coeff = np.linalg.solve(vand, uvals)
            u1s = sum(
                sy.nsimplify(round(c, 9)) * x1**i * x2**j
                for c, (i, j) in zip(coeff[:, 0], terms)
            )
            u2s = sum(
                sy.nsimplify(round(c, 9)) * x1**i * x2**j
                for c, (i, j) in zip(coeff[:, 1], terms)
            )
            eps = sy.Matrix(
                [
                    [sy.diff(u1s, x1), (sy.diff(u1s, x2) + sy.diff(u2s, x1)) / 2],
                    [(sy.diff(u1s, x2) + sy.diff(u2s, x1)) / 2, sy.diff(u2s, x2)],
                ]
            )
            sig = 2 * mu * eps + lam * sy.trace(eps) * sy.eye(2)
            f1 = -(sy.diff(sig[0, 0], x1) + sy.diff(sig[0, 1], x2))
            f2 = -(sy.diff(sig[1, 0], x1) + sy.diff(sig[1, 1], x2))
            oracle = sy.lambdify((x1, x2), (f1, f2))
            ours = prob.f(pts2)
            for k, (px, py) in enumerate(pts2):
                assert np.allclose(ours[k], oracle(px, py), atol=1e-7)

    def test_energy_error_converges(self):
        prob = manufactured_elasticity("smooth", n=2)
        mesh = prob.mesh_factory()
        errs = []
        for _ in range(3):
            sol = discretize_elasticity(prob, mesh)
            errs.append(exact_errors(sol, prob)["energy"])
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


class TestExactErrors:
    def test_affine_exact_data_zero_errors(self):
        from gapfem.problems import ProblemSpec
        from gapfem.mesh import structured_square_mesh

        a = np.array([[0.7, 0.4], [1.1, -0.7]])
        prob = ProblemSpec(
            "affine",
            "stokes",
            lambda: structured_square_mesh(3, lambda m: DIRICHLET),
            nu=0.5,
            f=None,
            u=lambda x: x @ a.T,
            grad_u=lambda x: a + 0.0 * x[..., :1, None],
        )
        mesh = prob.mesh_factory()
        sol = discretize_stokes(prob, mesh)
        errs = exact_errors(sol, prob)
        assert errs["primal"] < 1e-12
        assert errs["dual"] < 1e-12

    @pytest.mark.parametrize("prob", [
        taylor_green_stokes(), taylor_green_stokes(load="tensor"), lshape_stokes(),
    ], ids=["traction", "tensor", "lshape"])
    def test_dual_error_equals_whole_array_form(self, prob, monkeypatch):
        # the stress error is formed in the exact stress's own array, one
        # element block at a time, bit for bit as the former whole-array
        # difference, with the tensor load and the pure-Dirichlet gauge shift
        mesh = refine_marked_twice(prob.mesh_factory(), [0, 1, 2])
        sol = discretize_stokes(prob, mesh)
        kept = []

        def keep_exact_stress(*args):
            kept.append(exact_stress(*args))
            return kept[-1]

        monkeypatch.setattr(problems, "exact_stress", keep_exact_stress)
        errs = exact_errors(sol, prob)
        w = triangle_rule(10)[1]
        pts = physical_points(mesh, 10)
        sdiff = exact_stress(prob, prob.grad_u(pts), prob.p(pts))
        sdiff -= sol.t_h.evaluate(pts, MeshOperators(mesh))
        if sol.system.big_f_h is not None:
            sdiff -= sol.system.big_f_h[:, None]
        if len(mesh.sides_with_label(NEUMANN)) == 0:
            tr_mean = np.sum(
                mesh.areas
                * np.einsum("q,nq->n", w, sdiff[..., 0, 0] + sdiff[..., 1, 1])
            ) / (2.0 * mesh.total_area)
            sdiff[..., 0, 0] -= tr_mean
            sdiff[..., 1, 1] -= tr_mean
        dual = np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)
        ) / (2.0 * sol.nu)
        assert errs["dual"] == float(np.sqrt(dual))
        # one exact-stress array per element block, each ending as the
        # block's rows of the deviatoric part of the stress error
        assert len(kept) == -(-mesh.num_elements // BLOCK_ELEMENTS)
        assert np.array_equal(np.concatenate(kept), dev(sdiff))

    def test_taylor_green_level1_table_values(self):
        prob = taylor_green_stokes()
        mesh = prob.mesh_factory()
        sol = discretize_stokes(prob, mesh)
        errs = exact_errors(sol, prob)
        assert errs["primal"] == pytest.approx(0.1830, rel=0.05)
        assert errs["dual"] == pytest.approx(0.1573, rel=0.05)

    def test_taylor_green_fitted_eoc(self):
        # least-squares order over 4 uniform levels vs dof^(-1/2)
        from gapfem.adaptive import AdaptiveConfig, run_adaptive

        prob = taylor_green_stokes()
        rep = run_adaptive(
            prob, AdaptiveConfig(refinement_mode="uniform", max_iter=4)
        )
        dofs = np.array([r.num_dof for r in rep.records], float)
        errs = np.array([r.errors["err_primal"] for r in rep.records])
        order = np.polyfit(np.log(dofs**-0.5), np.log(errs), 1)[0]
        assert abs(order - 1.0) <= 0.02

    def test_missing_exact_raises(self):
        prob = cook_membrane()
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        bad = cook_membrane()
        with pytest.raises(ValueError, match="exact"):
            exact_errors(sol, bad)

    def test_registry(self):
        assert get_problem("taylor-green").kind == "stokes"
        with pytest.raises(KeyError):
            get_problem("bogus")


# -- element blocks against the whole-array forms --------------------------------


def oracle_project_data(prob, mesh):
    """f_h, F_h and the oscillation from whole-mesh arrays, as they were
    formed before the element blocks."""
    w = triangle_rule(10)[1]
    pts = physical_points(mesh, 10)
    out, osc = [], np.zeros(mesh.num_elements)
    for f in (prob.f, prob.big_f):
        if f is None:
            out.append(None)
            continue
        values = np.asarray(f(pts), dtype=float)
        out.append(pi0(values, mesh))
        diff = (values - out[-1][:, None]).reshape(mesh.num_elements, len(w), -1)
        weight = mesh.geometry()["h_t"] ** 2 / np.pi**2 if f is prob.f else 1.0
        osc += weight * mesh.areas * np.einsum("q,nqi,nqi->n", w, diff, diff)
    return out[0], out[1], osc


def oracle_gap_indicator_stokes(system, v, tau_h, grad_u):
    mesh, nu = system.mesh, system.nu
    pts = physical_points(mesh, 10)
    diff = tau_h.evaluate(pts, MeshOperators(mesh))
    if system.big_f_h is not None:
        diff += system.big_f_h[:, None]
    dev(diff, in_place=True)
    diff /= nu
    diff -= v.gradient()[:, None]
    diff -= grad_u(pts)
    return 0.5 * nu * mesh.areas * np.einsum("q,nqij,nqij->n", triangle_rule(10)[1], diff, diff)


def oracle_exact_errors(sol, prob):
    mesh, nu, w = sol.mesh, sol.nu, triangle_rule(10)[1]
    pts = physical_points(mesh, 10)
    gu = prob.grad_u(pts)
    diff = broken_gradient(sol.u_h + sol.u_hat)[:, None] - gu
    primal = 0.5 * nu * np.sum(mesh.areas * np.einsum("q,nqij,nqij->n", w, diff, diff))
    sdiff = exact_stress(prob, gu, prob.p(pts)) - sol.t_h.evaluate(pts, MeshOperators(mesh))
    if sol.system.big_f_h is not None:
        sdiff -= sol.system.big_f_h[:, None]
    if len(mesh.sides_with_label(NEUMANN)) == 0:
        trace = sdiff[..., 0, 0] + sdiff[..., 1, 1]
        tr_mean = np.sum(mesh.areas * np.einsum("q,nq->n", w, trace)) / (2.0 * mesh.total_area)
        sdiff[..., 0, 0] -= tr_mean
        sdiff[..., 1, 1] -= tr_mean
    dual = np.sum(mesh.areas * np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)) / (2.0 * nu)
    dev(sdiff, in_place=True)
    dual_dev = np.sum(mesh.areas * np.einsum("q,nqij,nqij->n", w, sdiff, sdiff)) / (2.0 * nu)
    return {"primal": float(np.sqrt(primal)), "dual": float(np.sqrt(dual)),
            "dual_dev": float(np.sqrt(dual_dev))}


def lshape_refined_with_carried_rows():
    """An L-shape mesh after two adaptive steps, whose grad u and p rows of
    the copied elements wait, carried, in its cache."""
    prob = lshape_stokes()
    mesh = prob.mesh_factory()
    for _ in range(2):
        sol = discretize_stokes(prob, mesh)
        gap, osc, _ = _estimate(prob, mesh, sol)
        mesh = refine_marked_twice(mesh, mark_max(gap + osc, 0.5))
    assert [k for k in mesh._cache if k[0] == "carried"]
    return prob, mesh


def assert_blocks_match_whole_arrays(prob, mesh):
    """Every per-element result, and every sum, equals its whole-array form
    bit for bit."""
    f_h, big_f_h, _, osc = project_data(prob, mesh)
    for new, old in zip((f_h, big_f_h, osc), oracle_project_data(prob, mesh)):
        assert (new is None) == (old is None)
        assert new is None or np.array_equal(new, old)
    sol = discretize_stokes(prob, mesh)
    assert np.array_equal(sol.oscillation, osc)
    blocks, ops = list(element_blocks(mesh, 10)), MeshOperators(mesh)
    assert np.array_equal(np.concatenate([b.points for b in blocks]), physical_points(mesh, 10))
    assert np.array_equal(
        np.concatenate([t for _, t in sol.t_h.block_values(blocks, ops)]),
        sol.t_h.evaluate(physical_points(mesh, 10), ops),
    )
    vhat = nodal_average(sol.u_h, mesh)
    gap = oracle_gap_indicator_stokes(sol.system, vhat, sol.t_h, prob.grad_u)
    errors = oracle_exact_errors(sol, prob)
    assert np.array_equal(gap_indicator_stokes(sol.system, vhat, sol.t_h, prob.grad_u), gap)
    assert exact_errors(sol, prob) == errors
    # the one-pass estimate reads each block's stress values before the gap
    # overwrites them, so it gives both to the bit
    fused_gap, fused_errors = estimate_stokes(sol, prob, vhat)
    assert np.array_equal(fused_gap, gap) and fused_errors == errors
    return len(blocks)


@pytest.mark.parametrize("factory", [taylor_green_stokes, lshape_stokes])
def test_joint_pass_equals_separate_fields(factory, monkeypatch):
    """The one pass of grad u and p that the exact errors make fills both
    cache entries with the separate fields' values bit for bit, over several
    blocks, on the initial mesh and on a refined one with carried rows."""
    monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", 50)
    prob = factory()
    mesh = prob.mesh_factory()
    for _ in range(2):
        sol = discretize_stokes(prob, mesh)
        exact_errors(sol, prob)
        pts = physical_points(mesh, 10)
        for f in (prob.grad_u, prob.p):
            assert np.array_equal(mesh._cache[("rule_values", f, 10)], f(pts))
        gap, osc, _ = _estimate(prob, mesh, sol)
        mesh = refine_marked_twice(mesh, mark_max(gap + osc, 0.5))
        assert ("carried", "rule_values", prob.p, 10) in mesh._cache


def test_lshape_joint_evaluator_equals_separate_fields():
    """`_lshape_grad_u_p` gives `_lshape_grad_u` and `_lshape_p` bit for bit,
    at points of the three quadrants and next to the re-entrant corner."""
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (3000, 2))
    x = np.concatenate([x[(x[:, 0] <= 0) | (x[:, 1] >= 0)],
                        [[1e-12, 1e-12], [-1e-9, 0.0], [0.0, -1e-10], [1e-8, 0.0]]])
    joint = problems._JOINT_GRAD_U_P[(problems._lshape_grad_u, problems._lshape_p)]
    grad, p = joint(x)
    assert np.array_equal(grad, problems._lshape_grad_u(x))
    assert np.array_equal(p, problems._lshape_p(x))


class TestElementBlocks:
    @pytest.mark.parametrize("load", ["traction", "tensor"])
    @pytest.mark.parametrize("n, excess", [(10, None), (32, 0), (32, 1)],
                             ids=["below-one-block", "one-block", "one-more"])
    def test_taylor_green(self, n, excess, load, monkeypatch):
        # excess: elements beyond one block (None: fewer than a block)
        prob = taylor_green_stokes(n, load)
        mesh = prob.mesh_factory()
        if excess is None:
            assert mesh.num_elements < BLOCK_ELEMENTS
        else:
            monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", mesh.num_elements - excess)
        assert assert_blocks_match_whole_arrays(prob, mesh) == (2 if excess else 1)

    def test_refined_lshape(self, monkeypatch):
        # pure Dirichlet (the gauge pass) with carried field rows, over
        # several blocks with a short last one
        prob, mesh = lshape_refined_with_carried_rows()
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", 50)
        assert mesh.num_elements % 50 != 0
        assert assert_blocks_match_whole_arrays(prob, mesh) > 2
