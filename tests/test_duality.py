import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_forms import (
    ORACLE_MESHES,
    _bisected_mesh,
    _perturbed_mesh,
    assert_close,
    tg_labeler,
)
from test_spaces import inner_p0

from gapfem import (
    DIRICHLET,
    NEUMANN,
    AdmissibilityError,
    CRField,
    ElasticitySolution,
    ElasticityTensor,
    P0Field,
    RTField,
    StokesSolution,
    apriori_identity_check_stokes,
    assemble_elasticity,
    assemble_stokes,
    broken_divergence,
    broken_gradient,
    broken_sym_gradient,
    cr_interpolate,
    energies_stokes,
    gap_indicator_elasticity,
    gap_indicator_stokes,
    gap_indicator_stokes_discrete,
    marini_elasticity,
    marini_stokes,
    marini_stokes_inverse,
    oscillation_indicator,
    random_divfree_cr,
    random_divfree_rt,
    solve_lifting,
    strong_convexity_stokes,
    structured_square_mesh,
)
from gapfem.adaptive import refine_marked_twice
from gapfem.duality import (
    JUMP_TOL,
    check_stokes_admissible_velocity,
    check_stress_admissible,
)
from gapfem.problems import (
    cook_membrane,
    discretize_elasticity,
    discretize_stokes,
    exact_stress,
    manufactured_elasticity,
    taylor_green_stokes,
)
from gapfem.spaces import (
    curl_operator,
    dev,
    norm_p0,
    rt_divergence_operator,
    sym,
)


def cr_values_p0(v):
    """Element averages Pi_h v of a CR field (exact: value at the centroid)."""
    return P0Field(v.mesh, v.values[v.mesh.element_sides].mean(axis=1))


def skew(a):
    return 0.5 * (a - np.swapaxes(a, -1, -2))


def all_dirichlet(mid):
    return DIRICHLET


def mixed(mid):
    return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1)) < 1e-12 else NEUMANN


@pytest.fixture(scope="module")
def tg_solution():
    prob = taylor_green_stokes()
    mesh = prob.mesh_factory()
    return prob, mesh, discretize_stokes(prob, mesh)


class TestElasticityTensor:
    def test_forward_inverse_roundtrip(self):
        mat = ElasticityTensor(1.3, 4.7)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 2, 2))
        assert np.abs(mat.apply(mat.inverse(a)) - a).max() < 1e-13
        assert np.abs(mat.inverse(mat.apply(a)) - a).max() < 1e-13

    def test_norm_equivalences(self):
        # 2 mu |A|^2 <= CA:A <= (2 mu + d lam)|A|^2 and the mirrored bounds
        mat = ElasticityTensor(1.0, 5.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            n2 = np.sum(a * a)
            ca = np.sum(mat.apply(a) * a)
            assert 2 * mat.mu * n2 - 1e-12 <= ca <= (2 * mat.mu + 2 * mat.lam) * n2 + 1e-12
            cinv = np.sum(mat.inverse(a) * a)
            lo = n2 / (2 * mat.mu + 2 * mat.lam)
            hi = n2 / (2 * mat.mu)
            assert lo - 1e-12 <= cinv <= hi + 1e-12

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            ElasticityTensor(0.0, 1.0)


class TestMariniStokes:
    def test_zero_data(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        u = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        p = P0Field(mesh, np.zeros(mesh.num_elements))
        t = marini_stokes(u, p, u, None, 1.0, mesh)
        assert np.abs(t.flux).max() == 0.0

    def test_correction_divergence_identity(self):
        # the correction -(1/d) f (id - Pi id) alone has divergence -f
        mesh = structured_square_mesh(2, all_dirichlet)
        f = P0Field(mesh, np.tile([1.0, 0.0], (mesh.num_elements, 1)))
        u = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        p = P0Field(mesh, np.zeros(mesh.num_elements))
        # the zero solution does not solve either system with f != 0, so
        # both reconstructions (one shared equilibration) must flag it
        reconstructions = {
            "stokes": lambda: marini_stokes(u, p, u, f, 1.0, mesh),
            "elasticity": lambda: marini_elasticity(
                u, u, u, f, ElasticityTensor(1.0, 5.0), mesh
            ),
        }
        for reconstruct in reconstructions.values():
            with pytest.raises(AdmissibilityError, match="interior flux jumps"):
                reconstruct()

    def test_taylor_green_contracts(self, tg_solution):
        prob, mesh, sol = tg_solution
        assert sol.optimality_residual() < 1e-10
        div = sol.t_h.divergence().values + sol.system.f_h.values
        assert np.abs(div).max() < 1e-10
        ok, res = check_stress_admissible(sol.t_h, sol.system.f_h, sol.system.g_h, mesh)
        assert res < 1e-10

    def test_inverse_roundtrip(self, tg_solution):
        prob, mesh, sol = tg_solution
        u_bar = cr_values_p0(sol.u_h)
        back = marini_stokes_inverse(sol.t_h, u_bar, sol.u_hat, prob.nu, mesh)
        assert np.abs(back.values - sol.u_h.values).max() < 1e-12

    def test_inverse_zero(self):
        mesh = structured_square_mesh(2, all_dirichlet)
        t = RTField(mesh, np.zeros((2, mesh.num_sides)))
        u_bar = P0Field(mesh, np.zeros((mesh.num_elements, 2)))
        zero_hat = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        back = marini_stokes_inverse(t, u_bar, zero_hat, 1.0, mesh)
        assert np.abs(back.values).max() == 0.0

    def test_inverse_affine_patch(self):
        from gapfem.forms import assemble_stokes

        mesh = structured_square_mesh(3, all_dirichlet)
        a = np.array([[0.7, 0.4], [1.1, -0.7]])
        u_hat = cr_interpolate(lambda x: x @ a.T, mesh)
        system = assemble_stokes(mesh, 0.5, u_hat, None, None, None)
        u, p, _ = system.solve()
        t = marini_stokes(u, p, u_hat, None, 0.5, mesh)
        back = marini_stokes_inverse(t, cr_values_p0(u), u_hat, 0.5, mesh)
        assert np.abs(back.values - u.values).max() < 1e-11


def scaled_taylor_green(a):
    """The Taylor-Green problem with every field (u, grad u, p, f, g and the
    lift's stream) multiplied by a."""
    prob = taylor_green_stokes()
    fields = ("u", "grad_u", "p", "f", "g", "lift_stream")
    return dataclasses.replace(prob, **{
        name: (lambda f: lambda *args: a * f(*args))(getattr(prob, name)) for name in fields
    })


class TestScaleFreeChecks:
    """The lift check of the Stokes assembly and the reconstruction's jump
    check measure roundoff against the terms it comes from, so they hold
    exact data at any scale and refuse an inconsistent pair at any scale."""

    @pytest.mark.parametrize("a", [1e4, 1e6])
    def test_scaled_flow_solves(self, a):
        prob, unit = scaled_taylor_green(a), taylor_green_stokes()
        mesh = prob.mesh_factory()
        for _ in range(3):
            sol, ref = discretize_stokes(prob, mesh), discretize_stokes(unit, mesh)
            for new, old in ((sol.u_h.values, ref.u_h.values), (sol.t_h.flux, ref.t_h.flux)):
                assert np.abs(new - a * old).max() <= 1e-10 * a * np.abs(old).max()
            back = marini_stokes_inverse(sol.t_h, cr_values_p0(sol.u_h), sol.u_hat, prob.nu, mesh)
            assert np.abs(back.values - sol.u_h.values).max() <= 1e-10 * a
            mesh = refine_marked_twice(mesh, np.arange(mesh.num_elements))

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e6])
    def test_perturbed_pair_refused(self, a):
        # 1% of the largest DOF added on one interior side
        prob = scaled_taylor_green(a)
        mesh = prob.mesh_factory()
        sol = discretize_stokes(prob, mesh)
        values = sol.u_h.values.copy()
        values[np.flatnonzero(mesh.side_elements[:, 1] >= 0)[40], 0] += (
            0.01 * np.abs(values).max()
        )
        with pytest.raises(AdmissibilityError, match="interior flux jumps"):
            marini_stokes(CRField(mesh, values), sol.p_h, sol.u_hat, sol.system.f_h,
                          prob.nu, mesh)


class TestMariniElasticity:
    def test_zero_data(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        mat = ElasticityTensor(1.0, 5.0)
        zero = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        sigma = marini_elasticity(zero, zero, zero, None, mat, mesh)
        assert np.abs(sigma.flux).max() == 0.0

    def test_divergence_coefficient_identity(self):
        # div of sym(f (id - Pi id)) is ((d+1)/2) f in d = 2, hence the
        # -2/(d+1) weight in the symmetrised correction; the row-wise
        # correction -(1/d) f (id - Pi id) achieves div = -f directly
        f = np.array([0.7, -1.3])
        x = np.array([0.31, 0.57])

        def sym_corr(y):
            return 0.5 * (np.outer(f, y) + np.outer(y, f))

        h = 1e-6
        div = np.zeros(2)
        for j, e in enumerate(np.eye(2)):
            div += (sym_corr(x + h * e)[:, j] - sym_corr(x - h * e)[:, j]) / (2 * h)
        assert np.allclose(-2.0 / 3.0 * div, -f, atol=1e-8)

    def test_cook_contracts(self):
        prob = cook_membrane()
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        assert sol.optimality_residual() < 1e-10
        assert np.abs(sol.sigma_star.divergence().values).max() < 1e-10
        ok, res = check_stress_admissible(sol.sigma_star, None, sol.system.g_h, mesh)
        assert res < 1e-10
        # skew defect is controlled by the stabilisation energy of the total
        # field (both vanish here only in the conforming limit)
        skew_norm = norm_p0(
            P0Field(mesh, skew(sol.sigma_star.cell_average().values))
        )
        s_val = sol.system.s_h_total(sol.u_h + sol.u_hat)
        ratio = skew_norm**2 / s_val
        print(f"skew(sigma*)^2 / s_h ratio: {ratio:.3f}")
        assert np.isfinite(ratio) and ratio > 0

    def test_tensor_load_contracts(self):
        # moving a constant tensor into the load's tensor part leaves the
        # reconstruction contracts exact (relative to F_h)
        prob = manufactured_elasticity("smooth", n=3)
        c0 = np.array([[0.4, -0.2], [0.3, 0.1]])
        prob.big_f = lambda x: c0 + 0.0 * x[..., :1, None]
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        system = sol.system
        res = system.matrix @ sol.u_h.dofs()[system.vel_index] - system.rhs
        assert np.abs(res).max() < 1e-10
        div = sol.sigma_star.divergence().values + sol.system.f_h.values
        assert np.abs(div).max() < 1e-10
        assert sol.sigma_star.reconstruction_jump < 1e-10
        # on the all-Dirichlet square the constant tensor load leaves u_h
        # as it is, so sigma* + F_h is the stress of the problem without
        # it, and so is the gap indicator given F_h
        from gapfem.spaces import nodal_average

        ref = discretize_elasticity(manufactured_elasticity("smooth", n=3), mesh)
        v = nodal_average(ref.u_h + ref.u_hat, mesh, dirichlet_values=prob.u)
        want = gap_indicator_elasticity(v, ref.sigma_star, prob.material, mesh)
        got = gap_indicator_elasticity(
            v, sol.sigma_star, prob.material, mesh, big_f_h=system.big_f_h
        )
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_manufactured_contracts(self):
        prob = manufactured_elasticity("smooth", n=4)
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        assert sol.optimality_residual() < 1e-10
        div = sol.sigma_star.divergence().values + sol.system.f_h.values
        assert np.abs(div).max() < 1e-10


class TestGapIndicators:
    def test_solution_pair_zero_gap(self, tg_solution):
        prob, mesh, sol = tg_solution
        eta = gap_indicator_stokes_discrete(
            sol.u_h, sol.t_h, sol.u_hat, prob.nu, mesh
        )
        assert eta.sum() < 1e-20

    def test_perturbed_pair_matches_rho_tot(self, tg_solution):
        prob, mesh, sol = tg_solution
        v = sol.u_h + random_divfree_cr(mesh, [3], [0.1])[0]
        tau = sol.t_h + random_divfree_rt(mesh, [4], [0.1])[0]
        eta = gap_indicator_stokes_discrete(v, tau, sol.u_hat, prob.nu, mesh)
        rho = strong_convexity_stokes([v], [tau], sol)
        total = rho["primal"][0] + rho["dual"][0]
        assert eta.sum() == pytest.approx(total, rel=1e-8)
        assert np.all(eta >= 0)

    def test_nu_scaling(self):
        # doubling nu and scaling tau by 2 with v fixed scales eta^2 by 2
        mesh = structured_square_mesh(3, all_dirichlet)
        rng = np.random.default_rng(8)
        v = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        zero_hat = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        tau = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
        e1 = gap_indicator_stokes_discrete(v, tau, zero_hat, 1.0, mesh)
        e2 = gap_indicator_stokes_discrete(v, 2.0 * tau, zero_hat, 2.0, mesh)
        assert np.allclose(e2, 2.0 * e1, rtol=1e-12)

    @pytest.mark.parametrize("load", ["traction", "tensor"])
    def test_continuous_indicator_zero_and_decay(self, load):
        # with a tensor load the stress is given relative to F, and F_h is
        # added back inside the indicator; Taylor-Green's F is a multiple
        # of I, which dev removes, so a skew part is added to it
        from gapfem.spaces import nodal_average, pi0, rt_interpolate

        prob = taylor_green_stokes(load=load)

        def big_f(x):
            out = prob.big_f(x)
            out[..., 0, 1] += np.sin(np.pi * x[..., 0]) * x[..., 1]
            out[..., 1, 0] -= np.sin(np.pi * x[..., 0]) * x[..., 1]
            return out

        def stress(x):
            t = exact_stress(prob, prob.grad_u(x), prob.p(x))
            return t if prob.big_f is None else t - big_f(x)

        totals = []
        mesh = structured_square_mesh(5, lambda m: DIRICHLET)
        for _ in range(3):
            hom = CRField(mesh, np.zeros((mesh.num_sides, 2)))
            vhat = nodal_average(hom, mesh, dirichlet_values=None)
            tau = rt_interpolate(stress, mesh)
            big_f_h = None if prob.big_f is None else pi0(big_f, mesh)
            eta = gap_indicator_stokes(
                vhat, tau, prob.grad_u, prob.nu, mesh, big_f_h=big_f_h
            )
            totals.append(eta.sum())
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))
        # exact pair: indicator total decays ~ h^2
        assert totals[1] < 0.3 * totals[0]
        assert totals[2] < 0.3 * totals[1]

    def test_zero_fields_zero_indicator(self):
        mesh = structured_square_mesh(2, all_dirichlet)
        from gapfem.spaces import P1ConformingField

        v = P1ConformingField(mesh, np.zeros((mesh.num_vertices, 2)))
        tau = RTField(mesh, np.zeros((2, mesh.num_sides)))
        eta = gap_indicator_stokes(v, tau, None, 1.0, mesh)
        assert np.abs(eta).max() == 0.0


class TestOscillation:
    def test_constant_data_zero(self):
        mesh = structured_square_mesh(4, all_dirichlet)
        f = lambda x: np.stack([np.ones(x.shape[:-1]), -2 * np.ones(x.shape[:-1])], -1)
        from gapfem.spaces import pi0

        osc = oscillation_indicator(f, pi0(f, mesh), None, None, mesh)
        assert np.abs(osc).max() < 1e-26

    @pytest.mark.parametrize("tensor", [False, True], ids=["f", "big-f"])
    def test_single_element_oracle(self, tensor):
        from gapfem import build_triangulation
        from gapfem.quadrature import physical_points, triangle_rule
        from gapfem.spaces import pi0

        mesh = build_triangulation(
            [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], all_dirichlet
        )
        if tensor:
            data = lambda x: np.stack(
                [np.cos(np.pi * x[..., 1]), x[..., 0] ** 2,
                 x[..., 0] * x[..., 1], np.sin(x[..., 0])], -1,
            ).reshape(x.shape[:-1] + (2, 2))
        else:
            data = lambda x: np.stack([np.sin(np.pi * x[..., 0]), 0 * x[..., 1]], -1)
        data_h = pi0(data, mesh, degree=20)
        args = (None, None, data, data_h) if tensor else (data, data_h, None, None)
        osc = oscillation_indicator(*args, mesh, degree=20)
        # oracle: degree-24 quadrature of (h^2/pi^2)|f - f_h|^2, or of
        # |F - F_h|^2 without the h^2/pi^2 factor
        w = triangle_rule(24)[1]
        pts = physical_points(mesh, 24)
        diff = (data(pts) - data_h.values[:, None]).reshape(1, len(w), -1)
        weight = 1.0 if tensor else mesh.geometry()["h_t"][0] ** 2 / np.pi**2
        oracle = weight * mesh.areas[0] * np.einsum("q,nqi,nqi->n", w, diff, diff)[0]
        assert oracle > 0.0
        assert osc[0] == pytest.approx(oracle, rel=1e-10)

    def test_refinement_scaling(self):
        f = lambda x: np.stack([np.sin(np.pi * x[..., 0]), 0 * x[..., 1]], -1)
        from gapfem.spaces import pi0

        totals = []
        mesh = structured_square_mesh(4, all_dirichlet)
        for _ in range(3):
            osc = oscillation_indicator(f, pi0(f, mesh), None, None, mesh)
            totals.append(osc.sum())
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))
        for k in (0, 1):
            ratio = totals[k] / totals[k + 1]
            assert 12.0 <= ratio <= 20.0


class TestEnergies:
    def test_inadmissible_signalled(self, tg_solution):
        prob, mesh, sol = tg_solution
        rng = np.random.default_rng(2)
        bad_v = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        en = energies_stokes([bad_v], [sol.t_h], sol.system)
        assert en["primal"][0] == np.inf
        bad_tau = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
        en = energies_stokes([sol.u_h], [bad_tau], sol.system)
        assert en["dual"][0] == -np.inf

    def test_strong_duality_at_solution(self, tg_solution):
        prob, mesh, sol = tg_solution
        en = energies_stokes([sol.u_h], [sol.t_h], sol.system)
        scale = abs(en["primal"][0]) + abs(en["dual"][0])
        assert abs(en["primal"][0] - en["dual"][0]) <= 1e-12 * max(scale, 1.0)

    def test_taylor_expansion_of_primal_energy(self, tg_solution):
        # I_h(v) - I_h(u_h) equals the quadratic strong convexity measure
        prob, mesh, sol = tg_solution
        v = sol.u_h + random_divfree_cr(mesh, [11], [0.2])[0]
        en = energies_stokes([v, sol.u_h], [sol.t_h, sol.t_h], sol.system)
        rho = strong_convexity_stokes([v], [sol.t_h], sol)
        assert en["primal"][0] - en["primal"][1] == pytest.approx(
            rho["primal"][0], rel=1e-10
        )


def oracle_energies(v_h, tau_h, system, tol=1e-8):
    """Former per-sample energies_stokes with the former admissibility checks."""
    mesh, nu = system.mesh, system.nu
    div = np.abs(broken_divergence(v_h).values).max(initial=0.0)
    bc = np.abs(v_h.values[mesh.side_labels == DIRICHLET]).max(initial=0.0)
    primal = np.inf
    if max(div, bc) <= tol:
        grad_tot = broken_gradient(v_h + system.u_hat)
        primal = 0.5 * nu * norm_p0(grad_tot) ** 2 - system.load_vector @ v_h.dofs()
    fv = 0.0 if system.f_h is None else system.f_h.values
    res = np.abs(tau_h.divergence().values + fv).max()
    neumann = mesh.sides_with_label(NEUMANN)
    if len(neumann):
        tn = tau_h.flux[:, neumann].T
        if system.g_h is not None:
            tn = tn - system.g_h[neumann]
        res = max(res, np.abs(tn).max())
    dual = -np.inf
    if res <= tol:
        avg = tau_h.cell_average().values
        if system.big_f_h is not None:
            avg = avg + system.big_f_h.values
        devavg = P0Field(mesh, dev(avg))
        grad_hat = broken_gradient(system.u_hat)
        dual = -norm_p0(devavg) ** 2 / (2.0 * nu) + inner_p0(devavg, grad_hat)
    return primal, dual


def oracle_strong_convexity(v_h, tau_h, solution):
    """Former per-sample strong_convexity_stokes."""
    nu = solution.nu
    rho_primal = 0.5 * nu * norm_p0(broken_gradient(v_h - solution.u_h)) ** 2
    ddev = dev(tau_h.cell_average().values) - dev(solution.t_h.cell_average().values)
    areas = solution.mesh.areas
    rho_dual = np.sum(areas * np.einsum("nij,nij->n", ddev, ddev)) / (2.0 * nu)
    return rho_primal, rho_dual


class TestBlockFunctions:
    """The block energies, convexity measures and checks equal the per-sample
    oracles column by column."""

    @pytest.fixture(scope="class", params=["traction", "tensor"])
    def block(self, request):
        # five pairs around the solution; column 1 has an inadmissible
        # velocity and column 3 an inadmissible stress
        prob = taylor_green_stokes(load=request.param)
        mesh = refine_marked_twice(prob.mesh_factory(), range(200))
        sol = discretize_stokes(prob, mesh)
        seeds = [31, 32, 33, 34, 35]
        scales = [0.01, 0.1, 1.0, 0.3, 0.03]
        vs = [sol.u_h + w for w in random_divfree_cr(mesh, seeds, scales)]
        taus = [sol.t_h + r for r in random_divfree_rt(mesh, seeds, scales)]
        rng = np.random.default_rng(3)
        vs[1] = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        taus[3] = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
        return sol, vs, taus

    def test_energies_match_oracle(self, block):
        sol, vs, taus = block
        en = energies_stokes(vs, taus, sol.system)
        assert en["primal"].shape == en["dual"].shape == (5,)
        for k, (v, tau) in enumerate(zip(vs, taus)):
            primal, dual = oracle_energies(v, tau, sol.system)
            assert np.isinf(en["primal"][k]) == (k == 1) == np.isinf(primal)
            assert np.isinf(en["dual"][k]) == (k == 3) == np.isinf(dual)
            assert en["primal"][k] == pytest.approx(primal, rel=1e-12)
            assert en["dual"][k] == pytest.approx(dual, rel=1e-12)
        assert en["primal"][1] == np.inf and en["dual"][3] == -np.inf

    def test_strong_convexity_matches_oracle(self, block):
        sol, vs, taus = block
        rho = strong_convexity_stokes(vs, taus, sol)
        for k, (v, tau) in enumerate(zip(vs, taus)):
            primal, dual = oracle_strong_convexity(v, tau, sol)
            assert rho["primal"][k] == pytest.approx(primal, rel=1e-12)
            assert rho["dual"][k] == pytest.approx(dual, rel=1e-12)

    def test_checks_per_column(self, block):
        sol, vs, taus = block
        system = sol.system
        checks_v = [check_stokes_admissible_velocity(v) for v in vs]
        checks_t = [
            check_stress_admissible(tau, system.f_h, system.g_h, sol.mesh) for tau in taus
        ]
        assert [ok for ok, _ in checks_v] == [True, False, True, True, True]
        assert [ok for ok, _ in checks_t] == [True, True, True, False, True]
        for ok, res in checks_v + checks_t:
            assert type(ok) is bool and type(res) is float
            assert ok == (res <= 1e-10)

    def test_identity_per_column(self, block):
        sol, vs, taus = block
        en = energies_stokes(vs, taus, sol.system)
        rho = strong_convexity_stokes(vs, taus, sol)
        gap = en["primal"] - en["dual"]
        ok = [0, 2, 4]
        assert gap[ok] == pytest.approx((rho["primal"] + rho["dual"])[ok], rel=1e-10)


class TestAdmissiblePair:
    def test_valid_pair_constructs_and_gap(self, tg_solution):
        # a perturbed admissible pair passes both checks, and its discrete
        # gap is I_h(v) - D_h(tau) = rho_primal + rho_dual
        prob, mesh, sol = tg_solution
        system = sol.system
        v = sol.u_h + random_divfree_cr(mesh, [21], [0.05])[0]
        tau = sol.t_h + random_divfree_rt(mesh, [22], [0.05])[0]
        assert check_stokes_admissible_velocity(v)[0]
        assert check_stress_admissible(tau, system.f_h, system.g_h, mesh)[0]
        gap = gap_indicator_stokes_discrete(
            v, tau, system.u_hat, system.nu, mesh, big_f_h=system.big_f_h
        ).sum()
        en = energies_stokes([v], [tau], system)
        rho = strong_convexity_stokes([v], [tau], sol)
        assert gap == pytest.approx(rho["primal"][0] + rho["dual"][0], rel=1e-8)
        assert en["primal"][0] - en["dual"][0] == pytest.approx(gap, rel=1e-8)

    def test_invalid_pair_rejected(self, tg_solution):
        prob, mesh, sol = tg_solution
        rng = np.random.default_rng(0)
        bad = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        assert not check_stokes_admissible_velocity(bad)[0]
        assert energies_stokes([bad], [sol.t_h], sol.system)["primal"][0] == np.inf


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 7),
    labeler=st.sampled_from([all_dirichlet, mixed]),
    seed=st.integers(0, 2**32 - 1),
    log_scales=st.tuples(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0)),
)
def test_discrete_identity_on_perturbed_meshes(n, labeler, seed, log_scales):
    """gap = rho_primal + rho_dual for random admissible pairs around the
    Taylor-Green solution on vertex-perturbed meshes."""
    prob = taylor_green_stokes()
    mesh = _perturbed_mesh(n, labeler, seed)
    sol = discretize_stokes(prob, mesh)
    v = sol.u_h + random_divfree_cr(mesh, [seed], [10.0 ** log_scales[0]])[0]
    tau = sol.t_h + random_divfree_rt(mesh, [seed + 1], [10.0 ** log_scales[1]])[0]
    en = energies_stokes([v], [tau], sol.system)
    rho = strong_convexity_stokes([v], [tau], sol)
    gap = en["primal"][0] - en["dual"][0]
    assert gap == pytest.approx(rho["primal"][0] + rho["dual"][0], rel=1e-10, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    labeler=st.sampled_from([all_dirichlet, tg_labeler]),
    seed=st.integers(0, 2**32 - 2),
    log_scales=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_divfree_cr_on_perturbed_meshes(n, labeler, seed, log_scales):
    """The CR samples are the curls of Morley potentials (phi, psi) drawn as
    documented: broken-divergence-free relative to the potential magnitudes
    that cancel in each element, exactly zero on Dirichlet sides, and the
    same field of a seed in a block as in its single-seed call."""
    mesh = _perturbed_mesh(n, labeler, seed)
    geo = mesh.geometry()
    seeds, scales = [seed, seed + 1], 10.0 ** np.array(log_scales)
    fields = random_divfree_cr(mesh, seeds, scales)
    dirichlet = mesh.side_labels == DIRICHLET
    div_op = abs(rt_divergence_operator(mesh))
    curl = curl_operator(mesh)
    for field, s, scale in zip(fields, seeds, scales):
        rng = np.random.default_rng(s)
        phi = rng.uniform(-1.0, 1.0, size=mesh.num_vertices)
        psi = rng.uniform(-1.0, 1.0, size=mesh.num_sides)
        phi[mesh.side_vertices[dirichlet].ravel()] = 0.0
        psi[dirichlet] = 0.0
        raw = CRField(mesh, (curl @ phi)[:, None] * geo["side_normal"]
                      + psi[:, None] * geo["side_tangent"])
        c = scale / norm_p0(broken_gradient(raw))
        assert np.abs(field.values - c * raw.values).max() <= (
            1e-12 * c * np.abs(raw.values).max()
        )
        potential = c * (div_op @ (abs(curl) @ np.abs(phi) + np.abs(psi)))
        assert np.all(np.abs(broken_divergence(field).values) <= 1e-14 * potential)
        assert np.abs(field.values[dirichlet]).max(initial=0.0) == 0.0
        (one,) = random_divfree_cr(mesh, [s], [scale])
        assert np.abs(field.values - one.values).max() <= (
            1e-12 * np.abs(one.values).max()
        )


class TestRandomFields:
    def test_divfree_cr_properties(self):
        # all-Dirichlet (pressure gauge row) and mixed Dirichlet/Neumann
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            v1, v2 = random_divfree_cr(mesh, [1, 2], 1.0)
            assert np.abs(broken_divergence(v1).values).max() < 1e-10
            assert np.abs(v1.values[mesh.side_labels == DIRICHLET]).max() == 0.0
            assert norm_p0(broken_gradient(v1 - v2)) > 1e-3

    def test_block_equals_single_seeds(self):
        # each seed keeps its own stream through the one block product
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            both = random_divfree_cr(mesh, [7, 8], [0.3, 2.0])
            for field, seed, scale in zip(both, [7, 8], [0.3, 2.0]):
                (one,) = random_divfree_cr(mesh, [seed], [scale])
                assert np.abs(field.values - one.values).max() <= 1e-12
                assert norm_p0(broken_gradient(field)) == pytest.approx(scale)

    def test_divfree_rt_block_equals_single_seeds(self):
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            both = random_divfree_rt(mesh, [7, 8], [0.3, 2.0])
            for field, seed, scale in zip(both, [7, 8], [0.3, 2.0]):
                (one,) = random_divfree_rt(mesh, [seed], [scale])
                assert np.abs(field.flux - one.flux).max() <= 1e-14
                devavg = P0Field(mesh, dev(field.cell_average().values))
                assert norm_p0(devavg) == pytest.approx(scale)

    def test_divfree_rt_properties(self):
        mesh = structured_square_mesh(5, mixed)
        (tau,) = random_divfree_rt(mesh, [3], 1.0)
        assert np.abs(tau.divergence().values).max() < 1e-13
        neumann = mesh.sides_with_label(NEUMANN)
        assert np.abs(tau.flux[:, neumann]).max() < 1e-12


class TestAprioriIdentity:
    def test_affine_exact_solution_both_sides_vanish(self):
        from gapfem.problems import ProblemSpec

        a = np.array([[0.7, 0.4], [1.1, -0.7]])
        prob = ProblemSpec(
            "affine",
            "stokes",
            lambda: structured_square_mesh(3, all_dirichlet),
            nu=0.5,
            f=None,
            big_f=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
            u=lambda x: x @ a.T,
            grad_u=lambda x: a + 0.0 * x[..., :1, None],
        )
        mesh = prob.mesh_factory()
        out = apriori_identity_check_stokes(prob, mesh)
        assert out["lhs"] < 1e-20
        assert out["rhs"] < 1e-20

    def test_taylor_green_identity_and_decay(self):
        prob = taylor_green_stokes(load="tensor")
        mesh = prob.mesh_factory()
        rhs_prev = None
        for _ in range(2):
            out = apriori_identity_check_stokes(prob, mesh)
            assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-8)
            if rhs_prev is not None:
                assert rhs_prev / out["rhs"] == pytest.approx(4.0, abs=0.5)
            rhs_prev = out["rhs"]
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))


class TestElasticityGapEquivalence:
    def test_lower_bound_constant_two(self):
        # eta_gap^2 <= 2 (rho_primal^2 + rho_dual^2) on a manufactured case
        from gapfem.duality import gap_indicator_elasticity
        from gapfem.quadrature import physical_points, triangle_rule
        from gapfem.spaces import nodal_average

        prob = manufactured_elasticity("smooth", n=4)
        mat = prob.material
        mesh = prob.mesh_factory()
        for _ in range(2):
            sol = discretize_elasticity(prob, mesh)
            vhat = nodal_average(sol.u_h + sol.u_hat, mesh, dirichlet_values=prob.u)
            gap = gap_indicator_elasticity(vhat, sol.sigma_star, mat, mesh).sum()
            w = triangle_rule(12)[1]
            pts = physical_points(mesh, 12)
            gu = prob.grad_u(pts)
            gv = vhat.gradient().values[:, None] + np.zeros_like(gu)
            ed = sym(gv) - sym(gu)
            rho_p = 0.5 * np.sum(
                mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(ed, ed))
            )
            sd = sol.sigma_star.evaluate(pts) - exact_stress(prob, gu, None)
            rho_d = 0.5 * np.sum(
                mesh.areas
                * np.einsum("q,nq->n", w, mat.complementary_product(sd, sd))
            )
            assert gap <= 2.0 * (rho_p + rho_d) * (1 + 1e-12)
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))

    def test_identity_with_homogeneous_average(self):
        # with the homogenised average and analytic lift the identity
        # rho_tot = gap + (skew sigma, grad(u - v)) holds to quadrature error
        from gapfem.quadrature import physical_points, triangle_rule
        from gapfem.spaces import nodal_average

        prob = manufactured_elasticity("patch", n=4)
        mat = prob.material
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        vhom = nodal_average(sol.u_h, mesh, dirichlet_values=None)
        w = triangle_rule(12)[1]
        pts = physical_points(mesh, 12)
        gu = prob.grad_u(pts)
        gv = vhom.gradient().values[:, None] + gu
        sv = sol.sigma_star.evaluate(pts)
        # the gap of the analytic-lift average v = vhom + u at the same points
        gd = sym(gv) - mat.inverse(sv)
        gap = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(gd, gd))
        )
        ed = sym(gv) - sym(gu)
        rho_p = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(ed, ed))
        )
        sd = sv - exact_stress(prob, gu, None)
        rho_d = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.complementary_product(sd, sd))
        )
        skew_term = np.sum(
            mesh.areas * np.einsum("q,nqij,nqij->n", w, skew(sv), gu - gv)
        )
        assert rho_p + rho_d == pytest.approx(gap + skew_term, rel=1e-9)


def oracle_gap_indicator_elasticity(v, sigma, material, mesh, big_f_h=None):
    """The elasticity gap indicator on the degree-10 rule."""
    from gapfem.quadrature import physical_points, triangle_rule

    w = triangle_rule(10)[1]
    pts = physical_points(mesh, 10)
    gv = v.gradient().values[:, None, :, :] + np.zeros(pts.shape[:2] + (2, 2))
    sv = sigma.evaluate(pts)
    if big_f_h is not None:
        sv = sv + big_f_h.values[:, None]
    diff = sym(gv) - material.inverse(sv)
    vals = material.energy_product(diff, diff)
    return 0.5 * mesh.areas * np.einsum("q,nq->n", w, vals)


def _cook_adapted(steps):
    """Cook's problem and its mesh after `steps` adaptive iterations."""
    from gapfem.adaptive import _estimate, mark_max

    prob = cook_membrane()
    mesh = prob.mesh_factory()
    for _ in range(steps):
        sol = discretize_elasticity(prob, mesh)
        gap, osc, _ = _estimate(prob, mesh, sol)
        mesh = refine_marked_twice(mesh, mark_max(gap + osc, 0.5))
    return prob, mesh


def _manufactured_bisected(kind):
    """A manufactured elasticity problem on its mesh with a random third
    of the elements bisected twice."""
    prob = manufactured_elasticity(kind, n=4)
    mesh = prob.mesh_factory()
    rng = np.random.default_rng(12)
    marked = np.nonzero(rng.uniform(size=mesh.num_elements) < 0.3)[0]
    return prob, refine_marked_twice(mesh, marked)


GAP_CASES = {
    "cook": lambda: _cook_adapted(3),
    "smooth": lambda: _manufactured_bisected("smooth"),
    "patch": lambda: _manufactured_bisected("patch"),
}


@pytest.mark.parametrize("tensor_load", [False, True])
@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_gap_indicator_elasticity_matches_degree10_oracle(case, tensor_load):
    """The edge-midpoint rule gives the degree-10 value on every element:
    the integrand is quadratic, with sigma* constant (to roundoff) on Cook
    and affine with nonzero divergence on the manufactured problems."""
    from gapfem.spaces import nodal_average

    prob, mesh = GAP_CASES[case]()
    sol = discretize_elasticity(prob, mesh)
    div = np.abs(sol.sigma_star.divergence().values).max()
    assert div < 1e-10 if case == "cook" else div > 0.1
    vhat = nodal_average(sol.u_h + sol.u_hat, mesh, dirichlet_values=prob.u)
    big_f_h = None
    if tensor_load:
        rng = np.random.default_rng(7)
        big_f_h = P0Field(mesh, rng.standard_normal((mesh.num_elements, 2, 2)))
    args = (vhat, sol.sigma_star, prob.material, mesh)
    want = oracle_gap_indicator_elasticity(*args, big_f_h=big_f_h)
    got = gap_indicator_elasticity(*args, big_f_h=big_f_h)
    assert np.all(want > 0)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


# -- the two-sided oracle: the per-slot reconstructions that the one
# element-side average replaces ----------------------------------------------


def oracle_two_sided(mesh, side_values):
    """Average of per-side values over the views of the adjacent elements.

    side_values(sel, e) returns the (m, 2) values that element e[k] gives
    side sel[k].  Returns the (ns, 2) averages and the largest discrepancy
    between the two views of an interior side.
    """
    ns = mesh.num_sides
    out = np.zeros((ns, 2))
    count = np.zeros(ns)
    jump = 0.0
    for slot in (0, 1):
        sel = np.nonzero(mesh.side_elements[:, slot] >= 0)[0]
        vals = side_values(sel, mesh.side_elements[sel, slot])
        if slot == 0:
            out[sel] = vals
        else:
            jump = np.abs(out[sel] - vals).max(initial=0.0)
            out[sel] += vals
        count[sel] += 1.0
    return out / count[:, None], jump


def oracle_flux(mesh, p0_part, slope):
    """(2, ns) side fluxes of row_i(x) = p0_part[T, i] + slope[T, i] (x - x_T)."""
    geo = mesh.geometry()
    mid, nrm, cent = geo["side_midpoint"], geo["side_normal"], geo["centroids"]

    def side_flux(sel, e):
        rel = mid[sel] - cent[e]
        return (
            np.einsum("mid,md->im", p0_part[e], nrm[sel])
            + slope[e].T * np.einsum("md,md->m", rel, nrm[sel])
        ).T

    return oracle_two_sided(mesh, side_flux)[0].T


def oracle_inverse(t_h, u_bar, u_hat, nu, mesh):
    """Midpoint values of u_bar + [(1/nu) dev Pi_h T_h - grad_h u_hat](x - x_T)."""
    geo = mesh.geometry()
    dv = dev(t_h.cell_average().values) / nu - broken_gradient(u_hat).values

    def side_value(sel, e):
        rel = geo["side_midpoint"][sel] - geo["centroids"][e]
        return u_bar.values[e] + np.einsum("mij,mj->mi", dv[e], rel)

    return oracle_two_sided(mesh, side_value)[0]


def solve_affine(mesh, seed):
    """Stokes and elasticity solutions for an affine trace-free lift, a
    constant f_h and random Neumann tractions: (StokesSolution,
    ElasticitySolution), each with its Marini reconstruction."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (2, 2))
    a[1, 1] = -a[0, 0]  # div u_hat = 0
    affine = lambda x: x @ a.T
    u_hat = cr_interpolate(affine, mesh)
    f_h = P0Field(mesh, np.tile(rng.uniform(-1.0, 1.0, 2), (mesh.num_elements, 1)))
    g_h = rng.uniform(-1.0, 1.0, (mesh.num_sides, 2))
    nu = 0.7
    system = assemble_stokes(mesh, nu, u_hat, f_h, None, g_h)
    u_h, p_h, report = system.solve()
    t_h = marini_stokes(u_h, p_h, u_hat, f_h, nu, mesh)
    stokes = StokesSolution(mesh, nu, u_h, p_h, t_h, u_hat, system, report)
    mat = ElasticityTensor(0.7, 5.0)
    system = assemble_elasticity(mesh, mat, u_hat, f_h, None, g_h, dirichlet_datum=affine)
    u_h, report = system.solve()
    r_h = solve_lifting(mesh, u_h + u_hat, mat.mu, datum_load=system.datum_load)
    sigma = marini_elasticity(u_h, u_hat, r_h, f_h, mat, mesh)
    elastic = ElasticitySolution(mesh, mat, u_h, r_h, sigma, u_hat, system, report)
    return stokes, elastic


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_marini_matches_two_sided_oracle(name):
    """Both reconstructions through the one element-side average give the
    fluxes and velocities of the per-slot oracle."""
    mesh = ORACLE_MESHES[name]()
    stokes, elastic = solve_affine(mesh, 5)
    slope = -0.5 * stokes.system.f_h.values
    p0_part = stokes.nu * broken_gradient(stokes.u_h + stokes.u_hat).values
    p0_part -= stokes.p_h.values[:, None, None] * np.eye(2)
    assert_close(stokes.t_h.flux, oracle_flux(mesh, p0_part, slope))
    mat = elastic.material
    p0_part = (mat.apply(broken_sym_gradient(elastic.u_h + elastic.u_hat).values)
               + broken_gradient(elastic.r_h).values)
    assert_close(elastic.sigma_star.flux, oracle_flux(mesh, p0_part, slope))
    u_bar = cr_values_p0(stokes.u_h)
    assert_close(
        marini_stokes_inverse(stokes.t_h, u_bar, stokes.u_hat, stokes.nu, mesh).values,
        oracle_inverse(stokes.t_h, u_bar, stokes.u_hat, stokes.nu, mesh),
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    labeler=st.sampled_from([all_dirichlet, mixed]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 2),
)
def test_reconstruction_contracts_on_refined_meshes(n, labeler, seed, rounds):
    """Criterion 3's contracts on vertex-perturbed meshes after random
    bisection: flux jump, divergence, Neumann trace, optimality and the
    inverse round trip, for Stokes and elasticity."""
    mesh = _bisected_mesh(n, labeler, seed, rounds)
    stokes, elastic = solve_affine(mesh, seed)
    for sol, tau in ((stokes, stokes.t_h), (elastic, elastic.sigma_star)):
        assert tau.reconstruction_jump <= JUMP_TOL
        # div tau + f_h = 0 and tau n = g_h on the Neumann sides
        _, res = check_stress_admissible(tau, sol.system.f_h, sol.system.g_h, mesh)
        assert res <= 1e-10
        assert sol.optimality_residual() <= 1e-10
    back = marini_stokes_inverse(
        stokes.t_h, cr_values_p0(stokes.u_h), stokes.u_hat, stokes.nu, mesh
    )
    assert np.abs(back.values - stokes.u_h.values).max() <= 1e-11
