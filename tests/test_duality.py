import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_forms import _perturbed_mesh

from gapfem import (
    DIRICHLET,
    NEUMANN,
    AdmissibilityError,
    CRField,
    ElasticityTensor,
    P0Field,
    RTField,
    apriori_identity_check_stokes,
    broken_divergence,
    broken_gradient,
    cr_interpolate,
    energies_stokes,
    gap_indicator_stokes,
    gap_indicator_stokes_discrete,
    marini_elasticity,
    marini_stokes,
    marini_stokes_inverse,
    oscillation_indicator,
    random_divfree_cr,
    random_divfree_rt,
    strong_convexity_stokes,
    structured_square_mesh,
)
from gapfem.adaptive import refine_marked_twice
from gapfem.duality import (
    check_stokes_admissible_velocity,
    check_stress_admissible,
    project_divfree_cr,
)
from gapfem.problems import (
    cook_membrane,
    discretize_elasticity,
    discretize_stokes,
    exact_stress,
    manufactured_elasticity,
    taylor_green_stokes,
)
from gapfem.spaces import norm_p0, sym


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
        assert sol.system.residual(sol.u_h) < 1e-10
        div = sol.sigma_star.divergence().values + sol.system.f_h.values
        assert np.abs(div).max() < 1e-10
        assert sol.sigma_star.reconstruction_jump < 1e-10

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
        tau = sol.t_h + random_divfree_rt(mesh, 4, scale=0.1)
        eta = gap_indicator_stokes_discrete(v, tau, sol.u_hat, prob.nu, mesh)
        rho = strong_convexity_stokes(v, tau, sol)
        total = rho["primal"] + rho["dual"]
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

    def test_continuous_indicator_zero_and_decay(self):
        from gapfem.spaces import nodal_average, rt_interpolate

        prob = taylor_green_stokes()
        totals = []
        mesh = structured_square_mesh(5, lambda m: DIRICHLET)
        for _ in range(3):
            icr = cr_interpolate(prob.u, mesh, stream=prob.lift_stream)
            hom = CRField(mesh, np.zeros((mesh.num_sides, 2)))
            vhat = nodal_average(hom, mesh, dirichlet_values=None)
            tau = rt_interpolate(
                lambda x: exact_stress(prob, prob.grad_u(x), prob.p(x)), mesh
            )
            eta = gap_indicator_stokes(vhat, tau, prob.grad_u, prob.nu, mesh)
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

    def test_single_element_oracle(self):
        from gapfem import build_triangulation
        from gapfem.quadrature import physical_points, triangle_rule
        from gapfem.spaces import pi0

        mesh = build_triangulation(
            [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], all_dirichlet
        )
        f = lambda x: np.stack([np.sin(np.pi * x[..., 0]), 0 * x[..., 1]], -1)
        f_h = pi0(f, mesh, degree=20)
        osc = oscillation_indicator(f, f_h, None, None, mesh, degree=20)
        # oracle: degree-20 quadrature of (h^2/pi^2)|f - f_h|^2
        w = triangle_rule(24)[1]
        pts = physical_points(mesh, 24)
        diff = f(pts) - f_h.values[:, None]
        h_t = mesh.geometry()["h_t"][0]
        oracle = (
            h_t**2 / np.pi**2
            * mesh.areas[0]
            * np.einsum("q,nqi,nqi->n", w, diff, diff)[0]
        )
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
        en = energies_stokes(bad_v, sol.t_h, sol.system)
        assert en["primal"] == np.inf
        bad_tau = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
        en = energies_stokes(sol.u_h, bad_tau, sol.system)
        assert en["dual"] == -np.inf

    def test_strong_duality_at_solution(self, tg_solution):
        prob, mesh, sol = tg_solution
        en = energies_stokes(sol.u_h, sol.t_h, sol.system)
        scale = abs(en["primal"]) + abs(en["dual"])
        assert abs(en["primal"] - en["dual"]) <= 1e-12 * max(scale, 1.0)

    def test_taylor_expansion_of_primal_energy(self, tg_solution):
        # I_h(v) - I_h(u_h) equals the quadratic strong convexity measure
        prob, mesh, sol = tg_solution
        v = sol.u_h + random_divfree_cr(mesh, [11], [0.2])[0]
        en_v = energies_stokes(v, sol.t_h, sol.system)
        en_u = energies_stokes(sol.u_h, sol.t_h, sol.system)
        rho = strong_convexity_stokes(v, sol.t_h, sol)
        assert en_v["primal"] - en_u["primal"] == pytest.approx(
            rho["primal"], rel=1e-10
        )


class TestAdmissiblePair:
    def test_valid_pair_constructs_and_gap(self, tg_solution):
        # a perturbed admissible pair passes both checks, and its discrete
        # gap is I_h(v) - D_h(tau) = rho_primal + rho_dual
        prob, mesh, sol = tg_solution
        system = sol.system
        v = sol.u_h + random_divfree_cr(mesh, [21], [0.05])[0]
        tau = sol.t_h + random_divfree_rt(mesh, 22, scale=0.05)
        assert check_stokes_admissible_velocity(v)[0]
        assert check_stress_admissible(tau, system.f_h, system.g_h, mesh)[0]
        gap = gap_indicator_stokes_discrete(
            v, tau, system.u_hat, system.nu, mesh, big_f_h=system.big_f_h
        ).sum()
        en = energies_stokes(v, tau, system)
        rho = strong_convexity_stokes(v, tau, sol)
        assert gap == pytest.approx(rho["primal"] + rho["dual"], rel=1e-8)
        assert en["primal"] - en["dual"] == pytest.approx(gap, rel=1e-8)

    def test_invalid_pair_rejected(self, tg_solution):
        prob, mesh, sol = tg_solution
        rng = np.random.default_rng(0)
        bad = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        assert not check_stokes_admissible_velocity(bad)[0]
        assert energies_stokes(bad, sol.t_h, sol.system)["primal"] == np.inf


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
    tau = sol.t_h + random_divfree_rt(mesh, seed + 1, scale=10.0 ** log_scales[1])
    en = energies_stokes(v, tau, sol.system)
    rho = strong_convexity_stokes(v, tau, sol)
    gap = en["primal"] - en["dual"]
    assert gap == pytest.approx(rho["primal"] + rho["dual"], rel=1e-10, abs=0.0)


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
        # each seed keeps its own stream through the one block projection
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            both = random_divfree_cr(mesh, [7, 8], [0.3, 2.0])
            for field, seed, scale in zip(both, [7, 8], [0.3, 2.0]):
                (one,) = random_divfree_cr(mesh, [seed], [scale])
                assert np.abs(field.values - one.values).max() <= 1e-12
                assert norm_p0(broken_gradient(field)) == pytest.approx(scale)

    def test_projector_fixed_point(self):
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(4, labeler)
            (v,) = random_divfree_cr(mesh, [5], 1.0)
            (w,) = project_divfree_cr(mesh, v.dofs()[:, None])
            assert norm_p0(broken_gradient(w - v)) < 1e-12

    def test_divfree_rt_properties(self):
        mesh = structured_square_mesh(5, mixed)
        tau = random_divfree_rt(mesh, 3)
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
        from gapfem.duality import gap_indicator_elasticity
        from gapfem.quadrature import physical_points, triangle_rule
        from gapfem.spaces import nodal_average

        prob = manufactured_elasticity("patch", n=4)
        mat = prob.material
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        vhom = nodal_average(sol.u_h, mesh, dirichlet_values=None)
        gap = gap_indicator_elasticity(
            vhom, sol.sigma_star, mat, mesh, grad_u=prob.grad_u, degree=12
        ).sum()
        w = triangle_rule(12)[1]
        pts = physical_points(mesh, 12)
        gu = prob.grad_u(pts)
        gv = vhom.gradient().values[:, None] + gu
        ed = sym(gv) - sym(gu)
        rho_p = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(ed, ed))
        )
        sd = sol.sigma_star.evaluate(pts) - exact_stress(prob, gu, None)
        rho_d = 0.5 * np.sum(
            mesh.areas * np.einsum("q,nq->n", w, mat.complementary_product(sd, sd))
        )
        skew_term = np.sum(
            mesh.areas
            * np.einsum(
                "q,nqij,nqij->n", w, skew(sol.sigma_star.evaluate(pts)), gu - gv
            )
        )
        assert rho_p + rho_d == pytest.approx(gap + skew_term, rel=1e-9)
