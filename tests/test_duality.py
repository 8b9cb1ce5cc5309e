import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_forms import (
    ORACLE_MESHES,
    _bisected_mesh,
    _perturbed_mesh,
    assert_close,
    cr_block,
    cr_fields,
    div_h,
    rt_block,
    rt_fields,
    stokes_system,
    tg_labeler,
    zero_datum,
)
from test_spaces import block_oscillation, block_pi0, inner_p0

from gapfem import (
    DIRICHLET,
    NEUMANN,
    AdmissibilityError,
    CRField,
    ElasticitySolution,
    ElasticityTensor,
    RTField,
    StokesSolution,
    apriori_identity_check_stokes,
    assemble_elasticity,
    assemble_stokes,
    broken_gradient,
    cr_interpolate,
    energies_stokes,
    gap_indicator_elasticity,
    gap_indicator_stokes,
    gap_indicator_stokes_discrete,
    marini_elasticity,
    marini_stokes,
    random_divfree_cr,
    random_divfree_rt,
    solve_lifting,
    strong_convexity_stokes,
    structured_square_mesh,
)
from gapfem.adaptive import refine_marked_twice
from gapfem.duality import JUMP_TOL
from gapfem.problems import (
    cook_membrane,
    discretize_elasticity,
    discretize_stokes,
    exact_stress,
    lshape_stokes,
    manufactured_elasticity,
    taylor_green_stokes,
)
from gapfem.spaces import (
    MeshOperators,
    curl_operator,
    dev,
    norm_p0,
    rt_divergence_operator,
    sym,
)


def cr_values_p0(v):
    """Element averages Pi_h v of a CR field (exact: value at the centroid)."""
    return v.values[v.mesh.element_sides].mean(axis=1)


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
        p = np.zeros(mesh.num_elements)
        t = marini_stokes(stokes_system(mesh, 1.0), broken_gradient(u), p)
        assert np.abs(t.flux).max() == 0.0

    def test_correction_divergence_identity(self):
        # the correction -(1/d) f (id - Pi id) alone has divergence -f
        mesh = structured_square_mesh(2, all_dirichlet)
        f = np.tile([1.0, 0.0], (mesh.num_elements, 1))
        u = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        p = np.zeros(mesh.num_elements)
        # the zero solution does not solve either system with f != 0, so
        # both reconstructions (one shared equilibration) must flag it
        mat = ElasticityTensor(1.0, 5.0)
        reconstructions = {
            "stokes": lambda: marini_stokes(
                assemble_stokes(mesh, 1.0, u, f, None, None), broken_gradient(u), p
            ),
            "elasticity": lambda: marini_elasticity(
                assemble_elasticity(mesh, mat, u, f, None, None, dirichlet_datum=zero_datum),
                broken_gradient(u), broken_gradient(u),
            ),
        }
        for reconstruct in reconstructions.values():
            with pytest.raises(AdmissibilityError, match="interior flux jumps"):
                reconstruct()

    def test_taylor_green_contracts(self, tg_solution):
        prob, mesh, sol = tg_solution
        assert sol.optimality_residual() < 1e-10
        div = sol.t_h.divergence(MeshOperators(mesh)) + sol.system.f_h
        assert np.abs(div).max() < 1e-10
        assert oracle_stress_residual(sol.t_h, sol.system.f_h, sol.system.g_h, mesh) < 1e-10

    def test_inverse_roundtrip(self, tg_solution):
        prob, mesh, sol = tg_solution
        u_bar = cr_values_p0(sol.u_h)
        back = oracle_inverse(sol.t_h, u_bar, sol.u_hat, prob.nu, mesh)
        assert np.abs(back - sol.u_h.values).max() < 1e-12

    def test_inverse_affine_patch(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        a = np.array([[0.7, 0.4], [1.1, -0.7]])
        u_hat = cr_interpolate(lambda x: x @ a.T, mesh)
        system = assemble_stokes(mesh, 0.5, u_hat, None, None, None)
        u, p, _ = system.solve()
        t = marini_stokes(system, broken_gradient(u + u_hat), p)
        back = oracle_inverse(t, cr_values_p0(u), u_hat, 0.5, mesh)
        assert np.abs(back - u.values).max() < 1e-11


def scaled_taylor_green(a):
    """The Taylor-Green problem with every field (u, grad u, p, f, g and the
    lift's stream) multiplied by a."""
    prob = taylor_green_stokes()
    fields = ("u", "grad_u", "p", "f", "g", "lift_stream")
    return dataclasses.replace(prob, **{
        name: (lambda f: lambda *args: a * f(*args))(getattr(prob, name)) for name in fields
    })


class TestScaleFreeChecks:
    """The lift check of the Stokes assembly, the reconstruction's jump
    check and the admissibility of `energies_stokes` measure roundoff
    against the terms it comes from, so they hold exact data at any scale
    and refuse an inconsistent pair or a broken constraint at any scale."""

    @pytest.mark.parametrize("a", [1e4, 1e6])
    def test_scaled_flow_solves(self, a):
        prob, unit = scaled_taylor_green(a), taylor_green_stokes()
        mesh = prob.mesh_factory()
        for _ in range(3):
            sol, ref = discretize_stokes(prob, mesh), discretize_stokes(unit, mesh)
            for new, old in ((sol.u_h.values, ref.u_h.values), (sol.t_h.flux, ref.t_h.flux)):
                assert np.abs(new - a * old).max() <= 1e-10 * a * np.abs(old).max()
            back = oracle_inverse(sol.t_h, cr_values_p0(sol.u_h), sol.u_hat, prob.nu, mesh)
            assert np.abs(back - sol.u_h.values).max() <= 1e-10 * a
            mesh = refine_marked_twice(mesh, np.arange(mesh.num_elements))

    @pytest.mark.parametrize("a", [1e-8, 1e4])
    def test_scaled_solution_admissible(self, a):
        # energies_stokes measures each residual against the terms it sums,
        # so the discrete solution pair is admissible at any scale
        prob = scaled_taylor_green(a)
        mesh = prob.mesh_factory()
        for level in range(1, 5):
            sol = discretize_stokes(prob, mesh)
            en = energies_stokes(cr_block([sol.u_h]), rt_block([sol.t_h]), sol.system)
            assert np.isfinite(en["primal"][0]) and np.isfinite(en["dual"][0])
            if level < 4:
                mesh = refine_marked_twice(mesh, np.arange(mesh.num_elements))

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e4])
    def test_broken_constraint_refused(self, a):
        # 1% of the largest velocity along the normal of one interior side
        # breaks div_h v = 0, and 1% of the largest flux on that side breaks
        # div tau = -f_h: each gets an infinite energy at any scale
        prob = scaled_taylor_green(a)
        mesh = prob.mesh_factory()
        sol = discretize_stokes(prob, mesh)
        side = np.flatnonzero(mesh.side_elements[:, 1] >= 0)[40]
        values = sol.u_h.values.copy()
        values[side] += 0.01 * np.abs(values).max() * mesh.geometry()["side_normal"][side]
        flux = sol.t_h.flux.copy()
        flux[0, side] += 0.01 * np.abs(flux).max()
        vs, taus = [CRField(mesh, values), sol.u_h], [sol.t_h, RTField(mesh, flux)]
        en = energies_stokes(cr_block(vs), rt_block(taus), sol.system)
        assert en["primal"][0] == np.inf and en["dual"][1] == -np.inf
        assert np.isfinite(en["primal"][1]) and np.isfinite(en["dual"][0])

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
            marini_stokes(sol.system, broken_gradient(CRField(mesh, values) + sol.u_hat),
                          sol.p_h)


@pytest.mark.parametrize("lam", [1e6, 1e8, 1e10])
def test_nearly_incompressible_cook(lam):
    """Cook's membrane with mu = 1 and Poisson ratios up to 1 - 5e-11: the
    elasticity jump check measures the reconstruction's roundoff against
    the terms before lambda tr eps cancels, so 13 adaptive steps run, the
    optimality residual relative to those terms stays at roundoff, and a
    solution perturbed in one DOF is still refused."""
    from gapfem.adaptive import AdaptiveConfig, run_adaptive
    from gapfem.forms import SOLVE_TOL
    from gapfem.spaces import cr_gradient_operator

    prob = dataclasses.replace(cook_membrane(), material=ElasticityTensor(1.0, lam))
    records = run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=13)).records
    assert len(records) == 13
    assert max(r.backward_error for r in records) <= SOLVE_TOL
    assert max(r.optimality_residual for r in records) <= 1e-10
    mesh = prob.mesh_factory()
    sol = discretize_elasticity(prob, mesh)
    values = sol.u_h.values.copy()
    values[np.flatnonzero(mesh.side_elements[:, 1] >= 0)[40], 0] += 0.01 * np.abs(values).max()
    u_total = CRField(mesh, values) + sol.u_hat
    grad = cr_gradient_operator(mesh)
    grads = [(grad @ u.dofs()).reshape(-1, 2, 2)
             for u in (u_total, solve_lifting(sol.system, u_total))]
    with pytest.raises(AdmissibilityError, match="interior flux jumps"):
        marini_elasticity(sol.system, *grads)


class TestMariniElasticity:
    def test_zero_data(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        mat = ElasticityTensor(1.0, 5.0)
        zero = CRField(mesh, np.zeros((mesh.num_sides, 2)))
        system = assemble_elasticity(
            mesh, mat, zero, None, None, None, dirichlet_datum=zero_datum
        )
        sigma = marini_elasticity(system, broken_gradient(zero), broken_gradient(zero))
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
        assert np.abs(sol.sigma_star.divergence(MeshOperators(mesh))).max() < 1e-10
        assert oracle_stress_residual(sol.sigma_star, None, sol.system.g_h, mesh) < 1e-10
        # skew defect is controlled by the stabilisation energy of the total
        # field (both vanish here only in the conforming limit)
        skew_norm = norm_p0(mesh, skew(sol.sigma_star.cell_average(MeshOperators(mesh))))
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
        div = sol.sigma_star.divergence(MeshOperators(mesh)) + sol.system.f_h
        assert np.abs(div).max() < 1e-10
        assert sol.sigma_star.reconstruction_jump < 1e-10
        # on the all-Dirichlet square the constant tensor load leaves u_h
        # as it is, so sigma* + F_h is the stress of the problem without
        # it, and so is the gap indicator given F_h
        from gapfem.spaces import nodal_average

        ref = discretize_elasticity(manufactured_elasticity("smooth", n=3), mesh)
        v = nodal_average(ref.u_h + ref.u_hat, mesh, dirichlet_values=prob.u)
        want = gap_indicator_elasticity(ref.system, v, ref.sigma_star)
        got = gap_indicator_elasticity(system, v, sol.sigma_star)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_manufactured_contracts(self):
        prob = manufactured_elasticity("smooth", n=4)
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        assert sol.optimality_residual() < 1e-10
        div = sol.sigma_star.divergence(MeshOperators(mesh)) + sol.system.f_h
        assert np.abs(div).max() < 1e-10


class TestGapIndicators:
    def test_solution_pair_zero_gap(self, tg_solution):
        prob, mesh, sol = tg_solution
        eta = gap_indicator_stokes_discrete(sol.system, cr_block([sol.u_h]), rt_block([sol.t_h]))
        assert eta.shape == (1, mesh.num_elements)
        assert eta.sum() < 1e-20

    def test_perturbed_pair_matches_rho_tot(self, tg_solution):
        prob, mesh, sol = tg_solution
        ops = sol.system.ops
        v = random_divfree_cr(ops, [3], [0.1]) + cr_block([sol.u_h])
        tau = random_divfree_rt(ops, [4], [0.1]) + rt_block([sol.t_h])
        eta = gap_indicator_stokes_discrete(sol.system, v, tau)
        rho = strong_convexity_stokes(v, tau, sol.system, sol.u_h, sol.t_h)
        total = rho["primal"][0] + rho["dual"][0]
        assert eta.sum() == pytest.approx(total, rel=1e-8)
        assert np.all(eta >= 0)

    def test_nu_scaling(self):
        # doubling nu and scaling tau by 2 with v fixed scales eta^2 by 2;
        # each nu has its own system, with zero lift and load
        mesh = structured_square_mesh(3, all_dirichlet)
        rng = np.random.default_rng(8)
        v = cr_block([CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))])
        tau = rt_block([RTField(mesh, rng.standard_normal((2, mesh.num_sides)))])
        e1 = gap_indicator_stokes_discrete(stokes_system(mesh, 1.0), v, tau)
        e2 = gap_indicator_stokes_discrete(stokes_system(mesh, 2.0), v, 2.0 * tau)
        assert np.allclose(e2, 2.0 * e1, rtol=1e-12)

    @pytest.mark.parametrize("load", ["traction", "tensor"])
    def test_continuous_indicator_zero_and_decay(self, load):
        # with a tensor load the stress is given relative to F, and F_h is
        # added back inside the indicator; Taylor-Green's F is a multiple
        # of I, which dev removes, so a skew part is added to it
        from gapfem.spaces import nodal_average, rt_interpolate

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
            big_f_h = None if prob.big_f is None else block_pi0(big_f, mesh)
            # the system of the zero lift and the tensor load
            system = assemble_stokes(mesh, prob.nu, hom, None, big_f_h, None)
            eta = gap_indicator_stokes(system, vhat, tau, prob.grad_u)
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
        eta = gap_indicator_stokes(stokes_system(mesh, 1.0), v, tau, None)
        assert np.abs(eta).max() == 0.0


class TestOscillation:
    @pytest.mark.parametrize("tensor", [False, True], ids=["f", "big-f"])
    def test_projection_needs_one_row_per_element(self, tensor):
        # a single row would broadcast over every element and give a
        # plausible number
        mesh = structured_square_mesh(2, all_dirichlet)
        wave = lambda x: np.sin(np.pi * x[..., 0])
        if tensor:
            args = (None, None, lambda x: wave(x)[..., None, None] * np.eye(2), np.ones((1, 2, 2)))
        else:
            args = (lambda x: np.stack([wave(x), 0 * wave(x)], -1), np.ones((1, 2)), None, None)
        with pytest.raises(ValueError, match="one row per element"):
            block_oscillation(*args, mesh)

    def test_constant_data_zero(self):
        mesh = structured_square_mesh(4, all_dirichlet)
        f = lambda x: np.stack([np.ones(x.shape[:-1]), -2 * np.ones(x.shape[:-1])], -1)
        osc = block_oscillation(f, block_pi0(f, mesh), None, None, mesh)
        assert np.abs(osc).max() < 1e-26

    @pytest.mark.parametrize("tensor", [False, True], ids=["f", "big-f"])
    def test_single_element_oracle(self, tensor):
        from gapfem import build_triangulation
        from gapfem.quadrature import physical_points, triangle_rule

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
        data_h = block_pi0(data, mesh, degree=20)
        args = (None, None, data, data_h) if tensor else (data, data_h, None, None)
        osc = block_oscillation(*args, mesh, degree=20)
        # oracle: degree-24 quadrature of (h^2/pi^2)|f - f_h|^2, or of
        # |F - F_h|^2 without the h^2/pi^2 factor
        w = triangle_rule(24)[1]
        pts = physical_points(mesh, 24)
        diff = (data(pts) - data_h[:, None]).reshape(1, len(w), -1)
        weight = 1.0 if tensor else mesh.geometry()["h_t"][0] ** 2 / np.pi**2
        oracle = weight * mesh.areas[0] * np.einsum("q,nqi,nqi->n", w, diff, diff)[0]
        assert oracle > 0.0
        assert osc[0] == pytest.approx(oracle, rel=1e-10)

    def test_refinement_scaling(self):
        f = lambda x: np.stack([np.sin(np.pi * x[..., 0]), 0 * x[..., 1]], -1)
        totals = []
        mesh = structured_square_mesh(4, all_dirichlet)
        for _ in range(3):
            osc = block_oscillation(f, block_pi0(f, mesh), None, None, mesh)
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
        en = energies_stokes(cr_block([bad_v]), rt_block([sol.t_h]), sol.system)
        assert en["primal"][0] == np.inf
        bad_tau = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
        en = energies_stokes(cr_block([sol.u_h]), rt_block([bad_tau]), sol.system)
        assert en["dual"][0] == -np.inf

    def test_strong_duality_at_solution(self, tg_solution):
        prob, mesh, sol = tg_solution
        en = energies_stokes(cr_block([sol.u_h]), rt_block([sol.t_h]), sol.system)
        scale = abs(en["primal"][0]) + abs(en["dual"][0])
        assert abs(en["primal"][0] - en["dual"][0]) <= 1e-12 * max(scale, 1.0)

    def test_taylor_expansion_of_primal_energy(self, tg_solution):
        # I_h(v) - I_h(u_h) equals the quadratic strong convexity measure
        prob, mesh, sol = tg_solution
        v = random_divfree_cr(sol.system.ops, [11], [0.2]) + cr_block([sol.u_h])
        tau = rt_block([sol.t_h])
        en = energies_stokes(np.hstack([v, cr_block([sol.u_h])]), np.hstack([tau, tau]),
                             sol.system)
        rho = strong_convexity_stokes(v, tau, sol.system, sol.u_h, sol.t_h)
        assert en["primal"][0] - en["primal"][1] == pytest.approx(
            rho["primal"][0], rel=1e-10
        )


def oracle_velocity_residual(v_h):
    """Absolute admissibility residual of a CR velocity: the larger of
    max |div_h v| and the largest Dirichlet value."""
    bc = np.abs(v_h.values[v_h.mesh.side_labels == DIRICHLET]).max(initial=0.0)
    return max(np.abs(div_h(v_h)).max(initial=0.0), bc)


def oracle_stress_residual(tau_h, f_h, g_h, mesh):
    """Absolute admissibility residual of an RT stress: the larger of
    max |div tau + f_h| and max |tau n - g_h| on the Neumann sides."""
    fv = 0.0 if f_h is None else f_h
    res = np.abs(tau_h.divergence(MeshOperators(mesh)) + fv).max()
    neumann = mesh.sides_with_label(NEUMANN)
    if len(neumann):
        tn = tau_h.flux[:, neumann].T
        if g_h is not None:
            tn = tn - g_h[neumann]
        res = max(res, np.abs(tn).max())
    return res


def oracle_energies(v_h, tau_h, system, tol=1e-8):
    """Former per-sample energies_stokes with the former absolute
    admissibility checks."""
    mesh, nu = system.mesh, system.nu
    primal = np.inf
    if oracle_velocity_residual(v_h) <= tol:
        grad_tot = broken_gradient(v_h + system.u_hat)
        primal = 0.5 * nu * norm_p0(mesh, grad_tot) ** 2 - system.load_vector @ v_h.dofs()
    dual = -np.inf
    if oracle_stress_residual(tau_h, system.f_h, system.g_h, mesh) <= tol:
        avg = tau_h.cell_average(MeshOperators(mesh))
        if system.big_f_h is not None:
            avg = avg + system.big_f_h
        devavg = dev(avg)
        grad_hat = broken_gradient(system.u_hat)
        dual = -norm_p0(mesh, devavg) ** 2 / (2.0 * nu) + inner_p0(mesh, devavg, grad_hat)
    return primal, dual


def oracle_strong_convexity(v_h, tau_h, solution):
    """Former per-sample strong_convexity_stokes."""
    nu = solution.nu
    diff = CRField(solution.mesh, v_h.values - solution.u_h.values)
    rho_primal = 0.5 * nu * norm_p0(solution.mesh, broken_gradient(diff)) ** 2
    ops = MeshOperators(solution.mesh)
    ddev = dev(tau_h.cell_average(ops)) - dev(solution.t_h.cell_average(ops))
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
        ops = sol.system.ops
        vs = [sol.u_h + w for w in cr_fields(mesh, random_divfree_cr(ops, seeds, scales))]
        taus = [RTField(mesh, sol.t_h.flux + r.flux)
                for r in rt_fields(mesh, random_divfree_rt(ops, seeds, scales))]
        rng = np.random.default_rng(3)
        vs[1] = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        taus[3] = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
        return sol, vs, taus

    def test_energies_match_oracle(self, block):
        sol, vs, taus = block
        en = energies_stokes(cr_block(vs), rt_block(taus), sol.system)
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
        rho = strong_convexity_stokes(cr_block(vs), rt_block(taus), sol.system, sol.u_h, sol.t_h)
        for k, (v, tau) in enumerate(zip(vs, taus)):
            primal, dual = oracle_strong_convexity(v, tau, sol)
            assert rho["primal"][k] == pytest.approx(primal, rel=1e-12)
            assert rho["dual"][k] == pytest.approx(dual, rel=1e-12)

    def test_identity_per_column(self, block):
        sol, vs, taus = block
        dofs, flux = cr_block(vs), rt_block(taus)
        en = energies_stokes(dofs, flux, sol.system)
        rho = strong_convexity_stokes(dofs, flux, sol.system, sol.u_h, sol.t_h)
        gap = en["primal"] - en["dual"]
        ok = [0, 2, 4]
        assert gap[ok] == pytest.approx((rho["primal"] + rho["dual"])[ok], rel=1e-10)

    def test_blocks_equal_the_list_api(self, block):
        """The samples formed in place as blocks, with the solved system's
        operator set, equal the blocks stacked from the field-by-field sums
        u_h + w and T_h + r, and give their energies and convexity measures
        bit for bit, the inadmissible columns' +inf and -inf included."""
        sol, vs, taus = block
        ops = sol.system.ops
        seeds, scales = [31, 32, 33, 34, 35], [0.01, 0.1, 1.0, 0.3, 0.03]
        dofs = random_divfree_cr(ops, seeds, scales)
        dofs += sol.u_h.dofs()[:, None]
        flux = random_divfree_rt(ops, seeds, scales)
        for i in range(2):
            flux[:, i::2] += sol.t_h.flux[i][:, None]
        dofs[:, 1] = vs[1].dofs()
        flux[:, 6:8] = taus[3].flux.T
        stacked_dofs, stacked_flux = cr_block(vs), rt_block(taus)
        assert np.array_equal(dofs, stacked_dofs)
        assert np.array_equal(flux.T.reshape(5, 2, -1), np.stack([t.flux for t in taus]))
        assert np.array_equal(flux, stacked_flux)
        en = energies_stokes(dofs, flux, sol.system)
        rho = strong_convexity_stokes(dofs, flux, sol.system, sol.u_h, sol.t_h)
        want_en = energies_stokes(stacked_dofs, stacked_flux, sol.system)
        want_rho = strong_convexity_stokes(stacked_dofs, stacked_flux, sol.system, sol.u_h,
                                           sol.t_h)
        for got, want in ((en, want_en), (rho, want_rho)):
            assert got.keys() == want.keys()
            for key in got:
                assert np.array_equal(got[key], want[key]), key
        assert en["primal"][1] == np.inf and en["dual"][3] == -np.inf
        assert np.isfinite(en["primal"][[0, 2, 3, 4]]).all()
        # the blocks are read, not changed
        assert np.array_equal(dofs, cr_block(vs))
        assert np.array_equal(flux, rt_block(taus))


class TestAdmissiblePair:
    def test_valid_pair_constructs_and_gap(self, tg_solution):
        # a perturbed admissible pair passes both checks, and its discrete
        # gap is I_h(v) - D_h(tau) = rho_primal + rho_dual
        prob, mesh, sol = tg_solution
        system = sol.system
        (v,) = cr_fields(mesh, random_divfree_cr(system.ops, [21], [0.05]) + cr_block([sol.u_h]))
        (tau,) = rt_fields(mesh, random_divfree_rt(system.ops, [22], [0.05]) + rt_block([sol.t_h]))
        assert oracle_velocity_residual(v) <= 1e-10
        assert oracle_stress_residual(tau, system.f_h, system.g_h, mesh) <= 1e-10
        dofs, flux = cr_block([v]), rt_block([tau])
        gap = gap_indicator_stokes_discrete(system, dofs, flux).sum()
        en = energies_stokes(dofs, flux, system)
        rho = strong_convexity_stokes(dofs, flux, system, sol.u_h, sol.t_h)
        assert gap == pytest.approx(rho["primal"][0] + rho["dual"][0], rel=1e-8)
        assert en["primal"][0] - en["dual"][0] == pytest.approx(gap, rel=1e-8)

    def test_invalid_pair_rejected(self, tg_solution):
        prob, mesh, sol = tg_solution
        rng = np.random.default_rng(0)
        bad = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
        assert oracle_velocity_residual(bad) > 1e-10
        en = energies_stokes(cr_block([bad]), rt_block([sol.t_h]), sol.system)
        assert en["primal"][0] == np.inf


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
    ops = sol.system.ops
    v = random_divfree_cr(ops, [seed], [10.0 ** log_scales[0]]) + cr_block([sol.u_h])
    tau = random_divfree_rt(ops, [seed + 1], [10.0 ** log_scales[1]]) + rt_block([sol.t_h])
    en = energies_stokes(v, tau, sol.system)
    rho = strong_convexity_stokes(v, tau, sol.system, sol.u_h, sol.t_h)
    gap = en["primal"][0] - en["dual"][0]
    assert gap == pytest.approx(rho["primal"][0] + rho["dual"][0], rel=1e-10, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(
    factory=st.sampled_from([taylor_green_stokes, lshape_stokes]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 3),
    fraction=st.floats(0.05, 0.5),
)
def test_discrete_identity_after_random_marking(factory, seed, rounds, fraction):
    """gap = rho_primal + rho_dual, to criterion 2's 1e-6, for random
    admissible pairs around the discrete solution on meshes refined by
    rounds of random marks: Taylor-Green (mixed boundary) and the L-shape
    (pure Dirichlet)."""
    prob = factory()
    mesh = prob.mesh_factory()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        mesh = refine_marked_twice(
            mesh, np.flatnonzero(rng.uniform(size=mesh.num_elements) < fraction)
        )
    sol = discretize_stokes(prob, mesh)
    seeds = [seed, seed + 1, seed + 2]
    scales = 10.0 ** rng.uniform(-2.0, 1.0, (2, len(seeds)))
    ops = sol.system.ops
    v = random_divfree_cr(ops, seeds, scales[0]) + sol.u_h.dofs()[:, None]
    tau = random_divfree_rt(ops, [s + 3 for s in seeds], scales[1])
    tau += np.tile(sol.t_h.flux.T, len(seeds))
    en = energies_stokes(v, tau, sol.system)
    rho = strong_convexity_stokes(v, tau, sol.system, sol.u_h, sol.t_h)
    rho_tot = rho["primal"] + rho["dual"]
    assert np.all(np.abs(en["primal"] - en["dual"] - rho_tot) <= 1e-6 * rho_tot)


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
    ops = MeshOperators(mesh)
    fields = cr_fields(mesh, random_divfree_cr(ops, seeds, scales))
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
        c = scale / norm_p0(mesh, broken_gradient(raw))
        assert np.abs(field.values - c * raw.values).max() <= (
            1e-12 * c * np.abs(raw.values).max()
        )
        potential = c * (div_op @ (abs(curl) @ np.abs(phi) + np.abs(psi)))
        assert np.all(np.abs(div_h(field)) <= 1e-14 * potential)
        assert np.abs(field.values[dirichlet]).max(initial=0.0) == 0.0
        (one,) = cr_fields(mesh, random_divfree_cr(ops, [s], [scale]))
        assert np.abs(field.values - one.values).max() <= (
            1e-12 * np.abs(one.values).max()
        )


class TestRandomFields:
    def test_divfree_cr_properties(self):
        # all-Dirichlet (pressure gauge row) and mixed Dirichlet/Neumann
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            v1, v2 = cr_fields(mesh, random_divfree_cr(MeshOperators(mesh), [1, 2], 1.0))
            assert np.abs(div_h(v1)).max() < 1e-10
            assert np.abs(v1.values[mesh.side_labels == DIRICHLET]).max() == 0.0
            assert norm_p0(mesh, broken_gradient(CRField(mesh, v1.values - v2.values))) > 1e-3

    def test_block_equals_single_seeds(self):
        # each seed keeps its own stream through the one block product
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            ops = MeshOperators(mesh)
            both = cr_fields(mesh, random_divfree_cr(ops, [7, 8], [0.3, 2.0]))
            for field, seed, scale in zip(both, [7, 8], [0.3, 2.0]):
                (one,) = cr_fields(mesh, random_divfree_cr(ops, [seed], [scale]))
                assert np.abs(field.values - one.values).max() <= 1e-12
                assert norm_p0(mesh, broken_gradient(field)) == pytest.approx(scale)

    def test_divfree_rt_block_equals_single_seeds(self):
        for labeler in (all_dirichlet, mixed):
            mesh = structured_square_mesh(5, labeler)
            ops = MeshOperators(mesh)
            both = rt_fields(mesh, random_divfree_rt(ops, [7, 8], [0.3, 2.0]))
            for field, seed, scale in zip(both, [7, 8], [0.3, 2.0]):
                (one,) = rt_fields(mesh, random_divfree_rt(ops, [seed], [scale]))
                assert np.abs(field.flux - one.flux).max() <= 1e-14
                devavg = dev(field.cell_average(ops))
                assert norm_p0(mesh, devavg) == pytest.approx(scale)

    def test_divfree_rt_properties(self):
        mesh = structured_square_mesh(5, mixed)
        ops = MeshOperators(mesh)
        (tau,) = rt_fields(mesh, random_divfree_rt(ops, [3], 1.0))
        assert np.abs(tau.divergence(ops)).max() < 1e-13
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
        from gapfem.quadrature import physical_points, triangle_rule
        from gapfem.spaces import nodal_average

        prob = manufactured_elasticity("smooth", n=4)
        mat = prob.material
        mesh = prob.mesh_factory()
        for _ in range(2):
            sol = discretize_elasticity(prob, mesh)
            vhat = nodal_average(sol.u_h + sol.u_hat, mesh, dirichlet_values=prob.u)
            gap = gap_indicator_elasticity(sol.system, vhat, sol.sigma_star).sum()
            w = triangle_rule(12)[1]
            pts = physical_points(mesh, 12)
            gu = prob.grad_u(pts)
            gv = vhat.gradient()[:, None] + np.zeros_like(gu)
            ed = sym(gv) - sym(gu)
            rho_p = 0.5 * np.sum(
                mesh.areas * np.einsum("q,nq->n", w, mat.energy_product(ed, ed))
            )
            sd = sol.sigma_star.evaluate(pts, MeshOperators(mesh)) - exact_stress(prob, gu, None)
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
        gv = vhom.gradient()[:, None] + gu
        sv = sol.sigma_star.evaluate(pts, MeshOperators(mesh))
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
    gv = v.gradient()[:, None, :, :] + np.zeros(pts.shape[:2] + (2, 2))
    sv = sigma.evaluate(pts, MeshOperators(mesh))
    if big_f_h is not None:
        sv = sv + big_f_h[:, None]
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
    div = np.abs(sol.sigma_star.divergence(MeshOperators(mesh))).max()
    assert div < 1e-10 if case == "cook" else div > 0.1
    vhat = nodal_average(sol.u_h + sol.u_hat, mesh, dirichlet_values=prob.u)
    system = sol.system
    if tensor_load:
        # a random F_h that no system was solved with: only the attributes
        # the indicator reads
        rng = np.random.default_rng(7)
        big_f_h = rng.standard_normal((mesh.num_elements, 2, 2))
        system = SimpleNamespace(mesh=mesh, material=prob.material, big_f_h=big_f_h,
                                 ops=MeshOperators(mesh))
    want = oracle_gap_indicator_elasticity(
        vhat, sol.sigma_star, prob.material, mesh, big_f_h=system.big_f_h
    )
    got = gap_indicator_elasticity(system, vhat, sol.sigma_star)
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
    dv = dev(t_h.cell_average(MeshOperators(mesh))) / nu - broken_gradient(u_hat)

    def side_value(sel, e):
        rel = geo["side_midpoint"][sel] - geo["centroids"][e]
        return u_bar[e] + np.einsum("mij,mj->mi", dv[e], rel)

    return oracle_two_sided(mesh, side_value)[0]


def solve_affine(mesh, seed):
    """Stokes and elasticity solutions for an affine trace-free lift, a
    constant f_h and random Neumann tractions: (StokesSolution,
    ElasticitySolution), each with its Marini reconstruction and the zero
    oscillation of its element-wise constant data."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (2, 2))
    a[1, 1] = -a[0, 0]  # div u_hat = 0
    affine = lambda x: x @ a.T
    u_hat = cr_interpolate(affine, mesh)
    f_h = np.tile(rng.uniform(-1.0, 1.0, 2), (mesh.num_elements, 1))
    g_h = rng.uniform(-1.0, 1.0, (mesh.num_sides, 2))
    nu = 0.7
    system = assemble_stokes(mesh, nu, u_hat, f_h, None, g_h)
    u_h, p_h, report = system.solve()
    grad_h = broken_gradient(u_h + u_hat)
    osc = np.zeros(mesh.num_elements)
    t_h = marini_stokes(system, grad_h, p_h)
    stokes = StokesSolution(system, u_h, p_h, grad_h, t_h, osc, report)
    mat = ElasticityTensor(0.7, 5.0)
    system = assemble_elasticity(mesh, mat, u_hat, f_h, None, g_h, dirichlet_datum=affine)
    u_h, report = system.solve()
    r_h = solve_lifting(system, u_h + u_hat)
    grad_h, grad_r = broken_gradient(u_h + u_hat), broken_gradient(r_h)
    sigma = marini_elasticity(system, grad_h, grad_r)
    elastic = ElasticitySolution(system, u_h, r_h, grad_h, grad_r, sigma, osc, report)
    return stokes, elastic


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_marini_matches_two_sided_oracle(name):
    """Both reconstructions through the one element-side average give the
    fluxes of the per-slot oracle."""
    mesh = ORACLE_MESHES[name]()
    stokes, elastic = solve_affine(mesh, 5)
    slope = -0.5 * stokes.system.f_h
    p0_part = stokes.nu * broken_gradient(stokes.u_h + stokes.u_hat)
    p0_part -= stokes.p_h[:, None, None] * np.eye(2)
    assert_close(stokes.t_h.flux, oracle_flux(mesh, p0_part, slope))
    mat = elastic.material
    p0_part = (mat.apply(sym(broken_gradient(elastic.u_h + elastic.u_hat)))
               + broken_gradient(elastic.r_h))
    assert_close(elastic.sigma_star.flux, oracle_flux(mesh, p0_part, slope))


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
        assert oracle_stress_residual(tau, sol.system.f_h, sol.system.g_h, mesh) <= 1e-10
        assert sol.optimality_residual() <= 1e-10
    back = oracle_inverse(stokes.t_h, cr_values_p0(stokes.u_h), stokes.u_hat, stokes.nu, mesh)
    assert np.abs(back - stokes.u_h.values).max() <= 1e-11
