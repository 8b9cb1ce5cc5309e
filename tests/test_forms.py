import ast
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfem import (
    DIRICHLET,
    NEUMANN,
    AssemblyError,
    CRField,
    ElasticityTensor,
    SingularSystemError,
    assemble_elasticity,
    assemble_stokes,
    broken_divergence,
    broken_gradient,
    broken_sym_gradient,
    build_triangulation,
    cr_interpolate,
    solve_lifting,
    solve_sparse,
    structured_square_mesh,
)
from gapfem import forms
from gapfem.forms import (
    SOLVE_TOL,
    StokesSaddle,
    cr_stiffness,
    jump_penalty_matrix,
    stabilization_jump_matrix,
    stabilization_weights,
    stokes_saddle,
)
from gapfem.spaces import norm_p0


def all_dirichlet(mid):
    return DIRICHLET


def tg_labeler(mid):
    return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN


def zero_lift(mesh):
    return CRField(mesh, np.zeros((mesh.num_sides, 2)))


class TestSolveSparse:
    def test_identity_system(self):
        eye = sparse.identity(5, format="csc")
        b = np.arange(5.0)
        x, report = solve_sparse(eye, b)
        assert np.array_equal(x, b)
        assert report.residual_norm <= 1e-10

    def test_spd_hand_inverse(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, -2.0, 0.5])
        x, _ = solve_sparse(sparse.csc_matrix(a), b)
        assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-14

    def test_singular_raises(self):
        a = sparse.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularSystemError):
            solve_sparse(a, np.array([1.0, 0.0]))

    def test_factor_serves_many_rhs(self, monkeypatch):
        # one factor solves a block of three right-hand sides
        rng = np.random.default_rng(3)
        m = rng.standard_normal((30, 30))
        a = sparse.csc_matrix(m @ m.T + 30.0 * np.eye(30))
        b = rng.standard_normal((30, 3))
        x, report = solve_sparse(a, b)
        assert x.shape == (30, 3)
        assert report.residual_norm <= 1e-12
        assert np.abs(x - np.linalg.solve(a.toarray(), b)).max() < 1e-12
        # a backward error below roundoff cannot be reached
        monkeypatch.setattr(forms, "SOLVE_TOL", 1e-30)
        with pytest.raises(SingularSystemError, match="exceeds"):
            solve_sparse(a, rng.standard_normal(30))

    def test_one_factor_path_for_every_operator(self, monkeypatch):
        # K_1, the elasticity matrix and the lifting's CR stiffness are all
        # factored by spd_factor with the same options
        from gapfem.problems import (
            cook_membrane,
            discretize_elasticity,
            discretize_stokes,
            taylor_green_stokes,
        )

        calls = []
        splu = sla.splu

        def recording_splu(a, *args, **kwargs):
            calls.append((a.shape[0], args, kwargs))
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(forms.sla, "splu", recording_splu)
        stokes = taylor_green_stokes()
        discretize_stokes(stokes, stokes.mesh_factory())
        cook = cook_membrane(nx=3, ny=5)
        mesh = cook.mesh_factory()
        sol = discretize_elasticity(cook, mesh)
        solve_lifting(mesh, sol.u_h + sol.u_hat, cook.material.mu)
        nfree = len(sol.system.vel_index)
        assert [n for n, _, _ in calls][1:] == [nfree, nfree // 2, nfree // 2]
        assert all(
            (args, kwargs) == ((), forms.SPD_FACTOR_OPTIONS) for _, args, kwargs in calls
        )

    def test_single_splu_call_site(self):
        # a second ordering or factor path cannot return unnoticed
        sites = []
        for path in sorted(pathlib.Path(forms.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    func = getattr(node, "func", None)
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if isinstance(node, ast.Call) and name == "splu":
                        sites.append((path.name, fn.name))
        assert sites == [("forms.py", "spd_factor")]


def _random_sparse(rng, n, density):
    return sparse.random(n, n, density=density, random_state=rng, format="csr",
                         data_rvs=rng.standard_normal)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    density=st.floats(0.02, 0.5),
    shift=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_sparse_spd_matches_dense(n, density, shift, seed):
    """On sparse SPD matrices solve_sparse agrees with a dense solve."""
    rng = np.random.default_rng(seed)
    r = _random_sparse(rng, n, density)
    a = (r @ r.T + shift * sparse.identity(n)).tocsc()
    b = rng.standard_normal(n)
    x, report = solve_sparse(a, b)
    ref = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert report.residual_norm <= SOLVE_TOL


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    density=st.floats(0.02, 0.5),
    log_scale=st.floats(-14.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_sparse_indefinite_never_silent(n, density, log_scale, seed):
    """On symmetric indefinite matrices solve_sparse raises or is backward stable.

    A diagonal of either sign makes every sample indefinite; a small one
    gives the diagonal pivots growth that the residual check must catch.
    """
    rng = np.random.default_rng(seed)
    r = _random_sparse(rng, n, density)
    scale = 10.0**log_scale
    diag = scale * rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    diag[:2] = [scale, -scale]
    a = (r + r.T + sparse.diags(diag)).tocsc()
    b = rng.standard_normal(n)
    try:
        x, report = solve_sparse(a, b)
    except SingularSystemError:
        return
    dense = a.toarray()
    backward = np.linalg.norm(b - dense @ x) / (
        np.abs(dense).sum(axis=1).max() * np.linalg.norm(x) + np.linalg.norm(b)
    )
    assert backward <= SOLVE_TOL
    assert report.residual_norm <= SOLVE_TOL


class TestStokesAssembly:
    def test_zero_data_zero_solution(self):
        mesh = structured_square_mesh(3, tg_labeler)
        system = assemble_stokes(mesh, 0.5, zero_lift(mesh), None, None, None)
        u, p, _ = system.solve()
        assert np.abs(u.values).max() < 1e-12
        assert np.abs(p.values).max() < 1e-12

    def test_affine_patch(self):
        # divergence-free affine exact field, zero load, full Dirichlet
        # boundary: reproduced exactly
        mesh = structured_square_mesh(4, all_dirichlet)
        a = np.array([[0.7, 0.4], [1.1, -0.7]])  # trace-free
        exact = lambda x: x @ a.T
        u_hat = cr_interpolate(exact, mesh)
        system = assemble_stokes(mesh, 0.5, u_hat, None, None, None)
        u, p, _ = system.solve()
        total = u + u_hat
        assert np.abs(broken_gradient(total).values - a).max() < 1e-10
        assert np.abs(p.values).max() < 1e-10

    def test_taylor_green_dof_count(self):
        mesh = structured_square_mesh(10, tg_labeler)
        system = assemble_stokes(mesh, 0.5, zero_lift(mesh), None, None, None)
        nfree = len(system.saddle.vel_index)
        assert nfree + 2 * 20 == 640  # constrained Dirichlet DOFs excluded
        assert system.saddle.matrix(0.5).shape[0] == nfree + mesh.num_elements
        assert 2 * mesh.num_sides + mesh.num_elements == 840

    def test_divfree_precondition_enforced(self):
        mesh = structured_square_mesh(3, tg_labeler)
        bad = cr_interpolate(lambda x: x, mesh)  # div = 2
        with pytest.raises(AssemblyError, match="divergence"):
            assemble_stokes(mesh, 0.5, bad, None, None, None)

    def test_solution_divergence_free_and_el_residual(self):
        from gapfem.problems import discretize_stokes, taylor_green_stokes

        prob = taylor_green_stokes()
        mesh = prob.mesh_factory()
        sol = discretize_stokes(prob, mesh)
        assert np.abs(broken_divergence(sol.u_h).values).max() < 1e-10
        assert sol.system.residual(sol.u_h, sol.p_h) < 1e-10

    def test_pressure_gauge_pure_dirichlet(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        f = lambda x: np.stack([np.sin(x[..., 0]), np.cos(x[..., 1])], axis=-1)
        from gapfem.spaces import pi0

        system = assemble_stokes(mesh, 1.0, zero_lift(mesh), pi0(f, mesh), None, None)
        u, p, _ = system.solve()
        assert abs(np.sum(mesh.areas * p.values)) < 1e-12


class TestStokesALSolve:
    """The augmented-Lagrangian Uzawa solve of the CR-P0 saddle."""

    @pytest.mark.parametrize("labeler", [all_dirichlet, tg_labeler])
    def test_matches_saddle_lu(self, labeler):
        # both viscosities share the mesh's one factor
        mesh = structured_square_mesh(6, labeler)
        rng = np.random.default_rng(7)
        saddle = stokes_saddle(mesh)
        assert saddle.pure_dirichlet == (labeler is all_dirichlet)
        for nu in (0.5, 1.0):
            rhs = rng.standard_normal(saddle.matrix(nu).shape[0])
            x, report = saddle.al_solve(rhs, nu)
            ref = sla.splu(saddle.matrix(nu)).solve(rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert report.residual_norm <= 1e-10

    def test_zero_rhs_exact_zero(self):
        saddle = StokesSaddle(structured_square_mesh(4, all_dirichlet))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = saddle.al_solve(np.zeros(saddle.matrix(0.5).shape[0]), 0.5)
        assert not np.any(x)
        assert report.residual_norm == 0.0

    def test_unreachable_tol_raises(self, monkeypatch):
        saddle = StokesSaddle(structured_square_mesh(4, tg_labeler))
        rhs = np.random.default_rng(1).standard_normal(saddle.matrix(1.0).shape[0])
        monkeypatch.setattr(forms, "SOLVE_TOL", 1e-30)
        with pytest.raises(SingularSystemError, match="exceeds"):
            saddle.al_solve(rhs, 1.0)

    def test_one_symmetric_factor_per_mesh(self, monkeypatch):
        from gapfem.duality import project_divfree_cr
        from gapfem.problems import discretize_stokes, taylor_green_stokes

        factored = []
        splu = sla.splu

        def counting_splu(a, *args, **kwargs):
            assert abs(a - a.T).max() <= 1e-14 * abs(a).max()
            factored.append(a.shape)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(forms.sla, "splu", counting_splu)
        prob = taylor_green_stokes()
        mesh = prob.mesh_factory()
        discretize_stokes(prob, mesh)
        rng = np.random.default_rng(2)
        for _ in range(3):
            project_divfree_cr(CRField(mesh, rng.standard_normal((mesh.num_sides, 2))))
        assert len(factored) == 1

    def test_one_saddle_per_mesh_in_identity_rows(self, monkeypatch):
        # the Stokes solve at nu = 1/2 and the nu = 1 projector share it
        from gapfem.adaptive import identity_rows
        from gapfem.problems import taylor_green_stokes

        built = []
        init = StokesSaddle.__init__

        def counting_init(self, mesh):
            built.append(mesh)
            init(self, mesh)

        monkeypatch.setattr(StokesSaddle, "__init__", counting_init)
        identity_rows(taylor_green_stokes(), levels=3, seeds=2)
        assert len(built) == 3
        assert len({id(m) for m in built}) == 3

    def test_saddle_freed_with_its_mesh(self):
        # the mesh caches the saddle; no cycle may keep the pair alive
        # until the cyclic collector runs
        import gc
        import weakref

        mesh = structured_square_mesh(3, tg_labeler)
        saddle = weakref.ref(stokes_saddle(mesh))
        gc.disable()
        try:
            del mesh
            assert saddle() is None
        finally:
            gc.enable()


def _perturbed_mesh(n, labeler, seed):
    """Structured mesh with interior vertices moved by up to 0.3 h."""
    mesh = structured_square_mesh(n, labeler)
    verts = mesh.vertices.copy()
    inner = np.all((verts > 1e-12) & (verts < 1.0 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    radius = 0.3 / n * np.sqrt(rng.uniform(size=inner.sum()))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=inner.sum())
    verts[inner] += radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return build_triangulation(verts, mesh.elements, labeler)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    labeler=st.sampled_from([all_dirichlet, tg_labeler]),
    seed=st.integers(0, 2**32 - 1),
    log_nus=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3),
)
def test_viscosity_free_saddle(n, labeler, seed, log_nus):
    """One saddle and one factor per mesh solve matrix(nu) for every nu."""
    mesh = _perturbed_mesh(n, labeler, seed)
    rng = np.random.default_rng(seed)
    splu = sla.splu
    factored = []

    def counting_splu(a, *args, **kwargs):
        factored.append(a.shape)
        return splu(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms.sla, "splu", counting_splu)
        saddle = stokes_saddle(mesh)
        for nu in 10.0 ** np.array(log_nus):
            rhs = rng.standard_normal(saddle.matrix(nu).shape[0])
            x, report = saddle.al_solve(rhs, nu)
            ref = splu(saddle.matrix(nu)).solve(rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert report.residual_norm <= SOLVE_TOL
        assert stokes_saddle(mesh) is saddle
    assert len(factored) == 1


class TestElasticityAssembly:
    def test_zero_data_zero_solution(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        system = assemble_elasticity(
            mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None, None, None
        )
        u, _ = system.solve()
        assert np.abs(u.values).max() < 1e-12

    def test_rigid_body_lift(self):
        # rotation v = (-x2, x1): conforming, so the jump penalty vanishes and
        # the strain energy of the discrete total field is zero
        mesh = structured_square_mesh(4, all_dirichlet)
        mat = ElasticityTensor(1.0, 5.0)
        rot = lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1)
        u_hat = cr_interpolate(rot, mesh)
        system = assemble_elasticity(
            mesh, mat, u_hat, None, None, None, dirichlet_datum=rot
        )
        u, _ = system.solve()
        total = u + u_hat
        eps = broken_sym_gradient(total)
        energy = norm_p0(eps)
        assert energy < 1e-8
        g = broken_gradient(total).values
        assert np.abs(g + np.swapaxes(g, 1, 2)).max() < 1e-8  # skew only

    def test_operator_spd_two_elements(self):
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        mesh = build_triangulation(verts, [(0, 1, 2), (0, 2, 3)], all_dirichlet)
        system = assemble_elasticity(
            mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None, None, None
        )
        dense = system.matrix.toarray()
        assert np.abs(dense - dense.T).max() < 1e-14
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_el_residual(self):
        from gapfem.problems import cook_membrane, discretize_elasticity

        prob = cook_membrane()
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        assert sol.system.residual(sol.u_h) < 1e-10

    def test_empty_dirichlet_rejected(self):
        # meshes themselves require a Dirichlet side, so the assembly guard
        # is unreachable through public constructors; exercise it directly
        mesh = structured_square_mesh(2, all_dirichlet)
        mesh.side_labels[mesh.side_labels == DIRICHLET] = NEUMANN
        with pytest.raises(AssemblyError, match="Dirichlet"):
            assemble_elasticity(
                mesh, ElasticityTensor(1.0, 1.0), zero_lift(mesh), None, None, None
            )

    def test_empirical_korn(self):
        # || C^(1/2) grad v ||^2 <= c (|| C^(1/2) eps v ||^2 + s_h(v, v))
        mesh = structured_square_mesh(4, tg_labeler)
        mat = ElasticityTensor(1.0, 5.0)
        jumps = jump_penalty_matrix(mesh, stabilization_weights(mesh, mat.mu))
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            vals = rng.standard_normal((mesh.num_sides, 2))
            vals[mesh.side_labels == DIRICHLET] = 0.0
            v = CRField(mesh, vals)
            g = broken_gradient(v).values
            e = broken_sym_gradient(v).values
            num = np.sum(mesh.areas * np.einsum("nij,nij->n", mat.apply(g), g))
            den = np.sum(
                mesh.areas * np.einsum("nij,nij->n", mat.apply(e), e)
            ) + np.einsum("ni,ni->", vals, jumps @ vals)
            worst = max(worst, num / den)
        print(f"empirical discrete Korn constant: {worst:.3f}")
        assert np.isfinite(worst) and worst > 0

    def test_jump_matrix_cached_per_mu(self):
        mesh = structured_square_mesh(3, tg_labeler)
        s1 = stabilization_jump_matrix(mesh, 1.0)
        assert stabilization_jump_matrix(mesh, 1.0) is s1
        s2 = stabilization_jump_matrix(mesh, 2.0)
        assert abs(s2 - 2.0 * s1).max() < 1e-12


class TestLifting:
    def test_conforming_zero_trace_gives_zero(self):
        mesh = structured_square_mesh(4, all_dirichlet)
        bubble = lambda x: np.stack(
            [
                np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
                x[..., 0] * (1 - x[..., 0]) * x[..., 1] * (1 - x[..., 1]),
            ],
            axis=-1,
        )
        # conforming P1 interpolant expressed as a CR field: vertex-based
        # interpolation has no jumps, so s_h vanishes
        from gapfem.spaces import P1ConformingField

        vertex_vals = bubble(mesh.vertices)
        p1 = P1ConformingField(mesh, vertex_vals)
        sv = mesh.side_vertices
        side_vals = 0.5 * (vertex_vals[sv[:, 0]] + vertex_vals[sv[:, 1]])
        u_total = CRField(mesh, side_vals)
        r = solve_lifting(mesh, u_total, mu=1.0)
        assert np.abs(r.values).max() < 1e-12

    def test_defining_equation_residual(self):
        from gapfem.problems import cook_membrane, discretize_elasticity

        prob = cook_membrane()
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        k = cr_stiffness(mesh)
        full = sparse.block_diag([k, k]).tocsr()
        rvec = np.concatenate([sol.r_h.values[:, 0], sol.r_h.values[:, 1]])
        utot = sol.u_h + sol.u_hat
        uvec = np.concatenate([utot.values[:, 0], utot.values[:, 1]])
        res = full @ rvec - stabilization_jump_matrix(mesh, prob.material.mu) @ uvec
        free = np.nonzero(mesh.side_labels != DIRICHLET)[0]
        ns = mesh.num_sides
        assert np.abs(np.concatenate([res[free], res[free + ns]])).max() < 1e-10

    def test_linearity(self):
        from gapfem.problems import cook_membrane, discretize_elasticity

        prob = cook_membrane(nx=3, ny=5)
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        utot = sol.u_h + sol.u_hat
        r1 = solve_lifting(mesh, utot, mu=1.0)
        r2 = solve_lifting(mesh, 2.5 * utot, mu=1.0)
        assert np.abs(r2.values - 2.5 * r1.values).max() < 1e-10
