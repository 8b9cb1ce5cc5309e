import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_forms import ORACLE_MESHES, _bisected_mesh, _perturbed_mesh, assert_close, div_h

from gapfem import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    CRField,
    RTField,
    broken_gradient,
    build_triangulation,
    cr_interpolate,
    dev,
    nodal_average,
    oscillation_indicator,
    pi0,
    rt_interpolate,
    structured_square_mesh,
)
from gapfem.quadrature import (
    VOLUME_DEGREE,
    element_blocks,
    physical_points,
    segment_rule,
    side_points,
    triangle_rule,
)
from gapfem.duality import _uniform_draws
from gapfem.spaces import (
    MeshOperators,
    _rt_local_factors,
    cr_basis_gradients,
    cr_gradient_operator,
    cr_jump_operator,
    curl_operator,
    divfree_cr_operator,
    rt_divergence_operator,
    side_averages,
    sym,
)

ORACLE_DEGREE = 20


def cr_values_p0(v):
    """Element averages Pi_h v of a CR field (exact: value at the centroid)."""
    return v.values[v.mesh.element_sides].mean(axis=1)


def inner_p0(mesh, f1, f2):
    """L2 inner product of two element-wise constants (Frobenius product point-wise)."""
    v1 = f1.reshape(mesh.num_elements, -1)
    v2 = f2.reshape(mesh.num_elements, -1)
    return float(np.sum(mesh.areas * np.sum(v1 * v2, axis=1)))


def tg_labeler(mid):
    return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN


def trig_velocity(x):
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack(
        [np.sin(np.pi * x1) * np.cos(np.pi * x2),
         -np.cos(np.pi * x1) * np.sin(np.pi * x2)],
        axis=-1,
    )


def trig_velocity_grad(x):
    pi = np.pi
    x1, x2 = x[..., 0], x[..., 1]
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = pi * np.cos(pi * x1) * np.cos(pi * x2)
    g[..., 0, 1] = -pi * np.sin(pi * x1) * np.sin(pi * x2)
    g[..., 1, 0] = pi * np.sin(pi * x1) * np.sin(pi * x2)
    g[..., 1, 1] = -pi * np.cos(pi * x1) * np.cos(pi * x2)
    return g


@pytest.fixture(scope="module")
def square10():
    return structured_square_mesh(10, tg_labeler)


def block_pi0(f, mesh, degree=VOLUME_DEGREE):
    """`pi0` of a callable f on every element of mesh, from f's values at
    the rule's points one `element_blocks` block at a time."""
    return np.concatenate([pi0(f(b.points), degree) for b in element_blocks(mesh, degree)])


def block_oscillation(f, f_h, big_f, big_f_h, mesh, degree=VOLUME_DEGREE):
    """`oscillation_indicator` of callables f and F (None: absent) on every
    element of mesh, from their values one `element_blocks` block at a time."""
    def at(g, block):
        return None if g is None else g(block.points)

    return np.concatenate([oscillation_indicator(at(f, b), f_h, at(big_f, b), big_f_h, b)
                           for b in element_blocks(mesh, degree)])


class TestProjections:
    def test_pi0_constant(self, square10):
        f = lambda x: np.full(x.shape[:-1], 3.25)
        assert np.allclose(block_pi0(f, square10), 3.25, atol=1e-14)

    def test_pi0_linear_reference(self):
        mesh = build_triangulation(
            [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], lambda m: DIRICHLET
        )
        val = block_pi0(lambda x: x[..., 0], mesh)[0]
        assert val == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_pi0_matches_oracle(self, square10):
        f = lambda x: np.sin(np.pi * x[..., 0])
        ours = block_pi0(f, square10, degree=10)
        oracle = block_pi0(f, square10, degree=ORACLE_DEGREE)
        assert np.abs(ours - oracle).max() < 1e-10

    def test_pi_side_constant_and_linear(self, square10):
        c = side_averages(lambda x: np.full(x.shape[:-1], 2.5), square10)
        assert np.abs(c - 2.5).max() < 1e-14
        mid = square10.geometry()["side_midpoint"]
        lin = side_averages(lambda x: x[..., 0] + 2 * x[..., 1], square10)
        assert np.abs(lin - (mid[:, 0] + 2 * mid[:, 1])).max() < 1e-14

    def test_pi_side_sin_oracle(self):
        # unit horizontal side: compare against the closed-form average
        mesh = build_triangulation(
            [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], lambda m: DIRICHLET
        )
        s = mesh.element_sides[0, 0]
        assert np.allclose(mesh.geometry()["side_midpoint"][s], [0.5, 0.0])
        val = side_averages(lambda x: np.sin(x[..., 0]), mesh)[s]
        assert val == pytest.approx(1.0 - np.cos(1.0), abs=1e-12)


class TestCRInterpolation:
    def test_affine_reproduction(self, square10):
        a = np.array([[0.3, -1.2], [0.7, 2.0]])
        b = np.array([0.1, -0.4])
        v = cr_interpolate(lambda x: x @ a.T + b, square10)
        g = broken_gradient(v)
        assert np.abs(g - a).max() < 1e-13

    def test_gradient_preservation(self, square10):
        icr = cr_interpolate(trig_velocity, square10)
        lhs = broken_gradient(icr)
        rhs = block_pi0(trig_velocity_grad, square10, degree=ORACLE_DEGREE)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_divergence_preservation_divfree(self, square10):
        icr = cr_interpolate(trig_velocity, square10)
        assert np.abs(div_h(icr)).max() < 1e-12

    def test_stream_exact_divergence(self, square10):
        stream = lambda x: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) / np.pi
        icr = cr_interpolate(trig_velocity, square10, stream=stream)
        assert np.abs(div_h(icr)).max() < 1e-13


class TestBrokenOperators:
    def test_constant_field_zero_gradient(self, square10):
        v = CRField(square10, np.tile([2.0, -1.0], (square10.num_sides, 1)))
        assert np.abs(broken_gradient(v)).max() < 1e-14

    def test_shear_field(self, square10):
        v = cr_interpolate(lambda x: np.stack([x[..., 1], 0 * x[..., 0]], -1), square10)
        g = broken_gradient(v)
        assert np.allclose(g, [[0, 1], [0, 0]], atol=1e-13)
        e = sym(g)
        assert np.allclose(e, [[0, 0.5], [0.5, 0]], atol=1e-13)

    def test_trace_of_gradient_is_divergence(self, square10):
        # the divergence theorem on each element: the trace of the broken
        # gradient is sum_S |S| v(m_S) . n_S / |T|, n_S outward
        rng = np.random.default_rng(5)
        v = CRField(square10, rng.standard_normal((square10.num_sides, 2)))
        geo, sides = square10.geometry(), square10.element_sides
        own = square10.side_elements[sides, 0] == np.arange(square10.num_elements)[:, None]
        flux = np.einsum("njd,njd->nj", v.values[sides], geo["side_normal"][sides])
        flux *= np.where(own, 1.0, -1.0) * geo["side_length"][sides]
        assert np.abs(div_h(v) - flux.sum(axis=1) / square10.areas).max() < 1e-12


class TestRT:
    def test_constant_reproduction(self, square10):
        const = np.array([[1.0, -2.0], [0.5, 3.0]])
        tau = rt_interpolate(lambda x: const + 0.0 * x[..., :1, None], square10)
        ops = MeshOperators(square10)
        assert np.abs(tau.divergence(ops)).max() < 1e-12
        assert np.abs(tau.cell_average(ops) - const).max() < 1e-12

    def test_rt_mode_reproduction(self, square10):
        def field(x):
            out = np.empty(x.shape[:-1] + (2, 2))
            out[..., 0, :] = np.array([1.0, 2.0]) + 0.5 * x
            out[..., 1, :] = np.array([-0.3, 0.7]) - 1.25 * x
            return out

        tau = rt_interpolate(field, square10)
        pts = physical_points(square10, 2)
        ops = MeshOperators(square10)
        assert np.abs(tau.evaluate(pts, ops) - field(pts)).max() < 1e-12
        assert np.allclose(tau.divergence(ops), [1.0, -2.5], atol=1e-12)

    def test_rot_gradient_divergence_free(self, square10):
        # rows rot(phi) of a conforming P1 potential have zero divergence
        from gapfem.duality import random_divfree_rt

        ops = MeshOperators(square10)
        assert np.abs(ops.div @ random_divfree_rt(ops, [2], 1.0)).max() < 1e-13

    def test_divergence_preservation_oracle(self, square10):
        nu = 0.5

        def stress(x):
            g = trig_velocity_grad(x)
            p = 0.25 * (np.cos(2 * np.pi * x[..., 0]) + np.sin(2 * np.pi * x[..., 1]))
            out = nu * g
            out[..., 0, 0] -= p
            out[..., 1, 1] -= p
            return out

        def div_stress(x):
            # div(nu grad u - p I) = nu lap(u) - grad p = -f
            pi = np.pi
            u = trig_velocity(x)
            gp = np.stack(
                [-0.5 * pi * np.sin(2 * pi * x[..., 0]),
                 0.5 * pi * np.cos(2 * pi * x[..., 1])], axis=-1
            )
            return -2.0 * nu * pi**2 * u - gp

        tau = rt_interpolate(stress, square10)
        target = block_pi0(div_stress, square10, degree=ORACLE_DEGREE)
        assert np.abs(tau.divergence(MeshOperators(square10)) - target).max() < 1e-10


def jump_rows(v, sides):
    """Jumps of a CR field at the endpoints of sides: rows of `cr_jump_operator`,
    (m, 2, 2) with [m, k] the jump at endpoint k of sides[m]."""
    return (cr_jump_operator(v.mesh) @ v.values).reshape(-1, 2, 2)[sides]


class TestJumpAndAverage:
    def test_conforming_zero_jump(self, square10):
        a = np.array([[0.3, -1.2], [0.7, 2.0]])
        v = cr_interpolate(lambda x: x @ a.T, square10)
        sides = square10.sides_with_label(INTERIOR)[:20]
        assert np.abs(jump_rows(v, sides)).max() < 1e-12

    def test_cr_jump_zero_mean(self, square10):
        rng = np.random.default_rng(11)
        v = CRField(square10, rng.standard_normal((square10.num_sides, 2)))
        jumps = jump_rows(v, square10.sides_with_label(INTERIOR)[:20])
        assert jumps.shape == (20, 2, 2)
        assert np.abs(jumps.mean(axis=1)).max() < 1e-13

    def test_hand_built_two_element_jump(self):
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        mesh = build_triangulation(
            verts, [(0, 1, 2), (0, 2, 3)], lambda m: DIRICHLET
        )
        diag = mesh.sides_with_label(INTERIOR)
        vals = np.zeros((mesh.num_sides, 2))
        vals[diag[0]] = [1.0, 0.0]
        v = CRField(mesh, vals)
        # the basis on the shared side is 1 on it from both elements: no jump
        assert np.abs(jump_rows(v, diag)).max() < 1e-14
        # a DOF on a non-shared side of element 0 leaves a jump across diag:
        # theta of side (0,1) along the diagonal runs linearly 1 -> -1
        vals = np.zeros((mesh.num_sides, 2))
        s01 = [s for s in mesh.element_sides[0] if s != diag[0]][0]
        vals[s01] = [1.0, 0.0]
        v = CRField(mesh, vals)
        jump = jump_rows(v, diag)[0]
        assert sorted(np.round(jump[:, 0], 12).tolist()) == [-1.0, 1.0]
        assert np.abs(jump[:, 1]).max() < 1e-14
        # on a boundary side the jump is the trace itself: 1 at both ends
        assert np.abs(jump_rows(v, [s01])[0, :, 0] - 1.0).max() < 1e-14

    def test_nodal_average_conforming_fixed_point(self, square10):
        a = np.array([[0.3, -1.2], [0.7, 2.0]])
        aff = lambda x: x @ a.T
        v = cr_interpolate(aff, square10)
        p1 = nodal_average(v, square10, dirichlet_values=aff)
        assert np.abs(p1.values - aff(square10.vertices)).max() < 1e-12

    def test_nodal_average_dirichlet_values(self, square10):
        rng = np.random.default_rng(4)
        v = CRField(square10, rng.standard_normal((square10.num_sides, 2)))
        p1 = nodal_average(v, square10, dirichlet_values=None)
        assert np.abs(p1.values[square10.dirichlet_vertices()]).max() == 0.0

    def test_nodal_average_converges_h1(self):
        errs = []
        for n in (4, 8, 16):
            mesh = structured_square_mesh(n, tg_labeler)
            v = cr_interpolate(trig_velocity, mesh)
            p1 = nodal_average(v, mesh, dirichlet_values=trig_velocity)
            w = triangle_rule(10)[1]
            pts = physical_points(mesh, 10)
            diff = p1.gradient()[:, None] - trig_velocity_grad(pts)
            err = np.sqrt(
                np.sum(mesh.areas * np.einsum("q,nqij,nqij->n", w, diff, diff))
            )
            errs.append(err)
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


class TestDev:
    def test_identity_maps_to_zero(self):
        assert np.abs(dev(np.eye(2))).max() == 0.0

    def test_direct_formula(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(dev(a), [[-1.5, 2.0], [3.0, 1.5]])

    def test_projection_properties(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 2, 2))
        d = dev(a)
        assert np.abs(dev(d) - d).max() < 1e-14
        assert np.abs(d[..., 0, 0] + d[..., 1, 1]).max() < 1e-14
        na = np.linalg.norm(a, axis=(1, 2))
        nd = np.linalg.norm(d, axis=(1, 2))
        assert np.all(nd <= na + 1e-14)


class TestDiscreteIdentities:
    def test_discrete_integration_by_parts(self, square10):
        rng = np.random.default_rng(1)
        tau = RTField(square10, rng.standard_normal((2, square10.num_sides)))
        v = CRField(square10, rng.standard_normal((square10.num_sides, 2)))
        ops = MeshOperators(square10)
        lhs = inner_p0(square10, tau.cell_average(ops), broken_gradient(v))
        rhs = -inner_p0(square10, tau.divergence(ops), cr_values_p0(v))
        geo = square10.geometry()
        for s in np.nonzero(square10.side_labels != INTERIOR)[0]:
            rhs += geo["side_length"][s] * tau.flux[:, s] @ v.values[s]
        assert abs(lhs - rhs) < 1e-12

    def test_helmholtz_weyl_two_elements(self):
        # P0 tensors = ker(div|RT) cell averages  (+)  broken CR gradients,
        # checked by dimension count and least-squares residual
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        mesh = build_triangulation(verts, [(0, 1, 2), (0, 2, 3)], lambda m: DIRICHLET)
        ns, ne = mesh.num_sides, mesh.num_elements
        ops = MeshOperators(mesh)

        # basis of ker(div) cell averages
        ker_cols = []
        for i in range(2):
            for s in range(ns):
                flux = np.zeros((2, ns))
                flux[i, s] = 1.0
                tau = RTField(mesh, flux)
                if np.abs(tau.divergence(ops)).max() < 1e-12:
                    ker_cols.append(tau.cell_average(ops).ravel())
        # project general RT basis onto ker(div) via column space of divs
        fluxes = np.eye(2 * ns)
        divs = []
        avgs = []
        for col in fluxes:
            tau = RTField(mesh, col.reshape(2, ns))
            divs.append(tau.divergence(ops).ravel())
            avgs.append(tau.cell_average(ops).ravel())
        divs = np.array(divs).T  # (2 ne, 2 ns)
        avgs = np.array(avgs).T  # (4 ne, 2 ns)
        import scipy.linalg as la

        null = la.null_space(divs)
        ker_avgs = avgs @ null  # cell averages of divergence-free RT fields

        free = np.nonzero(mesh.side_labels != DIRICHLET)[0]
        grad_cols = []
        for i in range(2):
            for s in free:
                vals = np.zeros((ns, 2))
                vals[s, i] = 1.0
                grad_cols.append(
                    broken_gradient(CRField(mesh, vals)).ravel()
                )
        grads = np.array(grad_cols).T

        both = np.hstack([ker_avgs, grads])
        assert np.linalg.matrix_rank(ker_avgs, tol=1e-10) + np.linalg.matrix_rank(
            grads, tol=1e-10
        ) == 4 * ne
        rng = np.random.default_rng(7)
        target = rng.standard_normal(4 * ne)
        sol, *_ = np.linalg.lstsq(both, target, rcond=None)
        assert np.linalg.norm(both @ sol - target) < 1e-12

        # orthogonality of the two parts in the weighted L2 inner product
        w = np.repeat(mesh.areas, 4)
        gram = (ker_avgs * w[:, None]).T @ grads
        assert np.abs(gram).max() < 1e-12


# -- the side-vertex curl operator and the RT operators ---------------------------


def rotated_gradient_fluxes(mesh, phi):
    """Oracle: side fluxes (ns, m) of the rows rot phi_i = (d2 phi_i, -d1 phi_i)
    of conforming P1 potentials phi (nv, m), read from the element-wise
    gradients on both sides of every side and averaged; the two views of an
    interior side must agree."""
    geo = mesh.geometry()
    grads = np.einsum("nkm,nkd->nmd", phi[mesh.elements], geo["grad_lambda"])
    rows = np.stack([grads[..., 1], -grads[..., 0]], axis=-1)  # (ne, m, 2)
    out = np.zeros((mesh.num_sides, phi.shape[1]))
    count = np.zeros(mesh.num_sides)
    for slot in (0, 1):
        sel = np.nonzero(mesh.side_elements[:, slot] >= 0)[0]
        vals = np.einsum("smd,sd->sm", rows[mesh.side_elements[sel, slot]],
                         geo["side_normal"][sel])
        if slot == 1:
            assert np.abs(out[sel] - vals).max(initial=0.0) <= 1e-12 * np.abs(vals).max()
        out[sel] += vals
        count[sel] += 1.0
    return out / count[:, None]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    labeler=st.sampled_from([lambda mid: DIRICHLET, tg_labeler]),
    seed=st.integers(0, 2**32 - 1),
)
def test_curl_operator_on_perturbed_meshes(n, labeler, seed):
    """C phi, phi pinned on the Neumann closure, is divergence-free under the
    RT divergence map, has zero Neumann traces and equals the rotated
    gradients' fluxes."""
    mesh = _perturbed_mesh(n, labeler, seed)
    phi = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(mesh.num_vertices, 4))
    neumann = mesh.sides_with_label(NEUMANN)
    phi[mesh.side_vertices[neumann].ravel()] = 0.0
    curl = curl_operator(mesh)
    flux = curl @ phi
    div_op = rt_divergence_operator(mesh)
    # relative to the magnitudes that cancel in each element: the potential
    # values, not the fluxes, whose differences may be far smaller
    potential = abs(div_op) @ (abs(curl) @ np.abs(phi))
    assert np.all(np.abs(div_op @ flux) <= 1e-14 * potential)
    assert np.abs(flux[neumann]).max(initial=0.0) == 0.0
    assert_close(flux, rotated_gradient_fluxes(mesh, phi))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    labeler=st.sampled_from([lambda mid: DIRICHLET, tg_labeler]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 2),
)
def test_divfree_cr_operator_on_refined_meshes(n, labeler, seed, rounds):
    """Every column of D is discretely divergence-free relative to the terms
    that div_h sums, and D (phi, psi) has the normal parts C phi and the
    tangential parts psi."""
    mesh = _bisected_mesh(n, labeler, seed, rounds)
    nv, ns = mesh.num_vertices, mesh.num_sides
    d = divfree_cr_operator(mesh)
    assert d.shape == (2 * ns, nv + ns)
    grad = cr_gradient_operator(mesh)
    div = grad[0::4] + grad[3::4]
    assert np.all(np.abs((div @ d).toarray()) <= 1e-13 * (abs(div) @ abs(d)).toarray())
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(nv + ns, 3))
    v = (d @ x).reshape(2, ns, 3)
    geo = mesh.geometry()
    assert_close(np.einsum("sd,dsk->sk", geo["side_normal"], v), curl_operator(mesh) @ x[:nv])
    assert_close(np.einsum("sd,dsk->sk", geo["side_tangent"], v), x[nv:])


@pytest.mark.parametrize("seeds", [[0], [3, 1, 4], [2**32 - 1, 7]])
def test_uniform_draws_equal_per_seed_draws(seeds):
    """The samplers' one draw per seed equals separate draws from
    default_rng(seed) bit for bit: phi (nv) then psi (ns) for
    `random_divfree_cr`, an (nv, 2) block for `random_divfree_rt`."""
    nv, ns = 13, 29
    phi, psi = np.empty((nv, len(seeds))), np.empty((ns, len(seeds)))
    rows = np.empty((nv, 2 * len(seeds)))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        phi[:, k] = rng.uniform(-1.0, 1.0, size=nv)
        psi[:, k] = rng.uniform(-1.0, 1.0, size=ns)
        rows[:, 2 * k: 2 * k + 2] = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(nv, 2))
    assert np.array_equal(_uniform_draws(seeds, nv + ns), np.concatenate([phi, psi]))
    assert np.array_equal(_uniform_draws(seeds, (nv, 2)).reshape(nv, -1), rows)


# -- the former per-field evaluations, kept as oracles ------------------------------


def oracle_broken_gradient(v):
    """Broken gradient (ne, 2, 2) by gathering the side values of each element
    and multiplying by the CR basis gradients."""
    m = v.mesh
    return v.values[m.element_sides].transpose(0, 2, 1) @ cr_basis_gradients(m)


def oracle_rt_local(tau):
    """(a, c), the (ne, 2, 2) and (ne, 2) coefficients of row_i|_T(x) = a_i + c_i x."""
    coef, opp = _rt_local_factors(tau.mesh)
    fc = (tau.flux[:, tau.mesh.element_sides] * coef).transpose(1, 0, 2)
    return -(fc @ opp), fc.sum(2)


def oracle_rt_evaluate(tau, points):
    a, c = oracle_rt_local(tau)
    return np.einsum("ni,nqd->nqid", c, points) + a[:, None]


def oracle_cell_average(tau):
    a, c = oracle_rt_local(tau)
    return a + np.einsum("ni,nd->nid", c, tau.mesh.geometry()["centroids"])


def oracle_divergence(tau):
    return 2.0 * oracle_rt_local(tau)[1]


def oracle_nodal_average(v, mesh, dirichlet_values=None):
    """Nodal average accumulated one local vertex at a time with np.add.at."""
    nv = mesh.num_vertices
    acc = np.zeros((nv, 2))
    cnt = np.zeros(nv)
    vv = v.values[mesh.element_sides]
    total = vv.sum(axis=1)
    for lv in range(3):
        verts = mesh.elements[:, lv]
        np.add.at(acc, verts, total - 2.0 * vv[:, (lv + 1) % 3])
        np.add.at(cnt, verts, 1.0)
    out = acc / cnt[:, None]
    dv = mesh.dirichlet_vertices()
    out[dv] = 0.0 if dirichlet_values is None else dirichlet_values(mesh.vertices[dv])
    return out


def oracle_rt_interpolate(tau, mesh):
    """RT fluxes (2, ns) from the side quadrature of the normal traces."""
    t, w = segment_rule(8)
    normal = mesh.geometry()["side_normal"]
    return np.einsum("q,sqij,sj->is", w, tau(side_points(mesh, t)), normal)


def trig_stress(x):
    out = trig_velocity_grad(x)
    out[..., 0, 0] -= np.cos(2 * np.pi * x[..., 0])
    out[..., 1, 1] -= np.cos(2 * np.pi * x[..., 0])
    return out


def assert_fields_match_oracles(mesh, seed):
    """Every field evaluation of the operator path equals its former
    implementation, and an RTField keeps no per-field state."""
    rng = np.random.default_rng(seed)
    v = CRField(mesh, rng.standard_normal((mesh.num_sides, 2)))
    grads = oracle_broken_gradient(v)
    assert_close(broken_gradient(v), grads)
    assert_close(sym(broken_gradient(v)), 0.5 * (grads + grads.transpose(0, 2, 1)))
    for datum in (None, trig_velocity):
        assert_close(nodal_average(v, mesh, datum).values,
                     oracle_nodal_average(v, mesh, datum))

    tau = RTField(mesh, rng.standard_normal((2, mesh.num_sides)))
    pts = physical_points(mesh, VOLUME_DEGREE)
    ops = MeshOperators(mesh)
    assert_close(tau.evaluate(pts, ops), oracle_rt_evaluate(tau, pts))
    assert vars(tau).keys() == {"mesh", "flux"}
    # cell_average and divergence are A and D applied to each RT row, so
    # these check A's (element, d) row layout and D against (a, c)
    assert_close(tau.cell_average(ops), oracle_cell_average(tau))
    assert_close(tau.divergence(ops), oracle_divergence(tau))
    # the entries, stacked, are the former one-array evaluation bit for bit
    c = 0.5 * tau.divergence(ops)
    a = tau.cell_average(ops) - np.einsum(
        "ni,nd->nid", c, mesh.geometry()["centroids"]
    )
    former = np.einsum("ni,nqd->nqid", c, pts) + a[:, None]
    entries = dict(tau.entries(pts, ops))
    assert list(entries) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (i, d), value in entries.items():
        assert np.array_equal(value, former[..., i, d])
    assert np.array_equal(tau.evaluate(pts, ops), former)
    assert_close(rt_interpolate(trig_stress, mesh).flux,
                 oracle_rt_interpolate(trig_stress, mesh))


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_field_evaluations_match_oracles(name):
    assert_fields_match_oracles(ORACLE_MESHES[name](), 3)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    labeler=st.sampled_from([lambda mid: DIRICHLET, tg_labeler]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 2),
)
def test_field_evaluations_match_oracles_on_refined_meshes(n, labeler, seed, rounds):
    assert_fields_match_oracles(_bisected_mesh(n, labeler, seed, rounds), seed)
