import dataclasses
import gc
import json
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from gapfem.adaptive import AdaptiveConfig, eoc, mark_max, run_adaptive
from gapfem.mesh import NEUMANN
from gapfem.problems import (cook_membrane, lshape_stokes, manufactured_elasticity,
                             taylor_green_stokes)
from gapfem.quadrature import VOLUME_DEGREE, triangle_rule


class TestMarkMax:
    def test_direct_rule(self):
        marked = mark_max([1.0, 4.0, 2.0], 0.5)
        assert sorted(marked.tolist()) == [1, 2]

    def test_theta_one_only_max(self):
        marked = mark_max([1.0, 4.0, 2.0, 4.0], 1.0)
        assert sorted(marked.tolist()) == [1, 3]

    def test_theta_zero_all(self):
        marked = mark_max([1.0, 4.0, 2.0], 0.0)
        assert sorted(marked.tolist()) == [0, 1, 2]

    def test_all_zero_empty(self):
        assert len(mark_max([0.0, 0.0], 0.5)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mark_max([-1.0, 2.0], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a nan maximum marks nothing, which the loop would read as converged
        for indicators in ([bad, 1.0], [1.0, bad], [bad]):
            with pytest.raises(ValueError):
                mark_max(indicators, 0.5)


class TestEOC:
    def test_linear(self):
        hs = np.array([1.0, 0.5, 0.25])
        assert np.allclose(eoc(hs, hs), 1.0)

    def test_quadratic(self):
        hs = np.array([1.0, 0.5, 0.25])
        assert np.allclose(eoc(hs**2, hs), 2.0)

    def test_table_values_dof_convention(self):
        errs = [0.1830, 0.0920, 0.0461]
        dofs = np.array([840.0, 3280.0, 12960.0])
        orders = eoc(errs, dofs**-0.5)
        assert orders == pytest.approx([1.0091, 1.0054], abs=2e-3)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            eoc([1.0, 0.0], [1.0, 0.5])


class TestConfig:
    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(theta=1.5)

    def test_uniform_mode_forces_theta_zero(self):
        config = AdaptiveConfig(theta=0.7, refinement_mode="uniform")
        assert config.theta == 0.0


class TestRunAdaptive:
    def test_uniform_smooth_monotone_decrease(self):
        prob = manufactured_elasticity("smooth", n=2)
        report = run_adaptive(
            prob, AdaptiveConfig(refinement_mode="uniform", max_iter=3)
        )
        totals = [r.estimator_total for r in report.records]
        assert totals[1] < totals[0] and totals[2] < totals[1]

    def test_records_contract(self):
        prob = taylor_green_stokes()
        report = run_adaptive(
            prob, AdaptiveConfig(refinement_mode="uniform", max_iter=3)
        )
        dofs = [r.num_dof for r in report.records]
        assert dofs == [840, 3280, 12960]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))
        for r in report.records:
            # accounting identity: total equals the sum of per-element parts
            assert r.estimator_total >= r.osc_total >= 0
            assert r.eta_max >= r.eta_min >= 0
            assert r.marked > 0

    def test_eps_stop_above_initial_total(self):
        prob = taylor_green_stokes()
        report = run_adaptive(
            prob, AdaptiveConfig(theta=0.5, max_iter=5, eps_stop=1e9)
        )
        assert len(report.records) == 1

    def test_lshape_corner_concentration(self):
        prob = lshape_stokes()
        report = run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=8))
        # re-run the meshes through the loop to count corner elements
        from gapfem.adaptive import _estimate, refine_marked_twice
        from gapfem.problems import discretize_stokes

        mesh = prob.mesh_factory()
        counts = []
        for _ in range(8):
            cent = mesh.geometry()["centroids"]
            counts.append(int(np.sum(np.linalg.norm(cent, axis=1) < 0.1)))
            sol = discretize_stokes(prob, mesh)
            gap, osc, _ = _estimate(prob, mesh, sol)
            marked = mark_max(gap + osc, 0.5)
            mesh = refine_marked_twice(mesh, marked)
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    def test_adaptive_never_marks_zero_while_running(self):
        prob = lshape_stokes()
        report = run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=5))
        for r in report.records[:-1]:
            assert r.marked > 0


@pytest.mark.parametrize("factory", [taylor_green_stokes, lshape_stokes])
def test_analytic_fields_evaluated_once_per_mesh(factory, monkeypatch):
    """grad_u, p and f are evaluated at the degree-10 points of each
    element once per mesh (in element blocks, so not in one call), and
    counting them does not change the report."""
    from gapfem import adaptive
    from gapfem.quadrature import physical_points

    config = AdaptiveConfig(refinement_mode="uniform", max_iter=3)
    plain = run_adaptive(factory(), config).csv_rows()
    prob = factory()
    nq = len(triangle_rule(10)[1])
    evaluated = Counter()

    def counted(name, fn):
        def field(x):
            if x.shape[1:] == (nq, 2):  # the rule's points on a block of elements
                evaluated.update((name, points.tobytes()) for points in x)
            return fn(x)

        return field

    meshes = []

    def recorded(make):
        def made(*args):
            meshes.append(make(*args))
            return meshes[-1]

        return made

    names = [name for name in ("grad_u", "p", "f") if getattr(prob, name) is not None]
    for name in names:
        setattr(prob, name, counted(name, getattr(prob, name)))
    prob.mesh_factory = recorded(prob.mesh_factory)
    monkeypatch.setattr(adaptive, "refine_marked_twice", recorded(adaptive.refine_marked_twice))
    report = run_adaptive(prob, config)
    assert report.csv_rows() == plain
    assert [m.num_elements for m in meshes] == [r.num_elements for r in report.records]
    assert evaluated == Counter(
        (name, points.tobytes())
        for mesh in meshes for points in physical_points(mesh, 10) for name in names
    )


def test_cook_step_builds_no_degree10_arrays():
    """Cook has no analytic volume data, so its solve, estimate and
    optimality residual leave no degree-10 points or field values on the mesh."""
    from gapfem.adaptive import _estimate
    from gapfem.problems import cook_membrane, discretize_elasticity
    from gapfem.quadrature import VOLUME_DEGREE

    prob = cook_membrane()
    mesh = prob.mesh_factory()
    sol = discretize_elasticity(prob, mesh)
    _estimate(prob, mesh, sol)
    sol.optimality_residual()
    keys = list(mesh._cache)
    assert ("physical_points", VOLUME_DEGREE) not in keys
    assert not [k for k in keys if isinstance(k, tuple) and k[0] == "rule_values"]


PROBLEM_FACTORIES = {
    "taylor_green_stokes": taylor_green_stokes,
    "taylor_green_tensor": lambda: taylor_green_stokes(load="tensor"),
    "lshape_stokes": lshape_stokes,
    "cook_membrane": cook_membrane,
}


def count_builds(monkeypatch, builds, counts=lambda mesh: True):
    """Count in builds[id(mesh), name], for each mesh with counts(mesh): the
    builds of G ("G", `_gradient_operator(mesh, 2)`), A and D ("A" and "D",
    `_element_side_rows` with two rows and one row per element), and the
    elements whose degree-10 points are formed, as whole `element_blocks`
    passes from row 0 ("pass") and as element rows ("rows")."""
    from gapfem import quadrature, spaces

    def counted(fn, names_of):
        def call(mesh, *args):
            if counts(mesh):
                builds.update({(id(mesh), name): n for name, n in names_of(mesh, *args)})
            return fn(mesh, *args)

        return call

    def points(mesh, rows, degree):
        if degree != VOLUME_DEGREE:
            return []
        if isinstance(rows, slice):
            return [("pass", rows.start == 0), ("rows", len(range(mesh.num_elements)[rows]))]
        return [("rows", len(rows))]

    monkeypatch.setattr(spaces, "_gradient_operator", counted(
        spaces._gradient_operator, lambda mesh, ncomp: [("G", ncomp == 2)]))
    monkeypatch.setattr(spaces, "_element_side_rows", counted(
        spaces._element_side_rows, lambda mesh, data: [("AD"[2 - data.shape[1]], 1)]))
    monkeypatch.setattr(quadrature, "_rule_points", counted(quadrature._rule_points, points))


@pytest.mark.parametrize("factory, mode", [
    ("taylor_green_stokes", "uniform"),
    ("taylor_green_tensor", "uniform"),
    ("taylor_green_stokes", "adaptive"),
    ("lshape_stokes", "adaptive"),
    ("cook_membrane", "adaptive"),
])
def test_level_operators_built_once_per_mesh(factory, mode, monkeypatch):
    """Per mesh of the adaptive loop: the broken-gradient operator G of
    vector CR fields is built at most twice (the assembly's, which a tensor
    load shares, and one for the solution's broken gradients after the
    solve), and the RT cell-average and divergence operators A and D once
    each, in the solved system's operator set, which the estimate and the
    optimality residual share; a Stokes estimate makes one volume
    `element_blocks` pass, and `project_data` forms the degree-10 points of
    each element at most once (of every element when nothing was carried,
    none without f and F); counting does not change the report."""
    from gapfem import adaptive, problems

    config = AdaptiveConfig(refinement_mode=mode, max_iter=3)
    plain = run_adaptive(PROBLEM_FACTORIES[factory](), config).csv_rows()
    prob = PROBLEM_FACTORIES[factory]()
    builds, projected = Counter(), Counter()
    projecting = []

    def project_data(problem, mesh):
        # the points project_data forms are counted apart, in projected
        projecting.append(mesh)
        try:
            return plain_project(problem, mesh)
        finally:
            projecting.pop()

    meshes = []

    def recorded(make):
        def made(*args):
            meshes.append(make(*args))
            return meshes[-1]

        return made

    plain_project = problems.project_data
    count_builds(monkeypatch, builds)
    count_builds(monkeypatch, projected, lambda mesh: mesh in projecting)
    monkeypatch.setattr(problems, "project_data", project_data)
    prob.mesh_factory = recorded(prob.mesh_factory)
    monkeypatch.setattr(adaptive, "refine_marked_twice", recorded(adaptive.refine_marked_twice))
    report = run_adaptive(prob, config)
    assert report.csv_rows() == plain
    assert [m.num_elements for m in meshes] == [r.num_elements for r in report.records]
    data = prob.f is not None or prob.big_f is not None
    for k, mesh in enumerate(meshes):
        key = id(mesh)
        assert 1 <= builds[key, "G"] <= 2
        assert builds[key, "A"] == 1
        assert builds[key, "D"] == 1
        assert builds[key, "pass"] - projected[key, "pass"] == (prob.kind == "stokes")
        if mode == "uniform" or k == 0 or not data:
            assert projected[key, "pass"] == data
            assert projected[key, "rows"] == data * mesh.num_elements
        else:
            assert 0 < projected[key, "rows"] < mesh.num_elements


def test_identity_level_builds_each_operator_once(monkeypatch):
    """Each `identity_rows` level builds G, A and D once each after
    `discretize_stokes` returns, for the exact errors and all the samples;
    counting does not change the rows."""
    from gapfem import adaptive
    from gapfem.adaptive import identity_rows

    plain = identity_rows(taylor_green_stokes(), 3, 4)
    solved, builds = [], Counter()  # the list keeps the meshes, so their ids

    def discretize_stokes(problem, mesh):
        sol = plain_discretize(problem, mesh)
        solved.append(mesh)
        return sol

    plain_discretize = adaptive.discretize_stokes
    count_builds(monkeypatch, builds, lambda mesh: any(m is mesh for m in solved))
    monkeypatch.setattr(adaptive, "discretize_stokes", discretize_stokes)
    assert identity_rows(taylor_green_stokes(), 3, 4) == plain
    assert len(solved) == 3
    for mesh in solved:
        assert [builds[id(mesh), name] for name in "GAD"] == [1, 1, 1]


@pytest.mark.parametrize("case", ["taylor_green-adaptive", "cook-adaptive", "identity_rows"])
def test_operator_set_built_after_the_last_factor(case, monkeypatch):
    """Each mesh gets one `MeshOperators` set, built after the last SuperLU
    factor of its solve returns (for Cook, the lifting's, which follows the
    displacement's), so no operator is alive under a factor."""
    from gapfem import adaptive, forms, spaces
    from gapfem.adaptive import identity_rows

    events, solving = [], []  # (kind, mesh); the mesh being discretized

    def discretizing(discretize):
        def call(problem, mesh):
            solving.append(mesh)
            try:
                return discretize(problem, mesh)
            finally:
                solving.pop()

        return call

    def factor(matrix):
        lu = plain_factor(matrix)
        events.append(("factor", solving[-1]))
        return lu

    def init(self, mesh):
        events.append(("set", mesh))
        plain_init(self, mesh)

    plain_factor, plain_init = forms.spd_factor, spaces.MeshOperators.__init__
    monkeypatch.setattr(forms, "spd_factor", factor)
    monkeypatch.setattr(spaces.MeshOperators, "__init__", init)
    for name in ("discretize_stokes", "discretize_elasticity"):
        monkeypatch.setattr(adaptive, name, discretizing(getattr(adaptive, name)))
    if case == "identity_rows":
        identity_rows(taylor_green_stokes(), 3, 2)
    else:
        problem = taylor_green_stokes() if case.startswith("taylor") else cook_membrane()
        run_adaptive(problem, AdaptiveConfig(max_iter=3))
    # events holds every mesh, so their ids stay distinct
    meshes = list({id(mesh): mesh for kind, mesh in events if kind == "factor"}.values())
    assert len(meshes) == 3
    for mesh in meshes:
        mine = [(i, kind) for i, (kind, m) in enumerate(events) if m is mesh]
        last_factor = max(i for i, kind in mine if kind == "factor")
        sets = [i for i, kind in mine if kind == "set"]
        assert len(sets) == 1 and sets[0] > last_factor
    assert len([kind for kind, _ in events if kind == "set"]) == 3


def test_level4_degree10_arrays_stay_in_blocks():
    """On the 12,800-element Taylor-Green mesh, the traced peaks of the data
    projection and of the estimate stay below bounds that one more
    whole-mesh (ne, 25, 2, 2) array would break, and the solve finds no
    degree-10 points and no f values cached on the mesh."""
    from gapfem.adaptive import _estimate
    from gapfem.mesh import refine_marked_twice
    from gapfem.problems import discretize_stokes, project_data
    from gapfem.quadrature import VOLUME_DEGREE

    prob = taylor_green_stokes()
    mesh = prob.mesh_factory()
    for _ in range(3):
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    whole = mesh.num_elements * len(triangle_rule(VOLUME_DEGREE)[1]) * 4 * 8
    assert whole == 10_240_000
    mesh.geometry()

    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # measured 4.4 MB; whole-mesh f values and points took 20.5 MB
    assert traced_peak(lambda: project_data(prob, mesh)) < whole
    assert ("physical_points", VOLUME_DEGREE) not in mesh._cache
    assert not [k for k in mesh._cache if isinstance(k, tuple) and k[0] == "rule_values"]
    sol = discretize_stokes(prob, mesh)
    assert ("rule_values", prob.f, VOLUME_DEGREE) not in mesh._cache
    # measured 24 MB, of which the grad u and p caches hold 1.25 whole
    # arrays; whole-mesh integrands took 32 MB
    assert traced_peak(lambda: _estimate(prob, mesh, sol)) < 3 * whole


def _carried_keys(mesh):
    return list(mesh._carried)


def test_lshape_evaluates_fields_only_on_fresh_elements(monkeypatch):
    """grad u and p are evaluated at the degree-10 points of the initial
    elements and then only of the elements a refinement did not copy with
    their vertex row unchanged (refinement edge 0 in the parent)."""
    from gapfem import adaptive
    from gapfem.mesh import refine_marked_twice
    from gapfem.quadrature import VOLUME_DEGREE

    points = Counter()

    def counted(name, field):
        def f(x):
            points[name] += x.size // 2
            return field(x)
        return f

    prob = lshape_stokes()
    prob = dataclasses.replace(
        prob, grad_u=counted("grad_u", prob.grad_u), p=counted("p", prob.p)
    )
    sizes, fresh = [], []

    def refine(mesh, marked):
        child = refine_marked_twice(mesh, marked)
        kept = set(map(tuple, mesh.elements[mesh.refinement_edge == 0].tolist()))
        sizes.append(child.num_elements)
        fresh.append(sum(row not in kept for row in map(tuple, child.elements.tolist())))
        return child

    monkeypatch.setattr(adaptive, "refine_marked_twice", refine)
    initial = prob.mesh_factory().num_elements
    run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=5))
    nq = len(triangle_rule(VOLUME_DEGREE)[1])
    expected = nq * (initial + sum(fresh))
    assert points == {"grad_u": expected, "p": expected}
    assert len(fresh) == 4 and sum(fresh) < sum(sizes)


def test_lshape_joint_pass_costs_one_polar_and_profile_per_block(monkeypatch):
    """grad u and p together cost one `_polar` and one `_lshape_psi` call per
    fresh degree-10 block: one joint pass fills both cache entries."""
    from gapfem import adaptive, problems, quadrature
    from gapfem.mesh import refine_marked_twice

    nq = len(triangle_rule(VOLUME_DEGREE)[1])
    calls = Counter()

    def counted(name, plain):
        def f(arg):
            # degree-10 block points are (nb, nq, 2) and their angles
            # (nb, nq); the lift's side points hold 8 per side
            calls[name] += arg.ndim >= 2 and arg.shape[1] == nq
            return plain(arg)
        return f

    fresh = []

    def refine(mesh, marked):
        child = refine_marked_twice(mesh, marked)
        kept = set(map(tuple, mesh.elements[mesh.refinement_edge == 0].tolist()))
        fresh.append(sum(row not in kept for row in map(tuple, child.elements.tolist())))
        return child

    monkeypatch.setattr(problems, "_polar", counted("polar", problems._polar))
    monkeypatch.setattr(problems, "_lshape_psi", counted("psi", problems._lshape_psi))
    monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", 50)
    monkeypatch.setattr(adaptive, "refine_marked_twice", refine)
    prob = lshape_stokes()
    initial = prob.mesh_factory().num_elements
    run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=4))
    blocks = sum(-(-n // 50) for n in [initial] + fresh)
    assert calls == {"polar": blocks, "psi": blocks}
    assert len(fresh) == 3 and blocks > 4 + len(fresh)


@pytest.mark.parametrize("factory, field, label", [
    (lshape_stokes, "u", None),
    (taylor_green_stokes, "g", NEUMANN),
    (cook_membrane, "g", NEUMANN),
], ids=["lshape-lift", "taylor-green-tractions", "cook-tractions"])
def test_side_data_evaluated_only_on_fresh_sides(factory, field, label, monkeypatch):
    """After a refinement, the lift's u is evaluated only at the Gauss points
    of the sides the refinement did not leave whole, and the traction g only
    at those of such Neumann sides: the other rows are carried."""
    from gapfem import adaptive
    from gapfem.mesh import refine_marked_twice

    config = AdaptiveConfig(theta=0.5, max_iter=4)
    plain_rows = run_adaptive(factory(), config).csv_rows()
    prob, points = factory(), Counter()
    plain = getattr(prob, field)

    def counted(x, *normal):
        points[field] += x.size // 2
        return plain(x, *normal)

    prob = dataclasses.replace(prob, **{field: counted})
    meshes = []

    def recorded(make):
        def made(*args):
            meshes.append(make(*args))
            return meshes[-1]
        return made

    prob.mesh_factory = recorded(prob.mesh_factory)
    monkeypatch.setattr(adaptive, "refine_marked_twice", recorded(refine_marked_twice))
    assert run_adaptive(prob, config).csv_rows() == plain_rows

    def sides(mesh, label=None):
        pairs = mesh.side_vertices
        pairs = pairs if label is None else pairs[mesh.side_labels == label]
        return set(map(tuple, np.sort(pairs, axis=1).tolist()))

    # a side of the child whose endpoints were a side of the parent is whole
    fresh = [len(sides(child, label) - sides(parent)) for parent, child in zip(meshes, meshes[1:])]
    assert points == {field: 8 * (len(sides(meshes[0], label)) + sum(fresh))}
    assert len(fresh) == 3 and sum(fresh) < sum(len(sides(m, label)) for m in meshes[1:])


def test_taylor_green_evaluates_f_only_on_fresh_elements(monkeypatch):
    """The adaptive Taylor-Green loop evaluates f at the degree-10 points of
    the initial elements and then only of the elements a refinement did not
    copy with their vertex row unchanged: `project_data` takes the other
    rows of f_h and the oscillation from the parent mesh."""
    from gapfem import adaptive
    from gapfem.mesh import refine_marked_twice

    config = AdaptiveConfig(theta=0.5, max_iter=5)
    plain = run_adaptive(taylor_green_stokes(), config).csv_rows()
    points = Counter()
    prob = taylor_green_stokes()
    plain_f = prob.f

    def f(x):
        points["f"] += x.size // 2
        return plain_f(x)

    prob = dataclasses.replace(prob, f=f)
    sizes, fresh = [], []

    def refine(mesh, marked):
        child = refine_marked_twice(mesh, marked)
        kept = set(map(tuple, mesh.elements[mesh.refinement_edge == 0].tolist()))
        sizes.append(child.num_elements)
        fresh.append(sum(row not in kept for row in map(tuple, child.elements.tolist())))
        return child

    monkeypatch.setattr(adaptive, "refine_marked_twice", refine)
    initial = prob.mesh_factory().num_elements
    assert run_adaptive(prob, config).csv_rows() == plain
    nq = len(triangle_rule(VOLUME_DEGREE)[1])
    assert points == {"f": nq * (initial + sum(fresh))}
    assert len(fresh) == 4 and sum(fresh) < sum(sizes)


def list_identity_level(problem, mesh, level, seeds, seed_offset, tamper):
    """`adaptive._identity_level` written with lists: one CRField and one
    RTField per sample, u_h + w and T_h + r summed field by field and then
    stacked into the blocks that the energies and convexity measures read."""
    from gapfem.duality import (energies_stokes, random_divfree_cr, random_divfree_rt,
                                strong_convexity_stokes)
    from gapfem.problems import discretize_stokes, exact_errors
    from gapfem.spaces import RTField
    from test_forms import cr_block, cr_fields, rt_block, rt_fields

    sol = discretize_stokes(problem, mesh)
    errs = exact_errors(sol, problem)
    ops = sol.system.ops
    level_seeds = [seed_offset + 1000 * level + i for i in range(1, seeds + 1)]
    sizes = np.array([0.5 + ((7 * seed) % 8) / 4.0 for seed in level_seeds])
    vs = [sol.u_h + w for w in cr_fields(mesh, random_divfree_cr(
        ops, level_seeds, sizes * np.sqrt(2.0 / problem.nu) * errs["primal"]))]
    taus = [RTField(mesh, sol.t_h.flux + r.flux) for r in rt_fields(mesh, random_divfree_rt(
        ops, [seed + 500000 for seed in level_seeds],
        sizes * np.sqrt(2.0 * problem.nu) * errs["dual"]))]
    if tamper:
        flux = [tau.flux.copy() for tau in taus]
        for f in flux:
            f[0, mesh.element_sides[0, 0]] += 0.1 * (1.0 + f.max())
        taus = [RTField(mesh, f) for f in flux]
    dofs, flux = cr_block(vs), rt_block(taus)
    en = energies_stokes(dofs, flux, sol.system)
    rho = strong_convexity_stokes(dofs, flux, sol.system, sol.u_h, sol.t_h)
    return en["primal"] - en["dual"], rho["primal"], rho["dual"]


@pytest.mark.parametrize("factory, level, tamper", [
    (taylor_green_stokes, 2, False),
    (taylor_green_stokes, 1, True),
    (lshape_stokes, 1, False),
])
def test_identity_level_equals_list_api(factory, level, tamper):
    """The identity level's samples, formed in place as blocks, give the rows
    of the blocks stacked from field-by-field sums bit for bit; tampering
    makes every stress inadmissible, so every gap +inf."""
    from gapfem.adaptive import _identity_level
    from gapfem.mesh import refine_marked_twice

    prob = factory()
    mesh = prob.mesh_factory()
    for _ in range(level - 1):
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    gap, rho_primal, rho_dual = list_identity_level(prob, mesh, level, 5, 7, tamper)
    rows = _identity_level(prob, mesh, level, 5, 7, tamper)
    assert [r["gap"] for r in rows] == gap.tolist()
    assert [r["rho_primal"] for r in rows] == rho_primal.tolist()
    assert [r["rho_dual"] for r in rows] == rho_dual.tolist()
    assert (gap == np.inf).all() if tamper else np.isfinite(gap).all()


def test_uniform_refinement_carries_nothing():
    from gapfem.mesh import refine_marked_twice
    from gapfem.problems import interpolate_lift, side_tractions
    from gapfem.quadrature import VOLUME_DEGREE, rule_values

    prob = taylor_green_stokes()
    mesh = prob.mesh_factory()
    for f in (prob.grad_u, prob.p, prob.f):
        rule_values(f, mesh, VOLUME_DEGREE)
    # the side rows too: the lift and the tractions
    interpolate_lift(prob, mesh)
    side_tractions(prob, mesh)
    child = refine_marked_twice(mesh, range(mesh.num_elements))
    assert _carried_keys(child) == []
    # no side is left whole, so the side rows die with their solution
    assert not [k for k in mesh._cache if k[0] in ("lift", "tractions")]


def test_parent_field_array_dies_with_the_parent():
    """The refined mesh keeps a compact copy of the carried rows, not a view
    that would hold the parent's whole array."""
    from gapfem.mesh import refine_marked_twice
    from gapfem.quadrature import VOLUME_DEGREE, rule_values

    prob = lshape_stokes()
    mesh = prob.mesh_factory()
    parent_values = weakref.ref(rule_values(prob.grad_u, mesh, VOLUME_DEGREE))
    child = refine_marked_twice(mesh, [0])
    assert _carried_keys(child) == [("rule_values", prob.grad_u, VOLUME_DEGREE)]
    del mesh
    gc.collect()
    assert parent_values() is None


def test_cook_carries_nothing(monkeypatch):
    """A Cook step builds no degree-10 array, so a refinement carries no
    element rows: it carries only the side rows of the lift and of g_h."""
    from gapfem import adaptive
    from gapfem.mesh import refine_marked_twice
    from gapfem.problems import cook_membrane

    carried = []

    def refine(mesh, marked):
        child = refine_marked_twice(mesh, marked)
        carried.append(_carried_keys(child))
        return child

    prob = cook_membrane()
    monkeypatch.setattr(adaptive, "refine_marked_twice", refine)
    run_adaptive(prob, AdaptiveConfig(theta=0.5, max_iter=3))
    sides = [("lift", prob.u, None), ("tractions", prob.g)]
    assert carried == [sides, sides]


@pytest.fixture(scope="module")
def uniform_report():
    prob = taylor_green_stokes()
    return run_adaptive(prob, AdaptiveConfig(refinement_mode="uniform", max_iter=3))


class TestReportSerialization:

    def test_csv(self, uniform_report, tmp_path):
        path = tmp_path / "report.csv"
        uniform_report.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:4] == ["k", "num_elements", "num_dof", "h"]
        assert "eoc_err_primal" in header

    def test_csv_float_format(self, uniform_report):
        rows = uniform_report.csv_rows()
        osc_col = rows[0].index("osc_total")
        # oscillation totals are < 1e-3 on these meshes: scientific notation
        assert "e" in rows[2][osc_col]

    def test_json(self, uniform_report, tmp_path):
        path = tmp_path / "report.json"
        uniform_report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["problem"] == "taylor-green"
        assert len(payload["records"]) == 3
        assert "wall_time" in payload["records"][0]
        assert "err_primal" in payload["eoc"]

    def test_csv_deterministic(self, uniform_report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        uniform_report.to_csv(p1)
        prob = taylor_green_stokes()
        again = run_adaptive(
            prob, AdaptiveConfig(refinement_mode="uniform", max_iter=3)
        )
        again.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("make", [taylor_green_stokes, lshape_stokes])
def test_stokes_estimator_without_exact_solution(make):
    """With grad_u hidden, the Stokes indicator takes the nodal average of the
    total field u_h + u_hat and no lift gradient; on four uniform levels the
    estimator stays within a fixed ratio of the hidden primal error."""
    prob = make()
    config = AdaptiveConfig(refinement_mode="uniform", max_iter=4)
    hidden = run_adaptive(dataclasses.replace(prob, grad_u=None), config).records
    exact = run_adaptive(prob, config).records
    assert len(hidden) == len(exact) == 4
    for h, e in zip(hidden, exact):
        assert h.errors == {} and h.num_elements == e.num_elements
        assert 1.2 <= np.sqrt(h.estimator_total) / e.errors["err_primal"] <= 1.5
