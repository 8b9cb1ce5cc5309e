import ast
import copy
import functools
import pathlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from gapfem import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    AssemblyError,
    CRField,
    ElasticityTensor,
    RTField,
    SingularSystemError,
    assemble_elasticity,
    assemble_stokes,
    broken_gradient,
    build_triangulation,
    cr_interpolate,
    refine_bisection,
    solve_lifting,
    solve_sparse,
    structured_square_mesh,
)
from gapfem import forms
from gapfem.forms import (
    SOLVE_TOL,
    cr_stiffness,
    dirichlet_penalty_load,
    jump_penalty_matrix,
    stabilization_weights,
)
from gapfem.mesh import grid_triangles, refine_marked_twice
from gapfem.problems import (
    cook_membrane,
    cook_mesh,
    lshape_mesh,
    lshape_stokes,
    manufactured_elasticity,
    taylor_green_stokes,
)
from gapfem.quadrature import segment_rule, side_points
from gapfem.spaces import (
    MeshOperators,
    cr_basis_gradients,
    cr_gradient_operator,
    cr_jump_operator,
    norm_p0,
    sym,
)


def all_dirichlet(mid):
    return DIRICHLET


def tg_labeler(mid):
    return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN


def zero_lift(mesh):
    return CRField(mesh, np.zeros((mesh.num_sides, 2)))


def zero_datum(x):
    return np.zeros(x.shape)


def stokes_system(mesh, nu):
    """The Stokes system of a mesh at nu with zero lift and load."""
    return assemble_stokes(mesh, nu, zero_lift(mesh), None, None, None)


def saddle_matrix(system):
    """The matrix `solve_saddle` solves, built from the blocks of a Stokes
    system: [[nu A_1, B^T], [B, 0]] as CSC, bordered by the gauge row of the
    element areas and its transpose on a pure-Dirichlet mesh."""
    a, b = system.nu * system.a1, system.b
    blocks = [[a, b.T], [b, None]]
    if system.pure_dirichlet:
        gauge = sparse.csr_matrix(system.mesh.areas[None, :])
        blocks = [[a, b.T, None], [b, None, gauge.T], [None, gauge, None]]
    return sparse.bmat(blocks, format="csc")


def div_h(v):
    """Broken divergence of a CR field: the trace of its broken gradient."""
    g = broken_gradient(v)
    return g[:, 0, 0] + g[:, 1, 1]


def cr_block(fields):
    """The (2 ns, k) DOF block of k CR fields, column k the DOFs of fields[k]."""
    return np.stack([v.dofs() for v in fields], axis=1)


def rt_block(fields):
    """The (ns, 2 k) flux block of k RT fields, column 2 k + i row i of fields[k]."""
    return np.stack([t.flux for t in fields]).reshape(2 * len(fields), -1).T


def cr_fields(mesh, dofs):
    """The CR fields of the columns of a (2 ns, k) DOF block."""
    return [CRField(mesh, dofs[:, k].reshape(2, -1).T) for k in range(dofs.shape[1])]


def rt_fields(mesh, flux):
    """The RT fields of the column pairs of an (ns, 2 k) flux block."""
    return [RTField(mesh, flux[:, 2 * k: 2 * k + 2].T) for k in range(flux.shape[1] // 2)]


def holed_square_mesh(outer, hole):
    """The unit square's 3-by-3 grid of cells without its centre cell.

    The four sides around the hole take the label `hole`; the outer sides
    take the one the labeler `outer` gives.
    """
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    vertices = np.stack([i.ravel(), j.ravel()], axis=1) / 3.0
    elements = np.delete(grid_triangles(3, 3), [8, 9], axis=0)  # cell (1, 1)

    def labeler(mid):
        inner = np.all((mid > 1e-12) & (mid < 1.0 - 1e-12))
        return hole if inner else outer(mid)

    return build_triangulation(vertices, elements, labeler)


def stokes_factor_shapes(system):
    """Shape of the one factor of one `solve_saddle`, Z^T A_1 Z: Z has a
    column per kernel direction of B, whose rank is ne - [pure Dirichlet]."""
    nz = len(system.vel_index) - system.mesh.num_elements + system.pure_dirichlet
    return [(nz, nz)]


def record_spd_factors(monkeypatch):
    """Have forms.spd_factor append each matrix's shape to the returned list."""
    factored = []
    spd_factor = forms.spd_factor

    def recording(matrix):
        factored.append(matrix.shape)
        return spd_factor(matrix)

    monkeypatch.setattr(forms, "spd_factor", recording)
    return factored


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
        # the Stokes factor, the elasticity matrix and the lifting's CR
        # stiffness are all factored by spd_factor with the same options;
        # the Stokes one when the Stokes solve runs
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
        stokes_shapes = stokes_factor_shapes(
            discretize_stokes(stokes, stokes.mesh_factory()).system
        )
        cook = cook_membrane(nx=3, ny=5)
        mesh = cook.mesh_factory()
        sol = discretize_elasticity(cook, mesh)
        solve_lifting(sol.system, sol.u_h + sol.u_hat)
        nfree = len(sol.system.vel_index)
        stokes_sizes = [n for n, _ in stokes_shapes]
        assert [n for n, _, _ in calls] == stokes_sizes + [nfree, nfree // 2, nfree // 2]
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


def _factor_call(node):
    func = getattr(node, "func", None)
    name = getattr(func, "attr", getattr(func, "id", None))
    return isinstance(node, ast.Call) and name in ("spd_factor", "splu", "bmat")


def test_no_factor_kept_as_attribute():
    """No function stores a factor or a bordered saddle matrix on an object:
    each lives only as long as the call that made it, so no later phase on
    the mesh holds it."""
    found = []
    for path in sorted(pathlib.Path(forms.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                elif getattr(getattr(node, "func", None), "id", None) == "setattr":
                    if any(_factor_call(arg) for arg in node.args[2:]):
                        found.append((path.name, fn.name, node.lineno))
                    continue
                else:
                    continue
                if _factor_call(node.value) and any(
                    isinstance(t, ast.Attribute)
                    for target in targets
                    for t in ast.walk(target)
                ):
                    found.append((path.name, fn.name, node.lineno))
    assert found == []


def test_no_function_level_package_imports():
    """gapfem modules import each other at module level only, so no import
    inside a function hides an upward edge of the module graph."""
    found = []
    for path in sorted(pathlib.Path(forms.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["." if node.level else node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n == "." or n.split(".")[0] == "gapfem" for n in names):
                    found.append((path.name, fn.name, node.lineno))
    assert found == []


def _options(tree):
    """(callee name, function name, defaulted parameters, **kwargs, named
    parameters) of every function of a module.  A defaulted parameter is
    (name, index of the call's positional argument that sets it, None if
    keyword-only); a class is called for its __init__, and a method's calls
    skip self."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                skip = cls is not None
                first = len(a.args) - len(a.defaults)
                params = [(p.arg, i - skip) for i, p in enumerate(a.args) if i >= first]
                params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None]
                callee = cls if skip and child.name == "__init__" else child.name
                named = {p.arg for p in a.args + a.kwonlyargs}
                out.append((callee, child.name, params, a.kwarg, named))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _sets(call, name, index):
    """Whether a call sets a parameter: by keyword, by position or through
    *args or **kwargs."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return index is not None and (len(call.args) > index or starred)


def _calls():
    """Every call in gapfem, the tests and the README's python examples, by
    the name it calls."""
    package = sorted(pathlib.Path(forms.__file__).parent.glob("*.py"))
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    sources = [p.read_text() for p in package + tests]
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    calls = {}
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def _package_options():
    """`_options` of every gapfem module, each with its file name."""
    for path in sorted(pathlib.Path(forms.__file__).parent.glob("*.py")):
        for option in _options(ast.parse(path.read_text())):
            yield path.name, option


def test_every_option_is_set_by_some_call():
    """Every defaulted parameter and every **kwargs of a gapfem function is
    set by at least one call in gapfem, the tests or the README's python
    examples: a value that no call sets is a constant, not an option."""
    calls = _calls()
    unset = []
    for path, (callee, fn, params, kwarg, named) in _package_options():
        found = calls.get(callee, [])
        unset += [(path, fn, name) for name, index in params
                  if not any(_sets(c, name, index) for c in found)]
        if kwarg and not any(
            k.arg is None or k.arg not in named for c in found for k in c.keywords
        ):
            unset.append((path, fn, "**" + kwarg.arg))
    assert unset == []


# scipy's generic constructors: on the package's mesh sizes their COO round
# trips and format checks cost more than the arithmetic, so forms.py builds
# these matrices from their index arrays
GENERIC_CONSTRUCTORS = {"kron", "block_diag", "diags", "diags_array"}


def _generic_constructor_uses(source):
    """(line, name) of each call of a GENERIC_CONSTRUCTORS member through
    `sparse.` or `scipy.sparse.`, and of each import of one from scipy.sparse."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = ast.unparse(node.func.value)
            if base in ("sparse", "scipy.sparse") and node.func.attr in GENERIC_CONSTRUCTORS:
                uses.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse":
            uses += [(node.lineno, a.name) for a in node.names
                     if a.name in GENERIC_CONSTRUCTORS]
    return uses


def test_no_generic_sparse_constructors():
    """gapfem calls none of sparse.kron, sparse.block_diag and sparse.diags."""
    sample = "sparse.kron(a, b)\nscipy.sparse.diags(d)\nfrom scipy.sparse import block_diag\n"
    assert sorted(name for _, name in _generic_constructor_uses(sample)) == [
        "block_diag", "diags", "kron"
    ]
    package = sorted(pathlib.Path(forms.__file__).parent.glob("*.py"))
    found = [(p.name, *use) for p in package for use in _generic_constructor_uses(p.read_text())]
    assert found == []


def _operator_set_builders(source):
    """The qualified name of the function around each `MeshOperators(` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                f = child.func
                if (getattr(f, "id", None) or getattr(f, "attr", None)) == "MeshOperators":
                    found.append(scope)
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_operator_sets_built_only_by_their_owners():
    """gapfem builds a `MeshOperators` set in one place: the solved system's
    `ops`, which every reader after the solve takes, the random samples
    included."""
    sample = "class S:\n    def ops(self):\n        return spaces.MeshOperators(m)\n"
    assert _operator_set_builders(sample) == ["S.ops"]
    package = sorted(pathlib.Path(forms.__file__).parent.glob("*.py"))
    found = sorted((p.name, scope) for p in package
                   for scope in _operator_set_builders(p.read_text()))
    assert found == [("forms.py", "_LoadedSystem.ops")]


def test_every_default_is_left_unset_by_some_call():
    """Every defaulted parameter of a gapfem function is left at its default
    by at least one call in gapfem, the tests or the README's python
    examples: a default that every call sets is dead, and the parameter is
    a required one."""
    calls = _calls()
    dead = [(path, fn, name)
            for path, (callee, fn, params, _, _) in _package_options()
            for name, index in params
            if all(_sets(c, name, index) for c in calls.get(callee, []))]
    assert dead == []


# public functions that no gapfem code or README example calls, and why they stay
UNCALLED_PUBLIC = {
    "apriori_identity_check_stokes": "acceptance criterion 4, the a priori identity",
    "manufactured_elasticity": "acceptance criterion 8, the elasticity rates",
}


def test_every_public_function_has_a_package_caller():
    """Every public function or method of gapfem is called, or referenced as
    a value (a callback, a CLI handler, a property), by gapfem or by a
    README python example: code that only tests reach belongs in the tests.
    Dunder methods are exempt, and UNCALLED_PUBLIC names the exceptions."""
    package = sorted(pathlib.Path(forms.__file__).parent.glob("*.py"))
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    sources = [p.read_text() for p in package]
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    used = set()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    public = {
        (path.name, fn.name)
        for path in package
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    assert sorted(p for p in public if p[1] not in used | set(UNCALLED_PUBLIC)) == []
    # each exception is still defined and still has no caller
    assert {name for _, name in public} >= set(UNCALLED_PUBLIC)
    assert used.isdisjoint(UNCALLED_PUBLIC)


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
        assert np.abs(p).max() < 1e-12

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
        assert np.abs(broken_gradient(total) - a).max() < 1e-10
        assert np.abs(p).max() < 1e-10

    def test_taylor_green_dof_count(self):
        mesh = structured_square_mesh(10, tg_labeler)
        system = assemble_stokes(mesh, 0.5, zero_lift(mesh), None, None, None)
        nfree = len(system.vel_index)
        assert nfree + 2 * 20 == 640  # constrained Dirichlet DOFs excluded
        assert saddle_matrix(system).shape[0] == nfree + mesh.num_elements
        assert 2 * mesh.num_sides + mesh.num_elements == 840

    def test_load_needs_one_row_per_element(self):
        # a single row would broadcast over every element in load_vector
        mesh = structured_square_mesh(3, tg_labeler)
        with pytest.raises(ValueError, match="f_h must have one row per element, not 1"):
            assemble_stokes(mesh, 0.5, zero_lift(mesh), np.ones((1, 2)), None, None)
        with pytest.raises(ValueError, match="big_f_h must have one row per element"):
            assemble_elasticity(mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None,
                                np.ones((1, 2, 2)), None, dirichlet_datum=zero_datum)
        # load_vector would ignore extra traction rows and mis-index missing ones
        for rows in (mesh.num_sides + 7, 1):
            match = f"g_h must have one row per side, not {rows}"
            with pytest.raises(ValueError, match=match):
                assemble_stokes(mesh, 0.5, zero_lift(mesh), None, None, np.ones((rows, 2)))
            with pytest.raises(ValueError, match=match):
                assemble_elasticity(mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None,
                                    None, np.ones((rows, 2)), dirichlet_datum=zero_datum)

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
        assert np.abs(div_h(sol.u_h)).max() < 1e-10
        # the momentum rows on the free DOFs: nu a1 u_f + b^T p = rhs_v
        system = sol.system
        u_f = sol.u_h.dofs()[system.vel_index]
        mom = system.nu * (system.a1 @ u_f) + system.b.T @ sol.p_h
        assert np.abs(mom - system.rhs[: len(u_f)]).max() < 1e-10

    def test_pressure_gauge_pure_dirichlet(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        f = lambda x: np.stack([np.sin(x[..., 0]), np.cos(x[..., 1])], axis=-1)
        from gapfem.spaces import pi0

        system = assemble_stokes(mesh, 1.0, zero_lift(mesh), pi0(f, mesh), None, None)
        u, p, _ = system.solve()
        assert abs(np.sum(mesh.areas * p)) < 1e-12


class TestStokesALSolve:
    """The direct solve of the CR-P0 saddle in the divergence-free basis."""

    @pytest.mark.parametrize("outer, hole", [
        (tg_labeler, DIRICHLET), (all_dirichlet, DIRICHLET), (all_dirichlet, NEUMANN),
    ], ids=["tg-dirichlet-hole", "dirichlet-dirichlet-hole", "dirichlet-neumann-hole"])
    def test_hole_matches_saddle_lu(self, outer, hole):
        # at most one boundary curve carries Neumann sides, so the
        # divergence-free basis spans the kernel, here and after refinement
        mesh = holed_square_mesh(outer, hole)
        rng = np.random.default_rng(11)
        for _ in range(2):
            system = stokes_system(mesh, 1.0)
            rhs = rng.standard_normal(saddle_matrix(system).shape[0])
            x, report = system.solve_saddle(rhs)
            ref = sla.splu(saddle_matrix(system)).solve(rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert report.residual_norm <= SOLVE_TOL
            mesh, _ = refine_bisection(mesh, np.arange(mesh.num_elements))

    def test_neumann_hole_raises(self):
        # two boundary curves with Neumann sides: the flux through the hole
        # is free, which no single-valued stream function gives, so the
        # basis misses a kernel direction and the system is refused by name
        # rather than solved wrongly
        mesh = holed_square_mesh(tg_labeler, NEUMANN)
        with pytest.raises(AssemblyError, match="every boundary curve but at most one"):
            stokes_system(mesh, 1.0)

    @pytest.mark.parametrize("labeler", [all_dirichlet, tg_labeler])
    def test_matches_saddle_lu(self, labeler, monkeypatch):
        # each viscosity's system solves its own saddle matrix, with the
        # one factor Z^T A_1 Z per solve and none when the system is built
        mesh = structured_square_mesh(6, labeler)
        rng = np.random.default_rng(7)
        factored = record_spd_factors(monkeypatch)
        for k, nu in enumerate((0.5, 1.0)):
            system = stokes_system(mesh, nu)
            assert len(factored) == k
            assert system.pure_dirichlet == (labeler is all_dirichlet)
            rhs = rng.standard_normal(saddle_matrix(system).shape[0])
            x, report = system.solve_saddle(rhs)
            assert factored[k:] == stokes_factor_shapes(system)
            ref = sla.splu(saddle_matrix(system)).solve(rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert report.residual_norm <= 1e-10

    def test_factor_freed_when_solve_returns(self, monkeypatch):
        # the factor is a temporary of its one triangular solve: it is dead
        # once the solve returns, while the system lives on with its
        # solution and can solve again with a factor of its own
        import gc
        import weakref

        from gapfem.problems import discretize_stokes, taylor_green_stokes

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return self.lu.solve(rhs)

        refs = []
        spd_factor = forms.spd_factor

        def weak_factor(matrix):
            assert all(ref() is None for ref in refs)
            factor = Factor(spd_factor(matrix))
            refs.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(forms, "spd_factor", weak_factor)
        prob = taylor_green_stokes(n=3)
        mesh = prob.mesh_factory()
        gc.disable()
        try:
            sol = discretize_stokes(prob, mesh)
            assert len(refs) == 1 and all(ref() is None for ref in refs)
            assert not hasattr(sol.system, "lu")
            u_h, p_h, _ = sol.system.solve()
            assert len(refs) == 2 and all(ref() is None for ref in refs)
            assert np.array_equal(u_h.values, sol.u_h.values)
            assert np.array_equal(p_h, sol.p_h)
        finally:
            gc.enable()

    def test_zero_rhs_exact_zero(self, monkeypatch):
        system = stokes_system(structured_square_mesh(4, all_dirichlet), 0.5)
        factored = record_spd_factors(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = system.solve_saddle(np.zeros(saddle_matrix(system).shape[0]))
        assert factored == stokes_factor_shapes(system)
        assert not np.any(x)
        assert report.residual_norm == 0.0

    @pytest.mark.parametrize("problem", ["taylor-green", "lshape"])
    def test_one_factor_one_solve_per_mesh(self, problem, monkeypatch):
        # one Stokes solve per mesh makes the factor of Z^T A_1 Z with one
        # triangular solve, and 16 random divergence-free samples on the
        # same mesh make none
        from gapfem.duality import random_divfree_cr
        from gapfem.mesh import refine_marked_twice
        from gapfem.problems import discretize_stokes, get_problem

        class CountingFactor:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, rhs):
                self.solves += 1
                return self.lu.solve(rhs)

        factors = []
        spd_factor = forms.spd_factor

        def counting_factor(matrix):
            factors.append(CountingFactor(spd_factor(matrix)))
            return factors[-1]

        monkeypatch.setattr(forms, "spd_factor", counting_factor)
        prob = get_problem(problem)
        mesh = prob.mesh_factory()
        for level in range(1, 3):
            sol = discretize_stokes(prob, mesh)
            assert len(factors) == level
            assert [f.solves for f in factors] == [1] * len(factors)
            random_divfree_cr(sol.system.ops, range(1, 17), 1.0)
            assert len(factors) == level
            assert [f.solves for f in factors] == [1] * len(factors)
            mesh = refine_marked_twice(mesh, range(mesh.num_elements))

    def test_checked_flags_one_bad_column(self):
        # a block is checked column by column: one corrupted column of a
        # small right-hand side cannot hide behind fifteen large ones, as
        # it would in one Frobenius norm over the block
        matrix = saddle_matrix(stokes_system(structured_square_mesh(6, tg_labeler), 1.0))
        norm = forms._inf_norm(matrix)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal((matrix.shape[0], 16))
        rhs[:, 1:] *= 1e3
        x = sla.splu(matrix).solve(rhs)
        assert forms._checked(matrix, rhs, x).residual_norm <= SOLVE_TOL
        noise = rng.standard_normal(len(x)) / np.sqrt(len(x))
        x[:, 0] += 1e-7 * np.linalg.norm(x[:, 0]) * noise
        frobenius = np.linalg.norm(rhs - matrix @ x) / (
            norm * np.linalg.norm(x) + np.linalg.norm(rhs)
        )
        assert frobenius <= SOLVE_TOL
        with pytest.raises(SingularSystemError, match="exceeds"):
            forms._checked(matrix, rhs, x)

    def test_unreachable_tol_raises(self, monkeypatch):
        system = stokes_system(structured_square_mesh(4, tg_labeler), 1.0)
        rhs = np.random.default_rng(1).standard_normal(saddle_matrix(system).shape[0])
        monkeypatch.setattr(forms, "SOLVE_TOL", 1e-30)
        with pytest.raises(SingularSystemError, match="exceeds"):
            system.solve_saddle(rhs)

    @pytest.mark.parametrize("case", [
        "taylor-green", "lshape", "tg-dirichlet-hole", "dirichlet-dirichlet-hole",
        "dirichlet-neumann-hole",
    ])
    def test_blockwise_check_matches_saddle_matrix(self, case):
        # the check formed from a1, b and the gauge row gives the backward
        # error of the bordered matrix, and still refuses a wrong solution
        meshes = {
            "taylor-green": lambda: taylor_green_stokes().mesh_factory(),
            "lshape": lambda: lshape_stokes().mesh_factory(),
            "tg-dirichlet-hole": lambda: holed_square_mesh(tg_labeler, DIRICHLET),
            "dirichlet-dirichlet-hole": lambda: holed_square_mesh(all_dirichlet, DIRICHLET),
            "dirichlet-neumann-hole": lambda: holed_square_mesh(all_dirichlet, NEUMANN),
        }
        mesh = meshes[case]()
        rng = np.random.default_rng(5)
        for nu in (1.0, 0.3):
            system = stokes_system(mesh, nu)
            rhs = rng.standard_normal(saddle_matrix(system).shape[0])
            x, report = system.solve_saddle(rhs)
            ref = forms._checked(saddle_matrix(system), rhs, x).residual_norm
            assert 0.0 < report.residual_norm <= SOLVE_TOL
            assert report.residual_norm == pytest.approx(ref, rel=1e-12, abs=0.0)
            x[rng.integers(len(x))] += 1e-7 * np.abs(x).max()
            with pytest.raises(SingularSystemError, match="exceeds"):
                system._checked(rhs, x)

    def test_one_symmetric_factor_per_mesh(self, monkeypatch):
        # the Stokes solve factors the symmetric Z^T A_1 Z once; the random
        # divergence-free samples factor nothing
        from gapfem.duality import random_divfree_cr
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
        ops = MeshOperators(mesh)
        random_divfree_cr(ops, range(1, 17), 1.0)
        assert factored == []
        shapes = stokes_factor_shapes(discretize_stokes(prob, mesh).system)
        assert factored == shapes
        for seed in range(3):
            random_divfree_cr(ops, [seed], 1.0)
        assert factored == shapes

    def test_one_saddle_per_mesh_in_identity_rows(self, monkeypatch):
        # each level's Stokes solve builds the system of its own mesh once
        from gapfem.adaptive import identity_rows
        from gapfem.problems import taylor_green_stokes

        built = []
        init = forms.StokesSystem.__init__

        def counting_init(self, mesh, *args):
            built.append(mesh)
            init(self, mesh, *args)

        monkeypatch.setattr(forms.StokesSystem, "__init__", counting_init)
        identity_rows(taylor_green_stokes(), levels=3, seeds=2)
        assert len(built) == 3
        assert len({id(m) for m in built}) == 3

    def test_solved_system_freed_without_gc(self):
        # nothing but the solution keeps the system: with the cyclic
        # collector off, dropping the solution frees the system while its
        # mesh lives on
        import gc
        import weakref

        from gapfem.problems import discretize_stokes, taylor_green_stokes

        prob = taylor_green_stokes(n=3)
        mesh = prob.mesh_factory()
        gc.disable()
        try:
            sol = discretize_stokes(prob, mesh)
            system = weakref.ref(sol.system)
            del sol
            assert system() is None
        finally:
            gc.enable()


def potential_columns_oracle(mesh):
    """`forms._potential_columns` with scipy's `connected_components`
    numbering the Dirichlet pieces by their smallest vertex."""
    ends = mesh.side_vertices[mesh.sides_with_label(DIRICHLET)]
    graph = sparse.csr_matrix((np.ones(len(ends)), ends.T), shape=(mesh.num_vertices,) * 2)
    labels = connected_components(graph, directed=False)[1]
    pin = labels[ends[0, 0]]
    return np.where(labels == pin, -1, labels - (labels > pin))


class TestPotentialColumns:
    """The Dirichlet pieces, and so Z's column order, match the graph oracle."""

    @pytest.mark.parametrize("problem", [
        taylor_green_stokes, lshape_stokes, cook_membrane,
    ], ids=["taylor-green", "lshape", "cook"])
    def test_problem_meshes(self, problem):
        mesh = problem().mesh_factory()
        for _ in range(3):
            assert np.array_equal(forms._potential_columns(mesh), potential_columns_oracle(mesh))
            mesh, _ = refine_bisection(mesh, np.arange(mesh.num_elements))

    @pytest.mark.parametrize("outer, hole, pieces", [
        (tg_labeler, DIRICHLET, 3), (all_dirichlet, DIRICHLET, 2), (all_dirichlet, NEUMANN, 1),
    ], ids=["tg-dirichlet-hole", "dirichlet-dirichlet-hole", "dirichlet-neumann-hole"])
    def test_holed_meshes(self, outer, hole, pieces):
        # the meshes of TestStokesALSolve::test_hole_matches_saddle_lu; the
        # Taylor-Green walls are two pieces, the hole's sides one more
        mesh = holed_square_mesh(outer, hole)
        for _ in range(3):
            columns = forms._potential_columns(mesh)
            assert np.array_equal(columns, potential_columns_oracle(mesh))
            ends = mesh.side_vertices[mesh.sides_with_label(DIRICHLET)]
            assert len(np.unique(columns[ends])) == pieces
            mesh, _ = refine_bisection(mesh, np.arange(mesh.num_elements))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), nv=st.integers(1, 40))
    def test_random_edge_lists(self, data, nv):
        # any edge list, with repeated and reversed edges, and vertices on
        # no edge, which keep one column each
        vertex = st.integers(0, nv - 1)
        ends = np.array(data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=60)))
        graph = SimpleNamespace(
            num_vertices=nv, side_vertices=ends, sides_with_label=lambda label: slice(None)
        )
        assert np.array_equal(forms._potential_columns(graph), potential_columns_oracle(graph))


def divfree_basis_oracle(mesh, free, potential):
    """`forms._divfree_basis` built directly: the values (C phi)_S n_S +
    psi_S t_S on each free side S, with the zero entries, the pinned
    potential and the cancelling ends of a shared unknown dropped by hand,
    and each row in the order (phi_a, phi_b, psi)."""
    geo = mesh.geometry()
    nf, nphi = len(free), potential.max() + 1
    ends = potential[mesh.side_vertices[free]]
    normal = geo["side_normal"][free].T / geo["side_length"][free]
    data = np.stack([-normal, normal, geo["side_tangent"][free].T], axis=2).reshape(-1, 3)
    cols = np.tile(np.column_stack([ends, nphi + np.arange(nf)]), (2, 1))
    keep = (data != 0.0) & (cols >= 0)
    keep[:, :2] &= np.tile(ends[:, :1] != ends[:, 1:], (2, 1))
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_matrix((data[keep], cols[keep], indptr), (2 * nf, nphi + nf))


class TestDivfreeBasis:
    """Z = R D P equals the direct build bit for bit, and so does Z @ c."""

    @pytest.mark.parametrize("make_mesh", [
        lambda: taylor_green_stokes().mesh_factory(),
        lambda: lshape_stokes().mesh_factory(),
        *(functools.partial(holed_square_mesh, *labels) for labels in [
            (tg_labeler, DIRICHLET), (all_dirichlet, DIRICHLET), (all_dirichlet, NEUMANN),
        ]),
    ], ids=["taylor-green", "lshape", "tg-dirichlet-hole", "dirichlet-dirichlet-hole",
            "dirichlet-neumann-hole"])
    def test_matches_direct_build(self, make_mesh):
        # Taylor-Green's two Dirichlet walls and the holes make sides whose
        # ends share one unknown
        mesh = make_mesh()
        for _ in range(3):
            free, _ = forms._free_dofs(mesh)
            potential = forms._potential_columns(mesh)
            z = forms._divfree_basis(mesh, free, potential)
            oracle = divfree_basis_oracle(mesh, free, potential)
            assert z.has_sorted_indices and z.shape == oracle.shape
            ordered = oracle.sorted_indices()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(z, name), getattr(ordered, name))
            c = np.random.default_rng(1).standard_normal(z.shape[1])
            assert np.array_equal(z @ c, oracle @ c)
            mesh = refine_marked_twice(mesh, np.arange(mesh.num_elements))


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


def _bisected_mesh(n, labeler, seed, rounds):
    """`_perturbed_mesh` after rounds of bisecting a random 40% of the elements."""
    mesh = _perturbed_mesh(n, labeler, seed)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = np.nonzero(rng.uniform(size=mesh.num_elements) < 0.4)[0]
        mesh, _ = refine_bisection(mesh, marked)
    return mesh


def square_boundary_labeler(n, cuts, mid):
    """DIRICHLET on each boundary side k of the unit square's n-by-n grid
    that has an odd number of cuts <= k, NEUMANN on the others; the sides
    are numbered 0 to 4 n - 1 counterclockwise from the origin."""
    x, y = mid
    if y < 1e-12:
        arc = x
    elif x > 1.0 - 1e-12:
        arc = 1.0 + y
    elif y > 1.0 - 1e-12:
        arc = 3.0 - x
    else:
        arc = 4.0 - y
    return DIRICHLET if np.searchsorted(cuts, int(arc * n), side="right") % 2 else NEUMANN


@st.composite
def square_partitions(draw):
    """(n, labeler): a grid size and a random partition of the unit square's
    boundary, all Dirichlet, a single Dirichlet side, or one, two or three
    Dirichlet pieces (each of one or more sides) between Neumann gaps."""
    n = draw(st.integers(2, 8))
    pieces = draw(st.sampled_from(["all", "side", 1, 2, 3]))
    if pieces == "all":
        cuts = [0, 4 * n]
    elif pieces == "side":
        first = draw(st.integers(0, 4 * n - 1))
        cuts = [first, first + 1]
    else:
        size = 2 * pieces
        cuts = sorted(draw(st.lists(
            st.integers(0, 4 * n - 1), min_size=size, max_size=size, unique=True
        )))
    return n, functools.partial(square_boundary_labeler, n, tuple(cuts))


@settings(max_examples=40, deadline=None)
@given(
    partition=square_partitions(),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 2),
    log_nus=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3),
)
def test_viscosity_free_saddle(partition, seed, rounds, log_nus):
    """On any partition of the boundary, on perturbed and randomly bisected
    meshes and at every nu, one system solves its matrix with the one
    factor of Z^T A_1 Z per solve, and building the system factors
    nothing."""
    n, labeler = partition
    mesh = _bisected_mesh(n, labeler, seed, rounds)
    rng = np.random.default_rng(seed)
    splu = sla.splu
    factored = []

    def counting_splu(a, *args, **kwargs):
        factored.append(a.shape)
        return splu(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms.sla, "splu", counting_splu)
        for k, nu in enumerate(10.0 ** np.array(log_nus)):
            system = stokes_system(mesh, nu)
            assert len(factored) == 2 * k
            rhs = rng.standard_normal(saddle_matrix(system).shape[0])
            x, report = system.solve_saddle(rhs)
            assert factored[2 * k:] == stokes_factor_shapes(system)
            ref = splu(saddle_matrix(system)).solve(rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert report.residual_norm <= SOLVE_TOL
            # a second solve of the same system factors again
            again, _ = system.solve_saddle(rhs)
            assert np.array_equal(again, x)
            assert len(factored) == 2 * k + 2
    assert len(factored) == 2 * len(log_nus)


# the boundary labels of TestStokesALSolve::test_hole_matches_saddle_lu
HOLED = [(tg_labeler, DIRICHLET), (all_dirichlet, DIRICHLET), (all_dirichlet, NEUMANN)]


@settings(max_examples=40, deadline=None)
@given(
    shape=st.one_of(square_partitions(), st.sampled_from(HOLED)),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 2),
)
def test_spanning_forest_solve_matches_splu(shape, seed, rounds):
    """On any Dirichlet/Neumann partition of the unit square's boundary,
    and on the holed meshes, each after random bisections, the forest
    reaches every element once through a column of B where only the
    element and its parent have entries, and the solve matches `splu`."""
    rng = np.random.default_rng(seed)
    if isinstance(shape[0], int):
        mesh = _perturbed_mesh(*shape, seed)
    else:
        mesh = holed_square_mesh(*shape)
    for _ in range(rounds):
        marked = np.nonzero(rng.uniform(size=mesh.num_elements) < 0.4)[0]
        mesh, _ = refine_bisection(mesh, marked)
    system = stokes_system(mesh, 10.0 ** rng.uniform(-2.0, 2.0))
    layers, parent, col, b = forms._spanning_forest(mesh, system.free_sides)
    order = np.concatenate(layers)
    assert np.array_equal(np.sort(order), np.arange(mesh.num_elements))
    depth = np.repeat(np.arange(len(layers)), [len(layer) for layer in layers])
    level = np.empty(mesh.num_elements, dtype=np.int64)
    level[order] = depth
    assert np.all(parent[layers[0]] == -1)
    child = parent >= 0
    assert np.all(level[parent[child]] == level[child] - 1)
    assert np.count_nonzero(col < 0) == system.pure_dirichlet
    tree = np.flatnonzero(col >= 0)
    entries = system.b[:, col[tree]].toarray()
    want = np.zeros_like(entries)
    want[tree, np.arange(len(tree))] = b[tree]
    above = parent[tree] >= 0
    want[parent[tree][above], np.arange(len(tree))[above]] = -b[tree][above]
    assert np.allclose(entries, want, rtol=1e-12, atol=0.0)
    rhs = rng.standard_normal(saddle_matrix(system).shape[0])
    x, report = system.solve_saddle(rhs)
    ref = sla.splu(saddle_matrix(system)).solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert report.residual_norm <= SOLVE_TOL


def two_squares_mesh(labeler):
    """The unit square's 2-by-2 grid and a copy shifted by 2 in x."""
    square = structured_square_mesh(2, labeler)
    vertices = np.concatenate([square.vertices, square.vertices + [2.0, 0.0]])
    elements = np.concatenate([square.elements, square.elements + square.num_vertices])
    return build_triangulation(vertices, elements, labeler)


class TestUnreachedElements:
    """No element is left with a silent zero velocity or pressure."""

    def test_two_components_raise(self):
        # on two pure-Dirichlet squares, the root is element 0 and no free
        # side joins the second square to it
        mesh = two_squares_mesh(all_dirichlet)
        with pytest.raises(AssemblyError):
            stokes_system(mesh, 1.0).solve()

    def test_forest_names_the_count(self):
        mesh = two_squares_mesh(all_dirichlet)
        free = np.nonzero(mesh.side_labels != DIRICHLET)[0]
        with pytest.raises(AssemblyError, match="8 of 16 elements are not reached"):
            forms._spanning_forest(mesh, free)


def factored_matrices(monkeypatch):
    """Have forms.spd_factor append a CSC copy of each matrix to the returned list."""
    factored = []
    spd_factor = forms.spd_factor

    def recording(matrix):
        factored.append(matrix.tocsc(copy=True))
        return spd_factor(matrix)

    monkeypatch.setattr(forms, "spd_factor", recording)
    return factored


def twice_refined_solution(name):
    """The discrete solution of a CLI problem on its mesh refined twice."""
    from gapfem.mesh import refine_marked_twice
    from gapfem.problems import discretize_elasticity, discretize_stokes, get_problem

    prob = get_problem(name)
    mesh = prob.mesh_factory()
    for _ in range(2):
        mesh = refine_marked_twice(mesh, range(mesh.num_elements))
    discretize = discretize_stokes if prob.kind == "stokes" else discretize_elasticity
    return discretize(prob, mesh)


@pytest.mark.parametrize("name, index", [
    ("cook", 0), ("cook", 1), ("taylor-green", 0),
], ids=["cook-elasticity", "cook-lifting", "taylor-green-zaz"])
def test_panel_size_keeps_ordering_and_fill(name, index, monkeypatch):
    # SuperLU's panel width pays only on wide supernodes, and relax=1
    # keeps them narrow: panel size 1 leaves the ordering as it is and
    # moves the fill by roundoff-level pivot cancellations at most
    factored = factored_matrices(monkeypatch)
    twice_refined_solution(name)
    matrix = factored[index]
    default = {k: v for k, v in forms.SPD_FACTOR_OPTIONS.items() if k != "panel_size"}
    ours, theirs = forms.spd_factor(matrix), sla.splu(matrix, **default)
    assert np.array_equal(ours.perm_c, theirs.perm_c)
    fill = [lu.L.nnz + lu.U.nnz for lu in (ours, theirs)]
    assert abs(fill[0] - fill[1]) <= 1e-4 * fill[1]


def test_zaz_pattern_independent_of_roundoff(monkeypatch):
    # a symmetric relative 1e-15 perturbation of A_1 moves the values of
    # Z^T A_1 Z, and with them its cancellation residue, but not the
    # pattern that is factored
    factored = factored_matrices(monkeypatch)
    system = twice_refined_solution("taylor-green").system
    rhs = np.random.default_rng(4).standard_normal(len(system.rhs))
    system.solve_saddle(rhs)
    a1 = system.a1.copy()
    rows = np.repeat(np.arange(a1.shape[0]), np.diff(a1.indptr))
    a1.data *= 1.0 + 1e-15 * np.sin(rows * a1.indices + rows + a1.indices)
    assert abs(a1 - a1.T).max() == 0.0
    system.a1 = a1
    system.solve_saddle(rhs)
    first, second = factored[-2:]
    assert not np.array_equal(first.data, second.data)
    assert np.array_equal(first.indptr, second.indptr)
    assert np.array_equal(first.indices, second.indices)


class TestElasticityAssembly:
    def test_zero_data_zero_solution(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        system = assemble_elasticity(
            mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None, None, None,
            dirichlet_datum=zero_datum,
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
        eps = sym(broken_gradient(total))
        energy = norm_p0(mesh, eps)
        assert energy < 1e-8
        g = broken_gradient(total)
        assert np.abs(g + np.swapaxes(g, 1, 2)).max() < 1e-8  # skew only
        # the penalty of a conforming total field against its own datum is a
        # sum of squares of roundoff, never a cancelled difference
        assert 0.0 <= system.s_h_total(total) <= 1e-20

    def test_operator_spd_two_elements(self):
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        mesh = build_triangulation(verts, [(0, 1, 2), (0, 2, 3)], all_dirichlet)
        system = assemble_elasticity(
            mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None, None, None,
            dirichlet_datum=zero_datum,
        )
        dense = system.matrix.toarray()
        assert np.abs(dense - dense.T).max() < 1e-14
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_el_residual(self):
        from gapfem.problems import cook_membrane, discretize_elasticity

        prob = cook_membrane()
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        system = sol.system
        res = system.matrix @ sol.u_h.dofs()[system.vel_index] - system.rhs
        assert np.abs(res).max() < 1e-10

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
            g = broken_gradient(v)
            e = sym(g)
            num = np.sum(mesh.areas * np.einsum("nij,nij->n", mat.apply(g), g))
            den = np.sum(
                mesh.areas * np.einsum("nij,nij->n", mat.apply(e), e)
            ) + np.einsum("ni,ni->", vals, jumps @ vals)
            worst = max(worst, num / den)
        print(f"empirical discrete Korn constant: {worst:.3f}")
        assert np.isfinite(worst) and worst > 0

    def test_jump_form_linear_in_mu(self):
        mesh = structured_square_mesh(3, tg_labeler)
        s1 = jump_penalty_matrix(mesh, stabilization_weights(mesh, 1.0))
        s2 = jump_penalty_matrix(mesh, stabilization_weights(mesh, 2.0))
        assert abs(s2 - 2.0 * s1).max() < 1e-12

    def test_jump_form_freed_with_its_system(self):
        # the system holds the jump form, not the mesh: with the cyclic
        # collector off, dropping the solution and its system frees the
        # form while the mesh lives on
        import gc
        import weakref

        from gapfem.problems import discretize_elasticity

        prob = cook_membrane(nx=3, ny=5)
        mesh = prob.mesh_factory()
        gc.disable()
        try:
            sol = discretize_elasticity(prob, mesh)
            jump = weakref.ref(sol.system.jump)
            del sol
            assert jump() is None
        finally:
            gc.enable()


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
        system = assemble_elasticity(
            mesh, ElasticityTensor(1.0, 5.0), zero_lift(mesh), None, None, None,
            dirichlet_datum=zero_datum,
        )
        r = solve_lifting(system, u_total)
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
        res = full @ rvec - sol.system.jump @ uvec
        free = np.nonzero(mesh.side_labels != DIRICHLET)[0]
        ns = mesh.num_sides
        assert np.abs(np.concatenate([res[free], res[free + ns]])).max() < 1e-10

    def test_linearity(self):
        from gapfem.problems import cook_membrane, discretize_elasticity

        prob = cook_membrane(nx=3, ny=5)
        mesh = prob.mesh_factory()
        sol = discretize_elasticity(prob, mesh)
        utot = sol.u_h + sol.u_hat
        # Cook's datum is zero, so its datum load is too
        r1 = solve_lifting(sol.system, utot)
        r2 = solve_lifting(sol.system, 2.5 * utot)
        assert np.abs(r2.values - 2.5 * r1.values).max() < 1e-10


# -- loop oracles: the element-by-element assemblies that the products of
# the broken-gradient and side-jump operators replace ----------------------


def oracle_stiffness(mesh):
    """Scalar CR stiffness from local 3x3 blocks, assembled as COO."""
    dtheta = cr_basis_gradients(mesh)
    local = np.einsum("n,nid,njd->nij", mesh.areas, dtheta, dtheta)
    es = mesh.element_sides
    rows = np.repeat(es, 3, axis=1).ravel()
    cols = np.tile(es, (1, 3)).ravel()
    ns = mesh.num_sides
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(ns, ns)).tocsr()


def oracle_divergence(mesh):
    """Element-wise divergence of CR vector DOFs: (ne, 2 ns)."""
    dtheta = cr_basis_gradients(mesh)
    es = mesh.element_sides
    ne, ns = mesh.num_elements, mesh.num_sides
    rows = np.repeat(np.arange(ne), 3)
    return sparse.coo_matrix(
        (
            np.concatenate([dtheta[:, :, 0].ravel(), dtheta[:, :, 1].ravel()]),
            (np.concatenate([rows, rows]), np.concatenate([es.ravel(), es.ravel() + ns])),
        ),
        shape=(ne, 2 * ns),
    ).tocsr()


def oracle_p0_load(mesh, fv):
    """(f_h, Pi_h v) for element values fv (ne, 2): |T| f_T / 3 on each side of T."""
    ns = mesh.num_sides
    out = np.zeros(2 * ns)
    for comp in range(2):
        for j in range(3):
            sides = mesh.element_sides[:, j] + comp * ns
            np.add.at(out, sides, mesh.areas * fv[:, comp] / 3.0)
    return out


def tg_lift(mesh):
    """The Taylor-Green velocity's CR interpolant from its stream function,
    a discretely divergence-free lift that is nonzero on every side."""
    prob = taylor_green_stokes()
    return cr_interpolate(prob.u, mesh, stream=prob.lift_stream)


def oracle_elasticity(mesh, mu, lam):
    """(C eps_h u, eps_h v) from local 6x6 blocks, assembled as COO."""
    d = cr_basis_gradients(mesh)
    es = mesh.element_sides
    ne, ns = mesh.num_elements, mesh.num_sides
    local = np.zeros((ne, 2, 3, 2, 3))
    rows = np.empty((ne, 2, 3, 2, 3), dtype=np.int64)
    cols = np.empty_like(rows)
    for i in range(2):
        for j in range(2):
            term = 0.5 * np.einsum("nad,nbd->nab", d, d) * (i == j)
            term = term + 0.5 * np.einsum("na,nb->nab", d[:, :, j], d[:, :, i])
            div_term = np.einsum("na,nb->nab", d[:, :, i], d[:, :, j])
            local[:, i, :, j, :] = ((2.0 * mu) * term + lam * div_term) * mesh.areas[
                :, None, None
            ]
            rows[:, i, :, j, :] = (es + i * ns)[:, :, None]
            cols[:, i, :, j, :] = (es + j * ns)[:, None, :]
    return sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(2 * ns, 2 * ns)
    ).tocsr()


def oracle_traces(mesh, sides, slot):
    """Endpoint trace coefficients of the CR basis of one adjacent element.

    Returns (dofs (m, 3), coef (m, 2, 3)): the trace at endpoint k of
    sides[m] from the element in `slot` is sum_j coef[m, k, j] v[dofs[m, j]].
    """
    elems = mesh.side_elements[sides, slot]
    loc = mesh.side_local[sides, slot]
    lv0, lv1 = (loc, (loc + 1) % 3) if slot == 0 else ((loc + 1) % 3, loc)
    j = np.arange(3)
    coef0 = 1.0 - 2.0 * (j[None, :] == ((lv0 + 1) % 3)[:, None])
    coef1 = 1.0 - 2.0 * (j[None, :] == ((lv1 + 1) % 3)[:, None])
    return mesh.element_sides[elems], np.stack([coef0, coef1], axis=1)


def oracle_jump_eval(v, sides):
    m = v.mesh
    dofs, coef = oracle_traces(m, sides, 0)
    jump = np.einsum("mkj,mji->mki", coef, v.values[dofs])
    inner = m.side_elements[sides, 1] >= 0
    dofs, coef = oracle_traces(m, sides[inner], 1)
    jump[inner] -= np.einsum("mkj,mji->mki", coef, v.values[dofs])
    return jump


def oracle_jump_penalty(mesh, weight_per_side):
    """Jump form from local blocks on interior and boundary sides."""
    w_eff = weight_per_side * mesh.geometry()["side_length"]
    mass = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    rows, cols, vals = [], [], []
    for interior in (True, False):
        sel = np.nonzero(((mesh.side_elements[:, 1] >= 0) == interior) & (w_eff != 0))[0]
        dofs, coef = oracle_traces(mesh, sel, 0)
        if interior:
            d1, c1 = oracle_traces(mesh, sel, 1)
            dofs = np.concatenate([dofs, d1], axis=1)
            coef = np.concatenate([coef, -c1], axis=2)
        nd = dofs.shape[1]
        vals.append(np.einsum("m,mki,kl,mlj->mij", w_eff[sel], coef, mass, coef).ravel())
        rows.append(np.repeat(dofs, nd, axis=1).ravel())
        cols.append(np.tile(dofs, (1, nd)).ravel())
    ns = mesh.num_sides
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ns, ns),
    ).tocsr()


def oracle_datum_load(mesh, mu, datum, npoints=8):
    """sum_{S Dirichlet} (2 mu / h_S) int_S datum . theta from basis traces."""
    ns = mesh.num_sides
    out = np.zeros(2 * ns)
    sel = mesh.sides_with_label(DIRICHLET)
    t, w = segment_rule(npoints)
    gvals = np.asarray(datum(side_points(mesh, t, sides=sel)))
    dofs, coef = oracle_traces(mesh, sel, 0)
    basis = coef[:, 0, None, :] * (1 - t)[None, :, None] + coef[:, 1, None, :] * t[
        None, :, None
    ]
    vals = 2.0 * mu * np.einsum("q,mqi,mqj->mji", w, gvals, basis)
    for comp in range(2):
        np.add.at(out, dofs.ravel() + comp * ns, vals[:, :, comp].ravel())
    return out


def oracle_stabilization_energy(mesh, mu, u_total, datum, npoints=8):
    """s_h by side label: interior sides by the exact endpoint mass, Dirichlet
    sides by Gauss quadrature of |u - datum|^2."""
    mass = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    total = 0.0
    t, w = segment_rule(npoints)
    for label in (INTERIOR, DIRICHLET):
        sel = mesh.sides_with_label(label)
        if len(sel) == 0:
            continue
        jump_end = oracle_jump_eval(u_total, sel)  # (m, 2, 2) endpoint values
        if label == INTERIOR:
            total += np.sum(
                (2.0 * mu) * np.einsum("mki,kl,mli->m", jump_end, mass, jump_end)
            )
        else:
            tq = jump_end[:, 0, :][:, None] * (1 - t)[None, :, None] + jump_end[
                :, 1, :
            ][:, None] * t[None, :, None]  # (m, q, 2)
            tq = tq - np.asarray(datum(side_points(mesh, t, sides=sel)))
            total += np.sum((2.0 * mu) * np.einsum("q,mqi,mqi->", w, tq, tq))
    return float(total)


def assert_close(new, old, rtol=1e-13):
    """Entrywise agreement relative to the largest entry of the oracle."""
    diff = new - old
    diff = abs(diff).max() if sparse.issparse(diff) else np.abs(diff).max()
    scale = abs(old).max() if sparse.issparse(old) else np.abs(old).max()
    assert diff <= rtol * scale


ORACLE_MESHES = {
    "lshape": lambda: lshape_mesh(4),
    "cook": cook_mesh,
    "perturbed": lambda: _perturbed_mesh(6, tg_labeler, 17),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
class TestAssemblyOracle:
    """Every form equals its former element-by-element assembly."""

    def test_stokes_blocks(self, name):
        mesh = ORACLE_MESHES[name]()
        k = oracle_stiffness(mesh)
        assert_close(cr_stiffness(mesh), k)
        nu, lift = 0.7, tg_lift(mesh)
        fv = np.random.default_rng(5).standard_normal((mesh.num_elements, 2))
        system = assemble_stokes(mesh, nu, lift, fv, None, None)
        a1 = sparse.block_diag([k, k]).tocsr()
        b = sparse.diags(mesh.areas) @ -oracle_divergence(mesh)
        free = system.vel_index
        assert_close(system.a1, a1[free][:, free])
        assert_close(system.b, b[:, free])
        # the Dirichlet columns of a1 and b enter rhs through the lift
        rhs_v = (oracle_p0_load(mesh, fv) - nu * (a1 @ lift.dofs()))[free]
        gauge = np.zeros(int(system.pure_dirichlet))
        assert_close(system.rhs, np.concatenate([rhs_v, -(b @ lift.dofs()), gauge]))

    def test_jump_penalty(self, name):
        mesh = ORACLE_MESHES[name]()
        weights = stabilization_weights(mesh, 1.5)
        assert_close(jump_penalty_matrix(mesh, weights), oracle_jump_penalty(mesh, weights))
        # sides of weight zero on every mesh, interior ones included
        weights = np.random.default_rng(4).uniform(size=mesh.num_sides)
        weights[::3] = 0.0
        assert_close(jump_penalty_matrix(mesh, weights), oracle_jump_penalty(mesh, weights))

    def test_elasticity(self, name):
        mesh = ORACLE_MESHES[name]()
        mat = ElasticityTensor(0.7, 5.0)
        rot = lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] ** 2], axis=-1)
        lift = tg_lift(mesh)
        system = assemble_elasticity(
            mesh, mat, lift, None, None, None, dirichlet_datum=rot
        )
        jumps = oracle_jump_penalty(mesh, stabilization_weights(mesh, mat.mu))
        want = oracle_elasticity(mesh, mat.mu, mat.lam) + sparse.block_diag([jumps, jumps])
        free = system.vel_index
        assert_close(system.matrix, want.tocsr()[free][:, free])
        assert abs(system.matrix - system.matrix.T).max() == 0.0
        datum_load = oracle_datum_load(mesh, mat.mu, rot)
        assert_close(dirichlet_penalty_load(mesh, mat.mu, system.datum_values), datum_load)
        # the Dirichlet columns enter rhs through the lift
        assert_close(system.rhs, (datum_load - want @ lift.dofs())[free])

    def test_stabilization_energy(self, name):
        """s_h as one residual pass equals the label loop, against the datum
        at the system's solution and against zero at a random field."""
        mesh = ORACLE_MESHES[name]()
        mat = ElasticityTensor(0.7, 5.0)
        rot = lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] ** 2], axis=-1)
        system = assemble_elasticity(
            mesh, mat, zero_lift(mesh), None, None, None, dirichlet_datum=rot
        )
        u, _ = system.solve()
        want = oracle_stabilization_energy(mesh, mat.mu, u, rot)
        assert 0.0 < want
        assert abs(system.s_h_total(u) - want) <= 1e-13 * want
        v = CRField(mesh, np.random.default_rng(2).standard_normal((mesh.num_sides, 2)))
        want = oracle_stabilization_energy(mesh, mat.mu, v, zero_datum)
        zeros = np.zeros_like(system.datum_values)
        got = forms.stabilization_energy(mesh, mat.mu, v, zeros)
        assert abs(got - want) <= 1e-13 * want


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    labeler=st.sampled_from([all_dirichlet, tg_labeler]),
    seed=st.integers(0, 2**32 - 1),
)
def test_operators_match_field_evaluation(n, labeler, seed):
    """G v is the broken gradient and J v the oracle's jumps of a random CR field."""
    mesh = _perturbed_mesh(n, labeler, seed)
    v = CRField(mesh, np.random.default_rng(seed).standard_normal((mesh.num_sides, 2)))
    grads = (cr_gradient_operator(mesh) @ v.dofs()).reshape(-1, 2, 2)
    assert_close(grads, broken_gradient(v))
    jumps = (cr_jump_operator(mesh) @ v.values).reshape(-1, 2, 2)
    assert_close(jumps, oracle_jump_eval(v, np.arange(mesh.num_sides)))


def local_elasticity_matrix(mat):
    """The 4 x 4 matrix of g -> C sym(g) on flattened gradients (g00, g01,
    g10, g11), column k being its value at the k-th unit gradient."""
    units = np.eye(4).reshape(4, 2, 2)
    return mat.apply(0.5 * (units + units.transpose(0, 2, 1))).reshape(4, 4).T


@pytest.mark.parametrize(
    "mu, lam", [(1.0, 5.0), tuple(np.random.default_rng(9).uniform(0.1, 10.0, 2))]
)
def test_strain_half_squares_to_c(mu, lam):
    """H^T H = C, to the rounding of the square roots in H."""
    c = local_elasticity_matrix(ElasticityTensor(mu, lam))
    h = forms._strain_half(mu, lam)
    assert h.shape == (3, 4)
    assert np.abs(h.T @ h - c).max() <= 4 * np.finfo(float).eps * np.abs(c).max()


@pytest.mark.parametrize("name", ["cook", "lshape"])
def test_gram_forms_exactly_symmetric(name):
    """Every b^T b form is exactly symmetric and equals op^T W op."""
    mesh = ORACLE_MESHES[name]()
    mat = ElasticityTensor(1.0, 5.0)
    grad = forms._gradient_operator(mesh, 1)
    k = cr_stiffness(mesh)
    want_k = grad.T @ sparse.diags(np.repeat(mesh.areas, 2)) @ grad
    weights = stabilization_weights(mesh, mat.mu)
    jumps = jump_penalty_matrix(mesh, weights)
    w = sparse.kron(
        sparse.diags(weights * mesh.geometry()["side_length"]), forms._ENDPOINT_MASS
    )
    want_jumps = cr_jump_operator(mesh).T @ w @ cr_jump_operator(mesh)
    system = assemble_elasticity(
        mesh, mat, zero_lift(mesh), None, None, None, dirichlet_datum=zero_datum
    )
    g = cr_gradient_operator(mesh)
    c = sparse.kron(sparse.diags(mesh.areas), local_elasticity_matrix(mat))
    want_a = g.T @ c @ g + sparse.block_diag([want_jumps, want_jumps])
    free = system.vel_index
    for form, want in [
        (k, want_k),
        (jumps, want_jumps),
        (system.matrix, want_a.tocsr()[free][:, free]),
    ]:
        assert abs(form - form.T).max() == 0.0
        assert_close(form, want, rtol=1e-14)


# -- generic-constructor oracles: the assembly as products of sparse.kron,
# sparse.block_diag and sparse.diags, which forms.py builds from index arrays
# to the bit ---------------------------------------------------------------------


def kron_half(scale, local_half):
    """diag(scale) (x) local_half by scipy's kron, as CSR."""
    return sparse.kron(sparse.diags(scale), local_half, format="csr")


def generic_gram(half, op):
    b = half @ op
    return b.T.tocsr() @ b


def generic_stiffness(mesh):
    half = sparse.diags(np.sqrt(np.repeat(mesh.areas, 2)))
    return generic_gram(half, forms._gradient_operator(mesh, 1))


def generic_jump_penalty(mesh, weight_per_side):
    w = weight_per_side * mesh.geometry()["side_length"]
    return generic_gram(kron_half(np.sqrt(w), forms._ENDPOINT_HALF), cr_jump_operator(mesh))


def generic_divergence(mesh):
    """div_h as the trace rows of G, (ne, 2 ns) CSR, as StokesSystem forms it,
    with each row's columns sorted."""
    grad = cr_gradient_operator(mesh)
    div = grad[0::4] + grad[3::4]
    div.sort_indices()
    return div


def generic_stokes(system):
    """(a1, b, rhs) of a Stokes system from block_diag and a diags product."""
    mesh, free, uhat = system.mesh, system.vel_index, system.u_hat.dofs()
    k = generic_stiffness(mesh)
    a1_full = sparse.block_diag([k, k], format="csr")
    b_full = sparse.diags(-mesh.areas) @ generic_divergence(mesh)
    rhs_v = (system.load_vector - system.nu * (a1_full @ uhat))[free]
    gauge = np.zeros(int(system.pure_dirichlet))
    rhs = np.concatenate([rhs_v, -(b_full @ uhat), gauge])
    return a1_full[free][:, free], b_full[:, free], rhs


def generic_elasticity(system):
    """(matrix, rhs, jump) of an elasticity system from kron and block_diag."""
    mesh, mat, free = system.mesh, system.material, system.vel_index
    half = kron_half(np.sqrt(mesh.areas), forms._strain_half(mat.mu, mat.lam))
    jump = sparse.block_diag(
        [generic_jump_penalty(mesh, stabilization_weights(mesh, mat.mu))] * 2, format="csr"
    )
    a_full = generic_gram(half, cr_gradient_operator(mesh)) + jump
    rhs = system.load_vector - a_full @ system.u_hat.dofs() + system.datum_load
    return a_full[free][:, free].tocsc(), rhs[free], jump


def generic_lifting(system, jump, u_total):
    """The lifting's matrix, its (n, 2) right-hand side and its solution's
    values (ns, 2)."""
    mesh, free = system.mesh, system.free_sides
    k_free = generic_stiffness(mesh)[free][:, free]
    rhs = (jump @ u_total.dofs() - system.datum_load).reshape(2, -1).T[free]
    x, _ = solve_sparse(k_free, rhs)
    return k_free, rhs, forms._free_field(mesh, free, x.T.ravel()).values


def assert_same_bits(got, want):
    """Two CSR/CSC matrices hold the same entries in the same order, or two
    arrays the same values, to the bit."""
    if sparse.issparse(want):
        assert (got.format, got.shape) == (want.format, want.shape)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        got, want = got.data, want.data
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


DIRECT_MESHES = {
    "structured-dirichlet": lambda: structured_square_mesh(4, all_dirichlet),
    "perturbed-mixed": lambda: _perturbed_mesh(5, tg_labeler, 11),
    "bisected-mixed": lambda: _bisected_mesh(3, tg_labeler, 5, 2),
    "bisected-dirichlet": lambda: _bisected_mesh(3, all_dirichlet, 6, 2),
    "neumann-hole": lambda: holed_square_mesh(all_dirichlet, NEUMANN),
}


@pytest.mark.parametrize("name", sorted(DIRECT_MESHES))
class TestDirectBuilds:
    """The block halves, block pairs and scaled rows that forms.py builds
    from index arrays equal scipy's generic constructors to the bit."""

    def test_block_halves(self, name):
        mesh = DIRECT_MESHES[name]()
        root, eye = np.sqrt(mesh.areas), np.eye(2)
        half = forms._block_half(root, eye)
        assert_same_bits(half, kron_half(root, eye))
        assert_same_bits(half, sparse.diags(np.sqrt(np.repeat(mesh.areas, 2))).tocsr())
        strain = forms._strain_half(0.7, 5.0)
        assert_same_bits(forms._block_half(root, strain), kron_half(root, strain))
        assert_same_bits(cr_stiffness(mesh), generic_stiffness(mesh))
        # zero weights: none, on the Neumann sides, on every third side
        random = np.random.default_rng(4).uniform(size=mesh.num_sides)
        random[::3] = 0.0
        for w in (stabilization_weights(mesh, 1.5), random):
            scale = np.sqrt(w * mesh.geometry()["side_length"])
            assert_same_bits(forms._block_half(scale, forms._ENDPOINT_HALF),
                             kron_half(scale, forms._ENDPOINT_HALF))
            assert_same_bits(jump_penalty_matrix(mesh, w), generic_jump_penalty(mesh, w))

    def test_block_pairs(self, name):
        mesh = DIRECT_MESHES[name]()
        blocks = [cr_stiffness(mesh), jump_penalty_matrix(mesh, stabilization_weights(mesh, 1.5))]
        # the Gram forms come unsorted, and block_diag sorts
        assert not blocks[0].has_sorted_indices
        for block in blocks:
            want = sparse.block_diag([block, block], format="csr")
            assert_same_bits(forms._block_pair(block), want)

    def test_scaled_rows(self, name):
        mesh = DIRECT_MESHES[name]()
        grad = cr_gradient_operator(mesh)
        for div in (grad[0::4] + grad[3::4], generic_divergence(mesh)):
            want = sparse.diags(-mesh.areas) @ div
            assert_same_bits(forms._scaled_rows(-mesh.areas, div), want)


def _assembled(problem, mesh, assemble, *args, **kwargs):
    """A problem's system on a mesh, from its lift and projected data."""
    from gapfem.problems import interpolate_lift, project_data

    f_h, big_f_h, g_h, _ = project_data(problem, mesh)
    return assemble(mesh, *args, interpolate_lift(problem, mesh), f_h, big_f_h, g_h, **kwargs)


SYSTEM_STOKES = {
    "tg-traction": lambda: (taylor_green_stokes(n=6), None),
    "tg-tensor": lambda: (taylor_green_stokes(n=6, load="tensor"), None),
    "tg-bisected": lambda: (taylor_green_stokes(), _bisected_mesh(4, tg_labeler, 2, 2)),
    "lshape": lambda: (lshape_stokes(), None),
}


@pytest.mark.parametrize("name", sorted(SYSTEM_STOKES))
def test_stokes_system_matches_generic_assembly(name):
    """a1, b, rhs and the solve_saddle solution equal those of the
    block_diag and diags assembly to the bit, on problems with a nonzero
    lift, so that the row order of a1 and b shows in rhs."""
    problem, mesh = SYSTEM_STOKES[name]()
    mesh = mesh or problem.mesh_factory()
    system = _assembled(problem, mesh, assemble_stokes, problem.nu)
    assert np.abs(system.u_hat.values).max() > 0.0
    a1, b, rhs = generic_stokes(system)
    assert_same_bits(system.a1, a1)
    assert_same_bits(system.b, b)
    assert_same_bits(system.rhs, rhs)
    oracle = copy.copy(system)
    oracle.a1, oracle.b = a1, b
    want, _ = oracle.solve_saddle(rhs)
    assert_same_bits(system.solve_saddle(system.rhs)[0], want)


@pytest.mark.parametrize("name", sorted(SYSTEM_STOKES))
def test_stokes_b_follows_sorted_divergence(name):
    """B = diags(-|T|) @ div_h, on a div_h that never went through abs
    (scipy's abs sorts its operand's indices in place): the trace rows of G
    come with unsorted columns, so the system's explicit sort, not the side
    effect of its lift check, sets B's entry order and the summation order
    of -(b_full @ u_hat) in rhs."""
    problem, mesh = SYSTEM_STOKES[name]()
    mesh = mesh or problem.mesh_factory()
    system = _assembled(problem, mesh, assemble_stokes, problem.nu)
    grad = cr_gradient_operator(mesh)
    div = grad[0::4] + grad[3::4]
    assert not div.has_sorted_indices
    raw = sparse.diags(-mesh.areas) @ div
    div.sort_indices()
    b_full = sparse.diags(-mesh.areas) @ div
    assert not np.array_equal(raw.indices, b_full.indices)
    assert_same_bits(system.b, b_full[:, system.vel_index])
    nv, ne = len(system.vel_index), mesh.num_elements
    assert_same_bits(system.rhs[nv: nv + ne], -(b_full @ system.u_hat.dofs()))


SYSTEM_ELASTICITY = {
    "smooth": lambda: (manufactured_elasticity("smooth"), None),
    "smooth-bisected": lambda: (
        manufactured_elasticity("smooth"), _bisected_mesh(4, all_dirichlet, 8, 2)
    ),
    "cook": lambda: (cook_membrane(nx=3, ny=5), None),
}


@pytest.mark.parametrize("name", sorted(SYSTEM_ELASTICITY))
def test_elasticity_system_matches_generic_assembly(name, monkeypatch):
    """matrix, rhs, jump and the lifting's matrix, right-hand side and
    solution equal those of the kron and block_diag assembly to the bit."""
    problem, mesh = SYSTEM_ELASTICITY[name]()
    mesh = mesh or problem.mesh_factory()
    system = _assembled(problem, mesh, assemble_elasticity, problem.material,
                        dirichlet_datum=problem.u)
    matrix, rhs, jump = generic_elasticity(system)
    assert_same_bits(system.matrix, matrix)
    assert_same_bits(system.rhs, rhs)
    assert_same_bits(system.jump, jump)
    u_h, _ = system.solve()
    u_total = u_h + system.u_hat
    solved = []
    monkeypatch.setattr(
        forms, "solve_sparse", lambda *args: solved.append(args) or solve_sparse(*args)
    )
    r_h = solve_lifting(system, u_total)
    want = generic_lifting(system, jump, u_total)
    assert len(solved) == 1
    for got, expected in zip([*solved[0], r_h.values], want):
        assert_same_bits(got, expected)
