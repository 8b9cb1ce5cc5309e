import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapfem import mesh as gapfem_mesh
from gapfem.adaptive import AdaptiveConfig, run_adaptive
from gapfem import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    MeshError,
    build_triangulation,
    refine_bisection,
    structured_square_mesh,
)
from gapfem.mesh import Triangulation, refine_marked_twice
from gapfem.problems import (cook_membrane, cook_mesh, get_problem, interpolate_lift,
                             lshape_mesh, lshape_stokes, project_data, side_tractions,
                             taylor_green_stokes)
from gapfem.quadrature import VOLUME_DEGREE, physical_points, rule_values


def all_dirichlet(mid):
    return DIRICHLET


def tg_labeler(mid):
    return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN


# two counterclockwise elements of the unit square that share side (0, 1)
# in the same direction, so they overlap
OVERLAP_VERTICES = [(0, 0), (1, 0), (0, 1), (1, 1)]
OVERLAP_ELEMENTS = [(0, 1, 2), (0, 1, 3)]


def two_triangle_square():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    elems = [(0, 1, 2), (0, 2, 3)]
    return build_triangulation(verts, elems, all_dirichlet)


def boundary_label_rows(mesh):
    """The mesh's boundary sides as explicit (vertex pair, label) rows."""
    boundary = np.flatnonzero(mesh.side_labels != INTERIOR)
    return mesh.side_vertices[boundary].tolist(), mesh.side_labels[boundary].tolist()


def assert_conforming(mesh):
    interior = mesh.side_labels == INTERIOR
    assert np.all((mesh.side_elements[:, 1] >= 0) == interior)
    # each element's sides point back at it
    for t in range(mesh.num_elements):
        for s in mesh.element_sides[t]:
            assert t in mesh.side_elements[s]


class TestBuild:
    def test_two_triangle_square(self):
        mesh = two_triangle_square()
        assert mesh.num_sides == 5
        assert len(mesh.sides_with_label(INTERIOR)) == 1
        assert mesh.total_area == pytest.approx(1.0, rel=1e-14)

    def test_structured_counts_euler(self):
        mesh = structured_square_mesh(10, tg_labeler)
        assert mesh.num_elements == 200
        assert mesh.num_sides == 320
        assert mesh.num_vertices == 121
        # Euler: V - S + E = 1 for a simply connected planar triangulation
        assert mesh.num_vertices - mesh.num_sides + mesh.num_elements == 1
        assert len(mesh.sides_with_label(DIRICHLET)) == 20
        assert len(mesh.sides_with_label(NEUMANN)) == 20

    def test_structured_n1_n2(self):
        assert structured_square_mesh(1, all_dirichlet).num_elements == 2
        m2 = structured_square_mesh(2, all_dirichlet)
        assert m2.num_elements == 8
        assert m2.num_sides == 16

    def test_duplicate_vertex_rejected(self):
        verts = [(0, 0), (1, 0), (1, 1)]
        with pytest.raises(MeshError, match="degenerate"):
            build_triangulation(verts, [(0, 1, 1)], all_dirichlet)

    def test_unlabeled_boundary_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(MeshError, match="unlabeled"):
            build_triangulation(verts, [(0, 1, 2)], ([(0, 1)], [DIRICHLET]))

    def test_nonconforming_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1.0)]
        elems = [(0, 1, 2), (1, 3, 2), (0, 1, 4), (1, 0, 3)]
        with pytest.raises(MeshError):
            build_triangulation(verts, elems, all_dirichlet)

    def test_orientation_fixed(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        mesh = build_triangulation(verts, [(0, 2, 1)], all_dirichlet)
        assert mesh.areas[0] > 0

    def test_zero_subdivision_rejected(self):
        with pytest.raises(MeshError):
            structured_square_mesh(0, all_dirichlet)

    def test_dirichlet_required(self):
        verts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(MeshError, match="Dirichlet"):
            build_triangulation(verts, [(0, 1, 2)], lambda mid: NEUMANN)

    def test_overlapping_elements_rejected(self):
        # both elements traverse side (0, 1) forwards: together they count
        # area 1 but cover only 0.75 of the square
        with pytest.raises(MeshError, match=r"elements overlap on side \(0, 1\)"):
            Triangulation(OVERLAP_VERTICES, OVERLAP_ELEMENTS, [0, 0], all_dirichlet)

    def test_unused_vertex_rejected(self):
        mesh = structured_square_mesh(4, tg_labeler)
        verts = np.vstack([mesh.vertices, [(0.5, 2.0)]])
        with pytest.raises(MeshError, match="vertex 25 belongs to no element"):
            Triangulation(verts, mesh.elements, mesh.refinement_edge, tg_labeler)

    @pytest.mark.parametrize("build", ["build_triangulation", "Triangulation"])
    @pytest.mark.parametrize("elements, match", [
        pytest.param(elements, match, id=case) for case, elements, match in [
            ("index-out-of-range", [[0, 1, 3]], r"element vertex index out of range"),
            ("negative-index", [[0, 1, -1]], r"element vertex index out of range"),
            ("non-integral-index", [[0, 1, 2.5]], r"indices must be integers"),
            ("nan-index", [[0, 1, np.nan]], r"indices must be integers"),
            ("two-columns", [[0, 1]], r"elements must be an \(ne, 3\) array"),
        ]
    ])
    def test_malformed_arrays_rejected(self, build, elements, match):
        """Both entry points check the element array before reading vertices
        through it: a wrong shape, an index out of range or one that is not
        an integer raises MeshError, never an IndexError or a truncation."""
        verts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(MeshError, match=match):
            if build == "build_triangulation":
                build_triangulation(verts, elements, all_dirichlet)
            else:
                Triangulation(verts, elements, [0], all_dirichlet)

    @pytest.mark.parametrize("vertices, match", [
        pytest.param([(0, 0), (1, 0), (0, np.inf)], r"vertex coordinates must be finite",
                     id="infinite-vertex"),
        pytest.param([(0, 0, 0), (1, 0, 0), (0, 1, 0)], r"vertices must be an \(nv, 2\) array",
                     id="three-coordinates"),
    ])
    def test_malformed_vertices_rejected(self, vertices, match):
        with pytest.raises(MeshError, match=match):
            build_triangulation(vertices, [(0, 1, 2)], all_dirichlet)

    def test_integral_float_indices_accepted(self):
        mesh = build_triangulation([(0, 0), (1, 0), (0, 1)], [[0.0, 1.0, 2.0]], all_dirichlet)
        assert mesh.elements.dtype == np.int64
        assert mesh.elements.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("case, match", [
        pytest.param(case, match, id=case) for case, match in [
            ("truncated-labels", r"unlabeled boundary side"),
            ("unknown-label", r"invalid label 7 for side"),
            ("refinement-edge-7", r"refinement_edge must hold one local edge"),
            ("interior-side-label", r"label row \(\d+, \d+\) names no boundary side"),
            ("non-edge-label", r"label row \(0, 15\) names no boundary side"),
            ("repeated-side-label", r"side \(\d+, \d+\) is labelled more than once"),
        ]
    ])
    def test_malformed_label_arrays_rejected(self, case, match):
        """A mesh description with a missing, unknown or repeated boundary
        label, a label on a side that is not a boundary side, or a
        refinement edge out of range raises MeshError."""
        mesh = structured_square_mesh(3, tg_labeler)
        pairs, labels = boundary_label_rows(mesh)
        refinement_edge = mesh.refinement_edge.copy()
        interior = mesh.side_vertices[np.argmax(mesh.side_labels == INTERIOR)].tolist()
        if case == "truncated-labels":
            pairs, labels = pairs[:-2], labels[:-2]
        elif case == "unknown-label":
            labels[-1] = 7
        elif case == "refinement-edge-7":
            refinement_edge[0] = 7
        else:
            extra = {"interior-side-label": interior, "non-edge-label": [0, 15],
                     "repeated-side-label": pairs[-1][::-1]}[case]
            pairs, labels = pairs + [extra], labels + [DIRICHLET]
        with pytest.raises(MeshError, match=match):
            Triangulation(mesh.vertices, mesh.elements, refinement_edge, (pairs, labels))


class TestGeometry:
    def test_reference_triangle(self):
        mesh = build_triangulation(
            [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], all_dirichlet
        )
        geo = mesh.geometry()
        assert mesh.areas[0] == pytest.approx(0.5)
        assert geo["centroids"][0] == pytest.approx([1 / 3, 1 / 3])
        assert geo["h_t"][0] == pytest.approx(np.sqrt(2.0))

    def test_translation_invariance(self):
        mesh = build_triangulation(
            [(5, -3), (6, -3), (5, -2)], [(0, 1, 2)], all_dirichlet
        )
        assert mesh.areas[0] == pytest.approx(0.5)
        assert mesh.geometry()["h_t"][0] == pytest.approx(np.sqrt(2.0))

    def test_structured_cell_area(self):
        mesh = structured_square_mesh(10, tg_labeler)
        assert np.allclose(mesh.areas, 1.0 / 200.0)

    def test_side_geometry(self):
        mesh = two_triangle_square()
        geo = mesh.geometry()
        for s in range(mesh.num_sides):
            v1, v2 = mesh.vertices[mesh.side_vertices[s]]
            assert geo["side_length"][s] == pytest.approx(np.linalg.norm(v2 - v1))
            assert np.linalg.norm(geo["side_normal"][s]) == pytest.approx(1.0)
            assert geo["side_midpoint"][s] == pytest.approx(0.5 * (v1 + v2))

    def test_boundary_normals_outward(self):
        mesh = two_triangle_square()
        center = np.array([0.5, 0.5])
        geo = mesh.geometry()
        for s in mesh.sides_with_label(DIRICHLET):
            normal, midpoint = geo["side_normal"][s], geo["side_midpoint"][s]
            assert np.dot(normal, midpoint - center) > 0

    def test_interior_normal_is_outward_for_lower_element(self):
        mesh = structured_square_mesh(3, all_dirichlet)
        geo = mesh.geometry()
        for s in mesh.sides_with_label(INTERIOR):
            e1 = mesh.side_elements[s, 0]
            centroid = geo["centroids"][e1]
            mid = geo["side_midpoint"][s]
            assert np.dot(geo["side_normal"][s], mid - centroid) > 0
            assert mesh.side_elements[s, 0] < mesh.side_elements[s, 1]


class TestRefine:
    def test_empty_marked_returns_same_mesh(self):
        mesh = two_triangle_square()
        out, pmap = refine_bisection(mesh, [])
        assert out is mesh
        assert pmap == {}

    def test_mark_both_compatible_diagonals(self):
        mesh = two_triangle_square()
        out, pmap = refine_bisection(mesh, [0, 1])
        assert out.num_elements == 4
        assert_conforming(out)
        assert sorted(c for v in pmap.values() for c in v) == list(range(4))

    def test_mark_one_closure(self):
        mesh = structured_square_mesh(2, all_dirichlet)
        out, _ = refine_bisection(mesh, [0])
        assert_conforming(out)
        assert out.num_elements > mesh.num_elements

    def test_area_preserved(self):
        mesh = structured_square_mesh(3, tg_labeler)
        rng = np.random.default_rng(3)
        for _ in range(5):
            marked = rng.choice(mesh.num_elements, size=4, replace=False)
            mesh, _ = refine_bisection(mesh, marked)
            assert_conforming(mesh)
            assert mesh.total_area == pytest.approx(1.0, rel=1e-12)

    def test_boundary_labels_inherited(self):
        mesh = structured_square_mesh(2, tg_labeler)
        nd = len(mesh.sides_with_label(DIRICHLET))
        nn = len(mesh.sides_with_label(NEUMANN))
        out, _ = refine_bisection(mesh, range(mesh.num_elements))
        geo = out.geometry()
        for s in out.sides_with_label(DIRICHLET):
            mid = geo["side_midpoint"][s]
            assert min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12
        for s in out.sides_with_label(NEUMANN):
            mid = geo["side_midpoint"][s]
            assert min(abs(mid[1]), abs(mid[1] - 1.0)) < 1e-12
        assert len(out.sides_with_label(DIRICHLET)) >= nd
        assert len(out.sides_with_label(NEUMANN)) >= nn

    def test_uniform_refinement_dof_growth(self):
        # two generations quadruple the element count on the structured mesh
        mesh = structured_square_mesh(10, tg_labeler)
        m1, pmap = refine_bisection(mesh, range(mesh.num_elements))
        marked2 = [c for kids in pmap.values() for c in kids]
        m2, _ = refine_bisection(m1, marked2)
        assert m2.num_elements == 800
        assert m2.num_sides == 1240
        assert m2.num_vertices == 441

    def test_min_angle_bound_lshape(self):
        # newest-vertex bisection: descendants' min angle >= half the
        # initial mesh's min angle, checked over 8 generations
        def min_angle(mesh):
            p = mesh.vertices[mesh.elements]
            angles = []
            for k in range(3):
                a = p[:, (k + 1) % 3] - p[:, k]
                b = p[:, (k + 2) % 3] - p[:, k]
                cosang = np.einsum("ni,ni->n", a, b) / (
                    np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
                )
                angles.append(np.arccos(np.clip(cosang, -1, 1)))
            return np.min(angles)

        mesh = lshape_mesh(2)
        initial = min_angle(mesh)
        rng = np.random.default_rng(0)
        for _ in range(8):
            marked = rng.choice(
                mesh.num_elements, size=max(1, mesh.num_elements // 5), replace=False
            )
            mesh, _ = refine_bisection(mesh, marked)
            assert_conforming(mesh)
        assert min_angle(mesh) >= 0.5 * initial - 1e-12

    def test_invalid_marked_index(self):
        mesh = two_triangle_square()
        with pytest.raises(MeshError):
            refine_bisection(mesh, [5])


class TestBenchmarkMeshes:
    def test_lshape_mesh(self):
        mesh = lshape_mesh(4)
        assert mesh.num_elements == 96
        assert mesh.total_area == pytest.approx(3.0, rel=1e-12)
        assert len(mesh.sides_with_label(NEUMANN)) == 0

    def test_cook_mesh(self):
        mesh = cook_mesh()
        assert mesh.num_elements == 120
        # trapezoid area: 0.48 * (0.44 + 0.16/2)... shoelace of the corners
        corners = np.array([(0, 0), (0.48, 0.44), (0.48, 0.6), (0, 0.44)])
        x, y = corners[:, 0], corners[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert mesh.total_area == pytest.approx(area, rel=1e-12)
        geo = mesh.geometry()
        for s in mesh.sides_with_label(DIRICHLET):
            assert abs(geo["side_midpoint"][s][0]) < 1e-12


class TestIO:
    """Mesh descriptions in the stored form: vertex and element arrays with
    refinement edges and explicit boundary label rows, no labeler. The
    twins in TestBuild reach the same errors through a labeler."""

    def test_overlapping_elements_file_rejected(self):
        rows = ([(1, 2), (2, 0), (1, 3), (3, 0)], [DIRICHLET] * 4)
        with pytest.raises(MeshError, match=r"elements overlap on side \(0, 1\)"):
            Triangulation(OVERLAP_VERTICES, OVERLAP_ELEMENTS, [0, 0], rows)

    def test_unused_vertex_file_rejected(self):
        mesh = structured_square_mesh(4, tg_labeler)
        assert mesh.num_vertices == 25
        verts = np.vstack([mesh.vertices, [(0.5, 2.0)]])
        with pytest.raises(MeshError, match="vertex 25 belongs to no element"):
            Triangulation(verts, mesh.elements, mesh.refinement_edge,
                          boundary_label_rows(mesh))


# -- loop oracle: the side build and bisection as they were before the array
# formulation; the library must reproduce them bit for bit


def oracle_sides(elements):
    """Side arrays of an element list by a loop over the element sides."""
    ne = len(elements)
    keys = np.sort(elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    side_elements = np.full((len(uniq), 2), -1)
    side_local = np.full((len(uniq), 2), -1)
    for idx in np.argsort(inverse, kind="stable"):
        s = inverse[idx]
        slot = 0 if side_elements[s, 0] < 0 else 1
        side_elements[s, slot], side_local[s, slot] = divmod(idx, 3)
    swap = (side_elements[:, 1] >= 0) & (side_elements[:, 1] < side_elements[:, 0])
    side_elements[swap] = side_elements[swap][:, ::-1]
    side_local[swap] = side_local[swap][:, ::-1]
    prim, ploc = side_elements[:, 0], side_local[:, 0]
    signs = np.ones((ne, 3), dtype=np.int64)
    has2 = side_elements[:, 1] >= 0
    signs[side_elements[has2, 1], side_local[has2, 1]] = -1
    return {
        "element_sides": inverse.reshape(ne, 3),
        "side_elements": side_elements,
        "side_local": side_local,
        "side_vertices": np.stack(
            [elements[prim, ploc], elements[prim, (ploc + 1) % 3]], axis=1
        ),
        "element_side_signs": signs,
    }


def oracle_refine(mesh, marked):
    """Loop bisection: vertices, elements, {sorted pair: label}, parent map."""
    ne, nv = mesh.num_elements, mesh.num_vertices
    elems = [np.roll(mesh.elements[t], -mesh.refinement_edge[t]) for t in range(ne)]
    esides = [np.roll(mesh.element_sides[t], -mesh.refinement_edge[t])
              for t in range(ne)]
    edge_marked = np.zeros(mesh.num_sides, dtype=bool)
    for t in set(int(m) for m in marked):
        edge_marked[esides[t][0]] = True
    changed = True
    while changed:
        changed = False
        for t in range(ne):
            if edge_marked[esides[t]].any() and not edge_marked[esides[t][0]]:
                edge_marked[esides[t][0]] = changed = True
    mid, vertices = {}, list(mesh.vertices)
    for s in np.flatnonzero(edge_marked):
        mid[s] = len(vertices)
        a, b = mesh.side_vertices[s]
        vertices.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))

    new_elems, parent_map = [], {}
    for t in range(ne):
        a, b, c = elems[t]
        s_ab, s_bc, s_ca = esides[t]
        if not edge_marked[s_ab]:
            children = [(a, b, c)]
        else:
            m = mid[s_ab]
            children = ([(m, c, mid[s_ca]), (a, m, mid[s_ca])] if edge_marked[s_ca]
                        else [(c, a, m)])
            children += ([(m, b, mid[s_bc]), (c, m, mid[s_bc])] if edge_marked[s_bc]
                         else [(b, c, m)])
        parent_map[t] = list(range(len(new_elems), len(new_elems) + len(children)))
        new_elems.extend(children)

    labels = {}
    for s in np.flatnonzero(mesh.side_labels != INTERIOR):
        v1, v2 = mesh.side_vertices[s]
        halves = [(v1, mid[s]), (mid[s], v2)] if s in mid else [(v1, v2)]
        for pair in halves:
            labels[tuple(sorted(pair))] = mesh.side_labels[s]
    return np.array(vertices), np.array(new_elems), labels, parent_map


def assert_sides_match_oracle(mesh):
    for name, want in oracle_sides(mesh.elements).items():
        assert np.array_equal(getattr(mesh, name), want), name


def assert_refine_matches_oracle(mesh, marked, refined, parent_map):
    vertices, elements, labels, want_map = oracle_refine(mesh, marked)
    assert np.array_equal(refined.vertices, vertices)
    assert np.array_equal(refined.elements, elements)
    assert np.array_equal(refined.refinement_edge, np.zeros(len(elements)))
    assert_sides_match_oracle(refined)
    want_labels = [labels.get(tuple(sorted(p)), INTERIOR)
                   for p in refined.side_vertices.tolist()]
    assert np.array_equal(refined.side_labels, want_labels)
    assert {t: list(kids) for t, kids in parent_map.items()} == {
        t: kids for t, kids in want_map.items() if len(kids) > 1
    }


class TestLoopOracle:
    @pytest.mark.parametrize("factory", [
        lambda: lshape_mesh(4), cook_mesh, lambda: structured_square_mesh(5, tg_labeler),
    ], ids=["lshape", "cook", "structured"])
    def test_initial_sides(self, factory):
        assert_sides_match_oracle(factory())

    @pytest.mark.parametrize("name", ["lshape", "cook"])
    def test_adaptive_sequence(self, name, monkeypatch):
        """Every refinement of 8 adaptive iterations matches the loop oracle."""
        refine = gapfem_mesh.refine_bisection
        marks = []

        def checked(mesh, marked):
            refined, parent_map = refine(mesh, marked)
            assert_refine_matches_oracle(mesh, marked, refined, parent_map)
            marks.append(len(marked))
            return refined, parent_map

        monkeypatch.setattr(gapfem_mesh, "refine_bisection", checked)
        run_adaptive(get_problem(name), AdaptiveConfig(theta=0.5, max_iter=8))
        assert len(marks) >= 14 and min(marks) > 0

    def test_taylor_green_uniform(self):
        mesh = get_problem("taylor-green").mesh_factory()
        assert_sides_match_oracle(mesh)
        for _ in range(2):
            marked = range(mesh.num_elements)
            refined, parent_map = refine_bisection(mesh, marked)
            assert_refine_matches_oracle(mesh, marked, refined, parent_map)
            mesh = refined


# -- loop oracles of the structured meshes, as built before `grid_triangles`


def oracle_square(n, labeler, origin=(0.0, 0.0), size=1.0):
    xs = origin[0] + size * np.arange(n + 1) / n
    ys = origin[1] + size * np.arange(n + 1) / n
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            tris += [(a, b, b + 1), (a, b + 1, a + 1)]
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return build_triangulation(vertices, np.array(tris), labeler)


def oracle_lshape(n):
    """Vertices numbered by first use while the cells are visited i-major."""
    h = 1.0 / n
    coords, vertices, tris = {}, [], []

    def vid(i, j):
        if (i, j) not in coords:
            coords[(i, j)] = len(vertices)
            vertices.append((i * h, j * h))
        return coords[(i, j)]

    for i in range(-n, n):
        for j in range(-n, n):
            if i >= 0 and j < 0:
                continue
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return build_triangulation(np.array(vertices), np.array(tris), all_dirichlet)


def oracle_cook(nx=6, ny=10):
    verts = []
    for i in range(nx + 1):
        xi = i / nx
        y_b, y_t = 0.44 * xi, 0.44 + 0.16 * xi
        for j in range(ny + 1):
            verts.append((0.48 * xi, y_b + (y_t - y_b) * j / ny))
    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            tris += [(a, b, b + 1), (a, b + 1, a + 1)]
    return build_triangulation(
        np.array(verts), np.array(tris),
        lambda mid: DIRICHLET if abs(mid[0]) < 1e-12 else NEUMANN,
    )


def _offset_square():
    """The unit square's 4-by-4 mesh mapped to (-1, 0.5) + [0, 2.5]^2."""
    mesh = structured_square_mesh(4, all_dirichlet)
    vertices = np.array([-1.0, 0.5]) + 2.5 * mesh.vertices
    return build_triangulation(vertices, mesh.elements, all_dirichlet)


def _oracle_lshape_problem_mesh():
    mesh = oracle_lshape(2)
    return refine_marked_twice(mesh, range(mesh.num_elements))


GRID_MESHES = {
    "lshape-1": (lambda: lshape_mesh(1), lambda: oracle_lshape(1)),
    "lshape-2": (lambda: lshape_mesh(2), lambda: oracle_lshape(2)),
    "lshape-4": (lambda: lshape_mesh(4), lambda: oracle_lshape(4)),
    "cook": (cook_mesh, oracle_cook),
    "cook-3x7": (lambda: cook_mesh(3, 7), lambda: oracle_cook(3, 7)),
    "square": (lambda: structured_square_mesh(5, tg_labeler),
               lambda: oracle_square(5, tg_labeler)),
    "square-offset": (
        _offset_square,
        lambda: oracle_square(4, all_dirichlet, origin=(-1.0, 0.5), size=2.5),
    ),
    "taylor-green-problem": (get_problem("taylor-green").mesh_factory,
                             lambda: oracle_square(10, tg_labeler)),
    "lshape-problem": (get_problem("lshape").mesh_factory, _oracle_lshape_problem_mesh),
    "cook-problem": (get_problem("cook").mesh_factory, oracle_cook),
}


@pytest.mark.parametrize("name", sorted(GRID_MESHES))
def test_grid_meshes_match_loop_oracle(name):
    """The array-built structured meshes equal their loop builders bit for bit."""
    build, oracle = GRID_MESHES[name]
    got, want = build(), oracle()
    for attr in ("vertices", "elements", "refinement_edge", "side_vertices",
                 "side_elements", "side_local", "side_labels", "element_sides",
                 "element_side_signs"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def _perturbed_square(n, labeler, seed):
    """Structured mesh with interior vertices moved by up to 0.2 h per axis.

    A move stays below half the 0.71 h distance from a vertex to the
    opposite side, so no element degenerates or turns over.
    """
    mesh = structured_square_mesh(n, labeler)
    verts = mesh.vertices.copy()
    inner = np.all((verts > 1e-12) & (verts < 1.0 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    verts[inner] += rng.uniform(-0.2 / n, 0.2 / n, size=(inner.sum(), 2))
    return build_triangulation(verts, mesh.elements, labeler)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5),
    labeler=st.sampled_from([all_dirichlet, tg_labeler]),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_bisection_properties(n, labeler, seed, fractions):
    """Conformity, area and label inheritance after NVB."""
    mesh = _perturbed_square(n, labeler, seed)
    rng = np.random.default_rng(seed)
    for fraction in fractions:
        size = max(1, round(fraction * mesh.num_elements))
        marked = rng.choice(mesh.num_elements, size=size, replace=False)
        out, parent_map = refine_bisection(mesh, marked)

        # conformity: an interior side's two elements see opposite signs,
        # and every element side points back at its element
        ends = out.side_elements, out.side_local
        for slot, sign in ((0, 1), (1, -1)):
            rows = out.side_elements[:, slot] >= 0
            t, j = ends[0][rows, slot], ends[1][rows, slot]
            assert np.array_equal(out.element_sides[t, j], np.flatnonzero(rows))
            assert np.all(out.element_side_signs[t, j] == sign)
        assert np.all((out.side_elements[:, 1] >= 0) == (out.side_labels == INTERIOR))

        # children: marked parents split, areas add up, copies are unchanged
        assert all(len(parent_map[t]) >= 2 for t in marked)
        for t, kids in parent_map.items():
            assert out.areas[kids].sum() == pytest.approx(mesh.areas[t], rel=1e-13)
        copied = np.ones(out.num_elements, dtype=bool)
        copied[[c for kids in parent_map.values() for c in kids]] = False
        kept = np.setdiff1d(np.arange(mesh.num_elements), list(parent_map))
        assert np.array_equal(np.sort(out.elements[copied], axis=1),
                              np.sort(mesh.elements[kept], axis=1))

        # every child boundary side lies on a parent boundary side (its two
        # endpoints are among the parent's endpoints and midpoint) and
        # carries that side's label
        parent = np.flatnonzero(mesh.side_labels != INTERIOR)
        pa, pb = mesh.vertices[mesh.side_vertices[parent]].transpose(1, 0, 2)
        points = np.stack([pa, pb, 0.5 * (pa + pb)], axis=1)
        child = np.flatnonzero(out.side_labels != INTERIOR)
        child_ends = out.vertices[out.side_vertices[child]]
        on = (child_ends[:, None, :, None] == points[None, :, None]).all(-1)
        on = on.any(-1).all(-1)
        assert np.all(on.sum(axis=1) == 1)
        assert np.array_equal(out.side_labels[child],
                              mesh.side_labels[parent[on.argmax(axis=1)]])
        mesh = out


def _cache_free(mesh):
    """A new triangulation of the same arrays, with an empty cache."""
    boundary = np.flatnonzero(mesh.side_labels != INTERIOR)
    return Triangulation(mesh.vertices, mesh.elements, mesh.refinement_edge,
                         (mesh.side_vertices[boundary], mesh.side_labels[boundary]))


_TG, _LSHAPE = taylor_green_stokes(), lshape_stokes()
CARRY_FIELDS = [_TG.grad_u, _TG.p, _TG.f, _LSHAPE.grad_u, _LSHAPE.p]
# the perturbed square and Cook's mesh come from build_triangulation, so
# their first refinement rotates the copies of elements with
# refinement_edge != 0; the other two are bisection meshes throughout
CARRY_MESHES = {
    "perturbed": lambda seed: _perturbed_square(3, tg_labeler, seed),
    "lshape": lambda seed: _LSHAPE.mesh_factory(),
    "cook": lambda seed: cook_mesh(),
    "taylor-green": lambda seed: _TG.mesh_factory(),
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CARRY_MESHES)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.floats(0.0, 0.3), st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ),
)
def test_carried_rule_values_match_fresh_evaluation(name, seed, steps):
    """Every field array built from carried rows equals, bit for bit, a fresh
    evaluation on a cache-free copy of the mesh.

    Each step evaluates the fields on the current mesh or not, then refines
    it by one or two bisection generations, so carried rows also pass
    through meshes that evaluate nothing."""
    mesh = CARRY_MESHES[name](seed)
    rng = np.random.default_rng(seed)

    def check(mesh):
        points = physical_points(_cache_free(mesh), VOLUME_DEGREE)
        for f in CARRY_FIELDS:
            fresh = np.asarray(f(points), dtype=float)
            assert np.array_equal(rule_values(f, mesh, VOLUME_DEGREE), fresh)
            assert ("carried", "rule_values", f, VOLUME_DEGREE) not in mesh._cache

    for fraction, evaluate, twice in steps:
        if evaluate:
            check(mesh)
        size = max(1, round(fraction * mesh.num_elements))
        marked = rng.choice(mesh.num_elements, size=size, replace=False)
        if twice:
            mesh = refine_marked_twice(mesh, marked)
        else:
            mesh, _ = refine_bisection(mesh, marked)
    check(mesh)


_COOK = cook_membrane()


def assert_whole_sides_keep_their_order(parent, child):
    """Every side of parent that child still has (the same endpoint pair:
    a bisected side leaves none) keeps its `side_vertices` order."""
    child_sides = {tuple(sorted(pair)): pair for pair in child.side_vertices.tolist()}
    kept = [(pair, child_sides.get(tuple(sorted(pair))))
            for pair in parent.side_vertices.tolist()]
    assert all(new is None or new == pair for pair, new in kept)
    return sum(new is not None for _, new in kept)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CARRY_MESHES)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.floats(0.0, 0.3), st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ),
)
# Cook's first refinement rotates its elements: one generation, then two
# through a mesh that evaluates nothing, and two at once
@example(name="cook", seed=1, steps=[(0.2, True, False), (0.3, False, True)])
@example(name="cook", seed=2, steps=[(0.2, True, True)])
def test_carried_side_rows_match_fresh_evaluation(name, seed, steps):
    """The lift and g_h built from carried side rows equal, bit for bit, a
    fresh evaluation on a cache-free copy of the mesh, and every side that a
    refinement leaves whole keeps its `side_vertices` order.

    Each step evaluates the lifts and tractions on the current mesh or not,
    then refines it by one or two bisection generations, so carried rows
    also pass through meshes that evaluate nothing."""
    mesh = CARRY_MESHES[name](seed)
    rng = np.random.default_rng(seed)

    def check(mesh):
        fresh = _cache_free(mesh)
        for prob in (_TG, _LSHAPE, _COOK):
            lift = interpolate_lift(prob, mesh).values
            assert np.array_equal(lift, interpolate_lift(prob, fresh).values)
            assert ("carried", "lift", prob.u, prob.lift_stream) not in mesh._cache
        for prob in (_TG, _COOK):
            assert np.array_equal(side_tractions(prob, mesh), side_tractions(prob, fresh))
            assert ("carried", "tractions", prob.g) not in mesh._cache

    kept = 0
    for fraction, evaluate, twice in steps:
        if evaluate:
            check(mesh)
        size = max(1, round(fraction * mesh.num_elements))
        marked = rng.choice(mesh.num_elements, size=size, replace=False)
        if twice:
            child = refine_marked_twice(mesh, marked)
        else:
            child, _ = refine_bisection(mesh, marked)
        kept += assert_whole_sides_keep_their_order(mesh, child)
        mesh = child
    check(mesh)
    assert kept > 0


_TG_TENSOR = taylor_green_stokes(load="tensor")


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(CARRY_MESHES)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.floats(0.0, 0.3), st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ),
)
def test_carried_projections_match_fresh_projection(name, seed, steps):
    """f_h, F_h and the oscillation that `project_data` forms from carried
    rows equal, bit for bit, those of a cache-free copy of the mesh, for the
    traction and the tensor form of the Taylor-Green loads."""
    mesh = CARRY_MESHES[name](seed)
    rng = np.random.default_rng(seed)

    def check(mesh):
        for prob in (_TG, _TG_TENSOR):
            fresh = project_data(prob, _cache_free(mesh))
            for got, want in zip(project_data(prob, mesh), fresh):
                assert (got is None and want is None) or np.array_equal(got, want)
            assert ("carried", "projection", prob.f, prob.big_f) not in mesh._cache

    for fraction, evaluate, twice in steps:
        if evaluate:
            check(mesh)
        size = max(1, round(fraction * mesh.num_elements))
        marked = rng.choice(mesh.num_elements, size=size, replace=False)
        if twice:
            mesh = refine_marked_twice(mesh, marked)
        else:
            mesh, _ = refine_bisection(mesh, marked)
    check(mesh)
