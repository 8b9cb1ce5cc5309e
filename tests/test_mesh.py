import numpy as np
import pytest

from gapfem import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    MeshError,
    build_triangulation,
    load_mesh,
    refine_bisection,
    save_mesh,
    structured_square_mesh,
)
from gapfem.problems import cook_mesh, lshape_mesh


def all_dirichlet(mid):
    return DIRICHLET


def tg_labeler(mid):
    return DIRICHLET if min(abs(mid[0]), abs(mid[0] - 1.0)) < 1e-12 else NEUMANN


def two_triangle_square():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    elems = [(0, 1, 2), (0, 2, 3)]
    return build_triangulation(verts, elems, all_dirichlet)


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
            build_triangulation(verts, [(0, 1, 2)], {(0, 1): DIRICHLET})

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
        assert pmap[0] == [0]

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
    def test_roundtrip(self, tmp_path):
        mesh = structured_square_mesh(3, tg_labeler)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.elements, mesh.elements)
        assert np.allclose(back.vertices, mesh.vertices, rtol=1e-15, atol=0)
        assert np.array_equal(back.side_labels, mesh.side_labels)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda lines: lines[:-2],  # truncated label section
            lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " wall"],
            lambda lines: lines[:1] + ["16 x"] + lines[2:],  # non-integer count
            lambda lines: lines[:18] + [lines[18].rsplit(" ", 1)[0] + " 7"]
            + lines[19:],  # refinement edge out of range
        ],
        ids=["truncated-labels", "unknown-label", "bad-count", "refinement-edge-7"],
    )
    def test_malformed_file_raises_mesh_error(self, tmp_path, mangle):
        path = tmp_path / "mesh.txt"
        save_mesh(structured_square_mesh(3, tg_labeler), path)
        lines = path.read_text().splitlines()
        assert lines[18].count(" ") == 3  # the first element row
        path.write_text("\n".join(mangle(lines)) + "\n")
        with pytest.raises(MeshError):
            load_mesh(path)
