"""Conforming 2-D simplicial triangulations with newest-vertex bisection.

A triangulation stores vertices, counterclockwise element triples, and a
side table derived from the connectivity.  Every side carries a boundary
label (interior / Dirichlet / Neumann) and a globally fixed unit normal:
for interior sides the normal points out of the adjacent element with the
lower index, for boundary sides it points out of the domain.  This makes
normal-flux degrees of freedom single-valued by construction.

Refinement is newest-vertex bisection with conforming closure; the
refinement edge of each initial element is its longest edge.
"""

import numpy as np

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_LABEL_NAMES = {INTERIOR: "interior", DIRICHLET: "dirichlet", NEUMANN: "neumann"}
_LABEL_IDS = {v: k for k, v in _LABEL_NAMES.items()}


class MeshError(Exception):
    """Invalid mesh input: non-conforming, degenerate, or unlabeled."""


class Triangulation:
    """Immutable conforming triangular mesh.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array
        Vertex indices, counterclockwise.
    refinement_edge : (ne,) int array
        Local index j of the edge (v_j, v_{j+1}) bisected next.
    side_vertices : (ns, 2) int array
        Endpoints of each side; the order realises the global normal.
    side_elements : (ns, 2) int array
        Adjacent element indices; boundary sides have -1 in the second
        slot and the first entry is the unique adjacent element.  For
        interior sides the first entry is the lower element index, whose
        outward normal is the global normal of the side.
    side_labels : (ns,) int array
        One of INTERIOR, DIRICHLET, NEUMANN.
    element_sides : (ne, 3) int array
        Side index of local edge j = (v_j, v_{j+1}).
    element_side_signs : (ne, 3) int array
        +1 where the global side normal is the outward normal of the
        element, -1 otherwise.
    """

    def __init__(self, vertices, elements, refinement_edge, side_labels_by_pair):
        vertices = np.asarray(vertices, dtype=float)
        elements = np.asarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must be an (ne, 3) array")
        if elements.min(initial=0) < 0 or elements.max(initial=-1) >= len(vertices):
            raise MeshError("element vertex index out of range")

        self.vertices = vertices
        self.elements = elements
        self.refinement_edge = np.asarray(refinement_edge, dtype=np.int64)
        if self.refinement_edge.shape != (len(elements),) or np.any(
            (self.refinement_edge < 0) | (self.refinement_edge > 2)
        ):
            raise MeshError(
                "refinement_edge must hold one local edge 0, 1 or 2 per element"
            )

        areas = _signed_areas(vertices, elements)
        if np.any(areas <= 1e-14 * max(1.0, np.abs(areas).max(initial=1.0))):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate element {bad} (signed area {areas[bad]:.3e})")
        self.areas = areas

        self._build_sides(side_labels_by_pair)
        self._check_conformity()
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _build_sides(self, side_labels_by_pair):
        ne = len(self.elements)
        # local edge j of element = (v_j, v_{j+1})
        e0 = self.elements
        pairs = np.stack(
            [
                np.stack([e0[:, 0], e0[:, 1]], axis=1),
                np.stack([e0[:, 1], e0[:, 2]], axis=1),
                np.stack([e0[:, 2], e0[:, 0]], axis=1),
            ],
            axis=1,
        )  # (ne, 3, 2)
        flat = pairs.reshape(-1, 2)
        keys = np.sort(flat, axis=1)
        uniq, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        if counts.max(initial=0) > 2:
            raise MeshError("non-conforming input: a side is shared by >2 elements")

        ns = len(uniq)
        self.element_sides = inverse.reshape(ne, 3)

        side_elements = np.full((ns, 2), -1, dtype=np.int64)
        owner_local = np.full((ns, 2), -1, dtype=np.int64)
        elem_of_flat = np.repeat(np.arange(ne), 3)
        local_of_flat = np.tile(np.arange(3), ne)
        order = np.argsort(inverse, kind="stable")
        for idx in order:
            s = inverse[idx]
            slot = 0 if side_elements[s, 0] < 0 else 1
            side_elements[s, slot] = elem_of_flat[idx]
            owner_local[s, slot] = local_of_flat[idx]
        # lower element index first for interior sides
        swap = (side_elements[:, 1] >= 0) & (side_elements[:, 1] < side_elements[:, 0])
        side_elements[swap] = side_elements[swap][:, ::-1]
        owner_local[swap] = owner_local[swap][:, ::-1]
        self.side_elements = side_elements
        # local edge index of the side within each adjacent element
        self.side_local = owner_local

        # the stored endpoint order is the primary element's traversal order,
        # so rotating it by -90 degrees gives that element's outward normal
        prim, ploc = side_elements[:, 0], owner_local[:, 0]
        a = self.elements[prim, ploc]
        b = self.elements[prim, (ploc + 1) % 3]
        self.side_vertices = np.stack([a, b], axis=1)

        signs = np.ones((ne, 3), dtype=np.int64)
        sec = side_elements[:, 1]
        has2 = sec >= 0
        signs[sec[has2], owner_local[has2, 1]] = -1
        self.element_side_signs = signs

        boundary = side_elements[:, 1] < 0
        labels = np.full(ns, INTERIOR, dtype=np.int64)
        if callable(side_labels_by_pair):
            mids = 0.5 * (
                self.vertices[self.side_vertices[:, 0]]
                + self.vertices[self.side_vertices[:, 1]]
            )
            for s in np.nonzero(boundary)[0]:
                lab = side_labels_by_pair(mids[s])
                if lab not in (DIRICHLET, NEUMANN):
                    raise MeshError(f"labeler returned {lab!r} for boundary side {s}")
                labels[s] = lab
        else:
            table = {}
            for pair, lab in side_labels_by_pair.items():
                table[tuple(sorted(pair))] = lab
            for s in np.nonzero(boundary)[0]:
                key = tuple(sorted(self.side_vertices[s]))
                if key not in table:
                    raise MeshError(f"unlabeled boundary side {key}")
                lab = table[key]
                if lab not in (DIRICHLET, NEUMANN):
                    raise MeshError(f"invalid label {lab!r} for boundary side {key}")
                labels[s] = lab
        self.side_labels = labels
        if not np.any(labels == DIRICHLET):
            raise MeshError("the Dirichlet side set must be nonempty")

    def _check_conformity(self):
        # every interior side has exactly two adjacent elements, every
        # boundary side exactly one; vertices of one side never fall in the
        # interior of another because sides are derived from shared vertex
        # pairs of a vertex-conforming element list
        interior = self.side_labels == INTERIOR
        if np.any(interior != (self.side_elements[:, 1] >= 0)):
            raise MeshError("boundary label on an interior side")

    # -- basic queries ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    @property
    def num_sides(self):
        return len(self.side_vertices)

    @property
    def total_area(self):
        return float(self.areas.sum())

    def cached(self, key, build):
        """Value of build() for `key`, computed once per mesh.

        The one per-mesh cache: geometry, the stabilisation jump matrix per
        mu and the Stokes saddle (`forms.stokes_saddle`), whose one factor
        serves every viscosity and the divergence-free projector, live here.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def geometry(self):
        """Per-element/per-side geometric arrays, computed once per mesh.

        Returns a dict with centroids (ne,2), diameters h_T (ne,), side
        lengths (ns,), side midpoints (ns,2), unit normals (ns,2), and the
        P1 barycentric gradients grad_lambda (ne,3,2).
        """
        return self.cached("geometry", self._geometry)

    def _geometry(self):
        v = self.vertices
        el = self.elements
        p = v[el]  # (ne, 3, 2)
        centroids = p.mean(axis=1)
        edge_vec = p[:, [1, 2, 0]] - p[:, [0, 1, 2]]  # local edge j vector
        edge_len = np.linalg.norm(edge_vec, axis=2)
        h_t = edge_len.max(axis=1)
        # grad lambda_k = rot(edge opposite vertex k) / (2|T|); edge opposite
        # vertex k is local edge k+1, rotated to point toward vertex k
        opp = edge_vec[:, [1, 2, 0]]
        grad_lambda = np.stack([-opp[..., 1], opp[..., 0]], axis=2)
        grad_lambda /= (2.0 * self.areas)[:, None, None]

        sv = self.side_vertices
        tang = v[sv[:, 1]] - v[sv[:, 0]]
        lengths = np.linalg.norm(tang, axis=1)
        midpoints = 0.5 * (v[sv[:, 0]] + v[sv[:, 1]])
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / lengths[:, None]

        return {
            "centroids": centroids,
            "h_t": h_t,
            "edge_len": edge_len,
            "grad_lambda": grad_lambda,
            "side_length": lengths,
            "side_midpoint": midpoints,
            "side_normal": normals,
        }

    def sides_with_label(self, label):
        return np.nonzero(self.side_labels == label)[0]

    def dirichlet_vertices(self):
        """Vertices on the closure of the Dirichlet boundary."""
        sides = self.sides_with_label(DIRICHLET)
        return np.unique(self.side_vertices[sides])


def _signed_areas(vertices, elements):
    p = vertices[elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_triangulation(vertices, elements, boundary_labels):
    """Build a conforming triangulation from raw arrays.

    Parameters
    ----------
    vertices : (nv, 2) array_like
    elements : (ne, 3) array_like
        Vertex index triples; orientation is fixed to counterclockwise.
    boundary_labels : mapping or callable
        Either a map {(v1, v2): label} covering every boundary side or a
        callable midpoint -> label evaluated on boundary side midpoints.

    The refinement edge of every element is initialised to its longest
    edge (ties broken by the lowest local index).
    """
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 2 or elements.shape[1] != 3:
        raise MeshError("elements must be an (ne, 3) array")
    for t, tri in enumerate(elements):
        if len(set(tri.tolist())) != 3:
            raise MeshError(f"degenerate element {t}: repeated vertex id")
    areas = _signed_areas(vertices, elements)
    flip = areas < 0
    elements = elements.copy()
    elements[flip] = elements[flip][:, ::-1]

    p = vertices[elements]
    edge_len = np.linalg.norm(p[:, [1, 2, 0]] - p[:, [0, 1, 2]], axis=2)
    refinement_edge = edge_len.argmax(axis=1)
    return Triangulation(vertices, elements, refinement_edge, boundary_labels)


def structured_square_mesh(n, labeler, origin=(0.0, 0.0), size=1.0):
    """Uniform n-by-n grid of squares, each split along its main diagonal.

    Parameters
    ----------
    n : int
        Subdivisions per direction; the mesh has 2*n**2 elements.
    labeler : callable
        Boundary side midpoint -> DIRICHLET or NEUMANN.
    """
    if n < 1:
        raise MeshError("subdivision count must be >= 1")
    x0, y0 = origin
    xs = x0 + size * np.arange(n + 1) / n
    ys = y0 + size * np.arange(n + 1) / n
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return build_triangulation(vertices, np.array(tris), labeler)


def _normalize_refedge_first(elements, refinement_edge):
    """Rotate each triple so the refinement edge is (v0, v1)."""
    out = elements.copy()
    r = refinement_edge
    for k in (1, 2):
        rows = r == k
        out[rows] = np.roll(elements[rows], -k, axis=1)
    return out


def refine_bisection(mesh, marked):
    """Bisect the marked elements with conforming closure.

    Every marked element is bisected at its refinement edge exactly once;
    neighbours are refined as needed so no hanging nodes remain (an element
    may be split into 2, 3 or 4 children during closure).  New refinement
    edges follow the newest-vertex rule.  Child boundary sides inherit the
    parent side's label.

    Returns
    -------
    (Triangulation, dict)
        The refined mesh and a map parent element index -> list of child
        element indices (absent keys were copied unchanged; their child
        index list has length 1).
    """
    marked = np.asarray(sorted(set(int(m) for m in marked)), dtype=np.int64)
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.num_elements):
        raise MeshError("marked element index out of range")
    if marked.size == 0:
        return mesh, {t: [t] for t in range(mesh.num_elements)}

    ne = mesh.num_elements
    elems = _normalize_refedge_first(mesh.elements, mesh.refinement_edge)
    # side index of each local edge after normalisation
    esides = np.empty((ne, 3), dtype=np.int64)
    for k in range(3):
        esides[:, k] = mesh.element_sides[
            np.arange(ne), (mesh.refinement_edge + k) % 3
        ]

    # mark edges: marked elements mark their refinement edge; closure marks
    # the refinement edge of any element owning a marked edge
    edge_marked = np.zeros(mesh.num_sides, dtype=bool)
    edge_marked[esides[marked, 0]] = True
    while True:
        has_marked = edge_marked[esides].any(axis=1)
        need = has_marked & ~edge_marked[esides[:, 0]]
        if not need.any():
            break
        edge_marked[esides[need, 0]] = True

    # midpoints for marked edges
    nv = mesh.num_vertices
    marked_sides = np.nonzero(edge_marked)[0]
    mid_of_side = np.full(mesh.num_sides, -1, dtype=np.int64)
    mid_of_side[marked_sides] = nv + np.arange(len(marked_sides))
    midpoints = 0.5 * (
        mesh.vertices[mesh.side_vertices[marked_sides, 0]]
        + mesh.vertices[mesh.side_vertices[marked_sides, 1]]
    )
    new_vertices = np.vstack([mesh.vertices, midpoints])

    new_elems = []
    parent_map = {}
    for t in range(ne):
        a, b, c = elems[t]
        s_ab, s_bc, s_ca = esides[t]
        if not edge_marked[s_ab]:
            parent_map[t] = [len(new_elems)]
            new_elems.append((a, b, c))
            continue
        m_ab = mid_of_side[s_ab]
        children = []
        # first bisection: children in refinement-edge-first normal form
        left = (c, a, m_ab)
        right = (b, c, m_ab)
        if edge_marked[s_ca]:
            m_ca = mid_of_side[s_ca]
            children.append((m_ab, c, m_ca))
            children.append((a, m_ab, m_ca))
        else:
            children.append(left)
        if edge_marked[s_bc]:
            m_bc = mid_of_side[s_bc]
            children.append((m_ab, b, m_bc))
            children.append((c, m_ab, m_bc))
        else:
            children.append(right)
        parent_map[t] = list(range(len(new_elems), len(new_elems) + len(children)))
        new_elems.extend(children)

    new_elems = np.asarray(new_elems, dtype=np.int64)
    refinement_edge = np.zeros(len(new_elems), dtype=np.int64)

    # inherit boundary labels: a child boundary side is either a full or a
    # half parent boundary side
    label_table = {}
    for s in np.nonzero(mesh.side_labels != INTERIOR)[0]:
        v1, v2 = mesh.side_vertices[s]
        lab = int(mesh.side_labels[s])
        m = mid_of_side[s]
        if m >= 0:
            label_table[tuple(sorted((v1, m)))] = lab
            label_table[tuple(sorted((m, v2)))] = lab
        else:
            label_table[tuple(sorted((v1, v2)))] = lab

    new_mesh = Triangulation(new_vertices, new_elems, refinement_edge, label_table)
    return new_mesh, parent_map


def save_mesh(mesh, path):
    """Write a plain-text mesh file (round-trips to 1e-15 relative)."""
    with open(path, "w") as f:
        f.write("gapfem-mesh 1\n")
        f.write(f"{mesh.num_vertices} {mesh.num_elements}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for (a, b, c), r in zip(mesh.elements, mesh.refinement_edge):
            f.write(f"{a} {b} {c} {r}\n")
        boundary = np.nonzero(mesh.side_labels != INTERIOR)[0]
        f.write(f"{len(boundary)}\n")
        for s in boundary:
            v1, v2 = mesh.side_vertices[s]
            f.write(f"{v1} {v2} {_LABEL_NAMES[int(mesh.side_labels[s])]}\n")


def load_mesh(path):
    """Read a `save_mesh` file; malformed content raises MeshError."""
    with open(path) as f:
        header = f.readline().split()
        if header[:1] != ["gapfem-mesh"]:
            raise MeshError("not a gapfem mesh file")
        try:
            nv, ne = map(int, f.readline().split())
            vertices = np.array(
                [[float(w) for w in f.readline().split()] for _ in range(nv)]
            )
            rows = [[int(w) for w in f.readline().split()] for _ in range(ne)]
            elements = np.array([r[:3] for r in rows], dtype=np.int64)
            refedge = np.array([r[3] for r in rows], dtype=np.int64)
            nb = int(f.readline())
            labels = {}
            for _ in range(nb):
                w = f.readline().split()
                labels[(int(w[0]), int(w[1]))] = _LABEL_IDS[w[2]]
        except (ValueError, IndexError, KeyError) as exc:
            raise MeshError(
                f"malformed mesh file {path}: {type(exc).__name__}: {exc}"
            ) from exc
    return Triangulation(vertices, elements, refedge, labels)
