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

    `boundary_labels` is a callable midpoint -> label evaluated on boundary
    side midpoints, or a pair (pairs (m, 2), labels (m,)) of arrays naming
    every boundary side by its endpoints.
    """

    def __init__(self, vertices, elements, refinement_edge, boundary_labels):
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

        self._build_sides(boundary_labels)
        self._check_conformity()
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _build_sides(self, boundary_labels):
        ne, nv = len(self.elements), len(self.vertices)
        # local edge j of element = (v_j, v_{j+1}); the key min * nv + max
        # orders sides lexicographically by their sorted endpoint pair
        start = self.elements.ravel()
        end = self.elements[:, [1, 2, 0]].ravel()
        keys = np.minimum(start, end) * nv + np.maximum(start, end)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(keys)))
        if counts.max(initial=0) > 2:
            raise MeshError("non-conforming input: a side is shared by >2 elements")

        ns = len(starts)
        inverse = np.empty(len(keys), dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        self.element_sides = inverse.reshape(ne, 3)

        # the stable sort lists a side's owners by increasing element index,
        # so the first owner is the lower element of an interior side
        owner = np.full((ns, 2), -1, dtype=np.int64)
        owner[:, 0] = order[starts]
        shared = counts == 2
        owner[shared, 1] = order[starts[shared] + 1]
        side_elements = np.where(owner >= 0, owner // 3, -1)
        owner_local = np.where(owner >= 0, owner % 3, -1)
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
        signs[side_elements[shared, 1], owner_local[shared, 1]] = -1
        self.element_side_signs = signs

        boundary = ~shared
        labels = np.full(ns, INTERIOR, dtype=np.int64)
        if callable(boundary_labels):
            mids = 0.5 * (
                self.vertices[self.side_vertices[:, 0]]
                + self.vertices[self.side_vertices[:, 1]]
            )
            for s in np.nonzero(boundary)[0]:
                lab = boundary_labels(mids[s])
                if lab not in (DIRICHLET, NEUMANN):
                    raise MeshError(f"labeler returned {lab!r} for boundary side {s}")
                labels[s] = lab
        else:
            pairs, values = boundary_labels
            lo, hi = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2)).T
            values = np.asarray(values)
            invalid = ~np.isin(values, (DIRICHLET, NEUMANN))
            if invalid.any():
                k = np.argmax(invalid)
                raise MeshError(
                    f"invalid label {values.tolist()[k]!r} for side ({lo[k]}, {hi[k]})"
                )
            row_keys = lo * nv + hi
            bsides = np.flatnonzero(boundary)
            bkeys = sorted_keys[starts[bsides]]
            stale = (lo < 0) | (hi >= nv) | ~np.isin(row_keys, bkeys)
            if stale.any():
                k = np.argmax(stale)
                raise MeshError(f"label row ({lo[k]}, {hi[k]}) names no boundary side")
            keys, counts = np.unique(row_keys, return_counts=True)
            if counts.max(initial=1) > 1:
                key = keys[np.argmax(counts > 1)]
                raise MeshError(f"side ({key // nv}, {key % nv}) is labelled more than once")
            labels[bsides[np.searchsorted(bkeys, row_keys)]] = values
            unlabeled = boundary & (labels == INTERIOR)
            if unlabeled.any():
                s = np.argmax(unlabeled)
                pair = tuple(int(v) for v in np.sort(self.side_vertices[s]))
                raise MeshError(f"unlabeled boundary side {pair}")
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
        mu, the Stokes saddle (`forms.stokes_saddle`), whose one factor
        serves every viscosity and the divergence-free projector, the
        element factors of `spaces.RTField`, and the quadrature points and
        analytic field values of `quadrature.physical_points`/`rule_values`
        live here.
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
    ordered = np.sort(elements, axis=1)
    repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if repeated.size:
        raise MeshError(f"degenerate element {repeated[0]}: repeated vertex id")
    if not callable(boundary_labels):
        boundary_labels = (list(boundary_labels), list(boundary_labels.values()))
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
        The refined mesh and a map bisected parent element index -> range
        of its child element indices.  Parents absent from the map were
        copied unchanged, in parent order, to the indices no range covers.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size and (marked[0] < 0 or marked[-1] >= mesh.num_elements):
        raise MeshError("marked element index out of range")
    if marked.size == 0:
        return mesh, {t: [t] for t in range(mesh.num_elements)}

    # rotate each triple (and its sides) so the refinement edge is (v0, v1)
    rotation = (mesh.refinement_edge[:, None] + np.arange(3)) % 3
    elems = np.take_along_axis(mesh.elements, rotation, axis=1)
    esides = np.take_along_axis(mesh.element_sides, rotation, axis=1)

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

    # children of each element in parent order: an unbisected copy, or the
    # left half (split again if edge ca is marked) then the right half (split
    # again if edge bc is marked), each in refinement-edge-first normal form;
    # the closure makes a marked bc or ca imply a marked ab
    a, b, c = elems.T
    m_ab, m_bc, m_ca = mid_of_side[esides].T
    split_ab, split_bc, split_ca = edge_marked[esides].T
    count = np.where(split_ab, 2 + split_ca + split_bc, 1)
    stop = np.cumsum(count)
    first = stop - count
    right = first + 1 + split_ca
    new_elems = np.empty((stop[-1], 3), dtype=np.int64)

    def put(rows, at, *corners):
        new_elems[at[rows]] = np.stack([v[rows] for v in corners], axis=1)

    put(~split_ab, first, a, b, c)
    put(split_ab & ~split_ca, first, c, a, m_ab)
    put(split_ca, first, m_ab, c, m_ca)
    put(split_ca, first + 1, a, m_ab, m_ca)
    put(split_ab & ~split_bc, right, b, c, m_ab)
    put(split_bc, right, m_ab, b, m_bc)
    put(split_bc, right + 1, c, m_ab, m_bc)
    refinement_edge = np.zeros(len(new_elems), dtype=np.int64)
    parents = np.flatnonzero(split_ab)
    parent_map = dict(
        zip(parents.tolist(), map(range, first[parents].tolist(), stop[parents].tolist()))
    )

    # inherit boundary labels: a child boundary side is either a full parent
    # boundary side (v1, v2) or one of its halves (v1, m) and (m, v2)
    sides = np.flatnonzero(mesh.side_labels != INTERIOR)
    v1, v2 = mesh.side_vertices[sides].T
    mid, labels = mid_of_side[sides], mesh.side_labels[sides]
    halved = mid >= 0
    pairs = np.concatenate([
        np.stack([v1, np.where(halved, mid, v2)], axis=1),
        np.stack([mid[halved], v2[halved]], axis=1),
    ])
    labels = np.concatenate([labels, labels[halved]])

    new_mesh = Triangulation(new_vertices, new_elems, refinement_edge, (pairs, labels))
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
            rows = [f.readline().split() for _ in range(int(f.readline()))]
            pairs = np.array([[int(w[0]), int(w[1])] for w in rows], dtype=np.int64)
            labels = np.array([_LABEL_IDS[w[2]] for w in rows], dtype=np.int64)
        except (ValueError, IndexError, KeyError, OverflowError) as exc:
            raise MeshError(
                f"malformed mesh file {path}: {type(exc).__name__}: {exc}"
            ) from exc
    return Triangulation(vertices, elements, refedge, (pairs, labels))
