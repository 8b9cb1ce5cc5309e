"""Fixed quadrature rules on the reference triangle and on segments.

Triangle rules are given as barycentric points and weights summing to one;
physical integrals scale by the element area.  Two tiers are used: the
degree-10 symmetric rule, for every degree up to 10 and so for all
analytic data, and a collapsed-coordinate Gauss rule of any higher degree,
for the a priori identity check and for oracles.  Every Gauss rule comes
from numpy's Gauss-Legendre nodes (`leggauss`).

Every cached array (rules, per-mesh physical points and analytic field
values) is handed out read-only, so no caller can alter a later quadrature.
The volume integrals of analytic data run over `element_blocks`, so none of
their integrands is formed for the whole mesh at once.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

# Gauss points of every side rule for analytic data: 8 keeps side averages
# well below the 1e-10 contract tolerances, 4 does not on coarse meshes
SIDE_POINTS = 8
# degree of every volume rule for analytic data (projections, the Stokes
# indicator, the oscillation and the exact errors), so that the indicator
# and the exact errors share one `rule_values` cache per mesh
VOLUME_DEGREE = 10
# elements per `element_blocks` block: at 25 points an (nb, nq, 2, 2) block
# array takes 1.6 MB, against 10.24 MB on a 12,800-element mesh
BLOCK_ELEMENTS = 2048


def _frozen(a):
    a.flags.writeable = False
    return a


def _dunavant10():
    # symmetric 25-point rule of degree 10 (Dunavant 1985)
    groups = [
        (np.array([1 / 3, 1 / 3, 1 / 3]), 0.090817990382754, 1),
        (np.array([0.028844733232685, 0.485577633383657, 0.485577633383657]),
         0.036725957756467, 3),
        (np.array([0.781036849029926, 0.109481575485037, 0.109481575485037]),
         0.045321059435528, 3),
        (np.array([0.141707219414880, 0.307939838764121, 0.550352941820999]),
         0.072757916845420, 6),
        (np.array([0.025003534762686, 0.246672560639903, 0.728323904597411]),
         0.028327242531057, 6),
        (np.array([0.009540815400299, 0.066803251012200, 0.923655933587500]),
         0.009421666963733, 6),
    ]
    pts, ws = [], []
    for bary, w, mult in groups:
        if mult == 1:
            combos = [(0, 1, 2)]
        elif mult == 3:
            combos = [(0, 1, 2), (1, 0, 2), (2, 1, 0)]
        else:
            combos = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        seen = set()
        for c in combos:
            p = tuple(bary[list(c)])
            if p in seen:
                continue
            seen.add(p)
            pts.append(p)
            ws.append(w)
    return np.array(pts), np.array(ws)


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Barycentric points (nq, 3) and weights (nq,) summing to 1."""
    if degree <= 10:
        return tuple(map(_frozen, _dunavant10()))
    # collapsed (Duffy) tensor rule x = u (1 - v), y = v: n Gauss points in u
    # and n + 1 in v, whose weights take the (1 - v) Jacobian; exact to
    # degree 2n - 1 >= degree + 2
    n = degree // 2 + 2
    xu, wu = segment_rule(n)
    xv, wv = segment_rule(n + 1)
    u, v = np.meshgrid(xu, xv, indexing="ij")
    w = np.outer(wu, wv * (1.0 - xv))
    x = u * (1.0 - v)
    y = v
    bary = np.stack([1.0 - x - y, x, y], axis=-1).reshape(-1, 3)
    return _frozen(bary), _frozen(2.0 * w.ravel())


@lru_cache(maxsize=None)
def segment_rule(npoints):
    """Gauss-Legendre points on [0, 1] and weights summing to 1."""
    x, w = leggauss(npoints)
    return _frozen(0.5 * (x + 1.0)), _frozen(0.5 * w)


def _rule_points(mesh, rows, degree):
    # sum_k lambda_k v_k, one batched product: each row the same for any rows
    return np.matmul(triangle_rule(degree)[0], mesh.vertices[mesh.elements[rows]])


def physical_points(mesh, degree):
    """Points of `triangle_rule(degree)` on all elements: (ne, nq, 2), once per mesh.

    Each point is sum_k lambda_k v_k, formed for all elements as one
    batched product (nq, 3) @ (ne, 3, 2): at 12,800 elements it took 0.9 ms
    against 21 ms for the same contraction by `np.einsum` (one CPU), and
    the two differ by at most one ulp.
    """
    return mesh.cached(("physical_points", degree),
                       lambda: _frozen(_rule_points(mesh, slice(None), degree)))


class ElementBlock(NamedTuple):
    """Elements `rows` (a slice or an index array) of `mesh` and a rule's
    points on them: the rows of `physical_points` bit for bit, formed for
    the block alone."""

    mesh: object
    rows: slice | np.ndarray
    points: np.ndarray


def element_blocks(mesh, degree, rows=None):
    """The mesh as consecutive `ElementBlock`s of BLOCK_ELEMENTS elements (the
    last may hold fewer) with the points of `triangle_rule(degree)`; with an
    index array rows, the blocks hold those elements only, in its order."""
    for start in range(0, mesh.num_elements if rows is None else len(rows), BLOCK_ELEMENTS):
        block = slice(start, start + BLOCK_ELEMENTS)
        block = block if rows is None else rows[block]
        yield ElementBlock(mesh, block, _rule_points(mesh, block, degree))


def rule_values(f, mesh, degree):
    """f at `physical_points(mesh, degree)`, evaluated once per mesh, f and
    degree, at the points of BLOCK_ELEMENTS elements at a time (the
    whole-mesh points are not formed).

    f maps an (..., 2) point array to values of shape (...,), (..., 2) or
    (..., 2, 2); the result has shape (ne, nq, ...).  The cache is keyed by
    the f object and lives as long as the mesh, so pass hashable, long-lived
    callables (the `ProblemSpec` fields), not closures built per call.

    f must be pointwise: its value at a point may not depend on the other
    points of the array.  The rows of elements that `mesh.refine_bisection`
    copied with their vertex row unchanged are taken from the parent mesh's
    array (its "carried" cache entry, dropped here); those points are the
    parent's bit for bit, so the rows equal a fresh evaluation exactly, and
    f is evaluated only at the points of the other elements.  Several fields
    from one evaluator fill their entries in one pass: `joint_rule_values`.
    """
    return joint_rule_values((f,), lambda x: (f(x),), mesh, degree)[0]


def joint_rule_values(fs, joint, mesh, degree):
    """The `rule_values` of each callable of fs, the missing ones from one
    pass over the element blocks not carried for all of them: joint maps a
    point array to the tuple of the fs' values, each bit for bit its f's."""
    ne, keys = mesh.num_elements, [("rule_values", f, degree) for f in fs]
    missing = [i for i, key in enumerate(keys) if key not in mesh]
    out, fresh = {}, np.zeros(ne, dtype=bool)
    for i in missing:
        rows, values = mesh.pop_cached(("carried",) + keys[i]) or ((), None)
        fresh |= ~np.isin(np.arange(ne), rows)
        if values is not None:
            out[i] = np.empty((ne,) + values.shape[1:])
            out[i][rows] = values
    for block in element_blocks(mesh, degree, np.flatnonzero(fresh)):
        for i, new in enumerate(joint(block.points)):
            if i in missing:
                new = np.asarray(new, dtype=float)
                if i not in out:
                    out[i] = np.empty((ne,) + new.shape[1:])
                out[i][block.rows] = new
    return tuple(mesh.cached(key, lambda: _frozen(out[i])) for i, key in enumerate(keys))


def side_points(mesh, tpoints, sides=None):
    """Map [0,1] points along sides (in stored endpoint order): (ns, nq, 2)."""
    sv = mesh.side_vertices if sides is None else mesh.side_vertices[sides]
    a = mesh.vertices[sv[:, 0]]
    b = mesh.vertices[sv[:, 1]]
    return a[:, None, :] + tpoints[None, :, None] * (b - a)[:, None, :]
