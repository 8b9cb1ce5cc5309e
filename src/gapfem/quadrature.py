"""Fixed quadrature rules on the reference triangle and on segments.

Triangle rules are given as barycentric points and weights summing to one;
physical integrals scale by the element area.  Two tiers are used: the
degree-10 symmetric rule, for every degree up to 10 and so for all
analytic data, and a collapsed-coordinate Gauss rule of any higher degree,
for the a priori identity check and for oracles.  Every Gauss rule comes
from numpy's Gauss-Legendre nodes (`leggauss`).

Every cached array (rules, per-mesh physical points and analytic field
values) is handed out read-only, so no caller can alter a later quadrature.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# Gauss points of every side rule for analytic data: 8 keeps side averages
# well below the 1e-10 contract tolerances, 4 does not on coarse meshes
SIDE_POINTS = 8
# degree of every volume rule for analytic data, so that projections, the
# Stokes indicator, the oscillation and the exact errors share one
# `rule_values` cache per mesh
VOLUME_DEGREE = 10


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


def physical_points(mesh, degree):
    """Points of `triangle_rule(degree)` on all elements: (ne, nq, 2), once per mesh.

    Each point is sum_k lambda_k v_k, formed for all elements as one
    batched product (nq, 3) @ (ne, 3, 2): at 12,800 elements it took 0.9 ms
    against 21 ms for the same contraction by `np.einsum` (one CPU), and
    the two differ by at most one ulp.
    """

    def build():
        p = mesh.vertices[mesh.elements]  # (ne, 3, 2)
        return _frozen(np.matmul(triangle_rule(degree)[0], p))

    return mesh.cached(("physical_points", degree), build)


def rule_values(f, mesh, degree):
    """f at `physical_points(mesh, degree)`, evaluated once per mesh, f and degree.

    f maps an (..., 2) point array to values of shape (...,), (..., 2) or
    (..., 2, 2); the result has shape (ne, nq, ...).  The cache is keyed by
    the f object and lives as long as the mesh, so pass hashable, long-lived
    callables (the `ProblemSpec` fields), not closures built per call.
    """

    def build():
        pts = physical_points(mesh, degree)
        return _frozen(np.asarray(f(pts), dtype=float))

    return mesh.cached(("rule_values", f, degree), build)


def side_points(mesh, tpoints, sides=None):
    """Map [0,1] points along sides (in stored endpoint order): (ns, nq, 2)."""
    sv = mesh.side_vertices if sides is None else mesh.side_vertices[sides]
    a = mesh.vertices[sv[:, 0]]
    b = mesh.vertices[sv[:, 1]]
    return a[:, None, :] + tpoints[None, :, None] * (b - a)[:, None, :]
