from math import factorial

import numpy as np
import pytest
from scipy.special import roots_legendre

from gapfem import DIRICHLET, structured_square_mesh
from gapfem.quadrature import physical_points, rule_values, segment_rule, triangle_rule


def monomial_integral(a, b):
    # int_{ref triangle} x^a y^b = a! b! / (a + b + 2)!
    return factorial(a) * factorial(b) / factorial(a + b + 2)


# the collapsed Gauss rules above the degree-10 one: 14 is the a priori
# identity check's, the others those of the oracles
COLLAPSED_DEGREES = [11, 12, 14, 16, 20, 24]


@pytest.mark.parametrize("degree", [2, 10, 11, 14, 16, 20, 24])
def test_triangle_rule_exactness(degree):
    bary, w = triangle_rule(degree)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = 0.5 * np.sum(w * bary[:, 1] ** a * bary[:, 2] ** b)
            assert val == pytest.approx(monomial_integral(a, b), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_segment_rule_exactness(n):
    x, w = segment_rule(n)
    for p in range(2 * n):
        assert np.sum(w * x**p) == pytest.approx(1.0 / (p + 1), rel=1e-13)


@pytest.mark.parametrize("n", range(1, 21))
def test_segment_rule_matches_scipy_legendre(n):
    x, w = segment_rule(n)
    xs, ws = roots_legendre(n)
    assert np.allclose(x, 0.5 * (xs + 1.0), rtol=0.0, atol=1e-14)
    assert np.allclose(w, 0.5 * ws, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [0, -1])
def test_segment_rule_rejects_empty(n):
    with pytest.raises(ValueError):
        segment_rule(n)


def test_points_inside_reference_domain():
    bary, _ = triangle_rule(10)
    assert np.all(bary >= 0) and np.all(bary <= 1)
    assert np.allclose(bary.sum(axis=1), 1.0)


@pytest.mark.parametrize("degree", COLLAPSED_DEGREES)
def test_collapsed_rule_positive_inside(degree):
    bary, w = triangle_rule(degree)
    assert np.all(bary > 0) and np.all(bary < 1)
    assert np.allclose(bary.sum(axis=1), 1.0)
    assert np.all(w > 0)


def test_cached_arrays_are_read_only():
    mesh = structured_square_mesh(2, lambda mid: DIRICHLET)
    calls = []

    def f(x):
        calls.append(x.shape)
        return x[..., 0] * x[..., 1]

    values = rule_values(f, mesh, 10)
    assert values.shape == (mesh.num_elements, 25)
    assert rule_values(f, mesh, 10) is values and len(calls) == 1
    cached = [
        *triangle_rule(10), *triangle_rule(2), *triangle_rule(16), *segment_rule(4),
        physical_points(mesh, 10), values,
    ]
    for a in cached:
        with pytest.raises(ValueError):
            a *= 2.0
    assert physical_points(mesh, 10) is cached[-2]
    assert triangle_rule(10)[1].sum() == pytest.approx(1.0, abs=1e-13)
