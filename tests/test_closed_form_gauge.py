"""Field presets keep a closed-form potential; the transversal gauge is gauge data over it.

The Gaussian preset keeps its centred gauge ``A_c``; its transversal gauge
is ``(A_c, rho)`` with ``rho(x) = -Gamma^{A_c}([0, x])`` integrated at the
rule of each call.  These tests pin ``A_c`` against the field and at its
centre, its circulations against the flux, the independence of an order-48
circulation from order-16 ones, and the accuracy of its order-16
circulations against the ray route they replace.  Polynomial presets keep their exact
transversal ``PolynomialMap``: the transversal gauge carries it as ``poly``,
so its second derivatives are analytic.
"""

import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G

QUAD = F.Quadrature(16)
Q48 = F.Quadrature(48)


def eval_only(B):
    """The same field with no closed form: its transversal gauge takes the ray route."""
    return F.MagneticField(B.dim, B.eval, degree_hint=B.degree_hint, _validate=False)


def flux_from_origin(B, a, b):
    # the transversal gauge circulates zero along rays, so Gamma([a, b]) is this flux
    return F.flux_triangle(B, np.zeros(2), a, b, Q48)


# ---------------------------------------------------------------------------
# the centred gauge of the Gaussian field

@pytest.mark.parametrize("amplitude, width, center", [
    (1.4, 1.6, (-1.0, -1.0)), (0.6, 2.4, (0.4, -0.7)), (1.2, 0.8, (2.0, 1.5))])
def test_centred_gauge_generates_the_field(amplitude, width, center):
    B = F.gaussian_field_2d(amplitude, width, center)
    assert F.check_potential_matches_field(B._potential, B) <= 1e-8


def test_centred_gauge_is_finite_at_the_centre():
    # centred at the origin, so the points c + t e_1 are exact
    amplitude, width = 1.3, 1.7
    A = F.gaussian_field_2d(amplitude, width)._potential
    assert np.array_equal(A(np.zeros(2)), np.zeros(2))
    # A_c(t e_1) = G(t e_1) (0, t), and G -> amplitude / 2 as u -> 0, u underflowing included
    t = np.array([1e-300, 1e-160, 1e-12, 1e-6, 1e-3])
    u = t**2 / (2 * width**2)
    G_vals = A(t[:, None] * np.array([1.0, 0.0]))[:, 1] / t
    assert np.all(np.abs(G_vals - 0.5 * amplitude * (1 - u / 2 + u**2 / 6)) <= 1e-15)
    # a segment through the centre, with a node on it (order 1: nodes 1/4 and 3/4)
    assert F.circulation(A, np.array([-1.0, 0.0]), np.array([3.0, 0.0]), F.Quadrature(1)) == 0.0


def test_closed_form_circulation_is_the_flux():
    # the circulation around a triangle is the flux through it (Stokes)
    B = F.gaussian_field_2d(1.4, 1.6, (-1.0, -1.0))
    A = B._potential
    p, a, b = np.random.default_rng(21).uniform(-8.0, 8.0, size=(3, 1000, 2))
    loop = F.circulation(A, p, a, QUAD) + F.circulation(A, a, b, QUAD) + F.circulation(A, b, p, QUAD)
    assert np.abs(loop - F.flux_triangle(B, p, a, b, Q48)).max() <= 1e-12


# ---------------------------------------------------------------------------
# the transversal gauge over it

def test_order48_circulation_is_independent_of_order16():
    # a narrow field far from the origin, where order 16 misses the rays
    B = F.gaussian_field_2d(1.4, 0.6, (6.0, -5.0))
    A = F.transversal_gauge(B, QUAD)
    base, terms = A._gauge
    assert base is B._potential and terms == (None,)
    a, b = np.random.default_rng(22).uniform(-8.0, 8.0, size=(2, 1000, 2))
    ref = flux_from_origin(B, a, b)
    assert np.abs(F.circulation(A, a, b, Q48) - ref).max() <= 1e-12
    # the same gauge with rho frozen at order 16 shares its error
    frozen = F.add_gradient(base, F.ScalarPotential(
        2, lambda x: -F.circulation(base, np.zeros(2), x, QUAD), lambda x: np.zeros(np.shape(x))))
    assert np.abs(F.circulation(frozen, a, b, Q48) - ref).max() > 1e-11


def test_order16_table_is_no_less_accurate_than_the_ray_route():
    # the gauge-spectrum rig at the corner of its field range where the ray
    # route is worst: amplitude 1.4, width 1.6, centre (-1, -1)
    g = G.PhaseSpaceGrid(2, 20, 8.0)
    B = F.gaussian_field_2d(1.4, 1.6, (-1.0, -1.0))
    i, j = np.random.default_rng(0).integers(0, g.size, size=(2, 2000))
    pts = g.config_points()
    ref = flux_from_origin(B, pts[i], pts[j])
    closed = F.circulation(F.transversal_gauge(B, QUAD), pts[i], pts[j], QUAD)
    ray = F.circulation(F.transversal_gauge(eval_only(B), QUAD), pts[i], pts[j], QUAD)
    err, ray_err = np.abs(closed - ref).max(), np.abs(ray - ref).max()
    assert err <= 1e-12 and ray_err > 1e-7
    assert err <= ray_err


def test_point_values_stay_the_ray_integral():
    B = F.gaussian_field_2d(1.1, 1.9, (0.5, 0.2))
    x = np.random.default_rng(23).uniform(-6.0, 6.0, size=(50, 2))
    assert np.array_equal(F.transversal_gauge(B, QUAD)(x),
                          F.transversal_gauge(eval_only(B), QUAD)(x))


def test_circulation_panels_follow_the_closed_form():
    # the centred gauge applies the rule on both halves of a segment; so do the
    # transversal gauge over it and a gauge transform of that
    B = F.gaussian_field_2d(1.1, 1.9, (0.5, 0.2))
    At = F.transversal_gauge(B, QUAD)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1))]]))
    for A in (B._potential, At, F.add_gradient(At, rho)):
        assert F._circulation_panels(A) == 2
    for A in (F.transversal_gauge(eval_only(B), QUAD), F.symmetric_gauge(1.0),
              F.transversal_gauge(F.linear_field_2d(0.8, [0.3, -0.5]), QUAD),
              F.add_gradient(F.symmetric_gauge(1.0), rho)):
        assert F._circulation_panels(A) == 1


# ---------------------------------------------------------------------------
# polynomial presets carry their transversal PolynomialMap

@pytest.mark.parametrize("make", [
    lambda: F.constant_field_2d(1.7),
    lambda: F.constant_field(3, [[0.0, 0.5, -0.2], [-0.5, 0.0, 0.3], [0.2, -0.3, 0.0]]),
    lambda: F.zero_field(2),
    lambda: F.linear_field_2d(0.8, [0.3, -0.5]),
    lambda: F.polynomial_field_2d([(1.0, (0, 0)), (0.3, (1, 0)), (-0.15, (0, 2)), (0.2, (2, 1))]),
], ids=["constant", "constant-dim3", "zero", "linear", "polynomial"])
def test_polynomial_transversal_gauge_carries_its_polynomial(make):
    B = make()
    A = F.transversal_gauge(B, QUAD)
    assert A.poly is not None and A._gauge is None
    assert A.degree_hint == B.degree_hint + 1 == A.poly.degree
    x = np.random.default_rng(24).uniform(-3.0, 3.0, size=(40, B.dim))
    assert np.abs(A.poly(x) - A(x)).max() <= 1e-13
    assert F.check_potential_matches_field(A, B) <= 1e-8


def test_constant_field_transversal_gauge_is_the_symmetric_gauge():
    x = np.random.default_rng(25).uniform(-3.0, 3.0, size=(40, 2))
    A = F.transversal_gauge(F.constant_field_2d(1.7), QUAD)
    assert np.abs(A.poly(x) - F.symmetric_gauge(1.7)(x)).max() <= 1e-15


def test_cubic_field_transversal_second_derivatives_are_analytic():
    # B_12 = 1 + 0.2 x2 - 0.3 x1 x2^2 + 0.5 x1^3, so
    # A_1 = -(x2 / 2 + 0.2/3 x2^2 - 0.06 x1 x2^3 + 0.1 x1^3 x2),
    # A_2 = x1 / 2 + 0.2/3 x1 x2 - 0.06 x1^2 x2^2 + 0.1 x1^4
    B = F.polynomial_field_2d([(1.0, (0, 0)), (0.2, (0, 1)), (-0.3, (1, 2)), (0.5, (3, 0))])
    A = F.transversal_gauge(B, QUAD)
    x = np.random.default_rng(26).uniform(-3.0, 3.0, size=(200, 2))
    x1, x2 = x[:, 0], x[:, 1]
    expect = {  # (j, k, comp): d_j d_k A_comp
        (0, 0, 0): -0.6 * x1 * x2,
        (0, 1, 0): -(0.3 * x1**2 - 0.18 * x2**2),
        (1, 1, 0): 0.36 * x1 * x2 - 0.4 / 3,
        (0, 0, 1): 1.2 * x1**2 - 0.12 * x2**2,
        (0, 1, 1): -0.24 * x1 * x2 + 0.2 / 3,
        (1, 1, 1): -0.12 * x1**2,
    }
    for (j, k, comp), value in expect.items():
        for jj, kk in ((j, k), (k, j)):
            assert np.abs(A.second_derivative(jj, kk, comp)(x) - value).max() <= 1e-12
