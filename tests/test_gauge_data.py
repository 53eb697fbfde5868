"""Gauge transforms stay data, and each potential integrates its segment table once.

``add_gradient(A, rho)`` keeps ``(A, rho)``: its circulation is
``Gamma^A([a, b]) + rho(b) - rho(a)`` in the point engine, and its lattice
segment table is the base table plus the lattice differences of ``rho``.
The table of every potential is memoized on it as one read-only entry per
``(grid, rule)``, and beside it the read-only phases ``exp(-i Gamma)`` of that
table.  These tests pin the memo (identity, read-only, replaced by another
grid or rule, bit-identical to a fresh table), the phase slot (the same
array again, replaced with its table, bit for bit ``exp(-i Gamma)``, read by
op_quantize at hbar = 1 only), the gauge-transformed
table against the full quadrature of the same evaluator, the quantization
against ``gauge_conjugate``, the finiteness check on ``rho`` in both engines,
and the exact ``rho`` part for a non-polynomial gauge function.  The
transversal gauge of the Gaussian field is itself gauge data over a closed
form, so its case is checked against the order-48 flux from the origin.
"""

import tracemalloc

import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl.errors import NumericError

QUAD = F.Quadrature(16)


def plain(A):
    """The same evaluator and declared degree, with no gauge data: the full quadrature."""
    return F.VectorPotential(A.dim, A.eval, degree_hint=A.degree_hint, _validate=False)


def poly_rho(dim, terms):
    return F.ScalarPotential.from_poly(F.PolynomialMap(dim, [terms]))


def sin_cos_rho():
    """``rho = 0.3 sin(x_1) cos(x_2)``: no polynomial, so no declared degree."""
    return F.ScalarPotential(
        2, lambda x: 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1]),
        lambda x: 0.3 * np.stack([np.cos(x[..., 0]) * np.cos(x[..., 1]),
                                  -np.sin(x[..., 0]) * np.sin(x[..., 1])], axis=-1),
        name="sincos")


def gaussian_field():
    return F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2))


def transversal_gaussian():
    return F.transversal_gauge(gaussian_field(), QUAD)


def full_quadrature(A, rhos, g):
    return G._segment_circulation(plain(A), g, QUAD)


def flux_plus_gauge(A, rhos, g):
    """Flux of the field through ``<0, x, y>`` at order 48, plus the lattice differences of rho.

    The transversal gauge's own table is gauge data over a closed form, so
    its order-16 ray quadrature is another definition, not the oracle.
    """
    pts = g.config_points()
    r = sum(rho(pts) for rho in rhos)
    flux = F.flux_triangle(gaussian_field(), np.zeros(2), pts[:, None], pts[None],
                           F.Quadrature(48))
    return flux + (r[None] - r[:, None])


def rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------
# the memo

def test_second_call_returns_the_same_read_only_table():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    gamma = G._segment_circulation(A, g, QUAD)
    assert G._segment_circulation(A, g, QUAD) is gamma
    assert not gamma.flags.writeable
    with pytest.raises(ValueError):
        gamma[0, 1] = 1.0
    # the exact rule is the key: another cap with the same derived rule hits
    assert G._segment_circulation(A, g, F.Quadrature(8)) is gamma


def test_another_grid_or_rule_replaces_the_one_entry():
    g, g2 = G.PhaseSpaceGrid(2, 8, 4.0), G.PhaseSpaceGrid(2, 6, 4.0)
    A = transversal_gaussian()
    first = G._segment_circulation(A, g, QUAD)
    other = G._segment_circulation(A, g2, QUAD)
    assert A._table[0] == (g2, QUAD) and A._table[1] is other
    again = G._segment_circulation(A, g, QUAD)
    assert again is not first and np.array_equal(again, first)
    coarse = G._segment_circulation(A, g, F.Quadrature(12))
    assert A._table[0] == (g, F.Quadrature(12)) and A._table[1] is coarse
    assert not np.array_equal(coarse, first)


@pytest.mark.parametrize("make", [
    lambda: F.symmetric_gauge(1.0),
    transversal_gaussian,
    lambda: F.add_gradient(transversal_gaussian(), sin_cos_rho()),
], ids=["symmetric", "transversal_gaussian", "gauge_transformed"])
def test_memo_hit_is_bit_identical_to_a_fresh_table(make):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = make()
    G._segment_circulation(A, g, QUAD)
    assert np.array_equal(G._segment_circulation(A, g, QUAD),
                          G._segment_circulation(make(), g, QUAD))


def test_phase_matrix_exponentiates_in_place():
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    A = F.symmetric_gauge(1.0)
    gamma = G._segment_circulation(A, g, QUAD)
    tracemalloc.start()
    try:
        lam = G.segment_phase_matrix(A, g, QUAD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(lam, np.exp(-1j * gamma))
    # the 16 MiB result is the one allocation; out of place needs about 32
    assert peak <= 17 * 2**20


def test_second_phase_call_returns_the_same_read_only_table():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    lam = G.segment_phase_matrix(A, g, QUAD)
    assert G.segment_phase_matrix(A, g, QUAD) is lam
    assert A._phase[0] is A._table[1] and A._phase[1] is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0, 1] = 1.0
    # no potential: a new table of ones each call, which callers may write
    ones = G.segment_phase_matrix(None, g, QUAD)
    assert ones.flags.writeable and ones is not G.segment_phase_matrix(None, g, QUAD)


def test_another_grid_or_rule_replaces_the_phases_with_the_table():
    g, g2 = G.PhaseSpaceGrid(2, 8, 4.0), G.PhaseSpaceGrid(2, 6, 4.0)
    A = transversal_gaussian()
    first = G.segment_phase_matrix(A, g, QUAD)
    # a new circulation table drops the phases of the old one at once
    G._segment_circulation(A, g2, QUAD)
    assert A._phase is None
    other = G.segment_phase_matrix(A, g2, QUAD)
    assert A._phase[0] is A._table[1] and other.shape == (36, 36)
    again = G.segment_phase_matrix(A, g, QUAD)
    assert again is not first and np.array_equal(again, first)
    coarse = G.segment_phase_matrix(A, g, F.Quadrature(12))
    assert A._table[0] == (g, F.Quadrature(12)) and A._phase[0] is A._table[1]
    assert A._phase[1] is coarse and not np.array_equal(coarse, first)


@pytest.mark.parametrize("make", [
    transversal_gaussian,
    lambda: F.add_gradient(transversal_gaussian(), sin_cos_rho()),
    lambda: F.add_gradient(F.symmetric_gauge(1.0), poly_rho(2, [(0.5, (1, 1))])),
], ids=["transversal_gaussian", "gauge_transformed", "symmetric_plus_gradient"])
def test_memoized_phases_are_the_exponentiated_table(make):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = make()
    lam = G.segment_phase_matrix(A, g, QUAD)
    assert np.array_equal(lam, np.exp(-1j * G._segment_circulation(A, g, QUAD)))


@pytest.mark.parametrize("tau", [0.5, 0.3])
def test_general_route_reads_the_phases_at_unit_hbar_only(tau):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9,
                          amplitude=1.0 + 0.5j)
    A = transversal_gaussian()
    kern = Q.op_quantize(f, A, g, Q.WeylParams(tau, 1.0), QUAD, mask=True).kernel
    assert A._phase is not None
    # the expression the route evaluated before the memo, bit for bit
    old = G._separable_kernel(f, g, tau, 1.0, True)
    phase = -1j * G._segment_circulation(A, g, QUAD)
    phase /= 1.0
    np.multiply(np.exp(phase, out=phase), old, out=old)
    assert np.array_equal(kern, old)
    # at hbar != 1 the route exponentiates Gamma / hbar itself
    A = transversal_gaussian()
    Q.op_quantize(f, A, g, Q.WeylParams(tau, 0.7), QUAD, mask=True)
    assert A._table is not None and A._phase is None


# ---------------------------------------------------------------------------
# gauge-transformed tables against the full quadrature

GAUGE_CASES = {
    "dim1-poly": lambda: (F.polynomial_potential(1, [[(0.2, (3,)), (-0.3, (1,))]]),
                          [poly_rho(1, [(0.1, (3,)), (0.4, (1,))])], 1, 12, full_quadrature),
    "dim2-symmetric": lambda: (F.symmetric_gauge(1.0),
                               [poly_rho(2, [(0.5, (1, 1)), (0.2, (3, 0))])], 2, 12,
                               full_quadrature),
    "dim2-transversal-gaussian": lambda: (
        transversal_gaussian(),
        [poly_rho(2, [(0.03, (2, 1)), (-0.02, (1, 2)), (0.01, (3, 0))])], 2, 12,
        flux_plus_gauge),
    "dim2-nested": lambda: (transversal_gaussian(),
                            [poly_rho(2, [(0.5, (1, 1))]), sin_cos_rho()], 2, 10,
                            full_quadrature),
    "dim3-poly": lambda: (F.linear_potential([[0.0, -0.5, 0.2], [0.5, 0.0, 0.0], [0.1, 0.3, 0.0]]),
                          [poly_rho(3, [(0.2, (1, 1, 1)), (-0.1, (0, 2, 0))]),
                           poly_rho(3, [(0.3, (0, 0, 2))])], 3, 4, full_quadrature),
}


@pytest.mark.parametrize("case", sorted(GAUGE_CASES))
def test_gauge_transformed_table_matches_full_quadrature(case):
    A, rhos, dim, n, oracle = GAUGE_CASES[case]()
    g = G.PhaseSpaceGrid(dim, n, 4.0)
    for rho in rhos:
        A = F.add_gradient(A, rho)
    gamma = G._segment_circulation(A, g, QUAD)
    assert rel_gap(gamma, oracle(A, rhos, g)) <= 1e-13
    assert np.array_equal(gamma, -gamma.T)
    # the point engine agrees with the table
    pts = g.config_points()
    assert rel_gap(F.circulation(A, pts[:, None], pts[None], QUAD), gamma) <= 1e-13


def test_gauge_transform_reuses_the_base_table():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = transversal_gaussian()
    A2 = F.add_gradient(A, sin_cos_rho())
    gamma2 = G._segment_circulation(A2, g, QUAD)
    base = A._table[1]
    assert A._table[0] == (g, QUAD)
    assert G._segment_circulation(A, g, QUAD) is base and G._segment_circulation(A2, g, QUAD) is gamma2


@pytest.mark.parametrize("tau, hbar", [(0.5, 1.0), (0.5, 0.7), (0.3, 1.0), (0.3, 0.7)])
def test_quantization_of_the_gauge_transform_is_the_gauge_conjugate(tau, hbar):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = transversal_gaussian()
    rho = poly_rho(2, [(0.05, (2, 1)), (0.1, (1, 1))])
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9,
                          amplitude=1.0 + 0.5j)
    params = Q.WeylParams(tau=tau, hbar=hbar)
    direct = Q.op_quantize(f, F.add_gradient(A, rho), g, params, quad=QUAD).kernel
    # at hbar != 1 the phase is exp(-i Gamma / hbar): conjugation by rho / hbar
    scaled = F.ScalarPotential(2, lambda x: rho(x) / hbar, rho.gradient)
    expect = Q.gauge_conjugate(Q.op_quantize(f, A, g, params, quad=QUAD), scaled).kernel
    assert np.abs(direct - expect).max() <= 1e-13 * np.abs(expect).max()


def test_weyl_operator_of_the_gauge_transform_is_the_gauge_conjugate():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A, rho = transversal_gaussian(), sin_cos_rho()
    xi = (np.array([2 * g.h, -g.h]), np.array([0.6, -0.3]))
    direct = Q.weyl_matrix(F.add_gradient(A, rho), xi, g, QUAD).kernel
    expect = Q.gauge_conjugate(Q.weyl_matrix(A, xi, g, QUAD), rho).kernel
    assert np.abs(direct - expect).max() <= 1e-13 * np.abs(expect).max()


# ---------------------------------------------------------------------------
# the rho part

def test_nonfinite_gauge_function_is_refused_by_both_engines():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    bad = F.ScalarPotential(2, lambda x: np.where(x[..., 0] > 1.0, np.nan, 0.0),
                            lambda x: np.zeros(np.shape(x)))
    A2 = F.add_gradient(F.symmetric_gauge(1.0), bad)
    # the gradient is finite, so only the rho values can fail
    assert np.all(np.isfinite(A2.eval(g.config_points())))
    with pytest.raises(NumericError):
        G.segment_phase_matrix(A2, g, QUAD)
    with pytest.raises(NumericError):
        F.circulation(A2, np.zeros(2), np.array([2.0, 0.0]), QUAD)
    assert A2._table is None


def test_non_polynomial_gauge_function_is_exact():
    # the rho part of a circulation is rho(b) - rho(a), not a quadrature of grad rho
    A = F.symmetric_gauge(1.0)
    rho = sin_cos_rho()
    A2 = F.add_gradient(A, rho)
    assert A2.degree_hint is None
    a, b = np.random.default_rng(7).uniform(-4.0, 4.0, size=(2, 500, 2))
    part = F.circulation(A2, a, b, QUAD) - F.circulation(A, a, b, QUAD)
    exact = rho(b) - rho(a)
    assert np.abs(part - exact).max() <= 1e-13 * np.abs(exact).max()
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    r = rho(g.config_points())
    table_part = G._segment_circulation(A2, g, QUAD) - G._segment_circulation(A, g, QUAD)
    assert np.abs(table_part - (r[None] - r[:, None])).max() <= 1e-13 * np.abs(r).max()
