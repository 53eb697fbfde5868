"""Gauss orders derived from the declared polynomial degree.

A potential or field that declares its degree is integrated with the
fewest Gauss-Legendre nodes that are still exact, capped by the caller's
rule; data without a degree keep the full rule.  Each exact route is pinned
against the full order-16 route on the same inputs (the same evaluator
with its degree withheld), the point counts pin the orders actually used,
and both general-tau kernel routes (separable and per-difference) are
pinned against their defining sum.  A
declared degree too low for its evaluator is refused at construction.
With exact rules, gauge covariance of spectra holds to roundoff, and the
constant symbol quantizes to the identity on both evaluator routes.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magweyl import coupling as C
from magweyl import fields as F
from magweyl import grid as G
from magweyl import moyal as M
from magweyl import quantize as Q
from magweyl import verify as V
from magweyl.config import field_from_config, potential_from_config
from magweyl.errors import InputError
from mask_oracle import difference_mask

QUAD = F.Quadrature(16)


def undeclared(data):
    """The same evaluator with no degree: integrated with the full rule."""
    if isinstance(data, F.MagneticField):
        return F.MagneticField(data.dim, data.eval, _validate=False)
    return F.VectorPotential(data.dim, data.eval, _validate=False)


def counted(data, calls):
    """``data`` with an evaluator that appends the number of points of each call."""
    def ev(x):
        calls.append(int(np.prod(np.shape(x)[:-1])))
        return data.eval(x)

    if isinstance(data, F.MagneticField):
        return F.MagneticField(data.dim, ev, degree_hint=data.degree_hint, _validate=False)
    return F.VectorPotential(data.dim, ev, degree_hint=data.degree_hint, poly=data.poly,
                             _validate=False)


def linear_field():
    return F.linear_field_2d(1.0, [0.2, 0.1])


def cubic_potential():
    return F.polynomial_potential(2, [[(0.3, (3, 0)), (-0.2, (1, 2)), (0.5, (0, 1))],
                                      [(0.4, (2, 1)), (0.1, (0, 3)), (-0.7, (1, 0))]])


# ---------------------------------------------------------------------------
# the derived orders

@pytest.mark.parametrize("make, order", [
    (lambda: F.zero_potential(2), 1),
    (lambda: F.symmetric_gauge(1.0), 1),
    (lambda: F.polynomial_potential(2, [[(1.0, (2, 0))], []]), 2),
    (cubic_potential, 2),
    (lambda: F.constant_field_2d(1.0), 1),
    (linear_field, 2),
    (lambda: F.polynomial_field_2d([(1.0, (1, 2))]), 3),
    (lambda: F.transversal_gauge(linear_field(), QUAD), 2),
    (lambda: F.gaussian_field_2d(1.0, 1.6), 16),
    (lambda: F.transversal_gauge(F.gaussian_field_2d(1.0, 1.6), QUAD), 16),
])
def test_exact_rule_order(make, order):
    data = make()
    assert F._exact_rule(QUAD, data).order == order
    # the caller's order caps the derived one
    assert F._exact_rule(F.Quadrature(1), data).order == 1


def test_one_gauss_rule_per_order(monkeypatch):
    A = cubic_potential()
    rule = F._exact_rule(QUAD, A)
    assert F._exact_rule(F.Quadrature(12), A) is rule and not rule.nodes.flags.writeable
    make_field = lambda: F.polynomial_field_2d([(1.0, (1, 2))])
    make_field()
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda order: calls.append(order) or leggauss(order))
    # the degree checks build no rule again: orders 2 and 3, then 3 and 4
    cubic_potential()
    make_field()
    assert calls == []


# ---------------------------------------------------------------------------
# each exact route against the order-16 route

def test_symmetric_phase_table_matches_order_16():
    g = G.PhaseSpaceGrid(2, 16, 8.0)
    A = F.symmetric_gauge(1.0)
    exact = G.segment_phase_matrix(A, g, QUAD)
    assert np.abs(exact - G.segment_phase_matrix(undeclared(A), g, QUAD)).max() <= 1e-13


def test_cubic_potential_circulation_matches_order_16():
    A = cubic_potential()
    a, b = np.random.default_rng(1).uniform(-8.0, 8.0, size=(2, 500, 2))
    ref = F.circulation(undeclared(A), a, b, QUAD)
    assert np.abs(F.circulation(A, a, b, QUAD) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_transversal_table_of_linear_field_matches_order_16():
    g = G.PhaseSpaceGrid(2, 12, 6.0)
    B = linear_field()
    exact = G.segment_phase_matrix(F.transversal_gauge(B, QUAD), g, QUAD)
    ref = G.segment_phase_matrix(F.transversal_gauge(undeclared(B), QUAD), g, QUAD)
    assert np.abs(exact - ref).max() <= 1e-13


def test_linear_field_flux_matches_order_16():
    B = linear_field()
    a, b, c = np.random.default_rng(2).uniform(-4.0, 4.0, size=(3, 500, 2))
    ref = F.flux_triangle(undeclared(B), a, b, c, QUAD)
    assert np.abs(F.flux_triangle(B, a, b, c, QUAD) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_moyal_product_and_direct_probe_match_order_16():
    g = G.PhaseSpaceGrid(2, 12, 6.0)
    B, A = F.constant_field_2d(1.0), F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_width=1.2, p_width=0.9)
    h = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.1, p_width=0.9)
    exact = M.moyal_product(f, h, B, A, g, QUAD).values
    ref = M.moyal_product(f, h, undeclared(B), undeclared(A), g, QUAD).values
    assert np.abs(exact - ref).max() <= 1e-14 * np.abs(ref).max()
    xi = (np.array([0.25, -0.5]), np.zeros(2))
    probe = M.moyal_direct_probe(f, h, B, xi, points_per_axis=10, quad=QUAD)
    probe_ref = M.moyal_direct_probe(f, h, undeclared(B), xi, points_per_axis=10, quad=QUAD)
    assert abs(probe - probe_ref) <= 1e-14 * abs(probe_ref)


# ---------------------------------------------------------------------------
# point counts: the orders the integrals actually use

def test_symmetric_phase_table_evaluates_each_pair_once():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    calls = []
    G.segment_phase_matrix(counted(F.symmetric_gauge(1.0), calls), g, QUAD)
    # one node per segment, in 16 blocks of 4 rows: 4 (64 + 60 + ... + 4) = 2176,
    # the 2080 pairs on and above the diagonal and 96 below it in the diagonal blocks
    assert sum(calls) == 2176 <= 0.55 * g.size**2


def test_constant_field_flux_evaluates_once_per_triangle():
    calls = []
    a, b, c = np.random.default_rng(3).uniform(-2.0, 2.0, size=(3, 40, 2))
    F.flux_triangle(counted(F.constant_field_2d(1.0), calls), a, b, c, QUAD)
    assert sum(calls) == 40


def test_gaussian_transversal_gauge_keeps_sixteen_nodes():
    # no declared degree: 16 ray nodes per potential point, 16 segment nodes
    calls = []
    A = F.transversal_gauge(counted(F.gaussian_field_2d(1.0, 1.6), calls), QUAD)
    a, b = np.random.default_rng(4).uniform(-2.0, 2.0, size=(2, 10, 2))
    F.circulation(A, a, b, QUAD)
    assert sum(calls) == 16 * 16 * 10


# ---------------------------------------------------------------------------
# declared degrees: validation and gauge transforms

@pytest.mark.parametrize("hint", [-1, 1.5, "2", True])
def test_bad_degree_hint_rejected(hint):
    with pytest.raises(InputError):
        F.VectorPotential(2, F.symmetric_gauge(1.0).eval, degree_hint=hint)
    with pytest.raises(InputError):
        F.MagneticField(2, F.constant_field_2d(1.0).eval, degree_hint=hint)


def test_degree_hint_contradicting_poly_rejected():
    A = F.symmetric_gauge(1.0)
    with pytest.raises(InputError):
        F.VectorPotential(2, A.eval, degree_hint=2, poly=A.poly)
    assert F.VectorPotential(2, A.eval, poly=A.poly).degree_hint == 1
    # the counting-wrapper form (hint and poly copied from one potential) stays valid
    for P in (A, cubic_potential(), F.zero_potential(2), F.landau_gauge(0.0)):
        assert F.VectorPotential(2, P.eval, degree_hint=P.degree_hint,
                                 poly=P.poly).degree_hint == P.poly.degree


def test_quadrature_compares_and_hashes_by_order():
    assert F.Quadrature(16) == F.Quadrature(16)
    assert hash(F.Quadrature(16)) == hash(F.Quadrature(16))
    assert F.Quadrature(3) != F.Quadrature(4)


def test_declared_degree_too_low_rejected():
    # the fewest-node rule of the declared degree misses the evaluator's integrals
    gauss = F.gaussian_field_2d(1.0, 1.6).eval
    with pytest.raises(InputError, match="too low"):
        F.MagneticField(2, gauss, degree_hint=0)
    with pytest.raises(InputError, match="too low"):
        F.VectorPotential(2, cubic_potential().eval, degree_hint=1)
    # validation off skips the check, as for counting wrappers and derived gauges
    assert F.MagneticField(2, gauss, degree_hint=0, _validate=False).degree_hint == 0


def test_presets_pass_the_declared_degree_check():
    for B in (F.constant_field_2d(1.0), F.linear_field_2d(1.0, [0.2, 0.1]), F.zero_field(3),
              F.polynomial_field_2d([(0.7, (0, 0)), (0.4, (1, 0)), (-0.3, (0, 2))]),
              F.constant_field(3, [[0, 1, 0], [-1, 0, 2], [0, -2, 0]])):
        assert F.MagneticField(B.dim, B.eval, degree_hint=B.degree_hint).degree_hint is not None
    for A in (F.zero_potential(2), F.constant_potential([0.5, -1.0]), F.symmetric_gauge(1.0),
              F.landau_gauge(2.0), F.linear_potential(np.arange(9.0).reshape(3, 3)),
              cubic_potential()):
        assert F.VectorPotential(A.dim, A.eval, degree_hint=A.degree_hint).degree_hint is not None
    for path in (Path(__file__).resolve().parents[1] / "configs").glob("*.json"):
        cfg = json.loads(path.read_text())
        B = field_from_config(cfg["field"])
        for gcfg in cfg["gauges"]:
            potential_from_config(gcfg, B, QUAD)


def test_add_gradient_degree():
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1)), (0.2, (3, 0))]]))
    A2 = F.add_gradient(F.symmetric_gauge(1.0), rho)
    assert A2.degree_hint == 2 and A2.poly is None
    assert F.add_gradient(F.zero_potential(2), F.ScalarPotential.from_poly(
        F.PolynomialMap(2, [[(1.0, (1, 0))]]))).degree_hint == 0
    gauss = F.transversal_gauge(F.gaussian_field_2d(1.0, 1.6), QUAD)
    assert F.add_gradient(gauss, rho).degree_hint is None
    opaque = F.ScalarPotential(2, rho.value, rho.gradient)
    assert F.add_gradient(F.symmetric_gauge(1.0), opaque).degree_hint is None
    a, b = np.random.default_rng(5).uniform(-4.0, 4.0, size=(2, 200, 2))
    ref = F.circulation(undeclared(A2), a, b, QUAD)
    assert np.abs(F.circulation(A2, a, b, QUAD) - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# property: random planar polynomial potentials and fields

def _terms(draw, degree):
    powers = [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]
    chosen = draw(st.lists(st.sampled_from(powers), min_size=1, max_size=5, unique=True))
    if not any(sum(p) == degree for p in chosen):
        chosen.append((degree, 0))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(chosen), max_size=len(chosen)))
    return [(c, p) for c, p in zip(coeffs, chosen)]


@st.composite
def polynomial_data(draw):
    dA, dB = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    A = F.polynomial_potential(2, [_terms(draw, dA), _terms(draw, dA)])
    B = F.polynomial_field_2d(_terms(draw, dB))
    return A, B, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, database=None)
@given(data=polynomial_data())
def test_derived_order_matches_order_24(data):
    A, B, seed = data
    high = F.Quadrature(24)
    q, x, y, z = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(4, 64, 2))
    circ = F.circulation(A, q, q + x, high)
    circ_ref = F.circulation(undeclared(A), q, q + x, high)
    assert np.abs(circ - circ_ref).max() <= 1e-13 * max(1.0, np.abs(circ_ref).max())

    def flux(field, q, u, v):
        return F.flux_triangle(field, q, q + u, q + u + v, high)

    phi, phi_ref = flux(B, q, x, y), flux(undeclared(B), q, x, y)
    scale = max(1.0, np.abs(phi_ref).max())
    assert np.abs(phi - phi_ref).max() <= 1e-13 * scale
    # cocycle: the flux through the boundary of the tetrahedron <q, q+x, q+x+y, q+x+y+z> vanishes
    lhs = flux(B, q, x + y, z) + flux(B, q, x, y)
    rhs = flux(B, q + x, y, z) + flux(B, q, x, y + z)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, np.abs(lhs).max())


@st.composite
def gauge_and_rho(draw):
    if draw(st.booleans()):
        A = F.symmetric_gauge(draw(st.floats(-2.0, 2.0)))
    else:
        A = F.transversal_gauge(F.polynomial_field_2d(_terms(draw, draw(st.integers(0, 2)))))
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [_terms(draw, draw(st.integers(0, 3)))]))
    return A, rho


@settings(max_examples=30, deadline=None, database=None)
@given(half_n=st.integers(1, 4), data=gauge_and_rho())
def test_gauge_covariance_of_spectra(half_n, data):
    # with exact rules, A and A + grad rho quantize to unitarily equivalent operators
    A, rho = data
    g = G.PhaseSpaceGrid(2, 2 * half_n, 4.0)
    kinetic = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))]).with_momentum_cutoff(3.0)
    e1, e2 = (Q.op_quantize(kinetic, gauge, g, quad=QUAD, mask=False).eigenvalues()
              for gauge in (A, F.add_gradient(A, rho)))
    assert V.spectrum_error(e1, e2) <= 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(half_n=st.integers(1, 4), L=st.floats(1.0, 6.0), degree=st.integers(0, 3),
       default=st.booleans(), tau=st.floats(0.0, 1.0), hbar=st.floats(0.3, 2.0),
       mask=st.booleans(), data=st.data())
def test_constant_symbol_quantizes_to_identity(half_n, L, degree, default, tau, hbar, mask, data):
    # both evaluator routes (the kernel map at the defaults, else the general-tau
    # route): the constant 1 maps to I / h^N for every polynomial gauge
    g = G.PhaseSpaceGrid(2, 2 * half_n, L)
    A = F.polynomial_potential(2, [_terms(data.draw, degree), _terms(data.draw, degree)])
    params = Q.WeylParams() if default else Q.WeylParams(tau, hbar)
    kern = Q.op_quantize(G.constant_symbol(2), A, g, params, QUAD, mask=mask).kernel
    ident = np.eye(g.size) / g.config_weight
    assert np.abs(kern - ident).max() <= 1e-12 / g.config_weight


# ---------------------------------------------------------------------------
# the general-tau kernel route against its defining sum

def route_symbol(f, factored):
    """``f`` itself (the separable route) or the same function without factors."""
    return f if factored else G.SymbolEvaluator(f.dim, f.fn)


def route_cases(*cases):
    """Each case with factors (id: the case) and without them (id: ``<case>-per_difference``)."""
    ids = ["-".join(map(str, case)) for case in cases]
    return ([pytest.param(*case, True, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, False, id=i + "-per_difference") for case, i in zip(cases, ids)])


@pytest.mark.parametrize("mask,factored", route_cases((True,), (False,)))
def test_general_tau_route_matches_defining_sum(mask, factored):
    g = G.PhaseSpaceGrid(2, 6, 3.0)
    A = F.symmetric_gauge(0.8)
    tau, hbar = 0.3, 0.7
    f = route_symbol(G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9,
                                       amplitude=1.0 + 0.5j), factored)
    kern = Q.op_quantize(f, A, g, Q.WeylParams(tau, hbar), QUAD, mask=mask).kernel
    x = g.config_points()
    k = g.momentum_points()
    ref = np.zeros((g.size, g.size), dtype=complex)
    for i, j in itertools.product(range(g.size), repeat=2):
        vals = f((1.0 - tau) * x[i] + tau * x[j], hbar * k)
        ref[i, j] = g.momentum_weight * np.sum(np.exp(1j * k @ (x[i] - x[j])) * vals)
    ref *= np.exp(-1j * F.circulation(A, x[:, None], x[None], QUAD) / hbar)
    if mask:
        ref *= difference_mask(g)
    assert np.abs(kern - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("dim,n,factored", route_cases((1, 8), (2, 6), (3, 4)))
def test_general_tau_route_phase_rows_for_a_symbol_odd_in_p(dim, n, factored):
    # a symbol that is not even in p pins the sign of each axis's phase row
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    tau, hbar = 0.3, 0.7
    f = route_symbol(G.gaussian_symbol(dim, x_center=[0.2] * dim,
                                       p_center=[0.7, -0.4, 0.3][:dim], x_width=1.0,
                                       p_width=0.9, amplitude=1.0 + 0.5j), factored)
    kern = Q.op_quantize(f, None, g, Q.WeylParams(tau, hbar), QUAD, mask=False).kernel
    x, k = g.config_points(), g.momentum_points()
    vals = f(((1.0 - tau) * x[:, None] + tau * x[None])[:, :, None], hbar * k)
    ref = g.momentum_weight * (np.exp(1j * (x[:, None] - x[None]) @ k.T) * vals).sum(axis=-1)
    assert np.abs(kern - ref).max() <= 1e-13 * np.abs(ref).max()
