"""Acceptance gate: one test per criterion, each printing its measured error.

The battery items are defined once, in ``magweyl.verify``: these tests call
its error functions and read its tolerances, so they and ``magweyl verify``
differ only in rigs (grid, field, gauges, seed, and the symbols and states a
criterion takes).  The checks that are no battery item live here alone.

Default rig: dim 2, n = 16, L = 6, Gauss-Legendre order 16.  Items that
need more momentum resolution than the default grid provides run on the
stated larger rig (commutators at n = 24; spectra and operator-level
coupling comparisons at n = 32, L = 8).
"""

import numpy as np
import pytest

from magweyl import coupling as C
from magweyl import fields as F
from magweyl import grid as G
from magweyl import moyal as M
from magweyl import quantize as Q
from magweyl import verify as V
from magweyl import wigner as W
from magweyl.config import field_from_config

QUAD = F.Quadrature(16)
RIG = dict(dim=2, n=16, L=6.0)


def report(num, name, error, tol, comparator="<"):
    ok = error < tol if comparator == "<" else error > tol
    print("criterion %2d [%s] %-38s %s= %10.3e  (%s %8.1e)"
          % (num, "PASS" if ok else "FAIL", name, "err", error, comparator, tol))
    assert ok, "%s: %.3e %s %.1e violated" % (name, error, comparator, tol)


def check(num, name, error, label=None):
    """Report a battery item's error against its registry tolerance."""
    report(num, label or name.replace("_", " "), error, V.TOLERANCES[name])


def default_grid():
    return G.PhaseSpaceGrid(**RIG)


def transversal_rig():
    B = F.polynomial_field_2d([(1.0, (0, 0)), (0.3, (1, 0)), (-0.15, (0, 2))])
    return B, F.transversal_gauge(B, QUAD)


def cubic_potential_rig():
    # a cubic potential that is no transversal gauge, and its field d1 A2 - d2 A1
    A = F.polynomial_potential(2, [[(0.03, (0, 3)), (-0.89, (2, 1)), (-0.18, (1, 1))],
                                   [(-0.9, (0, 0)), (0.3, (0, 3)), (-0.13, (3, 0))]])
    d1a2 = A.poly.component(1).derivative(0).components[0]
    d2a1 = A.poly.component(0).derivative(1).components[0]
    return F.polynomial_field_2d(d1a2 + [(-c, pw) for c, pw in d2a1]), A


@pytest.mark.parametrize("build,seed", [(transversal_rig, 101), (cubic_potential_rig, 5)],
                         ids=["transversal", "cubic"])
def test_criterion_01_stokes_and_cocycle(build, seed):
    B, A = build()
    errors = V.stokes_and_cocycle(default_grid(), B, [A], QUAD, np.random.default_rng(seed))
    for name, error in errors.items():
        check(1, name, error)


def test_criterion_02_weyl_composition_law():
    B = F.linear_field_2d(1.0, [0.2, 0.1])
    rig = (default_grid(), B, [F.transversal_gauge(B, QUAD)], QUAD, np.random.default_rng(102))
    check(2, "weyl_composition_law", V.weyl_composition_law(*rig))


def test_criterion_03_gauge_covariance():
    g = default_grid()
    rng = np.random.default_rng(103)
    b = 1.0
    A = F.symmetric_gauge(b)
    A2 = F.landau_gauge(b)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1))]]))
    worst_f = 0.0
    worst_ev = 0.0
    for _ in range(5):
        f = G.gaussian_symbol(2, x_center=rng.uniform(-0.5, 0.5, 2),
                              p_center=rng.uniform(-0.5, 0.5, 2),
                              x_width=rng.uniform(0.8, 1.1), p_width=rng.uniform(0.8, 1.1))
        kA = Q.op_quantize(f, A, g)
        kA2 = Q.op_quantize(f, A2, g)
        conj = Q.gauge_conjugate(kA, rho, "forward")
        worst_f = max(worst_f, np.linalg.norm(kA2.kernel - conj.kernel)
                      / np.linalg.norm(kA.kernel))
        worst_ev = max(worst_ev, V.spectrum_error(kA.eigenvalues(), kA2.eigenvalues()))
    report(3, "gauge covariance (Frobenius)", worst_f, 1e-6)
    check(3, "gauge_spectrum_agreement", worst_ev)


def test_criterion_04_homomorphism():
    g = default_grid()
    b = 1.0
    B = F.constant_field_2d(b)
    A = F.symmetric_gauge(b)
    f = G.gaussian_symbol(2, x_width=1.2, p_width=0.9)
    h = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.1, p_width=0.9)
    check(4, "homomorphism_structural", V.homomorphism(g, B, [A], QUAD, None, symbols=(f, h)))
    prod = M.moyal_product(f, h, B, A, g, QUAD)
    worst = 0.0
    for off in ([0, 0], [2, 0], [0, -2]):
        si = (g.n + off[0], g.n + off[1])
        ki = (g.n // 2, g.n // 2)
        xi = (np.array([g.midpoint_axis[s] for s in si]), np.zeros(2))
        direct = M.moyal_direct_probe(f, h, B, xi, points_per_axis=16,
                                      config_halfwidth=4.5, momentum_halfwidth=4.5,
                                      quad=QUAD)
        worst = max(worst, abs(complex(prod.values[si + ki]) - direct))
    report(4, "homomorphism (direct probes)", worst, 1e-2)


def test_criterion_05_trace_identity_and_duality():
    g = default_grid()
    b = 1.0
    B = F.constant_field_2d(b)
    A = F.symmetric_gauge(b)
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(5):
        f = G.gaussian_symbol(2, x_center=rng.uniform(-0.5, 0.5, 2), x_width=1.0, p_width=0.9)
        h = G.gaussian_symbol(2, x_center=rng.uniform(-0.5, 0.5, 2),
                              p_center=rng.uniform(-0.3, 0.3, 2), x_width=0.9, p_width=1.0)
        worst = max(worst, V.trace_identity(g, B, [A], QUAD, rng, symbols=(f, h)))
    check(5, "trace_identity", worst)

    gd = G.PhaseSpaceGrid(2, 32, 8.0)
    worst = 0.0
    for _ in range(3):
        c1, c2, c3 = rng.uniform(-0.4, 0.4, size=(3, 2))
        f = G.gaussian_symbol(2, x_center=c1, x_width=1.3, p_width=0.7)
        h = G.gaussian_symbol(2, x_center=c2, x_width=1.2, p_width=0.8)
        w = G.gaussian_symbol(2, x_center=c3, x_width=1.1, p_width=0.7)
        fh = M.moyal_product(f, h, B, A, gd, QUAD, check_gauge=False)
        hw = M.moyal_product(h, w, B, A, gd, QUAD, check_gauge=False)
        lhs = fh.cell_weight * (fh.values * w.sample(gd, "midpoint").values).sum()
        rhs = fh.cell_weight * (f.sample(gd, "midpoint").values * hw.values).sum()
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    report(5, "cyclic duality", worst, 1e-6)


def test_criterion_06_nonmagnetic_reduction():
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    B = F.zero_field(1)
    A = F.zero_potential(1)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.8)
    h = G.gaussian_symbol(1, x_center=[0.3], p_center=[-0.2], x_width=0.8, p_width=0.8)
    prod = M.moyal_product(f, h, B, A, g, QUAD, check_gauge=False)
    worst = 0.0
    for si, ki in [(g.n, g.n // 2), (g.n + 2, g.n // 2), (g.n - 2, g.n // 2 + 1),
                   (g.n + 4, g.n // 2 - 1), (g.n - 4, g.n // 2)]:
        xi = (np.array([g.midpoint_axis[si]]), np.array([g.momentum_axis[ki]]))
        direct = M.moyal_direct_probe(f, h, B, xi, points_per_axis=16,
                                      config_halfwidth=4.0, momentum_halfwidth=4.0,
                                      quad=QUAD)
        worst = max(worst, abs(complex(prod.values[si, ki]) - direct))
    report(6, "nonmagnetic product vs direct integral", worst, 1e-3)


def test_criterion_07_wigner_isometries():
    g = default_grid()
    A = F.symmetric_gauge(1.0)
    rig = (g, F.constant_field_2d(1.0), [A], QUAD, np.random.default_rng(107))
    check(7, "fourier_wigner_isometry", V.fourier_wigner_isometry(*rig))
    u = G.gaussian_wavefunction(g, center=[0.3, -0.2], width=0.7)
    check(7, "rank_one_reconstruction", V.rank_one_reconstruction(*rig, state=u))

    f = G.gaussian_symbol(2, x_center=[0.2, 0.1], p_center=[0.3, 0.0],
                          x_width=1.0, p_width=1.0)
    op = Q.op_quantize(f, A, g)
    lhs = op.hs_norm()
    rhs = f.sample(g, "standard").l2_norm()
    report(7, "hilbert-schmidt isometry", abs(lhs - rhs) / rhs, 1e-6)


@pytest.mark.parametrize("field_cfg,label", [
    ({"kind": "constant", "dim": 2, "b": 1.0}, "constant field"),
    ({"kind": "linear", "dim": 2, "b0": 1.0, "gradient": [0.25, 0.0]}, "linear field"),
])
def test_criterion_08_commutators(field_cfg, label):
    g = G.PhaseSpaceGrid(2, 24, 6.0)  # commutator needs n >= 24 momentum resolution
    B = field_from_config(field_cfg)
    A = F.transversal_gauge(B, QUAD)
    u = G.gaussian_wavefunction(g, width=1.0)
    P = [Q.momentum_operator(A, j, g).operator_matrix for j in range(2)]
    check(8, "momentum_commutator_field", V.field_commutator_error(P, B, u),
          "momentum commutator, %s" % label)
    # the opposite operator order misses by a clean sign, not by magnitude
    report(8, "opposite order, %s" % label, V.field_commutator_error(P[::-1], B, u), 1.9,
           comparator=">")


DEGREE_2 = C.PolynomialSymbol(2, [(1.0, (2, 0)), (0.5, (1, 1)), (-0.3, (0, 1)), (1.0, (0, 0))])
DEGREE_3 = C.PolynomialSymbol(2, [(1.0, (2, 1))])
LINEAR = [F.zero_potential(2), F.symmetric_gauge(1.0), F.landau_gauge(1.0), F.landau_gauge(2.0),
          F.constant_potential([0.5, -0.2])]
NONLINEAR = [F.polynomial_potential(2, [[(0.5, (2, 0))], [(0.3, (0, 3))]]),
             F.polynomial_potential(2, [[(0.5, (2, 0)), (0.2, (1, 1))], [(0.3, (0, 3))]])]


# degree <= 2 symbols agree for every polynomial potential, degree 3 for linear ones
@pytest.mark.parametrize("f,A", [(DEGREE_2, A) for A in LINEAR + NONLINEAR]
                         + [(DEGREE_3, A) for A in LINEAR])
def test_criterion_09_coupling_agreement(f, A):
    check(9, "coupling_degree2_equal",
          V.coupling_agreement(default_grid(), None, [A], QUAD, None, symbol=f),
          "degree-%d coupling agreement, %s" % (f.degree, A.name))


def test_criterion_09_coupling_dichotomy():
    g = default_grid()
    # degree 3 with a quadratic potential: the lattice difference matches the
    # symbolically derived constant 1/6 and is macroscopic
    import sympy as sp

    x1, p1, p2, y1, y2, t = sp.symbols("x1 p1 p2 y1 y2 t", real=True)
    avg = sp.integrate((x1 + t * y1) ** 2, (t, sp.Rational(-1, 2), sp.Rational(1, 2)))
    tau = y1 * p1 + y2 * (p2 - avg)
    oracle = sp.expand(sp.simplify(
        (sp.I**3 * sp.diff(sp.exp(-sp.I * tau), y1, y1, y2)).subs({y1: 0, y2: 0})))
    correction = sp.expand(oracle - p1**2 * (p2 - x1**2))
    assert correction == sp.Rational(1, 6)
    Aq = F.polynomial_potential(2, [[], [(1.0, (2, 0))]])
    diff, rep = C.coupling_discrepancy(DEGREE_3, Aq, g)
    report(9, "degree-3 matches symbolic oracle", np.abs(diff.values - 1.0 / 6.0).max(), 1e-8)
    report(9, "degree-3 discrepancy is macroscopic", rep["max_abs_difference"], 1e-3,
           comparator=">")

    # operator-level equivalence on the wide rig (wrap floor below 1e-8)
    gw = G.PhaseSpaceGrid(2, 32, 8.0)
    Aw = F.add_gradient(F.symmetric_gauge(1.0),
                        F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.1, (2, 1))]])))
    fc = C.PolynomialSymbol(2, [(1.0, (2, 1))]).with_momentum_cutoff(0.85)
    lhs = Q.op_quantize(fc, Aw, gw)
    rhs = Q.op_quantize(C.covariant_coupling(fc, Aw, gw, QUAD, "midpoint"), None, gw)
    err = np.linalg.norm(lhs.kernel - rhs.kernel) / np.linalg.norm(lhs.kernel)
    report(9, "covariant quantization equivalence", err, 1e-8)


def test_criterion_10_landau_levels():
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    A = F.symmetric_gauge(1.0)
    # kinetic symbol |p|^2 with Gaussian momentum cutoff of scale 30 (bias on
    # the lowest levels ~ <p^4>/(2 * 900), well under the 2% window); the
    # periodized (unmasked) kernel is the spectral operator
    f = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))]).with_momentum_cutoff(30.0)
    op = Q.op_quantize(f, A, g, mask=False)
    evs = op.eigenvalues()
    for k, target in enumerate([1.0, 3.0, 5.0, 7.0]):
        close = evs[np.abs(evs - target) / target < 0.02]
        print("criterion 10 level %d: %d eigenvalues within 2%% of %.0f"
              % (k, len(close), target))
        assert len(close) >= 10, "no Landau cluster at %.0f" % target
    nearest = [float(evs[np.abs(evs - t).argmin()]) for t in (1.0, 3.0, 5.0, 7.0)]
    worst = max(abs(nv - t) / t for nv, t in zip(nearest, (1.0, 3.0, 5.0, 7.0)))
    report(10, "landau level positions", worst, 0.02)


@pytest.mark.parametrize("dim, n", [(1, 4), (2, 4), (2, 8)], ids=["1", "2", "2-n8"])
def test_criterion_11_weyl_span(dim, n):
    g = G.PhaseSpaceGrid(dim, n, 2.0)
    A = None if dim == 1 else F.symmetric_gauge(1.0)
    rep = W.weyl_span_probe(A, g, quad=QUAD)
    print("criterion 11 [%s] span rank dim=%d n=%d: %d of %d"
          % ("PASS" if rep["rank"] == rep["full_dim"] else "FAIL",
             dim, n, rep["rank"], rep["full_dim"]))
    assert rep["rank"] == rep["full_dim"]
