import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl import wigner as W
from magweyl.errors import ResourceLimitError

QUAD = F.Quadrature(16)


def rig():
    return G.PhaseSpaceGrid(2, 16, 6.0)


def random_pair(g, rng, width_lo=0.55, width_hi=0.75):
    def one():
        return G.gaussian_wavefunction(
            g, center=rng.uniform(-0.6, 0.6, size=g.dim), width=rng.uniform(width_lo, width_hi),
            momentum=rng.uniform(-1, 1, size=g.dim))
    return one(), one()


def test_value_at_origin_is_inner_product():
    g = rig()
    rng = np.random.default_rng(41)
    u, v = random_pair(g, rng)
    A = F.symmetric_gauge(1.0)
    table = W.fourier_wigner(u, v, A, QUAD)
    assert abs(table.values[g.n // 2, g.n // 2, g.n // 2, g.n // 2] - v.inner(u)) < 1e-12


def test_matches_direct_inner_products():
    g = rig()
    rng = np.random.default_rng(42)
    u, v = random_pair(g, rng)
    A = F.symmetric_gauge(1.0)
    table = W.fourier_wigner(u, v, A, QUAD)
    for _ in range(20):
        ix = tuple(rng.integers(0, g.n, size=2))
        ip = tuple(rng.integers(0, g.n, size=2))
        x = np.array([g.config_axis[i] for i in ix])
        p = np.array([g.momentum_axis[i] for i in ip])
        direct = v.inner(Q.weyl_apply(A, (x, p), u, QUAD))
        assert abs(table.values[ix + ip] - direct) < 1e-10


def test_matches_factorized_assembly():
    # independent route: phase-corrected outer product, gathered along the
    # shifted diagonals, then transformed in the diagonal variable
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    rng = np.random.default_rng(43)
    u, v = random_pair(g, rng)
    A = F.polynomial_potential(1, [[(0.4, (2,))]])
    table = W.fourier_wigner(u, v, A, QUAD)
    m1 = np.outer(u.values, np.conj(v.values)) * np.conj(G.segment_phase_matrix(A, g, QUAD))
    for s in range(-4, 5):
        out = np.zeros(g.n, dtype=complex)
        for yi in range(g.n):
            ai = yi + s
            if 0 <= ai < g.n:
                z = g.config_axis[yi] + 0.5 * s * g.h
                out += g.h * m1[ai, yi] * np.exp(-1j * z * g.momentum_axis)
        xi_index = s + g.n // 2
        assert np.abs(table.values[xi_index] - out).max() < 1e-11


def test_isometry():
    g = rig()
    rng = np.random.default_rng(44)
    A = F.symmetric_gauge(1.0)
    for _ in range(20):
        u, v = random_pair(g, rng)
        table = W.fourier_wigner(u, v, A, QUAD)
        lhs = table.l2_norm()
        rhs = u.norm() * v.norm()
        assert abs(lhs - rhs) / rhs < 1e-6


def test_polarized_unitarity_pattern():
    g = rig()
    rng = np.random.default_rng(45)
    A = F.symmetric_gauge(1.0)
    u, v = random_pair(g, rng)
    u2, v2 = random_pair(g, rng)
    t1 = W.fourier_wigner(u, v, A, QUAD)
    t2 = W.fourier_wigner(u2, v2, A, QUAD)
    lhs = t1.cell_weight * np.vdot(t1.values, t2.values)
    rhs = u.inner(u2) * np.conj(v.inner(v2))
    assert abs(lhs - rhs) / abs(rhs) < 1e-6


def test_pairing_against_quantization():
    # <v, op(F) u> equals the lattice pairing of the coefficient table with
    # the reflected symplectic transform of F
    g = rig()
    rng = np.random.default_rng(46)
    u, v = random_pair(g, rng)
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=1.0)
    table = f.sample(g, "standard")
    op = Q.op_quantize(table, A, g)
    lhs = v.inner(op.apply(u))
    wtab = W.fourier_wigner(u, v, A, QUAD)
    integrand = Q._weyl_sum_coefficients(table).reshape(wtab.values.shape)
    rhs = wtab.cell_weight * (wtab.values * integrand).sum()
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


# ---------------------------------------------------------------------------
# rank-one reconstruction

def test_rank_one_reconstruction():
    g = rig()
    u = G.gaussian_wavefunction(g, center=[0.3, -0.2], width=0.7)
    A = F.symmetric_gauge(1.0)
    symbol = W.rank_one_symbol(u, u, A, QUAD)
    op = Q.op_quantize(symbol, A, g)
    target = W.rank_one_kernel(u, u)
    err = np.linalg.norm(op.kernel - target.kernel) / np.linalg.norm(target.kernel)
    assert err < 1e-6


def test_rank_one_orthogonal_pair_traceless():
    g = rig()
    u = G.gaussian_wavefunction(g, width=0.8)
    odd = G.WaveFunction(g, g.config_points()[:, 0].reshape(g.shape) * u.values)
    v = (1.0 / odd.norm()) * odd
    assert abs(v.inner(u)) < 1e-12
    A = F.symmetric_gauge(1.0)
    symbol = W.rank_one_symbol(u, v, A, QUAD)
    op = Q.op_quantize(symbol, A, g)
    assert abs(op.trace()) < 1e-8


def test_rank_one_linear_in_first_state():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = None
    u1 = G.gaussian_wavefunction(g, center=[0.4], width=0.8)
    u2 = G.gaussian_wavefunction(g, momentum=[0.7], width=0.7)
    v = G.gaussian_wavefunction(g, width=0.9)
    s12 = W.rank_one_symbol(u1 + u2, v, A, QUAD)
    s1 = W.rank_one_symbol(u1, v, A, QUAD)
    s2 = W.rank_one_symbol(u2, v, A, QUAD)
    scale = np.abs(s12.values).max()
    assert np.abs(s12.values - s1.values - s2.values).max() / scale < 1e-12


# ---------------------------------------------------------------------------
# Hilbert-Schmidt correspondence

def test_hs_norm_basics():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    zero = G.OperatorKernel(g, np.zeros((16, 16)))
    assert zero.hs_norm() == 0.0
    u = G.gaussian_wavefunction(g, width=0.8)
    proj = W.rank_one_kernel(u, u)
    assert abs(proj.hs_norm() - 1.0) < 1e-12


def test_hs_isometry_with_symbol_norm():
    g = rig()
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_center=[0.2, 0.1], p_center=[0.3, 0.0],
                          x_width=1.0, p_width=1.0)
    op = Q.op_quantize(f, A, g)
    lhs = op.hs_norm()
    rhs = f.sample(g, "standard").l2_norm()
    assert abs(lhs - rhs) / rhs < 1e-6


# ---------------------------------------------------------------------------
# span probe

def test_span_probe_identity_only():
    g = G.PhaseSpaceGrid(1, 4, 2.0)
    rep = W.weyl_span_probe(None, g, sample=[(np.zeros(1), np.zeros(1))], quad=QUAD)
    assert rep == {"sample_size": 1, "rank": 1, "full_dim": 16}


def test_span_probe_full_lattice_1d():
    g = G.PhaseSpaceGrid(1, 4, 2.0)
    rep = W.weyl_span_probe(None, g, quad=QUAD)
    assert rep["sample_size"] == 16
    assert rep["rank"] == 16
    assert rep["full_dim"] == 16


def test_span_probe_full_lattice_2d_magnetic():
    g = G.PhaseSpaceGrid(2, 4, 2.0)
    A = F.symmetric_gauge(1.0)
    rep = W.weyl_span_probe(A, g, quad=QUAD)
    assert rep["rank"] == 256
    assert rep["full_dim"] == 256


def test_span_probe_resource_guard():
    g = G.PhaseSpaceGrid(2, 16, 6.0)
    with pytest.raises(ResourceLimitError):
        W.weyl_span_probe(None, g, quad=QUAD)
