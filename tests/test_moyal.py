import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import moyal as M
from magweyl import quantize as Q
from magweyl.errors import GaugeMismatchError, ResourceLimitError

QUAD = F.Quadrature(16)


def rig_2d():
    return G.PhaseSpaceGrid(2, 16, 6.0)


# ---------------------------------------------------------------------------
# unit and gauge structure

def test_constant_symbol_is_two_sided_unit():
    g = rig_2d()
    B = F.constant_field_2d(1.0)
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=0.42, p_width=0.30)
    one = G.constant_symbol(2)
    left = M.moyal_product(one, f, B, A, g, QUAD)
    right = M.moyal_product(f, one, B, A, g, QUAD)
    expect = f.sample(g, "midpoint")
    assert np.abs(left.inner_band() - expect.inner_band()).max() < 1e-10
    assert np.abs(right.inner_band() - expect.inner_band()).max() < 1e-10


def test_gauge_mismatch_rejected():
    g = rig_2d()
    B = F.constant_field_2d(1.0)
    wrong = F.symmetric_gauge(0.5)
    f = G.gaussian_symbol(2, x_width=0.8, p_width=0.8)
    with pytest.raises(GaugeMismatchError):
        M.moyal_product(f, f, B, wrong, g, QUAD)


def test_gauge_independence_of_product():
    g = rig_2d()
    b = 1.0
    B = F.constant_field_2d(b)
    f = G.gaussian_symbol(2, x_center=[0.3, 0.0], x_width=0.8, p_width=0.9)
    h = G.gaussian_symbol(2, x_center=[-0.2, 0.4], p_center=[0.2, -0.1],
                          x_width=0.9, p_width=1.0)
    out1 = M.moyal_product(f, h, B, F.symmetric_gauge(b), g, QUAD)
    out2 = M.moyal_product(f, h, B, F.landau_gauge(b), g, QUAD)
    scale = np.abs(out1.values).max()
    assert np.abs(out1.values - out2.values).max() / scale < 1e-8


# ---------------------------------------------------------------------------
# homomorphism / associativity (kernel-level structure)

def test_product_kernel_equals_operator_product():
    # the kernel route makes the homomorphism structural: the product symbol
    # is defined through composed kernels, so quantizing it reproduces the
    # operator product by construction
    g = rig_2d()
    b = 1.0
    B = F.constant_field_2d(b)
    A = F.symmetric_gauge(b)
    f = G.gaussian_symbol(2, x_width=1.0, p_width=1.0)
    h = G.gaussian_symbol(2, x_center=[0.2, -0.3], x_width=0.9, p_width=0.9)
    lhs = M.product_kernel(f, h, A, g, QUAD)
    rhs = G.OperatorKernel.from_operator_matrix(
        g, Q.op_quantize(f, A, g).operator_matrix @ Q.op_quantize(h, A, g).operator_matrix)
    err = np.linalg.norm(lhs.kernel - rhs.kernel) / np.linalg.norm(rhs.kernel)
    assert err < 1e-12


def test_product_table_requantizes_to_operator_product():
    # quantizing the reconstructed product table reproduces the composed
    # kernel up to the out-of-class leak: roundoff at a well-resolved 1D
    # rig, a small documented defect at the coarse 2D rig
    g1 = G.PhaseSpaceGrid(1, 64, 10.0)
    B0, A0 = F.zero_field(1), F.zero_potential(1)
    f1 = G.gaussian_symbol(1, x_width=0.9, p_width=1.15)
    h1 = G.gaussian_symbol(1, x_center=[0.3], x_width=1.0, p_width=1.1)
    prod1 = M.moyal_product(f1, h1, B0, A0, g1, QUAD, check_gauge=False)
    lhs1 = Q.op_quantize(prod1, A0, g1)
    rhs1 = M.product_kernel(f1, h1, A0, g1, QUAD)
    assert np.linalg.norm(lhs1.kernel - rhs1.kernel) / np.linalg.norm(rhs1.kernel) < 1e-12

    g2 = rig_2d()
    B2, A2 = F.constant_field_2d(1.0), F.symmetric_gauge(1.0)
    f2 = G.gaussian_symbol(2, x_width=1.0, p_width=0.84)
    h2 = G.gaussian_symbol(2, x_center=[0.2, -0.3], x_width=0.9, p_width=0.9)
    prod2 = M.moyal_product(f2, h2, B2, A2, g2, QUAD)
    lhs2 = Q.op_quantize(prod2, A2, g2)
    rhs2 = M.product_kernel(f2, h2, A2, g2, QUAD)
    assert np.linalg.norm(lhs2.kernel - rhs2.kernel) / np.linalg.norm(rhs2.kernel) < 1e-4


def test_product_associative_on_lattice():
    # machine-exact at a well-resolved 1D rig
    g1 = G.PhaseSpaceGrid(1, 64, 10.0)
    B0, A0 = F.zero_field(1), F.zero_potential(1)
    f1 = G.gaussian_symbol(1, x_width=0.9, p_width=1.15)
    h1 = G.gaussian_symbol(1, x_center=[0.3], x_width=1.0, p_width=1.1)
    w1 = G.gaussian_symbol(1, p_center=[0.2], x_width=1.1, p_width=1.2)
    left = M.moyal_product(M.moyal_product(f1, h1, B0, A0, g1, QUAD, check_gauge=False),
                           w1, B0, A0, g1, QUAD, check_gauge=False)
    right = M.moyal_product(f1, M.moyal_product(h1, w1, B0, A0, g1, QUAD, check_gauge=False),
                            B0, A0, g1, QUAD, check_gauge=False)
    scale = np.abs(left.values).max()
    assert np.abs(left.values - right.values).max() / scale < 1e-10


def test_product_associative_magnetic_2d():
    # limited by the out-of-class leak of iterated products at the coarse rig
    g = rig_2d()
    B = F.constant_field_2d(1.0)
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_width=1.0, p_width=0.84)
    h = G.gaussian_symbol(2, x_center=[0.3, 0.1], x_width=0.9, p_width=0.9)
    w = G.gaussian_symbol(2, p_center=[0.2, 0.0], x_width=1.1, p_width=0.85)
    left = M.moyal_product(M.moyal_product(f, h, B, A, g, QUAD), w, B, A, g, QUAD,
                           check_gauge=False)
    right = M.moyal_product(f, M.moyal_product(h, w, B, A, g, QUAD), B, A, g, QUAD,
                            check_gauge=False)
    scale = np.abs(left.values).max()
    assert np.abs(left.values - right.values).max() / scale < 1e-5


def test_involution_reverses_product():
    g = rig_2d()
    B = F.constant_field_2d(1.0)
    A = F.symmetric_gauge(1.0)
    f = G.SymbolEvaluator(2, lambda x, p: np.exp(-(x**2).sum(-1) / 2.0 - (p**2).sum(-1) / 3.4
                                                 + 1j * x[..., 0] * p[..., 1]))
    h = G.gaussian_symbol(2, x_center=[0.2, 0.0], x_width=0.9, p_width=1.4,
                          amplitude=1.0 + 0.5j)
    lhs = M.moyal_product(f, h, B, A, g, QUAD).conj()
    rhs = M.moyal_product(h.conj(), f.conj(), B, A, g, QUAD)
    scale = np.abs(lhs.values).max()
    assert np.abs(lhs.values - rhs.values).max() / scale < 1e-10


def test_involution_basics():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.8)
    tab = f.sample(g, "midpoint")
    assert np.abs(tab.conj().values - tab.values).max() == 0.0  # real symbol
    z = G.SymbolGrid(g, "midpoint", tab.values * (0.3 + 0.7j))
    assert np.abs(z.conj().conj().values - z.values).max() == 0.0


# ---------------------------------------------------------------------------
# trace identity and duality

def test_phase_space_integral_zero():
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    z = G.SymbolGrid(g, "midpoint", np.zeros((15, 8)))
    assert z.integral() == 0.0


def test_integral_of_reconstruction_is_kernel_trace():
    # the alias-doubled values sit on the midpoint classes carrying diagonal
    # information, so the lattice integral telescopes to the weighted trace
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    rng = np.random.default_rng(33)
    k = G.OperatorKernel(g, rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    rec = G.symbol_from_kernel(k, None, QUAD)
    assert abs(rec.integral() - k.trace()) < 1e-12 * abs(k.trace())


def test_trace_identity_constant_field():
    g = rig_2d()
    b = 1.0
    B = F.constant_field_2d(b)
    A = F.symmetric_gauge(b)
    rng = np.random.default_rng(31)
    for _ in range(5):
        xc, hc = rng.uniform(-0.5, 0.5, size=(2, 2))
        f = G.gaussian_symbol(2, x_center=xc, x_width=1.0, p_width=0.9)
        h = G.gaussian_symbol(2, x_center=hc, p_center=[0.2, 0.0], x_width=0.9, p_width=1.0)
        prod = M.moyal_product(f, h, B, A, g, QUAD, check_gauge=False)
        lhs = prod.integral()
        fg = f.sample(g, "midpoint").values * h.sample(g, "midpoint").values
        rhs = G.SymbolGrid(g, "midpoint", fg).integral()
        assert abs(lhs - rhs) / abs(rhs) < 1e-6


def test_cyclic_duality():
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    b = 1.0
    B = F.constant_field_2d(b)
    A = F.symmetric_gauge(b)
    rng = np.random.default_rng(32)
    for _ in range(3):
        c1, c2, c3 = rng.uniform(-0.4, 0.4, size=(3, 2))
        f = G.gaussian_symbol(2, x_center=c1, x_width=1.3, p_width=0.7)
        h = G.gaussian_symbol(2, x_center=c2, x_width=1.2, p_width=0.8)
        w = G.gaussian_symbol(2, x_center=c3, x_width=1.1, p_width=0.7)
        fh = M.moyal_product(f, h, B, A, g, QUAD, check_gauge=False)
        hw = M.moyal_product(h, w, B, A, g, QUAD, check_gauge=False)
        cell = fh.cell_weight
        lhs = cell * (fh.values * w.sample(g, "midpoint").values).sum()
        rhs = cell * (f.sample(g, "midpoint").values * hw.values).sum()
        assert abs(lhs - rhs) / abs(lhs) < 1e-6


# ---------------------------------------------------------------------------
# direct-integral oracle

def test_direct_probe_zero_symbol():
    B = F.zero_field(1)
    f = G.gaussian_symbol(1)
    zero = G.SymbolEvaluator(1, lambda x, p: np.zeros(np.broadcast_shapes(
        x.shape[:-1], p.shape[:-1])))
    val = M.moyal_direct_probe(f, zero, B, (np.zeros(1), np.zeros(1)), points_per_axis=8)
    assert abs(val) < 1e-14


def test_direct_probe_resource_guard():
    B = F.zero_field(2)
    f = G.gaussian_symbol(2)
    with pytest.raises(ResourceLimitError):
        M.moyal_direct_probe(f, f, B, (np.zeros(2), np.zeros(2)), points_per_axis=64)


def test_nonmagnetic_product_matches_direct_integral_1d():
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    B = F.zero_field(1)
    A = F.zero_potential(1)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.8)
    h = G.gaussian_symbol(1, x_center=[0.3], p_center=[-0.2], x_width=0.8, p_width=0.8)
    prod = M.moyal_product(f, h, B, A, g, QUAD, check_gauge=False)
    # probe at five interior lattice points of the midpoint table
    probes = [(g.n, g.n // 2), (g.n + 2, g.n // 2), (g.n - 2, g.n // 2 + 1),
              (g.n + 4, g.n // 2 - 1), (g.n - 4, g.n // 2)]
    for si, ki in probes:
        xi = (np.array([g.midpoint_axis[si]]), np.array([g.momentum_axis[ki]]))
        direct = M.moyal_direct_probe(f, h, B, xi, points_per_axis=16,
                                      config_halfwidth=4.0, momentum_halfwidth=4.0)
        lattice = prod.values[si, ki]
        assert abs(lattice - direct) < 1e-3


def test_magnetic_product_matches_direct_integral_2d():
    g = rig_2d()
    b = 1.0
    B = F.constant_field_2d(b)
    A = F.symmetric_gauge(b)
    f = G.gaussian_symbol(2, x_width=1.2, p_width=0.9)
    h = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.1, p_width=0.9)
    prod = M.moyal_product(f, h, B, A, g, QUAD, check_gauge=False)
    xi = (np.zeros(2), np.zeros(2))
    direct = M.moyal_direct_probe(f, h, B, xi, points_per_axis=16,
                                  config_halfwidth=4.5, momentum_halfwidth=4.5)
    lattice = prod.values[g.n, g.n, g.n // 2, g.n // 2]
    assert abs(lattice - direct) / abs(direct) < 1e-2
