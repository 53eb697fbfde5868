from functools import reduce

import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import moyal as M
from magweyl import quantize as Q
from magweyl.errors import GaugeMismatchError, InputError, ResourceLimitError

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


@pytest.mark.parametrize("gauge", ["symmetric", "transversal_gaussian"])
def test_product_uses_one_phase_table(monkeypatch, gauge):
    # the product equals the symbol of the composed magnetic kernels.  On a fresh
    # potential the band route's factors and inverse map share one phase table: the
    # base potential's, built once; the twisted route (the symmetric gauge is affine)
    # builds none.  The composed kernel builds one in the transversal gauge and none
    # in the symmetric gauge, whose factor kernels are dressed by its twist
    g = G.PhaseSpaceGrid(2, 10, 5.0)

    def rig():
        if gauge == "symmetric":
            return F.constant_field_2d(1.0), F.symmetric_gauge(1.0)
        B = F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2))
        return B, F.transversal_gauge(B, QUAD)

    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=0.9, p_width=0.8)
    h = G.gaussian_symbol(2, x_center=[-0.3, 0.1], p_center=[0.2, 0.0], x_width=1.0,
                          p_width=0.9)
    B, A = rig()
    ref_kernel = G.kernel_compose(G.kernel_from_symbol(f, A, g, QUAD),
                                  G.kernel_from_symbol(h, A, g, QUAD))
    ref = G.symbol_from_kernel(ref_kernel, A, QUAD)
    builds = []
    original = G._segment_phases

    def counted(A, grid, quad, hbar=1.0):
        builds.append(A)
        return original(A, grid, quad, hbar)

    monkeypatch.setattr(G, "_segment_phases", counted)
    B, A = rig()
    out = M.moyal_product(f, h, B, A, g, QUAD)
    assert builds == ([] if gauge == "symmetric" else [F._gauge_base(A)])
    assert np.abs(out.values - ref.values).max() <= 1e-14 * np.abs(ref.values).max()
    builds.clear()
    B, A = rig()
    kernel = M.product_kernel(f, h, A, g, QUAD)
    # an affine base dresses both kernels by its twist: no table
    assert builds == ([] if gauge == "symmetric" else [F._gauge_base(A)])
    assert np.array_equal(kernel.kernel, ref_kernel.kernel)


# ---------------------------------------------------------------------------
# the band product: only the pairs the inverse map reads are composed

def band_rig(dim):
    """A field and a potential of it with nonzero circulations, in ``dim`` dimensions."""
    if dim == 1:
        return F.zero_field(1), F.polynomial_potential(1, [[(0.4, (2,)), (-0.2, (1,))]])
    if dim == 2:
        return F.constant_field_2d(1.0), F.symmetric_gauge(1.0)
    m = np.array([[0.0, -0.5, 0.2], [0.5, 0.0, 0.0], [0.1, 0.3, 0.0]])
    return F.constant_field(3, m.T - m), F.linear_potential(m)


def band_symbols(dim):
    """A factored symbol (separable fill) and one given by `fn` alone (windowed map)."""
    f = G.gaussian_symbol(dim, x_center=[0.2] * dim, x_width=0.9, p_width=0.8,
                          amplitude=1.0 + 0.5j)
    h = G.gaussian_symbol(dim, x_center=[-0.1] * dim, p_center=[0.1] * dim, x_width=1.1,
                          p_width=0.9)
    return f, G.SymbolEvaluator(dim, h.fn)


def read_pairs(g):
    """The pairs ``symbol_from_kernel`` reads: at most n/2 lattice steps apart on every axis."""
    i = np.arange(g.n)
    near = (np.abs(np.subtract.outer(i, i)) <= g.n // 2).astype(float)
    return reduce(np.kron, [near] * g.dim) > 0


@pytest.mark.parametrize("n", [2, 6, 8])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_band_product_matches_full_composition_on_read_pairs(dim, n):
    g = G.PhaseSpaceGrid(dim, n, 4.0)
    _, A = band_rig(dim)
    f, h = band_symbols(dim)
    read = read_pairs(g)
    for potential in (A, None):
        kf, kg = (G.kernel_from_symbol(s, potential, g, QUAD) for s in (f, h))
        lam = None if potential is None else G.segment_phase_matrix(potential, g, QUAD)
        full = G.kernel_compose(kf, kg).kernel
        if lam is not None:
            full = full * np.conj(lam)
        band = M._band_compose(kf.kernel, kg.kernel, lam, g)
        assert np.abs(band - full)[read].max() <= 1e-14 * np.abs(full[read]).max()


@pytest.mark.parametrize("dim, n", [(1, 16), (3, 6)])
def test_band_product_matches_symbol_of_composed_kernel(dim, n):
    # dim 2 is pinned by test_product_uses_one_phase_table
    g = G.PhaseSpaceGrid(dim, n, 4.0)
    B, A = band_rig(dim)
    f, h = band_symbols(dim)
    ref = G.symbol_from_kernel(M.product_kernel(f, h, A, g, QUAD), A, QUAD).values
    out = M.moyal_product(f, h, B, A, g, QUAD).values
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the twisted route: an affine base potential and axis-product factors

def twisted_rig(name):
    if name == "linear-1d":
        return G.PhaseSpaceGrid(1, 16, 5.0), F.zero_field(1), F.linear_potential([[0.7]])
    if name == "linear-3d":
        return (G.PhaseSpaceGrid(3, 6, 4.0),) + band_rig(3)
    g, B = G.PhaseSpaceGrid(2, 12, 5.0), F.constant_field_2d(1.3)
    if name == "landau":
        return g, B, F.landau_gauge(1.3)
    A = F.symmetric_gauge(1.3)
    if name == "symmetric+grad":
        rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.3, (2, 1)), (-0.1, (0, 3))]]))
        A = F.add_gradient(A, rho)
    return g, B, A


def fn_only(sym):
    """The same symbol given by ``fn`` alone: the band route's input."""
    return G.SymbolEvaluator(sym.dim, sym.fn)


@pytest.mark.parametrize("name", ["linear-1d", "symmetric", "landau", "symmetric+grad",
                                  "linear-3d"])
def test_twisted_route_matches_band_route(name, monkeypatch):
    g, B, A = twisted_rig(name)
    dim = g.dim
    f = (G.gaussian_symbol(dim, x_center=[0.2] * dim, x_width=0.9, p_width=0.8,
                           amplitude=1.0 + 0.5j)
         + (0.3 - 0.2j) * G.gaussian_symbol(dim, p_center=[0.1] * dim, x_width=1.2,
                                            p_width=0.7))
    h = (G.gaussian_symbol(dim, x_center=[-0.1] * dim, p_center=[0.1] * dim, x_width=1.1,
                           p_width=0.9)
         + G.gaussian_symbol(dim, x_center=[0.3] * dim, x_width=0.8, p_width=1.0,
                             amplitude=-0.4j))
    band = M.moyal_product(fn_only(f), fn_only(h), B, A, g, QUAD).values
    monkeypatch.setattr(M, "_band_compose", None)  # the twisted route composes no kernels
    out = M.moyal_product(f, h, B, A, g, QUAD).values
    assert np.abs(out - band).max() <= 1e-14 * np.abs(band).max()


@pytest.mark.parametrize("case", ["degree-2", "fn", "x-only", "table"])
def test_product_route_selection(case, monkeypatch):
    # only a base of declared degree <= 1 with axis-product factors takes the twisted route
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    B, A = F.constant_field_2d(1.0), F.symmetric_gauge(1.0)
    quad = QUAD
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=0.9, p_width=0.8)
    h = G.gaussian_symbol(2, x_center=[-0.3, 0.1], x_width=1.0, p_width=0.9)
    if case == "degree-2":  # the one-node rule is not exact for it, so the routes differ
        A = F.polynomial_potential(2, [[(-0.5, (0, 1))], [(0.5, (1, 0)), (0.2, (2, 0))]])
        B, quad = F.linear_field_2d(1.0, [0.4, 0.0]), F.Quadrature(1)
    elif case == "fn":
        h = fn_only(h)
    elif case == "x-only":
        h = G.x_only_symbol(2, lambda x: np.exp(-np.square(x).sum(-1)))
    else:
        h = h.sample(g, "midpoint")
    ref = G.symbol_from_kernel(M.product_kernel(f, h, A, g, quad), A, quad).values
    monkeypatch.setattr(M, "_twisted_slots", None)
    out = M.moyal_product(f, h, B, A, g, quad).values
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# closed form: two Gaussians in a constant field

def gaussian_star_closed_form(b, f, g, q, p):
    """The star product of two planar Gaussians in the constant field ``b`` at ``(q, p)``.

    The defining integral over ``u = (x, k, y, l)``, f at ``(x, k)`` and g at
    ``(y, l)``, is ``4^N (2 pi)^{-2N} int e^{-1/2 u^T M u + v^T u + c}``: the
    symplectic phase ``-2 i [(q - y).(p - k) - (q - x).(p - l)]``, the flux
    ``-i b area(q + x - y, x + y - q, q - x + y)`` through the triangle with
    side midpoints ``x, y, q`` and the Gaussians' exponents.  Its value is
    ``(2 pi)^{2N} det(M)^{-1/2} exp(c + 1/2 v^T M^{-1} v)``, the root the
    product of the eigenvalues' principal roots (``Re M`` is positive definite).
    """
    N = 2
    Sx, Sk, Sy, Sl = (np.eye(N, 4 * N, k) for k in range(0, 4 * N, N))
    form = {"M": np.zeros((4 * N, 4 * N), complex), "v": np.zeros(4 * N, complex), "c": 0j}

    def bilinear(coef, a0, A, b0, Bm, C):  # coef (a0 + A u)^T C (b0 + Bm u)
        form["c"] += coef * a0 @ C @ b0
        form["v"] += coef * (Bm.T @ C.T @ a0 + A.T @ C @ b0)
        quad = A.T @ C @ Bm
        form["M"] -= coef * (quad + quad.T)

    for (Sc, Sm), sym in (((Sx, Sk), f), ((Sy, Sl), g)):
        for S, centre, width in ((Sc, sym["x_center"], sym["x_width"]),
                                 (Sm, sym["p_center"], sym["p_width"])):
            c0 = -np.asarray(centre, dtype=float)
            bilinear(-0.5 / width**2, c0, S, c0, S, np.eye(N))
    bilinear(-2j, q, -Sy, p, -Sk, np.eye(N))
    bilinear(2j, q, -Sx, p, -Sl, np.eye(N))
    # signed area of <a, a + s, a + t>: (s_1 t_2 - s_2 t_1) / 2, with s = 2 (y - q), t = 2 (y - x)
    area = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    bilinear(-1j * b, -2.0 * q, 2.0 * Sy, np.zeros(N), 2.0 * (Sy - Sx), area)
    Mq, v = form["M"], form["v"]
    root = np.prod(np.sqrt(np.linalg.eigvals(Mq)))
    return (4.0**N * np.exp(form["c"] + 0.5 * v @ np.linalg.solve(Mq, v)) / root
            * f["amplitude"] * g["amplitude"])


STAR_F = dict(x_center=[0.3, -0.2], p_center=[0.1, -0.25], x_width=1.1, p_width=0.9,
              amplitude=1.0)
STAR_G = dict(x_center=[-0.35, 0.15], p_center=[-0.2, 0.05], x_width=0.95, p_width=0.85,
              amplitude=0.7 - 0.4j)


def test_closed_form_orientation_is_flux_triangle():
    b = 1.3
    a, s, t = np.random.default_rng(5).normal(size=(3, 2))
    area = 0.5 * (s[0] * t[1] - s[1] * t[0])
    assert F.flux_triangle(F.constant_field_2d(b), a, a + s, a + t) == pytest.approx(b * area,
                                                                                   rel=1e-14)


def test_twisted_route_matches_gaussian_closed_form():
    # dim 2, n=32, L=8: measured 9.0e-12, 1.2e-11 and 2.0e-11 at these three points; the
    # direct probe at 24 points per axis misses the centre by 9.2e-13
    b, g = 1.0, G.PhaseSpaceGrid(2, 32, 8.0)
    B = F.constant_field_2d(b)
    f, h = G.gaussian_symbol(2, **STAR_F), G.gaussian_symbol(2, **STAR_G)
    prod = M.moyal_product(f, h, B, F.symmetric_gauge(b), g, QUAD)
    n = g.n
    for s, k in (((n, n), (n // 2, n // 2)), ((n + 2, n - 1), (n // 2 + 1, n // 2)),
                 ((n - 3, n + 1), (n // 2 - 1, n // 2 + 2))):
        q, p = g.midpoint_axis[list(s)], g.momentum_axis[list(k)]
        exact = gaussian_star_closed_form(b, STAR_F, STAR_G, q, p)
        assert abs(prod.values[s + k] - exact) <= 2e-10
    centre = (np.zeros(2), np.zeros(2))
    probe = M.moyal_direct_probe(f, h, B, centre, points_per_axis=24, config_halfwidth=4.5,
                                 momentum_halfwidth=4.5)
    assert abs(probe - gaussian_star_closed_form(b, STAR_F, STAR_G, *centre)) <= 1e-11


def test_product_memory_peak(traced_peak):
    # dim 2, n=32 (a kernel is 16 MiB), on a warm rig whose phases are memoized:
    # the band product, then the 62 MiB output and the inverse map's temporaries.
    # The factor kernels are freed before the inverse map; kept, they read 159.5 MiB
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    B, A = F.constant_field_2d(1.0), F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9)
    h = G.gaussian_symbol(2, x_center=[-0.3, 0.1], p_center=[0.2, 0.0], x_width=1.1,
                          p_width=0.9)
    G.segment_phase_matrix(A, g, QUAD)
    assert traced_peak(lambda: M.moyal_product(f, h, B, A, g, QUAD)) <= 120 * 2**20


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


@pytest.mark.parametrize("kwargs", [{"points_per_axis": 0}, {"config_halfwidth": 0.0},
                                    {"momentum_halfwidth": -2.0},
                                    {"config_halfwidth": float("nan")}])
def test_direct_probe_rejects_empty_lattice(kwargs):
    B = F.zero_field(1)
    f = G.gaussian_symbol(1)
    with pytest.raises(InputError):
        M.moyal_direct_probe(f, f, B, (np.zeros(1), np.zeros(1)), **kwargs)


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
