import cmath
import itertools
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magweyl import fields as F
from magweyl import grid as G
from magweyl import symbols as S
from magweyl import verify as V
from magweyl.errors import DimensionMismatchError, InputError
from mask_oracle import difference_mask
from windowed_oracle import windowed_kernel

QUAD = F.Quadrature(16)


# ---------------------------------------------------------------------------
# grid basics

def test_grid_axes():
    g = G.PhaseSpaceGrid(2, 16, 6.0)
    assert g.h == 0.75
    assert g.config_axis[0] == -6.0
    assert abs(g.config_axis[-1] - (6.0 - g.h)) < 1e-14
    assert abs(g.momentum_axis[8]) == 0.0
    assert len(g.midpoint_axis) == 31
    assert g.midpoint_axis[0] == -6.0


def test_grid_validation():
    with pytest.raises(InputError):
        G.PhaseSpaceGrid(2, 15, 6.0)
    with pytest.raises(InputError):
        G.PhaseSpaceGrid(0, 16, 6.0)
    with pytest.raises(InputError):
        G.PhaseSpaceGrid(2, 16, -1.0)
    for bad in (float("nan"), float("inf")):  # non-finite values pass a bare `<= 0` check
        with pytest.raises(InputError, match="half-width"):
            G.PhaseSpaceGrid(2, 16, bad)


def test_lattice_index_rejects_off_lattice():
    from magweyl.errors import OffLatticeError

    g = G.PhaseSpaceGrid(1, 8, 4.0)
    assert g.lattice_index(np.array([1.0]))[0] == 5
    with pytest.raises(OffLatticeError):
        g.lattice_index(np.array([0.3]))
    # NaN and infinity pass a bare `> tol` check and cast to a garbage index
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OffLatticeError):
            G.PhaseSpaceGrid(2, 8, 4.0).lattice_index(np.array([bad, 0.0]))


def _shift_table_by_indices(g, steps):
    """Reference shift table: targets stacked over all axes from ``np.indices``, then raveled."""
    idx = np.indices(g.shape).reshape((g.dim, g.size) + (1,) * (steps.ndim - 1))
    tgt = idx + np.moveaxis(steps, -1, 0)[:, None]
    valid = np.all((tgt >= 0) & (tgt < g.n), axis=0)
    tgt = np.clip(tgt, 0, g.n - 1)
    return np.ravel_multi_index(tuple(tgt), g.shape), valid


# the ids name the zero-fill convention of the tables
@pytest.mark.parametrize("dim, n", [(1, 8), (2, 6), (3, 4)],
                         ids=["1-8-zero", "2-6-zero", "3-4-zero"])
def test_shift_index_table_matches_the_stacked_construction(dim, n):
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    every = S._lattice_mesh([np.arange(n) - n // 2] * dim)  # all steps, config_points order
    cases = [(None, every)] + [(s, s) for s in (np.zeros(dim, dtype=int), every[1],
                                                np.arange(dim) - 1, np.full(dim, n + 1))]
    for steps, written in cases:
        cols, valid = G._shift_index_table(g, steps)
        ref_cols, ref_valid = _shift_table_by_indices(g, written)
        assert cols.shape == ref_cols.shape == (g.size,) * (1 if steps is not None else 2)
        assert cols.dtype == ref_cols.dtype and valid.dtype == ref_valid.dtype
        assert np.array_equal(cols, ref_cols) and np.array_equal(valid, ref_valid)


# ---------------------------------------------------------------------------
# configuration transform

@pytest.mark.parametrize("dim,n,L", [(1, 16, 6.0), (2, 8, 4.0)])
def test_fourier_config_roundtrip(dim, n, L):
    rig = (G.PhaseSpaceGrid(dim, n, L), None, [None], QUAD, np.random.default_rng(dim))
    assert V.transform_structure(*rig)["transform_roundtrip"] < V.TOLERANCES["transform_roundtrip"]


def test_fourier_config_parseval():
    rig = (G.PhaseSpaceGrid(2, 12, 5.0), None, [None], QUAD, np.random.default_rng(3))
    assert V.transform_structure(*rig)["parseval"] < V.TOLERANCES["parseval"]


def test_fourier_config_constant_gives_delta():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    u = G.WaveFunction(g, np.ones(g.shape))
    fwd = G.fourier_config(u, "forward")
    assert abs(fwd[g.n // 2] - 2 * g.L) < 1e-12
    off = np.abs(np.delete(fwd, g.n // 2)).max()
    assert off < 1e-10


def test_fourier_config_gaussian_analytic_pair():
    # transform of exp(-x^2/2) is sqrt(2 pi) exp(-p^2/2)
    g = G.PhaseSpaceGrid(1, 64, 8.0)
    u = G.WaveFunction(g, np.exp(-0.5 * g.config_axis**2))
    fwd = G.fourier_config(u, "forward")
    expect = np.sqrt(2 * np.pi) * np.exp(-0.5 * g.momentum_axis**2)
    assert np.abs(fwd - expect).max() < 1e-10


@pytest.mark.parametrize("axes", ["config", "momentum", "all"])
@pytest.mark.parametrize("matrix", ["_fwd_matrix", "_inv_matrix"])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 6), (3, 4)])
def test_apply_axes_matches_dense_exponential(dim, n, matrix, axes):
    # pins the phase convention of the per-axis contractions against the dense
    # n^N x n^N products: forward h^N e^{-i p.x}, inverse (1/2L)^N e^{+i x.p}
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    xp = g.config_points() @ g.momentum_points().T
    if matrix == "_fwd_matrix":
        dense = g.config_weight * np.exp(-1j * xp.T)
    else:
        dense = g.momentum_weight * np.exp(1j * xp)
    rng = np.random.default_rng(10 * dim + n)
    table = rng.normal(size=(g.size, g.size)) + 1j * rng.normal(size=(g.size, g.size))
    ref = {"config": dense @ table, "momentum": table @ dense.T,
           "all": dense @ table @ dense.T}[axes]
    contracted = {"config": range(dim), "momentum": range(dim, 2 * dim),
                  "all": range(2 * dim)}[axes]
    got = G._apply_axes(table.reshape(g.shape + g.shape), getattr(g, matrix), contracted)
    assert np.abs(got.reshape(g.size, g.size) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("mask", ["trapezoid", "zero_fill"])
@pytest.mark.parametrize("dim,n", [(d, n) for d in (1, 2, 3) for n in (2, 6, 8)])
def test_per_axis_masks_match_the_kronecker_tables(dim, n, mask):
    # the kernel routes multiply their mask in one axis pair at a time, in place; the
    # result is the kernel times the n^N x n^N Kronecker table, bit for bit: the
    # Kronecker oracle difference_mask, or the zero-fill mask (1 where row - col lies in
    # (-n/2, n/2] steps per axis)
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    steps = np.subtract.outer(np.arange(n), np.arange(n))
    if mask == "trapezoid":
        axis, kron = G._trapezoid(steps, n), difference_mask(g)
    else:
        axis = ((steps > -n // 2) & (steps <= n // 2)) * 1.0
        kron = reduce(np.kron, [axis] * dim)
    rng = np.random.default_rng(100 * dim + n)
    kern = rng.normal(size=(g.size, g.size)) + 1j * rng.normal(size=(g.size, g.size))
    expect = kern * kron
    assert G._multiply_per_axis(kern, axis, g) is kern
    assert np.array_equal(kern, expect)


def test_wavefunction_norm_and_inner():
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    u = G.gaussian_wavefunction(g, width=1.0)
    assert abs(u.norm() - 1.0) < 1e-12
    v = G.gaussian_wavefunction(g, width=1.0, momentum=[1.0])
    ip = v.inner(u)
    assert abs(ip - np.conj(u.inner(v))) < 1e-12


# ---------------------------------------------------------------------------
# symplectic transform

def test_symplectic_roundtrip_and_involution():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    Fg = G.SymbolGrid(g, "standard", vals)
    there = G.fourier_symplectic(Fg, "forward")
    back = G.fourier_symplectic(there, "inverse")
    assert np.abs(back.values - vals).max() / np.abs(vals).max() < 1e-12
    twice = G.fourier_symplectic(there, "forward")
    assert np.abs(twice.values - vals).max() / np.abs(vals).max() < 1e-12


def test_symplectic_constant_concentrates_at_origin():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    Fg = G.SymbolGrid(g, "standard", np.ones((16, 16)))
    out = G.fourier_symplectic(Fg, "forward").values
    i0 = g.n // 2
    peak = abs(out[i0, i0])
    rest = np.abs(out).sum() - peak
    assert peak > 1.0
    assert rest < 1e-9 * peak


def test_symplectic_matches_brute_force_double_sum():
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    Fg = G.SymbolGrid(g, "standard", vals)
    out = G.fourier_symplectic(Fg, "forward").values
    w = g.config_weight * g.momentum_weight
    brute = np.zeros((8, 8), dtype=complex)
    for zi, z in enumerate(g.config_axis):
        for ki, k in enumerate(g.momentum_axis):
            sigma = g.config_axis[:, None] * k - z * g.momentum_axis[None, :]
            brute[zi, ki] = w * np.sum(np.exp(-1j * sigma) * vals)
    assert np.abs(out - brute).max() / np.abs(brute).max() < 1e-10


def test_symplectic_rejects_midpoint_grids():
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    sg = G.constant_symbol(1).sample(g, "midpoint")
    with pytest.raises(InputError):
        G.fourier_symplectic(sg)


@pytest.mark.parametrize("transform", ["fourier_config", "fourier_symplectic"])
def test_transforms_refuse_an_unknown_direction(transform):
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    arg = (G.gaussian_wavefunction(g) if transform == "fourier_config"
           else G.constant_symbol(1).sample(g, "standard"))
    with pytest.raises(InputError, match="direction"):
        getattr(G, transform)(arg, "backward")


def test_fourier_config_refuses_a_bare_array():
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    with pytest.raises(InputError, match="WaveFunction"):
        G.fourier_config(G.gaussian_wavefunction(g).values)


# ---------------------------------------------------------------------------
# kernel map

def test_kernel_of_constant_symbol_is_identity():
    rig = (G.PhaseSpaceGrid(2, 8, 4.0), None, [None], QUAD, None)
    assert V.constant_symbol_identity(*rig) < V.TOLERANCES["constant_symbol_identity"]


def test_kernel_of_x_only_symbol_is_diagonal():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = G.x_only_symbol(2, lambda x: np.exp(-0.5 * (x**2).sum(axis=-1)))
    A = F.symmetric_gauge(1.0)
    k = G.kernel_from_symbol(f, A, g, QUAD)
    pts = g.config_points()
    diag_expect = np.exp(-0.5 * (pts**2).sum(axis=-1)) / g.config_weight
    assert np.abs(np.diag(k.kernel) - diag_expect).max() < 1e-10 / g.config_weight
    off = k.kernel - np.diag(np.diag(k.kernel))
    assert np.abs(off).max() < 1e-10 / g.config_weight


def test_kernel_gaussian_partial_transform_oracle():
    # f(x,p) = exp(-x^2/(2 sx^2)) exp(-p^2/(2 sp^2)); the momentum sum has the
    # closed form sp/sqrt(2 pi) exp(-sp^2 v^2 / 2) at v = x - y
    g = G.PhaseSpaceGrid(1, 64, 8.0)
    sx, sp = 1.0, 1.0
    f = G.gaussian_symbol(1, x_width=sx, p_width=sp)
    k = G.kernel_from_symbol(f, None, g, QUAD)
    rng = np.random.default_rng(8)
    pts = g.config_axis
    for _ in range(10):
        i, j = rng.integers(0, g.n, size=2)
        if abs(pts[i] - pts[j]) > g.L / 2:
            continue
        mid = 0.5 * (pts[i] + pts[j])
        v = pts[i] - pts[j]
        expect = np.exp(-0.5 * mid**2 / sx**2) * sp / np.sqrt(2 * np.pi) * np.exp(-0.5 * sp**2 * v**2)
        assert abs(k.kernel[i, j] - expect) < 1e-8


def test_magnetic_kernel_is_phase_times_nonmagnetic():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = G.gaussian_symbol(2, x_width=0.8, p_width=0.8)
    A = F.symmetric_gauge(1.3)
    k0 = G.kernel_from_symbol(f, None, g, QUAD)
    kA = G.kernel_from_symbol(f, A, g, QUAD)
    lam = G.segment_phase_matrix(A, g, QUAD)
    assert np.abs(kA.kernel - lam * k0.kernel).max() < 1e-12 * np.abs(k0.kernel).max()


def test_kernel_map_linear_in_symbol():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = None
    f1 = G.gaussian_symbol(1, x_width=0.7, p_width=0.9)
    f2 = G.gaussian_symbol(1, x_center=[0.5], p_center=[0.3], x_width=0.8, p_width=0.7)
    lin = G.kernel_from_symbol(2.0 * f1 + (-0.5 + 1j) * f2, A, g, QUAD)
    sep = (2.0 * G.kernel_from_symbol(f1, A, g, QUAD).kernel
           + (-0.5 + 1j) * G.kernel_from_symbol(f2, A, g, QUAD).kernel)
    assert np.abs(lin.kernel - sep).max() < 1e-12 * np.abs(sep).max()


def test_kernel_symbol_roundtrip_1d():
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    f = G.gaussian_symbol(1, x_width=0.5, p_width=0.42)
    A = None
    k = G.kernel_from_symbol(f, A, g, QUAD)
    rec = G.symbol_from_kernel(k, A, QUAD)
    expect = f.sample(g, "midpoint")
    assert rec.alias_doubled
    assert np.abs(rec.inner_band() - expect.inner_band()).max() < 1e-10


def test_kernel_symbol_roundtrip_2d_magnetic():
    g = G.PhaseSpaceGrid(2, 16, 6.0)
    f = G.gaussian_symbol(2, x_width=0.42, p_width=0.30)
    A = F.symmetric_gauge(1.0)
    k = G.kernel_from_symbol(f, A, g, QUAD)
    rec = G.symbol_from_kernel(k, A, QUAD)
    expect = f.sample(g, "midpoint")
    assert np.abs(rec.inner_band() - expect.inner_band()).max() < 1e-10


def test_roundtrip_random_band_limited_kernels():
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    rng = np.random.default_rng(9)
    parts = []
    for _ in range(4):
        xc = rng.uniform(-1.0, 1.0, size=1)
        pc = rng.uniform(-0.3, 0.3, size=1)
        parts.append(complex(rng.normal(), rng.normal())
                     * G.gaussian_symbol(1, x_center=xc, p_center=pc, x_width=0.5, p_width=0.4))
    f = parts[0] + parts[1] + parts[2] + parts[3]
    k = G.kernel_from_symbol(f, None, g, QUAD)
    rec = G.symbol_from_kernel(k, None, QUAD)
    expect = f.sample(g, "midpoint")
    scale = np.abs(expect.values).max()
    assert np.abs(rec.inner_band() - expect.inner_band()).max() < 1e-10 * scale


def test_quantize_of_reconstructed_symbol_returns_kernel():
    # kernel -> symbol -> kernel closes exactly on kernels of localized symbols
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=1.2)
    k = G.kernel_from_symbol(f, None, g, QUAD)
    rec = G.symbol_from_kernel(k, None, QUAD)
    k2 = G.kernel_from_symbol(rec, None, g, QUAD)
    assert np.abs(k2.kernel - k.kernel).max() < 1e-12 * np.abs(k.kernel).max()


def test_requantization_closes_for_magnetic_kernels_2d():
    g = G.PhaseSpaceGrid(2, 12, 6.0)
    f = G.gaussian_symbol(2, x_width=0.8, p_width=1.3)
    A = F.symmetric_gauge(1.0)
    k = G.kernel_from_symbol(f, A, g, QUAD)
    k2 = G.kernel_from_symbol(G.symbol_from_kernel(k, A, QUAD), A, g, QUAD)
    assert np.abs(k2.kernel - k.kernel).max() < 1e-11 * np.abs(k.kernel).max()


def magnetic_potential(dim, b):
    """Symmetric gauge of the constant field ``b``; in 1-D the pure gauge ``A(x) = b x / 2``.

    In 3-D a linear potential whose constant field has all three components.
    """
    if dim == 3:
        return F.linear_potential([[0.0, -b / 2.0, 0.3 * b], [b / 2.0, 0.0, -0.2 * b],
                                   [0.1 * b, 0.4 * b, 0.0]])
    return F.symmetric_gauge(b) if dim == 2 else F.linear_potential([[b / 2.0]])


def reference_symbol_from_kernel(kernel, lam, g):
    """Alias-doubled midpoint table by plain loops over midpoint classes, window pairs and momenta.

    The pairs ``(i, s - i)`` of the class ``s`` enter when ``|2 i - s| <= n/2``
    on every axis (one alias period of differences), each with weight ``2h``
    and phase ``e^{-i (x - y) k}`` per axis.
    """
    n, N = g.n, g.dim
    psi = (kernel * np.conj(lam)).reshape((n,) * (2 * N))
    out = np.zeros((2 * n - 1,) * N + (n,) * N, dtype=complex)
    for s in itertools.product(range(2 * n - 1), repeat=N):
        windows = [[i for i in range(n) if 0 <= sa - i < n and abs(2 * i - sa) <= n // 2]
                   for sa in s]
        for i in itertools.product(*windows):
            j = tuple(sa - ia for sa, ia in zip(s, i))
            for k in itertools.product(range(n), repeat=N):
                term = psi[i + j]
                for ia, sa, ka in zip(i, s, k):
                    term *= 2.0 * g.h * cmath.exp(-1j * (2 * ia - sa) * g.h * g.momentum_axis[ka])
                out[s + k] += term
    return out


@pytest.mark.parametrize("magnetic", [False, True])
@pytest.mark.parametrize("dim,n", [(1, 2), (1, 6), (1, 8), (2, 2), (2, 6), (2, 8)])
def test_symbol_from_kernel_matches_loop_reference(dim, n, magnetic):
    # n = 6 has an odd n/2, so the window width changes with the parity of s;
    # the classes near 0 and 2n - 2 have clipped windows
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    A = magnetic_potential(dim, 1.3) if magnetic else None
    rng = np.random.default_rng(100 * dim + n)
    k = rng.normal(size=(g.size, g.size)) + 1j * rng.normal(size=(g.size, g.size))
    ref = reference_symbol_from_kernel(k, G.segment_phase_matrix(A, g, QUAD), g)
    rec = G.symbol_from_kernel(G.OperatorKernel(g, k), A, QUAD)
    assert rec.alias_doubled
    assert np.abs(rec.values - ref).max() <= 1e-13 * np.abs(ref).max()


def reference_kernel_from_symbol(f, lam, g, masked, rows):
    """Rows of the kernel by the defining sum ``sum_k w e^{i (x - y).k} f((x + y)/2, k)``.

    Each row ``x`` is one vectorized sum over every partner ``y`` and
    momentum ``k``.  Evaluators are called at the pair midpoints; midpoint
    tables are read at the class ``i + j``, alias-doubled ones with the half
    weight per axis.  The mask is taken from its definition: per axis 1, 1/2
    or 0 as ``|x_a - y_a|`` is below, at or beyond L.
    """
    n, N = g.n, g.dim
    pts, ks = g.config_points(), g.momentum_points()
    idx = np.indices(g.shape).reshape(N, -1).T
    w = g.momentum_weight
    if isinstance(f, G.SymbolGrid):
        table = f.values.reshape((2 * n - 1,) * N + (g.size,))
        w *= 0.5**N if f.alias_doubled else 1.0
    out = np.empty((len(rows), g.size), dtype=complex)
    for r, x in enumerate(rows):
        if isinstance(f, G.SymbolGrid):
            vals = table[tuple((idx[x] + idx).T)]
        else:
            vals = f(0.5 * (pts[x] + pts)[:, None, :], ks[None, :, :])
        out[r] = w * (np.exp(1j * ((pts[x] - pts) @ ks.T)) * vals).sum(axis=1)
        if masked:
            d = np.abs(idx[x] - idx)
            out[r] *= np.where(d < n // 2, 1.0, np.where(d == n // 2, 0.5, 0.0)).prod(axis=1)
    return lam[rows] * out


@pytest.mark.parametrize("source", ["evaluator", "unfactored", "alias_table"])
@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("magnetic", [False, True])
@pytest.mark.parametrize("dim,n", [(1, 2), (1, 6), (1, 8), (2, 2), (2, 6), (2, 8),
                                   (3, 2), (3, 6), (3, 8)])
def test_kernel_from_symbol_matches_loop_reference(dim, n, magnetic, masked, source):
    # n = 6 has an odd n/2.  The alias table is C-ordered as symbol_from_kernel writes
    # it; the map is given a Fortran-ordered copy, so that it reads a strided table.
    # The factored evaluator takes the separable fill; the same function given by
    # `fn` and the alias table take the windowed map
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    A = magnetic_potential(dim, 1.3) if magnetic else None
    rng = np.random.default_rng(10 * dim + n)
    if source == "alias_table":
        k = rng.normal(size=(g.size, g.size)) + 1j * rng.normal(size=(g.size, g.size))
        rec = G.symbol_from_kernel(G.OperatorKernel(g, k), None, QUAD)
        assert rec.alias_doubled and rec.values.flags.c_contiguous
        f = G.SymbolGrid(g, "midpoint", np.asfortranarray(rec.values), alias_doubled=True)
        assert not f.values.flags.c_contiguous
    else:
        f = G.gaussian_symbol(dim, x_center=[0.4] * dim, p_center=[-0.3] * dim,
                              x_width=0.9, p_width=1.1, amplitude=1.0 - 0.5j)
        if source == "unfactored":
            f = G.SymbolEvaluator(dim, f.fn)
    # every row up to 64 lattice points, else 16 of them
    rows = np.arange(g.size) if g.size <= 64 else np.sort(rng.choice(g.size, 16, replace=False))
    ref = reference_kernel_from_symbol(f, G.segment_phase_matrix(A, g, QUAD), g, masked, rows)
    kern = G.kernel_from_symbol(f, A, g, QUAD, mask=masked).kernel[rows]
    assert np.abs(kern - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=40, deadline=None, database=None)
@given(dim=st.integers(1, 3), n=st.sampled_from([2, 4, 6, 8]), L=st.floats(1.0, 8.0),
       mask=st.booleans(), magnetic=st.booleans(),
       source=st.sampled_from(["fn", "midpoint", "alias_doubled", "standard"]),
       entries=st.sampled_from([1, 2**10, G._FORWARD_ENTRIES]), seed=st.integers(0, 2**32 - 1))
def test_streamed_windowed_map_matches_the_whole_array_oracle(dim, n, L, mask, magnetic, source,
                                                              entries, seed):
    # bit for bit: each block runs the oracle's per-item matmuls (two rows at least, so
    # the interpolant stays a matrix product), and the mask's 0, 1/2 and 1 multiply
    # exactly in any order.  One entry per block streams two midpoint rows at a time
    g = G.PhaseSpaceGrid(dim, n, L)
    rng = np.random.default_rng(seed)

    def table(kind):
        shape = (len(S._config_axis(g, kind)),) * dim + g.shape
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if source == "fn":
        f = G.SymbolEvaluator(dim, G.gaussian_symbol(
            dim, x_center=rng.uniform(-1.0, 1.0, dim), p_center=rng.uniform(-1.0, 1.0, dim),
            x_width=rng.uniform(0.5, 1.5), p_width=rng.uniform(0.5, 1.5),
            amplitude=complex(*rng.normal(size=2))).fn)
    elif source == "standard":
        f = G.SymbolGrid(g, "standard", table("standard"))
    else:
        f = G.SymbolGrid(g, "midpoint", table("midpoint"), alias_doubled=source == "alias_doubled")
    A = magnetic_potential(dim, 1.3) if magnetic else None
    with mock.patch.object(G, "_FORWARD_ENTRIES", entries):
        kern = G._quantized_kernel(f, A, g, QUAD, 0.5, 1.0, mask).kernel
    assert np.array_equal(kern, G._dress(windowed_kernel(f, g, mask), A, g, QUAD))


def test_hermiticity_defect_and_spectrum_match_the_full_matrix_forms():
    # the row-block defect is the same float as the one-shot expression, and
    # the scaled spectrum is that of the weighted operator matrix to roundoff
    g = G.PhaseSpaceGrid(2, 6, 4.0)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    # 36 rows and 38 rows in 16 blocks of 2 or 3 rows, 10 rows in 10 blocks of one
    uneven = [G.PhaseSpaceGrid(1, n, 4.0) for n in (38, 10)]
    cases = [(g, 3.0 * m), (g, 0.1 * m)]  # scale above and below the floor 1
    cases += [(u, rng.normal(size=(u.size,) * 2) + 1j * rng.normal(size=(u.size,) * 2))
              for u in uneven]
    for grid, kern in cases:
        K = G.OperatorKernel(grid, kern)
        full = np.abs(kern - kern.conj().T).max() / max(np.abs(kern).max(), 1.0)
        assert K.hermiticity_defect() == float(full)
    # a NaN below the diagonal, in the column block that a row block compares
    # against its mirror: the defect is NaN, as the one-shot expression's is
    bad = m + m.conj().T
    bad[30, 4] = np.nan
    assert np.isnan(np.abs(bad - bad.conj().T).max())
    assert np.isnan(G.OperatorKernel(g, bad).hermiticity_defect())
    H = G.OperatorKernel(g, m + m.conj().T)
    ref = np.linalg.eigvalsh(H.operator_matrix)
    assert np.abs(H.eigenvalues() - ref).max() <= 1e-13 * np.abs(ref).max()


def test_kernel_from_symbol_memory_peak(traced_peak):
    # dim 2, n=32: the windowed map of a symbol given by `fn` evaluates it one block of
    # midpoint rows at a time, so the kernel and one block's samples and contractions
    # are the allocations (1.33 kernels measured; the whole 3.9-kernel sample table
    # peaked at 5.84).  The small call first takes the one-time lazy imports out
    f = G.SymbolEvaluator(2, G.gaussian_symbol(2, x_width=0.9, p_width=1.1).fn)
    G.kernel_from_symbol(f, None, G.PhaseSpaceGrid(2, 4, 6.0), QUAD)
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    assert traced_peak(lambda: G.kernel_from_symbol(f, None, g, QUAD), g) <= 1.5


@pytest.mark.parametrize("alias_doubled", [False, True])
def test_midpoint_table_memory_peak(traced_peak, alias_doubled):
    # dim 2, n=32: a midpoint table is read one block of rows at a time, so beyond the
    # kernel only one block's contractions and pairs are allocated (1.22 kernels
    # measured; contracting the whole table peaked at 2.94)
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    table = G.gaussian_symbol(2, x_width=0.9, p_width=1.1).sample(g, "midpoint")
    f = G.SymbolGrid(g, "midpoint", table.values, alias_doubled=alias_doubled)
    G.kernel_from_symbol(f, None, g, QUAD)
    assert traced_peak(lambda: G.kernel_from_symbol(f, None, g, QUAD), g) <= 1.35


def test_gaussian_sample_memory_peak(traced_peak):
    # dim 2, n=32: the 62 MiB midpoint table and the x- and p-sized factor
    # values; no float temporary of the table's size
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    f = G.gaussian_symbol(2, x_width=0.9, p_width=1.1)
    assert traced_peak(lambda: f.sample(g, "midpoint")) <= 64 * 2**20


@settings(max_examples=30, deadline=None, database=None)
@given(dim=st.sampled_from([1, 2]), half_n=st.integers(1, 6),
       L=st.floats(1.0, 8.0), b=st.one_of(st.none(), st.floats(-2.0, 2.0)),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_map_roundtrip_on_its_image(dim, half_n, L, b, seed):
    # kernel_from_symbol(symbol_from_kernel(K)) == K for every K the masked map produces
    g = G.PhaseSpaceGrid(dim, 2 * half_n, L)
    A = None if b is None else magnetic_potential(dim, b)
    rng = np.random.default_rng(seed)
    shape = (2 * g.n - 1,) * dim + g.shape
    table = G.SymbolGrid(g, "midpoint", rng.normal(size=shape) + 1j * rng.normal(size=shape))
    k = G.kernel_from_symbol(table, A, g, QUAD)
    back = G.kernel_from_symbol(G.symbol_from_kernel(k, A, QUAD), A, g, QUAD)
    assert np.abs(back.kernel - k.kernel).max() <= 1e-12 * np.abs(k.kernel).max()


# ---------------------------------------------------------------------------
# composition

def test_compose_with_identity():
    g = G.PhaseSpaceGrid(1, 12, 5.0)
    rng = np.random.default_rng(10)
    k = G.OperatorKernel(g, rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
    ident = G.OperatorKernel.identity(g)
    out = G.kernel_compose(k, ident)
    assert np.abs(out.kernel - k.kernel).max() < 1e-12 * np.abs(k.kernel).max()


def test_compose_matches_weighted_matrix_product():
    g = G.PhaseSpaceGrid(1, 10, 5.0)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    b = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    out = G.kernel_compose(G.OperatorKernel(g, a), G.OperatorKernel(g, b))
    assert np.allclose(out.kernel, g.config_weight * a @ b, rtol=0, atol=1e-13)


def test_compose_associative():
    g = G.PhaseSpaceGrid(1, 10, 5.0)
    rng = np.random.default_rng(12)
    ks = [G.OperatorKernel(g, rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
          for _ in range(3)]
    left = G.kernel_compose(G.kernel_compose(ks[0], ks[1]), ks[2])
    right = G.kernel_compose(ks[0], G.kernel_compose(ks[1], ks[2]))
    assert np.abs(left.kernel - right.kernel).max() < 1e-12 * np.abs(left.kernel).max()


def test_compose_grid_mismatch():
    k1 = G.OperatorKernel.identity(G.PhaseSpaceGrid(1, 8, 4.0))
    k2 = G.OperatorKernel.identity(G.PhaseSpaceGrid(1, 10, 4.0))
    with pytest.raises(DimensionMismatchError):
        G.kernel_compose(k1, k2)


def test_operands_on_another_grid_are_refused():
    # same n, another half-width: equal array shapes must not hide the mismatch
    a, b = G.PhaseSpaceGrid(1, 8, 4.0), G.PhaseSpaceGrid(1, 8, 6.0)
    u, v = G.gaussian_wavefunction(a), G.gaussian_wavefunction(b)
    for call in (lambda: u + v, lambda: u.inner(v),
                 lambda: G.OperatorKernel.identity(a) - G.OperatorKernel.identity(b)):
        with pytest.raises(DimensionMismatchError):
            call()


# ---------------------------------------------------------------------------
# symbol grid bookkeeping

def test_symbol_grid_integral_of_gaussian():
    # int exp(-|x|^2/2 - |p|^2/2) dx dp/(2 pi) = 2 pi / (2 pi) = 1 for N=1
    g = G.PhaseSpaceGrid(1, 64, 8.0)
    f = G.gaussian_symbol(1, x_width=1.0, p_width=1.0)
    val = f.sample(g, "standard").integral()
    assert abs(val - 1.0) < 1e-10
    val_mid = f.sample(g, "midpoint").integral()
    assert abs(val_mid - 1.0) < 1e-10


def test_symbol_grid_shape_validation():
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    with pytest.raises(DimensionMismatchError):
        G.SymbolGrid(g, "standard", np.zeros((8, 7)))
    with pytest.raises(InputError):
        G.SymbolGrid(g, "other", np.zeros((8, 8)))


def test_standard_symbol_grid_refuses_the_alias_flag():
    # only the inverse map's midpoint tables hold alias sums; no route reads the flag on a
    # standard table, so a standard table that claims it is refused
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    with pytest.raises(InputError, match="standard"):
        G.SymbolGrid(g, "standard", np.zeros((8, 8)), alias_doubled=True)
    assert G.SymbolGrid(g, "midpoint", np.zeros((15, 8)), alias_doubled=True).alias_doubled
    assert not G.SymbolGrid(g, "standard", np.zeros((8, 8))).conj().alias_doubled


@pytest.mark.parametrize("kwargs, name", [
    ({"x_width": 0}, "x_width"), ({"p_width": -1.0}, "p_width"),
    ({"x_width": float("nan")}, "x_width"), ({"p_width": float("inf")}, "p_width"),
    ({"amplitude": float("nan")}, "amplitude"), ({"amplitude": float("inf")}, "amplitude")])
def test_gaussian_symbol_refuses_degenerate_parameters(kwargs, name):
    # widths must be finite and > 0 and the amplitude finite: a zero width sampled NaN
    with pytest.raises(InputError, match=name):
        G.gaussian_symbol(2, **kwargs)
    assert G.gaussian_symbol(2, x_width=0.5, amplitude=-2.0 + 1.0j).dim == 2
