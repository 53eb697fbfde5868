import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl import wigner as W
from magweyl.errors import DimensionMismatchError, InputError, OffLatticeError, ResourceLimitError
from weyl_sum_oracle import stack_singular_values, weyl_sum_coefficients

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


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 4), (2, 6), (3, 4)])
def test_translation_table_matches_a_loop(dim, n):
    # w[x, y] = kern[y, y + x] over the translations x / h = index - n/2, 0 where y + x
    # leaves the box, C-ordered; n = 6 has an odd n/2 and 16 row blocks of one row
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    rng = np.random.default_rng(7 * dim + n)
    kern = rng.normal(size=(g.size, g.size)) + 1j * rng.normal(size=(g.size, g.size))
    w = G._translations(kern, g)
    assert w.flags.c_contiguous and w.shape == (n,) * (2 * dim)
    for x in np.ndindex(g.shape):
        for y in np.ndindex(g.shape):
            z = np.array(y) + np.array(x) - n // 2
            inside = np.all((z >= 0) & (z < n))
            expect = kern[np.ravel_multi_index(y, g.shape),
                          np.ravel_multi_index(tuple(z), g.shape)] if inside else 0
            assert w[x + y] == expect


def test_states_on_different_grids_are_refused():
    # another n, or the same n and another L: the gather would read the wrong entries
    u = G.gaussian_wavefunction(G.PhaseSpaceGrid(2, 8, 4.0), width=0.8)
    for other in (G.PhaseSpaceGrid(2, 6, 4.0), G.PhaseSpaceGrid(2, 8, 5.0)):
        v = G.gaussian_wavefunction(other, width=0.8)
        for call in (W.fourier_wigner, W.rank_one_symbol):
            with pytest.raises(DimensionMismatchError, match="different grids"):
                call(u, v, None)


def test_fourier_wigner_memory_peak(traced_peak):
    # dim 2, n=32: the dressed rank-one kernel, the translation table read from it
    # in row blocks, then the transforms of the y axes, each step holding the only
    # reference to its input: two kernels at a time (2.04 kernels measured; gathering
    # through an index table of the kernel's order beside a conjugated copy, 3.56)
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    u = G.gaussian_wavefunction(g, center=[0.2, 0.1], width=0.7, momentum=[0.3, -0.2])
    v = G.gaussian_wavefunction(g, center=[-0.1, 0.3], width=0.6)
    A = F.symmetric_gauge(1.0)
    W.fourier_wigner(u, v, A, QUAD)
    assert traced_peak(lambda: W.fourier_wigner(u, v, A, QUAD), g) <= 2.25


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
    integrand = weyl_sum_coefficients(table).reshape(wtab.values.shape)
    rhs = wtab.cell_weight * (wtab.values * integrand).sum()
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


# ---------------------------------------------------------------------------
# rank-one reconstruction

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


# ---------------------------------------------------------------------------
# span probe

def test_span_probe_identity_only():
    g = G.PhaseSpaceGrid(1, 4, 2.0)
    rep = W.weyl_span_probe(None, g, sample=[(np.zeros(1), np.zeros(1))], quad=QUAD)
    assert rep == {"sample_size": 1, "rank": 1, "full_dim": 16}


def test_span_probe_refuses_an_empty_sample():
    # an empty sample failed with an IndexError from the largest singular value
    g = G.PhaseSpaceGrid(1, 4, 2.0)
    with pytest.raises(InputError, match="sample"):
        W.weyl_span_probe(None, g, sample=[], quad=QUAD)


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
    # the full lattice at dim 2, n=32 needs 2^30 block entries; n=16 (2^24) fits the default cap
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    with pytest.raises(ResourceLimitError):
        W.weyl_span_probe(None, g, quad=QUAD)
    # the cap counts block rows times n^N, padding included: 16 classes of 16 rows times 16,
    # and two classes padded to two rows times 4
    small = G.PhaseSpaceGrid(2, 4, 2.0)
    assert W.weyl_span_probe(None, small, quad=QUAD, max_entries=4096)["rank"] == 256
    with pytest.raises(ResourceLimitError):
        W.weyl_span_probe(None, small, quad=QUAD, max_entries=4095)
    line = G.PhaseSpaceGrid(1, 4, 2.0)
    sample = [(np.zeros(1), np.zeros(1)), (np.zeros(1), np.ones(1)),
              (np.full(1, line.h), np.zeros(1))]
    assert W.weyl_span_probe(None, line, sample=sample, max_entries=16)["rank"] == 3
    with pytest.raises(ResourceLimitError):
        W.weyl_span_probe(None, line, sample=sample, max_entries=15)


def test_span_probe_memory_peak(traced_peak):
    # the full dim-2 lattice at n=12: 144 classes of 144 rows of 144 entries, 45.6 MiB of
    # blocks.  The phases go into them one row block at a time (measured 54.6 MiB); a full
    # phase table of the samples beside the blocks peaked at 116 MB
    g = G.PhaseSpaceGrid(2, 12, 4.0)
    A = F.symmetric_gauge(1.0)
    reports = []
    assert traced_peak(lambda: reports.append(W.weyl_span_probe(A, g, quad=QUAD))) <= 60 * 2**20
    assert reports[0]["rank"] == g.size**2


def _span_sample(g, rng, count):
    """Seeded (x, p) pairs: steps past the box edge, a translation and its image
    one box length away (one class), and repeated pairs."""
    steps = rng.integers(-g.n - 2, g.n + 3, size=(count, g.dim))
    steps[1] = steps[0] + g.n
    ps = rng.uniform(-2.0, 2.0, size=(count, g.dim))
    sample = [(s * g.h, p) for s, p in zip(steps, ps)]
    return sample + sample[:3] + [(sample[1][0], ps[-1])]


@pytest.mark.parametrize("dim, n, potential", [
    (1, 4, None), (1, 6, None), (2, 4, None), (2, 4, "symmetric"), (2, 6, "symmetric"),
    (2, 4, "gaussian"), (2, 6, "gaussian"),
])
def test_span_probe_matches_the_stack_oracle(dim, n, potential, monkeypatch):
    g = G.PhaseSpaceGrid(dim, n, 2.0)
    A = {None: None, "symmetric": F.symmetric_gauge(1.0),
         "gaussian": F.transversal_gauge(F.gaussian_field_2d(1.5, 0.7, (0.3, -0.2)))}[potential]
    rng = np.random.default_rng(100 * dim + n)
    svd, seen = np.linalg.svd, []

    def recorded_svd(a, **kw):  # the probe's singular values, all blocks
        seen.append(svd(a, **kw))
        return seen[-1]

    for count in (5, g.size, 3 * g.size):
        sample = _span_sample(g, rng, count)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", recorded_svd)
            rep = W.weyl_span_probe(A, g, sample=sample, quad=QUAD)
        got = np.sort(seen.pop().ravel())[::-1]
        ref = stack_singular_values(A, g, sample, QUAD)
        assert rep == {"sample_size": len(sample), "full_dim": g.size**2,
                       "rank": int((ref > 1e-8 * ref[0]).sum())}
        k = max(len(got), len(ref))
        got, ref = np.pad(got, (0, k - len(got))), np.pad(ref, (0, k - len(ref)))
        assert np.abs(got - ref).max() <= 1e-12 * ref[0]


def test_span_probe_refuses_bad_input():
    g = G.PhaseSpaceGrid(2, 4, 2.0)
    with pytest.raises(OffLatticeError):
        W.weyl_span_probe(None, g, sample=[(np.array([0.3 * g.h, 0.0]), np.zeros(2))])
    with pytest.raises(DimensionMismatchError, match="momentum"):
        W.weyl_span_probe(None, g, sample=[(np.zeros(2), np.zeros(3))])
    with pytest.raises(DimensionMismatchError, match="translation"):
        W.weyl_span_probe(None, g, sample=[(np.zeros(1), np.zeros(2))])


@pytest.mark.parametrize("rank_tol", [float("nan"), float("inf"), 0.0, -1e-8, 1.0, 2.0, None])
def test_span_probe_refuses_a_bad_rank_tol(rank_tol):
    # NaN and 2.0 used to report rank 0
    with pytest.raises(InputError, match="rank_tol"):
        W.weyl_span_probe(None, G.PhaseSpaceGrid(2, 4, 2.0), rank_tol=rank_tol)
