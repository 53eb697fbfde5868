"""Every circulation-phase table route agrees with ``fields.circulation``.

The magnetic field enters every zero-fill route through one table,
``grid.segment_phase_matrix``: the kernel maps, the star product, the
Weyl-system sum and the Fourier-Wigner table multiply their field-free
result by it, the general-tau kernel map by ``exp(-i Gamma / hbar)`` of the
same circulations, and ``translation_phase_table`` is its zero-fill gather.
The single Weyl operator and the transform route of the covariant coupling
integrate their own segments.  These tests pin each route entrywise against
the public ``circulation`` for a polynomial and a non-polynomial gauge and a
gauge transform of the latter, and check that no other module calls the
circulation engine.  The table itself
integrates and exponentiates each unordered pair once and mirrors it by
conjugation: it is checked for exact Hermitian symmetry with a diagonal of
exact ones on grids down to one point per row block, and its two triangles
against the flux through lattice triangles (Stokes).  An affine base
potential dresses the kernel maps by its twist and gauge phase instead, with
no table: that route is pinned against the table route in dims 1 to 3.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from magweyl import coupling as C
from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl import wigner as W
from magweyl.errors import NumericError

QUAD = F.Quadrature(16)
TOL = 1e-13

GAUGES = {
    "symmetric": lambda: F.symmetric_gauge(1.0),
    "transversal_gaussian": lambda: F.transversal_gauge(
        F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2)), QUAD),
    # a gauge transform by a non-polynomial rho: the table dresses the base's
    # with e^{i rho} on the lattice, the point engine adds rho(b) - rho(a)
    "gauge_transformed": lambda: F.add_gradient(
        GAUGES["transversal_gaussian"](),
        F.ScalarPotential(2, lambda x: 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1]),
                          lambda x: 0.3 * np.stack([np.cos(x[..., 0]) * np.cos(x[..., 1]),
                                                    -np.sin(x[..., 0]) * np.sin(x[..., 1])], -1))),
}


@pytest.fixture(params=sorted(GAUGES))
def gauge(request):
    return GAUGES[request.param]()


def rig():
    return G.PhaseSpaceGrid(2, 8, 4.0)


def lattice_pairs(g):
    pts = g.config_points()
    return pts[:, None, :], pts[None, :, :]


def cubic_potential(dim):
    return F.polynomial_potential(dim, {
        1: [[(0.2, (3,)), (0.4, (2,)), (-0.3, (1,))]],
        2: [[(0.3, (3, 0)), (-0.2, (1, 2)), (0.5, (0, 1))],
            [(0.4, (2, 1)), (0.1, (0, 3)), (-0.7, (1, 0))]],
        3: [[(0.3, (1, 2, 0)), (-0.5, (0, 0, 1))], [(0.2, (0, 1, 2)), (0.4, (1, 0, 0))],
            [(-0.1, (3, 0, 0)), (0.6, (0, 1, 0))]],
    }[dim])


# (gauge, dim, n): the rig of the other tests, then grids with one point per
# row block of the segment table (dim 1, n = 2; dim 3, n = 2) and more
SEGMENT_CASES = {
    "symmetric": (GAUGES["symmetric"], 2, 8),
    "transversal_gaussian": (GAUGES["transversal_gaussian"], 2, 8),
    "cubic": (lambda: cubic_potential(2), 2, 8),
    "cubic-dim1-n2": (lambda: cubic_potential(1), 1, 2),
    "cubic-dim1-n8": (lambda: cubic_potential(1), 1, 8),
    "cubic-dim3-n2": (lambda: cubic_potential(3), 3, 2),
    "cubic-dim3-n4": (lambda: cubic_potential(3), 3, 4),
}


@pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
def test_segment_phase_matrix_matches_circulation(case):
    make, dim, n = SEGMENT_CASES[case]
    gauge, g = make(), G.PhaseSpaceGrid(dim, n, 4.0)
    x, y = lattice_pairs(g)
    expect = np.exp(-1j * F.circulation(gauge, x, y, QUAD))
    table = G.segment_phase_matrix(gauge, g, QUAD)
    assert np.abs(table - expect).max() < TOL
    # reversed segments: exactly conjugate phases and a diagonal of exact ones, on the
    # base's table, which the routes read
    lam = G._segment_phases(F._gauge_base(gauge), g, QUAD)
    assert np.array_equal(lam, lam.conj().T)
    assert np.array_equal(np.diagonal(lam), np.ones(g.size))
    assert np.array_equal(table, table.conj().T)


def test_segment_table_triangles_obey_stokes():
    # the phases of Gamma[x, z] + Gamma[z, y] + Gamma[y, x] are those of the flux
    # through <x, z, y>; seeded triples read both triangles of the table, so a slip
    # in the mirrored half shows as a flux mismatch
    B = F.polynomial_field_2d([(1.0, (0, 0)), (0.3, (1, 0)), (-0.2, (1, 1)), (0.1, (0, 2))])
    g = rig()
    lam = G._segment_phases(F.transversal_gauge(B, QUAD), g, QUAD)
    i, k, j = np.random.default_rng(11).integers(0, g.size, size=(3, 200))
    assert np.any(i < j) and np.any(i > j)
    pts = g.config_points()
    flux = F.flux_triangle(B, pts[i], pts[k], pts[j], QUAD)
    loop = lam[i, k] * lam[k, j] * lam[j, i]
    # |e^{-i a} - e^{-i b}| <= |a - b|: the bound on the circulations, on their phases
    assert np.abs(loop - np.exp(-1j * flux)).max() <= 1e-12 * np.abs(flux).max()


def test_transversal_segment_table_is_the_flux_from_the_origin():
    # the transversal gauge circulates zero along rays, so Gamma[a, b] is the
    # flux through <0, a, b>, an independent quadrature of the same field
    # (gauge data over a closed form: its circulations are the point engine's)
    B = F.gaussian_field_2d(1.0, 1.6)
    g = rig()
    a, b = lattice_pairs(g)
    gamma = F.circulation(F.transversal_gauge(B, QUAD), a, b, QUAD)
    flux = F.flux_triangle(B, np.zeros(2), a, b, QUAD)
    assert np.abs(gamma - flux).max() <= 1e-12 * np.abs(flux).max()


def test_translation_phase_table_matches_circulation(gauge):
    # the zero-fill view: in-box translations y + x carry the phase, the rest 0
    g = rig()
    y, x = lattice_pairs(g)
    expect = np.exp(-1j * F.circulation(gauge, y, y + x, QUAD))
    inbox = np.all(np.abs(y + x + 0.5 * g.h) < g.L, axis=-1)
    table = Q.translation_phase_table(gauge, g, QUAD)
    assert 0 < inbox.sum() < inbox.size
    assert np.abs(table - expect)[inbox].max() < TOL
    assert not table[~inbox].any()


def test_standard_table_quantization_factors_through_segment_table(gauge):
    # the Weyl-system sum is the field-free sum times the one segment table
    g = rig()
    F_tab = G.gaussian_symbol(2, x_center=[0.3, -0.2], x_width=1.0, p_width=0.9,
                              amplitude=1.0 - 0.4j).sample(g, "standard")
    magnetic = Q.op_quantize(F_tab, gauge, g, quad=QUAD).kernel
    plain = Q.op_quantize(F_tab, None, g, quad=QUAD).kernel
    lam = G.segment_phase_matrix(gauge, g, QUAD)
    assert np.abs(magnetic - lam * plain).max() <= 1e-15 * np.abs(plain).max()


def test_general_tau_kernel_phase_matches_circulation(gauge):
    g = rig()
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9,
                          amplitude=1.0 + 0.5j)
    params = Q.WeylParams(tau=0.3, hbar=0.7)
    magnetic = Q.op_quantize(f, gauge, g, params, quad=QUAD).kernel
    plain = Q.op_quantize(f, None, g, params, quad=QUAD).kernel
    x, y = lattice_pairs(g)
    lam = np.exp(-1j * F.circulation(gauge, x, y, QUAD) / params.hbar)
    assert np.abs(magnetic - lam * plain).max() < TOL * np.abs(plain).max()


def test_transform_route_phase_matches_circulation(gauge):
    # the route written out with the multiplier taken from circulation:
    # momentum -> difference transform, exp(i Gamma^A([x - y/2, x + y/2])),
    # transform back
    g = rig()
    fc = C.PolynomialSymbol(2, [(1.0, (2, 1)), (0.7, (0, 3))]).with_momentum_cutoff(0.9)
    out = C.covariant_coupling(fc, gauge, g, QUAD, "midpoint").values
    x = np.array(list(itertools.product(g.midpoint_axis, repeat=2)))[:, None, :]
    y = g.config_points()
    k = g.momentum_points()
    lam = np.exp(1j * F.circulation(gauge, x - 0.5 * y, x + 0.5 * y, QUAD))
    to_diff = g.momentum_weight * np.exp(1j * y @ k.T)
    back = g.config_weight * np.exp(-1j * y @ k.T)
    expect = ((fc(x, k[None]) @ to_diff.T) * lam) @ back
    assert np.abs(out.reshape(expect.shape) - expect).max() < TOL * np.abs(expect).max()


def test_fourier_wigner_phase_matches_circulation(gauge):
    # <v, W(x, p) u> written out: h^N sum_y conj(v(y)) e^{-i (y + x/2).p}
    # e^{-i Gamma^A([y, y + x])} u(y + x), zero-filled, the phase from circulation
    g = rig()
    u = G.gaussian_wavefunction(g, center=[0.3, -0.2], width=0.8, momentum=[0.4, 0.1])
    v = G.gaussian_wavefunction(g, center=[-0.2, 0.1], width=0.9)
    y, x = lattice_pairs(g)
    inbox = np.all(np.abs(y + x + 0.5 * g.h) < g.L, axis=-1)
    ends = np.clip(np.rint((y + x) / g.h).astype(int) + g.n // 2, 0, g.n - 1)
    shifted = np.where(inbox, u.values.ravel()[np.ravel_multi_index(tuple(ends.T), g.shape).T], 0)
    term = np.conj(v.values.ravel())[:, None] * np.exp(
        -1j * F.circulation(gauge, y, y + x, QUAD)) * shifted  # (y, x)
    p = g.momentum_points()
    expect = g.config_weight * np.einsum("yx,yxp->xp", term,
                                         np.exp(-1j * (y + 0.5 * x) @ p.T))
    table = W.fourier_wigner(u, v, gauge, QUAD).values.reshape(expect.shape)
    assert np.abs(table - expect).max() < TOL * np.abs(expect).max()


def test_table_routes_reject_nonfinite_potential():
    g = rig()
    bad = F.VectorPotential(2, lambda x: np.where(x[..., :1] > 1.0, np.nan, 1.0) * np.ones_like(x),
                            _validate=False)
    with pytest.raises(NumericError):
        G.segment_phase_matrix(bad, g, QUAD)
    with pytest.raises(NumericError):
        Q.translation_phase_table(bad, g, QUAD)
    # the coupling route: the mirror path of undeclared data and the plane waves
    # of declared degree 1, which read A at the midpoints alone
    f = G.gaussian_symbol(2, x_width=0.8, p_width=0.9)
    linear = F.VectorPotential(2, bad.eval, degree_hint=1, _validate=False)
    for A in (bad, linear):
        with pytest.raises(NumericError, match="non-finite"):
            C.covariant_coupling(f, A, g, QUAD, "midpoint")


def test_only_the_table_builders_call_the_circulation_engine():
    # fields defines the engine, grid builds the one segment table from it and
    # coupling's transform route integrates midpoint-centred segments; every
    # other route takes its phases from the grid's table
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_circulation_sum"):
                callers.add(path.name)
    assert callers == {"fields.py", "grid.py", "coupling.py"}


# ---------------------------------------------------------------------------
# the twist: an affine base potential dresses with no table

RHO = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.3, (2, 1)), (-0.1, (0, 3))]]))
TWIST_CASES = {
    "dim1-affine": lambda: (1, 12, F.polynomial_potential(1, [[(0.7, (1,)), (0.4, (0,))]])),
    "dim2-symmetric": lambda: (2, 8, F.symmetric_gauge(1.3)),
    "dim2-landau": lambda: (2, 8, F.landau_gauge(1.3)),
    # constant terms and a symmetric part in the Jacobian
    "dim2-affine-polynomial": lambda: (2, 6, F.polynomial_potential(
        2, [[(0.2, (0, 0)), (0.5, (0, 1)), (0.1, (1, 0))], [(-0.3, (0, 0)), (-0.4, (1, 0))]])),
    "dim2-symmetric+grad": lambda: (2, 8, F.add_gradient(F.symmetric_gauge(1.3), RHO)),
    "dim3-linear": lambda: (3, 4, F.linear_potential(
        [[0.3, -0.5, 0.2], [0.5, 0.1, 0.0], [0.1, 0.3, -0.2]])),
}


def table_dressed(kern, A, g, hbar=1.0, strip=False):
    """``kern`` dressed (or stripped) as the table route does: the base's table, then ``rho``."""
    base, gauge = F._gauge_phases(A, g.config_points(), QUAD, hbar)
    lam = G._segment_phases(base, g, QUAD, hbar)
    if strip:
        return G._gauge_dress(kern * np.conj(lam), None if gauge is None else np.conj(gauge))
    return G._gauge_dress(lam * kern, gauge)


@pytest.mark.parametrize("case", sorted(TWIST_CASES))
def test_affine_twist_matches_the_table_route(case, monkeypatch):
    # Gamma^A([x, y]) = y^T W x + rho(y) - rho(x) for A(x) = J x + A(0): every route
    # that dresses (the kernel maps at each tau and hbar, the inverse map's strip)
    # agrees with the table route, and none builds a table or fills the memo.
    # Measured: 1.2e-16 against the table, 2.9e-16 for the round trip, a defect
    # of 3.9e-17
    dim, n, A = TWIST_CASES[case]()
    g = G.PhaseSpaceGrid(dim, n, 4.0)
    base = F._gauge_base(A)
    assert G._affine(base, dim) is not None
    f = G.gaussian_symbol(dim, x_center=[0.2] * dim, p_center=[-0.1] * dim, x_width=0.9,
                          p_width=1.1, amplitude=1.0 - 0.4j)
    real = G.gaussian_symbol(dim, x_center=[0.2] * dim, x_width=0.9, p_width=1.1)
    params = (Q.WeylParams(), Q.WeylParams(tau=0.3, hbar=0.8))
    plains = [Q.op_quantize(f, None, g, p, QUAD).kernel for p in params]
    refs = [table_dressed(plain, A, g, p.hbar) for p, plain in zip(params, plains)]
    ref_symbol = G.symbol_from_kernel(
        G.OperatorKernel(g, table_dressed(refs[0].copy(), A, g, strip=True)), None, QUAD).values
    builds = []
    original = G._segment_phases
    monkeypatch.setattr(G, "_segment_phases",
                        lambda *args: builds.append(args[0]) or original(*args))
    for p, plain, ref in zip(params, plains, refs):
        out = Q.op_quantize(f, A, g, p, QUAD).kernel
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
        back = G._dress(out, A, g, QUAD, p.hbar, strip=True)  # the round trip
        assert np.abs(back - plain).max() <= 1e-14 * np.abs(plain).max()
    out = G.symbol_from_kernel(G.OperatorKernel(g, refs[0]), A, QUAD).values
    assert np.abs(out - ref_symbol).max() <= 1e-14 * np.abs(ref_symbol).max()
    assert G.kernel_from_symbol(real, A, g, QUAD).hermiticity_defect() <= 1e-15
    assert builds == [] and base._phase is None and A._phase is None
