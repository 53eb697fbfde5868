"""Every circulation-phase table route agrees with ``fields.circulation``.

The segment phase matrix, the translation phase table, the general-tau
kernel map and the transform route of the covariant coupling all take their
phases from the one circulation engine; these tests pin each route entrywise
against the public ``circulation`` for a polynomial and a non-polynomial
gauge.
"""

import itertools

import numpy as np
import pytest

from magweyl import coupling as C
from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl.errors import NumericError

QUAD = F.Quadrature(16)
TOL = 1e-13

GAUGES = {
    "symmetric": lambda: F.symmetric_gauge(1.0),
    "transversal_gaussian": lambda: F.transversal_gauge(
        F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2)), QUAD),
}


@pytest.fixture(params=sorted(GAUGES))
def gauge(request):
    return GAUGES[request.param]()


def rig():
    return G.PhaseSpaceGrid(2, 8, 4.0)


def lattice_pairs(g):
    pts = g.config_points()
    return pts[:, None, :], pts[None, :, :]


def test_segment_phase_matrix_matches_circulation(gauge):
    g = rig()
    x, y = lattice_pairs(g)
    expect = np.exp(-1j * F.circulation(gauge, x, y, QUAD))
    assert np.abs(G.segment_phase_matrix(gauge, g, QUAD) - expect).max() < TOL


def test_translation_phase_table_matches_circulation(gauge):
    g = rig()
    y, x = lattice_pairs(g)
    expect = np.exp(-1j * F.circulation(gauge, y, y + x, QUAD))
    assert np.abs(Q.translation_phase_table(gauge, g, QUAD) - expect).max() < TOL


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


def test_table_routes_reject_nonfinite_potential():
    g = rig()
    bad = F.VectorPotential(2, lambda x: np.where(x[..., :1] > 1.0, np.nan, 1.0) * np.ones_like(x),
                            _validate=False)
    with pytest.raises(NumericError):
        G.segment_phase_matrix(bad, g, QUAD)
    with pytest.raises(NumericError):
        Q.translation_phase_table(bad, g, QUAD)
