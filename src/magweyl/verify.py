"""Invariant criteria: the one definition of each, and the `verify` battery.

``CRITERIA`` is the ordered registry of the battery.  Each entry names its
report items with their tolerances and holds an error function of a rig
``(grid, B, gauges, quad, rng)`` that measures how far the identity misses,
drawing any samples from ``rng``; where it quantizes a symbol or a state,
a keyword argument replaces the battery's.  The acceptance tests call the
same functions and tolerances on their own rigs, so they and ``magweyl
verify`` differ only in rigs.
"""

from __future__ import annotations

import numpy as np

from . import coupling as cp
from . import fields as fl
from . import grid as gr
from . import moyal as my
from . import quantize as qu
from . import symbols as sy
from . import wigner as wg

__all__ = ["CRITERIA", "TOLERANCES", "run_battery"]

def _symbol_pair(dim):
    """The battery's two Gaussian symbols."""
    return (sy.gaussian_symbol(dim, x_width=0.9, p_width=1.0),
            sy.gaussian_symbol(dim, x_center=0.2 * np.ones(dim), x_width=0.8, p_width=0.9))


def stokes_and_cocycle(grid, B, gauges, quad, rng):
    """Stokes factorization and two-cocycle identity of the flux phase at 200
    seeded vertex sets; worst modulus of the miss."""
    A = gauges[0]
    q, x, y = rng.uniform(-grid.L / 2, grid.L / 2, size=(3, 200, grid.dim))
    z = rng.uniform(-grid.L / 2, grid.L / 2, size=(200, grid.dim))
    omega = fl.flux_phase(B, q, x, y, quad)
    segments = (fl.translation_phase(A, q, x, quad) * fl.translation_phase(A, q + x, y, quad)
                / fl.translation_phase(A, q, x + y, quad))
    lhs = fl.flux_phase(B, q, x + y, z, quad) * omega
    rhs = fl.flux_phase(B, q + x, y, z, quad) * fl.flux_phase(B, q, x, y + z, quad)
    return {"stokes_factorization": np.abs(omega - segments).max(),
            "cocycle_identity": np.abs(lhs - rhs).max()}


def transform_structure(grid, B, gauges, quad, rng):
    """Round trip and Parseval identity of the lattice transform on a seeded state."""
    u = gr.WaveFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    fwd = gr.fourier_config(u, "forward")
    back = gr.fourier_config(gr.WaveFunction(grid, fwd), "inverse")
    n1 = grid.config_weight * (np.abs(u.values) ** 2).sum()
    n2 = grid.momentum_weight * (np.abs(fwd) ** 2).sum()
    return {"transform_roundtrip": np.abs(back - u.values).max() / np.abs(u.values).max(),
            "parseval": abs(n1 - n2) / n1}


def constant_symbol_identity(grid, B, gauges, quad, rng):
    """Kernel of the constant symbol 1 against the identity, in units of ``1 / h^N``."""
    ident = gr.kernel_from_symbol(sy.constant_symbol(grid.dim), gauges[0], grid, quad)
    return np.abs(ident.kernel - np.eye(grid.size) / grid.config_weight).max() * grid.config_weight


def weyl_composition_law(grid, B, gauges, quad, rng):
    """``W(xi) W(eta) = e^{i sigma/2} Omega(Q; x, y) W(xi + eta)`` on an interior
    packet at 20 seeded pairs whose translations (two lattice steps at most)
    zero-fill both sides alike; worst miss relative to its norm."""
    A = gauges[0]
    u = gr.gaussian_wavefunction(grid, width=0.7)
    worst = 0.0
    for _ in range(20):
        sx, sy = rng.integers(-2, 3, size=(2, grid.dim))
        x, y = sx * grid.h, sy * grid.h
        pxi, peta = rng.uniform(-2, 2, size=(2, grid.dim))
        lhs = qu.weyl_apply(A, (x, pxi), qu.weyl_apply(A, (y, peta), u, quad), quad)
        sigma = y @ pxi - x @ peta
        omega = fl.flux_phase(B, grid.config_points(), x, y, quad).reshape(grid.shape)
        rhs = np.exp(0.5j * sigma) * omega * qu.weyl_apply(A, (x + y, pxi + peta), u, quad).values
        worst = max(worst, np.abs(lhs.values - rhs).max() / u.norm())
    return worst


def spectrum_error(e1, e2):
    """Worst difference of two spectra, relative to the radius of the first."""
    return np.abs(np.sort(e1) - np.sort(e2)).max() / max(np.abs(e1).max(), 1e-30)


def homomorphism(grid, B, gauges, quad, rng, symbols=None):
    """Composed kernel of two symbols against their operator product, relative."""
    f, h = symbols or _symbol_pair(grid.dim)
    return _composition_error(*(qu.op_quantize(s, gauges[0], grid, quad=quad) for s in (f, h)))


def _composition_error(kf, kh):
    rhs = kf.operator_matrix @ kh.operator_matrix
    return np.linalg.norm(gr.kernel_compose(kf, kh).operator_matrix - rhs) / np.linalg.norm(rhs)


def _gauge_spectra_and_homomorphism(grid, B, gauges, quad, rng):
    """Both items that quantize the battery's first symbol in the first gauge, from one kernel."""
    f, h = _symbol_pair(grid.dim)
    kf, kh = (qu.op_quantize(s, gauges[0], grid, quad=quad) for s in (f, h))
    errors = {"homomorphism_structural": _composition_error(kf, kh)}
    if len(gauges) > 1:
        kg = qu.op_quantize(f, gauges[1], grid, quad=quad)
        errors["gauge_spectrum_agreement"] = spectrum_error(kf.eigenvalues(), kg.eigenvalues())
    return errors


def trace_identity(grid, B, gauges, quad, rng, symbols=None):
    """Integral of the star product of two symbols against the pointwise one, relative."""
    f, h = symbols or _symbol_pair(grid.dim)
    prod = my.moyal_product(f, h, B, gauges[0], grid, quad, check_gauge=False)
    fh = f.sample(grid, "midpoint").values * h.sample(grid, "midpoint").values
    rhs = sy.SymbolGrid(grid, "midpoint", fh).integral()
    return abs(prod.integral() - rhs) / abs(rhs)


def fourier_wigner_isometry(grid, B, gauges, quad, rng):
    """``|V(u, v)|_2 = |u| |v|`` for 20 seeded pairs of interior packets."""
    worst = 0.0
    for _ in range(20):
        u, v = (gr.gaussian_wavefunction(grid, center=rng.uniform(-0.6, 0.6, grid.dim),
                                         width=rng.uniform(0.55, 0.75),
                                         momentum=rng.uniform(-1, 1, grid.dim))
                for _ in range(2))
        tab = wg.fourier_wigner(u, v, gauges[0], quad)
        worst = max(worst, abs(tab.l2_norm() - u.norm() * v.norm()))
    return worst


def rank_one_reconstruction(grid, B, gauges, quad, rng, state=None):
    """Quantized rank-one symbol of a state against its projector kernel, relative."""
    u = state or gr.gaussian_wavefunction(grid, center=0.2 * np.ones(grid.dim), width=0.7)
    op = qu.op_quantize(wg.rank_one_symbol(u, u, gauges[0], quad), gauges[0], grid, quad=quad)
    target = wg.rank_one_kernel(u, u)
    return np.linalg.norm(op.kernel - target.kernel) / np.linalg.norm(target.kernel)


def field_commutator_error(P, B, u):
    """``[Pi_1, Pi_2] = i B_12(Q)`` on u, relative; ``P[j]`` is the axis-j momentum."""
    v = u.values.ravel()
    b12 = np.asarray(B.eval(u.grid.config_points()))[:, 0, 1]
    out = 1j * (P[1] @ (P[0] @ v) - P[0] @ (P[1] @ v))
    return np.linalg.norm(out - b12 * v) / np.linalg.norm(u.values)


def _commutators(grid, B, gauges, quad, rng):
    # they need momentum resolution beyond the default grid, so they run on
    # a refined copy of the rig
    gc = gr.PhaseSpaceGrid(grid.dim, max(grid.n, 28), grid.L)
    u = gr.gaussian_wavefunction(gc, width=0.9)
    P = [qu.momentum_operator(gauges[0], j, gc).operator_matrix for j in range(gc.dim)]
    v, q1 = u.values.ravel(), gc.config_points()[:, 0]
    out = 1j * (P[0] @ (q1 * v) - q1 * (P[0] @ v))
    errors = {"grid_n": gc.n, "position_momentum_commutator":
              np.linalg.norm(out - v) / np.linalg.norm(u.values)}
    if gc.dim >= 2:
        errors["momentum_commutator_field"] = field_commutator_error(P, B, u)
    return errors


def coupling_agreement(grid, B, gauges, quad, rng, symbol=None):
    """Worst |covariant - naive| coupling of a momentum polynomial, by default
    the battery's ``p_1^2 + p_2^2`` (from dim 2 on)."""
    if symbol is None and grid.dim >= 2:
        symbol = cp.PolynomialSymbol(grid.dim, [(1.0, (2,) + (0,) * (grid.dim - 1)),
                                                (1.0, (0, 2) + (0,) * (grid.dim - 2))])
    if symbol is not None:
        return cp.coupling_discrepancy(symbol, gauges[0], grid)[1]["max_abs_difference"]


# The battery: (item name -> tolerance, error function) pairs, in report order.
# A function returns its one item's error, or a dict of errors by item name
# whose other keys are extra report fields of those items; an item that does
# not apply to the rig is None or absent.
CRITERIA = (
    ({"stokes_factorization": 1e-8, "cocycle_identity": 1e-8}, stokes_and_cocycle),
    ({"transform_roundtrip": 1e-12, "parseval": 1e-12}, transform_structure),
    ({"constant_symbol_identity": 1e-10}, constant_symbol_identity),
    ({"weyl_composition_law": 1e-6}, weyl_composition_law),
    ({"gauge_spectrum_agreement": 1e-8, "homomorphism_structural": 1e-12},
     _gauge_spectra_and_homomorphism),
    ({"trace_identity": 1e-6}, trace_identity),
    ({"fourier_wigner_isometry": 1e-6}, fourier_wigner_isometry),
    ({"rank_one_reconstruction": 1e-6}, rank_one_reconstruction),
    ({"momentum_commutator_field": 1e-4, "position_momentum_commutator": 1e-6}, _commutators),
    ({"coupling_degree2_equal": 1e-10}, coupling_agreement),
)

# every battery item and its tolerance, in report order
TOLERANCES = {name: tol for tolerances, _ in CRITERIA for name, tol in tolerances.items()}


def run_battery(grid, B, gauges, quad, rng, tol_scale=1.0):
    """Run the full invariant battery; returns a list of report items."""
    items = []
    for tolerances, error_fn in CRITERIA:
        errors = error_fn(grid, B, gauges, quad, rng)
        if not isinstance(errors, dict):
            errors = dict.fromkeys(tolerances, errors)
        extra = {k: v for k, v in errors.items() if k not in tolerances}
        for name, tol in tolerances.items():
            if errors.get(name) is not None:
                error, tol = float(errors[name]), float(tol * tol_scale)
                items.append({"name": name, "error": error, "tolerance": tol,
                              "passed": error < tol, **extra})
    return items
