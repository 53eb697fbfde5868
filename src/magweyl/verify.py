"""Invariant battery behind the `verify` command.

Each item exercises one structural identity of the calculus on the
configured rig and reports the measured error against its tolerance.
Items are deterministic functions of the configuration seed.
"""

from __future__ import annotations

import numpy as np

from . import coupling as cp
from . import fields as fl
from . import grid as gr
from . import moyal as my
from . import quantize as qu
from . import wigner as wg

__all__ = ["run_battery"]


def _item(name, error, tol, **extra):
    rec = {"name": name, "error": float(error), "tolerance": float(tol),
           "passed": bool(error < tol)}
    rec.update(extra)
    return rec


def run_battery(grid, B, gauges, quad, rng, tol_scale=1.0):
    """Run the full invariant battery; returns a list of report items."""
    items = []
    A = gauges[0]
    scale = tol_scale

    # circulation/flux structure
    q, x, y = rng.uniform(-grid.L / 2, grid.L / 2, size=(3, 200, grid.dim))
    lhs = fl.flux_phase(B, q, x, y, quad)
    rhs = (fl.translation_phase(A, q, x, quad) * fl.translation_phase(A, q + x, y, quad)
           / fl.translation_phase(A, q, x + y, quad))
    items.append(_item("stokes_factorization", np.abs(lhs - rhs).max(), 1e-8 * scale))

    z = rng.uniform(-grid.L / 2, grid.L / 2, size=(200, grid.dim))
    lhs = fl.flux_phase(B, q, x + y, z, quad) * fl.flux_phase(B, q, x, y, quad)
    rhs = fl.flux_phase(B, q + x, y, z, quad) * fl.flux_phase(B, q, x, y + z, quad)
    items.append(_item("cocycle_identity", np.abs(lhs - rhs).max(), 1e-8 * scale))

    # transform structure
    u = gr.WaveFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    back = gr.fourier_config(gr.WaveFunction(grid, gr.fourier_config(u, "forward")), "inverse")
    items.append(_item("transform_roundtrip",
                       np.abs(back - u.values).max() / np.abs(u.values).max(), 1e-12 * scale))
    fwd = gr.fourier_config(u, "forward")
    n1 = grid.config_weight * (np.abs(u.values) ** 2).sum()
    n2 = grid.momentum_weight * (np.abs(fwd) ** 2).sum()
    items.append(_item("parseval", abs(n1 - n2) / n1, 1e-12 * scale))

    # kernel map basics
    ident = gr.kernel_from_symbol(gr.constant_symbol(grid.dim), A, grid, quad)
    defect = np.abs(ident.kernel - np.eye(grid.size) / grid.config_weight).max()
    items.append(_item("constant_symbol_identity", defect * grid.config_weight, 1e-10 * scale))

    # Weyl composition law on interior states
    uu = gr.gaussian_wavefunction(grid, width=0.7)
    worst = 0.0
    for _ in range(20):
        sx, sy = rng.integers(-2, 3, size=(2, grid.dim))
        xv, yv = sx * grid.h, sy * grid.h
        pxi, peta = rng.uniform(-2, 2, size=(2, grid.dim))
        lhs = qu.weyl_apply(A, (xv, pxi), qu.weyl_apply(A, (yv, peta), uu, quad), quad)
        sigma = yv @ pxi - xv @ peta
        omega = fl.flux_phase(B, grid.config_points(), xv, yv, quad).reshape(grid.shape)
        rhs = np.exp(0.5j * sigma) * omega * qu.weyl_apply(
            A, (xv + yv, pxi + peta), uu, quad).values
        worst = max(worst, np.abs(lhs.values - rhs).max() / uu.norm())
    items.append(_item("weyl_composition_law", worst, 1e-6 * scale))

    # gauge covariance across the supplied gauges
    f = gr.gaussian_symbol(grid.dim, x_width=0.9, p_width=1.0)
    if len(gauges) > 1:
        A2 = gauges[1]
        k1 = qu.op_quantize(f, A, grid, quad=quad)
        k2 = qu.op_quantize(f, A2, grid, quad=quad)
        ev = np.abs(np.sort(k1.eigenvalues()) - np.sort(k2.eigenvalues())).max()
        items.append(_item("gauge_spectrum_agreement",
                           ev / max(np.abs(k1.eigenvalues()).max(), 1e-30), 1e-8 * scale))

    # homomorphism: composed kernels against operator products
    h = gr.gaussian_symbol(grid.dim, x_center=0.2 * np.ones(grid.dim),
                           x_width=0.8, p_width=0.9)
    lhsk = my.product_kernel(f, h, A, grid, quad)
    rhsm = qu.op_quantize(f, A, grid, quad=quad).operator_matrix @ qu.op_quantize(
        h, A, grid, quad=quad).operator_matrix
    err = np.linalg.norm(lhsk.operator_matrix - rhsm) / np.linalg.norm(rhsm)
    items.append(_item("homomorphism_structural", err, 1e-12 * scale))

    # trace identity
    prod = my.moyal_product(f, h, B, A, grid, quad, check_gauge=False)
    lhs_tr = prod.integral()
    fg = f.sample(grid, "midpoint").values * h.sample(grid, "midpoint").values
    rhs_tr = gr.SymbolGrid(grid, "midpoint", fg).integral()
    items.append(_item("trace_identity", abs(lhs_tr - rhs_tr) / abs(rhs_tr), 1e-6 * scale))

    # Fourier-Wigner isometry
    worst = 0.0
    for _ in range(20):
        ua = gr.gaussian_wavefunction(grid, center=rng.uniform(-0.6, 0.6, grid.dim),
                                      width=rng.uniform(0.55, 0.75),
                                      momentum=rng.uniform(-1, 1, grid.dim))
        va = gr.gaussian_wavefunction(grid, center=rng.uniform(-0.6, 0.6, grid.dim),
                                      width=rng.uniform(0.55, 0.75),
                                      momentum=rng.uniform(-1, 1, grid.dim))
        tab = wg.fourier_wigner(ua, va, A, quad)
        worst = max(worst, abs(tab.l2_norm() - ua.norm() * va.norm()))
    items.append(_item("fourier_wigner_isometry", worst, 1e-6 * scale))

    # rank-one reconstruction
    ur = gr.gaussian_wavefunction(grid, center=0.2 * np.ones(grid.dim), width=0.7)
    op = qu.op_quantize(wg.rank_one_symbol(ur, ur, A, quad), A, grid, quad=quad)
    target = wg.rank_one_kernel(ur, ur)
    err = np.linalg.norm(op.kernel - target.kernel) / np.linalg.norm(target.kernel)
    items.append(_item("rank_one_reconstruction", err, 1e-6 * scale))

    # magnetic commutation relations; needs momentum resolution beyond the
    # default grid, so this item runs on a refined copy of the rig
    gc = gr.PhaseSpaceGrid(grid.dim, max(grid.n, 28), grid.L)
    uc = gr.gaussian_wavefunction(gc, width=0.9)
    P = [qu.momentum_operator(A, j, gc).operator_matrix for j in range(gc.dim)]
    if gc.dim >= 2:
        comm = 1j * (P[1] @ P[0] - P[0] @ P[1])
        b12 = np.asarray(B.eval(gc.config_points()))[:, 0, 1]
        out = comm @ uc.values.ravel()
        err = np.linalg.norm(out - b12 * uc.values.ravel()) / np.linalg.norm(uc.values)
        items.append(_item("momentum_commutator_field", err, 1e-4 * scale,
                           grid_n=gc.n))
    Qj = np.diag(gc.config_points()[:, 0])
    comm = 1j * (P[0] @ Qj - Qj @ P[0])
    out = comm @ uc.values.ravel()
    err = np.linalg.norm(out - uc.values.ravel()) / np.linalg.norm(uc.values)
    items.append(_item("position_momentum_commutator", err, 1e-6 * scale, grid_n=gc.n))

    # coupling dichotomy (closed forms)
    if grid.dim >= 2:
        fdeg2 = cp.PolynomialSymbol(grid.dim, [(1.0, (2,) + (0,) * (grid.dim - 1)),
                                               (1.0, (0, 2) + (0,) * (grid.dim - 2))])
        _, rep2 = cp.coupling_discrepancy(fdeg2, A, grid)
        items.append(_item("coupling_degree2_equal", rep2["max_abs_difference"], 1e-10 * scale))
    return items
