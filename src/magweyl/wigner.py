"""Phase-space matrix coefficients of the magnetic Weyl system.

``fourier_wigner`` tabulates ``<v, W(xi) u>`` over the phase-space lattice
(the translation part of ``xi`` runs over the configuration lattice, the
momentum part over the dual lattice).  The map is an isometry from pairs
of states to phase-space functions up to boundary truncation, and its
symplectic Fourier transform is the symbol of the rank-one operator
``|u><v|`` -- the discrete form of the correspondence between phase-space
coefficients and Hilbert-Schmidt operators.

``weyl_span_probe`` measures the dimension spanned by Weyl operators over
a sample of lattice points.  It uses the cyclic (wrapped) translation
convention: that is the finite Weyl system for which a full-lattice sample
spans the whole matrix algebra, the strongest finite-grid counterpart of
irreducibility.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError
from .fields import DEFAULT_QUADRATURE, Quadrature, VectorPotential
from .grid import (
    OperatorKernel,
    PhaseSpaceGrid,
    SymbolGrid,
    WaveFunction,
    _shift_index_table,
    fourier_symplectic,
)
from .quantize import translation_phase_table, weyl_matrix

__all__ = [
    "fourier_wigner",
    "rank_one_symbol",
    "weyl_span_probe",
]


def fourier_wigner(u: WaveFunction, v: WaveFunction, A: VectorPotential | None,
                   quad: Quadrature = DEFAULT_QUADRATURE) -> SymbolGrid:
    """Phase-space coefficient table ``<v, W(x, p) u>`` on the standard lattice.

    Computed in factorized form: one gather builds the windowed products
    ``conj(v) . phase . shifted u`` for all lattice translations at once,
    and one matrix product transforms them to the dual lattice.  Zero-fill
    truncation matches the Weyl-operator convention, so the table agrees
    with directly assembled inner products to roundoff.
    """
    if u.grid != v.grid:
        raise DimensionMismatchError("states live on different grids")
    g = u.grid
    lam = translation_phase_table(A, g, quad)  # (y, x) circulation phases
    pts = g.config_points()
    kpts = g.momentum_points()
    cols, valid = _shift_index_table(g, np.rint(pts / g.h).astype(int))  # (y, x)
    ephase = g.config_weight * np.exp(-1j * pts @ kpts.T)  # (y, p): h^N e^{-i y.p}
    half = np.exp(-0.5j * pts @ kpts.T)                    # (x, p): e^{-i (x/2).p}
    vconj = np.conj(v.values.ravel())
    w = np.where(valid, vconj[:, None] * lam * u.values.ravel()[cols], 0)  # (y, x)
    vals = half * (w.T @ ephase)
    return SymbolGrid(g, "standard", vals.reshape(g.shape + g.shape))


def rank_one_symbol(u: WaveFunction, v: WaveFunction, A: VectorPotential | None,
                    quad: Quadrature = DEFAULT_QUADRATURE) -> SymbolGrid:
    """Symbol whose quantization is the rank-one operator ``|u><v|``.

    The symplectic Fourier transform of the phase-space coefficient table.
    """
    return fourier_symplectic(fourier_wigner(u, v, A, quad), "forward")


def rank_one_kernel(u: WaveFunction, v: WaveFunction) -> OperatorKernel:
    """Integral kernel ``u(x) conj(v(y))`` of the rank-one operator."""
    if u.grid != v.grid:
        raise DimensionMismatchError("states live on different grids")
    return OperatorKernel(u.grid, np.outer(u.values.ravel(), np.conj(v.values.ravel())))


def weyl_span_probe(A: VectorPotential | None, grid: PhaseSpaceGrid,
                    sample=None, quad: Quadrature = DEFAULT_QUADRATURE,
                    rank_tol: float = 1e-8, max_entries: int = 2**26) -> dict:
    """Numerical rank of the span of Weyl operators over sampled lattice points.

    Parameters
    ----------
    sample : sequence of (x, p) pairs or None
        None samples the full phase-space lattice (n^N translations times
        n^N momenta).
    rank_tol : float
        Singular values above ``rank_tol`` times the largest count.

    Returns a report ``{"sample_size", "rank", "full_dim"}``; the full
    lattice yields ``full_dim = (n^N)^2`` for any potential, the
    finite-dimensional counterpart of irreducibility of the system.
    """
    g = grid
    if sample is None:
        xs = g.config_points()
        ks = g.momentum_points()
        sample = [(x, p) for x in xs for p in ks]
    S = len(sample)
    dim2 = g.size**2
    if S * dim2 > max_entries:
        raise ResourceLimitError(
            "span probe needs %d matrix entries, cap is %d" % (S * dim2, max_entries)
        )
    stack = np.zeros((S, dim2), dtype=complex)
    for i, (x, p) in enumerate(sample):
        m = weyl_matrix(A, (np.asarray(x, dtype=float), np.asarray(p, dtype=float)),
                        g, quad, boundary="cyclic")
        stack[i] = m.operator_matrix.ravel()
    sv = np.linalg.svd(stack, compute_uv=False)
    rank = int((sv > rank_tol * sv[0]).sum())
    return {"sample_size": S, "rank": rank, "full_dim": dim2}
