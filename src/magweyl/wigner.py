"""Phase-space matrix coefficients of the magnetic Weyl system.

``fourier_wigner`` tabulates ``<v, W(xi) u>`` over the phase-space lattice
(the translation part of ``xi`` runs over the configuration lattice, the
momentum part over the dual lattice).  The map is an isometry from pairs
of states to phase-space functions up to boundary truncation, and its
symplectic Fourier transform is the symbol of the rank-one operator
``|u><v|`` -- the discrete form of the correspondence between phase-space
coefficients and Hilbert-Schmidt operators.  The field enters only through
``grid._dress``, which dresses the rank-one kernel as it does every kernel.

``weyl_span_probe`` measures the dimension spanned by the cyclic (wrapped)
Weyl operators over a sample of lattice points: the finite Weyl system for
which a full-lattice sample spans the whole matrix algebra, the strongest
finite-grid counterpart of irreducibility.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionMismatchError, InputError, ResourceLimitError
from .fields import DEFAULT_QUADRATURE, Quadrature, VectorPotential, circulation
from .grid import (
    OperatorKernel,
    PhaseSpaceGrid,
    WaveFunction,
    _apply_axes,
    _dress,
    _multiply_per_axis,
    _row_blocks,
    _translations,
    fourier_symplectic,
)
from .quantize import _lattice_vector
from .symbols import SymbolGrid

__all__ = [
    "fourier_wigner",
    "rank_one_symbol",
    "weyl_span_probe",
]


def fourier_wigner(u: WaveFunction, v: WaveFunction, A: VectorPotential | None,
                   quad: Quadrature = DEFAULT_QUADRATURE) -> SymbolGrid:
    """Phase-space coefficient table ``<v, W(x, p) u>`` on the standard lattice.

    Computed in factorized form: the rank-one kernel ``conj(v(y)) u(z)``,
    dressed with the phases of ``A`` (``grid._dress``), is read at the pairs
    ``(y, y + x)`` of every lattice translation ``x`` (``grid._translations``);
    a forward transform per axis takes the ``y`` axes to the dual lattice.
    Zero-fill truncation matches the Weyl-operator convention, so the table
    agrees with directly assembled inner products to roundoff.  Each step
    holds the only reference to its input, so it peaks at two kernels.
    States on different grids raise DimensionMismatchError.
    """
    if u.grid != v.grid:
        raise DimensionMismatchError("states live on different grids")
    g = u.grid
    N = g.dim
    # forward transform of the y axes, then the half phase e^{-i (x/2).p}
    vals = _apply_axes(_translations(_dress(np.outer(np.conj(v.values.ravel()), u.values.ravel()),
                                            A, g, quad), g),
                       g._fwd_matrix, range(N, 2 * N))
    return SymbolGrid(g, "standard", _multiply_per_axis(
        vals, np.exp(-0.5j * np.outer(g.config_axis, g.momentum_axis)), g))


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
    """Numerical rank of the span of cyclic Weyl operators over sampled lattice points.

    ``[W(x, p) u](y) = e^{-i (y + x/2).p} e^{-i Gamma^A([y, y + x])} u(y + x mod n)``
    touches only the pairs ``(y, y + x mod n)``, so the sample stack is block-diagonal
    by translation class (``x / h`` mod n per axis): one block of rows per class,
    zero-padded to the largest, one circulation per distinct ``x``, one batched SVD.

    Parameters
    ----------
    sample : sequence of (x, p) pairs or None
        None samples the full phase-space lattice (n^N translations times
        n^N momenta); an empty sample raises InputError.
    rank_tol : float
        Singular values above ``rank_tol`` times the largest count; 0 < rank_tol < 1.
    max_entries : int
        Cap on the block entries, padding included: the complex blocks, 16
        bytes an entry, are the probe's one large array, so the cap bounds
        its working memory at about ``16 * max_entries`` bytes.  The phases
        are written into the blocks one ``_row_blocks`` block of samples at
        a time.

    Returns a report ``{"sample_size", "rank", "full_dim"}``; the full lattice
    has rank ``full_dim = (n^N)^2`` for any potential.
    """
    if not (isinstance(rank_tol, numbers.Real) and 0.0 < rank_tol < 1.0):  # NaN fails too
        raise InputError("rank_tol must be finite with 0 < rank_tol < 1, got %r" % (rank_tol,))
    g, pts = grid, grid.config_points()
    if sample is None:
        xs, ps = np.repeat(pts, g.size, axis=0), np.tile(g.momentum_points(), (g.size, 1))
    elif len(sample) == 0:
        raise InputError("span probe needs at least one sample point")
    else:
        xs, ps = (np.stack([_lattice_vector(g, pair[k], name) for pair in sample])
                  for k, name in enumerate(("translation", "momentum")))
    steps = (g.lattice_index(xs) - g.n // 2) % g.n
    _, cls, counts = np.unique(np.ravel_multi_index(tuple(steps.T), g.shape),
                               return_inverse=True, return_counts=True)
    entries = len(counts) * counts.max() * g.size
    if entries > max_entries:
        raise ResourceLimitError("span probe needs %d entries, cap %d" % (entries, max_entries))
    order = np.argsort(cls, kind="stable")  # grouped by class; a row's slot is its place
    xs, ps, cls = xs[order], ps[order], cls[order]
    rows = cls * counts.max() + np.arange(len(cls)) - (np.cumsum(counts) - counts)[cls]
    if A is not None:
        shifts, which = np.unique(xs, axis=0, return_inverse=True)
        circ, which = circulation(A, pts, pts + shifts[:, None], quad), which.ravel()
    blocks = np.zeros((len(counts), counts.max(), g.size), dtype=complex)
    table = blocks.reshape(-1, g.size)
    # e^{-i (y.p + Gamma^A([y, y + x]))} per sample, written into its block row in
    # _row_blocks; the row constant x.p/2 moves no singular value
    for r0, r1 in _row_blocks(len(cls)):
        arg = -1j * (ps[r0:r1] @ pts.T)
        if A is not None:
            arg -= 1j * circ[which[r0:r1]]
        table[rows[r0:r1]] = np.exp(arg, out=arg)
    sv = np.linalg.svd(blocks, compute_uv=False)  # padding adds zeros, which never count
    return {"sample_size": len(cls), "rank": int((sv > rank_tol * sv.max()).sum()),
            "full_dim": g.size**2}
