"""The magnetic star product of phase-space symbols.

The product is computed through integral kernels: quantize both factors,
compose the kernels, and map the composed kernel back to a symbol.  At
grid level the composition is a weighted matrix product, so the
homomorphism property

    quantize(f * g) = quantize(f) . quantize(g)

is structural (exact to roundoff up to far-off-diagonal wrap tails) rather
than a quadrature statement.  The product depends on the potential only
through its field: any two potentials with the same differential give the
same symbol samples to quadrature accuracy.  A gauge transform ``A + grad
rho`` conjugates both factors and their product by ``e^{i rho(Q)}``, which
the inverse map strips again, so the product quantizes both factors in
the base potential, with the kernel map of ``grid``, and never samples
``rho``.

The product composes only the band of the kernel that the inverse map
reads.  Two facts make this exact:

* the factor kernels are masked (``kernel_from_symbol`` with ``mask=True``),
  so each is exactly 0 at every pair more than n/2 lattice steps apart on
  some axis, and a sum over the middle point runs over the band of the row;
* ``symbol_from_kernel`` reads only the pairs at most n/2 steps apart on
  every axis.

So each row block of the first lattice axis is multiplied only against the
columns within n/2 first-axis steps of it (``_band_compose``); the entries
outside stay 0 and are never read.  ``product_kernel`` returns a kernel and
composes the full matrices.

A direct evaluation of the defining double phase-space integral -- the
oscillatory integral with the triangle-flux phase -- is kept as an
independent oracle for probing single phase-space points; it never feeds
the kernel route.
"""

from __future__ import annotations

import numpy as np

from .errors import GaugeMismatchError, InputError, ResourceLimitError
from .fields import (
    DEFAULT_QUADRATURE,
    MagneticField,
    Quadrature,
    VectorPotential,
    _gauge_base,
    check_potential_matches_field,
    flux_triangle,
)
from .grid import (
    OperatorKernel,
    PhaseSpaceGrid,
    SymbolEvaluator,
    SymbolGrid,
    kernel_from_symbol,
    symbol_from_kernel,
    kernel_compose,
    segment_phase_matrix,
    _lattice_mesh,
    _row_blocks,
)

__all__ = [
    "moyal_product",
    "moyal_direct_probe",
    "validate_gauge",
]


def validate_gauge(A: VectorPotential, B: MagneticField, tol: float = 1e-6) -> None:
    """Raise unless the finite-difference differential of A reproduces B."""
    worst = check_potential_matches_field(A, B)
    if worst > tol:
        raise GaugeMismatchError(
            "potential does not generate the field (max dA - B deviation %.3e)" % worst
        )


def moyal_product(f: SymbolEvaluator, g: SymbolEvaluator, B: MagneticField,
                  A: VectorPotential, grid: PhaseSpaceGrid,
                  quad: Quadrature = DEFAULT_QUADRATURE,
                  check_gauge: bool = True) -> SymbolGrid:
    """Magnetic star product of two symbols, on the midpoint lattice.

    Computed as the symbol of the composed quantization kernels.  The
    output is an alias-doubled midpoint table (see the grid module); its
    values are faithful on the inner momentum band and it re-quantizes to
    the composed kernel exactly.

    Raises
    ------
    GaugeMismatchError
        If ``dA`` does not match ``B`` on probe points.
    """
    if check_gauge:
        validate_gauge(A, B)
    base = _gauge_base(A)  # gauge phases conjugate both factors and the product alike
    kf, kg = (kernel_from_symbol(h, base, grid, quad) for h in (f, g))
    composed = _band_compose(kf.kernel, kg.kernel, segment_phase_matrix(base, grid, quad), grid)
    del kf, kg  # free the factors before the inverse map
    return symbol_from_kernel(OperatorKernel(grid, composed), None, quad)


def _band_compose(kf: np.ndarray, kg: np.ndarray, lam: np.ndarray | None,
                  grid: PhaseSpaceGrid) -> np.ndarray:
    """``w kf @ kg * conj(lam)`` on the pairs ``symbol_from_kernel`` reads; 0 off the band.

    ``kf`` and ``kg`` are masked kernels (see module notes).  The rows of the
    ``_row_blocks`` block ``[a0, a1)`` of the first lattice axis reach, in
    both the middle point and the column, only first-axis indices in
    ``[a0 - n/2, a1 + n/2)``, so the block is ``w kf[rows, band] @ kg[band,
    band]``, its phase stripped by the same table (None: no phase).
    """
    n, w = grid.n, grid.config_weight
    stride = grid.size // n  # rows per index of the first lattice axis
    out = np.zeros_like(kf)
    for a0, a1 in _row_blocks(n):
        rows = slice(a0 * stride, a1 * stride)
        band = slice(max(a0 - n // 2, 0) * stride, min(a1 + n // 2, n) * stride)
        block = w * (kf[rows, band] @ kg[band, band])
        if lam is not None:
            block *= np.conj(lam[rows, band])
        out[rows, band] = block
    return out


def product_kernel(f, g, A: VectorPotential | None, grid: PhaseSpaceGrid,
                   quad: Quadrature = DEFAULT_QUADRATURE) -> OperatorKernel:
    """Composed quantization kernel of two symbols (no symbol extraction)."""
    return kernel_compose(kernel_from_symbol(f, A, grid, quad),
                          kernel_from_symbol(g, A, grid, quad))


def _axis_lattice(half_width: float, count: int) -> tuple[np.ndarray, float]:
    step = 2.0 * half_width / count
    return -half_width + step * (np.arange(count) + 0.5), step


def moyal_direct_probe(f: SymbolEvaluator, g: SymbolEvaluator, B: MagneticField,
                       xi, points_per_axis: int = 16, config_halfwidth: float = 4.0,
                       momentum_halfwidth: float = 4.0,
                       quad: Quadrature = DEFAULT_QUADRATURE,
                       max_points: int = 2**20) -> complex:
    """Direct quadrature of the defining star-product integral at one point.

    Evaluates ``4^N  int int  e^{-2 i sigma(xi - eta, xi - zeta)}
    e^{-i flux(triangle with side midpoints xi, eta, zeta)} f(eta) g(zeta)``
    on a uniform product lattice over the decay support of ``f`` and ``g``.
    The momentum integrals factor out of the flux phase, so the sum is
    evaluated as iterated quadrature; the resource guard caps the largest
    materialized lattice.

    This route is independent of the kernel composition and serves as its
    oracle at selected probe points.  The integral is truncated to the box
    of half-widths ``config_halfwidth`` and ``momentum_halfwidth``, so the
    probe means nothing for symbols that do not decay inside it: with the
    constant symbol as a factor (1-D, 12 points per axis over half-width 4)
    it returns 0.242 where the exact product is 1.
    """
    N = B.dim
    if f.dim != N or g.dim != N:
        raise InputError("symbol dimensions do not match field dimension")
    m = int(points_per_axis)
    if m < 1 or not (config_halfwidth > 0 and momentum_halfwidth > 0):  # refuses NaN too
        raise InputError("probe lattice needs points_per_axis >= 1 and positive half-widths, "
                         "got %d, %g, %g" % (m, config_halfwidth, momentum_halfwidth))
    if m**(2 * N) > max_points:
        raise ResourceLimitError(
            "probe lattice of %d^%d points exceeds the cap %d" % (m, 2 * N, max_points)
        )
    q = np.asarray(xi[0], dtype=float)
    p = np.asarray(xi[1], dtype=float)
    xax, dx = _axis_lattice(config_halfwidth, m)
    kax, dk = _axis_lattice(momentum_halfwidth, m)
    cw = dx**N
    mw = (dk / (2.0 * np.pi)) ** N

    xpts = _lattice_mesh([xax] * N)                           # (M, N) config nodes
    kpts = _lattice_mesh([kax] * N)

    # momentum integrals: for each config node x of f,
    #   Gf[x, y] = int dk~ e^{+2 i (q - y) . k} f(x, k)
    # and for g with the opposite sign in (q - x).
    fvals = f(xpts[:, None, :], kpts[None, :, :])             # (Mx, Mk)
    gvals = g(xpts[:, None, :], kpts[None, :, :])
    wq = q[None, :] - xpts                                    # (My, N) values of q - y
    ephase = np.exp(2j * (wq @ kpts.T))                       # (My, Mk)
    Gf = mw * fvals @ ephase.T                                # (Mx, My): Gf[x, y]
    Gg = mw * gvals @ np.conj(ephase).T                       # (Mx_g = y-index, My_g = x-index)

    # remaining double configuration sum with the flux phase
    # sigma(xi-eta, xi-zeta) = (q - y).(p - k) - (q - x).(p - l); the pure-p
    # parts contribute e^{-2i (q - y).p} e^{+2i (q - x).p}
    py = np.exp(-2j * (wq @ p))                               # over y nodes
    px = np.exp(2j * (wq @ p))                                # over x nodes
    v1 = q[None, None, :] + xpts[:, None, :] - xpts[None, :, :]   # q + x - y
    v2 = -q[None, None, :] + xpts[:, None, :] + xpts[None, :, :]  # x + y - q
    v3 = q[None, None, :] - xpts[:, None, :] + xpts[None, :, :]   # q - x + y
    flux = flux_triangle(B, v1.reshape(-1, N), v2.reshape(-1, N), v3.reshape(-1, N), quad)
    fphase = np.exp(-1j * flux).reshape(len(xpts), len(xpts))
    total = np.einsum("x,y,xy,xy,yx->", px, py, fphase, Gf, Gg)
    return complex((4.0**N) * (cw**2) * total)
