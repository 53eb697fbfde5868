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

Both routes compute the composed kernel, its phase stripped, only on the
pairs the inverse map reads, and share the inverse map's per-axis
contraction (``grid._window_symbol``), which writes one block of midpoint
rows at a time into a C-ordered table.  Two facts make this exact:

* the factor kernels are masked (``kernel_from_symbol`` with ``mask=True``),
  so each is exactly 0 at every pair more than n/2 lattice steps apart on
  some axis, and a sum over the middle point runs over the band of the row;
* ``symbol_from_kernel`` reads only the pairs at most n/2 steps apart on
  every axis.

The twisted route takes an affine base potential and two evaluators whose
factors are all axis products (``symbols._AxisProduct``; every preset's
are).  ``grid._affine`` is the one predicate for an affine base, here and
in the kernel maps' dressing (``grid._dress``), and reads its twist ``W``
off ``eval``.  An affine potential with Jacobian ``J`` has the triangle
flux

    Gamma(x, z) + Gamma(z, y) - Gamma(x, y) = z^T W (x - y) + x^T W y
                                            = (z - m)^T W (x - y),

``W = (J - J^T) / 2`` and ``m = (x + y) / 2``: bilinear, so once ``x - y``
is fixed the sum over the middle point ``z`` splits axis by axis into one
``n x n`` product per axis of the factors' per-axis matrices
(``grid._axis_matrices``), with ``e^{-i z_a c_a}``, ``c = W (x - y)``,
between them (``_twisted_slots``).  No factor kernel, phase table or
``n^N x n^N`` array is made.

Every other input (an ``fn`` evaluator, a ``SymbolGrid``, a potential of
higher or undeclared degree) takes the band route: both factor kernels are
filled in the base potential, and each row block of the first lattice axis
is multiplied only against the columns within n/2 first-axis steps of it
(``_band_compose``); the entries outside stay 0 and are never read.  The
composed kernel is then stripped in place by ``grid._dress``, the one
phase strip of every route: by the conjugate of the base's phase table,
or, for an affine base, whose factor kernels the twist dressed, by the
conjugate twist, with no table built or memoized.
``product_kernel`` returns a kernel and composes the full matrices.

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
    kernel_from_symbol,
    symbol_from_kernel,
    kernel_compose,
    _affine,
    _axis_matrices,
    _dress,
    _row_blocks,
    _window_symbol,
    _windows,
)
from .symbols import SymbolEvaluator, SymbolGrid, _axis_term, _lattice_mesh

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
    the composed kernel up to that kernel's wrap and alias tail.  For the
    two Gaussians of the shipped ``moyal`` config in the symmetric gauge,
    ``kernel_from_symbol`` of the table misses ``product_kernel`` by 7.2e-6
    of its largest entry at dim 2, n=16, L=6, by 3.5e-7 at n=16, L=8 and by
    1.4e-9 at n=32, L=8: the tail shrinks as the box grows.

    Two routes give the same table to roundoff (module notes).  When the
    base potential is affine (``grid._affine``) and every factor of both
    symbols is an axis product (every preset's is), the twisted route sums
    over the middle point one axis at a time on the pairs the inverse map
    reads.  Every other input (an ``fn`` evaluator, a ``SymbolGrid``, a
    potential of higher or undeclared degree) takes the band route.

    Raises
    ------
    GaugeMismatchError
        If ``dA`` does not match ``B`` on probe points.
    """
    if check_gauge:
        validate_gauge(A, B)
    base = _gauge_base(A)  # gauge phases conjugate both factors and the product alike
    affine = _affine(base, grid.dim)
    if affine is not None and all(isinstance(h, SymbolEvaluator) and h.dim == grid.dim
                                  and h.factors is not None and all(map(_axis_term, h.factors))
                                  for h in (f, g)):
        first, phase = _windows(grid)
        slots = _twisted_slots(f, g, affine[0], grid, first)
        return _window_symbol(lambda s0, s1: slots[s0:s1], phase, grid)
    kf, kg = (kernel_from_symbol(h, base, grid, quad) for h in (f, g))
    composed = _band_compose(kf.kernel, kg.kernel, grid)
    del kf, kg  # free the factors before the inverse map
    _dress(composed, base, grid, quad, strip=True)
    return symbol_from_kernel(OperatorKernel(grid, composed), None, quad)


def _twisted_slots(f: SymbolEvaluator, g: SymbolEvaluator, twist: np.ndarray,
                   grid: PhaseSpaceGrid, first: np.ndarray) -> np.ndarray:
    """The twisted route: the phase-stripped composed kernel on the window slots of ``first``.

    With ``F_ra``, ``G_sa`` the per-axis factors of the two symbols
    (``grid._axis_matrices``), the midpoint ``m`` of the slot's pair ``(x, y)``
    and ``c = W (x - y)``, the slot holds ``w sum_{r,s} prod_a sum_z F_ra(x_a,
    z) e^{-i (z - m_a) c_a} G_sa(z, y_a)`` (module notes).  Per axis ``a``,
    ``c_a`` takes one value per tuple of the other axes' steps ``x_b - y_b`` in
    ``[-n/2, n/2]``: one batched ``n x n`` product each, read at the window
    pairs and spread over the other axes' slots by the steps they hold.
    """
    n, N = grid.n, grid.dim
    S, T = first.shape
    second = np.arange(S)[:, None] - first
    steps = (first - second).ravel() + n // 2  # x - y at each slot, as an index into the steps
    tables = []
    fm, gm = (np.array(_axis_matrices(u.factors, grid)) for u in (f, g))  # (terms, N, n, n)
    for a in range(N):
        # (terms of f, terms of g, tuples of the other axes' steps, S, T); a tuple sets c_a
        tuples = _lattice_mesh([[0] if b == a else np.arange(n + 1) - n // 2 for b in range(N)])
        c = grid.h * (tuples @ twist[a])[:, None]
        slots = ((fm[:, None, None, a] * np.exp(-1j * c * grid.config_axis)[:, None])
                 @ gm[None, :, None, a])[..., first, second]
        slots *= np.exp(1j * c[:, :, None] * grid.midpoint_axis[:, None])
        pre = (n + 1) ** a
        slots = slots.reshape(-1, pre, len(c) // pre, S * T).swapaxes(2, 3)
        tables.append(slots.reshape((-1,) + (n + 1,) * a + (S * T,) + (n + 1,) * (N - 1 - a)))
    tables[0] = tables[0] * grid.config_weight
    out = None
    for per_axis in zip(*tables):  # one term pair at a time
        part = None
        for a, tab in enumerate(per_axis):
            for b in range(N):
                if b != a:
                    tab = np.take(tab, steps, axis=b)
            part = tab if part is None else np.multiply(part, tab, out=part)
        out = part if out is None else out + part
    return out.reshape((S, T) * N)


def _band_compose(kf: np.ndarray, kg: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """``w kf @ kg`` on the pairs ``symbol_from_kernel`` reads; 0 off the band.

    ``kf`` and ``kg`` are masked kernels (see module notes).  The rows of the
    ``_row_blocks`` block ``[a0, a1)`` of the first lattice axis reach, in
    both the middle point and the column, only first-axis indices in
    ``[a0 - n/2, a1 + n/2)``, so the block is ``w kf[rows, band] @ kg[band,
    band]``.  The phases stay on; the caller strips them (``grid._dress``).
    """
    n, w = grid.n, grid.config_weight
    stride = grid.size // n  # rows per index of the first lattice axis
    out = np.zeros_like(kf)
    for a0, a1 in _row_blocks(n):
        rows = slice(a0 * stride, a1 * stride)
        band = slice(max(a0 - n // 2, 0) * stride, min(a1 + n // 2, n) * stride)
        out[rows, band] = w * (kf[rows, band] @ kg[band, band])
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
