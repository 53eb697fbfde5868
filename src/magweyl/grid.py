"""Truncated phase-space grids, Fourier conventions and kernel maps.

Discretization
--------------
Configuration space is truncated to the box ``[-L, L)^N`` with ``n`` (even)
points per axis, spacing ``h = 2L/n``; the dual momentum lattice has the
same count with spacing ``pi/L``.  The quadrature weights are ``h`` per
configuration axis and ``1/(2L)`` per momentum axis -- the unique choice
making the discrete transforms below mutually inverse, so no loose
normalization constant survives at grid level.  Every lattice Fourier
transform in the package contracts one axis at a time with the grid's two
``n x n`` matrices (``_apply_axes``); no ``n^N x n^N`` phase table is built.

Kernel maps
-----------
``kernel_from_symbol`` realizes the map taking a phase-space symbol
``f(x, p)`` to the integral kernel of its quantization,

    K(x, y) = phase(x, y) * sum_k w_k e^{i (x - y) . k} f((x + y)/2, k),

where ``phase`` is the unit-modulus circulation factor of a vector
potential (1 for the non-magnetic case).  The midpoint ``(x + y)/2`` lies
on the half-step lattice, so symbols enter as closed-form evaluators
(sampled exactly, no interpolation), as half-step-lattice sample tables, or
as standard-lattice tables read through their trigonometric interpolant on
the midpoints.  The symbol presets are separable and are given by their
factors alone (``SymbolEvaluator``, in ``symbols``), so every quantization
route reads the same definition.

At ordering ``tau`` and Planck constant ``hbar`` (``quantize.op_quantize``)
the symbol is read at ``((1 - tau) x + tau y, hbar k)`` and the phase is
``exp(-i Gamma / hbar)``; ``kernel_from_symbol`` is ``tau = 1/2, hbar = 1``.
Both call ``_quantized_kernel``, the one place that picks the fill of the
field-free kernel, and dresses the kernel with the phases.  Every fill
multiplies in its mask (the trapezoid weights of ``_trapezoid``, or the
zero-fill mask of a standard table) as it writes the kernel:

===========================  =========================  =========================
symbol                       tau = 1/2, hbar = 1        other tau or hbar
===========================  =========================  =========================
evaluator with ``factors``   separable: Kronecker       separable: Kronecker
                             products, row blocks       products, row blocks
evaluator given by ``fn``    windowed                   per-difference
midpoint ``SymbolGrid``      windowed                   refused
standard ``SymbolGrid``      windowed (interpolated),   refused
                             zero-fill mask
===========================  =========================  =========================

* the separable fill (``_separable_kernel``): for ``f = sum_r g_r(x)
  h_r(p)`` the kernel is ``sum_r g_r((1 - tau) x + tau y) H_r(x - y)``,
  one per-axis inverse transform ``H_r`` of each ``h_r`` (mask folded in).
  A term whose two factors are products over the axes
  (``symbols._AxisProduct``; every preset's are) is the Kronecker product
  of one ``n x n`` matrix per axis, ``g_ra`` at the pair times ``H_ra`` at
  its wrapped difference, and all such terms are written in one pass, one
  matmul over the terms (``_kron_sum``).  Any other term is added in row
  blocks; at ``tau = 1/2`` its ``g_r`` is evaluated once on the midpoint
  lattice and read per axis at the midpoint index ``i + j``.
* the windowed map (``_windowed_kernel``), the separable fill's test
  oracle.  Per axis, the pairs ``(i, j)`` of one midpoint class ``s = i + j``
  have wrapped differences of one parity, so the class reads only n/2 of
  the n differences.  The map streams blocks of rows of the first axis's
  midpoint index ``s_1`` (``_midpoint_blocks``): per block it evaluates,
  reads or interpolates the block's midpoint rows only, contracts each
  momentum axis, batched over that axis's midpoint index, with those n/2
  rows of the inverse transform, and writes the block's pairs into the
  kernel by one flat ``take``, times the mask.  Beyond the kernel it holds
  one block (1.22 kernels at dim 2, n = 32 for a table).
* the per-difference fill (``_per_difference_kernel``): one matrix-vector
  product per lattice difference, times its mask weight, about ``n^{3N}``
  symbol evaluations.
* a standard table, whose kernel is the paper's Weyl-system sum ``w sum_xi
  (F_sigma f)(xi) W^A(xi)`` with zero-filled translations, takes the
  windowed map of its trigonometric interpolant on the midpoints (one
  ``(2n - 1) x n`` matrix per configuration axis, applied just before that
  axis's momentum step) times the zero-fill mask: per axis 1 where ``row -
  col`` lies in ``(-n/2, n/2]`` lattice steps, the pairs ``(y, y + x)`` the
  Weyl operators reach, else 0; so it has no unmasked form.  The
  interpolant runs over the lattice's own momenta ``-n/2 ... n/2 - 1``, the
  edge not split with ``+n/2 dp``: the sum reflects it to ``+n/2 dp``, off
  the lattice, where the Weyl phases give it the sign ``(-1)^{x/h}`` per
  axis.  So the Weyl system's coefficient tables reproduce their operators
  exactly (rank-one reconstruction), and a symmetrized edge misses the sum
  for tables that do not decay before the box edge.

``symbol_from_kernel`` is its mirror, streamed over the same blocks of
``s_1``: per block, one gather of the pairs of each midpoint class into a
window of one alias period of differences per axis, then one contraction
per axis with the window's Fourier phases, batched over that axis's
midpoint index as in the windowed map, written into the block's rows of a
C-ordered ``(2n - 1)^N x n^N`` table, so no intermediate is of the
table's order.  With an
even point count the pairs ``(x, y)`` sharing a midpoint supply only half
the momentum modes (differences step by ``2h``), so the reconstructed table
holds the alias sum ``f(u, k) + f(u, k -+ n/2 * dp)``: values are faithful
on the inner half of the momentum box whenever the symbol decays inside a
quarter box, while the outer band carries the wrapped mirror of the
centre.  Reconstructed grids are flagged ``alias_doubled`` and
re-quantized with the dual half-weight, which makes

    kernel_from_symbol(symbol_from_kernel(K)) == K

exact to roundoff on the image of the (masked) kernel map -- in practice
on composed kernels of localized symbols up to their out-of-band tails.
Kernels whose symbols straddle the alias split (e.g. the bare identity)
are reconstructed only as their alias class; see ``_trapezoid`` for the
one-period convention the pairings rely on.  The map is three steps:
the window tables (``_windows``), the gather of a block's kernel pairs into
them (``_window_pairs``) and the per-axis contraction of each block
(``_window_symbol``).  The star product's twisted route (``moyal``) fills
the same windows from the per-axis factor matrices of the separable fill
(``_axis_matrices``) and ends in the same contraction.

Every route gains or loses a potential's phases in ``_dress`` alone, the
star product's band route too, which strips its composed kernel there.  A
base potential ``A(x) = J x + A(0)`` of declared degree <= 1 (``_affine``)
has ``Gamma^A([x, y]) = y^T W x + rho(y) - rho(x)``, ``W = (J - J^T) / 2``
and ``rho(x) = x^T S x / 2 + A(0) . x`` with ``S = (J + J^T) / 2``: the
kernel is multiplied in place by the twist, one ``(n, n)`` table per axis
pair with ``W_ab != 0`` (``_twist_dress``), and by ``e^{i rho / hbar}``
folded into any gauge phases, with no ``n^N x n^N`` table.  Any other base
dresses by its ``exp(-i Gamma / hbar)`` (at ``hbar = 1`` the one memo a
potential keeps, ``segment_phase_matrix``), then the gauge phases.  That
table is built in one pass (``_segment_phases``): the circulations of the
pairs on and above the diagonal are integrated one row block at a time,
exponentiated in place in the table and mirrored by conjugation, so no
kernel-sized array but the table itself is made.

``_translations`` is the one zero-fill gather of every lattice translation,
``kern[y, y + x]`` with 0 where ``y + x`` leaves the box: ``wigner`` reads
the rank-one kernel through it, ``quantize.translation_phase_table`` the
phase table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .csvformat import _write_csv
from .errors import DimensionMismatchError, InputError, NumericError, OffLatticeError
from .fields import (DEFAULT_QUADRATURE, Quadrature, VectorPotential, _circulation_sum,
                     _exact_rule, _gauge_phases, _require_base, _square_norm)
# the public names of symbols are re-exported here (__all__)
from .symbols import (SymbolEvaluator, SymbolGrid, constant_symbol, gaussian_symbol,
                      x_only_symbol, _axis_term, _lattice_mesh)

__all__ = [
    "PhaseSpaceGrid",
    "WaveFunction",
    "OperatorKernel",
    "SymbolEvaluator",
    "SymbolGrid",
    "fourier_config",
    "fourier_symplectic",
    "kernel_from_symbol",
    "symbol_from_kernel",
    "kernel_compose",
    "segment_phase_matrix",
    "gaussian_wavefunction",
    "gaussian_symbol",
    "x_only_symbol",
    "constant_symbol",
]


# ---------------------------------------------------------------------------
# the grid

@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform configuration grid on [-L, L)^N with its dual momentum lattice."""

    dim: int
    n: int
    L: float

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("grid dimension must be positive")
        if self.n < 2 or self.n % 2:
            raise InputError("points per axis must be even and >= 2")
        if not (math.isfinite(self.L) and self.L > 0):  # refuses NaN and infinity too
            raise InputError("half-width must be positive and finite, got %r" % (self.L,))

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def dp(self) -> float:
        return np.pi / self.L

    @property
    def config_weight(self) -> float:
        return self.h**self.dim

    @property
    def momentum_weight(self) -> float:
        # fixed by requiring the transforms below to be mutually inverse
        return (1.0 / (2.0 * self.L)) ** self.dim

    @cached_property
    def config_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.h

    @cached_property
    def momentum_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dp

    @cached_property
    def midpoint_axis(self) -> np.ndarray:
        # achievable midpoints (x_i + x_j) / 2, half-step spacing
        return (np.arange(2 * self.n - 1) - self.n) * (self.h / 2.0)

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    def config_points(self) -> np.ndarray:
        """All lattice points, shape (n^N, N), row-major axis order."""
        return _lattice_mesh([self.config_axis] * self.dim)

    def momentum_points(self) -> np.ndarray:
        return _lattice_mesh([self.momentum_axis] * self.dim)

    @cached_property
    def _fwd_matrix(self) -> np.ndarray:
        # (F u)(p_m) = h sum_j e^{-i x_j p_m} u_j  per axis
        return self.h * np.exp(-1j * np.outer(self.momentum_axis, self.config_axis))

    @cached_property
    def _inv_matrix(self) -> np.ndarray:
        # (F^{-1} v)(x_j) = w sum_m e^{+i x_j p_m} v_m  per axis
        return (1.0 / (2.0 * self.L)) * np.exp(1j * np.outer(self.config_axis, self.momentum_axis))

    def lattice_index(self, x) -> np.ndarray:
        """Indices of configuration lattice components; OffLatticeError off it, NaN and inf too."""
        x = np.asarray(x, dtype=float)
        idx = x / self.h + self.n // 2
        ridx = np.rint(idx)
        if not (np.all(np.isfinite(idx)) and np.abs(idx - ridx).max() <= 1e-9):
            raise OffLatticeError("point %r is not on the configuration lattice" % (x,))
        return ridx.astype(int)


def _shift_index_table(grid: PhaseSpaceGrid, steps):
    """Flat lattice indices of ``y + s`` for every lattice point ``y`` and one integer step ``s``.

    ``steps`` has shape (N,), in units of the spacing h.  Returns ``(cols,
    valid)`` of shape (n^N,); targets outside the box are invalid, their
    clipped ``cols`` placeholders to be masked out (the zero-fill convention).
    Built axis by axis: per-axis flat offsets summed, masks ANDed.
    """
    N, n = grid.dim, grid.n
    cols, valid = 0, True
    for a, s in enumerate(np.asarray(steps)):
        tgt = np.arange(n) + s
        sh = (1,) * a + (n,) + (1,) * (N - 1 - a)
        valid = valid & ((tgt >= 0) & (tgt < n)).reshape(sh)
        cols = cols + (np.clip(tgt, 0, n - 1) * n ** (N - 1 - a)).reshape(sh)
    return cols.reshape(grid.size), valid.reshape(grid.size)


def _translations(kern: np.ndarray, g: PhaseSpaceGrid) -> np.ndarray:
    """``w[x, y] = kern[y, y + x]`` over the lattice translations ``x`` and points ``y``, C-ordered.

    Zero where ``y + x`` leaves the box.  Written one ``_row_blocks`` block of
    the first translation axis at a time by a flat ``take`` at offsets summed
    per axis, so no index array is of the kernel's order.  Shape ``n^{2N}``
    as ``(x_1..x_N, y_1..y_N)``.
    """
    n, N = g.n, g.dim
    # per axis over (x_a, y_a): the offset of the pair (y, y + x) into the kernel, and
    # whether y_a + x_a (the translation x_a / h = index - n/2) stays in the box
    i = np.arange(n)
    z = i[None, :] + i[:, None] - n // 2
    offset = [(i[None, :] * n ** (2 * N - 1 - a) + np.clip(z, 0, n - 1) * n ** (N - 1 - a)).reshape(
        (1,) * a + (n,) + (1,) * (N - 1) + (n,) + (1,) * (N - 1 - a)) for a in range(N)]
    rest = sum(offset[1:], np.zeros((1,) * (2 * N), dtype=int))
    outside = [((z < 0) | (z >= n)).reshape(off.shape) for off in offset]
    w = np.empty((n,) * (2 * N), dtype=complex)
    for r0, r1 in _row_blocks(n):
        block = w[r0:r1]
        np.take(kern.reshape(-1), offset[0][r0:r1] + rest, out=block, mode="clip")  # in range
        for a, out in enumerate(outside):
            np.copyto(block, 0, where=out[r0:r1] if a == 0 else out)
    return w


def _apply_axes(values: np.ndarray, matrix: np.ndarray, axes) -> np.ndarray:
    """Contract each of ``axes`` in turn with an ``(m, n)`` lattice ``matrix``: n points to m."""
    # one matmul per axis on a (head, n, tail) view, the last axis by matrix.T: no axis moves
    for ax in axes:
        shape = values.shape
        if ax == len(shape) - 1:
            values = values @ matrix.T
        else:
            values = matrix @ values.reshape(math.prod(shape[:ax]), shape[ax], -1)
            values = values.reshape(shape[:ax] + (len(matrix),) + shape[ax + 1:])
    return values


def _multiply_per_axis(values: np.ndarray, table: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Multiply C-ordered ``values`` in place by the ``(n, n)`` ``table`` on each axis pair.

    ``values`` is viewed as ``(u_1..u_N, v_1..v_N)``: a kernel's rows and
    columns, or a table's configuration and momentum axes.  Entry ``(u, v)``
    gains ``prod_a table[u_a, v_a]``, the Kronecker table's, one axis at a time.
    Axis ``a``'s table is tiled over the ``v`` axes into an ``(n, n^N)`` table
    over ``(u_a, v)``, so that each multiply runs along whole rows of ``v``.
    """
    N, n, size = grid.dim, grid.n, grid.size
    for a in range(N):
        tile = np.broadcast_to(table.reshape((n,) + (1,) * a + (n,) + (1,) * (N - 1 - a)),
                               (n,) * (N + 1)).reshape(n, 1, size)
        view = values.reshape(n**a, n, n ** (N - 1 - a), size)
        view *= tile
    return values


# ---------------------------------------------------------------------------
# wave functions

class WaveFunction:
    """Complex grid function on the configuration lattice."""

    def __init__(self, grid: PhaseSpaceGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise DimensionMismatchError(
                "wave function shape %r does not match grid %r" % (values.shape, grid.shape)
            )
        if not np.all(np.isfinite(values)):
            raise InputError("wave function contains non-finite values")
        self.grid = grid
        self.values = values

    def norm(self) -> float:
        return float(np.sqrt(self.grid.config_weight * (np.abs(self.values) ** 2).sum()))

    def inner(self, other: "WaveFunction") -> complex:
        """L2 pairing <self, other>, antilinear in self."""
        if other.grid != self.grid:
            raise DimensionMismatchError("wave functions live on different grids")
        return complex(self.grid.config_weight * np.vdot(self.values, other.values))

    def __add__(self, other: "WaveFunction") -> "WaveFunction":
        if other.grid != self.grid:
            raise DimensionMismatchError("wave functions live on different grids")
        return WaveFunction(self.grid, self.values + other.values)

    def __rmul__(self, c) -> "WaveFunction":
        return WaveFunction(self.grid, c * self.values)


def gaussian_wavefunction(grid: PhaseSpaceGrid, center=None, width=1.0, momentum=None,
                          normalize=True) -> WaveFunction:
    """Gaussian packet ``exp(-|y - c|^2 / (2 w^2)) exp(i y . k0)`` on the grid."""
    center = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float)
    momentum = np.zeros(grid.dim) if momentum is None else np.asarray(momentum, dtype=float)
    pts = grid.config_points()
    vals = np.exp(-_square_norm(pts - center) / (2.0 * width**2)
                  + 1j * pts @ momentum).reshape(grid.shape)
    u = WaveFunction(grid, vals)
    if normalize:
        u = (1.0 / u.norm()) * u
    return u


def fourier_config(u: WaveFunction, direction: str = "forward") -> np.ndarray:
    """Discrete transform between the configuration and momentum lattices.

    ``forward`` maps lattice samples to ``h^N sum_x e^{-i x.p} u(x)`` on the
    dual lattice; ``inverse`` is its exact two-sided inverse.  The pair is
    unitary for the grid weights (Parseval holds to roundoff).  Another
    direction, or ``u`` not a ``WaveFunction``, raises InputError.
    """
    if not isinstance(u, WaveFunction):
        raise InputError("fourier_config expects a WaveFunction")
    if direction not in ("forward", "inverse"):
        raise InputError("direction must be 'forward' or 'inverse'")
    g = u.grid
    return _apply_axes(u.values, g._fwd_matrix if direction == "forward" else g._inv_matrix,
                       range(g.dim))


# ---------------------------------------------------------------------------
# operator kernels

class OperatorKernel:
    """Integral kernel on the configuration lattice.

    The stored matrix ``kernel`` is indexed by flattened (row-major) lattice
    points; the operator action carries the quadrature weight,
    ``(K u)(x) = h^N sum_y kernel[x, y] u(y)``.
    """

    def __init__(self, grid: PhaseSpaceGrid, kernel: np.ndarray):
        kernel = np.asarray(kernel, dtype=complex)
        if kernel.shape != (grid.size, grid.size):
            raise DimensionMismatchError(
                "kernel shape %r does not match grid size %d" % (kernel.shape, grid.size)
            )
        self.grid = grid
        self.kernel = kernel

    @classmethod
    def identity(cls, grid: PhaseSpaceGrid) -> "OperatorKernel":
        return cls(grid, np.eye(grid.size, dtype=complex) / grid.config_weight)

    @classmethod
    def from_operator_matrix(cls, grid: PhaseSpaceGrid, matrix: np.ndarray) -> "OperatorKernel":
        return cls(grid, np.asarray(matrix, dtype=complex) / grid.config_weight)

    @property
    def operator_matrix(self) -> np.ndarray:
        """Matrix acting directly on value vectors (weight folded in)."""
        return self.grid.config_weight * self.kernel

    def apply(self, u: WaveFunction) -> WaveFunction:
        if u.grid != self.grid:
            raise DimensionMismatchError("wave function grid does not match kernel grid")
        out = self.grid.config_weight * (self.kernel @ u.values.ravel())
        return WaveFunction(self.grid, out.reshape(self.grid.shape))

    def adjoint(self) -> "OperatorKernel":
        return OperatorKernel(self.grid, self.kernel.conj().T)

    def hs_norm(self) -> float:
        """Hilbert-Schmidt norm, weighted Frobenius with weight h^N per index."""
        return float(self.grid.config_weight * np.linalg.norm(self.kernel))

    def trace(self) -> complex:
        return complex(self.grid.config_weight * np.trace(self.kernel))

    def hermiticity_defect(self) -> float:
        """Largest entry of ``|K - K^H|`` over the largest of ``|K|`` (at least 1).

        Computed in ``_row_blocks``: each block of rows, from its diagonal
        block on, against the matching block of columns, so each off-diagonal
        pair of blocks is compared once (``|K_ij - conj K_ji|`` is the same
        float at ``(j, i)``), with no kernel-sized temporary.
        """
        kern = self.kernel
        d = scale = 0.0
        for r0, r1 in _row_blocks(len(kern)):
            d = np.maximum(d, np.abs(kern[r0:r1, r0:] - kern[r0:, r0:r1].conj().T).max())
            scale = np.maximum(scale, np.abs(kern[r0:r1]).max())  # both keep a NaN, as one max does
        return float(d / max(scale, 1.0))

    def to_csv(self, path) -> None:
        """Write the kernel matrix as CSV (re/im pairs, row-major lattice order)."""
        header = ("kernel entries K(x, y), rows scan x then y, each index "
                  "row-major over %d axes of %d points; columns re, im"
                  % (self.grid.dim, self.grid.n))
        _write_csv(path, [self.kernel.real, self.kernel.imag], header)

    def eigenvalues(self, hermitian_tol: float | None = 1e-8) -> np.ndarray:
        """Sorted real spectrum of the (Hermitian) operator matrix.

        The stored kernel is diagonalized and its spectrum scaled by the
        positive weight ``h^N``, so no weighted copy (``operator_matrix``) is
        made.  Exact when ``h^N`` is a power of two, else to roundoff.  A
        ``hermiticity_defect`` above ``hermitian_tol`` raises NumericError;
        None skips the check, for a caller that has made it.
        """
        if hermitian_tol is not None and self.hermiticity_defect() > hermitian_tol:
            raise NumericError("operator is not Hermitian within tolerance")
        return self.grid.config_weight * np.linalg.eigvalsh(self.kernel)

    def __sub__(self, other: "OperatorKernel") -> "OperatorKernel":
        if other.grid != self.grid:
            raise DimensionMismatchError("kernels live on different grids")
        return OperatorKernel(self.grid, self.kernel - other.kernel)


def kernel_compose(phi: OperatorKernel, psi: OperatorKernel) -> OperatorKernel:
    """Kernel of the operator product: ``(phi # psi)(x, y) = h^N sum_z phi(x, z) psi(z, y)``."""
    if phi.grid != psi.grid:
        raise DimensionMismatchError("kernels live on different grids")
    return OperatorKernel(phi.grid, phi.grid.config_weight * (phi.kernel @ psi.kernel))


# row blocks of the segment table; more blocks waste fewer pairs below the diagonal
_SEGMENT_BLOCKS = 16


def _row_blocks(rows: int, blocks: int = _SEGMENT_BLOCKS) -> list[tuple[int, int]]:
    """``blocks`` ranges ``(r0, r1)`` of consecutive rows covering ``range(rows)``, as even as can be.

    Fewer blocks when there are fewer rows, never an empty one.
    """
    blocks = min(blocks, rows)
    edges = [rows * k // blocks for k in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


# entries of midpoint-table rows that one block of the forward and of the inverse
# window map spans (_midpoint_blocks)
_FORWARD_ENTRIES, _INVERSE_ENTRIES = 2**17, 2**16


def _midpoint_blocks(grid: PhaseSpaceGrid, entries: int, least: int = 1) -> list[tuple[int, int]]:
    """Even blocks ``(s0, s1)`` of the first axis's midpoint index ``s_1``, for the window maps.

    Each spans about ``entries`` entries of a midpoint table, ``(2n - 1)^{N-1}
    n^N`` a row, and at least ``least`` rows.
    """
    S = 2 * grid.n - 1
    rows = max(least, entries // (S ** (grid.dim - 1) * grid.size))
    return _row_blocks(S, max(1, S // rows))


def _segment_phases(A: VectorPotential, grid: PhaseSpaceGrid, quad: Quadrature,
                    hbar: float = 1.0) -> np.ndarray:
    """``exp(-i Gamma^A([x, y]) / hbar)`` of all lattice pairs: the field of every zero-fill route.

    One pass over the ``_row_blocks`` of the lattice.  Each block is one
    ``_circulation_sum`` call over its rows and the columns from its first
    row on; its diagonal block is made exactly antisymmetric, the block is
    exponentiated in place in the output, and its part right of the
    diagonal block is conjugated into the mirrored columns below.  A
    reversed segment has the negated circulation and ``exp(i t)`` is the
    conjugate of ``exp(-i t)`` bit for bit, so the table is exactly
    Hermitian, and no kernel-sized circulation table is made.  The routes
    pass the base potential of gauge data (``fields._gauge_phases``) and
    dress their output with its gauge phases (``_dress``); gauge data passed
    here raise InputError.  Each call builds a new table; a potential keeps
    the one at ``hbar = 1`` (``segment_phase_matrix``).
    """
    _require_base(A)
    if A.dim != grid.dim:
        raise DimensionMismatchError("potential dimension does not match grid")
    pts = grid.config_points()
    lam = np.empty((grid.size, grid.size), dtype=complex)
    for r0, r1 in _row_blocks(grid.size):
        start = pts[r0:r1, None]
        rows = _circulation_sum(A, start, pts[None, r0:] - start, quad)
        upper = np.triu(rows[:, :r1 - r0], 1)
        rows[:, :r1 - r0] = upper - upper.T
        part = lam[r0:r1, r0:]
        np.multiply(rows, -1j, out=part)
        if hbar != 1.0:
            part /= hbar
        np.exp(part, out=part)
        np.conjugate(part[:, r1 - r0:].T, out=lam[r1:, r0:r1])
    return lam


def _affine(A: VectorPotential, dim: int):
    """``(W, S, A(0))`` of an affine base potential ``A(x) = J x + A(0)``; None for any other.

    The one predicate of the twisted routes (``_dress``, ``moyal_product``):
    ``A`` declares degree <= 1, has no closed-form ``_segment`` and is of the
    grid's ``dim``.  ``J[:, b] = A(e_b) - A(0)`` over the unit vectors ``e_b``
    is exact for such a potential; ``W = (J - J^T) / 2`` and ``S = (J + J^T) /
    2``, so that ``Gamma^A([x, y]) = y^T W x + rho(y) - rho(x)`` with ``rho(x) =
    x^T S x / 2 + A(0) . x``.  A non-finite value raises NumericError.
    """
    if A.degree_hint is None or A.degree_hint > 1 or A._segment is not None or A.dim != dim:
        return None
    vals = np.asarray(A.eval(np.vstack([np.zeros(dim), np.eye(dim)])), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericError("potential non-finite at the origin or a unit vector")
    jac = (vals[1:] - vals[0]).T
    return 0.5 * (jac - jac.T), 0.5 * (jac + jac.T), vals[0]


def _dress(kern: np.ndarray, A: VectorPotential | None, grid: PhaseSpaceGrid,
           quad: Quadrature, hbar: float = 1.0, strip: bool = False) -> np.ndarray:
    """Multiply a kernel in place by the phases of ``A``: where every route gains or loses them.

    An affine base (``_affine``) dresses by its twist ``exp(-i y^T W x / hbar)``
    and gauge phases (``_twist_dress``): ``e^{i rho / hbar}`` of its
    symmetric part and constant, times those of any gauge data; no table is
    built and no memo kept.  Any other base dresses table first: its ``exp(-i
    Gamma / hbar)`` entrywise (the memo of ``segment_phase_matrix`` at ``hbar =
    1``, else a new table of ``_segment_phases``, built in the same one pass),
    then the gauge phases ``e^{i rho / hbar}`` of gauge data in the rows and
    their conjugates in the columns (``_gauge_dress``).  ``strip`` multiplies
    by the conjugates of both, which undoes the dressing.  ``A`` None leaves
    the kernel as is.
    """
    if A is None:
        return kern
    pts = grid.config_points()
    base, gauge = _gauge_phases(A, pts, quad, hbar)
    affine = _affine(base, grid.dim)
    if affine is not None:
        twist, sym, shift = affine
        if sym.any() or shift.any():  # e^{i rho / hbar}
            phase = np.exp((0.5j / hbar) * np.einsum("pa,ab,pb->p", pts, sym, pts)
                           + (1j / hbar) * (pts @ shift))
            gauge = phase if gauge is None else gauge * phase
        if strip:
            twist, gauge = -twist, None if gauge is None else np.conj(gauge)
        return _twist_dress(kern, twist / hbar, gauge, grid)
    lam = (segment_phase_matrix(base, grid, quad) if hbar == 1.0
           else _segment_phases(base, grid, quad, hbar))
    if strip:  # kernel first: numpy's complex product rounds by operand order
        np.multiply(kern, np.conj(lam), out=kern)
        return _gauge_dress(kern, None if gauge is None else np.conj(gauge))
    np.multiply(lam, kern, out=kern)
    return _gauge_dress(kern, gauge)


def _twist_dress(kern: np.ndarray, twist: np.ndarray, gauge, grid: PhaseSpaceGrid) -> np.ndarray:
    """Multiply a kernel in place by ``exp(-i y^T W x)`` (``W = twist``), then as ``_gauge_dress``.

    The twist splits over the axis pairs: ``a < b`` with ``W_ab != 0`` gives
    one ``(n, n)`` table ``t = exp(-i W_ab x_i x_j)``, read at ``(x_b, y_a)``
    and conjugated at ``(x_a, y_b)``.  The factors of each row axis ``x_p``
    (the first also takes the column gauge ``conj(gauge)``) are multiplied
    into one ``(n, n^N)`` table over ``(x_p, y)``, so that every multiply
    runs along whole rows.  One pass over the ``_row_blocks`` of ``x_1``
    applies the tables and ``gauge`` in the rows to each block while it is
    in cache; no temporary is of the kernel's order.
    """
    N, n, size = grid.dim, grid.n, grid.size
    ax = grid.config_axis
    factors = [[] for _ in range(N)]  # per row axis x_p: arrays over (x_p, y_1..y_N)
    for a, b in itertools.combinations(range(N), 2):
        if twist[a, b] != 0:
            t = np.exp(-1j * twist[a, b] * np.multiply.outer(ax, ax))
            for p, q, tab in ((b, a, t), (a, b, np.conj(t))):
                factors[p].append(tab.reshape((n,) + (1,) * q + (n,) + (1,) * (N - 1 - q)))
    axes = [p for p in range(N) if factors[p]]
    if not axes:
        return _gauge_dress(kern, gauge)
    if gauge is not None:
        factors[axes[0]].append(np.conj(gauge).reshape((1,) + (n,) * N))
    tables = [(p, np.broadcast_to(reduce(np.multiply, factors[p]), (n,) * (N + 1)).reshape(
        (1,) * p + (n,) + (1,) * (N - 1 - p) + (size,))) for p in axes]
    view = kern.reshape((n,) * N + (size,))  # (x_1..x_N, y)
    for r0, r1 in _row_blocks(n):
        block = view[r0:r1]
        for p, tab in tables:
            block *= tab[r0:r1] if p == 0 else tab
        if gauge is not None:
            block *= gauge.reshape((n,) * N + (1,))[r0:r1]
    return kern


def _gauge_dress(kern: np.ndarray, gauge) -> np.ndarray:
    """Multiply a kernel in place by ``gauge`` in its rows, then by its conjugate in its columns.

    The conjugation by the diagonal unitary ``e^{i rho(Q)}`` that a gauge
    transform makes of every kernel; ``gauge`` None leaves it as it is.
    """
    if gauge is not None:
        kern *= gauge[:, None]
        kern *= np.conj(gauge)
    return kern


def segment_phase_matrix(A: VectorPotential | None, grid: PhaseSpaceGrid,
                         quad: Quadrature = DEFAULT_QUADRATURE) -> np.ndarray:
    """Circulation phases ``exp(-i Gamma^A([x, y]))`` for all lattice pairs.

    Returns the read-only table memoized on the potential: one entry for the
    last ``(grid, _exact_rule(quad, A))``, which a call with another grid or
    rule replaces.  Its circulations are integrated and exponentiated in one
    pass over the pairs on and above the diagonal, and mirrored by
    conjugation (``_segment_phases``).  Callers take it by value and never
    write into it.  ``A`` None gives a new, writable table of ones.

    Gauge data keep no table: their phases are a new writable table, the
    base potential's memo dressed with ``e^{i rho(x)} e^{-i rho(y)}``
    (``_gauge_dress``), of which the Hermitian part is taken, so it stays
    exactly Hermitian as the memo is.  Every kernel route, the star
    product's band route too, reads it only through ``_dress``, for a base
    that is not affine (``_affine``) at ``hbar = 1``; gauge data and an
    affine base are dressed there with no table.  Outside this module only
    ``quantize.translation_phase_table`` calls it.
    """
    if A is None:
        return np.ones((grid.size, grid.size), dtype=complex)
    base, gauge = _gauge_phases(A, grid.config_points(), quad)
    key = (grid, _exact_rule(quad, base))
    memo = base._phase
    if memo is None or memo[0] != key:
        lam = _segment_phases(base, grid, quad)
        lam.flags.writeable = False
        memo = base._phase = (key, lam)
    if gauge is None:
        return memo[1]
    lam = _gauge_dress(memo[1].copy(), gauge)
    lam += lam.conj().T  # each pair is rounded on its own; x + conj(y) is exactly mirrored
    lam *= 0.5
    return lam


# ---------------------------------------------------------------------------
# symplectic transform

def fourier_symplectic(F: SymbolGrid, direction: str = "forward") -> SymbolGrid:
    """Symplectic Fourier transform on the standard phase-space lattice.

    Computes ``sum_eta w_eta e^{-i sigma(xi, eta)} F(eta)``, factorized as
    the configuration transform tensored with the inverse momentum transform
    followed by the axis swap.  The transform is an involution, so
    ``inverse`` runs the same steps as ``forward``, and applying it twice is
    the identity to roundoff.  Another direction, or a midpoint table,
    raises InputError.
    """
    if F.kind != "standard":
        raise InputError("symplectic transform needs a standard-lattice symbol grid")
    if direction not in ("forward", "inverse"):
        raise InputError("direction must be 'forward' or 'inverse'")
    g = F.grid
    N = g.dim
    vals = _apply_axes(F.values, g._fwd_matrix, range(N))
    vals = _apply_axes(vals, g._inv_matrix, range(N, 2 * N))
    vals = np.moveaxis(vals, list(range(2 * N)), list(range(N, 2 * N)) + list(range(N)))
    return SymbolGrid(g, "standard", vals)


# ---------------------------------------------------------------------------
# kernel maps

def _trapezoid(steps: np.ndarray, n: int) -> np.ndarray:
    """Mask weights on one axis of pair differences of ``steps`` lattice steps: one box period.

    The weight is 1 for ``|x_a - y_a| < L``, 1/2 for ``|x_a - y_a| = L`` (n/2
    steps) and 0 beyond.  A kernel built by the symbol map carries the
    product of these weights over the axes, so that each difference period
    is counted exactly once: without it the far corners of the matrix
    duplicate the near-diagonal band (the momentum sum is box-periodic in
    the difference), which leaves operator actions on interior states
    untouched but double-counts traces of composed kernels.  Every route
    applies it per axis, folded into its per-axis factors or multiplied in
    as it writes the kernel.
    """
    steps = np.abs(steps)
    return np.where(steps < n // 2, 1.0, np.where(steps == n // 2, 0.5, 0.0))


def _axis_matrices(terms, grid: PhaseSpaceGrid, tau: float = 0.5, hbar: float = 1.0,
                   mask: bool = True) -> list:
    """Per term ``(g, h)`` of axis products, its field-free kernel's ``n x n`` factor per axis.

    The term's kernel is the Kronecker product of the factors.  Entry ``(i,
    j)`` of axis ``a`` is ``g_a`` at the pair's point ``(1 - tau) x_i + tau
    x_j`` times ``H_a(v) = w sum_k e^{i v k} h_a(hbar k)`` at the wrapped
    difference ``(i - j + n/2) mod n``, times the trapezoid mask weight of
    ``i - j`` (1 for ``mask=False``).
    """
    n = grid.n
    i = np.arange(n)
    steps = np.subtract.outer(i, i)
    weight = _trapezoid(steps, n) if mask else 1.0
    wrapped = (steps + n // 2) % n
    pts = (grid.midpoint_axis[np.add.outer(i, i)] if tau == 0.5
           else (1.0 - tau) * grid.config_axis[:, None] + tau * grid.config_axis)
    k_axis = hbar * grid.momentum_axis
    return [[np.broadcast_to(ga(pts), (n, n))
             * ((grid._inv_matrix @ np.broadcast_to(ha(k_axis), (n,)))[wrapped] * weight)
             for ga, ha in zip(g.fns, h.fns)] for g, h in terms]


def _kron_sum(mats) -> np.ndarray:
    """``sum_r kron(mats[r][0], ..., mats[r][-1])`` of per-axis ``n x n`` matrices, written once.

    With ``P_r`` the Kronecker product of all but the last axis (``n^{N-1}``
    square), entry ``((I, i), (J, j))`` is ``sum_r P_r[I, J] M_r[i, j]``: one
    matmul over ``r``, batched over the rows ``(I, i)``, straight into the
    kernel, so no temporary is of the kernel's order.
    """
    lead = np.stack([reduce(np.kron, m[:-1], np.ones((1, 1))) for m in mats])  # (R, m, m)
    last = np.stack([m[-1] for m in mats])  # (R, n, n)
    m, n = lead.shape[1], last.shape[1]
    kern = np.empty((m * n, m * n), dtype=complex)
    np.matmul(lead.transpose(1, 2, 0)[:, None], last.transpose(1, 0, 2)[None],
              out=kern.reshape(m, n, m, n))
    return kern


def _separable_kernel(f: SymbolEvaluator, grid: PhaseSpaceGrid, tau: float, hbar: float,
                      mask: bool) -> np.ndarray:
    """Field-free kernel of a symbol with ``factors``: Kronecker products, then row blocks.

    For ``f = sum_r g_r(x) h_r(p)`` the kernel is ``sum_r g_r((1 - tau) x +
    tau y) H_r(x - y)`` with ``H_r(v) = w sum_k e^{i v . k} h_r(hbar k)``, one
    per-axis inverse transform per term.  Per axis the pair ``(i, j)`` reads
    ``H_r`` at the wrapped difference ``(i - j + n/2) mod n`` with the
    trapezoid mask weight of ``i - j`` folded in (all ones for
    ``mask=False``).  A term whose ``g_r`` and ``h_r`` are both axis products
    is the Kronecker product of its ``_axis_matrices``; all such terms are
    summed as they are written (``_kron_sum``).  Every other term is
    added in row blocks, gathered from a ``(2n - 1)^N`` table of ``H_r`` at the
    difference index ``i - j + n - 1``: at ``tau = 1/2`` its ``g_r`` is
    evaluated once on the ``(2n - 1)^N`` midpoint lattice and read at the
    midpoint index ``i + j``, at any other ``tau`` per row block.  The
    working memory beyond the kernel is one ``_row_blocks`` block.
    """
    n, N, size = grid.n, grid.dim, grid.size
    mats = _axis_matrices([t for t in f.factors if _axis_term(t)], grid, tau, hbar, mask)
    terms = [t for t in f.factors if not _axis_term(t)]
    kern = _kron_sum(mats) if mats else np.zeros((size, size), dtype=complex)
    if not terms:
        return kern
    S = 2 * n - 1
    steps = np.arange(S) - (n - 1)  # i - j per axis
    trapezoid = _trapezoid(steps, n) if mask else np.ones(S)
    wrapped = (steps + n // 2) % n
    weight = reduce(np.multiply.outer, [trapezoid] * N)
    k = hbar * grid.momentum_points()
    hats = []
    for _, h in terms:
        hat = _apply_axes(np.broadcast_to(h(k), (size,)).reshape(grid.shape), grid._inv_matrix,
                          range(N))
        hats.append((hat[np.ix_(*[wrapped] * N)] * weight).ravel())
    half = tau == 0.5
    if half:
        mids = _lattice_mesh([grid.midpoint_axis] * N)
        gmid = [np.broadcast_to(g(mids), (S**N,)) for g, _ in terms]
    else:
        pts = grid.config_points()
    # flat indices of the (2n - 1)^N tables: F(i) over the lattice points i, so that a
    # pair reads the midpoint table at F(i) + F(j) and the difference table at
    # F(i) - F(j) + F(n - 1, ..., n - 1)
    flat = np.ravel_multi_index(np.indices(grid.shape).reshape(N, size), (S,) * N)
    for r0, r1 in _row_blocks(size):
        rows = flat[r0:r1, None]
        diff = rows - flat + flat[-1]
        if half:
            mid = rows + flat
            gvals = [gm[mid] for gm in gmid]
        else:
            epts = (1.0 - tau) * pts[r0:r1, None] + tau * pts[None]
            gvals = [g(epts) for g, _ in terms]
        block = kern[r0:r1]
        for gv, hat in zip(gvals, hats):
            block += gv * hat[diff]
    return kern


def _per_difference_kernel(f: SymbolEvaluator, grid: PhaseSpaceGrid, tau: float, hbar: float,
                           mask: bool) -> np.ndarray:
    """Field-free kernel of an evaluator given by ``fn``, one pass per lattice difference.

    For ``d = y - x`` the rows ``x`` with ``x + d`` in the box share the
    phases ``e^{i (x - y) . k}``, so their entries are one matrix-vector
    product of the symbol at ``(1 - tau) x + tau y`` and the hbar-scaled
    momenta; about ``n^{3N}`` symbol evaluations.  With the mask on,
    differences beyond half a period per axis (weight 0) are skipped and
    each other difference's entries are multiplied by its trapezoid weight.
    """
    n = grid.n
    pts = grid.config_points()
    scaled_k = hbar * grid.momentum_points()[None, :, :]
    reach = n // 2 if mask else n - 1
    kern = np.zeros((grid.size, grid.size), dtype=complex)
    for d in itertools.product(range(-reach, reach + 1), repeat=grid.dim):
        rows = np.ix_(*[np.arange(max(0, -da), min(n, n - da)) for da in d])
        xs = np.ravel_multi_index(rows, grid.shape).ravel()
        ys = np.ravel_multi_index(tuple(r + da for r, da in zip(rows, d)), grid.shape).ravel()
        epts = (1.0 - tau) * pts[xs] + tau * pts[ys]
        fvals = f(epts[:, None, :], scaled_k)  # (rows, size_k)
        # phases w e^{i (x - y) . k}: per axis the inverse-transform row of the
        # wrapped index difference, whose value is a configuration lattice point
        vals = fvals @ reduce(np.kron, [grid._inv_matrix[(n // 2 - da) % n] for da in d])
        if mask:
            vals *= float(_trapezoid(np.array(d), n).prod())  # 1 or a power of 1/2: exact
        kern[xs, ys] = vals
    return kern


def kernel_from_symbol(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                       quad: Quadrature = DEFAULT_QUADRATURE,
                       mask: bool = True) -> OperatorKernel:
    """Kernel of the gauge-covariant quantization of a symbol.

    Parameters
    ----------
    f : SymbolEvaluator or midpoint-lattice SymbolGrid
        Evaluators are read exactly at the half-step midpoints; sample
        tables are used verbatim and must live on ``grid``.
    A : VectorPotential or None
        Potential whose circulation phases dress the kernel; None means
        the non-magnetic map.
    mask : bool
        With the default one-period convention the trapezoid difference
        mask is applied (each difference counted once; the convention the
        star-product and trace machinery relies on).  ``mask=False`` keeps
        the raw box-periodized kernel, which is the right spectral object
        for symbols with little momentum decay (momentum polynomials with
        wide cutoffs), whose kernels have long-range difference tails.

    The quantization map at ``tau = 1/2, hbar = 1``; which fill computes
    the field-free kernel is listed in the module notes.  The non-magnetic
    kernel equals the magnetic one divided entrywise by the circulation
    phases, and constant symbols map to the identity kernel exactly.
    """
    _check_symbol(f, grid)
    if isinstance(f, SymbolGrid) and f.kind != "midpoint":
        raise InputError("kernel map needs symbol samples on the midpoint lattice")
    return _quantized_kernel(f, A, grid, quad, 0.5, 1.0, mask)


def _check_symbol(f, grid: PhaseSpaceGrid) -> None:
    """The input checks both quantization maps make, each before its own table checks.

    A table on another grid, or an evaluator of another dimension, raises
    DimensionMismatchError; any other type raises InputError.
    """
    if isinstance(f, SymbolGrid):
        if f.grid != grid:
            raise DimensionMismatchError("symbol table grid %r does not match %r" % (f.grid, grid))
    elif not isinstance(f, SymbolEvaluator):
        raise InputError("unsupported symbol type %r" % type(f))
    elif f.dim != grid.dim:
        raise DimensionMismatchError("symbol dimension does not match grid")


def _quantized_kernel(f, A: VectorPotential | None, grid: PhaseSpaceGrid, quad: Quadrature,
                      tau: float, hbar: float, mask: bool) -> OperatorKernel:
    """The quantization map at ``tau`` and ``hbar``: fill (module notes), mask, phases.

    The phases are those of ``_dress`` at ``hbar``.  ``f`` is a checked
    (``_check_symbol``) evaluator, or a checked symbol table at ``tau = 1/2,
    hbar = 1``.  Every fill multiplies its mask in as it writes the kernel:
    the weights of ``_trapezoid``, or the zero-fill mask of a standard table.
    """
    if isinstance(f, SymbolEvaluator) and f.factors is not None:
        kern = _separable_kernel(f, grid, tau, hbar, mask)
    elif tau == 0.5 and hbar == 1.0:
        kern = _windowed_kernel(f, grid, mask)
    else:
        kern = _per_difference_kernel(f, grid, tau, hbar, mask)
    return OperatorKernel(grid, _dress(kern, A, grid, quad, hbar))


def _windowed_kernel(f, grid: PhaseSpaceGrid, mask: bool) -> np.ndarray:
    """The windowed map: field-free kernel of an evaluator or of a symbol table, mask multiplied in.

    Streamed over the ``_midpoint_blocks`` of the first axis's midpoint index
    ``s_1``: an evaluator is evaluated on the block's midpoints only, a
    midpoint table is read as a slice, and a standard table's first
    configuration axis is interpolated on the block's rows only (each later
    axis from n to 2n - 1 points just before its momentum step; module
    notes).  The block's pairs (``i_1 + j_1`` in the block) are read by one
    flat ``take`` at offsets summed per axis, multiplied by the mask (the
    trapezoid weights with ``mask``; a standard table's zero-fill mask
    always) and written into the kernel, so no array is of the kernel's order
    but the kernel.
    """
    n, N = grid.n, grid.dim
    S, T, m = 2 * n - 1, n // 2, grid.size // n
    i = np.arange(n)
    steps, ij = np.subtract.outer(i, i), np.add.outer(i, i)  # row - col and midpoint index
    alias, interp = 1.0, None  # alias weight per momentum axis
    weight = _trapezoid(steps, n) if mask else None
    if isinstance(f, SymbolEvaluator):
        mids, k = _lattice_mesh([grid.midpoint_axis] * N), grid.momentum_points()[None]
        rows = lambda s0, s1: f(mids[s0 * S ** (N - 1):s1 * S ** (N - 1), None], k).reshape(
            (s1 - s0,) + (S,) * (N - 1) + grid.shape)
    elif f.kind == "standard":
        # (1/2L) e^{i m p} over the midpoints m and the lattice's momenta p, times F
        interp = (np.exp(1j * np.outer(grid.midpoint_axis, grid.momentum_axis))
                  / (2.0 * grid.L)) @ grid._fwd_matrix
        weight = ((steps > -n // 2) & (steps <= n // 2)) * 1.0  # the zero-fill mask (module notes)
        table = np.ascontiguousarray(f.values)  # read once per block: a strided one is copied once
        rows = lambda s0, s1: _apply_axes(table, interp[s0:s1], [0])
    else:
        # reconstructed tables hold both alias images; pair with half weight
        alias = 0.5 if f.alias_doubled else 1.0
        rows = lambda s0, s1: f.values[s0:s1]
    # Per axis, the pairs (i, j) of the midpoint class s = i + j have wrapped
    # difference slots (i - j + n/2) mod n of one parity, (s + n/2) mod 2, so
    # the class reads only the slots 2 t + parity: those rows of the inverse transform.
    phase = alias * grid._inv_matrix[2 * np.arange(T) + (np.arange(S)[:, None] + n // 2) % 2]
    slot = ((steps + n // 2) % n) // 2
    # offsets of the pairs (i_a, j_a), a > 1, into a block (s_1, s_2..s_N, t_1..t_N), and
    # their mask weights, over (i_2..i_N, j_2..j_N)
    rest, wrest = np.zeros((1,) * (2 * N - 2), dtype=int), 1.0
    for a in range(1, N):
        sh = (1,) * (a - 1) + (n,) + (1,) * (N - 2) + (n,) + (1,) * (N - 1 - a)
        rest = rest + (ij * S ** (N - 1 - a) * T**N + slot * T ** (N - 1 - a)).reshape(sh)
        if weight is not None:
            wrest = wrest * weight.reshape(sh)
    rest = rest.reshape(m, m)
    kern = np.empty((grid.size, grid.size), dtype=complex)
    # two rows at least: the interpolant of one row would be a matrix-vector product,
    # which rounds otherwise than the matrix product of more rows
    for s0, s1 in _midpoint_blocks(grid, _FORWARD_ENTRIES, least=2):
        vals = rows(s0, s1)
        # (s_1..s_N, k_1..k_N) -> (s_1..s_N, t_1..t_N), momentum axis a batched over s_a
        for a in range(N):
            if interp is not None and a > 0:
                vals = _apply_axes(vals, interp, [a])
            shape = vals.shape
            pre, mid = math.prod(shape[:a]), math.prod(shape[a + 1:N + a])
            ph = phase[s0:s1] if a == 0 else phase
            # only vals holds a step's output, so the next interpolation can free it
            if a < N - 1:
                vals = ph[:, None] @ vals.reshape(pre, shape[a], mid, n, n ** (N - 1 - a))
            else:
                vals = vals.reshape(pre, shape[a], mid, n) @ ph.transpose(0, 2, 1)
            vals = vals.reshape(shape[:N + a] + (T,) + shape[N + a + 1:])
        ip, jp = np.nonzero((ij >= s0) & (ij < s1))  # the block's pairs on the first axis
        lead = (ij[ip, jp] - s0) * S ** (N - 1) * T**N + slot[ip, jp] * T ** (N - 1)
        pairs = vals.take(lead[:, None, None] + rest)
        if weight is not None:  # 0, 1/2 and 1 multiply exactly in any order
            pairs *= weight[ip, jp][:, None, None]
            if N > 1:
                pairs *= wrest.reshape(m, m)
        kern.reshape(n, m, n, m)[ip, :, jp, :] = pairs
    return kern


def _windows(g: PhaseSpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """The inverse map's windows per axis: first indices ``(S, W)`` and slot phases ``(S, n, W)``.

    Slot ``t`` of the midpoint class ``s`` is the pair ``(first, s - first)``
    of ``first[s, t]``; a slot past a window's end repeats its last pair with
    phase 0.
    """
    n = g.n
    S, W = 2 * n - 1, n // 2 + 1
    # Per axis, the midpoint class s = i + j uses the first indices i with
    # |2 i - s| <= n/2: differences up to one half box in either direction.
    # The two ends 2 i - s = -+ n/2 describe the same difference modulo the
    # box period; with the trapezoid weights the kernel map puts on them the
    # window is an exact one-period quadrature, symmetric under difference
    # reversal.  Near the box edges the window is clipped to the available
    # pairs.
    s = np.arange(S)[:, None]
    lo = np.maximum(np.maximum(s - (n - 1), 0), (s - n // 2 + 1) // 2)
    hi = np.minimum(np.minimum(s, n - 1), (s + n // 2) // 2)
    first = lo + np.arange(W)
    valid = first <= hi
    first = np.minimum(first, hi)
    # slot phases e^{-i v k} at the difference v = x - y; the kernel's trapezoid
    # mask already carries the period-endpoint halves, so the slot weights are plain
    v = (2.0 * first - s) * g.h
    phase = np.where(valid[:, None, :],
                     (2.0 * g.h) * np.exp(-1j * v[:, None, :] * g.momentum_axis[:, None]), 0)
    return first, phase


def _window_pairs(phi: OperatorKernel, A: VectorPotential | None, quad: Quadrature,
                  first: np.ndarray):
    """The phase-stripped kernel on the window slots: ``slots(s0, s1)`` is ``out[s_1 - s0, t_1, ...,
    s_N, t_N]`` over the block ``s0 <= s_1 < s1``."""
    g = phi.grid
    n, N = g.n, g.dim
    S, W = first.shape
    s = np.arange(S)[:, None]
    # out[s_1, t_1, ..., s_N, t_N] = psi[i_1, ..., i_N, s_1 - i_1, ..., s_N - i_N], read
    # at flat offsets into psi: a sum of one (s_a, t_a) term per axis, the first sliced
    offsets = [(first * n ** (2 * N - 1 - a) + (s - first) * n ** (N - 1 - a)).reshape(
        (1, 1) * a + (S, W) + (1, 1) * (N - 1 - a)) for a in range(N)]
    rest = sum(offsets[1:], np.zeros((1, 1), dtype=int))
    psi = (np.ascontiguousarray(phi.kernel) if A is None
           else _dress(phi.kernel.copy(), A, g, quad, strip=True))
    return lambda s0, s1: psi.reshape(-1).take(offsets[0][s0:s1] + rest)


def _window_symbol(slots, phase: np.ndarray, g: PhaseSpaceGrid) -> SymbolGrid:
    """The alias-doubled midpoint symbol of window samples: one contraction per axis.

    ``slots(s0, s1)`` gives the samples ``out[s_1 - s0, t_1, ..., s_N, t_N]`` of
    one of the ``_midpoint_blocks``; slot ``t_a`` goes to momentum ``k_a``,
    batched over ``s_a``, and the block is written into the C-ordered
    ``(2n - 1)^N x n^N`` output, so no intermediate is of the output's order.
    """
    n, N = g.n, g.dim
    S, _, W = phase.shape
    out = np.empty((S,) * N + g.shape, dtype=complex)
    for s0, s1 in _midpoint_blocks(g, _INVERSE_ENTRIES):
        vals = slots(s0, s1)
        phases = [phase[s0:s1]] + [phase] * (N - 1)  # per axis, over its midpoint index
        # every product is a matrix product.  The axes before the last left-multiply
        # every later index, giving (s_1, k_1, ..., s_{N-1}, k_{N-1}, s_N, t_N)
        for a in range(N - 1):
            head, tail = vals.shape[:2 * a], vals.shape[2 * a + 2:]
            vals = (phases[a] @ vals.reshape(math.prod(head), len(phases[a]), W, -1)).reshape(
                head + (len(phases[a]), n) + tail)
        # the last right-multiplies by the transposed phases, batched over s_N, straight
        # into the block's rows of the output: both are viewed as (s_N, s_1..s_{N-1}, 1,
        # k_1..k_{N-1}, t_N or k_N), so a product's rows are the k_{N-1} of one strided
        # run (the unit axis at N = 1), and no copy of the block is transposed
        x = np.expand_dims(vals.transpose([2 * N - 2] + list(range(0, 2 * N - 2, 2))
                                          + list(range(1, 2 * N, 2))), N)
        o = np.expand_dims(out[s0:s1].transpose([N - 1] + list(range(N - 1))
                                                + list(range(N, 2 * N))), N)
        np.matmul(x, phases[-1].transpose(0, 2, 1).reshape(
            (len(phases[-1]),) + (1,) * (2 * N - 2) + (W, n)), out=o)
    return SymbolGrid(g, "midpoint", out, alias_doubled=True)


def symbol_from_kernel(phi: OperatorKernel, A: VectorPotential | None,
                       quad: Quadrature = DEFAULT_QUADRATURE) -> SymbolGrid:
    """Symbol of an operator kernel, on the midpoint phase-space lattice.

    Inverts :func:`kernel_from_symbol`: the circulation phases are removed,
    the pairs of every midpoint class are gathered into one window per axis
    (``_windows``, ``_window_pairs``), and the difference variable of each
    window is Fourier-transformed back to the dual lattice over one alias
    period, one axis at a time (``_window_symbol``), one block of midpoint
    rows at a time into a C-ordered table.  The output is flagged
    ``alias_doubled``: each value holds the symbol plus its half-box alias
    mirror, so it is faithful on the inner momentum band for quarter-box
    limited symbols and re-quantizes exactly (see module notes).
    """
    first, phase = _windows(phi.grid)
    return _window_symbol(_window_pairs(phi, A, quad, first), phase, phi.grid)
