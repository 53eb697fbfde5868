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
factors alone (``SymbolEvaluator``), so every quantization route reads the
same definition.

At ordering ``tau`` and Planck constant ``hbar`` (``quantize.op_quantize``)
the symbol is read at ``((1 - tau) x + tau y, hbar k)`` and the phase is
``exp(-i Gamma / hbar)``; ``kernel_from_symbol`` is ``tau = 1/2, hbar = 1``.
Both call ``_quantized_kernel``, the one place that picks the fill of the
field-free kernel, multiplies the mask into the fills that do not fold it
in (the per-axis weights of ``difference_mask``, or the zero-fill mask of a
standard table, one axis at a time by ``_multiply_per_axis``), and dresses
the kernel with the phases, table first:

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
  (``factors._AxisProduct``; every preset's are) is the Kronecker product
  of one ``n x n`` matrix per axis, ``g_ra`` at the pair times ``H_ra`` at
  its wrapped difference, and all such terms are written in one pass, one
  matmul over the terms (``factors._kron_sum``).  Any other term is added
  in row blocks; at ``tau = 1/2`` its ``g_r`` is evaluated once on the
  midpoint lattice and read per axis at the midpoint index ``i + j``.
* the windowed map (``_windowed_kernel``), the separable fill's test
  oracle.  Per axis, the pairs ``(i, j)`` of one midpoint class ``s = i + j``
  have wrapped differences of one parity, so the class reads only n/2 of
  the n differences.  The map contracts each momentum axis, batched over
  that axis's midpoint index, with those n/2 rows of the inverse transform
  (in place on the sample layout), then gathers every pair once.
* the per-difference fill (``_per_difference_kernel``): one matrix-vector
  product per lattice difference, about ``n^{3N}`` symbol evaluations.
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

``symbol_from_kernel`` is its mirror: one gather of the pairs of each
midpoint class into a window of one alias period of differences per axis,
then one contraction per axis with the window's Fourier phases, batched
over that axis's midpoint index as in the windowed map.  With an
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
are reconstructed only as their alias class; see ``difference_mask`` for
the one-period convention the pairings rely on.

Every route gains or loses a potential's phases in ``_dress`` alone: the
base potential's ``exp(-i Gamma / hbar)`` (at ``hbar = 1`` the one memo a
potential keeps, ``segment_phase_matrix``), then the gauge phases.  That
table is built in one pass (``_segment_phases``): the circulations of the
pairs on and above the diagonal are integrated one row block at a time,
exponentiated in place in the table and mirrored by conjugation, so no
kernel-sized array but the table itself is made.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .csvformat import format_e18
from .errors import DimensionMismatchError, InputError, OffLatticeError, require_finite
from .factors import (_AxisProduct, _conj_factor, _gaussian_axes, _kron_sum, _ones,
                      _scaled_factor)
from .fields import (DEFAULT_QUADRATURE, Quadrature, VectorPotential, _circulation_sum,
                     _exact_rule, _gauge_phases, _require_base, _square_norm)

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
    "difference_mask",
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


def _lattice_mesh(axes) -> np.ndarray:
    """All points of the product lattice of the 1-D ``axes``, shape (prod len, N), row-major."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _config_axis(grid: PhaseSpaceGrid, kind: str) -> np.ndarray:
    """Configuration axis of a symbol lattice: the grid's own, or the midpoints."""
    return grid.config_axis if kind == "standard" else grid.midpoint_axis


def _shift_index_table(grid: PhaseSpaceGrid, steps=None):
    """Flat lattice indices of ``y + s`` for every lattice point ``y`` and integer step ``s``.

    ``steps`` is one step of shape (N,), in units of the spacing h, or None
    for every lattice translation ``x / h`` in ``config_points`` order.
    Returns ``(cols, valid)``, of shape (n^N,) for one step and (n^N, n^N),
    indexed (y, x), for every step; targets outside the box are invalid, their
    clipped ``cols`` placeholders to be masked out (the zero-fill convention).
    Built axis by axis (per-axis ``(n, m)`` flat offsets summed, masks ANDed),
    with no ``(N,)``-stacked index temporary of the output's size.
    """
    N, n = grid.dim, grid.n
    per_axis = ([np.arange(n) - n // 2] * N if steps is None
                else [np.asarray(steps)[a:a + 1] for a in range(N)])
    cols, valid = 0, True
    for a, s in enumerate(per_axis):
        tgt = np.arange(n)[:, None] + s  # (point, step) along axis a
        sh = (1,) * a + (n,) + (1,) * (N - 1 - a) + (1,) * a + (len(s),) + (1,) * (N - 1 - a)
        valid = valid & ((tgt >= 0) & (tgt < n)).reshape(sh)
        cols = cols + (np.clip(tgt, 0, n - 1) * n ** (N - 1 - a)).reshape(sh)
    out = (grid.size,) if steps is not None else (grid.size, grid.size)
    return cols.reshape(out), valid.reshape(out)


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
    """
    N, n = grid.dim, grid.n
    view = values.reshape((n,) * (2 * N))
    for a in range(N):
        view *= table.reshape((1,) * a + (n,) + (1,) * (N - 1) + (n,) + (1,) * (N - 1 - a))
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

# rows per formatted block of _write_csv
_CSV_ROWS = 2048


def _write_csv(path, columns, header: str) -> None:
    """Write float ``columns`` (each raveled) side by side as a CSV table.

    The bytes are those of ``np.savetxt(path, table, delimiter=",", header=header)``:
    ``%.18e`` per value, ``,`` between columns and a ``# `` comment header.
    Each block of ``_CSV_ROWS`` rows is copied from the columns and
    formatted exactly in NumPy (``csvformat.format_e18``, which falls back
    to ``%`` for the values it cannot prove); a block holding a non-finite
    value is one ``%``-format over its flat values.
    """
    columns = [np.asarray(c) for c in columns]
    rows, cols = columns[0].size, len(columns)
    seps = [ord(",")] * (cols - 1) + [ord("\n")]
    line = ",".join(["%.18e"] * cols) + "\n"
    with open(path, "wb") as fh:
        fh.write(("# " + header.replace("\n", "\n# ") + "\n").encode())
        for r0 in range(0, rows, _CSV_ROWS):
            block = np.empty((min(_CSV_ROWS, rows - r0), cols))
            for c, col in enumerate(columns):
                block[:, c] = col.flat[r0:r0 + _CSV_ROWS]
            if np.isfinite(block).all():
                fh.write(format_e18(block, seps))
            else:
                fh.write((line * len(block) % tuple(block.ravel().tolist())).encode())


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

        Computed in ``_row_blocks``: one block of rows against the matching
        block of columns at a time, with no kernel-sized temporary.
        """
        d = scale = 0.0
        for r0, r1 in _row_blocks(len(self.kernel)):
            rows = self.kernel[r0:r1]
            d = np.maximum(d, np.abs(rows - self.kernel[:, r0:r1].conj().T).max())
            scale = np.maximum(scale, np.abs(rows).max())  # both keep a NaN, as one max does
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
        from .errors import NumericError

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


def _row_blocks(rows: int) -> list[tuple[int, int]]:
    """``_SEGMENT_BLOCKS`` ranges ``(r0, r1)`` of consecutive rows covering ``range(rows)``.

    Fewer blocks when there are fewer rows, never an empty one.
    """
    blocks = min(_SEGMENT_BLOCKS, rows)
    edges = [rows * k // blocks for k in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


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


def _dress(kern: np.ndarray, A: VectorPotential | None, grid: PhaseSpaceGrid,
           quad: Quadrature, hbar: float = 1.0, strip: bool = False) -> np.ndarray:
    """Multiply a kernel in place by the phases of ``A``: where every route gains or loses them.

    Table first: the base potential's ``exp(-i Gamma / hbar)`` entrywise (the
    memo of ``segment_phase_matrix`` at ``hbar = 1``, else a new table of
    ``_segment_phases``, built in the same one pass), then the gauge phases
    ``e^{i rho / hbar}`` of gauge data in the rows and their conjugates in
    the columns (``_gauge_dress``).  ``strip`` multiplies by the conjugates
    of both, which undoes the dressing.  ``A`` None leaves the kernel as is.
    """
    if A is None:
        return kern
    base, gauge = _gauge_phases(A, grid.config_points(), quad, hbar)
    lam = (segment_phase_matrix(base, grid, quad) if hbar == 1.0
           else _segment_phases(base, grid, quad, hbar))
    if strip:  # kernel first: numpy's complex product rounds by operand order
        np.multiply(kern, np.conj(lam), out=kern)
        return _gauge_dress(kern, None if gauge is None else np.conj(gauge))
    np.multiply(lam, kern, out=kern)
    return _gauge_dress(kern, gauge)


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
    exactly Hermitian as the memo is.  The routes do not call this for gauge
    data; each dresses its own output (``_dress``).
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
# symbols

class SymbolEvaluator:
    """Phase-space function ``(x, p) -> complex``, vectorized.

    A symbol is given by exactly one of ``fn`` and ``factors``.  ``fn`` is
    any closed form ``(x, p) -> values``.  ``factors`` describes a separable
    symbol as a finite sum of products, ``sum_r g_r(x) h_r(p)``: a tuple of
    ``(g, h)`` callables, each taking points of shape ``(..., N)`` to values
    that broadcast against the leading shape.  The factors are then the
    symbol's only definition: its ``fn`` contracts them over ``r`` into one
    output array, the separable fill reads them directly, and ``+``,
    ``c *`` and ``conj`` of factored symbols are factored again.  Every
    preset is given by its factors, each a product over the axes
    (``factors._AxisProduct``), which ``+``, ``c *`` and ``conj`` keep.
    """

    def __init__(self, dim: int, fn=None, decay: str = "gaussian", name: str = "symbol",
                 factors=None):
        if (fn is None) == (factors is None):
            raise InputError("a symbol takes exactly one of 'fn' and 'factors'")
        self.dim = int(dim)
        self.factors = None if factors is None else tuple(factors)
        self.fn = self._factored if fn is None else fn
        self.decay = decay
        self.name = name

    def _factored(self, x, p):
        """``sum_r g_r(x) h_r(p)``, contracted over ``r`` straight into the one output array."""
        gx = np.empty((len(self.factors),) + x.shape[:-1], dtype=complex)
        hp = np.empty((len(self.factors),) + p.shape[:-1], dtype=complex)
        for r, (g, h) in enumerate(self.factors):
            gx[r], hp[r] = g(x), h(p)
        return np.einsum("r...,r...->...", gx, hp)

    def __call__(self, x, p):
        return np.asarray(self.fn(np.asarray(x, dtype=float), np.asarray(p, dtype=float)),
                          dtype=complex)

    def conj(self) -> "SymbolEvaluator":
        if self.factors is None:
            return SymbolEvaluator(self.dim, lambda x, p: np.conj(self.fn(x, p)), self.decay,
                                   self.name + "*")
        return SymbolEvaluator(self.dim, decay=self.decay, name=self.name + "*", factors=(
            (_conj_factor(g), _conj_factor(h)) for g, h in self.factors))

    def __add__(self, other: "SymbolEvaluator") -> "SymbolEvaluator":
        if other.dim != self.dim:
            raise DimensionMismatchError("cannot add symbols of dimensions %d and %d"
                                         % (self.dim, other.dim))
        if self.factors is None or other.factors is None:
            return SymbolEvaluator(self.dim, lambda x, p: self.fn(x, p) + other.fn(x, p),
                                   self.decay)
        return SymbolEvaluator(self.dim, decay=self.decay, factors=self.factors + other.factors)

    def __rmul__(self, c) -> "SymbolEvaluator":
        if self.factors is None:
            return SymbolEvaluator(self.dim, lambda x, p: c * self.fn(x, p), self.decay)
        return SymbolEvaluator(self.dim, decay=self.decay, factors=(
            (_scaled_factor(c, g), h) for g, h in self.factors))

    def sample(self, grid: PhaseSpaceGrid, kind: str = "standard") -> "SymbolGrid":
        """Sample on the phase-space lattice of the requested flavor."""
        if self.dim != grid.dim:
            raise DimensionMismatchError("symbol dimension does not match grid")
        caxis = _config_axis(grid, kind)
        x = _lattice_mesh([caxis] * grid.dim)
        vals = self(x[:, None, :], grid.momentum_points()[None, :, :])
        return SymbolGrid(grid, kind, vals.reshape((len(caxis),) * grid.dim + grid.shape))


class SymbolGrid:
    """Symbol samples on a phase-space lattice.

    ``kind`` selects the configuration axis: ``"standard"`` is the grid
    lattice itself (n points, spacing h) -- the natural carrier for
    Fourier-Wigner data and symplectic transforms; ``"midpoint"`` is the
    half-step lattice of kernel midpoints (2n - 1 points, spacing h/2) --
    the natural carrier for kernel-map inverses and star products.
    Values have shape (config axes ..., momentum axes ...).  ``alias_doubled``
    marks a midpoint table that holds alias sums (``symbol_from_kernel``); a
    standard table with the flag raises InputError, as no route reads it there.
    """

    def __init__(self, grid: PhaseSpaceGrid, kind: str, values: np.ndarray,
                 alias_doubled: bool = False):
        if kind not in ("standard", "midpoint"):
            raise InputError("symbol grid kind must be 'standard' or 'midpoint'")
        if alias_doubled and kind == "standard":
            raise InputError("a standard symbol table cannot be alias_doubled: only "
                             "midpoint tables hold alias sums")
        expect = (len(_config_axis(grid, kind)),) * grid.dim + grid.shape
        values = np.asarray(values, dtype=complex)
        if values.shape != expect:
            raise DimensionMismatchError(
                "symbol values shape %r does not match expected %r" % (values.shape, expect)
            )
        self.grid = grid
        self.kind = kind
        self.values = values
        self.alias_doubled = bool(alias_doubled)

    @property
    def config_axis(self) -> np.ndarray:
        return _config_axis(self.grid, self.kind)

    @property
    def config_spacing(self) -> float:
        return self.grid.h if self.kind == "standard" else self.grid.h / 2.0

    @property
    def cell_weight(self) -> float:
        return self.config_spacing**self.grid.dim * self.grid.momentum_weight

    def integral(self) -> complex:
        """Phase-space integral with the lattice cell weights.

        For alias-doubled midpoint tables this reproduces the weighted trace
        of the underlying kernel exactly (the doubled values sit on the
        midpoint classes that carry diagonal information).
        """
        return complex(self.cell_weight * self.values.sum())

    def l2_norm(self) -> float:
        return float(np.sqrt(self.cell_weight * (np.abs(self.values) ** 2).sum()))

    def conj(self) -> "SymbolGrid":
        """Pointwise complex conjugation; the adjoint on the symbol side."""
        return SymbolGrid(self.grid, self.kind, np.conj(self.values), self.alias_doubled)

    def inner_band(self) -> np.ndarray:
        """Values restricted to momenta inside a half box per axis.

        Reconstructed (alias-doubled) symbols are faithful there provided
        the underlying symbol decays inside a quarter box.
        """
        n = self.grid.n
        sl = slice(n // 4 + 1, n - n // 4)
        idx = (slice(None),) * self.grid.dim + (sl,) * self.grid.dim
        return self.values[idx]

    def __sub__(self, other: "SymbolGrid") -> "SymbolGrid":
        if self.kind != other.kind or self.grid != other.grid:
            raise DimensionMismatchError("symbol grids are not compatible")
        return SymbolGrid(self.grid, self.kind, self.values - other.values)

    def to_csv(self, path) -> None:
        """Write the table as CSV (re/im pairs, config axes before momentum axes)."""
        header = ("symbol values F(x, p) on the %s lattice, row-major over "
                  "%d configuration axes (%d points each) then %d momentum axes "
                  "(%d points each); columns re, im"
                  % (self.kind, self.grid.dim, self.values.shape[0], self.grid.dim, self.grid.n))
        _write_csv(path, [self.values.real, self.values.imag], header)


def constant_symbol(dim: int, value=1.0) -> SymbolEvaluator:
    return SymbolEvaluator(dim, decay="none", name="constant",
                           factors=[(_scaled_factor(complex(value), _ones(dim)), _ones(dim))])


def gaussian_symbol(dim: int, x_center=None, p_center=None, x_width=1.0, p_width=1.0,
                    amplitude=1.0) -> SymbolEvaluator:
    """Phase-space Gaussian, separable in x and p; InputError for a width not finite and > 0."""
    return SymbolEvaluator(dim, decay="gaussian", name="gaussian", factors=[(_scaled_factor(
        require_finite("amplitude", amplitude), _gaussian_axes(dim, x_center, x_width, "x")),
        _gaussian_axes(dim, p_center, p_width, "p"))])


def x_only_symbol(dim: int, fn) -> SymbolEvaluator:
    return SymbolEvaluator(dim, decay="none", name="x-only", factors=[(fn, _ones(dim))])


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

def difference_mask(grid: PhaseSpaceGrid) -> np.ndarray:
    """Trapezoid weights over the pair differences, one box period per axis.

    Entry weight is the product over axes of 1 for ``|x_a - y_a| < L``, 1/2
    for ``|x_a - y_a| = L`` and 0 beyond.  Kernels built by the symbol map
    carry this mask so that each difference period is counted exactly once:
    without it the far corners of the matrix duplicate the near-diagonal
    band (the momentum sum is box-periodic in the difference), which leaves
    operator actions on interior states untouched but double-counts traces
    of composed kernels.
    """
    i = np.arange(grid.n)
    return reduce(np.kron, [_trapezoid(np.subtract.outer(i, i), grid.n)] * grid.dim)


def _trapezoid(steps: np.ndarray, n: int) -> np.ndarray:
    """Per-axis ``difference_mask`` weights of ``steps`` lattice steps (1, 1/2 at n/2, 0 beyond)."""
    steps = np.abs(steps)
    return np.where(steps < n // 2, 1.0, np.where(steps == n // 2, 0.5, 0.0))


def _separable_kernel(f: SymbolEvaluator, grid: PhaseSpaceGrid, tau: float, hbar: float,
                      mask: bool) -> np.ndarray:
    """Field-free kernel of a symbol with ``factors``: Kronecker products, then row blocks.

    For ``f = sum_r g_r(x) h_r(p)`` the kernel is ``sum_r g_r((1 - tau) x +
    tau y) H_r(x - y)`` with ``H_r(v) = w sum_k e^{i v . k} h_r(hbar k)``, one
    per-axis inverse transform per term.  Per axis the pair ``(i, j)`` reads
    ``H_r`` at the wrapped difference ``(i - j + n/2) mod n`` with the
    trapezoid mask weight of ``i - j`` folded in (all ones for
    ``mask=False``).  A term whose ``g_r`` and ``h_r`` are both axis products
    is the Kronecker product of one ``n x n`` matrix per axis, ``g_ra`` at the
    pair times that axis's weighted transform; all such terms are summed as
    they are written (``factors._kron_sum``).  Every other term is added in
    row blocks, gathered from a ``(2n - 1)^N`` table of ``H_r`` at the
    difference index ``i - j + n - 1``: at ``tau = 1/2`` its ``g_r`` is
    evaluated once on the ``(2n - 1)^N`` midpoint lattice and read at the
    midpoint index ``i + j``, at any other ``tau`` per row block.  The
    working memory beyond the kernel is one ``_row_blocks`` block.
    """
    n, N, size = grid.n, grid.dim, grid.size
    S = 2 * n - 1
    steps = np.arange(S) - (n - 1)  # i - j per axis
    trapezoid = _trapezoid(steps, n) if mask else np.ones(S)
    wrapped = (steps + n // 2) % n
    i = np.arange(n)
    diff_ij = np.subtract.outer(i, i) + n - 1
    axis_pts = (grid.midpoint_axis[np.add.outer(i, i)] if tau == 0.5
                else (1.0 - tau) * grid.config_axis[:, None] + tau * grid.config_axis)
    k_axis = hbar * grid.momentum_axis

    def axis_hat(ha):  # one axis's weighted transform at the difference index i - j + n - 1
        return (grid._inv_matrix @ np.broadcast_to(ha(k_axis), (n,)))[wrapped] * trapezoid

    mats, terms = [], []
    for g, h in f.factors:
        if isinstance(g, _AxisProduct) and isinstance(h, _AxisProduct):
            mats.append([np.broadcast_to(ga(axis_pts), (n, n)) * axis_hat(ha)[diff_ij]
                         for ga, ha in zip(g.fns, h.fns)])
        else:
            terms.append((g, h))
    kern = _kron_sum(mats) if mats else np.zeros((size, size), dtype=complex)
    if not terms:
        return kern
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
    differences beyond half a period per axis (weight 0) are skipped; the
    mask itself is not applied.
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
        kern[xs, ys] = fvals @ reduce(np.kron, [grid._inv_matrix[(n // 2 - da) % n] for da in d])
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
    if isinstance(f, SymbolGrid):
        if f.grid != grid:
            raise DimensionMismatchError("symbol table grid %r does not match %r" % (f.grid, grid))
        if f.kind != "midpoint":
            raise InputError("kernel map needs symbol samples on the midpoint lattice")
    elif not isinstance(f, SymbolEvaluator):
        raise InputError("unsupported symbol type %r" % type(f))
    return _quantized_kernel(f, A, grid, quad, 0.5, 1.0, mask)


def _quantized_kernel(f, A: VectorPotential | None, grid: PhaseSpaceGrid, quad: Quadrature,
                      tau: float, hbar: float, mask: bool) -> OperatorKernel:
    """The quantization map at ``tau`` and ``hbar``: fill (module notes), mask, phases.

    The phases are those of ``_dress`` at ``hbar``.  ``f`` is an evaluator,
    or a checked symbol table at ``tau = 1/2, hbar = 1``.  The mask is
    multiplied in one axis at a time (``_multiply_per_axis``): the weights of
    ``difference_mask``, or the zero-fill mask for a standard table.
    """
    if isinstance(f, SymbolEvaluator) and f.dim != grid.dim:
        raise DimensionMismatchError("symbol dimension does not match grid")
    if isinstance(f, SymbolEvaluator) and f.factors is not None:
        kern = _separable_kernel(f, grid, tau, hbar, mask)
    else:
        if tau == 0.5 and hbar == 1.0:
            kern = _windowed_kernel(f, grid)
        else:
            kern = _per_difference_kernel(f, grid, tau, hbar, mask)
        steps = np.subtract.outer(np.arange(grid.n), np.arange(grid.n))  # row - col per axis
        if isinstance(f, SymbolGrid) and f.kind == "standard":  # the zero-fill mask (module notes)
            _multiply_per_axis(kern, ((steps > -grid.n // 2) & (steps <= grid.n // 2)) * 1.0, grid)
        elif mask:
            _multiply_per_axis(kern, _trapezoid(steps, grid.n), grid)
    return OperatorKernel(grid, _dress(kern, A, grid, quad, hbar))


def _windowed_kernel(f, grid: PhaseSpaceGrid) -> np.ndarray:
    """The windowed map: field-free, unmasked kernel of an evaluator or of a symbol table.

    A standard table's configuration axes are interpolated from n to 2n - 1
    points (module notes) one at a time, each just before its momentum step.
    """
    alias, interp = 1.0, None  # alias weight per momentum axis
    if isinstance(f, SymbolEvaluator):
        vals = f.sample(grid, kind="midpoint").values
    else:
        vals = f.values
        if f.kind == "standard":
            # (1/2L) e^{i m p} over the midpoints m and the lattice's momenta p, times F
            interp = (np.exp(1j * np.outer(grid.midpoint_axis, grid.momentum_axis))
                      / (2.0 * grid.L)) @ grid._fwd_matrix
        elif f.alias_doubled:
            # reconstructed tables hold both alias images; pair with half weight
            alias = 0.5
    n, N = grid.n, grid.dim
    S, T = 2 * n - 1, n // 2
    # Per axis, the pairs (i, j) of the midpoint class s = i + j have wrapped
    # difference slots (i - j + n/2) mod n of one parity, (s + n/2) mod 2, so
    # the class reads only the slots 2 t + parity: those rows of the inverse transform.
    s = np.arange(S)[:, None]
    phase = alias * grid._inv_matrix[2 * np.arange(T) + (s + n // 2) % 2]  # (s, t, k)
    # (s_1..s_N, k_1..k_N) -> (s_1..s_N, t_1..t_N), momentum axis a batched over s_a
    for a in range(N):
        if interp is not None:
            vals = _apply_axes(vals, interp, [a])
        shape = vals.shape
        pre, mid = S**a, math.prod(shape[a + 1:N + a])
        # only vals holds a step's output, so the next interpolation can free it
        if a < N - 1:
            vals = phase[:, None] @ vals.reshape(pre, S, mid, n, n ** (N - 1 - a))
        else:
            vals = vals.reshape(pre, S, mid, n) @ phase.transpose(0, 2, 1)
        vals = vals.reshape(shape[:N + a] + (T,) + shape[N + a + 1:])
    i = np.arange(n)
    axis_shape = [(1,) * a + (n,) + (1,) * (N - 1) + (n,) + (1,) * (N - 1 - a) for a in range(N)]
    pairs = tuple(ij.reshape(sh) for ij in (i[:, None] + i, ((i[:, None] - i + n // 2) % n) // 2)
                  for sh in axis_shape)
    return vals[pairs].reshape(grid.size, grid.size)


def symbol_from_kernel(phi: OperatorKernel, A: VectorPotential | None,
                       quad: Quadrature = DEFAULT_QUADRATURE) -> SymbolGrid:
    """Symbol of an operator kernel, on the midpoint phase-space lattice.

    Inverts :func:`kernel_from_symbol`: the circulation phases are removed,
    the pairs of every midpoint class are gathered into one window per axis,
    and the difference variable of each window is Fourier-transformed back
    to the dual lattice over one alias period, one axis at a time.  The
    output is flagged ``alias_doubled``: each value holds the symbol plus
    its half-box alias mirror, so it is faithful on the inner momentum band
    for quarter-box limited symbols and re-quantizes exactly (see module
    notes).
    """
    g = phi.grid
    n, N = g.n, g.dim
    S, W = 2 * n - 1, n // 2 + 1
    # Per axis, the midpoint class s = i + j uses the first indices i with
    # |2 i - s| <= n/2: differences up to one half box in either direction.
    # The two ends 2 i - s = -+ n/2 describe the same difference modulo the
    # box period; with the trapezoid weights the kernel map puts on them the
    # window is an exact one-period quadrature, symmetric under difference
    # reversal.  Near the box edges the window is clipped to the available
    # pairs; slots past its end repeat its last pair with phase 0.
    s = np.arange(S)[:, None]
    lo = np.maximum(np.maximum(s - (n - 1), 0), (s - n // 2 + 1) // 2)
    hi = np.minimum(np.minimum(s, n - 1), (s + n // 2) // 2)
    first = lo + np.arange(W)
    valid = first <= hi
    first = np.minimum(first, hi)
    # slot phases e^{-i v k} at the difference v = x - y, shape (S, n, W);
    # the kernel's trapezoid mask already carries the period-endpoint
    # halves, so the slot weights are plain
    v = (2.0 * first - s) * g.h
    phase = np.where(valid[:, None, :],
                     (2.0 * g.h) * np.exp(-1j * v[:, None, :] * g.momentum_axis[:, None]), 0)
    # out[s_1, t_1, ..., s_N, t_N] = psi[i_1, ..., i_N, s_1 - i_1, ..., s_N - i_N], read
    # at flat offsets into psi: a sum of one (s_a, t_a) term per axis
    axis_shape = [(1, 1) * a + (S, W) + (1, 1) * (N - 1 - a) for a in range(N)]
    flat = sum((first * n ** (2 * N - 1 - a) + (s - first) * n ** (N - 1 - a)).reshape(sh)
               for a, sh in enumerate(axis_shape))
    psi = phi.kernel if A is None else _dress(phi.kernel.copy(), A, g, quad, strip=True)
    out = psi.ravel()[flat]
    del psi, flat  # free the phase-stripped copy before the contractions
    # one batched contraction per axis, slot t_a -> momentum k_a, batched over s_a;
    # every product is a matrix product.  The axes before the last left-multiply
    # every later index; the last right-multiplies every earlier index, one strided
    # row each, by the transposed phases
    for a in range(N - 1):
        head, tail = out.shape[:2 * a], out.shape[2 * a + 2:]
        out = (phase @ out.reshape(math.prod(head), S, W, -1)).reshape(head + (S, n) + tail)
    rows = (S * n) ** (N - 1)
    out = out.reshape(rows, S, W).transpose(1, 0, 2) @ phase.transpose(0, 2, 1)
    # (s_N, s_1, k_1, ..., s_{N-1}, k_{N-1}, k_N) -> configuration axes before momentum axes
    out = out.reshape((S,) + (S, n) * (N - 1) + (n,))
    out = out.transpose(list(range(1, 2 * N - 1, 2)) + [0] + list(range(2, 2 * N, 2))
                        + [2 * N - 1])
    return SymbolGrid(g, "midpoint", out, alias_doubled=True)
