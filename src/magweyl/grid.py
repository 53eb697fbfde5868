"""Truncated phase-space grids, Fourier conventions and kernel maps.

Discretization
--------------
Configuration space is truncated to the box ``[-L, L)^N`` with ``n`` (even)
points per axis, spacing ``h = 2L/n``; the dual momentum lattice has the
same count with spacing ``pi/L``.  The quadrature weights are ``h`` per
configuration axis and ``1/(2L)`` per momentum axis -- the unique choice
making the discrete transforms below mutually inverse, so no loose
normalization constant survives at grid level.

Kernel maps
-----------
``kernel_from_symbol`` realizes the map taking a phase-space symbol
``f(x, p)`` to the integral kernel of its quantization,

    K(x, y) = phase(x, y) * sum_k w_k e^{i (x - y) . k} f((x + y)/2, k),

where ``phase`` is the unit-modulus circulation factor of a vector
potential (1 for the non-magnetic case).  The midpoint ``(x + y)/2`` lies
on the half-step lattice, so symbols enter either as closed-form
evaluators (sampled exactly, no interpolation) or as half-step-lattice
sample tables.

``symbol_from_kernel`` inverts the map midpoint by midpoint.  With an even
point count the pairs ``(x, y)`` sharing a midpoint supply only half the
momentum modes (differences step by ``2h``), so the reconstructed table
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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InputError
from .fields import DEFAULT_QUADRATURE, Quadrature, VectorPotential, _circulation_sum

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
    "momentum_polynomial_symbol",
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
        if self.L <= 0:
            raise InputError("half-width must be positive")

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
        """Indices of configuration lattice components, validating on-lattice."""
        x = np.asarray(x, dtype=float)
        idx = x / self.h + self.n // 2
        ridx = np.rint(idx)
        if np.abs(idx - ridx).max() > 1e-9:
            from .errors import OffLatticeError

            raise OffLatticeError("point %r is not on the configuration lattice" % (x,))
        return ridx.astype(int)


def _lattice_mesh(axes) -> np.ndarray:
    """All points of the product lattice of the 1-D ``axes``, shape (prod len, N), row-major."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _shift_index_table(grid: PhaseSpaceGrid, steps, boundary: str = "zero"):
    """Flat lattice indices of ``y + s`` for every lattice point ``y`` and integer step ``s``.

    ``steps`` is an integer array of shape (..., N), in units of the spacing h.  Returns
    ``(cols, valid)``, both of shape (n^N, ...): with ``"cyclic"`` the
    targets wrap around the box and all are valid; with ``"zero"`` the
    targets outside the box are marked invalid (their clipped ``cols`` are
    placeholders to be masked out, the zero-fill convention).
    """
    idx = np.indices(grid.shape).reshape((grid.dim, grid.size) + (1,) * (steps.ndim - 1))
    tgt = idx + np.moveaxis(steps, -1, 0)[:, None]
    if boundary == "cyclic":
        tgt %= grid.n
        valid = np.ones(tgt.shape[1:], dtype=bool)
    else:
        valid = np.all((tgt >= 0) & (tgt < grid.n), axis=0)
        tgt = np.clip(tgt, 0, grid.n - 1)
    return np.ravel_multi_index(tuple(tgt), grid.shape), valid


def _apply_axis(values: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(matrix, np.moveaxis(values, axis, 0), axes=(1, 0)), 0, axis)


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
        return complex(self.grid.config_weight * np.vdot(self.values, other.values))

    def __add__(self, other: "WaveFunction") -> "WaveFunction":
        return WaveFunction(self.grid, self.values + other.values)

    def __rmul__(self, c) -> "WaveFunction":
        return WaveFunction(self.grid, c * self.values)


def gaussian_wavefunction(grid: PhaseSpaceGrid, center=None, width=1.0, momentum=None,
                          normalize=True) -> WaveFunction:
    """Gaussian packet ``exp(-|y - c|^2 / (2 w^2)) exp(i y . k0)`` on the grid."""
    center = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float)
    momentum = np.zeros(grid.dim) if momentum is None else np.asarray(momentum, dtype=float)
    pts = grid.config_points()
    vals = np.exp(-((pts - center) ** 2).sum(axis=-1) / (2.0 * width**2)
                  + 1j * pts @ momentum).reshape(grid.shape)
    u = WaveFunction(grid, vals)
    if normalize:
        u = (1.0 / u.norm()) * u
    return u


def fourier_config(u: WaveFunction, direction: str = "forward") -> np.ndarray:
    """Discrete transform between the configuration and momentum lattices.

    ``forward`` maps lattice samples to ``h^N sum_x e^{-i x.p} u(x)`` on the
    dual lattice; ``inverse`` is its exact two-sided inverse.  The pair is
    unitary for the grid weights (Parseval holds to roundoff).
    """
    g = u.grid if isinstance(u, WaveFunction) else None
    if g is None:
        raise InputError("fourier_config expects a WaveFunction")
    vals = u.values
    m = g._fwd_matrix if direction == "forward" else g._inv_matrix
    if direction not in ("forward", "inverse"):
        raise InputError("direction must be 'forward' or 'inverse'")
    for ax in range(g.dim):
        vals = _apply_axis(vals, m, ax)
    return vals


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
        d = np.abs(self.kernel - self.kernel.conj().T).max()
        scale = max(np.abs(self.kernel).max(), 1.0)
        return float(d / scale)

    def to_csv(self, path) -> None:
        """Write the kernel matrix as CSV (re/im pairs, row-major lattice order)."""
        flat = np.column_stack([self.kernel.real.ravel(), self.kernel.imag.ravel()])
        header = ("kernel entries K(x, y), rows scan x then y, each index "
                  "row-major over %d axes of %d points; columns re, im"
                  % (self.grid.dim, self.grid.n))
        np.savetxt(path, flat, delimiter=",", header=header)

    def eigenvalues(self, hermitian_tol: float = 1e-8) -> np.ndarray:
        """Sorted real spectrum of the (Hermitian) operator matrix."""
        from .errors import NumericError

        if self.hermiticity_defect() > hermitian_tol:
            raise NumericError("operator is not Hermitian within tolerance")
        return np.linalg.eigvalsh(self.operator_matrix)

    def __sub__(self, other: "OperatorKernel") -> "OperatorKernel":
        return OperatorKernel(self.grid, self.kernel - other.kernel)


def kernel_compose(phi: OperatorKernel, psi: OperatorKernel) -> OperatorKernel:
    """Kernel of the operator product: ``(phi # psi)(x, y) = h^N sum_z phi(x, z) psi(z, y)``."""
    if phi.grid != psi.grid:
        raise DimensionMismatchError("kernels live on different grids")
    return OperatorKernel(phi.grid, phi.grid.config_weight * (phi.kernel @ psi.kernel))


def segment_phase_matrix(A: VectorPotential | None, grid: PhaseSpaceGrid,
                         quad: Quadrature = DEFAULT_QUADRATURE) -> np.ndarray:
    """Circulation phases ``exp(-i Gamma^A([x, y]))`` for all lattice pairs."""
    if A is None:
        return np.ones((grid.size, grid.size), dtype=complex)
    if A.dim != grid.dim:
        raise DimensionMismatchError("potential dimension does not match grid")
    pts = grid.config_points()
    a = pts[:, None, :]
    return np.exp(-1j * _circulation_sum(A, a, pts[None, :, :] - a, quad))


# ---------------------------------------------------------------------------
# symbols

class SymbolEvaluator:
    """Closed-form phase-space function ``(x, p) -> complex``, vectorized."""

    def __init__(self, dim: int, fn, decay: str = "gaussian", name: str = "symbol"):
        self.dim = int(dim)
        self.fn = fn
        self.decay = decay
        self.name = name

    def __call__(self, x, p):
        return np.asarray(self.fn(np.asarray(x, dtype=float), np.asarray(p, dtype=float)),
                          dtype=complex)

    def conj(self) -> "SymbolEvaluator":
        return SymbolEvaluator(self.dim, lambda x, p: np.conj(self.fn(x, p)),
                               self.decay, self.name + "*")

    def __add__(self, other: "SymbolEvaluator") -> "SymbolEvaluator":
        return SymbolEvaluator(self.dim, lambda x, p: self.fn(x, p) + other.fn(x, p), self.decay)

    def __rmul__(self, c) -> "SymbolEvaluator":
        return SymbolEvaluator(self.dim, lambda x, p: c * self.fn(x, p), self.decay)

    def sample(self, grid: PhaseSpaceGrid, kind: str = "standard") -> "SymbolGrid":
        """Sample on the phase-space lattice of the requested flavor."""
        caxis = grid.config_axis if kind == "standard" else grid.midpoint_axis
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
    Values have shape (config axes ..., momentum axes ...).
    """

    def __init__(self, grid: PhaseSpaceGrid, kind: str, values: np.ndarray,
                 alias_doubled: bool = False):
        if kind not in ("standard", "midpoint"):
            raise InputError("symbol grid kind must be 'standard' or 'midpoint'")
        m = grid.n if kind == "standard" else 2 * grid.n - 1
        expect = (m,) * grid.dim + grid.shape
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
        return self.grid.config_axis if self.kind == "standard" else self.grid.midpoint_axis

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
        flat = np.column_stack([self.values.real.ravel(), self.values.imag.ravel()])
        header = ("symbol values F(x, p) on the %s lattice, row-major over "
                  "%d configuration axes (%d points each) then %d momentum axes "
                  "(%d points each); columns re, im"
                  % (self.kind, self.grid.dim, self.values.shape[0], self.grid.dim, self.grid.n))
        np.savetxt(path, flat, delimiter=",", header=header)


def constant_symbol(dim: int, value=1.0) -> SymbolEvaluator:
    return SymbolEvaluator(dim, lambda x, p: np.full(np.broadcast_shapes(
        x.shape[:-1], p.shape[:-1]), complex(value)), decay="none", name="constant")


def gaussian_symbol(dim: int, x_center=None, p_center=None, x_width=1.0, p_width=1.0,
                    amplitude=1.0) -> SymbolEvaluator:
    """Phase-space Gaussian, separable in x and p."""
    xc = np.zeros(dim) if x_center is None else np.asarray(x_center, dtype=float)
    pc = np.zeros(dim) if p_center is None else np.asarray(p_center, dtype=float)

    def fn(x, p):
        ex = ((x - xc) ** 2).sum(axis=-1) / (2.0 * x_width**2)
        ep = ((p - pc) ** 2).sum(axis=-1) / (2.0 * p_width**2)
        return amplitude * np.exp(-(ex + ep))

    return SymbolEvaluator(dim, fn, decay="gaussian", name="gaussian")


def momentum_polynomial_symbol(dim: int, powers, cutoff: float, coeff=1.0,
                               x_coeff=None) -> SymbolEvaluator:
    """Monomial ``c(x) p^alpha`` with a Gaussian momentum cutoff of scale `cutoff`."""
    powers = tuple(int(a) for a in powers)
    if len(powers) != dim:
        raise InputError("powers must have one entry per axis")

    def fn(x, p):
        out = np.full(np.broadcast_shapes(x.shape[:-1], p.shape[:-1]), complex(coeff))
        for j, a in enumerate(powers):
            if a:
                out = out * p[..., j] ** a
        out = out * np.exp(-(p**2).sum(axis=-1) / (2.0 * cutoff**2))
        if x_coeff is not None:
            out = out * x_coeff(x)
        return out

    return SymbolEvaluator(dim, fn, decay="poly-gaussian", name="p^%s" % (powers,))


def x_only_symbol(dim: int, fn) -> SymbolEvaluator:
    return SymbolEvaluator(dim, lambda x, p: fn(x) * np.ones(np.broadcast_shapes(
        x.shape[:-1], p.shape[:-1])), decay="none", name="x-only")


# ---------------------------------------------------------------------------
# symplectic transform

def fourier_symplectic(F: SymbolGrid, direction: str = "forward") -> SymbolGrid:
    """Symplectic Fourier transform on the standard phase-space lattice.

    ``forward`` computes ``sum_eta w_eta e^{-i sigma(xi, eta)} F(eta)``,
    factorized as the configuration transform tensored with the inverse
    momentum transform followed by the axis swap.  ``inverse`` applies the
    exact algebraic inverse of those steps; since the transform is an
    involution the two directions agree, and forward o inverse is the
    identity to roundoff.
    """
    if F.kind != "standard":
        raise InputError("symplectic transform needs a standard-lattice symbol grid")
    g = F.grid
    N = g.dim
    vals = F.values
    if direction == "forward":
        for ax in range(N):
            vals = _apply_axis(vals, g._fwd_matrix, ax)
        for ax in range(N, 2 * N):
            vals = _apply_axis(vals, g._inv_matrix, ax)
        vals = np.moveaxis(vals, list(range(2 * N)), list(range(N, 2 * N)) + list(range(N)))
    elif direction == "inverse":
        vals = np.moveaxis(vals, list(range(2 * N)), list(range(N, 2 * N)) + list(range(N)))
        for ax in range(N):
            vals = _apply_axis(vals, g._inv_matrix, ax)
        for ax in range(N, 2 * N):
            vals = _apply_axis(vals, g._fwd_matrix, ax)
    else:
        raise InputError("direction must be 'forward' or 'inverse'")
    return SymbolGrid(g, "standard", vals)


def symplectic_parity(F: SymbolGrid) -> SymbolGrid:
    """Point reflection ``F(xi) -> F(-xi)`` as an exact lattice index map."""
    vals = F.values
    for ax in range(2 * F.grid.dim):
        vals = np.roll(np.flip(vals, axis=ax), 1, axis=ax)
    return SymbolGrid(F.grid, F.kind, vals)


# ---------------------------------------------------------------------------
# kernel maps

def _pair_index_tables(grid: PhaseSpaceGrid):
    """Midpoint-sum and wrapped-difference flat indices for all lattice pairs."""
    n, N = grid.n, grid.dim
    idx = np.indices((n,) * N).reshape(N, -1)
    s = idx[:, :, None] + idx[:, None, :]          # per-axis i + j in [0, 2n-2]
    d = (idx[:, :, None] - idx[:, None, :] + n // 2) % n  # wrapped difference index
    srow = np.ravel_multi_index(list(s), (2 * n - 1,) * N)
    dcol = np.ravel_multi_index(list(d), (n,) * N)
    return srow, dcol


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
    n, N = grid.n, grid.dim
    idx = np.indices((n,) * N).reshape(N, -1)
    absdiff = np.abs(idx[:, :, None] - idx[:, None, :])
    tau = np.where(absdiff < n // 2, 1.0, np.where(absdiff == n // 2, 0.5, 0.0))
    return tau.prod(axis=0)


def _midpoint_momentum_table(values: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Transform f(u, k) -> sum_k w_k e^{i v.k} f(u, k) on the wrapped difference lattice."""
    N = grid.dim
    vals = values
    for ax in range(N, 2 * N):
        vals = _apply_axis(vals, grid._inv_matrix, ax)
    return vals


def kernel_from_symbol(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                       quad: Quadrature = DEFAULT_QUADRATURE,
                       mask: bool = True) -> OperatorKernel:
    """Kernel of the gauge-covariant quantization of a symbol.

    Parameters
    ----------
    f : SymbolEvaluator or midpoint-lattice SymbolGrid
        Evaluators are sampled exactly at the half-step midpoints; sample
        tables are used verbatim.
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

    The non-magnetic kernel equals the magnetic one divided entrywise by
    the circulation phases, and constant symbols map to the identity
    kernel exactly.
    """
    scale = 1.0
    if isinstance(f, SymbolEvaluator):
        if f.dim != grid.dim:
            raise DimensionMismatchError("symbol dimension does not match grid")
        table = f.sample(grid, kind="midpoint").values
    elif isinstance(f, SymbolGrid):
        if f.kind != "midpoint":
            raise InputError("kernel map needs symbol samples on the midpoint lattice")
        table = f.values
        if f.alias_doubled:
            # reconstructed tables hold both alias images; pair with half weight
            scale = 0.5**grid.dim
    else:
        raise InputError("unsupported symbol type %r" % type(f))
    G = _midpoint_momentum_table(table, grid)
    srow, dcol = _pair_index_tables(grid)
    base = scale * G.reshape((2 * grid.n - 1) ** grid.dim, grid.size)[srow, dcol]
    lam = segment_phase_matrix(A, grid, quad)
    kern = lam * base
    if mask:
        kern = difference_mask(grid) * kern
    return OperatorKernel(grid, kern)


def _alias_windows(grid: PhaseSpaceGrid):
    """Per-midpoint symmetric difference windows covering one alias period.

    For the midpoint with axis index sum ``s`` the usable first indices are
    those ``i`` with ``|2 i - s| <= n/2``: differences up to one half box in
    either direction.  The two endpoints ``2 i - s = -+ n/2`` describe the
    same difference modulo the box period; together with the trapezoid
    weights the kernel map puts on them, the window is an exact one-period
    quadrature that is symmetric under difference reversal.  Near the box
    edges the window is clipped to the available pairs.
    """
    n = grid.n
    windows = []
    for s in range(2 * n - 1):
        i_min = max(0, s - (n - 1))
        i_max = min(n - 1, s)
        lo = max(i_min, int(np.ceil((s - n // 2) / 2.0)))
        hi = min(i_max, int(np.floor((s + n // 2) / 2.0)))
        windows.append(np.arange(lo, hi + 1))
    return windows


def symbol_from_kernel(phi: OperatorKernel, A: VectorPotential | None,
                       quad: Quadrature = DEFAULT_QUADRATURE) -> SymbolGrid:
    """Symbol of an operator kernel, on the midpoint phase-space lattice.

    Inverts :func:`kernel_from_symbol`: the circulation phases are removed
    and, midpoint by midpoint, the difference variable is Fourier-transformed
    back to the dual lattice over one alias period.  The output is flagged
    ``alias_doubled``: each value holds the symbol plus its half-box alias
    mirror, so it is faithful on the inner momentum band for quarter-box
    limited symbols and re-quantizes exactly (see module notes).
    """
    g = phi.grid
    n, N = g.n, g.dim
    lam = segment_phase_matrix(A, g, quad)
    psi = (phi.kernel * np.conj(lam)).reshape((n,) * (2 * N))
    windows = _alias_windows(g)
    # per-axis phase matrices e^{-i v k}; the kernel's trapezoid mask already
    # carries the period-endpoint halves, so the window weights are plain
    phase = []
    for s in range(2 * n - 1):
        v = (2.0 * windows[s] - s) * g.h  # difference x - y at this midpoint class
        phase.append((2.0 * g.h) * np.exp(-1j * np.outer(v, g.momentum_axis)))
    letters = "abc"[:N]
    klets = "klm"[:N]
    spec = letters + "," + ",".join(l + k for l, k in zip(letters, klets)) + "->" + klets
    out = np.zeros((2 * n - 1,) * N + (n,) * N, dtype=complex)
    for smulti in np.ndindex(*((2 * n - 1,) * N)):
        ipts = _lattice_mesh([windows[s] for s in smulti])  # first indices of the pairs
        xf = np.ravel_multi_index(tuple(ipts.T), (n,) * N)
        yf = np.ravel_multi_index(tuple((np.asarray(smulti) - ipts).T), (n,) * N)
        block = psi.reshape(g.size, g.size)[xf, yf].reshape([len(windows[s]) for s in smulti])
        out[smulti] = np.einsum(spec, block, *[phase[s] for s in smulti])
    return SymbolGrid(g, "midpoint", out, alias_doubled=True)
