"""The magnetic Weyl system and the gauge-covariant quantization map.

The unitary Weyl system acts on lattice wave functions by

    [W(x, p) u](y) = e^{-i (y + x/2) . p} e^{-i Gamma^A([y, y + x])} u(y + x),

with the translation component ``x`` restricted to the configuration
lattice (off-lattice translations are rejected rather than interpolated).
Out-of-box samples are zero-filled; the irreducibility probe of ``wigner``
writes out its own cyclic (wrapped) operators.

Quantization: every symbol goes through the one quantization map of
``grid``, whose module notes list the fill each input takes at each
``tau`` and ``hbar``.  A standard-lattice table is read through its
trigonometric interpolant on the kernel midpoints; with the zero-fill mask
this is the weighted Weyl-system sum over the phase-space lattice (the
discrete counterpart of pairing the symbol with the Weyl system), which
the tests write out one Weyl operator at a time.

The field enters every zero-fill route one way, ``grid._dress``: the
field-free kernel is multiplied entrywise by the base potential's
``exp(-i Gamma / hbar)``, table first, and a gauge transform ``A + grad
rho``, the diagonal unitary ``e^{i rho(Q)}``, then conjugates it by
``e^{i rho / hbar}`` sampled on the lattice.  Only ``_weyl_phase``
integrates its own circulations.  Every momentum sum here runs per axis on
the grid's two transform matrices, never on an ``n^N x n^N`` phase table.

Sign conventions: with ``P = -i d`` and ``Pi = P - A(Q)`` the magnetic
canonical commutation relations read ``i [Pi_k, Q_j] = delta_jk`` and
``[Pi_1, Pi_2] = i B_12(Q)`` for ``B = dA`` (derivable from the
translation cocycle; the test suite pins both the sign and the magnitude).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, InputError
from .fields import (
    DEFAULT_QUADRATURE,
    Quadrature,
    ScalarPotential,
    VectorPotential,
    _gauge_phases,
    circulation,
)
from .grid import (
    OperatorKernel,
    PhaseSpaceGrid,
    SymbolEvaluator,
    SymbolGrid,
    WaveFunction,
    segment_phase_matrix,
    _gauge_dress,
    _quantized_kernel,
    _shift_index_table,
)

__all__ = [
    "WeylParams",
    "weyl_apply",
    "weyl_matrix",
    "magnetic_translation",
    "momentum_modulation",
    "op_quantize",
    "momentum_operator",
    "position_operator",
    "gauge_conjugate",
    "translation_phase_table",
]


@dataclass(frozen=True)
class WeylParams:
    """Ordering parameter and Planck constant of the quantization."""

    tau: float = 0.5
    hbar: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise InputError("tau must lie in [0, 1]")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):  # refuses NaN and infinity too
            raise InputError("hbar must be positive and finite, got %r" % (self.hbar,))


def _lattice_vector(grid: PhaseSpaceGrid, v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.dim,):
        raise DimensionMismatchError("%s must be a %d-vector" % (name, grid.dim))
    return v


def _shift_components(grid: PhaseSpaceGrid, x) -> np.ndarray:
    return grid.lattice_index(_lattice_vector(grid, x, "translation")) - grid.n // 2


def _check_axis(j, grid: PhaseSpaceGrid) -> None:
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 0 <= j < grid.dim:
        raise InputError("axis index must be an integer in [0, %d), got %r" % (grid.dim, j))


def _weyl_phase(A: VectorPotential | None, xi, grid: PhaseSpaceGrid, quad: Quadrature):
    """``(phase, cols, valid)`` at ``xi = (x, p)``: ``[W(xi) u](y) = phase[y] u[cols[y]]``
    where ``valid[y]``, else 0."""
    x = np.asarray(xi[0], dtype=float)
    p = _lattice_vector(grid, xi[1], "momentum")
    cols, valid = _shift_index_table(grid, _shift_components(grid, x))
    pts = grid.config_points()
    phase = np.exp(-1j * (pts + 0.5 * x) @ p)
    # own circulations, not the segment table: one operator needs n^N segments.
    # Gauge data: the base's, times e^{i rho(y)} e^{-i rho(y + x)}
    if A is not None:
        ends = np.stack([pts, pts + x])
        A, gauge = _gauge_phases(A, ends, quad)
        phase = phase * np.exp(-1j * circulation(A, *ends, quad))
        if gauge is not None:
            phase *= gauge[0]
            phase *= np.conj(gauge[1])
    return phase, cols, valid


def weyl_apply(A: VectorPotential | None, xi, u: WaveFunction,
               quad: Quadrature = DEFAULT_QUADRATURE) -> WaveFunction:
    """Apply the magnetic Weyl operator at phase-space point ``xi = (x, p)``.

    The translation part of ``xi`` must lie on the configuration lattice;
    translated samples leaving the box are zero-filled.  Norm is preserved
    up to the truncated mass.
    """
    g = u.grid
    phase, cols, valid = _weyl_phase(A, xi, g, quad)
    return WaveFunction(g, (phase * np.where(valid, u.values.ravel()[cols], 0)).reshape(g.shape))


def weyl_matrix(A: VectorPotential | None, xi, grid: PhaseSpaceGrid,
                quad: Quadrature = DEFAULT_QUADRATURE) -> OperatorKernel:
    """Materialize the Weyl operator at ``xi`` as an operator kernel."""
    phase, cols, valid = _weyl_phase(A, xi, grid, quad)
    m = np.zeros((grid.size, grid.size), dtype=complex)
    m[np.flatnonzero(valid), cols[valid]] = phase[valid]
    return OperatorKernel.from_operator_matrix(grid, m)


def magnetic_translation(A: VectorPotential | None, x, grid: PhaseSpaceGrid,
                         quad: Quadrature = DEFAULT_QUADRATURE) -> OperatorKernel:
    """The magnetic translation by ``x``; the Weyl operator at ``(-x, 0)``."""
    return weyl_matrix(A, (-np.asarray(x, dtype=float), np.zeros(grid.dim)), grid, quad)


def momentum_modulation(p, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Multiplication by ``e^{-i y . p}``; the Weyl operator at ``(0, p)``."""
    return weyl_matrix(None, (np.zeros(grid.dim), p), grid)


def translation_phase_table(A: VectorPotential | None, grid: PhaseSpaceGrid,
                            quad: Quadrature = DEFAULT_QUADRATURE) -> np.ndarray:
    """Phases ``e^{-i Gamma^A([y, y + x])}`` of all (y, x) lattice pairs, 0 where y + x leaves the box.

    The zero-fill shift gather of ``segment_phase_matrix``: a public view in
    translation layout, unread by the package (the benchmark resolves it).
    """
    cols, valid = _shift_index_table(grid)
    return np.where(valid, np.take_along_axis(segment_phase_matrix(A, grid, quad), cols, 1), 0)


# ---------------------------------------------------------------------------
# quantization

def op_quantize(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                params: WeylParams = WeylParams(),
                quad: Quadrature = DEFAULT_QUADRATURE, mask: bool = True) -> OperatorKernel:
    """Gauge-covariant quantization of a phase-space symbol.

    Parameters
    ----------
    f : SymbolEvaluator or SymbolGrid
        Closed-form symbols support any ``params``; symbol tables only the
        default parameters, and only on their own grid.  A standard table
        is read through its trigonometric interpolant on the midpoints,
        which makes its kernel the Weyl-system sum of the table.  Which
        fill each input takes is listed in the ``grid`` module notes.
    A : VectorPotential or None
        Gauge potential; None quantizes without magnetic phases.
    params : WeylParams
        Ordering parameter ``tau`` (0.5 is the symmetric prescription whose
        real symbols give Hermitian operators) and Planck constant.
    mask : bool
        One-period difference convention (see the kernel map); disable for
        broad-in-momentum symbols whose natural operator is the periodized
        spectral one.  A standard table takes the zero-fill mask of the
        Weyl-system sum, which has no periodized difference tail, so it
        refuses ``mask=False``.

    Real symbols at ``tau = 1/2`` yield Hermitian kernels to roundoff, and
    the adjoint identity ``op(f, tau)^* = op(conj f, 1 - tau)`` holds at
    matrix level.
    """
    if isinstance(f, SymbolGrid):
        if f.grid != grid:
            raise DimensionMismatchError("symbol table grid %r does not match %r" % (f.grid, grid))
        if not (params.tau == 0.5 and params.hbar == 1.0):
            raise InputError("symbol tables support only the default quantization parameters")
        if f.kind == "standard" and not mask:
            raise InputError("the Weyl-system sum of a standard table has no unmasked form")
    elif not isinstance(f, SymbolEvaluator):
        raise InputError("unsupported symbol type %r" % type(f))
    return _quantized_kernel(f, A, grid, quad, params.tau, params.hbar, mask)


# ---------------------------------------------------------------------------
# basic observables

def momentum_operator(A: VectorPotential | None, j: int, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Magnetic momentum along axis j: the spectral derivative minus A_j(Q).

    The derivative part is diagonal in the discrete Fourier basis (exact on
    band-limited grid functions): the one-axis matrix ``F^{-1} diag(p) F``
    on axis j, the identity on the others.  The potential part is the
    multiplication operator by A_j on the lattice.
    """
    _check_axis(j, grid)
    deriv = grid._inv_matrix @ (grid.momentum_axis[:, None] * grid._fwd_matrix)
    mat = reduce(np.kron, [deriv if a == j else np.eye(grid.n) for a in range(grid.dim)])
    if A is not None:
        if A.dim != grid.dim:
            raise DimensionMismatchError("potential dimension does not match grid")
        a_j = np.asarray(A.eval(grid.config_points()), dtype=float)[:, j]
        mat[np.diag_indices(grid.size)] -= a_j
    return OperatorKernel.from_operator_matrix(grid, mat)


def position_operator(j: int, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Multiplication by the j-th coordinate."""
    _check_axis(j, grid)
    return OperatorKernel.from_operator_matrix(
        grid, np.diag(grid.config_points()[:, j].astype(complex)))


def weyl_trotter_diagnostic(A: VectorPotential | None, xi, u: WaveFunction, steps: int,
                            quad: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Deviation of an n-step product approximation from the Weyl operator.

    The Weyl operator is the exponential of ``Q.p - x.(P - A(Q))``; splitting
    it into the multiplication part ``a(Q) = Q.p + x.A(Q)`` and the
    translation part and alternating n small steps converges to the closed
    form as n grows (the circulation appears as the limiting Riemann sum of
    the potential along the path).  Requires ``x / steps`` on the lattice.
    Returns the relative deviation; a diagnostic, not a construction route.
    ``steps`` must be an integer >= 1, else InputError.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise InputError("steps must be an integer >= 1, got %r" % (steps,))
    g = u.grid
    x = np.asarray(xi[0], dtype=float)
    p = _lattice_vector(g, xi[1], "momentum")
    cols, valid = _shift_index_table(g, _shift_components(g, x / steps))
    pts = g.config_points()
    aq = pts @ p
    if A is not None:
        aq = aq + np.asarray(A.eval(pts), dtype=float) @ x
    phase_step = np.exp(-1j * aq / steps)
    vals = u.values.ravel()
    for _ in range(steps):
        vals = phase_step * np.where(valid, vals[cols], 0)
    exact = weyl_apply(A, (x, p), u, quad).values.ravel()
    return float(np.sqrt((np.abs(vals - exact) ** 2).sum())
                 / np.sqrt((np.abs(exact) ** 2).sum()))


def gauge_conjugate(phi: OperatorKernel, rho: ScalarPotential,
                    direction: str = "forward") -> OperatorKernel:
    """Conjugate a kernel by the gauge phase ``e^{i rho(Q)}``.

    Entrywise multiplication by ``e^{+-i (rho(x) - rho(y))}``; a unitary
    conjugation, so the spectrum is preserved exactly.
    """
    if direction not in ("forward", "inverse"):
        raise InputError("direction must be 'forward' or 'inverse'")
    vals = np.asarray(rho(phi.grid.config_points()), dtype=float)
    sign = 1.0 if direction == "forward" else -1.0
    return OperatorKernel(phi.grid, _gauge_dress(phi.kernel.copy(), np.exp(1j * sign * vals)))
