"""The magnetic Weyl system and the gauge-covariant quantization map.

The unitary Weyl system acts on lattice wave functions by

    [W(x, p) u](y) = e^{-i (y + x/2) . p} e^{-i Gamma^A([y, y + x])} u(y + x),

with the translation component ``x`` restricted to the configuration
lattice (off-lattice translations are rejected rather than interpolated).
Out-of-box samples are zero-filled by default; the cyclic variant used by
the irreducibility probe wraps them around the box instead.

Quantization routes:

* closed-form symbols go through the midpoint kernel map (exact sampling,
  optional ordering parameter tau and scaled Planck constant),
* midpoint-lattice symbol tables go through the same kernel map,
* standard-lattice symbol tables are quantized as the weighted Weyl-system
  sum over the phase-space lattice, with the symplectic-transform integrand
  evaluated at reflected arguments (the discrete counterpart of pairing the
  symbol with the Weyl system).

Sign conventions: with ``P = -i d`` and ``Pi = P - A(Q)`` the magnetic
canonical commutation relations read ``i [Pi_k, Q_j] = delta_jk`` and
``[Pi_1, Pi_2] = i B_12(Q)`` for ``B = dA`` (derivable from the
translation cocycle; the test suite pins both the sign and the magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError, OffLatticeError
from .fields import (
    DEFAULT_QUADRATURE,
    Quadrature,
    ScalarPotential,
    VectorPotential,
    _circulation_sum,
    circulation,
)
from .grid import (
    OperatorKernel,
    PhaseSpaceGrid,
    SymbolEvaluator,
    SymbolGrid,
    WaveFunction,
    difference_mask,
    fourier_symplectic,
    kernel_from_symbol,
    symplectic_parity,
    _pair_index_tables,
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
        if self.hbar <= 0.0:
            raise InputError("hbar must be positive")


def _shift_components(grid: PhaseSpaceGrid, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.dim,):
        raise DimensionMismatchError("translation must be a %d-vector" % grid.dim)
    s = x / grid.h
    rs = np.rint(s)
    if np.abs(s - rs).max() > 1e-9:
        raise OffLatticeError("translation %r is not on the configuration lattice" % (x,))
    return rs.astype(int)


def _translate_values(grid: PhaseSpaceGrid, values: np.ndarray, shifts: np.ndarray,
                      boundary: str) -> np.ndarray:
    """Samples of u(y + x): shift indices by +shifts with zero-fill or wrap."""
    cols, valid = _shift_index_table(grid, shifts, boundary)
    return np.where(valid, values.ravel()[cols], 0).reshape(values.shape)


def weyl_apply(A: VectorPotential | None, xi, u: WaveFunction,
               quad: Quadrature = DEFAULT_QUADRATURE, boundary: str = "zero") -> WaveFunction:
    """Apply the magnetic Weyl operator at phase-space point ``xi = (x, p)``.

    The translation part of ``xi`` must lie on the configuration lattice;
    translated samples leaving the box are zero-filled (``boundary="zero"``)
    or wrapped (``"cyclic"``).  Norm is preserved up to the truncated mass.
    """
    g = u.grid
    x = np.asarray(xi[0], dtype=float)
    p = np.asarray(xi[1], dtype=float)
    if p.shape != (g.dim,):
        raise DimensionMismatchError("momentum must be a %d-vector" % g.dim)
    shifts = _shift_components(g, x)
    pts = g.config_points()
    mod = np.exp(-1j * (pts + 0.5 * x) @ p).reshape(g.shape)
    if A is None:
        lam = 1.0
    else:
        lam = np.exp(-1j * circulation(A, pts, pts + x, quad)).reshape(g.shape)
    shifted = _translate_values(g, u.values, shifts, boundary)
    return WaveFunction(g, mod * lam * shifted)


def weyl_matrix(A: VectorPotential | None, xi, grid: PhaseSpaceGrid,
                quad: Quadrature = DEFAULT_QUADRATURE, boundary: str = "zero") -> OperatorKernel:
    """Materialize the Weyl operator at ``xi`` as an operator kernel."""
    x = np.asarray(xi[0], dtype=float)
    p = np.asarray(xi[1], dtype=float)
    shifts = _shift_components(grid, x)
    pts = grid.config_points()
    phase = np.exp(-1j * (pts + 0.5 * x) @ p)
    if A is not None:
        phase = phase * np.exp(-1j * circulation(A, pts, pts + x, quad))
    cols, valid = _shift_index_table(grid, shifts, boundary)
    m = np.zeros((grid.size, grid.size), dtype=complex)
    m[np.flatnonzero(valid), cols[valid]] = phase[valid]
    return OperatorKernel.from_operator_matrix(grid, m)


def magnetic_translation(A: VectorPotential | None, x, grid: PhaseSpaceGrid,
                         quad: Quadrature = DEFAULT_QUADRATURE) -> OperatorKernel:
    """The magnetic translation by ``x``; the Weyl operator at ``(-x, 0)``."""
    x = np.asarray(x, dtype=float)
    return weyl_matrix(A, (-x, np.zeros(grid.dim)), grid, quad)


def momentum_modulation(p, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Multiplication by ``e^{-i y . p}``; the Weyl operator at ``(0, p)``."""
    p = np.asarray(p, dtype=float)
    phase = np.exp(-1j * grid.config_points() @ p)
    return OperatorKernel.from_operator_matrix(grid, np.diag(phase))


def translation_phase_table(A: VectorPotential | None, grid: PhaseSpaceGrid,
                            quad: Quadrature = DEFAULT_QUADRATURE) -> np.ndarray:
    """Circulation phases e^{-i Gamma^A([y, y + x])} for all (y, x) lattice pairs."""
    if A is None:
        return np.ones((grid.size, grid.size), dtype=complex)
    pts = grid.config_points()
    return np.exp(-1j * _circulation_sum(A, pts[:, None, :], pts[None, :, :], quad))


# ---------------------------------------------------------------------------
# quantization

def _kernel_route_general(f: SymbolEvaluator, A, grid, quad, tau, hbar,
                          mask: bool = True) -> OperatorKernel:
    """Kernel map with arbitrary ordering parameter and Planck constant.

    Evaluation points are ``(1 - tau) x + tau y`` (off the midpoint lattice
    in general, which closed-form symbols support directly); the momentum
    sum runs over the hbar-scaled dual lattice so constants still quantize
    to the identity.
    """
    g = grid
    pts = g.config_points()
    size = g.size
    # phases e^{i (x - y) . k} depend only on the wrapped index difference,
    # whose values are the configuration lattice points again
    _, dcol = _pair_index_tables(g)
    kpts = g.momentum_points()
    wphase = g.momentum_weight * np.exp(1j * pts @ kpts.T)  # (diff index, k index)
    scaled_k = hbar * kpts
    kern = np.zeros((size, size), dtype=complex)
    for a in range(size):
        epts = (1.0 - tau) * pts[a][None, :] + tau * pts  # (size, N)
        fvals = f(epts[:, None, :], scaled_k[None, :, :])  # (size_y, size_k)
        kern[a] = np.einsum("yk,yk->y", wphase[dcol[a]], fvals)
    if A is not None:
        seg = _circulation_sum(A, pts[:, None, :], pts[None, :, :] - pts[:, None, :], quad)
        kern = kern * np.exp(-1j * seg / hbar)
    if mask:
        kern = difference_mask(g) * kern
    return OperatorKernel(g, kern)


def _weyl_sum_coefficients(F: SymbolGrid) -> np.ndarray:
    """Integrand of the Weyl-system sum: reflected symplectic transform.

    Reflecting the momentum-box edge ``-n/2 * dp`` lands on ``+n/2 * dp``,
    which is off the lattice.  The Weyl phases ``e^{-i (y + x/2).p}`` relate
    the two edge images by the sign ``(-1)^{x/h}`` per axis, so the edge
    row of the reflected table carries that sign; this is the resolution
    under which coefficient tables of the Weyl system itself reproduce
    their operators exactly (rank-one reconstruction), and it is invisible
    for integrands that decay before the box edge.
    """
    g = F.grid
    c = symplectic_parity(fourier_symplectic(F, "forward")).values.reshape(g.size, g.size)
    xsteps = np.rint(g.config_points() / g.h).astype(int)  # (size, N)
    pidx = np.indices(g.shape).reshape(g.dim, -1)  # momentum multi-indices
    sign = np.ones((g.size, g.size))
    for a in range(g.dim):
        odd_x = (xsteps[:, a] % 2 != 0)
        edge_p = (pidx[a] == 0)
        sign[np.ix_(odd_x, edge_p)] *= -1.0
    return c * sign


def _weyl_sum_quantize(F: SymbolGrid, A, quad) -> OperatorKernel:
    """Quantize a standard-lattice symbol table as a Weyl-system sum.

    The integrand pairs the reflected symplectic transform of the table
    with the Weyl operators over the full phase-space lattice; translated
    samples are zero-filled.
    """
    g = F.grid
    c = _weyl_sum_coefficients(F)
    pts = g.config_points()
    kpts = g.momentum_points()
    # d[x, a] = sum_p w c(x, p) e^{-i (y_a + x/2) p}
    ephase = np.exp(-1j * kpts @ pts.T)  # (p, y)
    half = np.exp(-0.5j * pts @ kpts.T)  # (x, p)
    d = (c * half) @ (g.momentum_weight * ephase)
    lam = translation_phase_table(A, g, quad)  # (y, x)
    # for a fixed row y the map x -> y + x is one-to-one, so each entry is
    # hit at most once and one scatter assignment places every term
    cols, valid = _shift_index_table(g, np.rint(pts / g.h).astype(int))  # (y, x)
    m = np.zeros((g.size, g.size), dtype=complex)
    m[np.nonzero(valid)[0], cols[valid]] = (g.config_weight * lam * d.T)[valid]
    return OperatorKernel.from_operator_matrix(g, m)


def op_quantize(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                params: WeylParams = WeylParams(),
                quad: Quadrature = DEFAULT_QUADRATURE, mask: bool = True) -> OperatorKernel:
    """Gauge-covariant quantization of a phase-space symbol.

    Parameters
    ----------
    f : SymbolEvaluator or SymbolGrid
        Closed-form symbols support any ``params``; midpoint tables go
        through the kernel map and standard tables through the Weyl-system
        sum (both at the default parameters).
    A : VectorPotential or None
        Gauge potential; None quantizes without magnetic phases.
    params : WeylParams
        Ordering parameter ``tau`` (0.5 is the symmetric prescription whose
        real symbols give Hermitian operators) and Planck constant.
    mask : bool
        One-period difference convention (see the kernel map); disable for
        broad-in-momentum symbols whose natural operator is the periodized
        spectral one.

    Real symbols at ``tau = 1/2`` yield Hermitian kernels to roundoff, and
    the adjoint identity ``op(f, tau)^* = op(conj f, 1 - tau)`` holds at
    matrix level.
    """
    default = params.tau == 0.5 and params.hbar == 1.0
    if isinstance(f, SymbolGrid):
        if not default:
            raise InputError("symbol tables support only the default quantization parameters")
        if f.kind == "midpoint":
            return kernel_from_symbol(f, A, grid, quad, mask=mask)
        return _weyl_sum_quantize(f, A, quad)
    if not isinstance(f, SymbolEvaluator):
        raise InputError("unsupported symbol type %r" % type(f))
    if default:
        return kernel_from_symbol(f, A, grid, quad, mask=mask)
    return _kernel_route_general(f, A, grid, quad, params.tau, params.hbar, mask=mask)


# ---------------------------------------------------------------------------
# basic observables

def _axis_transform_matrices(grid: PhaseSpaceGrid):
    fwd = grid._fwd_matrix
    inv = grid._inv_matrix
    F = fwd
    I = inv
    for _ in range(grid.dim - 1):
        F = np.kron(F, fwd)
        I = np.kron(I, inv)
    return F, I


def momentum_operator(A: VectorPotential | None, j: int, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Magnetic momentum along axis j: the spectral derivative minus A_j(Q).

    The derivative part is diagonal in the discrete Fourier basis (exact on
    band-limited grid functions); the potential part is the multiplication
    operator by A_j on the lattice.
    """
    if not 0 <= j < grid.dim:
        raise InputError("axis index %d out of range for dimension %d" % (j, grid.dim))
    F, Finv = _axis_transform_matrices(grid)
    pj = grid.momentum_points()[:, j]
    mat = Finv @ (pj[:, None] * F)
    if A is not None:
        if A.dim != grid.dim:
            raise DimensionMismatchError("potential dimension does not match grid")
        mat = mat - np.diag(np.asarray(A.eval(grid.config_points()), dtype=float)[:, j])
    return OperatorKernel.from_operator_matrix(grid, mat)


def position_operator(j: int, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Multiplication by the j-th coordinate."""
    if not 0 <= j < grid.dim:
        raise InputError("axis index %d out of range for dimension %d" % (j, grid.dim))
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
    """
    g = u.grid
    x = np.asarray(xi[0], dtype=float)
    p = np.asarray(xi[1], dtype=float)
    step = x / steps
    shifts = _shift_components(g, step)
    pts = g.config_points()
    aq = pts @ p
    if A is not None:
        aq = aq + np.asarray(A.eval(pts), dtype=float) @ x
    phase_step = np.exp(-1j * aq / steps).reshape(g.shape)
    vals = u.values
    for _ in range(steps):
        vals = phase_step * _translate_values(g, vals, shifts, "zero")
    exact = weyl_apply(A, (x, p), u, quad)
    return float(np.sqrt((np.abs(vals - exact.values) ** 2).sum())
                 / np.sqrt((np.abs(exact.values) ** 2).sum()))


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
    ph = np.exp(1j * sign * vals)
    return OperatorKernel(phi.grid, ph[:, None] * phi.kernel * np.conj(ph)[None, :])
