"""Phase-space symbols: closed forms, separable factors and sample tables.

A symbol ``f(x, p)`` is given by exactly one of a closed form ``fn`` and
its ``factors``, a finite sum ``sum_r g_r(x) h_r(p)`` (``SymbolEvaluator``),
or by its samples on a phase-space lattice (``SymbolGrid``): the grid's own
configuration lattice (``"standard"``) or the half-step lattice of kernel
midpoints (``"midpoint"``).  The factors of every preset are products of
one function per coordinate, ``g_r(x) = prod_a g_ra(x_a)`` (``_AxisProduct``),
and ``+``, ``c *`` and ``conj`` of symbols keep them so.  Such a symbol has
a field-free kernel that is a sum of Kronecker products of one ``n x n``
matrix per axis (``grid._separable_kernel``), a star product in a constant
field that sums over the middle point one axis at a time
(``moyal._twisted_slots``), and a covariant coupling under plane-wave
phases that runs one axis at a time (``coupling._axis_rows``).

The module sits below ``grid``: it imports nothing from it and reads a
grid (``grid.PhaseSpaceGrid`` in the annotations) only through its axes,
spacing, weights and shape.  ``grid`` maps symbols to kernels and back and
re-exports the public names here.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .csvformat import _write_csv
from .errors import DimensionMismatchError, InputError, require_finite

__all__ = [
    "SymbolEvaluator",
    "SymbolGrid",
    "constant_symbol",
    "gaussian_symbol",
    "x_only_symbol",
]


def _lattice_mesh(axes) -> np.ndarray:
    """All points of the product lattice of the 1-D ``axes``, shape (prod len, N), row-major."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _config_axis(grid: PhaseSpaceGrid, kind: str) -> np.ndarray:
    """Configuration axis of a symbol lattice: the grid's own, or the midpoints."""
    return grid.config_axis if kind == "standard" else grid.midpoint_axis


# ---------------------------------------------------------------------------
# factors that are products over the axes

class _AxisProduct:
    """The factor ``prod_a fns[a](x[..., a])`` of points ``x`` of shape ``(..., N)``.

    One callable per axis, each taking coordinates to values that broadcast
    against them.  Called on points it is an ordinary factor; the separable
    fill and the coupling route read ``fns`` to work one axis at a time.
    """

    def __init__(self, fns):
        self.fns = tuple(fns)

    def __call__(self, x):
        return reduce(np.multiply, [fa(x[..., a]) for a, fa in enumerate(self.fns)])


def _axis_term(term) -> bool:
    """Whether both factors of a symbol's term ``(g, h)`` are axis products."""
    return all(isinstance(u, _AxisProduct) for u in term)


def _conj_factor(g):
    """``conj`` of one factor of a symbol; an axis product stays one."""
    if isinstance(g, _AxisProduct):
        return _AxisProduct((lambda t, fa=fa: np.conj(fa(t))) for fa in g.fns)
    return lambda x: np.conj(g(x))


def _scaled_factor(c, g):
    """``c`` times one factor of a symbol; an axis product takes ``c`` on its axis 0."""
    if isinstance(g, _AxisProduct):
        return _AxisProduct(((lambda t, f0=g.fns[0]: c * f0(t)),) + g.fns[1:])
    return lambda x: c * g(x)


def _one(t) -> np.ndarray:
    return np.ones(np.shape(t))


def _ones(dim: int) -> _AxisProduct:
    """The factor 1 in ``dim`` axes."""
    return _AxisProduct([_one] * dim)


def _gaussian_axes(dim: int, center, width, name: str) -> _AxisProduct:
    """``exp(-|x - center|^2 / (2 width^2))`` in ``dim`` axes, one at a time; None centres at 0.

    ``name`` (``"x"`` or ``"p"``) labels the InputError for a centre that is not
    ``dim`` numbers, or a width that is not finite and > 0.
    """
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise DimensionMismatchError("gaussian symbol '%s_center' must be a list of %d numbers, "
                                     "got %r" % (name, dim, center.tolist()))
    require_finite(name + "_width", width, positive=True)
    return _AxisProduct((lambda t, c=c: np.exp(-np.square(t - c) / (2.0 * width**2)))
                        for c in center)


def _momentum_monomial(coeff, powers, cutoff: float) -> _AxisProduct:
    """``h(p) = coeff p^powers exp(-|p|^2 / (2 cutoff^2))``, the p-factor of a cut-off monomial.

    One factor ``t^a exp(-t^2 / (2 cutoff^2))`` per axis, ``coeff`` on axis 0.
    """
    def axis(a):
        def h(t):
            cut = np.exp(-np.square(t) / (2.0 * cutoff**2))
            return t**a * cut if a else cut

        return h

    return _scaled_factor(complex(coeff), _AxisProduct(axis(a) for a in powers))


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
    (``_AxisProduct``), which ``+``, ``c *`` and ``conj`` keep.
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
