"""Correct versus naive momentum coupling at the symbol level.

Two maps take a phase-space symbol to its "minimally coupled" version for
a potential A:

* ``minimal_coupling`` substitutes ``p -> p - A(x)`` pointwise (the naive
  prescription, which quantizes gauge-covariantly only for linear A);
* ``covariant_coupling`` is the symbol transform under which non-magnetic
  quantization reproduces the gauge-covariant one.  Its phase multiplier
  averages the potential along straight segments instead of freezing it at
  the segment midpoint.

For polynomials in p of degree <= 2 the two maps agree identically; at
degree 3 they differ by a momentum-independent field

    (1/12) (d_k d_j A_l + d_l d_j A_k + d_l d_k A_j)(x)

per monomial ``p_j p_k p_l``.  The degree <= 3 closed forms are evaluated
exactly from the derivative calculus; general symbols go through the
discrete transform route (``_transform_route``).

The route multiplies the difference-variable transform of the symbol by
``exp(i Gamma^A([x - y/2, x + y/2]))``.  The segment of ``-y`` is that of
``y`` reversed, so its circulation is the negative and its phase the
conjugate: of the ``n^N`` differences per configuration point, only
``((n - 1)^N + 1) / 2 + n^N - (n - 1)^N`` are integrated, one of each pair
inside the box and every difference with a lattice index 0, whose mirror
lies outside it (``_midpoint_phases``).  A potential of declared degree
<= 1 (a constant field's gauge), or any potential under a one-node rule, is
read once per configuration point: its circulation is ``y . A(x)``, so the
phases are plane waves in each axis of ``y``, ``N n`` exponentials per
point.  A factored symbol ``sum_r g_r(x) h_r(p)`` is transformed once per
factor, ``H_r = F^{-1} h_r``, and a row block's difference table is the
product of its ``g_r(x)`` with the ``H_r``; a symbol given by ``fn`` is
evaluated and transformed per block.  Where every ``h_r`` is a product over
the axes (``symbols._AxisProduct``, as for every preset) and the phases are
plane waves without gauge data (or there is no potential), the whole route
factorizes per axis (``_axis_rows``): row ``x`` is ``sum_r g_r(x) (x)_a
T_ra(x)`` with ``T_ra = (e^{i y_a A_a(x)} H_ra) F^T``, one ``(rows, n)``
table per axis and term, and no ``n^N`` difference table is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InputError, NumericError, require_finite
from .fields import (DEFAULT_QUADRATURE, Quadrature, VectorPotential, _circulation_sum,
                     _exact_rule, _gauge_base, _gauge_phases)
from .grid import PhaseSpaceGrid, _apply_axes, _row_blocks
from .symbols import (SymbolEvaluator, SymbolGrid, _AxisProduct, _config_axis, _lattice_mesh,
                      _momentum_monomial, _ones)

__all__ = [
    "PolynomialSymbol",
    "covariant_coupling",
    "minimal_coupling",
    "minimal_coupling_evaluator",
    "coupling_discrepancy",
]


@dataclass(frozen=True)
class PolynomialSymbol:
    """Polynomial in momentum with optional x-dependent coefficients.

    ``terms`` is a list of ``(coeff, powers, x_coeff)`` with ``powers`` a
    per-axis exponent tuple and ``x_coeff`` a vectorized map of points or
    None for a constant coefficient.
    """

    dim: int
    terms: tuple = field(default=())

    def __post_init__(self):
        norm = []
        for term in self.terms:
            coeff, powers = term[0], tuple(int(a) for a in term[1])
            x_coeff = term[2] if len(term) > 2 else None
            if len(powers) != self.dim or any(a < 0 for a in powers):
                raise InputError("bad momentum powers %r" % (powers,))
            norm.append((complex(coeff), powers, x_coeff))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def degree(self) -> int:
        return max((sum(p) for _, p, _ in self.terms), default=0)

    def with_momentum_cutoff(self, scale: float) -> SymbolEvaluator:
        """Separable evaluator with a Gaussian momentum cutoff of `scale`, finite and > 0."""
        require_finite("cutoff", scale, positive=True)
        # one (x-factor, p-factor) pair per monomial, the cutoff in the p-factor
        factors = [(_ones(self.dim) if x_coeff is None else x_coeff,
                    _momentum_monomial(coeff, powers, scale))
                   for coeff, powers, x_coeff in self.terms]
        return SymbolEvaluator(self.dim, decay="poly-gaussian", name="poly-cutoff",
                               factors=factors)


def _poly_values(sym: PolynomialSymbol, A: VectorPotential | None, grid, kind,
                 correction: bool) -> np.ndarray:
    """Evaluate sum c(x) prod_j (p_j - A_j(x))^a_j (+ degree-3 correction)."""
    caxis = _config_axis(grid, kind)
    x = _lattice_mesh([caxis] * grid.dim)
    kpts = grid.momentum_points()
    Avals = np.zeros((len(x), grid.dim)) if A is None else np.asarray(A.eval(x), dtype=float)
    out = np.zeros((len(x), grid.size), dtype=complex)
    for coeff, powers, x_coeff in sym.terms:
        shifted = np.ones((len(x), grid.size), dtype=complex)
        for j, a in enumerate(powers):
            if a:
                shifted = shifted * (kpts[None, :, j] - Avals[:, j, None]) ** a
        term = coeff * shifted
        if correction and sum(powers) == 3 and A is not None:
            idx = [j for j, a in enumerate(powers) for _ in range(a)]
            corr = _third_order_correction(A, idx, x)
            term = term + coeff * corr[:, None]
        if x_coeff is not None:
            term = term * np.asarray(x_coeff(x), dtype=complex)[:, None]
        out += term
    return out.reshape((len(caxis),) * grid.dim + grid.shape)


def _third_order_correction(A: VectorPotential, idx, x) -> np.ndarray:
    """(1/12) (d_k d_j A_l + d_l d_j A_k + d_l d_k A_j)(x) for indices (j, k, l)."""
    j, k, l = idx
    total = (np.asarray(A.second_derivative(j, k, l)(x), dtype=float)
             + np.asarray(A.second_derivative(j, l, k)(x), dtype=float)
             + np.asarray(A.second_derivative(k, l, j)(x), dtype=float))
    return total / 12.0


def _midpoint_phases(A: VectorPotential, x: np.ndarray, y: np.ndarray, quad: Quadrature,
                     out: np.ndarray) -> np.ndarray:
    """Fill ``out[r, m]`` with ``exp(i Gamma^A([x_r - y_m/2, x_r + y_m/2]))``.

    ``x`` has shape ``(rows, 1, ..., 1, N)`` and ``y`` is the difference
    lattice of shape ``(n,) * N + (N,)``.  The segment of ``-y`` is the one
    of ``y`` reversed, so its phase is the conjugate.  The mirror of lattice
    index ``m >= 1`` is ``n - m``; an index 0 has none.  Axis by axis, with
    the earlier axes at the centre ``c = n/2``: the slabs below ``c`` are
    integrated (and ``c`` itself on the last axis), so are the entries of the
    slabs above ``c`` with a later axis at index 0, and the rest of those
    slabs are the conjugates of their mirrors below ``c``.  That integrates
    ``((n - 1)^N + 1) / 2 + n^N - (n - 1)^N`` of the ``n^N`` segments.

    A potential without a closed-form segment whose rule has one node (declared
    degree <= 1, or a one-node ``quad``) is evaluated by that rule at the
    midpoint ``x`` alone: ``Gamma = y . A(x)``, a plane wave in each axis of
    ``y``.  Then ``A`` is read once per row and ``out`` is the broadcast
    product of ``N`` tables ``e^{i y_a A_a(x)}`` of shape ``(rows, n)``.
    """
    n, N = y.shape[0], y.shape[-1]
    if _plane_wave_phases(A, quad):
        for a, wave in enumerate(_plane_waves(A, x.reshape(-1, N), y[(slice(None),) + (0,) * N])):
            wave = wave.reshape((len(wave),) + (1,) * a + (n,) + (1,) * (N - 1 - a))
            if a:
                out *= wave
            else:
                out[...] = wave
        return out
    c, every, inner = n // 2, slice(None), slice(1, None)

    def integrate(piece):
        yp, view = y[piece], out[(every,) + piece]
        np.multiply(_circulation_sum(A, x - 0.5 * yp, yp, quad), 1j, out=view)
        np.exp(view, out=view)

    for d in range(N):
        head, tail = (slice(c, c + 1),) * d, N - 1 - d
        integrate(head + (slice(0, c + (tail == 0)),) + (every,) * tail)
        for k in range(tail):  # above the centre with a later axis at index 0
            integrate(head + (slice(c + 1, None),) + (inner,) * k + (slice(0, 1),)
                      + (every,) * (tail - 1 - k))
        above = head + (slice(c + 1, None),) + (inner,) * tail
        mirror = head + (slice(c - 1, 0, -1),) + (slice(None, 0, -1),) * tail
        np.conjugate(out[(every,) + mirror], out=out[(every,) + above])
    return out


def _plane_wave_phases(A: VectorPotential, quad: Quadrature) -> bool:
    """Whether the route's phases of ``A`` are plane waves: no closed-form segment, one node."""
    return A._segment is None and _exact_rule(quad, A).order == 1


def _plane_waves(A: VectorPotential, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Per axis ``a``, the table ``e^{i y_a A_a(x)}`` of shape ``(len(x), len(y))``.

    ``A`` is read once at each of the points ``x``, shape ``(rows, N)``; ``y``
    is the difference coordinate of one axis.  A non-finite value of ``A``
    raises NumericError.
    """
    ax = np.asarray(A.eval(x), dtype=float)
    if not np.all(np.isfinite(ax)):
        raise NumericError("potential non-finite along integration segment")
    return [np.exp(1j * np.multiply.outer(ax[:, a], y)) for a in range(A.dim)]


def _half_step_gauge(A: VectorPotential, grid: PhaseSpaceGrid, quad: Quadrature):
    """``(base, gauge)``: ``A``'s base potential and ``e^{i rho}`` at the route's segment ends.

    The ends ``x -+ y/2`` lie on the lattice of spacing h/2 whose index ``k``
    per axis, 0 to 3n - 2, is the coordinate ``(k - 3n/2) h/2``: ``x + y/2``
    in the box of indices up to 3n - 3, ``x - y/2`` in the box from 1 on.
    The gauge function is sampled once at each point of their union, and the
    flat table over all ``(3n - 1)^N`` indices holds 1 at the rest.  ``gauge``
    is None without gauge data.
    """
    if _gauge_base(A) is A:  # no gauge data: no half-step mesh either
        return A, None
    m = 3 * grid.n - 1
    idx = _lattice_mesh([np.arange(m)] * grid.dim)
    ends = np.all(idx <= m - 2, axis=-1) | np.all(idx >= 1, axis=-1)
    base, phases = _gauge_phases(A, (idx[ends] - 3 * grid.n // 2) * (grid.h / 2), quad)
    gauge = np.ones(len(idx), dtype=complex)
    gauge[ends] = phases
    return base, gauge


def _transform_route(f: SymbolEvaluator, A: VectorPotential | None, grid: PhaseSpaceGrid,
                     quad: Quadrature, kind: str) -> np.ndarray:
    """Discrete transform route for the covariant coupling.

    Per configuration point: transform the momentum dependence to the
    difference variable, multiply the segment-averaged potential phase
    ``exp(i Gamma^A([x - y/2, x + y/2]))``, transform back.  A symbol with
    ``factors`` ``sum_r g_r(x) h_r(p)`` transforms each ``h_r`` once, so a
    block's difference table is one product of its ``g_r(x)`` with those
    ``R`` tables; one given by ``fn`` is evaluated and transformed per block.
    The phases integrate one segment of each pair ``(y, -y)`` and conjugate
    it for the other, or are plane waves ``e^{i y . A(x)}`` where the rule has
    one node (``_midpoint_phases``).  Plane waves without gauge data, or no
    potential, with every ``h_r`` an axis product, take ``_axis_rows``
    instead, one axis at a time.  Gauge data integrate their
    base potential, and a block's phases are dressed with ``e^{i rho(x + y/2)}
    e^{-i rho(x - y/2)}``, gathered from one sample of ``rho`` per segment end
    (``_half_step_gauge``).  The points go through in ``_row_blocks``, each
    block start to finish into the one output table, so no other table of
    the output's size is made.
    """
    g = grid
    caxis = _config_axis(g, kind)
    x = _lattice_mesh([caxis] * g.dim)
    kpts = g.momentum_points()
    axes = range(1, g.dim + 1)
    out = np.empty((len(x),) + g.shape, dtype=complex)
    gauge = None
    if A is not None:
        A, gauge = _half_step_gauge(A, g, quad)
    if f.factors is not None:
        gx = np.empty((len(x), len(f.factors)), dtype=complex)
        for r, (gr, _) in enumerate(f.factors):
            gx[:, r] = gr(x)
        if (gauge is None and (A is None or _plane_wave_phases(A, quad))
                and all(isinstance(hr, _AxisProduct) for _, hr in f.factors)):
            return _axis_rows(f, A, g, x, gx, out).reshape((len(caxis),) * g.dim + g.shape)
        hy = np.empty((len(f.factors), g.size), dtype=complex)
        for r, (_, hr) in enumerate(f.factors):
            hy[r] = hr(kpts)
        hy = _apply_axes(hy.reshape((-1,) + g.shape), g._inv_matrix, axes).reshape(hy.shape)
    blocks = _row_blocks(len(x))
    if A is not None:
        y = g.config_points().reshape(g.shape + (g.dim,))
        lam = np.empty((max(c1 - c0 for c0, c1 in blocks),) + g.shape, dtype=complex)
    if gauge is not None:
        # flat half-step indices: x + y/2 at ends + diffs, x - y/2 at ends - diffs + centre
        table = (3 * g.n - 1,) * g.dim
        steps = np.rint(caxis / (g.h / 2)).astype(int) + g.n  # x per axis, in half steps
        ends = np.ravel_multi_index(tuple(_lattice_mesh([steps] * g.dim).T), table)[:, None]
        diffs = np.ravel_multi_index(tuple(_lattice_mesh([np.arange(g.n)] * g.dim).T), table)
        centre = np.ravel_multi_index((g.n,) * g.dim, table)
    for c0, c1 in blocks:
        if f.factors is not None:
            fch = (gx[c0:c1] @ hy).reshape(out[c0:c1].shape)
        else:
            fch = _apply_axes(f(x[c0:c1, None], kpts[None]).reshape(out[c0:c1].shape),
                              g._inv_matrix, axes)  # k -> y
        if A is not None:
            xb = x[c0:c1].reshape((c1 - c0,) + (1,) * g.dim + (g.dim,))
            phase = _midpoint_phases(A, xb, y, quad, lam[:c1 - c0])
            if gauge is not None:
                phase *= gauge[ends[c0:c1] + diffs].reshape(phase.shape)
                phase *= np.conj(gauge[ends[c0:c1] - diffs + centre]).reshape(phase.shape)
            fch *= phase
        out[c0:c1] = _apply_axes(fch, g._fwd_matrix, axes)
    return out.reshape((len(caxis),) * g.dim + g.shape)


def _axis_rows(f: SymbolEvaluator, A: VectorPotential | None, g: PhaseSpaceGrid, x: np.ndarray,
               gx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The transform route of axis-product ``h_r`` under plane-wave phases, one axis at a time.

    With ``h_r = prod_a h_ra`` and the phases ``prod_a e^{i y_a A_a(x)}``
    (1 for ``A`` None), row ``x`` of the output is ``sum_r g_r(x) (x)_a
    T_ra(x)`` with ``T_ra = (e^{i y_a A_a(x)} H_ra) @ F^T``, where ``H_ra`` is
    the per-axis inverse transform of ``h_ra``.  Per ``_row_blocks`` block,
    one ``(rows, R, n)`` table per axis, the waves shared by the ``R`` terms;
    the axes before the last are multiplied out with ``g_r(x)``, and the last
    is contracted over ``r`` by one batched matmul into ``out``, of shape
    ``(len(x),) + g.shape``.
    """
    n, N, R = g.n, g.dim, len(f.factors)
    hats = [np.stack([g._inv_matrix @ np.broadcast_to(hr.fns[a](g.momentum_axis), (n,))
                      for _, hr in f.factors]) for a in range(N)]  # per axis, (R, n)
    rows = out.reshape(len(x), -1, n)
    for c0, c1 in _row_blocks(len(x)):
        waves = [None] * N if A is None else _plane_waves(A, x[c0:c1], g.config_axis)
        lead = gx[c0:c1, :, None]  # (rows, R, product of the axes so far)
        for a, (hat, w) in enumerate(zip(hats, waves)):
            table = (hat if w is None else (w[:, None, :] * hat).reshape(-1, n)) @ g._fwd_matrix.T
            table = table.reshape(-1, R, n)
            if a < N - 1:
                lead = (lead[..., None] * table[:, :, None, :]).reshape(c1 - c0, R, -1)
        np.matmul(lead.transpose(0, 2, 1), table, out=rows[c0:c1])
    return out


def covariant_coupling(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                       quad: Quadrature = DEFAULT_QUADRATURE,
                       kind: str = "standard") -> SymbolGrid:
    """Symbol whose non-magnetic quantization equals the covariant one.

    Polynomial symbols of degree <= 3 use the exact derivative closed
    forms; higher degrees fall back to the transform route with a warning
    (accurate only for symbols with genuine momentum decay).  Symbols that
    depend on x alone are fixed points, first-order momenta map to
    ``p_j - A_j(x)``, and degree <= 2 polynomials agree with the naive
    substitution for every potential.  A symbol or potential of another
    dimension than ``grid`` raises DimensionMismatchError.
    """
    if not isinstance(f, (PolynomialSymbol, SymbolEvaluator)):
        raise InputError("unsupported symbol type %r" % type(f))
    if f.dim != grid.dim:
        raise DimensionMismatchError("symbol dimension does not match grid")
    if A is not None and A.dim != grid.dim:
        raise DimensionMismatchError("potential dimension does not match grid")
    if isinstance(f, PolynomialSymbol):
        if f.degree <= 3:
            return SymbolGrid(grid, kind, _poly_values(f, A, grid, kind, correction=True))
        warnings.warn("degree > 3 has no closed form; falling back to the transform route",
                      stacklevel=2)
        f = f.with_momentum_cutoff(scale=1e6)
    return SymbolGrid(grid, kind, _transform_route(f, A, grid, quad, kind))


def minimal_coupling(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                     kind: str = "standard") -> SymbolGrid:
    """Naive substitution ``(x, p) -> f(x, p - A(x))`` on the lattice."""
    if A is not None and A.dim != grid.dim:
        raise DimensionMismatchError("potential dimension does not match grid")
    if isinstance(f, PolynomialSymbol):
        if f.dim != grid.dim:  # an evaluator's dimension is checked by its sample
            raise DimensionMismatchError("symbol dimension does not match grid")
        return SymbolGrid(grid, kind, _poly_values(f, A, grid, kind, correction=False))
    if not isinstance(f, SymbolEvaluator):
        raise InputError("unsupported symbol type %r" % type(f))
    return (f if A is None else minimal_coupling_evaluator(f, A)).sample(grid, kind)


def minimal_coupling_evaluator(f: SymbolEvaluator, A: VectorPotential) -> SymbolEvaluator:
    """Closed-form naive substitution, composable with the quantizer."""

    def fn(x, p):
        return f.fn(x, p - np.asarray(A.eval(x), dtype=float))

    return SymbolEvaluator(f.dim, fn, decay=f.decay, name="minimal(%s)" % f.name)


def coupling_discrepancy(f: PolynomialSymbol, A: VectorPotential, grid: PhaseSpaceGrid,
                         kind: str = "standard", quad: Quadrature = DEFAULT_QUADRATURE):
    """Difference field between the covariant and naive couplings.

    Returns ``(difference, report)``: the difference symbol table and a
    report with its maximum modulus and the closed-form constant-in-p
    correction per degree-3 monomial.  Degrees above 3 are not supported
    in closed form.
    """
    if not isinstance(f, PolynomialSymbol):
        raise InputError("discrepancy closed form needs a polynomial symbol")
    if f.degree > 3:
        raise InputError("degree %d > 3 has no closed-form discrepancy" % f.degree)
    tci = covariant_coupling(f, A, grid, quad, kind)
    mci = minimal_coupling(f, A, grid, kind)
    diff = tci - mci
    x = _lattice_mesh([_config_axis(grid, kind)] * grid.dim)
    per_term = []
    for coeff, powers, x_coeff in f.terms:
        if sum(powers) == 3:
            idx = [j for j, a in enumerate(powers) for _ in range(a)]
            corr = _third_order_correction(A, idx, x)
            if x_coeff is not None:
                corr = corr * np.asarray(x_coeff(x))
            per_term.append({"powers": powers, "max_abs_correction":
                             float(np.abs(coeff * corr).max())})
    report = {
        "max_abs_difference": float(np.abs(diff.values).max()),
        "degree": f.degree,
        "third_order_terms": per_term,
    }
    return diff, report
