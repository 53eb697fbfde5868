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
discrete transform route.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .fields import DEFAULT_QUADRATURE, Quadrature, VectorPotential, _circulation_sum
from .grid import PhaseSpaceGrid, SymbolEvaluator, SymbolGrid, _lattice_mesh

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
        """Closed-form evaluator with a Gaussian momentum cutoff of `scale`."""

        def fn(x, p):
            out = np.zeros(np.broadcast_shapes(x.shape[:-1], p.shape[:-1]), dtype=complex)
            for coeff, powers, x_coeff in self.terms:
                term = np.full(out.shape, coeff)
                for j, a in enumerate(powers):
                    if a:
                        term = term * p[..., j] ** a
                if x_coeff is not None:
                    term = term * x_coeff(x)
                out += term
            return out * np.exp(-(p**2).sum(axis=-1) / (2.0 * scale**2))

        return SymbolEvaluator(self.dim, fn, decay="poly-gaussian", name="poly-cutoff")


def _poly_values(sym: PolynomialSymbol, A: VectorPotential | None, grid, kind,
                 correction: bool) -> np.ndarray:
    """Evaluate sum c(x) prod_j (p_j - A_j(x))^a_j (+ degree-3 correction)."""
    caxis = grid.config_axis if kind == "standard" else grid.midpoint_axis
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


def _transform_route(f: SymbolEvaluator, A: VectorPotential | None, grid: PhaseSpaceGrid,
                     quad: Quadrature, kind: str) -> np.ndarray:
    """Discrete transform route for the covariant coupling.

    Per configuration point: transform the momentum dependence to the
    difference variable, multiply the segment-averaged potential phase
    ``exp(i Gamma^A([x - y/2, x + y/2]))``, transform back.
    """
    g = grid
    caxis = g.config_axis if kind == "standard" else g.midpoint_axis
    x = _lattice_mesh([caxis] * g.dim)
    ypts = g.config_points()
    if A is not None:
        # built first: its (C, Y, N) segment starts are freed before the (C, K) tables exist
        lam = np.exp(1j * _circulation_sum(A, x[:, None, :] - 0.5 * ypts, ypts[None], quad))
    kpts = g.momentum_points()
    fvals = f(x[:, None, :], kpts[None, :, :])                      # (C, K)
    E1 = g.momentum_weight * np.exp(1j * ypts @ kpts.T)             # (Y, K)
    fch = fvals @ E1.T                                              # (C, Y)
    if A is not None:
        fch = fch * lam
    E2 = g.config_weight * np.exp(-1j * ypts @ kpts.T)              # (Y, K)
    out = fch @ E2
    return out.reshape((len(caxis),) * g.dim + g.shape)


def covariant_coupling(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                       quad: Quadrature = DEFAULT_QUADRATURE,
                       kind: str = "standard") -> SymbolGrid:
    """Symbol whose non-magnetic quantization equals the covariant one.

    Polynomial symbols of degree <= 3 use the exact derivative closed
    forms; higher degrees fall back to the transform route with a warning
    (accurate only for symbols with genuine momentum decay).  Symbols that
    depend on x alone are fixed points, first-order momenta map to
    ``p_j - A_j(x)``, and degree <= 2 polynomials agree with the naive
    substitution for every potential.
    """
    if isinstance(f, PolynomialSymbol):
        if f.degree <= 3:
            return SymbolGrid(grid, kind, _poly_values(f, A, grid, kind, correction=True))
        warnings.warn("degree > 3 has no closed form; falling back to the transform route",
                      stacklevel=2)
        f = f.with_momentum_cutoff(scale=1e6)
    if not isinstance(f, SymbolEvaluator):
        raise InputError("unsupported symbol type %r" % type(f))
    return SymbolGrid(grid, kind, _transform_route(f, A, grid, quad, kind))


def minimal_coupling(f, A: VectorPotential | None, grid: PhaseSpaceGrid,
                     kind: str = "standard") -> SymbolGrid:
    """Naive substitution ``(x, p) -> f(x, p - A(x))`` on the lattice."""
    if isinstance(f, PolynomialSymbol):
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
    x = _lattice_mesh([grid.config_axis if kind == "standard" else grid.midpoint_axis] * grid.dim)
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
