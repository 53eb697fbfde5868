"""Magnetic fields, vector potentials and their line/surface integrals.

A magnetic field is a continuous map ``x -> B(x)`` into real antisymmetric
``N x N`` matrices; a vector potential is a continuous map ``x -> A(x)``
into ``R^N`` with ``dA = B`` (componentwise ``B_jk = d_j A_k - d_k A_j``).
This module evaluates the two line/surface integrals the calculus is built
from,

* the circulation of ``A`` along the segment ``[a, b]``,
* the flux of ``B`` through the oriented triangle ``<a, b, c>``,

and the unit-modulus phase factors attached to them.  Everything is a pure
function of closed-form evaluators; integrals use Gauss-Legendre rules so
polynomial inputs are integrated exactly.  A potential or field that declares
its polynomial degree is integrated with the fewest nodes that stay exact
(see ``_exact_rule``); undeclared data use the caller's full rule.

The field presets keep a closed-form potential, through which the
circulations of their transversal gauge are integrated
(``transversal_gauge``).  A polynomial field keeps its transversal gauge as a
PolynomialMap.  The Gaussian field keeps its centred gauge ``A_c``, so its
transversal gauge is the gauge data ``A_c + grad rho`` with
``rho(x) = -Gamma^{A_c}([0, x])`` at the rule of each call, each segment of
``A_c`` integrated by that rule on its two halves.  A field given only by its
evaluator integrates the ray integral of its transversal gauge at every node.

Triangle convention: the flux of ``B`` through ``<a, b, c>`` is

    int_{s,t>=0, s+t<=1} (b-a)^T B(a + s(b-a) + t(c-a)) (c-a) ds dt,

pinned so that for ``B = dA`` the flux equals the circulation of ``A``
around the closed path ``a -> b -> c -> a`` (checked by the test suite).
"""

from __future__ import annotations

import functools
import itertools
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InputError, NumericError, require_finite

__all__ = [
    "Quadrature",
    "PolynomialMap",
    "MagneticField",
    "VectorPotential",
    "ScalarPotential",
    "circulation",
    "flux_triangle",
    "translation_phase",
    "segment_phase",
    "flux_phase",
    "transversal_gauge",
    "add_gradient",
    "check_potential_matches_field",
    "constant_field",
    "linear_field_2d",
    "gaussian_field_2d",
    "zero_potential",
    "constant_potential",
    "linear_potential",
    "symmetric_gauge",
    "landau_gauge",
]


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule with `order` nodes, mapped to [0, 1].

    Exact for polynomial integrands of degree <= 2*order - 1.  The integrals
    of this module take `order` as a cap: for data with a declared polynomial
    degree they use the lowest order that is still exact (``_exact_rule``),
    and the full `order` only for data without one.  The nodes and weights
    are read-only, since the rules the integrals derive are shared.
    """

    order: int
    # derived from `order`, so rules compare and hash by their order alone
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = self.order  # an integer of any type but bool, such as NumPy's
        if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 1:
            raise InputError("quadrature order must be an integer >= 1, got %r" % (order,))
        object.__setattr__(self, "order", int(order))
        x, w = np.polynomial.legendre.leggauss(self.order)
        for name, values in (("nodes", 0.5 * (x + 1.0)), ("weights", 0.5 * w)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)


DEFAULT_QUADRATURE = Quadrature(16)


@functools.lru_cache(maxsize=None)
def _rule(order: int) -> Quadrature:
    """The one shared Gauss rule of each order the integrals derive."""
    return Quadrature(order)


def _half_panels(quad: Quadrature) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``quad`` applied to each half of [0, 1]: ``2 * quad.order`` nodes."""
    nodes = np.concatenate([0.5 * quad.nodes, 0.5 + 0.5 * quad.nodes])
    weights = np.concatenate([0.5 * quad.weights] * 2)
    return nodes, weights


def _exact_rule(quad: Quadrature, data) -> Quadrature:
    """The Gauss rule the integrals of ``data`` use: ``quad``, or fewer nodes where still exact.

    ``data`` is a VectorPotential or a MagneticField with declared degree d
    (``degree_hint``).  A circulation integrates ``d . A(a + s d)``, of
    degree d in s; a triangle flux (through the Duffy jacobian ``1 - xi``)
    and the ray integral of the transversal gauge (through its factor s)
    integrate degree d + 1.  m nodes are exact to degree 2m - 1, so the rule
    has ``deg // 2 + 1`` nodes, capped by ``quad.order``.  Undeclared degree
    (non-polynomial data) keeps ``quad``.
    """
    if data.degree_hint is None:
        return quad
    order = _exact_order(data)
    return quad if order >= quad.order else _rule(order)


def _circulation_panels(A) -> int:
    """Panels of the Gauss rule along each segment in the circulations of ``A``: 1 or 2.

    A closed-form segment integral of a field preset (``_segment``) applies
    the rule on each half of the segment (``_half_panels``); every other
    circulation applies it once.  A gauge transform (``add_gradient``, and
    the transversal gauge over a closed form) integrates its base potential.
    """
    return 1 if _gauge_base(A)._segment is None else 2


def _exact_order(data) -> int:
    """Fewest Gauss nodes exact for the integrals of ``data`` of declared degree (uncapped)."""
    return (data.degree_hint + isinstance(data, MagneticField)) // 2 + 1


def _check_declared_degree(data, integral, *vertices) -> None:
    """InputError unless the rule of a declared degree agrees with one more node.

    ``integral`` (``circulation`` or ``flux_triangle``) runs over the probe
    ``vertices`` with the degree withheld, so each rule is used as given.  A
    degree below the evaluator's true one makes the fewest-node rule inexact,
    which the extra node exposes.
    """
    if data.degree_hint is None:
        return
    plain = type(data)(data.dim, data.eval, _validate=False)
    order = _exact_order(data)
    ref = integral(plain, *vertices, _rule(order + 1))
    gap = np.abs(integral(plain, *vertices, _rule(order)) - ref)
    if np.any(gap > 1e-9 * np.maximum(1.0, np.abs(ref))):
        raise InputError(
            "declared degree %d of %s is too low: its %d-node Gauss rule misses probe "
            "integrals by up to %.3e" % (data.degree_hint, data.name, order, gap.max())
        )


# ---------------------------------------------------------------------------
# polynomial coefficient tables

class PolynomialMap:
    """Polynomial map R^N -> R^M given by coefficient tables.

    ``components[i]`` is a list of ``(coeff, powers)`` pairs, ``powers`` a
    length-N tuple of exponents.  Evaluation is vectorized over leading
    axes of the input points.  Derivatives are again polynomial maps, so
    gauge constructions on polynomial data stay exact.
    """

    def __init__(self, dim: int, components: list[list[tuple[float, tuple[int, ...]]]]):
        self.dim = int(dim)
        self.components = [
            [(float(c), tuple(int(p) for p in pw)) for c, pw in comp] for comp in components
        ]
        for comp in self.components:
            for _, pw in comp:
                if len(pw) != self.dim or any(p < 0 for p in pw):
                    raise InputError("bad monomial powers %r" % (pw,))

    @property
    def codim(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        degs = [sum(pw) for comp in self.components for _, pw in comp]
        return max(degs, default=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.codim,))
        for i, comp in enumerate(self.components):
            for c, pw in comp:
                term = np.full(x.shape[:-1], c)
                for j, p in enumerate(pw):
                    if p:
                        term = term * x[..., j] ** p
                out[..., i] += term
        return out

    def derivative(self, j: int) -> "PolynomialMap":
        """Componentwise partial derivative d/dx_j."""
        comps = []
        for comp in self.components:
            dcomp = []
            for c, pw in comp:
                if pw[j] > 0:
                    dpw = list(pw)
                    dpw[j] -= 1
                    dcomp.append((c * pw[j], tuple(dpw)))
            comps.append(dcomp)
        return PolynomialMap(self.dim, comps)

    def component(self, i: int) -> "PolynomialMap":
        return PolynomialMap(self.dim, [self.components[i]])


# ---------------------------------------------------------------------------
# field / potential / scalar wrappers

def _central_differences(fn, pts: np.ndarray, step: float) -> list:
    """Central-difference partials ``[d_0 fn, ..., d_{dim-1} fn]``; two evaluations each."""
    return [(fn(pts + e) - fn(pts - e)) / (2 * step) for e in step * np.eye(pts.shape[-1])]


def _checked_degree(degree_hint, poly: PolynomialMap | None = None) -> int | None:
    """The declared degree: ``degree_hint``, else ``poly.degree``.

    Raises InputError for a hint that is not an integer >= 0 or that contradicts ``poly``.
    """
    if degree_hint is None:
        return None if poly is None else poly.degree
    if (isinstance(degree_hint, bool) or not isinstance(degree_hint, numbers.Integral)
            or degree_hint < 0):
        raise InputError("degree_hint must be None or an integer >= 0, got %r" % (degree_hint,))
    if poly is not None and degree_hint != poly.degree:
        raise InputError("degree_hint %d disagrees with the polynomial's degree %d"
                         % (degree_hint, poly.degree))
    return int(degree_hint)


def _probe_points(dim: int, half_width: float = 6.0, count: int = 24) -> np.ndarray:
    rng = np.random.default_rng(1234 + dim)
    return rng.uniform(-half_width, half_width, size=(count, dim))


class MagneticField:
    """Antisymmetric-matrix-valued field ``x -> B(x)``.

    Parameters
    ----------
    dim : int
        Configuration-space dimension N.
    eval : callable
        Vectorized map from points of shape (..., N) to matrices of shape
        (..., N, N).
    degree_hint : int or None
        Polynomial degree of the field when known.  It is a contract: the
        flux and transversal-gauge integrals use the fewest Gauss nodes that
        are exact for this degree, so a hint below the true degree gives
        wrong phases.  Must be None or an integer >= 0, and its rule must
        agree with one more node on probe triangles (else InputError).

    Antisymmetry is validated on a probe set at construction; the closedness
    (Jacobi/cocycle) condition is checked by finite differences for N >= 3
    and only warns on violation.

    The presets also keep a closed-form potential of the field (see
    ``transversal_gauge``); a field given by its evaluator alone has none.
    """

    def __init__(self, dim, eval, degree_hint=None, name="field", _validate=True):
        self.dim = int(dim)
        self.eval = eval
        self.degree_hint = _checked_degree(degree_hint)
        self.name = name
        # a closed-form VectorPotential with dA = B: for a polynomial field its
        # transversal gauge as a PolynomialMap, else one about a centre
        self._potential = None
        if _validate:
            self._validate()

    def _validate(self):
        pts = _probe_points(self.dim)
        vals = np.asarray(self.eval(pts), dtype=float)
        if vals.shape != (len(pts), self.dim, self.dim):
            raise InputError(
                "field evaluator returned shape %r, expected %r"
                % (vals.shape, (len(pts), self.dim, self.dim))
            )
        if not np.all(np.isfinite(vals)):
            raise NumericError("field evaluator produced non-finite values on probe set")
        skew = np.abs(vals + np.swapaxes(vals, -1, -2)).max()
        if skew > 1e-12:
            raise InputError(
                "field is not antisymmetric on probe set (max deviation %.3e)" % skew
            )
        _check_declared_degree(self, flux_triangle, pts[0::3], pts[1::3], pts[2::3])
        if self.dim >= 3:
            self._check_closedness(pts[:8])

    def _check_closedness(self, pts, step=1e-4):
        # cyclic sum d_j B_kl + d_k B_lj + d_l B_jk, central differences
        dB = _central_differences(self.eval, pts, step)
        worst = 0.0
        for j, k, l in itertools.combinations(range(self.dim), 3):
            cyc = dB[j][:, k, l] + dB[k][:, l, j] + dB[l][:, j, k]
            worst = max(worst, np.abs(cyc).max())
        if worst > 100.0 * step**2 + 1e-8:
            warnings.warn(
                "field fails the closedness check on the probe set "
                "(max cyclic sum %.3e)" % worst,
                stacklevel=3,
            )

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))


class VectorPotential:
    """Vector-valued field ``x -> A(x)`` with ``dA`` equal to some B.

    `poly` optionally holds the exact PolynomialMap behind the evaluator,
    which unlocks analytic derivatives for the coupling closed forms.

    `degree_hint` is the polynomial degree of the potential when known
    (``poly.degree`` when only `poly` is given).  It is a contract: every
    circulation of the potential uses the fewest Gauss nodes that are exact
    for this degree, so a hint below the true degree gives wrong phases.  It
    must be None or an integer >= 0, agree with `poly`, and give a rule that
    agrees with one more node on probe segments, else InputError.

    A potential is a value: the phases ``exp(-i Gamma)`` of its lattice
    segments are memoized on it, one read-only table for the last grid and
    rule (``grid.segment_phase_matrix``), whose circulations are integrated
    and exponentiated in one pass and kept nowhere else, so what `eval`
    reads must not change after a table is built.  A gauge transform keeps no table: the
    routes read its base potential's (``_gauge_phases``).  The kernel routes
    build none for an affine potential, whose twist they read off `eval`
    (``grid._affine``).
    """

    def __init__(self, dim, eval, degree_hint=None, poly: PolynomialMap | None = None,
                 name="potential", _validate=True):
        self.dim = int(dim)
        self.eval = eval
        self.degree_hint = _checked_degree(degree_hint, poly)
        self.poly = poly
        self.name = name
        # gauge data (base, terms): circulations are those of the base, which has no
        # gauge data, plus rho(b) - rho(a) for the sum rho of the terms, each a
        # ScalarPotential of add_gradient or None, the transversal gauge over the
        # base (see _gauge_values)
        self._gauge = None
        # closed-form segment integral (start, displacement, quad) -> circulations,
        # applying quad on each half of the segment (_circulation_panels)
        self._segment = None
        # the segment phase memo: ((grid, rule), read-only exp(-i Gamma)) or None
        self._phase = None
        if _validate:
            self._validate()

    def _validate(self):
        pts = _probe_points(self.dim)
        vals = np.asarray(self.eval(pts), dtype=float)
        if vals.shape != (len(pts), self.dim):
            raise InputError(
                "potential evaluator returned shape %r, expected %r"
                % (vals.shape, (len(pts), self.dim))
            )
        if not np.all(np.isfinite(vals)):
            raise NumericError("potential evaluator produced non-finite values on probe set")
        _check_declared_degree(self, circulation, pts[0::2], pts[1::2])

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    def second_derivative(self, j: int, k: int, comp: int):
        """Evaluator of d_j d_k A_comp; exact for polynomial potentials."""
        if self.poly is not None:
            d2 = self.poly.component(comp).derivative(j).derivative(k)
            return lambda x: d2(x)[..., 0]

        def fd(x, step=1e-4):
            x = np.asarray(x, dtype=float)
            ej = np.zeros(self.dim); ej[j] = step
            ek = np.zeros(self.dim); ek[k] = step
            f = lambda p: self.eval(p)[..., comp]
            return (f(x + ej + ek) - f(x + ej - ek) - f(x - ej + ek) + f(x - ej - ek)) / (4 * step**2)

        return fd


class ScalarPotential:
    """Gauge function ``rho`` with an explicit gradient evaluator."""

    def __init__(self, dim, value, gradient, poly: PolynomialMap | None = None, name="rho"):
        self.dim = int(dim)
        self.value = value
        self.gradient = gradient
        self.poly = poly
        self.name = name

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))

    @classmethod
    def from_poly(cls, poly: PolynomialMap, name="rho"):
        grads = [poly.component(0).derivative(j) for j in range(poly.dim)]

        def gradient(x):
            x = np.asarray(x, dtype=float)
            return np.stack([g(x)[..., 0] for g in grads], axis=-1)

        return cls(poly.dim, lambda x: poly(x)[..., 0], gradient, poly=poly, name=name)


# ---------------------------------------------------------------------------
# integrals

def _square_norm(v) -> np.ndarray:
    """``|v|^2`` over the last axis, one product per component.

    numpy reduces a short trailing axis slowly, so no ``.sum(axis=-1)``.
    """
    return sum(v[..., a] * v[..., a] for a in range(np.shape(v)[-1]))


def _check_dims(dim, *points):
    for p in points:
        if np.shape(p)[-1] != dim:
            raise DimensionMismatchError(
                "point of dimension %d does not match dimension %d" % (np.shape(p)[-1], dim)
            )


def _gauge_base(A: VectorPotential) -> VectorPotential:
    """The potential whose tables ``A`` reads: the base of its gauge data, else ``A`` itself."""
    return A if A._gauge is None else A._gauge[0]


def _require_base(A: VectorPotential) -> None:
    """InputError unless ``A`` is its own base: only a base potential holds a lattice table.

    The routes read the base's table and dress their output with the gauge
    phases (``_gauge_phases``); a table of gauge data would be a second path
    to the same numbers, through the point engine and far slower.
    """
    if A._gauge is not None:
        raise InputError("a segment table is built for a base potential, not gauge data; "
                         "read the base's table and its gauge phases (fields._gauge_phases)")


def _gauge_values(A: VectorPotential, x, quad: Quadrature) -> np.ndarray:
    """The summed gauge function ``rho`` of ``A``'s gauge data ``(base, terms)`` at ``x``.

    A ScalarPotential term of ``add_gradient`` enters as floats, with a
    NumericError where it is not finite.  A term None is the transversal gauge
    over ``base`` (``transversal_gauge``): ``-Gamma^base([0, x])``, integrated
    at ``quad``, the rule of the circulation it enters, and never frozen at
    another.  The point engine reads it here, every lattice route through
    ``_gauge_phases``.
    """
    base, terms = A._gauge
    acc = np.zeros(np.shape(x)[:-1])
    for rho in terms:
        if rho is None:
            acc -= _circulation_sum(base, np.zeros(base.dim), x, quad)
            continue
        vals = np.asarray(rho(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericError("gauge function non-finite at segment endpoints")
        acc += vals
    return acc


def _gauge_phases(A: VectorPotential, x, quad: Quadrature, hbar: float = 1.0):
    """``(base, e^{i rho(x) / hbar})``: the one sampler of gauge data for the lattice routes.

    A gauge transform is a diagonal unitary: ``Gamma^A([x, y]) = Gamma^base([x, y])
    + rho(y) - rho(x)``, so ``exp(-i Gamma^A / hbar)`` is the base potential's
    phase times ``e^{i rho(x) / hbar}`` in the row and its conjugate at ``y``
    in the column.  A route takes the base's tables and dresses its output with
    the phases sampled here on the points it reads (``grid._dress``).
    A potential without gauge data is its own base, with phases None.
    """
    if A._gauge is None:
        return A, None
    phases = np.multiply(_gauge_values(A, x, quad), 1j / hbar)
    return _gauge_base(A), np.exp(phases, out=phases)


def _circulation_sum(A: VectorPotential, start, displacement, quad: Quadrature) -> np.ndarray:
    """Quadrature of ``d . A(a + s d)`` over ``s`` in [0, 1] (``a`` = start, ``d`` = displacement).

    The one circulation engine: every segment phase table goes through it.
    The per-node dot products are summed into an array of the broadcast
    leading shape of the two arguments; passing them unbroadcast (e.g.
    ``(X, 1, N)`` against ``(1, Y, N)``) keeps only that result and the
    per-node evaluation points in memory.  The rule is ``_exact_rule(quad, A)``.
    A gauge transform ``A + grad rho`` (``add_gradient``, and the transversal
    gauge over a closed form) is the point engine's case alone: it integrates
    the base potential and adds ``rho(a + d) - rho(a)`` (``_gauge_values``),
    while lattice tables are only ever built for the base.  A closed-form
    potential of a field preset integrates its segments itself, with the rule
    it documents.
    """
    _check_dims(A.dim, start, displacement)
    if A._gauge is not None:
        acc = _circulation_sum(_gauge_base(A), start, displacement, quad)
        acc += _gauge_values(A, start + displacement, quad) - _gauge_values(A, start, quad)
        return acc
    if A._segment is not None:
        acc = A._segment(start, displacement, quad)
    else:
        quad = _exact_rule(quad, A)
        acc = np.zeros(np.broadcast_shapes(np.shape(start)[:-1], np.shape(displacement)[:-1]))
        for s, w in zip(quad.nodes, quad.weights):
            vals = np.asarray(A.eval(start + s * displacement), dtype=float)
            acc += w * np.einsum("...i,...i->...", displacement, vals)
    if not np.all(np.isfinite(acc)):
        raise NumericError("potential non-finite along integration segment")
    return acc


def circulation(A: VectorPotential, a, b, quad: Quadrature = DEFAULT_QUADRATURE):
    """Circulation of ``A`` along the straight segment from ``a`` to ``b``.

    Returns ``(b - a) . int_0^1 A(a + s (b - a)) ds``; broadcasts over
    leading axes of ``a`` and ``b``.  A potential of declared degree d is
    integrated with ``min(quad.order, d // 2 + 1)`` nodes, exact to
    roundoff; one without a declared degree uses all of ``quad``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_dims(A.dim, a, b)
    return _circulation_sum(A, a, b - a, quad)


def flux_triangle(B: MagneticField, a, b, c, quad: Quadrature = DEFAULT_QUADRATURE):
    """Signed flux of ``B`` through the oriented triangle ``<a, b, c>``.

    Orientation follows the vertex order; swapping two vertices flips the
    sign.  The reference-simplex integral uses a collapsed (Duffy) tensor
    Gauss-Legendre rule.  A field of declared degree d is integrated with
    ``min(quad.order, (d + 1) // 2 + 1)`` nodes per axis, exact to roundoff
    (the integrand has degree d + 1); one without a declared degree uses all
    of ``quad``.  Broadcasts over leading axes of the vertices.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    _check_dims(B.dim, a, b, c)
    a, b, c = np.broadcast_arrays(a, b, c)
    u = b - a
    v = c - a
    quad = _exact_rule(quad, B)
    acc = np.zeros(a.shape[:-1])
    # simplex {s,t>=0, s+t<=1} as s = xi, t = eta (1 - xi), jacobian (1 - xi)
    for xi, wx in zip(quad.nodes, quad.weights):
        for eta, we in zip(quad.nodes, quad.weights):
            s = xi
            t = eta * (1.0 - xi)
            pts = a + s * u + t * v
            Bv = np.einsum("...jk,...k->...j", np.asarray(B.eval(pts), dtype=float), v)
            acc += wx * we * (1.0 - xi) * np.einsum("...j,...j->...", u, Bv)
    if not np.all(np.isfinite(acc)):
        raise NumericError("field non-finite on integration triangle")
    return acc


def translation_phase(A: VectorPotential, q, x, quad: Quadrature = DEFAULT_QUADRATURE):
    """Unit-modulus phase ``exp(-i Gamma^A([q, q + x]))`` of the magnetic translation."""
    q = np.asarray(q, dtype=float)
    return segment_phase(A, q, q + np.asarray(x, dtype=float), quad)


def segment_phase(A: VectorPotential, x, y, quad: Quadrature = DEFAULT_QUADRATURE):
    """Phase ``exp(-i Gamma^A([x, y]))`` along the segment from ``x`` to ``y``.

    Convenience form of :func:`translation_phase` indexed by the two
    endpoints; this is the entrywise factor carried by magnetic kernels.
    """
    return np.exp(-1j * circulation(A, x, y, quad))


def flux_phase(B: MagneticField, q, x, y, quad: Quadrature = DEFAULT_QUADRATURE):
    """Two-cocycle ``exp(-i Gamma^B(<q, q+x, q+x+y>))`` of the magnetic translations."""
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-1j * flux_triangle(B, q, q + x, q + x + y, quad))


def transversal_gauge(B: MagneticField, quad: Quadrature = DEFAULT_QUADRATURE) -> VectorPotential:
    """Canonical potential ``A_i(x) = -sum_j int_0^1 B_ij(s x) s x_j ds`` with dA = B.

    Its point values (``eval``) are this ray integral, with
    ``min(quad.order, (d + 1) // 2 + 1)`` nodes for a field of declared
    degree d (exact; the integrand has degree d + 1) and all of ``quad``
    otherwise.  The potential declares degree d + 1.

    Its circulations read the closed-form potential ``A_c`` the field
    presets keep:

    * A polynomial field's ``A_c`` is its transversal gauge as a
      PolynomialMap (a monomial ``c x^alpha`` in ``B_ij`` gives
      ``-c / (|alpha| + 2) x^alpha x_j`` in ``A_i``; a constant field gives
      the symmetric gauge).  The result carries it as ``poly``, which makes
      ``second_derivative`` analytic; circulations integrate ``eval`` with
      the exact rule.
    * Any other ``A_c`` makes the result the gauge data ``(A_c, rho)`` with
      ``rho(x) = -Gamma^{A_c}([0, x])``.  The transversal gauge circulates
      zero along rays from the origin, so ``A = A_c + grad rho`` exactly and
      ``Gamma^A([a, b]) = Gamma^{A_c}([a, b]) + Gamma^{A_c}([0, a]) -
      Gamma^{A_c}([0, b])``, the flux of B through ``<0, a, b>``.  All three
      are integrated at the rule of the call (``_gauge_values``), so an
      order-48 circulation stays a reference independent of the order-16
      ones.  The result keeps no lattice table: the routes read ``A_c``'s
      and dress it with ``e^{i rho}`` on the points they read
      (``_gauge_phases``), one circulation per point; each node of ``A_c``
      is one closed form instead of ``quad.order`` ray nodes of B.  See
      ``gaussian_field_2d`` for the rule and accuracy of its ``A_c``.

    A field given by its evaluator alone has no ``A_c``: its circulations
    integrate ``eval`` with ``quad``.
    """
    closed = B._potential
    quad = _exact_rule(quad, B)

    def eval(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape)
        for s, w in zip(quad.nodes, quad.weights):
            Bv = np.einsum("...ij,...j->...i", np.asarray(B.eval(s * x), dtype=float), x)
            acc -= w * s * Bv
        return acc

    hint = None if B.degree_hint is None else B.degree_hint + 1
    poly = None if closed is None else closed.poly
    A = VectorPotential(B.dim, eval, degree_hint=hint, poly=poly,
                        name="transversal(%s)" % B.name, _validate=False)
    if closed is not None and poly is None:
        A._gauge = (closed, (None,))
    return A


def add_gradient(A: VectorPotential, rho: ScalarPotential) -> VectorPotential:
    """Gauge-transformed potential ``A + grad(rho)``; generates the same field.

    Declares degree ``max(deg A, deg rho - 1)`` when ``A`` declares a degree
    and ``rho`` carries its polynomial, and no degree otherwise.  The result
    is gauge data over one base potential with one summed gauge function:
    ``(A, rho)``, or for an ``A`` that is gauge data ``(base, rho_A)`` itself,
    ``(base, rho_A + rho)``; so ``add_gradient(transversal_gauge(B), rho)``
    is ``(A_c, rho_t + rho)``.  Its circulations are those of the base plus
    the exact differences of the summed ``rho``.  It keeps no lattice table:
    the routes read the base's, dressed with ``e^{i rho}`` (``_gauge_phases``).
    """
    if rho.dim != A.dim:
        raise DimensionMismatchError("gauge function dimension does not match potential")

    def eval(x):
        return np.asarray(A.eval(x), dtype=float) + np.asarray(rho.gradient(x), dtype=float)

    hint = None
    if A.degree_hint is not None and rho.poly is not None:
        hint = max(A.degree_hint, rho.poly.degree - 1)
    A2 = VectorPotential(A.dim, eval, degree_hint=hint, name="%s+grad(%s)" % (A.name, rho.name),
                         _validate=False)
    A2._gauge = (A, (rho,)) if A._gauge is None else (A._gauge[0], A._gauge[1] + (rho,))
    return A2


def check_potential_matches_field(A: VectorPotential, B: MagneticField,
                                  points=None, step=1e-5) -> float:
    """Max deviation of the finite-difference ``dA`` from ``B`` on probe points."""
    if A.dim != B.dim:
        raise DimensionMismatchError("potential and field dimensions differ")
    pts = _probe_points(A.dim, half_width=3.0, count=16) if points is None else np.asarray(points)
    worst = 0.0
    Bv = np.asarray(B.eval(pts), dtype=float)
    dA = _central_differences(A.eval, pts, step)
    for j in range(A.dim):
        for k in range(A.dim):
            worst = max(worst, np.abs(dA[j][:, k] - dA[k][:, j] - Bv[:, j, k]).max())
    return worst


# ---------------------------------------------------------------------------
# preset catalogue

def _transversal_polynomial(dim: int, entries) -> VectorPotential:
    """The transversal gauge of a polynomial field, exactly.

    ``entries`` maps ``(i, j)`` to the ``(coeff, powers)`` terms of ``B_ij``;
    ``c x^alpha`` in ``B_ij`` adds ``-c / (|alpha| + 2) x^alpha x_j`` to
    ``A_i`` (the ray integral of ``transversal_gauge`` of that monomial).
    Zero coefficients are kept, so the degree is the field's plus one.
    """
    comps = [[] for _ in range(dim)]
    for (i, j), terms in entries.items():
        for c, pw in terms:
            raised = list(pw)
            raised[j] += 1
            comps[i].append((-c / (sum(pw) + 2), tuple(raised)))
    poly = PolynomialMap(dim, comps)
    return VectorPotential(dim, poly, poly=poly, name="transversal", _validate=False)


def constant_field(dim: int, matrix) -> MagneticField:
    """Constant field; it keeps its transversal gauge ``-B x / 2``, the symmetric gauge."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dim, dim):
        raise InputError("constant field needs a %d x %d matrix" % (dim, dim))

    def eval(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(m, x.shape[:-1] + m.shape).copy()

    B = MagneticField(dim, eval, degree_hint=0, name="constant")
    B._potential = _transversal_polynomial(
        dim, {(i, j): [(m[i, j], (0,) * dim)] for i in range(dim) for j in range(dim)})
    return B


def constant_field_2d(b: float) -> MagneticField:
    require_finite("b", b)
    return constant_field(2, [[0.0, b], [-b, 0.0]])


def _planar_field(b12, degree_hint, name: str, terms=None) -> MagneticField:
    """Planar field from its one independent entry ``B_12(x)``: the antisymmetric 2 x 2 table.

    ``terms``, the ``(coeff, powers)`` monomials of a polynomial ``B_12``, give
    the field its transversal gauge (``_transversal_polynomial``).
    """
    def eval(x):
        x = np.asarray(x, dtype=float)
        b = b12(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = b
        out[..., 1, 0] = -b
        return out

    B = MagneticField(2, eval, degree_hint=degree_hint, name=name)
    if terms is not None:
        B._potential = _transversal_polynomial(
            2, {(0, 1): terms, (1, 0): [(-c, pw) for c, pw in terms]})
    return B


def linear_field_2d(b0: float, gradient) -> MagneticField:
    """Planar field with ``B_12(x) = b0 + g . x``."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != (2,):
        raise InputError("linear planar field needs a 2-vector gradient")
    terms = [(b0, (0, 0)), (g[0], (1, 0)), (g[1], (0, 1))]
    return _planar_field(lambda x: b0 + x @ g, 1, "linear", terms)


def polynomial_field_2d(terms) -> MagneticField:
    """Planar field with polynomial ``B_12``; `terms` are (coeff, powers) pairs."""
    poly = PolynomialMap(2, [list(terms)])
    return _planar_field(lambda x: poly(x)[..., 0], poly.degree, "polynomial",
                         poly.components[0])


def _gaussian_gauge(amplitude: float, width: float, c: np.ndarray) -> VectorPotential:
    """Centred gauge ``A_c(x) = G(x - c) (-(x - c)_2, (x - c)_1)`` of the Gaussian field.

    ``G(y) = amplitude (1 - e^{-u}) / (2u)`` with ``u = |y|^2 / (2 width^2)``,
    through ``expm1``, and ``G = amplitude / 2`` at ``u = 0``; then
    ``d_1 A_2 - d_2 A_1 = 2 d(uG)/du = amplitude e^{-u}``.  Along a segment
    ``a + s d`` the tangential part is ``d . A_c = ((a - c) ^ d) G``, with
    ``y ^ d = y_1 d_2 - y_2 d_1``, so each node is one ``expm1`` of ``u(s)``,
    a quadratic in ``s`` evaluated by Horner's rule from three coefficients
    per segment.  A circulation applies ``quad`` on each half of the segment
    (``_half_panels``, ``2 * quad.order`` nodes); see ``gaussian_field_2d``.
    """
    scale = 1.0 / (np.sqrt(2.0) * width)  # u = |scale * y|^2
    tiny = np.finfo(float).tiny  # expm1(-tiny) / tiny is -1, the limit at u = 0

    def profile(u):
        out = np.full(np.shape(u), 0.5 * amplitude)
        return np.divide(-amplitude * np.expm1(-u), 2.0 * u, out=out, where=u != 0.0)

    def eval(x):
        y = np.asarray(x, dtype=float) - c
        g = profile(_square_norm(scale * y))
        return g[..., None] * np.stack([-y[..., 1], y[..., 0]], axis=-1)

    def segment(start, displacement, quad):
        y, d = start - c, displacement
        cross = y[..., 0] * d[..., 1] - y[..., 1] * d[..., 0]
        (y1, y2), (d1, d2) = scale * np.moveaxis(y, -1, 0), scale * np.moveaxis(d, -1, 0)
        # u(s) = a + s (b + s g) at each node, by Horner's rule into two reused buffers;
        # the node sums expm1(-u) / u, whose limit at u = 0 the floor `tiny` gives exactly
        a, b, g = y1 * y1 + y2 * y2, 2.0 * (y1 * d1 + y2 * d2), d1 * d1 + d2 * d2
        u, term = np.empty(cross.shape), np.empty(cross.shape)
        acc = np.zeros(cross.shape)
        for s, w in zip(*_half_panels(quad)):
            np.multiply(g, s, out=u)
            u += b
            u *= s
            u += a
            np.maximum(u, tiny, out=u)
            np.negative(u, out=term)
            np.expm1(term, out=term)
            term /= u
            term *= w
            acc += term
        acc *= -0.5 * amplitude
        return cross * acc

    A = VectorPotential(2, eval, name="centred(gaussian)", _validate=False)
    A._segment = segment
    return A


def gaussian_field_2d(amplitude: float, width: float, center=(0.0, 0.0)) -> MagneticField:
    """Planar field with ``B_12(x) = amplitude exp(-|x - center|^2 / (2 width^2))``.

    The field keeps its centred gauge ``A_c(x) = G(x - c) (-(x - c)_2,
    (x - c)_1)`` (``_gaussian_gauge``), so the tables of its transversal
    gauge integrate a closed form (``transversal_gauge``).  Its circulations
    use two panels: the rule of the call on each half of the segment.  At
    order 16, on the lattice pairs of an n = 20, L = 8 box, one 16-node panel
    misses an order-48 ``flux_triangle`` by up to 4.0e-6 (width 1.6), more
    than the 3.7e-6 of the ray route it replaces; two panels miss by at most
    1.7e-13 over widths 1.6 to 2.4 and centres in [-1, 1]^2.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise InputError("gaussian field center must be 2 numbers, got %r" % (c.tolist(),))
    require_finite("amplitude", amplitude)
    require_finite("width", width, positive=True)
    B = _planar_field(
        lambda x: amplitude * np.exp(-0.5 * _square_norm(x - c) / width**2), None,
        "gaussian")
    B._potential = _gaussian_gauge(amplitude, width, c)
    return B


def zero_field(dim: int) -> MagneticField:
    return constant_field(dim, np.zeros((dim, dim)))


def zero_potential(dim: int) -> VectorPotential:
    poly = PolynomialMap(dim, [[] for _ in range(dim)])
    return VectorPotential(dim, poly, poly=poly, name="zero")


def constant_potential(values) -> VectorPotential:
    v = np.asarray(values, dtype=float)
    dim = v.shape[0]
    comps = [[(float(v[i]), (0,) * dim)] for i in range(dim)]
    poly = PolynomialMap(dim, comps)
    return VectorPotential(dim, poly, poly=poly, name="constant")


def linear_potential(matrix) -> VectorPotential:
    """Potential ``A(x) = M x``; generates the constant field ``B = M^T - M``."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("linear potential needs a square matrix, got shape %r" % (m.shape,))
    dim = m.shape[0]
    comps = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if m[i, j] != 0.0:
                pw = [0] * dim
                pw[j] = 1
                row.append((float(m[i, j]), tuple(pw)))
        comps.append(row)
    poly = PolynomialMap(dim, comps)
    return VectorPotential(dim, poly, poly=poly, name="linear")


def polynomial_potential(dim: int, components) -> VectorPotential:
    poly = PolynomialMap(dim, [list(c) for c in components])
    return VectorPotential(dim, poly, poly=poly, name="polynomial")


def symmetric_gauge(b: float) -> VectorPotential:
    """Planar potential ``(-b x2 / 2, b x1 / 2)`` for the constant field b."""
    require_finite("b", b)
    A = linear_potential([[0.0, -b / 2.0], [b / 2.0, 0.0]])
    A.name = "symmetric"
    return A


def landau_gauge(b: float) -> VectorPotential:
    """Planar potential ``(0, b x1)`` for the constant field b."""
    require_finite("b", b)
    A = linear_potential([[0.0, 0.0], [b, 0.0]])
    A.name = "landau"
    return A
