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
polynomial inputs are integrated exactly.

Triangle convention: the flux of ``B`` through ``<a, b, c>`` is

    int_{s,t>=0, s+t<=1} (b-a)^T B(a + s(b-a) + t(c-a)) (c-a) ds dt,

pinned so that for ``B = dA`` the flux equals the circulation of ``A``
around the closed path ``a -> b -> c -> a`` (checked by the test suite).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InputError, NumericError

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
    "field_from_config",
    "potential_from_config",
    "scalar_from_config",
]


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule with `order` nodes, mapped to [0, 1].

    Exact for polynomial integrands of degree <= 2*order - 1.
    """

    order: int
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise InputError("quadrature order must be a positive integer")
        x, w = np.polynomial.legendre.leggauss(self.order)
        object.__setattr__(self, "nodes", 0.5 * (x + 1.0))
        object.__setattr__(self, "weights", 0.5 * w)


DEFAULT_QUADRATURE = Quadrature(16)


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
        Polynomial degree when known; drives quadrature exactness choices.

    Antisymmetry is validated on a probe set at construction; the closedness
    (Jacobi/cocycle) condition is checked by finite differences for N >= 3
    and only warns on violation.
    """

    def __init__(self, dim, eval, degree_hint=None, name="field", _validate=True):
        self.dim = int(dim)
        self.eval = eval
        self.degree_hint = degree_hint
        self.name = name
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
        if self.dim >= 3:
            self._check_closedness(pts[:8])

    def _check_closedness(self, pts, step=1e-4):
        # cyclic sum d_j B_kl + d_k B_lj + d_l B_jk, central differences
        worst = 0.0
        for j in range(self.dim):
            ej = np.zeros(self.dim)
            ej[j] = step
            dBj = (self.eval(pts + ej) - self.eval(pts - ej)) / (2 * step)
            for k in range(j + 1, self.dim):
                ek = np.zeros(self.dim)
                ek[k] = step
                dBk = (self.eval(pts + ek) - self.eval(pts - ek)) / (2 * step)
                for l in range(k + 1, self.dim):
                    el = np.zeros(self.dim)
                    el[l] = step
                    dBl = (self.eval(pts + el) - self.eval(pts - el)) / (2 * step)
                    cyc = dBj[:, k, l] + dBk[:, l, j] + dBl[:, j, k]
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
    """

    def __init__(self, dim, eval, degree_hint=None, poly: PolynomialMap | None = None,
                 name="potential", _validate=True):
        self.dim = int(dim)
        self.eval = eval
        self.degree_hint = degree_hint
        self.poly = poly
        self.name = name
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

def _check_dims(dim, *points):
    for p in points:
        if np.shape(p)[-1] != dim:
            raise DimensionMismatchError(
                "point of dimension %d does not match dimension %d" % (np.shape(p)[-1], dim)
            )


def _circulation_sum(A: VectorPotential, start, displacement, quad: Quadrature) -> np.ndarray:
    """Quadrature of ``d . A(a + s d)`` over ``s`` in [0, 1] (``a`` = start, ``d`` = displacement).

    The one circulation engine: every segment phase table goes through it.
    The per-node dot products are summed into an array of the broadcast
    leading shape of the two arguments; passing them unbroadcast (e.g.
    ``(X, 1, N)`` against ``(1, Y, N)``) keeps only that result and the
    per-node evaluation points in memory.
    """
    _check_dims(A.dim, start, displacement)
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
    leading axes of ``a`` and ``b``.  Exact to roundoff for polynomial
    potentials of degree < 2*order - 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_dims(A.dim, a, b)
    return _circulation_sum(A, a, b - a, quad)


def flux_triangle(B: MagneticField, a, b, c, quad: Quadrature = DEFAULT_QUADRATURE):
    """Signed flux of ``B`` through the oriented triangle ``<a, b, c>``.

    Orientation follows the vertex order; swapping two vertices flips the
    sign.  The reference-simplex integral uses a collapsed (Duffy) tensor
    Gauss-Legendre rule, exact for polynomial fields of degree
    <= order - 1.  Broadcasts over leading axes of the vertices.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    _check_dims(B.dim, a, b, c)
    a, b, c = np.broadcast_arrays(a, b, c)
    u = b - a
    v = c - a
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
    x = np.asarray(x, dtype=float)
    return np.exp(-1j * circulation(A, q, q + x, quad))


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
    """Canonical potential ``A_i(x) = -sum_j int_0^1 B_ij(s x) s x_j ds`` with dA = B."""

    def eval(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape)
        for s, w in zip(quad.nodes, quad.weights):
            Bv = np.einsum("...ij,...j->...i", np.asarray(B.eval(s * x), dtype=float), x)
            acc -= w * s * Bv
        return acc

    hint = None if B.degree_hint is None else B.degree_hint + 1
    return VectorPotential(B.dim, eval, degree_hint=hint,
                           name="transversal(%s)" % B.name, _validate=False)


def add_gradient(A: VectorPotential, rho: ScalarPotential) -> VectorPotential:
    """Gauge-transformed potential ``A + grad(rho)``; generates the same field."""
    if rho.dim != A.dim:
        raise DimensionMismatchError("gauge function dimension does not match potential")

    def eval(x):
        return np.asarray(A.eval(x), dtype=float) + np.asarray(rho.gradient(x), dtype=float)

    return VectorPotential(A.dim, eval, degree_hint=None, name="%s+grad(%s)" % (A.name, rho.name),
                           _validate=False)


def check_potential_matches_field(A: VectorPotential, B: MagneticField,
                                  points=None, step=1e-5, tol=1e-6) -> float:
    """Max deviation of the finite-difference ``dA`` from ``B`` on probe points."""
    if A.dim != B.dim:
        raise DimensionMismatchError("potential and field dimensions differ")
    pts = _probe_points(A.dim, half_width=3.0, count=16) if points is None else np.asarray(points)
    worst = 0.0
    Bv = np.asarray(B.eval(pts), dtype=float)
    for j in range(A.dim):
        ej = np.zeros(A.dim); ej[j] = step
        dAj = (A.eval(pts + ej) - A.eval(pts - ej)) / (2 * step)
        for k in range(A.dim):
            ek = np.zeros(A.dim); ek[k] = step
            dAk = (A.eval(pts + ek) - A.eval(pts - ek)) / (2 * step)
            worst = max(worst, np.abs(dAj[:, k] - dAk[:, j] - Bv[:, j, k]).max())
    return worst


# ---------------------------------------------------------------------------
# preset catalogue

def constant_field(dim: int, matrix) -> MagneticField:
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dim, dim):
        raise InputError("constant field needs a %d x %d matrix" % (dim, dim))

    def eval(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(m, x.shape[:-1] + m.shape).copy()

    return MagneticField(dim, eval, degree_hint=0, name="constant")


def constant_field_2d(b: float) -> MagneticField:
    return constant_field(2, [[0.0, b], [-b, 0.0]])


def linear_field_2d(b0: float, gradient) -> MagneticField:
    """Planar field with ``B_12(x) = b0 + g . x``."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != (2,):
        raise InputError("linear planar field needs a 2-vector gradient")

    def eval(x):
        x = np.asarray(x, dtype=float)
        b12 = b0 + x @ g
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = b12
        out[..., 1, 0] = -b12
        return out

    return MagneticField(2, eval, degree_hint=1, name="linear")


def polynomial_field_2d(terms) -> MagneticField:
    """Planar field with polynomial ``B_12``; `terms` are (coeff, powers) pairs."""
    poly = PolynomialMap(2, [list(terms)])

    def eval(x):
        x = np.asarray(x, dtype=float)
        b12 = poly(x)[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = b12
        out[..., 1, 0] = -b12
        return out

    return MagneticField(2, eval, degree_hint=poly.degree, name="polynomial")


def gaussian_field_2d(amplitude: float, width: float, center=(0.0, 0.0)) -> MagneticField:
    c = np.asarray(center, dtype=float)

    def eval(x):
        x = np.asarray(x, dtype=float)
        r2 = ((x - c) ** 2).sum(axis=-1)
        b12 = amplitude * np.exp(-0.5 * r2 / width**2)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = b12
        out[..., 1, 0] = -b12
        return out

    return MagneticField(2, eval, degree_hint=None, name="gaussian")


def zero_field(dim: int) -> MagneticField:
    return constant_field(dim, np.zeros((dim, dim)))


def zero_potential(dim: int) -> VectorPotential:
    poly = PolynomialMap(dim, [[] for _ in range(dim)])
    return VectorPotential(dim, poly, degree_hint=0, poly=poly, name="zero")


def constant_potential(values) -> VectorPotential:
    v = np.asarray(values, dtype=float)
    dim = v.shape[0]
    comps = [[(float(v[i]), (0,) * dim)] for i in range(dim)]
    poly = PolynomialMap(dim, comps)
    return VectorPotential(dim, poly, degree_hint=0, poly=poly, name="constant")


def linear_potential(matrix) -> VectorPotential:
    """Potential ``A(x) = M x``; generates the constant field ``B = M^T - M``."""
    m = np.asarray(matrix, dtype=float)
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
    return VectorPotential(dim, poly, degree_hint=1, poly=poly, name="linear")


def polynomial_potential(dim: int, components) -> VectorPotential:
    poly = PolynomialMap(dim, [list(c) for c in components])
    return VectorPotential(dim, poly, degree_hint=poly.degree, poly=poly, name="polynomial")


def symmetric_gauge(b: float) -> VectorPotential:
    """Planar potential ``(-b x2 / 2, b x1 / 2)`` for the constant field b."""
    A = linear_potential([[0.0, -b / 2.0], [b / 2.0, 0.0]])
    A.name = "symmetric"
    return A


def landau_gauge(b: float) -> VectorPotential:
    """Planar potential ``(0, b x1)`` for the constant field b."""
    A = linear_potential([[0.0, 0.0], [b, 0.0]])
    A.name = "landau"
    return A


# ---------------------------------------------------------------------------
# config records (the structured preset descriptions consumed by the CLI)

def _terms_from_config(terms):
    return [(float(t["coeff"]), tuple(int(p) for p in t["powers"])) for t in terms]


def field_from_config(cfg: dict) -> MagneticField:
    """Build a field preset from a config record ``{kind, dim, ...}``."""
    kind = cfg.get("kind")
    dim = int(cfg.get("dim", 2))
    if kind == "zero":
        return zero_field(dim)
    if kind == "constant":
        if "matrix" in cfg:
            return constant_field(dim, cfg["matrix"])
        if dim != 2:
            raise InputError("scalar constant field strength requires dim = 2")
        return constant_field_2d(float(cfg.get("b", 1.0)))
    if kind == "linear":
        if dim != 2:
            raise InputError("linear field preset is planar (dim = 2)")
        return linear_field_2d(float(cfg.get("b0", 0.0)), cfg.get("gradient", [0.0, 0.0]))
    if kind == "polynomial":
        if dim != 2:
            raise InputError("polynomial field preset is planar (dim = 2)")
        return polynomial_field_2d(_terms_from_config(cfg["terms"]))
    if kind == "gaussian":
        if dim != 2:
            raise InputError("gaussian field preset is planar (dim = 2)")
        return gaussian_field_2d(float(cfg.get("amplitude", 1.0)), float(cfg.get("width", 2.0)),
                                 cfg.get("center", (0.0, 0.0)))
    raise InputError("unknown field kind %r" % (kind,))


def potential_from_config(cfg: dict, field: MagneticField | None = None,
                          quad: Quadrature = DEFAULT_QUADRATURE) -> VectorPotential:
    """Build a potential preset from a config record ``{kind, ...}``."""
    kind = cfg.get("kind")
    if kind == "zero":
        return zero_potential(int(cfg.get("dim", 2)))
    if kind == "constant":
        return constant_potential(cfg["values"])
    if kind == "linear":
        return linear_potential(cfg["matrix"])
    if kind == "polynomial":
        comps = [_terms_from_config(c) for c in cfg["components"]]
        return polynomial_potential(int(cfg.get("dim", 2)), comps)
    if kind == "symmetric":
        return symmetric_gauge(float(cfg.get("b", 1.0)))
    if kind == "landau":
        return landau_gauge(float(cfg.get("b", 1.0)))
    if kind == "transversal":
        if field is None:
            field = field_from_config(cfg["of_field"])
        return transversal_gauge(field, quad)
    raise InputError("unknown potential kind %r" % (kind,))


def scalar_from_config(cfg: dict) -> ScalarPotential:
    """Gauge function from a config record; polynomial terms only."""
    dim = int(cfg.get("dim", 2))
    poly = PolynomialMap(dim, [_terms_from_config(cfg["terms"])])
    return ScalarPotential.from_poly(poly)
