import ast
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import symbols as S
from magweyl.config import field_from_config, potential_from_config
from magweyl.errors import DimensionMismatchError, InputError, NumericError

QUAD = F.Quadrature(16)


def random_polynomial_potential(rng, dim=2, degree=3):
    comps = []
    for _ in range(dim):
        terms = []
        for _ in range(4):
            powers = tuple(int(p) for p in rng.integers(0, degree + 1, size=dim))
            if sum(powers) > degree:
                continue
            terms.append((float(rng.uniform(-1, 1)), powers))
        comps.append(terms)
    return F.polynomial_potential(dim, comps)


# ---------------------------------------------------------------------------
# quadrature

def test_quadrature_weights_sum_to_interval_length():
    for order in (2, 8, 16):
        q = F.Quadrature(order)
        assert abs(q.weights.sum() - 1.0) < 1e-14


def test_quadrature_polynomial_exactness():
    q = F.Quadrature(5)
    # exact up to degree 9: int_0^1 x^9 dx = 1/10
    val = np.sum(q.weights * q.nodes**9)
    assert abs(val - 0.1) < 1e-14


def test_quadrature_rejects_bad_order():
    with pytest.raises(InputError):
        F.Quadrature(0)


# ---------------------------------------------------------------------------
# circulation

def test_circulation_zero_potential():
    A = F.zero_potential(2)
    assert F.circulation(A, [0.0, 0.0], [1.0, 2.0], QUAD) == 0.0


def test_circulation_constant_potential():
    A = F.constant_potential([1.0, 2.0])
    assert abs(F.circulation(A, [0, 0], [1, 1], QUAD) - 3.0) < 1e-14


def test_circulation_symmetric_gauge_segment():
    # A = (-x2/2, x1/2), segment (1,0) -> (1,1): integrand is 1/2 along the path
    A = F.symmetric_gauge(1.0)
    assert abs(F.circulation(A, [1, 0], [1, 1], QUAD) - 0.5) < 1e-14


def test_circulation_cubic_exact():
    # A = (x1^2 x2, 0) on (0,0)->(1,1): int_0^1 s^3 ds = 1/4
    A = F.polynomial_potential(2, [[(1.0, (2, 1))], []])
    assert abs(F.circulation(A, [0, 0], [1, 1], QUAD) - 0.25) < 1e-14


def test_circulation_dimension_mismatch():
    A = F.zero_potential(2)
    with pytest.raises(DimensionMismatchError):
        F.circulation(A, [0.0], [1.0], QUAD)


def test_circulation_nonfinite_raises():
    bad = F.VectorPotential(2, lambda x: np.where(x[..., :1] > 0.5, np.nan, 1.0) * np.ones_like(x),
                            _validate=False)
    with pytest.raises(NumericError):
        F.circulation(bad, [0, 0], [1, 1], QUAD)


# ---------------------------------------------------------------------------
# flux

def test_flux_collinear_vertices():
    B = F.constant_field_2d(1.0)
    v = F.flux_triangle(B, [0, 0], [1, 1], [2, 2], QUAD)
    assert abs(v) < 1e-14


def test_flux_constant_field_half():
    B = F.constant_field_2d(1.0)
    a = np.array([0.3, -0.7])
    v = F.flux_triangle(B, a, a + [1, 0], a + [1, 1], QUAD)
    assert abs(v - 0.5) < 1e-14


def test_flux_linear_field_sixth():
    B = F.linear_field_2d(0.0, [1.0, 0.0])  # B12 = x1
    v = F.flux_triangle(B, [0, 0], [1, 0], [0, 1], QUAD)
    assert abs(v - 1.0 / 6.0) < 1e-14


def test_flux_quadratic_field_exact():
    # B12 = x1^2 over the unit simplex: int_0^1 s^2 (1-s) ds = 1/12
    B = F.polynomial_field_2d([(1.0, (2, 0))])
    v = F.flux_triangle(B, [0, 0], [1, 0], [0, 1], QUAD)
    assert abs(v - 1.0 / 12.0) < 1e-13


def test_flux_antisymmetry_under_vertex_swap():
    rng = np.random.default_rng(7)
    B = F.linear_field_2d(0.5, [0.3, -0.2])
    for _ in range(20):
        a, b, c = rng.uniform(-3, 3, size=(3, 2))
        assert abs(F.flux_triangle(B, a, b, c, QUAD) + F.flux_triangle(B, b, a, c, QUAD)) < 1e-12


# ---------------------------------------------------------------------------
# phases

def test_translation_phase_trivial():
    A = F.symmetric_gauge(2.0)
    assert abs(F.translation_phase(A, [0.4, 0.2], [0.0, 0.0], QUAD) - 1.0) < 1e-14


def test_translation_phase_reversed_segment_cancels():
    rng = np.random.default_rng(11)
    A = random_polynomial_potential(rng)
    for _ in range(20):
        q, x = rng.uniform(-2, 2, size=(2, 2))
        prod = F.translation_phase(A, q, x, QUAD) * F.translation_phase(A, q + x, -x, QUAD)
        assert abs(prod - 1.0) < 1e-12


def test_translation_phase_symmetric_gauge_value():
    A = F.symmetric_gauge(1.0)
    val = F.translation_phase(A, [1, 0], [0, 1], QUAD)
    assert abs(val - np.exp(-0.5j)) < 1e-14


def test_phases_unit_modulus():
    rng = np.random.default_rng(13)
    A = random_polynomial_potential(rng)
    B = F.linear_field_2d(1.0, [0.2, 0.1])
    for _ in range(10):
        q, x, y = rng.uniform(-2, 2, size=(3, 2))
        assert abs(abs(F.translation_phase(A, q, x, QUAD)) - 1.0) < 1e-14
        assert abs(abs(F.flux_phase(B, q, x, y, QUAD)) - 1.0) < 1e-14


def test_flux_phase_degenerate_arguments():
    B = F.linear_field_2d(1.0, [0.4, 0.0])
    rng = np.random.default_rng(17)
    for _ in range(10):
        q, x = rng.uniform(-2, 2, size=(2, 2))
        assert abs(F.flux_phase(B, q, x, np.zeros(2), QUAD) - 1.0) < 1e-13
        assert abs(F.flux_phase(B, q, x, -x, QUAD) - 1.0) < 1e-13


def test_flux_phase_constant_field_value():
    B = F.constant_field_2d(1.0)
    val = F.flux_phase(B, [0, 0], [1, 0], [0, 1], QUAD)
    assert abs(val - np.exp(-0.5j)) < 1e-14


# ---------------------------------------------------------------------------
# gauges

def test_transversal_gauge_zero_field():
    A = F.transversal_gauge(F.zero_field(2), QUAD)
    pts = np.random.default_rng(0).uniform(-3, 3, size=(10, 2))
    assert np.abs(A(pts)).max() == 0.0


def test_transversal_gauge_constant_field_is_symmetric_gauge():
    b = 1.7
    A = F.transversal_gauge(F.constant_field_2d(b), QUAD)
    pts = np.random.default_rng(1).uniform(-3, 3, size=(10, 2))
    expect = np.stack([-0.5 * b * pts[:, 1], 0.5 * b * pts[:, 0]], axis=-1)
    assert np.abs(A(pts) - expect).max() < 1e-13


def test_transversal_gauge_linear_field_value():
    B = F.linear_field_2d(0.0, [1.0, 0.0])  # B12 = x1
    A = F.transversal_gauge(B, QUAD)
    val = A(np.array([1.0, 1.0]))
    assert np.abs(val - np.array([-1.0 / 3.0, 1.0 / 3.0])).max() < 1e-14


def test_transversal_gauge_generates_field():
    B = F.linear_field_2d(0.8, [0.3, -0.5])
    A = F.transversal_gauge(B, QUAD)
    assert F.check_potential_matches_field(A, B) < 1e-6


def test_add_gradient_identity():
    A = F.symmetric_gauge(1.0)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[]]))
    A2 = F.add_gradient(A, rho)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(5, 2))
    assert np.abs(A2(pts) - A(pts)).max() < 1e-14


def test_add_gradient_symmetric_to_landau():
    b = 1.0
    A = F.symmetric_gauge(b)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(b / 2.0, (1, 1))]]))
    A2 = F.add_gradient(A, rho)
    pts = np.random.default_rng(3).uniform(-2, 2, size=(8, 2))
    expect = np.stack([np.zeros(8), b * pts[:, 0]], axis=-1)
    assert np.abs(A2(pts) - expect).max() < 1e-13


def test_gradient_difference_has_no_circulation_on_loops():
    A = F.symmetric_gauge(1.0)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1)), (0.2, (3, 0))]]))
    A2 = F.add_gradient(A, rho)
    diff = F.VectorPotential(2, lambda x: A2(x) - A(x), _validate=False)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b, c = rng.uniform(-2, 2, size=(3, 2))
        loop = (F.circulation(diff, a, b, QUAD) + F.circulation(diff, b, c, QUAD)
                + F.circulation(diff, c, a, QUAD))
        assert abs(loop) < 1e-10


# ---------------------------------------------------------------------------
# validation and config records

def test_field_antisymmetry_validation():
    with pytest.raises(InputError):
        F.MagneticField(2, lambda x: np.ones(np.shape(x)[:-1] + (2, 2)))


def x3_field_3d(x):
    # B_12 = x_3 and no other component: the cyclic sum d_3 B_12 is 1
    out = np.zeros(np.shape(x)[:-1] + (3, 3))
    out[..., 0, 1] = x[..., 2]
    out[..., 1, 0] = -x[..., 2]
    return out


def test_closedness_check_warns_on_non_closed_field():
    with pytest.warns(UserWarning, match="closedness"):
        F.MagneticField(3, x3_field_3d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F.constant_field(3, [[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])


def test_finite_difference_checks_evaluate_each_partial_once():
    # one central difference per axis: 2N evaluations of A (N = 2) and of B (N = 3)
    calls = []

    def counted(fn):
        def wrapped(x):
            calls.append(1)
            return fn(x)
        return wrapped

    A = F.VectorPotential(2, counted(F.symmetric_gauge(1.0).eval), _validate=False)
    assert F.check_potential_matches_field(A, F.constant_field_2d(1.0)) < 1e-6
    assert len(calls) == 4
    calls.clear()
    B3 = F.MagneticField(3, counted(x3_field_3d), _validate=False)
    with pytest.warns(UserWarning, match="closedness"):
        B3._check_closedness(F._probe_points(3)[:8])
    assert len(calls) == 6


def test_second_derivative_of_a_potential_without_poly_is_the_central_difference():
    # a potential given only by `eval`, such as the Gaussian field's transversal gauge,
    # takes the central-difference branch (step 1e-4, error O(step^2) plus roundoff
    # O(eps / step^2), about 1e-8 here); A = (0, sin x1 cos x2) has closed-form derivatives
    assert F.transversal_gauge(F.gaussian_field_2d(1.0, 1.6), QUAD).poly is None
    A = F.VectorPotential(2, lambda x: np.stack(
        [np.zeros(x.shape[:-1]), np.sin(x[..., 0]) * np.cos(x[..., 1])], axis=-1))
    x = np.random.default_rng(27).uniform(-3.0, 3.0, size=(200, 2))
    s1c2 = np.sin(x[:, 0]) * np.cos(x[:, 1])
    expect = {(0, 0): -s1c2, (0, 1): -np.cos(x[:, 0]) * np.sin(x[:, 1]), (1, 1): -s1c2}
    for (j, k), value in expect.items():
        for jj, kk in ((j, k), (k, j)):
            assert np.abs(A.second_derivative(jj, kk, 1)(x) - value).max() <= 1e-7
            assert np.abs(A.second_derivative(jj, kk, 0)(x)).max() == 0.0


def test_field_from_config_round_trip():
    B = field_from_config({"kind": "constant", "dim": 2, "b": 2.0})
    assert B(np.zeros(2))[0, 1] == 2.0
    B = field_from_config({"kind": "linear", "dim": 2, "b0": 1.0, "gradient": [0.5, 0.0]})
    assert abs(B(np.array([2.0, 0.0]))[0, 1] - 2.0) < 1e-14
    with pytest.raises(InputError):
        field_from_config({"kind": "nope"})


def test_potential_from_config():
    A = potential_from_config({"kind": "landau", "b": 1.0})
    assert np.allclose(A(np.array([1.0, 5.0])), [0.0, 1.0])
    A = potential_from_config({"kind": "transversal",
                               "of_field": {"kind": "constant", "dim": 2, "b": 1.0}})
    assert np.allclose(A(np.array([1.0, 0.0])), [0.0, 0.5])
    with pytest.raises(InputError):
        potential_from_config({"kind": "nope"})


def test_scalar_from_config_gradient():
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1))]]))
    g = rho.gradient(np.array([2.0, 3.0]))
    assert np.allclose(g, [1.5, 1.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_square_norm_sites_are_bit_identical_to_the_reduction(dim):
    # every |v|^2 of the package goes through _square_norm: each site against
    # its former (v ** 2).sum(axis=-1) expression, entry for entry
    def old(v):
        return (v ** 2).sum(axis=-1)

    rng = np.random.default_rng(dim)
    pts = rng.normal(scale=3.0, size=(36, 64, dim))
    assert np.array_equal(F._square_norm(pts), old(pts))
    xc, pc = rng.normal(size=dim), rng.normal(size=dim)
    g = G.PhaseSpaceGrid(dim, 6, 3.0)
    u = G.gaussian_wavefunction(g, xc, 1.3, pc, normalize=False)
    y = g.config_points()
    assert np.array_equal(u.values.ravel(), np.exp(-old(y - xc) / (2.0 * 1.3**2) + 1j * y @ pc))
    if dim == 2:
        c = np.array([0.3, -0.2])
        B = F.gaussian_field_2d(1.2, 1.4, c)
        assert np.array_equal(B(pts)[..., 0, 1], 1.2 * np.exp(-0.5 * old(pts - c) / 1.4**2))
        y = pts - c
        u = old(1.0 / (np.sqrt(2.0) * 1.4) * y)  # the centred gauge's profile, u != 0 here
        profile = np.divide(-1.2 * np.expm1(-u), 2.0 * u)
        assert np.array_equal(B._potential.eval(pts),
                              profile[..., None] * np.stack([-y[..., 1], y[..., 0]], -1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axis_product_factors_are_their_per_axis_expressions(dim):
    # the preset factors that are products over the axes, each against its per-axis
    # expression bit for bit, and against its former N-dim closed form through |v|^2
    # to within the rounding of a product of exponentials (measured 4.9e-16 of the
    # largest value, 1.6e-14 of each value, at dims 1-3)
    def old(v):
        return (v ** 2).sum(axis=-1)

    def per_axis(fn):
        return reduce(np.multiply, [fn(a, pts[..., a]) for a in range(dim)])

    rng = np.random.default_rng(dim)
    pts = rng.normal(scale=3.0, size=(36, 64, dim))
    xc, pc = rng.normal(size=dim), rng.normal(size=dim)
    (gx, hp), = G.gaussian_symbol(dim, xc, pc, 1.1, 0.8, amplitude=0.6 - 0.3j).factors
    term = complex(0.7)
    for j in range(dim):
        term = term * pts[..., j]
    cases = [
        (gx, per_axis(lambda a, t: (0.6 - 0.3j if a == 0 else 1.0)
                      * np.exp(-np.square(t - xc[a]) / (2.0 * 1.1**2))),
         (0.6 - 0.3j) * np.exp(-old(pts - xc) / (2.0 * 1.1**2))),
        (hp, per_axis(lambda a, t: np.exp(-np.square(t - pc[a]) / (2.0 * 0.8**2))),
         np.exp(-old(pts - pc) / (2.0 * 0.8**2))),
        (S._momentum_monomial(0.7, (1,) * dim, 0.9),
         per_axis(lambda a, t: (complex(0.7) if a == 0 else 1.0)
                  * (t * np.exp(-np.square(t) / (2.0 * 0.9**2)))),
         term * np.exp(-old(pts) / (2.0 * 0.9**2))),
    ]
    for factor, expression, closed in cases:
        assert isinstance(factor, S._AxisProduct) and len(factor.fns) == dim
        got = factor(pts)
        assert np.array_equal(got, expression)
        assert np.abs(got - closed).max() <= 2e-15 * np.abs(closed).max()
        assert np.all(np.abs(got - closed) <= 1e-13 * np.abs(closed))


def test_squared_norms_have_one_implementation():
    # no sum over the last axis anywhere in the package: |v|^2 goes through
    # fields._square_norm, so a new site cannot bring back the slow reduction
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum"):
                axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args
                if any(ast.unparse(a) == "-1" for a in axes):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


@pytest.mark.parametrize("kwargs, name", [
    ({"width": 0.0}, "width"), ({"width": -1.0}, "width"), ({"width": float("nan")}, "width"),
    ({"amplitude": float("inf")}, "amplitude"), ({"amplitude": float("nan")}, "amplitude")])
def test_gaussian_field_refuses_degenerate_parameters(kwargs, name):
    with pytest.raises(InputError, match=name):
        F.gaussian_field_2d(**dict({"amplitude": 1.0, "width": 1.6}, **kwargs))


@pytest.mark.parametrize("order", [True, False, 2.5, "3", 0, -2])
def test_quadrature_takes_only_an_integer_order(order):
    # a bool is not an order: Quadrature(True) was a one-node rule
    with pytest.raises(InputError, match="quadrature order"):
        F.Quadrature(order)


def test_quadrature_order_may_be_a_numpy_integer():
    quad = F.Quadrature(np.int64(4))
    assert quad == F.Quadrature(4) and type(quad.order) is int and len(quad.nodes) == 4
