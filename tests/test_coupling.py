import numpy as np
import pytest

from magweyl import coupling as C
from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl import symbols as S
from magweyl.errors import DimensionMismatchError, InputError

QUAD = F.Quadrature(16)


# ---------------------------------------------------------------------------
# symbolic oracle: pins the sign and size of the third-order correction
# before anything else relies on it

def sympy_coupling_oracle():
    import sympy as sp

    x1, x2, p1, p2, y1, y2, t = sp.symbols("x1 x2 p1 p2 y1 y2 t", real=True)
    # potential (0, x1^2): quadratic, so the dichotomy bites at degree 3
    A2 = (x1 + t * y1) ** 2
    avg = sp.integrate(A2, (t, sp.Rational(-1, 2), sp.Rational(1, 2)))
    tau = y1 * p1 + y2 * (p2 - avg)
    expr = sp.I**3 * sp.diff(sp.exp(-sp.I * tau), y1, y1, y2)
    out = sp.simplify(expr.subs({y1: 0, y2: 0}))
    return sp.expand(out), (x1, x2, p1, p2)


def test_symbol_of_another_dimension_is_refused():
    # a 1-D symbol on a 2-D grid: sampling, both couplings (minimal through its sample),
    # and both couplings of a 1-D polynomial
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.9)
    poly = C.PolynomialSymbol(1, [(1.0, (2,))])
    A = F.symmetric_gauge(1.0)
    for call in (lambda: f.sample(g, "midpoint"), lambda: C.covariant_coupling(f, A, g, QUAD),
                 lambda: C.minimal_coupling(f, A, g), lambda: C.covariant_coupling(poly, A, g),
                 lambda: C.minimal_coupling(poly, A, g)):
        with pytest.raises(DimensionMismatchError):
            call()


def test_symbolic_third_derivative_oracle():
    import sympy as sp

    out, (x1, x2, p1, p2) = sympy_coupling_oracle()
    naive = p1**2 * (p2 - x1**2)
    correction = sp.expand(out - naive)
    assert correction == sp.Rational(1, 6)


# ---------------------------------------------------------------------------
# closed forms

def test_position_only_symbol_is_fixed_point():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.polynomial_potential(2, [[(0.5, (0, 2))], [(1.0, (2, 0))]])
    f = C.PolynomialSymbol(2, [(1.0, (0, 0), lambda x: np.cos(x[..., 0]))])
    out = C.covariant_coupling(f, A, g)
    expect = G.x_only_symbol(2, lambda x: np.cos(x[..., 0])).sample(g, "standard")
    assert np.abs(out.values - expect.values).max() < 1e-12


def test_first_order_symbol_shifts_momentum():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.polynomial_potential(2, [[(0.3, (1, 1))], [(1.0, (2, 0))]])
    f = C.PolynomialSymbol(2, [(1.0, (1, 0))])
    out = C.covariant_coupling(f, A, g)
    pts = g.config_points()
    kpts = g.momentum_points()
    expect = (kpts[None, :, 0] - 0.3 * (pts[:, 0] * pts[:, 1])[:, None]).reshape(out.values.shape)
    assert np.abs(out.values - expect).max() < 1e-12


def test_kinetic_symbol_equals_minimal_coupling():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.polynomial_potential(2, [[(0.4, (0, 2))], [(0.7, (2, 0))]])
    f = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))])  # |p|^2
    tci = C.covariant_coupling(f, A, g)
    mci = C.minimal_coupling(f, A, g)
    assert np.abs(tci.values - mci.values).max() < 1e-12


def test_degree_three_quadratic_potential_discrepancy():
    # f = p1^2 p2, A = (0, x1^2): the correction is the constant 1/6
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.polynomial_potential(2, [[], [(1.0, (2, 0))]])
    f = C.PolynomialSymbol(2, [(1.0, (2, 1))])
    diff, report = C.coupling_discrepancy(f, A, g)
    assert report["max_abs_difference"] > 1e-3
    assert np.abs(diff.values - 1.0 / 6.0).max() < 1e-8
    # and the lattice difference matches the symbolic oracle pointwise
    import sympy as sp

    out, (x1, x2, p1, p2) = sympy_coupling_oracle()
    fn = sp.lambdify((x1, x2, p1, p2), out, "numpy")
    pts = g.config_points()
    kpts = g.momentum_points()
    oracle = fn(pts[:, 0][:, None], pts[:, 1][:, None],
                kpts[None, :, 0], kpts[None, :, 1]).reshape(diff.values.shape)
    tci = C.covariant_coupling(f, A, g)
    assert np.abs(tci.values - oracle).max() < 1e-8


def test_discrepancy_rejects_high_degree():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = C.PolynomialSymbol(2, [(1.0, (4, 0))])
    with pytest.raises(InputError):
        C.coupling_discrepancy(f, F.symmetric_gauge(1.0), g)


def test_covariant_coupling_high_degree_warns():
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    f = C.PolynomialSymbol(1, [(1.0, (4,))])
    with pytest.warns(UserWarning):
        C.covariant_coupling(f, F.zero_potential(1), g)


# ---------------------------------------------------------------------------
# transform route and quantization equivalence

def test_transform_route_matches_substitution_for_linear_potential():
    # for linear A the two couplings coincide, so the discrete transform
    # route must reproduce the pointwise substitution on localized symbols
    g = G.PhaseSpaceGrid(1, 64, 10.0)
    A = F.linear_potential([[0.4]])
    # cutoff narrow enough that the shifted argument never wraps the box
    f = C.PolynomialSymbol(1, [(1.0, (1,))]).with_momentum_cutoff(0.8)
    tvals = C.covariant_coupling(f, A, g, QUAD, kind="midpoint")
    mvals = C.minimal_coupling(f, A, g, kind="midpoint")
    scale = np.abs(mvals.values).max()
    assert np.abs(tvals.values - mvals.values).max() / scale < 1e-10


def _route_gauge(dim, name):
    """A constant field's linear gauge, a gauge transform of it, or the Gaussian field's."""
    if name == "transversal_gaussian":
        return F.transversal_gauge(F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2)), QUAD)
    if dim == 2:
        linear = F.symmetric_gauge(1.0)
    else:  # dim 1: a pure gauge; dim 3: the field B_12 = B_23 = 0.8
        linear = F.linear_potential([[0.4]] if dim == 1 else
                                    [[0.0, -0.4, 0.0], [0.4, 0.0, -0.4], [0.0, 0.4, 0.0]])
    if name == "linear":
        return linear
    return F.add_gradient(linear, F.ScalarPotential(
        dim, lambda x: 0.3 * np.sin(x[..., 0]) * np.cos(x[..., -1]),
        lambda x: 0.3 * (np.cos(x[..., 0]) * np.cos(x[..., -1]))[..., None] * np.eye(dim)[0]
        - 0.3 * (np.sin(x[..., 0]) * np.sin(x[..., -1]))[..., None] * np.eye(dim)[-1]))


ROUTE_CASES = [(1, "linear"), (1, "gradient"), (2, "linear"), (2, "transversal_gaussian"),
               (2, "gradient"), (3, "linear"), (3, "gradient")]


@pytest.mark.parametrize("kind", ["midpoint", "standard"])
@pytest.mark.parametrize("dim, gauge", ROUTE_CASES)
def test_transform_route_matches_the_written_out_route(dim, gauge, kind):
    # a factored symbol, the same symbol given only by fn, and the route
    # written out: k -> y, exp(i Gamma^A([x - y/2, x + y/2])) from circulation
    # for every y, y -> k
    g = G.PhaseSpaceGrid(dim, {1: 16, 2: 8, 3: 4}[dim], 4.0)
    A = _route_gauge(dim, gauge)
    powers = [(2,) + (0,) * (dim - 1), (0,) * (dim - 1) + (3,)]
    poly = C.PolynomialSymbol(dim, [(1.0, powers[0]),
                                    (0.7 - 0.2j, powers[1], lambda x: np.cos(x[..., 0]))])
    fac = poly.with_momentum_cutoff(0.9)
    fn = G.SymbolEvaluator(dim, fac.fn)
    x = S._lattice_mesh([S._config_axis(g, kind)] * dim)[:, None, :]
    y, k = g.config_points(), g.momentum_points()
    lam = np.exp(1j * F.circulation(A, x - 0.5 * y, x + 0.5 * y, QUAD))
    to_diff = g.momentum_weight * np.exp(1j * y @ k.T)
    back = g.config_weight * np.exp(-1j * y @ k.T)
    expect = ((fac(x, k[None]) @ to_diff.T) * lam) @ back
    for f in (fac, fn):
        out = C.covariant_coupling(f, A, g, QUAD, kind).values.reshape(expect.shape)
        assert np.abs(out - expect).max() < 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("dim, n", [(1, 8), (2, 6), (3, 4)])
def test_transform_route_integrates_one_segment_of_each_mirror_pair(dim, n):
    # y and -y share a segment reversed: per configuration point, the
    # ((n - 1)^N + 1) / 2 representatives of the pairs inside the box and the
    # n^N - (n - 1)^N differences with an index 0 (no mirror), each at every node
    points = []
    A = F.VectorPotential(dim, lambda x: (points.append(np.prod(x.shape[:-1]))
                                          or np.cos(x[..., ::-1])), _validate=False)
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    f = G.gaussian_symbol(dim, x_width=0.8, p_width=0.9)
    out = C.covariant_coupling(f, A, g, QUAD, "midpoint").values
    configs = (2 * n - 1) ** dim
    segments = ((n - 1) ** dim + 1) // 2 + n**dim - (n - 1) ** dim
    assert sum(points) == configs * segments * QUAD.order
    assert np.isfinite(out).all()


@pytest.mark.parametrize("dim, n, degree, order", [(1, 8, 1, 16), (2, 6, 0, 16), (2, 6, 1, 16),
                                                   (3, 4, 1, 16), (2, 6, None, 1)])
def test_transform_route_reads_a_one_node_potential_once_per_point(monkeypatch, dim, n, degree,
                                                                    order):
    # declared degree <= 1, or a one-node rule: Gamma = y . A(x) at the midpoint x
    # alone, so A is read once per configuration point and the engine never runs;
    # the reference integrates the same potential, undeclared, at 16 nodes
    slope = (0.1 * np.arange(dim * dim).reshape(dim, dim) - 0.3) * (degree == 1)
    points = []
    A = F.VectorPotential(dim, lambda x: (points.append(np.prod(x.shape[:-1]))
                                          or x @ slope.T + 0.2),
                          degree_hint=degree, _validate=False)
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    f = G.gaussian_symbol(dim, x_width=0.8, p_width=0.9)
    monkeypatch.setattr(C, "_circulation_sum", None)
    out = C.covariant_coupling(f, A, g, F.Quadrature(order), "midpoint").values
    assert sum(points) == (2 * n - 1) ** dim
    monkeypatch.undo()
    plain = F.VectorPotential(dim, A.eval, _validate=False)
    ref = C.covariant_coupling(f, plain, g, QUAD, "midpoint").values
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_transform_route_samples_the_gauge_function_once_per_segment_end(monkeypatch):
    # gauge data integrate their base, and rho is sampled once at each distinct
    # end x -+ y/2 of the route's segments: 5,039 points at n = 24 on the midpoint
    # lattice, where both ends of every integrated segment made 1,378,416
    g = G.PhaseSpaceGrid(2, 24, 8.0)
    B = F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2))
    A = F.transversal_gauge(B, QUAD)
    f = C.PolynomialSymbol(2, [(1.0, (2, 0)), (0.7, (0, 3))]).with_momentum_cutoff(0.85)
    x, y, k = S._lattice_mesh([g.midpoint_axis] * 2), g.config_points(), g.momentum_points()
    ends = np.rint(np.stack([x[:, None] + 0.5 * y, x[:, None] - 0.5 * y]) / (g.h / 2)).astype(int)
    distinct = len(np.unique(ends[..., 0] * (4 * g.n) + ends[..., 1]))  # half steps, |.| < 2n
    points = []
    sample = F._gauge_values
    monkeypatch.setattr(F, "_gauge_values", lambda A, x, quad: (
        points.append(np.prod(np.shape(x)[:-1])) or sample(A, x, quad)))
    out = C.covariant_coupling(f, A, g, QUAD, "midpoint").values.reshape(len(x), g.size)
    assert distinct == 5039 and sum(points) <= distinct
    # seeded rows against the route written out from the plain evaluator of the
    # transversal gauge (its ray integral), at order 48 and with no gauge data
    monkeypatch.undo()
    plain = F.VectorPotential(2, F.transversal_gauge(B, F.Quadrature(48)).eval, _validate=False)
    rows = np.random.default_rng(5).choice(len(x), 6, replace=False)
    xr = x[rows][:, None]
    lam = np.exp(1j * F.circulation(plain, xr - 0.5 * y, xr + 0.5 * y, F.Quadrature(48)))
    to_diff = g.momentum_weight * np.exp(1j * y @ k.T)
    back = g.config_weight * np.exp(-1j * y @ k.T)
    expect = ((f(xr, k[None]) @ to_diff.T) * lam) @ back
    assert np.abs(out[rows] - expect).max() <= 1e-12 * np.abs(expect).max()


def plain_factors(f):
    """The same factors wrapped as plain callables: the route's block transforms."""
    return G.SymbolEvaluator(f.dim, factors=[((lambda x, g=g: g(x)), (lambda p, h=h: h(p)))
                                             for g, h in f.factors])


def counted_axis_rows(monkeypatch):
    calls = []
    axis_rows = C._axis_rows
    monkeypatch.setattr(C, "_axis_rows", lambda *args: calls.append(1) or axis_rows(*args))
    return calls


AXIS_ROUTE_CASES = [(1, "none"), (1, "linear"), (1, "one_node"), (2, "none"), (2, "symmetric"),
                    (2, "one_node"), (3, "none"), (3, "linear"), (3, "one_node")]


@pytest.mark.parametrize("kind", ["midpoint", "standard"])
@pytest.mark.parametrize("dim, case", AXIS_ROUTE_CASES)
def test_per_axis_coupling_matches_the_block_route(monkeypatch, dim, case, kind):
    # axis-product momentum factors under plane-wave phases (no potential, a declared
    # degree <= 1, or any polynomial potential under a one-node rule) couple one axis
    # at a time: the same table as the block route of the same factors as plain callables
    g = G.PhaseSpaceGrid(dim, {1: 16, 2: 8, 3: 4}[dim], 4.0)
    quad = F.Quadrature(1) if case == "one_node" else QUAD
    A = {"none": None, "symmetric": F.symmetric_gauge(1.0),
         "linear": F.linear_potential(np.random.default_rng(dim).normal(size=(dim, dim))),
         "one_node": F.polynomial_potential(dim, [[(0.3, (2,) + (0,) * (dim - 1)),
                                                   (0.2 * a - 0.1, (0,) * (dim - 1) + (1,))]
                                                  for a in range(dim)])}[case]
    powers = [(2,) + (0,) * (dim - 1), (0,) * (dim - 1) + (3,)]
    f = (C.PolynomialSymbol(dim, [(1.0, powers[0]),
                                  (0.7 - 0.2j, powers[1], lambda x: np.cos(x[..., 0]))])
         .with_momentum_cutoff(0.9)
         + G.gaussian_symbol(dim, x_center=[0.2] * dim, x_width=0.8, p_width=1.1,
                             amplitude=0.4 + 0.3j))
    calls = counted_axis_rows(monkeypatch)
    fast = C.covariant_coupling(f, A, g, quad, kind).values
    assert calls == [1]
    ref = C.covariant_coupling(plain_factors(f), A, g, quad, kind).values
    assert calls == [1]
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["gauge_data", "closed_form_segment"])
def test_gauge_data_and_closed_form_segments_take_the_block_route(monkeypatch, case):
    # the phases are not plane waves: gauge data dress them with e^{i rho}, and a field
    # preset's closed-form segment integrates its own rule, even with one node
    g = G.PhaseSpaceGrid(2, 6, 3.0)
    quad = F.Quadrature(1)
    if case == "gauge_data":
        A = F.add_gradient(F.symmetric_gauge(1.0),
                           F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.1, (2, 0))]])))
    else:
        A = F.transversal_gauge(F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2)), quad)
    f = G.gaussian_symbol(2, x_width=0.8, p_width=0.9)
    calls = counted_axis_rows(monkeypatch)
    out = C.covariant_coupling(f, A, g, quad, "midpoint").values
    assert calls == []
    ref = C.covariant_coupling(plain_factors(f), A, g, quad, "midpoint").values
    assert np.array_equal(out, ref)


def test_kinetic_sample_memory_peak(traced_peak):
    # dim 2, n=32: the 62 MiB midpoint table and momentum-sized factors, no full-size temporaries
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    kinetic = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))]).with_momentum_cutoff(30.0)
    assert traced_peak(lambda: kinetic.sample(g, "midpoint")) <= 70 * 2**20


def test_transform_route_memory_peak(traced_peak):
    # dim 2, n=32, midpoint lattice: the 62 MiB output plus one row block's
    # symbol table, circulation phase and transforms
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    f = G.gaussian_symbol(2, x_width=0.9, p_width=1.1)
    A = F.symmetric_gauge(1.0)
    peak = traced_peak(lambda: C.covariant_coupling(f, A, g, QUAD, "midpoint"))
    assert peak <= 100 * 2**20


def test_quantization_equivalence_1d():
    # op^A(f) = op(T^A f): covariant quantization via the coupled symbol
    g = G.PhaseSpaceGrid(1, 64, 10.0)
    A = F.polynomial_potential(1, [[(0.3, (2,))]])
    f = C.PolynomialSymbol(1, [(1.0, (3,))]).with_momentum_cutoff(1.0)
    lhs = Q.op_quantize(f, A, g)
    coupled = C.covariant_coupling(f, A, g, QUAD, kind="midpoint")
    rhs = Q.op_quantize(coupled, None, g)
    err = np.linalg.norm(lhs.kernel - rhs.kernel) / np.linalg.norm(lhs.kernel)
    assert err < 1e-8


def test_wrong_quantization_fails_gauge_covariance():
    # same constant field through a linear and a quadratic potential: the
    # naive coupling quantization is not gauge covariant, the correct one is
    g = G.PhaseSpaceGrid(2, 24, 7.0)
    b = 1.0
    A = F.symmetric_gauge(b)
    rho_poly = F.PolynomialMap(2, [[(0.1, (2, 1))]])
    rho = F.ScalarPotential.from_poly(rho_poly)
    A2 = F.add_gradient(A, rho)
    fsym = C.PolynomialSymbol(2, [(1.0, (2, 1))]).with_momentum_cutoff(0.9)

    wrong_A = Q.op_quantize(C.minimal_coupling_evaluator(fsym, A), None, g)
    wrong_A2 = Q.op_quantize(C.minimal_coupling_evaluator(fsym, A2), None, g)
    conj = Q.gauge_conjugate(wrong_A, rho, "forward")
    fail = np.linalg.norm(wrong_A2.kernel - conj.kernel) / np.linalg.norm(wrong_A.kernel)
    assert fail > 1e-3

    right_A = Q.op_quantize(C.covariant_coupling(fsym, A, g, QUAD, "midpoint"), None, g)
    right_A2 = Q.op_quantize(C.covariant_coupling(fsym, A2, g, QUAD, "midpoint"), None, g)
    conj2 = Q.gauge_conjugate(right_A, rho, "forward")
    ok = np.linalg.norm(right_A2.kernel - conj2.kernel) / np.linalg.norm(right_A.kernel)
    assert ok < 1e-6


@pytest.mark.parametrize("cutoff", [0.0, -5.0, float("nan"), float("inf")])
def test_momentum_cutoff_refuses_degenerate_scales(cutoff):
    # a cutoff of 0 reached the eigen-solve as NaN; the internal 1e6 stays valid
    sym = C.PolynomialSymbol(2, [(1.0, (2, 0))])
    with pytest.raises(InputError, match="cutoff"):
        sym.with_momentum_cutoff(cutoff)
    assert sym.with_momentum_cutoff(1e6).dim == 2


def test_block_route_builds_no_half_step_mesh_without_gauge_data(monkeypatch):
    # the (3n - 1)^N half-step mesh serves gauge data alone; a plain (cubic) potential
    # goes through the block route without asking for it
    g = G.PhaseSpaceGrid(2, 6, 3.0)
    A = F.polynomial_potential(2, [[(0.2, (3, 0))], [(0.5, (1, 0)), (0.1, (0, 3))]])
    f = C.PolynomialSymbol(2, [(1.0, (2, 0)), (0.7, (0, 1))]).with_momentum_cutoff(0.85)
    axes = []
    mesh = C._lattice_mesh
    monkeypatch.setattr(C, "_lattice_mesh", lambda ax: axes.append(len(ax[0])) or mesh(ax))
    C.covariant_coupling(plain_factors(f), A, g, QUAD, "midpoint")
    assert axes and 3 * g.n - 1 not in axes
