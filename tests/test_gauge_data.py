"""Gauge transforms stay data, and each base potential exponentiates its segment table once.

``add_gradient(A, rho)`` is gauge data: one base potential with no gauge
data and one summed gauge function, so ``add_gradient(transversal_gauge(B),
rho)`` is ``(A_c, rho_t + rho)``.  Its circulation is ``Gamma^base([a, b]) +
rho(b) - rho(a)`` in the point engine.  On the lattice it is the diagonal
unitary ``e^{i rho(Q)}``: every route reads the base's table (an affine
base's twist) and dresses its output with ``e^{i rho / hbar}``, so gauge
data never hold a table.  Each base keeps one memo, the read-only phases
``exp(-i Gamma)`` for the last ``(grid, exact rule)``, integrated and
exponentiated in one pass; no circulation table of kernel size is made.  These tests pin the memo (keyed
by the exact rule, the same read-only array again, replaced and released by
another grid or rule, bit-identical to a fresh table and bit for bit
``exp(-i Gamma)`` of the point engine's circulations, mirrored,
held by the base and never by the gauge data, no Gamma resident, read by
op_quantize at hbar = 1 only and left unset at other hbar), its memory
peak, the gauge-transformed circulations against the full quadrature of
the same evaluator (and the base's table, dressed, against them; the table
refuses gauge data), the quantization and the Weyl operator of a gauge
transform against a kernel written out from the transformed potential's
plain evaluator and against ``gauge_conjugate``, the finiteness check on
``rho`` in both engines, the exact ``rho`` part for a non-polynomial gauge
function, and the one place each route gains its phases.  The transversal
gauge of the Gaussian field is itself gauge data over a closed form, so its
case is checked against the order-48 flux from the origin.
"""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl.errors import InputError, NumericError

QUAD = F.Quadrature(16)
Q48 = F.Quadrature(48)


def plain(A):
    """The same evaluator and declared degree, with no gauge data: the full quadrature."""
    return F.VectorPotential(A.dim, A.eval, degree_hint=A.degree_hint, _validate=False)


def poly_rho(dim, terms):
    return F.ScalarPotential.from_poly(F.PolynomialMap(dim, [terms]))


def sin_cos_rho():
    """``rho = 0.3 sin(x_1) cos(x_2)``: no polynomial, so no declared degree."""
    return F.ScalarPotential(
        2, lambda x: 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1]),
        lambda x: 0.3 * np.stack([np.cos(x[..., 0]) * np.cos(x[..., 1]),
                                  -np.sin(x[..., 0]) * np.sin(x[..., 1])], axis=-1),
        name="sincos")


def gaussian_field():
    return F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2))


def transversal_gaussian():
    return F.transversal_gauge(gaussian_field(), QUAD)


def mirrored_circulation(A, g):
    """Point-engine circulations of the lattice pairs on and above the diagonal, mirrored.

    The segment table's oracle: its ``exp(-1j * ...)`` is the table bit for bit.
    """
    pts = g.config_points()
    upper = np.triu(F.circulation(A, pts[:, None], pts[None], QUAD), 1)
    return upper - upper.T


def full_quadrature(A, rhos, g):
    return mirrored_circulation(plain(A), g)


def flux_plus_gauge(A, rhos, g):
    """Flux of the field through ``<0, x, y>`` at order 48, plus the lattice differences of rho.

    The transversal gauge's own table is gauge data over a closed form, so
    its order-16 ray quadrature is another definition, not the oracle.
    """
    pts = g.config_points()
    r = sum(rho(pts) for rho in rhos)
    flux = F.flux_triangle(gaussian_field(), np.zeros(2), pts[:, None], pts[None],
                           F.Quadrature(48))
    return flux + (r[None] - r[:, None])


def rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------
# the memo

def test_second_call_returns_the_same_read_only_table():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    lam = G.segment_phase_matrix(A, g, QUAD)
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0, 1] = 1.0
    # the exact rule is the key: another cap with the same derived rule hits
    assert A._phase[0] == (g, F._exact_rule(QUAD, A)) and A._phase[1] is lam
    assert G.segment_phase_matrix(A, g, F.Quadrature(8)) is lam


def test_another_grid_or_rule_replaces_the_one_entry():
    # the gauge data's routes build the one entry on the base potential
    g, g2 = G.PhaseSpaceGrid(2, 8, 4.0), G.PhaseSpaceGrid(2, 6, 4.0)
    A = transversal_gaussian()
    base = F._gauge_base(A)
    G.segment_phase_matrix(A, g, QUAD)
    first = base._phase[1]
    assert base._phase[0] == (g, QUAD)
    G.segment_phase_matrix(A, g2, QUAD)
    assert base._phase[0] == (g2, QUAD) and base._phase[1].shape == (36, 36)
    again = G.segment_phase_matrix(base, g, QUAD)
    assert again is not first and np.array_equal(again, first)
    G.segment_phase_matrix(A, g, F.Quadrature(12))
    assert base._phase[0] == (g, F.Quadrature(12))
    assert not np.array_equal(base._phase[1], first)
    # the gauge data itself never holds a table
    assert A._phase is None


@pytest.mark.parametrize("make", [
    lambda: F.symmetric_gauge(1.0),
    transversal_gaussian,
    lambda: F.add_gradient(transversal_gaussian(), sin_cos_rho()),
], ids=["symmetric", "transversal_gaussian", "gauge_transformed"])
def test_memo_hit_is_bit_identical_to_a_fresh_table(make):
    # the table a route leaves on the base, hit again, against a fresh base's
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = make()
    base = F._gauge_base(A)
    G.segment_phase_matrix(A, g, QUAD)
    if base is not A:
        assert A._phase is None
    hit = G.segment_phase_matrix(base, g, QUAD)
    assert hit is base._phase[1]
    assert np.array_equal(hit, G.segment_phase_matrix(F._gauge_base(make()), g, QUAD))


def test_phase_matrix_exponentiates_in_place(traced_peak):
    # a fresh potential: the 16 MiB result and one row block's circulations and
    # integration temporaries are the allocations (20.8 MiB measured); a kernel-sized
    # circulation table beside it needs about 24 MiB, an out-of-place exp about 40 MiB
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    A = F.symmetric_gauge(1.0)
    peak = traced_peak(lambda: G.segment_phase_matrix(A, g, QUAD))
    lam = G.segment_phase_matrix(A, g, QUAD)  # the memo the traced call left
    assert np.array_equal(lam, np.exp(-1j * mirrored_circulation(A, g)))
    assert peak <= 22 * 2**20


def test_second_phase_call_returns_the_same_read_only_table():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    lam = G.segment_phase_matrix(A, g, QUAD)
    assert G.segment_phase_matrix(A, g, QUAD) is lam
    # no circulation table is resident: the phases are the potential's one array,
    # and each table call builds a new, writable table
    held = [v for x in vars(A).values() for v in (x if isinstance(x, tuple) else (x,))]
    assert [v is lam for v in held if isinstance(v, np.ndarray)] == [True]
    fresh = G._segment_phases(A, g, QUAD)
    assert fresh is not lam and fresh.flags.writeable and np.array_equal(fresh, lam)
    # no potential: a new table of ones each call, which callers may write
    ones = G.segment_phase_matrix(None, g, QUAD)
    assert ones.flags.writeable and ones is not G.segment_phase_matrix(None, g, QUAD)


def test_another_grid_or_rule_replaces_the_phases_with_the_table():
    # the slot holds one table: a replaced one is released, not kept beside the new
    g, g2 = G.PhaseSpaceGrid(2, 8, 4.0), G.PhaseSpaceGrid(2, 6, 4.0)
    A = transversal_gaussian()
    base = F._gauge_base(A)
    old = weakref.ref(G.segment_phase_matrix(A, g, QUAD))
    G.segment_phase_matrix(A, g2, QUAD)
    assert old() is None
    old = weakref.ref(base._phase[1])
    G.segment_phase_matrix(A, g2, F.Quadrature(12))
    assert old() is None and base._phase[0] == (g2, F.Quadrature(12))


@pytest.mark.parametrize("make", [
    transversal_gaussian,
    lambda: F.add_gradient(transversal_gaussian(), sin_cos_rho()),
    lambda: F.add_gradient(F.symmetric_gauge(1.0), poly_rho(2, [(0.5, (1, 1))])),
], ids=["transversal_gaussian", "gauge_transformed", "symmetric_plus_gradient"])
def test_memoized_phases_are_the_exponentiated_table(make):
    # the base's memo is bit for bit exp(-i Gamma) of its table; the gauge data's
    # table is that memo dressed with e^{i rho(x)} e^{-i rho(y)}, its Hermitian part
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = make()
    base = F._gauge_base(A)
    lam = G.segment_phase_matrix(A, g, QUAD)
    memo = base._phase[1]
    assert np.array_equal(memo, np.exp(-1j * mirrored_circulation(base, g)))
    u = np.exp(1j * F._gauge_values(A, g.config_points(), QUAD))
    dressed = memo * u[:, None] * np.conj(u)
    assert np.array_equal(lam, 0.5 * (dressed + dressed.conj().T))
    assert A._phase is None


@pytest.mark.parametrize("tau", [0.5, 0.3])
def test_general_route_reads_the_phases_at_unit_hbar_only(tau):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9,
                          amplitude=1.0 + 0.5j)
    A = transversal_gaussian()
    base = F._gauge_base(A)
    kern = Q.op_quantize(f, A, g, Q.WeylParams(tau, 1.0), QUAD, mask=True).kernel
    assert base._phase is not None and A._phase is None
    # the base's phases by the expression the route evaluated before the memo, bit
    # for bit, then the gauge phases in the rows and their conjugates in the columns
    old = G._separable_kernel(f, g, tau, 1.0, True)
    phase = -1j * mirrored_circulation(base, g)
    phase /= 1.0
    np.multiply(np.exp(phase, out=phase), old, out=old)
    u = np.exp(1j * F._gauge_values(A, g.config_points(), QUAD))
    old *= u[:, None]
    old *= np.conj(u)
    assert np.array_equal(kern, old)
    # at hbar != 1 the route integrates the base's Gamma / hbar itself and keeps no memo
    A = transversal_gaussian()
    base = F._gauge_base(A)
    Q.op_quantize(f, A, g, Q.WeylParams(tau, 0.7), QUAD, mask=True)
    assert base._phase is None and A._phase is None


# ---------------------------------------------------------------------------
# gauge-transformed tables against the full quadrature

GAUGE_CASES = {
    "dim1-poly": lambda: (F.polynomial_potential(1, [[(0.2, (3,)), (-0.3, (1,))]]),
                          [poly_rho(1, [(0.1, (3,)), (0.4, (1,))])], 1, 12, full_quadrature),
    "dim2-symmetric": lambda: (F.symmetric_gauge(1.0),
                               [poly_rho(2, [(0.5, (1, 1)), (0.2, (3, 0))])], 2, 12,
                               full_quadrature),
    "dim2-transversal-gaussian": lambda: (
        transversal_gaussian(),
        [poly_rho(2, [(0.03, (2, 1)), (-0.02, (1, 2)), (0.01, (3, 0))])], 2, 12,
        flux_plus_gauge),
    "dim2-nested": lambda: (transversal_gaussian(),
                            [poly_rho(2, [(0.5, (1, 1))]), sin_cos_rho()], 2, 10,
                            full_quadrature),
    "dim3-poly": lambda: (F.linear_potential([[0.0, -0.5, 0.2], [0.5, 0.0, 0.0], [0.1, 0.3, 0.0]]),
                          [poly_rho(3, [(0.2, (1, 1, 1)), (-0.1, (0, 2, 0))]),
                           poly_rho(3, [(0.3, (0, 0, 2))])], 3, 4, full_quadrature),
}


@pytest.mark.parametrize("case", sorted(GAUGE_CASES))
def test_gauge_transformed_table_matches_full_quadrature(case):
    A, rhos, dim, n, oracle = GAUGE_CASES[case]()
    g = G.PhaseSpaceGrid(dim, n, 4.0)
    for rho in rhos:
        A = F.add_gradient(A, rho)
    # gauge data hold no table: their circulations are the point engine's
    pts = g.config_points()
    gamma = F.circulation(A, pts[:, None], pts[None], QUAD)
    assert rel_gap(gamma, oracle(A, rhos, g)) <= 1e-13
    # the routes read the base's phases, exp(-i Gamma) of its mirrored circulations
    # bit for bit, and dress them with rho(y) - rho(x); together they agree with the
    # point engine
    base = mirrored_circulation(F._gauge_base(A), g)
    assert np.array_equal(G._segment_phases(F._gauge_base(A), g, QUAD), np.exp(-1j * base))
    r = F._gauge_values(A, pts, QUAD)
    assert rel_gap(base + (r[None] - r[:, None]), gamma) <= 1e-13
    with pytest.raises(InputError):
        G._segment_phases(A, g, QUAD)
    assert A._phase is None


def test_gauge_transform_reuses_the_base_table():
    # the base holds the one phase table; the gauge data hold none
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    f = G.gaussian_symbol(2, x_width=1.0, p_width=0.9)
    A = transversal_gaussian()
    A2 = F.add_gradient(A, sin_cos_rho())
    base = F._gauge_base(A2)
    assert F._gauge_base(A) is base and F._gauge_base(base) is base
    Q.op_quantize(f, A2, g, quad=QUAD)
    lam = base._phase[1]
    assert base._phase[0] == (g, QUAD)
    Q.op_quantize(f, A, g, quad=QUAD)
    assert base._phase[1] is lam
    for P in (A, A2):
        assert P._phase is None


def plain_circulation(A, a, b):
    """Circulations of ``A``'s plain evaluator, with no gauge data: the independent side.

    The exact rule where the transformed potential declares a degree (a
    polynomial ``rho`` over a polynomial potential), order 48 otherwise.
    """
    return F.circulation(plain(A), a, b, QUAD if A.degree_hint is not None else Q48)


def plain_weyl_kernel(A, xi, g):
    """The Weyl operator at ``xi`` written out from ``plain_circulation``, zero-filled."""
    x, p = xi
    pts = g.config_points()
    ends = np.rint((pts + x) / g.h).astype(int) + g.n // 2
    inside = np.all((ends >= 0) & (ends < g.n), axis=-1)
    rows = np.flatnonzero(inside)
    phase = np.exp(-1j * (pts[rows] + 0.5 * x) @ p) * np.exp(
        -1j * plain_circulation(A, pts[rows], pts[rows] + x))
    m = np.zeros((g.size, g.size), dtype=complex)
    m[rows, np.ravel_multi_index(tuple(ends[rows].T), g.shape)] = phase
    return m / g.config_weight


@pytest.mark.parametrize("tau, hbar", [(0.5, 1.0), (0.5, 0.7), (0.3, 1.0), (0.3, 0.7)])
def test_quantization_of_the_gauge_transform_is_the_gauge_conjugate(tau, hbar):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = transversal_gaussian()
    rho = poly_rho(2, [(0.05, (2, 1)), (0.1, (1, 1))])
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=1.0, p_width=0.9,
                          amplitude=1.0 + 0.5j)
    params = Q.WeylParams(tau=tau, hbar=hbar)
    A2 = F.add_gradient(A, rho)
    direct = Q.op_quantize(f, A2, g, params, quad=QUAD).kernel
    # the independent side: the field-free kernel times exp(-i Gamma / hbar) of the
    # transformed potential's plain evaluator
    pts = g.config_points()
    plain_kernel = (Q.op_quantize(f, None, g, params, quad=QUAD).kernel
                    * np.exp(-1j * plain_circulation(A2, pts[:, None], pts[None]) / hbar))
    assert np.abs(direct - plain_kernel).max() <= 1e-13 * np.abs(plain_kernel).max()
    # at hbar != 1 the phase is exp(-i Gamma / hbar): conjugation by rho / hbar
    scaled = F.ScalarPotential(2, lambda x: rho(x) / hbar, rho.gradient)
    expect = Q.gauge_conjugate(Q.op_quantize(f, A, g, params, quad=QUAD), scaled).kernel
    assert np.abs(direct - expect).max() <= 1e-13 * np.abs(expect).max()


def test_weyl_operator_of_the_gauge_transform_is_the_gauge_conjugate():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A, rho = transversal_gaussian(), sin_cos_rho()
    xi = (np.array([2 * g.h, -g.h]), np.array([0.6, -0.3]))
    A2 = F.add_gradient(A, rho)
    direct = Q.weyl_matrix(A2, xi, g, QUAD).kernel
    plain_kernel = plain_weyl_kernel(A2, xi, g)
    assert np.abs(direct - plain_kernel).max() <= 1e-13 * np.abs(plain_kernel).max()
    expect = Q.gauge_conjugate(Q.weyl_matrix(A, xi, g, QUAD), rho).kernel
    assert np.abs(direct - expect).max() <= 1e-13 * np.abs(expect).max()


# ---------------------------------------------------------------------------
# the rho part

def test_nonfinite_gauge_function_is_refused_by_both_engines():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    bad = F.ScalarPotential(2, lambda x: np.where(x[..., 0] > 1.0, np.nan, 0.0),
                            lambda x: np.zeros(np.shape(x)))
    A2 = F.add_gradient(F.symmetric_gauge(1.0), bad)
    # the gradient is finite, so only the rho values can fail
    assert np.all(np.isfinite(A2.eval(g.config_points())))
    with pytest.raises(NumericError):
        G.segment_phase_matrix(A2, g, QUAD)
    with pytest.raises(NumericError):
        F.circulation(A2, np.zeros(2), np.array([2.0, 0.0]), QUAD)
    assert A2._phase is None


def test_non_polynomial_gauge_function_is_exact():
    # the rho part of a circulation is rho(b) - rho(a), not a quadrature of grad rho
    A = F.symmetric_gauge(1.0)
    rho = sin_cos_rho()
    A2 = F.add_gradient(A, rho)
    assert A2.degree_hint is None
    a, b = np.random.default_rng(7).uniform(-4.0, 4.0, size=(2, 500, 2))
    part = F.circulation(A2, a, b, QUAD) - F.circulation(A, a, b, QUAD)
    exact = rho(b) - rho(a)
    assert np.abs(part - exact).max() <= 1e-13 * np.abs(exact).max()
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    pts = g.config_points()
    r = rho(pts)
    table_part = (F.circulation(A2, pts[:, None], pts[None], QUAD)
                  - mirrored_circulation(A, g))
    assert np.abs(table_part - (r[None] - r[:, None])).max() <= 1e-13 * np.abs(r).max()


# ---------------------------------------------------------------------------
# one gauge mechanism

def test_gauge_functions_are_sampled_through_one_helper():
    # fields._gauge_values is the one sampler of a gauge function: the point engine
    # (_circulation_sum) reads it for real circulations, and every lattice route
    # through fields._gauge_phases.  The gauge data themselves are read in fields
    # alone, and the segment table has no gauge branch
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    samplers, readers, table_names = set(), set(), set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_gauge_values"):
                    samplers.add((path.name, fn.name))
                if isinstance(node, ast.Attribute) and node.attr == "_gauge":
                    readers.add(path.name)
                if (path.name, fn.name) == ("grid.py", "_segment_phases"):
                    table_names.add(getattr(node, "id", getattr(node, "attr", "")))
    assert samplers == {("fields.py", "_gauge_phases"), ("fields.py", "_circulation_sum")}
    assert readers == {"fields.py"}
    assert table_names and not any("gauge" in name for name in table_names)


def _functions(tree):
    """``(qualified name, node)`` of the module-level functions and class methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name + "." + item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def test_phases_are_gained_in_one_dressing_step_and_kept_in_one_slot():
    # grid._dress is where every kernel route gains or loses the lattice phases: only
    # it, the gauge data's own phase table and the two routes that integrate their own
    # circulations sample gauge phases.  The one memo slot is written by
    # segment_phase_matrix alone
    src = Path(__file__).resolve().parents[1] / "src" / "magweyl"
    callers, slots, tables = set(), set(), set()
    for path in sorted(src.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "_gauge_phases" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add((path.stem, name))
                if isinstance(node, ast.Attribute) and node.attr in ("_phase", "_table"):
                    (slots if node.attr == "_phase" else tables).add((path.stem, name))
    assert callers == {("grid", "_dress"), ("grid", "segment_phase_matrix"),
                       ("quantize", "_weyl_phase"), ("coupling", "_half_step_gauge")}
    assert slots == {("grid", "segment_phase_matrix"), ("fields", "VectorPotential.__init__")}
    assert not tables
