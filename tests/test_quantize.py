import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magweyl import coupling as C
from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl import symbols as S
from magweyl import verify as V
from magweyl.errors import DimensionMismatchError, InputError, OffLatticeError
from weyl_sum_oracle import weyl_operator_sum, weyl_trotter_diagnostic

QUAD = F.Quadrature(16)


def default_grid():
    return G.PhaseSpaceGrid(2, 16, 6.0)


# ---------------------------------------------------------------------------
# Weyl system action

def test_weyl_identity_at_origin():
    g = default_grid()
    u = G.gaussian_wavefunction(g, width=0.7)
    A = F.symmetric_gauge(1.0)
    out = Q.weyl_apply(A, (np.zeros(2), np.zeros(2)), u, QUAD)
    assert np.abs(out.values - u.values).max() < 1e-14


def test_weyl_pure_modulation():
    g = default_grid()
    u = G.gaussian_wavefunction(g, width=0.7)
    A = F.symmetric_gauge(1.0)
    p = np.array([0.7, -0.4])
    out = Q.weyl_apply(A, (np.zeros(2), p), u, QUAD)
    expect = np.exp(-1j * g.config_points() @ p).reshape(g.shape) * u.values
    assert np.abs(out.values - expect).max() < 1e-13


def test_weyl_nonmagnetic_formula_oracle():
    # [W(q,p)u](y) = e^{-i(q/2+y).p} u(y+q), zero-filled off the box
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    u = G.gaussian_wavefunction(g, width=0.8)
    q = np.array([2 * g.h])
    p = np.array([1.3])
    out = Q.weyl_apply(None, (q, p), u, QUAD)
    y = g.config_axis
    shifted = np.zeros(g.n, dtype=complex)
    shifted[:-2] = u.values[2:]
    expect = np.exp(-1j * (0.5 * q[0] + y) * p[0]) * shifted
    assert np.abs(out.values - expect).max() < 1e-13


def test_weyl_rejects_off_lattice_translation():
    g = default_grid()
    u = G.gaussian_wavefunction(g, width=0.7)
    with pytest.raises(OffLatticeError):
        Q.weyl_apply(None, (np.array([0.3, 0.0]), np.zeros(2)), u, QUAD)
    for bad in (np.nan, np.inf):
        with pytest.raises(OffLatticeError):
            Q.weyl_apply(None, (np.array([bad, 0.0]), np.zeros(2)), u, QUAD)


def test_weyl_norm_preservation_on_interior_vectors():
    g = default_grid()
    u = G.gaussian_wavefunction(g, width=0.6)
    A = F.symmetric_gauge(1.0)
    out = Q.weyl_apply(A, (np.array([g.h, -g.h]), np.array([0.9, 0.2])), u, QUAD)
    assert abs(out.norm() - u.norm()) < 1e-8


@pytest.mark.parametrize("build", [
    lambda g, p: Q.weyl_apply(None, (np.zeros(g.dim), p), G.gaussian_wavefunction(g, width=0.7)),
    lambda g, p: Q.weyl_matrix(None, (np.zeros(g.dim), p), g),
    lambda g, p: Q.momentum_modulation(p, g),
    lambda g, p: weyl_trotter_diagnostic(
        None, (np.zeros(g.dim), p), G.gaussian_wavefunction(g, width=0.7), 1),
], ids=["weyl_apply", "weyl_matrix", "momentum_modulation", "weyl_trotter_diagnostic"])
def test_weyl_rejects_wrong_momentum_shape(build):
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    with pytest.raises(DimensionMismatchError):
        build(g, np.zeros(3))


def test_weyl_matrix_matches_apply():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    u = G.gaussian_wavefunction(g, width=0.6)
    A = F.symmetric_gauge(0.8)
    xi = (np.array([g.h, 2 * g.h]), np.array([0.5, -0.3]))
    direct = Q.weyl_apply(A, xi, u, QUAD)
    via_matrix = Q.weyl_matrix(A, xi, g, QUAD).apply(u)
    assert np.abs(direct.values - via_matrix.values).max() < 1e-12


def test_weyl_scaling_parameter_identity():
    # the one-parameter family satisfies W_t(xi) = W(t xi) for lattice-commensurate t
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    u = G.gaussian_wavefunction(g, width=0.8)
    A = F.polynomial_potential(1, [[(0.3, (2,))]])
    x, p = np.array([g.h]), np.array([0.9])
    t = 2.0
    lhs = Q.weyl_apply(A, (t * x, t * p), u, QUAD)
    y = g.config_axis
    shifted = np.zeros(g.n, dtype=complex)
    shifted[: g.n - 2] = u.values[2:]
    phase = np.exp(-1j * t * (y + t * x[0] / 2.0) * p[0])
    circ = F.circulation(A, y[:, None], y[:, None] + t * x[0], QUAD)
    rhs = phase * np.exp(-1j * circ) * shifted
    assert np.abs(lhs.values - rhs).max() < 1e-12


def test_magnetic_translation_and_modulation_special_cases():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    x = np.array([g.h, 0.0])
    U = Q.magnetic_translation(A, x, g, QUAD)
    u = G.gaussian_wavefunction(g, width=0.6)
    out = U.apply(u)
    # [U(x)u](y) = Lambda(y; -x) u(y - x)
    pts = g.config_points()
    lam = np.exp(-1j * F.circulation(A, pts, pts - x, QUAD)).reshape(g.shape)
    shifted = np.zeros(g.shape, dtype=complex)
    shifted[1:, :] = u.values[:-1, :]
    assert np.abs(out.values - lam * shifted).max() < 1e-12
    V = Q.momentum_modulation(np.array([0.5, 0.0]), g)
    assert np.abs(np.diag(V.operator_matrix)
                  - np.exp(-1j * pts @ np.array([0.5, 0.0]))).max() < 1e-13


def test_translation_modulation_commutation():
    # U(x) V(p) = e^{i x.p} V(p) U(x), exact at matrix level
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    x = np.array([g.h, -g.h])
    p = np.array([0.7, 0.3])
    U = Q.magnetic_translation(A, x, g, QUAD).operator_matrix
    V = Q.momentum_modulation(p, g).operator_matrix
    lhs = U @ V
    rhs = np.exp(1j * x @ p) * V @ U
    assert np.abs(lhs - rhs).max() < 1e-12


def test_translation_composition_cocycle():
    # U(x) U(y) = Omega(Q; -x, -y) U(x + y) on interior vectors
    g = default_grid()
    B = F.constant_field_2d(1.0)
    A = F.symmetric_gauge(1.0)
    u = G.gaussian_wavefunction(g, width=0.7)
    x = np.array([g.h, 0.0])
    y = np.array([0.0, 2 * g.h])
    lhs = Q.magnetic_translation(A, x, g, QUAD).apply(
        Q.magnetic_translation(A, y, g, QUAD).apply(u))
    omega = F.flux_phase(B, g.config_points(), -x, -y, QUAD).reshape(g.shape)
    rhs = omega * Q.magnetic_translation(A, x + y, g, QUAD).apply(u).values
    assert np.abs(lhs.values - rhs).max() / np.abs(u.values).max() < 1e-10


# ---------------------------------------------------------------------------
# quantization

def test_quantize_constant_symbol_is_identity():
    g = default_grid()
    A = F.symmetric_gauge(1.0)
    k = Q.op_quantize(G.constant_symbol(2), A, g)
    expect = np.eye(g.size) / g.config_weight
    assert np.abs(k.kernel - expect).max() * g.config_weight < 1e-10


def test_quantize_position_symbol_any_tau_any_gauge():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.landau_gauge(1.0)
    f = G.x_only_symbol(2, lambda x: np.exp(-0.3 * (x**2).sum(axis=-1)))
    pts = g.config_points()
    expect = np.diag(np.exp(-0.3 * (pts**2).sum(axis=-1))) / g.config_weight
    for tau in (0.5, 0.0, 1.0, 0.3):
        k = Q.op_quantize(f, A, g, Q.WeylParams(tau=tau))
        assert np.abs(k.kernel - expect).max() * g.config_weight < 1e-10, tau


def test_quantize_hermitian_for_real_symbols():
    g = default_grid()
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_center=[0.4, -0.2], p_center=[0.3, 0.0],
                          x_width=0.9, p_width=1.1)
    k = Q.op_quantize(f, A, g)
    assert k.hermiticity_defect() < 1e-12


def test_quantize_adjoint_is_conjugate_symbol():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = None
    f = G.SymbolEvaluator(1, lambda x, p: np.exp(-x[..., 0] ** 2 - p[..., 0] ** 2
                                                 + 1j * x[..., 0] * p[..., 0]))
    k = Q.op_quantize(f, A, g)
    kc = Q.op_quantize(f.conj(), A, g)
    assert np.abs(k.kernel.conj().T - kc.kernel).max() < 1e-12 * np.abs(k.kernel).max()


def test_quantize_tau_adjoint_pairing():
    # op(f, tau)^* = op(conj f, 1 - tau); holds exactly at kernel level
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = F.polynomial_potential(1, [[(0.4, (2,))]])
    f = G.gaussian_symbol(1, x_center=[0.3], p_center=[-0.2], x_width=0.8, p_width=0.9)
    k = Q.op_quantize(f, A, g, Q.WeylParams(tau=0.3))
    kstar = Q.op_quantize(f.conj(), A, g, Q.WeylParams(tau=0.7))
    assert np.abs(k.kernel.conj().T - kstar.kernel).max() < 1e-12 * np.abs(k.kernel).max()


@settings(max_examples=30, deadline=None, database=None)
@given(dim=st.sampled_from([1, 2]), half_n=st.integers(1, 4),
       tau=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
       hbar=st.one_of(st.just(1.0), st.floats(0.3, 2.0)),
       b=st.one_of(st.none(), st.floats(-2.0, 2.0)), seed=st.integers(0, 2**32 - 1))
def test_adjoint_identity_property(dim, half_n, tau, hbar, b, seed):
    # op(f, tau)^* = op(conj f, 1 - tau) for every ordering, Planck constant and gauge
    g = G.PhaseSpaceGrid(dim, 2 * half_n, 4.0)
    if b is None:
        A = None
    elif dim == 2:
        A = F.symmetric_gauge(b)
    else:
        A = F.polynomial_potential(1, [[(b, (2,))]])
    rng = np.random.default_rng(seed)
    xc, pc = rng.uniform(-1.0, 1.0, size=(2, dim))
    xw, pw = rng.uniform(0.5, 1.5, size=2)
    amp, chirp = rng.normal(size=2) + 1j * rng.normal(size=2)

    def fn(x, p):
        return amp * np.exp(-((x - xc) ** 2).sum(axis=-1) / (2 * xw**2)
                            - ((p - pc) ** 2).sum(axis=-1) / (2 * pw**2)
                            + 0.3 * chirp * ((x - xc) * (p - pc)).sum(axis=-1))

    f = G.SymbolEvaluator(dim, fn)
    k = Q.op_quantize(f, A, g, Q.WeylParams(tau=tau, hbar=hbar), QUAD)
    kstar = Q.op_quantize(f.conj(), A, g, Q.WeylParams(tau=1.0 - tau, hbar=hbar), QUAD)
    assert np.abs(k.kernel.conj().T - kstar.kernel).max() <= 1e-12 * np.abs(k.kernel).max()


def test_quantize_general_route_matches_kernel_route_at_defaults():
    # a factored symbol takes the separable fill on both routes: compare with the
    # windowed map of the same function given by `fn`
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = F.polynomial_potential(1, [[(0.4, (2,))]])
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.9)
    k_fast = G.kernel_from_symbol(unfactored(f), A, g, QUAD)
    k_gen = Q.op_quantize(f, A, g, Q.WeylParams(0.5, 1.0), QUAD, mask=True)
    assert np.abs(k_fast.kernel - k_gen.kernel).max() < 1e-11 * np.abs(k_fast.kernel).max()


@pytest.mark.parametrize("tau,hbar", [(0.5, 1.0), (0.3, 1.0), (0.5, 0.7)])
def test_each_input_reaches_its_documented_fill(monkeypatch, tau, hbar):
    # the fill table of the grid module notes: factors -> separable at every tau and
    # hbar; `fn` -> windowed at tau = 1/2, hbar = 1, per-difference elsewhere; a
    # midpoint or standard table -> windowed at the defaults and refused elsewhere
    calls = []
    for name in ("_separable_kernel", "_windowed_kernel", "_per_difference_kernel"):
        monkeypatch.setattr(G, name, lambda *a, _fill=getattr(G, name), _name=name:
                            calls.append(_name) or _fill(*a))
    g = G.PhaseSpaceGrid(1, 6, 3.0)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.9)
    default = tau == 0.5 and hbar == 1.0
    params = Q.WeylParams(tau, hbar)
    for sym, fill in ((f, "_separable_kernel"), (unfactored(f), "_windowed_kernel" if default
                                                 else "_per_difference_kernel"),
                      (f.sample(g, "midpoint"), "_windowed_kernel"),
                      (f.sample(g, "standard"), "_windowed_kernel")):
        calls.clear()
        if isinstance(sym, G.SymbolGrid) and not default:
            with pytest.raises(InputError):
                Q.op_quantize(sym, None, g, params, QUAD)
            assert calls == []
            continue
        Q.op_quantize(sym, None, g, params, QUAD)
        assert calls == [fill]
        if not default:
            continue
        if getattr(sym, "kind", None) == "standard":  # the kernel map reads midpoint tables only
            with pytest.raises(InputError):
                G.kernel_from_symbol(sym, None, g, QUAD)
            assert calls == [fill]
        else:
            G.kernel_from_symbol(sym, None, g, QUAD)
            assert calls == [fill, fill]


# ---------------------------------------------------------------------------
# separable symbols: the factored general-tau route against the per-difference route

def unfactored(f):
    """The same symbol without its factors: the windowed map at tau = 1/2, hbar = 1, the
    per-difference route elsewhere."""
    return G.SymbolEvaluator(f.dim, f.fn)


def momentum_monomial(dim, powers, cutoff, coeff=1.0, x_coeff=None):
    """``coeff x_coeff(x) p^powers`` with a Gaussian momentum cutoff: a one-term polynomial."""
    return C.PolynomialSymbol(dim, [(coeff, tuple(powers), x_coeff)]).with_momentum_cutoff(cutoff)


def preset_centers(dim):
    return np.random.default_rng(dim).uniform(-1, 1, (2, dim))


def preset_symbols(dim):
    xc, pc = preset_centers(dim)
    kinetic = C.PolynomialSymbol(dim, [(1.0, (2,) + (0,) * (dim - 1)),
                                       (0.5 - 0.2j, (1,) * dim, lambda x: np.cos(x[..., 0]))])
    return {
        "gaussian": G.gaussian_symbol(dim, x_center=xc, p_center=pc, x_width=0.8, p_width=1.2,
                                      amplitude=0.6 - 0.8j),
        "momentum_polynomial": momentum_monomial(dim, (1,) + (2,) * (dim - 1), 1.3, coeff=0.4j,
                                                 x_coeff=lambda x: x[..., -1]),
        "constant": G.constant_symbol(dim, 0.3 + 0.1j),
        "x_only": G.x_only_symbol(dim, lambda x: np.exp(-(x**2).sum(axis=-1))),
        "cutoff_polynomial": kinetic.with_momentum_cutoff(1.5),
    }


def preset_closed_forms(dim):
    """The presets of ``preset_symbols`` as closed forms in (x, p), independent of their factors."""
    xc, pc = preset_centers(dim)

    def cutoff(p, scale):
        return np.exp(-(p**2).sum(axis=-1) / (2.0 * scale**2))

    return {
        "gaussian": lambda x, p: (0.6 - 0.8j) * np.exp(-((x - xc) ** 2).sum(axis=-1) / 1.28
                                                      - ((p - pc) ** 2).sum(axis=-1) / 2.88),
        "momentum_polynomial": lambda x, p: (0.4j * x[..., -1] * p[..., 0]
                                             * (p[..., 1:] ** 2).prod(axis=-1) * cutoff(p, 1.3)),
        "constant": lambda x, p: 0.3 + 0.1j,
        "x_only": lambda x, p: np.exp(-(x**2).sum(axis=-1)),
        "cutoff_polynomial": lambda x, p: (p[..., 0] ** 2 + (0.5 - 0.2j) * np.cos(x[..., 0])
                                           * p.prod(axis=-1)) * cutoff(p, 1.5),
    }


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symbol_factors_reproduce_fn(dim):
    # every preset and the +, c * and conj of presets match closed forms written out here
    syms, forms = preset_symbols(dim), preset_closed_forms(dim)
    built = dict(syms, sum=syms["gaussian"] + syms["cutoff_polynomial"] + syms["constant"],
                 scaled=(0.3 - 2.0j) * syms["momentum_polynomial"],
                 conj=(syms["gaussian"] + syms["x_only"]).conj())
    closed = dict(forms, sum=lambda x, p: (forms["gaussian"](x, p)
                                           + forms["cutoff_polynomial"](x, p)
                                           + forms["constant"](x, p)),
                  scaled=lambda x, p: (0.3 - 2.0j) * forms["momentum_polynomial"](x, p),
                  conj=lambda x, p: np.conj(forms["gaussian"](x, p) + forms["x_only"](x, p)))
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, (5, 1, dim))
    p = rng.uniform(-2.0, 2.0, (1, 6, dim))
    for name, f in built.items():
        assert f.factors is not None, name
        got, expect = f(x, p), closed[name](x, p)
        assert got.shape == (5, 6), name
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max(), name
    assert unfactored(syms["gaussian"]).factors is None
    assert (syms["gaussian"] + unfactored(syms["x_only"])).factors is None
    A = F.symmetric_gauge(1.0) if dim == 2 else F.zero_potential(dim)
    assert C.minimal_coupling_evaluator(syms["gaussian"], A).factors is None


def test_symbol_takes_exactly_one_definition():
    def fn(x, p):
        return np.exp(-(x**2).sum(axis=-1) - (p**2).sum(axis=-1))

    with pytest.raises(InputError, match="exactly one"):
        G.SymbolEvaluator(1, fn, factors=G.gaussian_symbol(1).factors)
    with pytest.raises(InputError, match="exactly one"):
        G.SymbolEvaluator(1)


def test_gaussian_symbol_checks_its_centers():
    with pytest.raises(DimensionMismatchError, match="'x_center'"):
        G.gaussian_symbol(2, x_center=[0.1, 0.2, 0.3])
    with pytest.raises(DimensionMismatchError, match="'p_center'"):
        G.gaussian_symbol(2, p_center=[0.1])
    with pytest.raises(DimensionMismatchError, match="'x_center'"):
        G.gaussian_symbol(1, x_center=0.5)


def test_adding_symbols_of_different_dimensions_is_refused():
    with pytest.raises(DimensionMismatchError):
        G.gaussian_symbol(2) + G.gaussian_symbol(1)
    with pytest.raises(DimensionMismatchError):
        unfactored(G.constant_symbol(1)) + G.x_only_symbol(3, lambda x: x[..., 0])


def potentials(dim):
    """None, a polynomial potential of a nonconstant field in dim > 1 (A_a = (0.3 + 0.1 a)
    x_{a+1} + 0.2 x_1^2, indices mod dim), and in 2-D the transversal gauge of a
    Gaussian field and a gauge transform of it."""
    out = {"none": None, "polynomial": F.polynomial_potential(dim, [
        [(0.3 + 0.1 * a, tuple(int(j == (a + 1) % dim) for j in range(dim))),
         (0.2, (2,) + (0,) * (dim - 1))] for a in range(dim)])}
    if dim == 2:
        At = F.transversal_gauge(F.gaussian_field_2d(1.2, 1.4, (0.3, -0.2)), QUAD)
        rho = F.ScalarPotential(
            2, lambda x: 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1]),
            lambda x: 0.3 * np.stack([np.cos(x[..., 0]) * np.cos(x[..., 1]),
                                      -np.sin(x[..., 0]) * np.sin(x[..., 1])], axis=-1))
        out.update(transversal=At, gradient=F.add_gradient(At, rho))
    return out


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 6), (3, 4)])
def test_separable_route_matches_per_difference_route(dim, n):
    # every ordering, both Planck constants, both masks, with and without a potential
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    syms = preset_symbols(dim)
    f = syms["gaussian"] + 0.7j * syms["cutoff_polynomial"] + syms["x_only"]
    A = potentials(dim)["polynomial"]
    for tau, hbar, mask, A in itertools.product([0.0, 0.3, 0.5, 0.75, 1.0], [1.0, 0.7],
                                                [True, False], [None, A]):
        params = Q.WeylParams(tau, hbar)
        fast = Q.op_quantize(f, A, g, params, QUAD, mask=mask).kernel
        ref = Q.op_quantize(unfactored(f), A, g, params, QUAD, mask=mask).kernel
        assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max(), (tau, hbar, mask, A)


@settings(max_examples=30, deadline=None, database=None)
@given(dim=st.sampled_from([1, 2]), half_n=st.integers(1, 4), tau=st.floats(0.0, 1.0),
       hbar=st.floats(0.3, 2.0), mask=st.booleans(), b=st.one_of(st.none(), st.floats(-2.0, 2.0)),
       seed=st.integers(0, 2**32 - 1))
def test_separable_route_property(dim, half_n, tau, hbar, mask, b, seed):
    # a random sum of presets with factors quantizes as the same function without them
    g = G.PhaseSpaceGrid(dim, 2 * half_n, 4.0)
    A = None if b is None else (F.symmetric_gauge(b) if dim == 2
                                else F.polynomial_potential(1, [[(b, (2,))]]))
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = (c[0] * G.gaussian_symbol(dim, x_center=rng.uniform(-1, 1, dim),
                                  p_center=rng.uniform(-1, 1, dim),
                                  x_width=rng.uniform(0.5, 1.5), p_width=rng.uniform(0.5, 1.5))
         + c[1] * momentum_monomial(dim, rng.integers(0, 3, dim), rng.uniform(0.5, 2.0))
         + (c[2] * G.x_only_symbol(dim, lambda x: np.cos(x.sum(axis=-1)))).conj())
    params = Q.WeylParams(tau, hbar)
    fast = Q.op_quantize(f, A, g, params, QUAD, mask=mask).kernel
    ref = Q.op_quantize(unfactored(f), A, g, params, QUAD, mask=mask).kernel
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


def plain_factors(f):
    """The same factors wrapped as plain callables: the separable fill's row-block gather."""
    return G.SymbolEvaluator(f.dim, factors=[((lambda x, g=g: g(x)), (lambda p, h=h: h(p)))
                                             for g, h in f.factors])


def axis_product_terms(dim, count):
    """A sum of ``count`` axis-product terms with complex amplitudes."""
    rng = np.random.default_rng([dim, count])
    terms = [(0.6 - 0.8j) * G.gaussian_symbol(dim, rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim),
                                              0.9, 1.1, amplitude=0.3 + 0.4j),
             momentum_monomial(dim, rng.integers(0, 3, dim), 1.3, coeff=0.5 + 0.7j),
             G.constant_symbol(dim, -0.2 + 0.1j).conj()]
    return reduce(lambda a, b: a + b, terms[:count])


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 6), (3, 4)])
def test_kronecker_fill_matches_the_gather_fill(monkeypatch, dim, n, count):
    # axis-product terms fill as Kronecker products: the same kernel as the row-block
    # gather of the same factors given as plain callables, at every tau, hbar and mask;
    # with an x-only term the two fills add into one kernel
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    f = axis_product_terms(dim, count)
    mixed = f + G.x_only_symbol(dim, lambda x: np.cos(x[..., 0]))
    calls = []
    kron_sum = G._kron_sum
    monkeypatch.setattr(G, "_kron_sum", lambda mats: calls.append(len(mats)) or kron_sum(mats))
    for tau, hbar, mask in itertools.product([0.3, 0.5], [1.0, 0.7], [True, False]):
        for sym in (f, mixed):
            calls.clear()
            fast = G._separable_kernel(sym, g, tau, hbar, mask)
            assert calls == [count]
            ref = G._separable_kernel(plain_factors(sym), g, tau, hbar, mask)
            assert calls == [count]
            assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max(), (tau, hbar, mask)


def test_preset_factors_are_axis_products():
    # each preset's factors are products over the axes, but for a function of x its
    # caller supplies, and +, c * and conj keep them so: a preset that lost this would
    # silently leave the Kronecker fill and the per-axis coupling route
    def user(x):
        return np.cos(x[..., 0])

    for dim in (1, 2, 3):
        kinetic = C.PolynomialSymbol(dim, [(1.5, (2,) + (0,) * (dim - 1)), (0.5j, (1,) * dim)])
        presets = [G.gaussian_symbol(dim, amplitude=0.3 - 0.1j), G.constant_symbol(dim, 0.5j),
                   kinetic.with_momentum_cutoff(1.2)]
        with_user = [G.x_only_symbol(dim, user),
                     momentum_monomial(dim, (1,) * dim, 1.2, x_coeff=user)]
        for group, factors in ((presets, slice(None)), (with_user, slice(1, None))):
            built = group + [group[0] + group[1], (0.3 - 2.0j) * group[1], group[-1].conj(),
                             (2.0 * (group[0] + group[-1])).conj()]
            for f in built:
                for term in f.factors:
                    for factor in term[factors]:
                        assert isinstance(factor, S._AxisProduct) and len(factor.fns) == dim


@pytest.mark.parametrize("mask", [True, False])
@pytest.mark.parametrize("dim,n", [(1, 2), (1, 6), (1, 8), (2, 2), (2, 6), (2, 8),
                                   (3, 2), (3, 6), (3, 8)])
def test_kernel_map_separable_fill_matches_windowed_map(dim, n, mask):
    # at tau = 1/2 a factored symbol takes the separable fill, the same function
    # given by `fn` the windowed map; n = 6 has an odd n/2
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    syms = preset_symbols(dim)
    syms["sum"] = syms["gaussian"] + 0.7j * syms["cutoff_polynomial"] + syms["x_only"]
    for (name, f), (gauge, A) in itertools.product(syms.items(),
                                                   potentials(dim).items()):
        fast = G.kernel_from_symbol(f, A, g, QUAD, mask=mask).kernel
        ref = G.kernel_from_symbol(unfactored(f), A, g, QUAD, mask=mask).kernel
        assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max(), (name, gauge)


@pytest.mark.parametrize("kind", ["gaussian", "kinetic"])
def test_kernel_map_separable_fill_memory_peak(traced_peak, kind):
    # dim 2, n=32: the 16 MiB kernel and one row block; no midpoint sample table
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    if kind == "gaussian":
        f, mask = G.gaussian_symbol(2, x_width=0.9, p_width=1.1), True
    else:  # the kinetic preset of the CLI, unmasked as there
        f = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))]).with_momentum_cutoff(30.0)
        mask = False
    assert traced_peak(lambda: G.kernel_from_symbol(f, None, g, QUAD, mask=mask)) <= 24 * 2**20


@pytest.mark.parametrize("method", ["hermiticity_defect", "eigenvalues"])
def test_spectrum_checks_memory_peak(traced_peak, method):
    # dim 2, n=32: the kinetic kernel of the CLI is 16 MiB; the Hermiticity
    # check works in row blocks and the eigen-solve scales the spectrum, not a
    # weighted copy of the kernel (each made 32 MiB of temporaries)
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    f = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))]).with_momentum_cutoff(30.0)
    K = Q.op_quantize(f, F.symmetric_gauge(1.0), g, quad=QUAD, mask=False)
    assert traced_peak(getattr(K, method)) <= 4 * 2**20


def test_affine_quantization_memory_budget(traced_peak):
    # dim 2, n=32, symmetric gauge: a preset's kernel is its output alone, and the
    # twist dress adds its two (n, n^2) tables (1.07 kernels measured; with the phase
    # table it replaces, 2.34).  The spectrum pipeline adds the defect's row-block
    # temporaries (1.13); LAPACK's copy in the eigen-solve is not traced.  The small
    # call first takes the one-time lazy imports out of the figure
    kernel = 16 * 2**20
    f = G.gaussian_symbol(2, x_center=[0.3, -0.2], x_width=1.1, p_width=0.9)
    Q.op_quantize(f, F.symmetric_gauge(1.0), G.PhaseSpaceGrid(2, 4, 8.0), quad=QUAD)
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    assert traced_peak(lambda: Q.op_quantize(f, F.symmetric_gauge(1.0), g, quad=QUAD)) \
        <= 1.1 * kernel
    kinetic = C.PolynomialSymbol(2, [(1.0, (2, 0)), (1.0, (0, 2))]).with_momentum_cutoff(30.0)

    def spectrum():  # as the CLI's spectrum command
        K = Q.op_quantize(kinetic, F.symmetric_gauge(1.0), g, quad=QUAD, mask=False)
        K.hermiticity_defect()
        K.eigenvalues(hermitian_tol=None)

    assert traced_peak(spectrum) <= 2.1 * kernel


def test_separable_route_memory_peak(traced_peak):
    # dim 2, n=32: a kernel is 16 MiB; the route keeps the kernel, the segment
    # circulations and their phase, and row-block temporaries: at most 4 kernels
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    f = (G.gaussian_symbol(2, x_center=[0.3, -0.2], amplitude=0.6 + 0.8j)
         + G.gaussian_symbol(2, p_center=[0.2, 0.1], x_width=1.2, amplitude=-0.3j))
    A = F.symmetric_gauge(1.0)
    peak = traced_peak(lambda: Q.op_quantize(f, A, g, Q.WeylParams(tau=0.3), QUAD))
    assert peak <= 64 * 2**20


def test_quantize_scaled_planck_constant_basics():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = F.polynomial_potential(1, [[(0.4, (2,))]])
    params = Q.WeylParams(hbar=0.5)
    k1 = Q.op_quantize(G.constant_symbol(1), A, g, params)
    expect = np.eye(g.size) / g.config_weight
    assert np.abs(k1.kernel - expect).max() * g.config_weight < 1e-10
    f = G.x_only_symbol(1, lambda x: np.cos(x[..., 0]))
    k2 = Q.op_quantize(f, A, g, params)
    diag = np.cos(g.config_axis) / g.config_weight
    assert np.abs(k2.kernel - np.diag(diag)).max() * g.config_weight < 1e-10
    k3 = Q.op_quantize(f, A, g, Q.WeylParams(hbar=1.0))
    k4 = Q.op_quantize(f, A, g)
    assert np.abs(k3.kernel - k4.kernel).max() < 1e-12 / g.config_weight


def test_weyl_sum_route_close_to_kernel_route():
    # the Weyl-system sum truncates translations at the box, the kernel map
    # periodizes the far corners; the two agree as operators on interior states
    g = default_grid()
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_width=1.1, p_width=0.9)
    table = f.sample(g, "standard")
    k_sum = Q.op_quantize(table, A, g)
    k_ref = Q.op_quantize(f, A, g)
    u = G.gaussian_wavefunction(g, width=0.8)
    d = k_sum.apply(u).values - k_ref.apply(u).values
    assert np.linalg.norm(d) / np.linalg.norm(k_ref.apply(u).values) < 1e-4
    # the sum makes no box-periodized difference tail, so it has no unmasked form
    with pytest.raises(InputError):
        Q.op_quantize(table, A, g, mask=False)


def test_weyl_sum_route_is_the_weighted_weyl_operator_sum():
    # loop reference for the quantization of a standard table: the Weyl-system
    # integrand times the zero-filled Weyl operators, one lattice point at a time
    g = G.PhaseSpaceGrid(2, 4, 2.0)
    A = F.transversal_gauge(F.gaussian_field_2d(1.2, 1.4), QUAD)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=0.9, p_width=1.0,
                          amplitude=1.0 + 0.3j)
    table = f.sample(g, "standard")
    ref = weyl_operator_sum(table, A, QUAD)
    got = Q.op_quantize(table, A, g, quad=QUAD).operator_matrix
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("magnetic", [False, True])
@pytest.mark.parametrize("dim,n", [(1, 2), (1, 8), (2, 2), (2, 4), (3, 2)])
def test_standard_table_quantization_is_the_weyl_operator_sum(dim, n, magnetic):
    # random complex tables that do not decay: the momentum-box edge carries as
    # much as any row, so reading the interpolant with a symmetrized edge
    # frequency (half at +n/2 dp, half at -n/2 dp) misses the Weyl sum
    g = G.PhaseSpaceGrid(dim, n, 1.5)
    rng = np.random.default_rng(10 * dim + n)
    shape = g.shape + g.shape
    table = G.SymbolGrid(g, "standard", rng.normal(size=shape) + 1j * rng.normal(size=shape))
    # the last potential: polynomial in dims 1 and 3, a transversal gauge's transform in 2
    A = list(potentials(dim).values())[-1] if magnetic else None
    ref = weyl_operator_sum(table, A, QUAD)
    got = Q.op_quantize(table, A, g, quad=QUAD).operator_matrix
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_symbol_table_on_another_grid_is_refused():
    # a table is a sample on its own grid: a different half-width, or a
    # different n for either lattice kind, must not be quantized on this one
    g = G.PhaseSpaceGrid(1, 8, 4.0)
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.9)
    wider = G.PhaseSpaceGrid(1, 8, 6.0)
    with pytest.raises(DimensionMismatchError):
        G.kernel_from_symbol(f.sample(g, "midpoint"), None, wider, QUAD)
    finer = G.PhaseSpaceGrid(1, 10, 4.0)
    with pytest.raises(DimensionMismatchError):
        Q.op_quantize(f.sample(g, "standard"), None, finer)
    with pytest.raises(DimensionMismatchError):
        Q.op_quantize(f.sample(g, "midpoint"), None, finer)
    # a closed-form symbol of another dimension, on the general-tau route too
    with pytest.raises(DimensionMismatchError):
        Q.op_quantize(f, None, G.PhaseSpaceGrid(2, 6, 3.0), Q.WeylParams(tau=0.3))


def test_quantize_momentum_symbol_matches_magnetic_momentum():
    # first-order symbol with a wide cutoff reproduces the momentum operator
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    b = 0.5
    A = F.symmetric_gauge(b)
    f = momentum_monomial(2, (1, 0), 150.0)
    # broad-in-p symbol: the periodized (unmasked) kernel is the spectral one
    op = Q.op_quantize(f, A, g, mask=False)
    pi1 = Q.momentum_operator(A, 0, g)
    u = G.gaussian_wavefunction(g, width=1.2)
    resid = op.apply(u).values - pi1.apply(u).values
    scale = pi1.apply(u)
    assert np.sqrt((np.abs(resid) ** 2).sum()) / np.sqrt(
        (np.abs(scale.values) ** 2).sum()) < 1e-4


# ---------------------------------------------------------------------------
# momentum / position operators

def test_momentum_operator_plane_wave_eigenvector():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    P = Q.momentum_operator(None, 0, g)
    pm = g.momentum_axis[11]
    u = G.WaveFunction(g, np.exp(1j * g.config_axis * pm))
    out = P.apply(u)
    assert np.abs(out.values - pm * u.values).max() < 1e-10


@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 6), (3, 4)])
def test_momentum_operator_matches_dense_transform(dim, n, linear):
    # F^{-1} diag(p_j) F with the dense n^N x n^N transforms, minus A_j on the diagonal
    g = G.PhaseSpaceGrid(dim, n, 3.0)
    A = F.linear_potential(np.random.default_rng(dim).normal(size=(dim, dim))) if linear else None
    xp = g.config_points() @ g.momentum_points().T
    fwd = g.config_weight * np.exp(-1j * xp.T)
    inv = g.momentum_weight * np.exp(1j * xp)
    for j in range(dim):
        ref = inv @ (g.momentum_points()[:, j, None] * fwd)
        if A is not None:
            ref -= np.diag(A.eval(g.config_points())[:, j])
        got = Q.momentum_operator(A, j, g).operator_matrix
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_weyl_sum_route_memory_peak(traced_peak):
    # dim 2, n=32: one kernel is 16 MiB; the per-axis transforms keep the
    # coefficient table, its transform, the scatter target and the phase table
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    table = G.gaussian_symbol(2, x_width=0.9, p_width=1.1).sample(g, "standard")
    A = F.symmetric_gauge(1.0)
    assert traced_peak(lambda: Q.op_quantize(table, A, g, quad=QUAD)) <= 64 * 2**20


def test_kronecker_fill_memory_peak(traced_peak):
    # dim 2, n=32: a 3-term axis-product symbol fills the 16 MiB kernel in one pass,
    # with no term-sized temporary (measured 1.01 kernels; the row-block gather of the
    # same factors given as plain callables peaks at 1.40)
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    f = axis_product_terms(2, 3)
    kernel = 16 * 2**20
    assert traced_peak(lambda: G.kernel_from_symbol(f, None, g, QUAD)) <= 1.25 * kernel


def test_momentum_operator_memory_peak(traced_peak):
    # the kernel, its weighted copy and one more kernel fit; a dense transform does not
    g = G.PhaseSpaceGrid(2, 32, 6.0)
    assert traced_peak(lambda: Q.momentum_operator(F.symmetric_gauge(1.0), 0, g)) <= 48 * 2**20


def test_momentum_operator_refuses_a_wrong_dimension_before_its_matrix(traced_peak):
    # the check ran after the dense derivative matrix: 16.0 MB allocated at dim 1, n=512
    g, A = G.PhaseSpaceGrid(1, 512, 6.0), F.symmetric_gauge(1.0)

    def refused():
        with pytest.raises(DimensionMismatchError):
            Q.momentum_operator(A, 0, g)

    assert traced_peak(refused) <= 2**20


@pytest.mark.parametrize("j", [0.5, True, False, None, -1, 2, "0"])
def test_basic_observables_refuse_a_bad_axis_index(j):
    # a float axis gave the identity momentum, an IndexError or a ValueError
    g = G.PhaseSpaceGrid(2, 4, 2.0)
    with pytest.raises(InputError, match="axis"):
        Q.momentum_operator(None, j, g)
    with pytest.raises(InputError, match="axis"):
        Q.position_operator(j, g)


def test_momentum_operator_hermitian():
    g = default_grid()
    A = F.symmetric_gauge(1.0)
    P = Q.momentum_operator(A, 1, g)
    assert P.hermiticity_defect() < 1e-10


def test_position_momentum_commutator():
    # magnetic canonical commutation relations: i [Pi_k, Q_j] = delta_jk
    g = G.PhaseSpaceGrid(2, 28, 6.0)
    A = F.symmetric_gauge(1.0)
    u = G.gaussian_wavefunction(g, width=0.9)
    for j in range(2):
        for k in range(2):
            Qj = Q.position_operator(j, g).operator_matrix
            Pk = Q.momentum_operator(A, k, g).operator_matrix
            comm = 1j * (Pk @ Qj - Qj @ Pk)
            out = comm @ u.values.ravel()
            expect = (1.0 if j == k else 0.0) * u.values.ravel()
            err = np.linalg.norm(out - expect) / np.linalg.norm(u.values)
            assert err < 1e-6, (j, k, err)


# ---------------------------------------------------------------------------
# gauge conjugation

def test_gauge_conjugate_trivial():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    k = Q.op_quantize(G.gaussian_symbol(2, x_width=0.8, p_width=0.8), None, g)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[]]))
    out = Q.gauge_conjugate(k, rho)
    assert np.abs(out.kernel - k.kernel).max() == 0.0


def test_gauge_conjugation_preserves_spectrum():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_width=0.8, p_width=0.8)
    k = Q.op_quantize(f, A, g)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1)), (0.3, (2, 0))]]))
    k2 = Q.gauge_conjugate(k, rho)
    assert (V.spectrum_error(k.eigenvalues(), k2.eigenvalues())
            < V.TOLERANCES["gauge_spectrum_agreement"])


def test_trotter_product_converges_to_weyl_operator():
    # splitting diagnostic: the alternating phase/translation product
    # approaches the closed-form operator as the step count grows
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    A = F.polynomial_potential(1, [[(0.05, (2,))]])
    u = G.gaussian_wavefunction(g, width=0.8)
    xi = (np.array([8 * g.h]), np.array([0.3]))
    errs = [weyl_trotter_diagnostic(A, xi, u, steps) for steps in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] / 4


@pytest.mark.parametrize("steps", [0, -1, 2.0, 1.5, True, None])
def test_trotter_diagnostic_refuses_a_bad_step_count(steps):
    # steps=0 divided by zero and returned a number, as did steps=-1
    g = G.PhaseSpaceGrid(1, 16, 4.0)
    u = G.gaussian_wavefunction(g, width=0.8)
    with pytest.raises(InputError, match="steps"):
        weyl_trotter_diagnostic(None, (np.array([2 * g.h]), np.array([0.3])), u, steps)


def test_weyl_params_validation():
    with pytest.raises(InputError):
        Q.WeylParams(tau=1.5)
    with pytest.raises(InputError):
        Q.WeylParams(hbar=0.0)
    for bad in (float("nan"), float("inf")):  # non-finite values pass a bare `<= 0` check
        with pytest.raises(InputError, match="hbar"):
            Q.WeylParams(hbar=bad)
        with pytest.raises(InputError):
            Q.WeylParams(tau=bad)
