import numpy as np
import pytest

from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl.errors import InputError, OffLatticeError

QUAD = F.Quadrature(16)


def default_grid():
    return G.PhaseSpaceGrid(2, 16, 6.0)


def interior_gaussian(g, width=0.7, seed=None, momentum=None):
    return G.gaussian_wavefunction(g, width=width, momentum=momentum)


# ---------------------------------------------------------------------------
# Weyl system action

def test_weyl_identity_at_origin():
    g = default_grid()
    u = interior_gaussian(g)
    A = F.symmetric_gauge(1.0)
    out = Q.weyl_apply(A, (np.zeros(2), np.zeros(2)), u, QUAD)
    assert np.abs(out.values - u.values).max() < 1e-14


def test_weyl_pure_modulation():
    g = default_grid()
    u = interior_gaussian(g)
    A = F.symmetric_gauge(1.0)
    p = np.array([0.7, -0.4])
    out = Q.weyl_apply(A, (np.zeros(2), p), u, QUAD)
    expect = np.exp(-1j * g.config_points() @ p).reshape(g.shape) * u.values
    assert np.abs(out.values - expect).max() < 1e-13


def test_weyl_nonmagnetic_formula_oracle():
    # [W(q,p)u](y) = e^{-i(q/2+y).p} u(y+q), zero-filled off the box
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    u = interior_gaussian(g, width=0.8)
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
    u = interior_gaussian(g)
    with pytest.raises(OffLatticeError):
        Q.weyl_apply(None, (np.array([0.3, 0.0]), np.zeros(2)), u, QUAD)


def test_weyl_norm_preservation_on_interior_vectors():
    g = default_grid()
    u = interior_gaussian(g, width=0.6)
    A = F.symmetric_gauge(1.0)
    out = Q.weyl_apply(A, (np.array([g.h, -g.h]), np.array([0.9, 0.2])), u, QUAD)
    assert abs(out.norm() - u.norm()) < 1e-8


def test_weyl_matrix_matches_apply():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    u = interior_gaussian(g, width=0.6)
    A = F.symmetric_gauge(0.8)
    xi = (np.array([g.h, 2 * g.h]), np.array([0.5, -0.3]))
    direct = Q.weyl_apply(A, xi, u, QUAD)
    via_matrix = Q.weyl_matrix(A, xi, g, QUAD).apply(u)
    assert np.abs(direct.values - via_matrix.values).max() < 1e-12


def test_weyl_scaling_parameter_identity():
    # the one-parameter family satisfies W_t(xi) = W(t xi) for lattice-commensurate t
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    u = interior_gaussian(g, width=0.8)
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
    u = interior_gaussian(g, width=0.6)
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
    u = interior_gaussian(g, width=0.7)
    x = np.array([g.h, 0.0])
    y = np.array([0.0, 2 * g.h])
    lhs = Q.magnetic_translation(A, x, g, QUAD).apply(
        Q.magnetic_translation(A, y, g, QUAD).apply(u))
    omega = F.flux_phase(B, g.config_points(), -x, -y, QUAD).reshape(g.shape)
    rhs = omega * Q.magnetic_translation(A, x + y, g, QUAD).apply(u).values
    assert np.abs(lhs.values - rhs).max() / np.abs(u.values).max() < 1e-10


def test_weyl_composition_law():
    # W(xi) W(eta) = e^{i sigma(xi,eta)/2} Omega(Q; x, y) W(xi + eta)
    g = default_grid()
    B = F.linear_field_2d(1.0, [0.2, 0.0])
    A = F.transversal_gauge(B, QUAD)
    u = interior_gaussian(g, width=0.7)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        sx = rng.integers(-2, 3, size=2)
        sy = rng.integers(-2, 3, size=2)
        x, y = sx * g.h, sy * g.h
        pxi = rng.uniform(-2, 2, size=2)
        peta = rng.uniform(-2, 2, size=2)
        lhs = Q.weyl_apply(A, (x, pxi), Q.weyl_apply(A, (y, peta), u, QUAD), QUAD)
        sigma = x @ peta * -1.0 + y @ pxi  # sigma((x,pxi),(y,peta)) = y.pxi - x.peta
        omega = F.flux_phase(B, g.config_points(), x, y, QUAD).reshape(g.shape)
        tail = Q.weyl_apply(A, (x + y, pxi + peta), u, QUAD)
        rhs = np.exp(0.5j * sigma) * omega * tail.values
        worst = max(worst, np.abs(lhs.values - rhs).max() / u.norm())
    assert worst < 1e-6


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


def test_quantize_general_route_matches_kernel_route_at_defaults():
    g = G.PhaseSpaceGrid(1, 16, 6.0)
    A = F.polynomial_potential(1, [[(0.4, (2,))]])
    f = G.gaussian_symbol(1, x_width=0.8, p_width=0.9)
    k_fast = Q.op_quantize(f, A, g)
    k_gen = Q._kernel_route_general(f, A, g, QUAD, tau=0.5, hbar=1.0)
    assert np.abs(k_fast.kernel - k_gen.kernel).max() < 1e-11 * np.abs(k_fast.kernel).max()


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
    u = interior_gaussian(g, width=0.8)
    d = k_sum.apply(u).values - k_ref.apply(u).values
    assert np.linalg.norm(d) / np.linalg.norm(k_ref.apply(u).values) < 1e-4


def test_weyl_sum_route_is_the_weighted_weyl_operator_sum():
    # loop reference for the gathered Weyl-system sum: the integrand times
    # the zero-filled Weyl operators, one lattice point at a time
    g = G.PhaseSpaceGrid(2, 4, 2.0)
    A = F.transversal_gauge(F.gaussian_field_2d(1.2, 1.4), QUAD)
    f = G.gaussian_symbol(2, x_center=[0.2, -0.1], x_width=0.9, p_width=1.0,
                          amplitude=1.0 + 0.3j)
    table = f.sample(g, "standard")
    c = Q._weyl_sum_coefficients(table)
    xs, ps = g.config_points(), g.momentum_points()
    ref = sum(c[a, b] * Q.weyl_matrix(A, (xs[a], ps[b]), g, QUAD).operator_matrix
              for a in range(g.size) for b in range(g.size))
    ref = g.config_weight * g.momentum_weight * ref
    got = Q.op_quantize(table, A, g, quad=QUAD).operator_matrix
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_quantize_momentum_symbol_matches_magnetic_momentum():
    # first-order symbol with a wide cutoff reproduces the momentum operator
    g = G.PhaseSpaceGrid(2, 32, 8.0)
    b = 0.5
    A = F.symmetric_gauge(b)
    f = G.momentum_polynomial_symbol(2, (1, 0), cutoff=150.0)
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


@pytest.mark.parametrize("field_cfg", [
    {"kind": "constant", "dim": 2, "b": 1.0},
    {"kind": "linear", "dim": 2, "b0": 1.0, "gradient": [0.25, 0.0]},
])
def test_momentum_commutator_gives_field(field_cfg):
    # [Pi_1, Pi_2] = i B_12(Q) with P = -i d, Pi = P - A(Q), B = dA
    g = G.PhaseSpaceGrid(2, 24, 6.0)
    B = F.field_from_config(field_cfg)
    A = F.transversal_gauge(B, QUAD)
    u = G.gaussian_wavefunction(g, width=1.0)
    P1 = Q.momentum_operator(A, 0, g).operator_matrix
    P2 = Q.momentum_operator(A, 1, g).operator_matrix
    comm = 1j * (P2 @ P1 - P1 @ P2)
    out = comm @ u.values.ravel()
    b12 = np.asarray(B.eval(g.config_points()))[:, 0, 1]
    expect = b12 * u.values.ravel()
    err = np.linalg.norm(out - expect) / np.linalg.norm(expect)
    assert err < 1e-4
    # the opposite operator order misses by a clean sign, not by magnitude
    wrong = 1j * (P1 @ P2 - P2 @ P1) @ u.values.ravel()
    assert np.linalg.norm(wrong - expect) / np.linalg.norm(expect) > 1.9


# ---------------------------------------------------------------------------
# gauge conjugation

def test_gauge_conjugate_trivial():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    k = Q.op_quantize(G.gaussian_symbol(2, x_width=0.8, p_width=0.8), None, g)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[]]))
    out = Q.gauge_conjugate(k, rho)
    assert np.abs(out.kernel - k.kernel).max() == 0.0


def test_gauge_covariance_symmetric_vs_landau():
    g = default_grid()
    b = 1.0
    A = F.symmetric_gauge(b)
    A2 = F.landau_gauge(b)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(b / 2.0, (1, 1))]]))
    f = G.gaussian_symbol(2, x_center=[0.3, -0.4], p_center=[0.2, 0.1],
                          x_width=0.9, p_width=1.0)
    kA = Q.op_quantize(f, A, g)
    kA2 = Q.op_quantize(f, A2, g)
    conj = Q.gauge_conjugate(kA, rho, "forward")
    num = np.linalg.norm(kA2.kernel - conj.kernel)
    den = np.linalg.norm(kA.kernel)
    assert num / den < 1e-6


def test_gauge_conjugation_preserves_spectrum():
    g = G.PhaseSpaceGrid(2, 8, 4.0)
    A = F.symmetric_gauge(1.0)
    f = G.gaussian_symbol(2, x_width=0.8, p_width=0.8)
    k = Q.op_quantize(f, A, g)
    rho = F.ScalarPotential.from_poly(F.PolynomialMap(2, [[(0.5, (1, 1)), (0.3, (2, 0))]]))
    k2 = Q.gauge_conjugate(k, rho)
    ev1 = k.eigenvalues()
    ev2 = k2.eigenvalues()
    scale = np.abs(ev1).max()
    assert np.abs(ev1 - ev2).max() / scale < 1e-8


def test_trotter_product_converges_to_weyl_operator():
    # splitting diagnostic: the alternating phase/translation product
    # approaches the closed-form operator as the step count grows
    g = G.PhaseSpaceGrid(1, 32, 8.0)
    A = F.polynomial_potential(1, [[(0.05, (2,))]])
    u = G.gaussian_wavefunction(g, width=0.8)
    xi = (np.array([8 * g.h]), np.array([0.3]))
    errs = [Q.weyl_trotter_diagnostic(A, xi, u, steps) for steps in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] / 4


def test_weyl_params_validation():
    with pytest.raises(InputError):
        Q.WeylParams(tau=1.5)
    with pytest.raises(InputError):
        Q.WeylParams(hbar=0.0)
