"""Weyl-system test oracles, written out one Weyl operator at a time.

``op_quantize`` reads a standard table as its trigonometric interpolant on
the kernel midpoints.  The paper's other definition of the same map pairs
the reflected symplectic transform of the table with the Weyl operators
over the full phase-space lattice; the first helpers spell that sum out,
independently of the package's route.

``weyl_span_probe`` takes one block per translation class; the next
helpers build the whole stack of cyclic Weyl matrices it stands for, from
``circulation`` and index arithmetic, and take its singular values.

``weyl_trotter_diagnostic`` reaches one Weyl operator by a product of small
multiplication and translation steps instead of its closed form.
"""

import numbers

import numpy as np

from magweyl import fields as F
from magweyl import grid as G
from magweyl import quantize as Q
from magweyl.errors import InputError


def symplectic_parity(F):
    """Point reflection ``F(xi) -> F(-xi)`` as an exact lattice index map."""
    vals = F.values
    for ax in range(2 * F.grid.dim):
        vals = np.roll(np.flip(vals, axis=ax), 1, axis=ax)
    return G.SymbolGrid(F.grid, F.kind, vals)


def weyl_sum_coefficients(F):
    """Integrand of the Weyl-system sum: reflected symplectic transform, shape (n^N, n^N).

    Reflecting the momentum-box edge ``-n/2 * dp`` lands on ``+n/2 * dp``,
    which is off the lattice.  The Weyl phases ``e^{-i (y + x/2).p}`` relate
    the two edge images by the sign ``(-1)^{x/h}`` per axis, so the edge
    row of the reflected table carries that sign; this is the resolution
    under which coefficient tables of the Weyl system itself reproduce
    their operators exactly (rank-one reconstruction), and it is invisible
    for integrands that decay before the box edge.
    """
    g = F.grid
    c = symplectic_parity(G.fourier_symplectic(F, "forward")).values
    odd = (np.arange(g.n) - g.n // 2) % 2 == 1  # x_a / h odd
    for a in range(g.dim):
        c[(slice(None),) * a + (odd,) + (slice(None),) * (g.dim - 1) + (0,)] *= -1.0
    return c.reshape(g.size, g.size)


def weyl_operator_sum(F, A, quad):
    """Operator matrix of ``w sum_xi c(xi) W^A(xi)`` over the phase-space lattice, zero-filled."""
    g = F.grid
    c = weyl_sum_coefficients(F)
    xs, ps = g.config_points(), g.momentum_points()
    ref = sum(c[a, b] * Q.weyl_matrix(A, (xs[a], ps[b]), g, quad).operator_matrix
              for a in range(g.size) for b in range(g.size))
    return g.config_weight * g.momentum_weight * ref


def cyclic_weyl_matrix(A, x, p, g, quad):
    """``[W(x, p) u](y) = e^{-i (y + x/2).p} e^{-i Gamma^A([y, y + x])} u(y + x mod n)``, dense."""
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    y = g.config_points()
    idx = np.indices(g.shape).reshape(g.dim, g.size)  # lattice index of each y, per axis
    step = np.rint(x / g.h).astype(int)[:, None]
    cols = np.ravel_multi_index(tuple((idx + step) % g.n), g.shape)
    phase = np.exp(-1j * ((y + 0.5 * x) @ p))
    if A is not None:
        phase = phase * np.exp(-1j * F.circulation(A, y, y + x, quad))
    m = np.zeros((g.size, g.size), dtype=complex)
    m[np.arange(g.size), cols] = phase
    return m


def stack_singular_values(A, g, sample, quad):
    """Singular values of the ``(S, n^{2N})`` stack of raveled cyclic Weyl matrices."""
    stack = np.stack([cyclic_weyl_matrix(A, x, p, g, quad).ravel() for x, p in sample])
    return np.linalg.svd(stack, compute_uv=False)


def weyl_trotter_diagnostic(A, xi, u, steps, quad=F.DEFAULT_QUADRATURE) -> float:
    """Deviation of an n-step product approximation from the Weyl operator.

    The Weyl operator is the exponential of ``Q.p - x.(P - A(Q))``; splitting
    it into the multiplication part ``a(Q) = Q.p + x.A(Q)`` and the
    translation part and alternating n small steps converges to the closed
    form as n grows (the circulation appears as the limiting Riemann sum of
    the potential along the path).  Requires ``x / steps`` on the lattice.
    Returns the relative deviation; a diagnostic, not a construction route.
    ``steps`` must be an integer >= 1, else InputError.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise InputError("steps must be an integer >= 1, got %r" % (steps,))
    g = u.grid
    x = np.asarray(xi[0], dtype=float)
    p = Q._lattice_vector(g, xi[1], "momentum")
    cols, valid = G._shift_index_table(g, Q._shift_components(g, x / steps))
    pts = g.config_points()
    aq = pts @ p
    if A is not None:
        aq = aq + np.asarray(A.eval(pts), dtype=float) @ x
    phase_step = np.exp(-1j * aq / steps)
    vals = u.values.ravel()
    for _ in range(steps):
        vals = phase_step * np.where(valid, vals[cols], 0)
    exact = Q.weyl_apply(A, (x, p), u, quad).values.ravel()
    return float(np.sqrt((np.abs(vals - exact) ** 2).sum())
                 / np.sqrt((np.abs(exact) ** 2).sum()))
