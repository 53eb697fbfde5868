"""Symbol factors that are products over the axes, and the Kronecker sums they fill.

A separable symbol ``sum_r g_r(x) h_r(p)`` (``grid.SymbolEvaluator``) whose
factors are each a product of one function per coordinate,
``g_r(x) = prod_a g_ra(x_a)``, has a field-free kernel that is a sum of
Kronecker products of one ``n x n`` matrix per axis
(``grid._separable_kernel``), and a covariant coupling under plane-wave
phases that runs one axis at a time (``coupling._axis_rows``).  The factors
of every preset are such products (``_AxisProduct``), and ``+``, ``c *``
and ``conj`` of symbols keep them so.  The module stands apart from
``grid`` because compiling a longer ``grid`` raises the peak memory of
every command that imports it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, require_finite


class _AxisProduct:
    """The factor ``prod_a fns[a](x[..., a])`` of points ``x`` of shape ``(..., N)``.

    One callable per axis, each taking coordinates to values that broadcast
    against them.  Called on points it is an ordinary factor; the separable
    fill and the coupling route read ``fns`` to work one axis at a time.
    """

    def __init__(self, fns):
        self.fns = tuple(fns)

    def __call__(self, x):
        return reduce(np.multiply, [fa(x[..., a]) for a, fa in enumerate(self.fns)])


def _axis_term(term) -> bool:
    """Whether both factors of a symbol's term ``(g, h)`` are axis products."""
    return all(isinstance(u, _AxisProduct) for u in term)


def _conj_factor(g):
    """``conj`` of one factor of a symbol; an axis product stays one."""
    if isinstance(g, _AxisProduct):
        return _AxisProduct((lambda t, fa=fa: np.conj(fa(t))) for fa in g.fns)
    return lambda x: np.conj(g(x))


def _scaled_factor(c, g):
    """``c`` times one factor of a symbol; an axis product takes ``c`` on its axis 0."""
    if isinstance(g, _AxisProduct):
        return _AxisProduct(((lambda t, f0=g.fns[0]: c * f0(t)),) + g.fns[1:])
    return lambda x: c * g(x)


def _one(t) -> np.ndarray:
    return np.ones(np.shape(t))


def _ones(dim: int) -> _AxisProduct:
    """The factor 1 in ``dim`` axes."""
    return _AxisProduct([_one] * dim)


def _gaussian_axes(dim: int, center, width, name: str) -> _AxisProduct:
    """``exp(-|x - center|^2 / (2 width^2))`` in ``dim`` axes, one at a time; None centres at 0.

    ``name`` (``"x"`` or ``"p"``) labels the InputError for a centre that is not
    ``dim`` numbers, or a width that is not finite and > 0.
    """
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise DimensionMismatchError("gaussian symbol '%s_center' must be a list of %d numbers, "
                                     "got %r" % (name, dim, center.tolist()))
    require_finite(name + "_width", width, positive=True)
    return _AxisProduct((lambda t, c=c: np.exp(-np.square(t - c) / (2.0 * width**2)))
                        for c in center)


def _momentum_monomial(coeff, powers, cutoff: float) -> _AxisProduct:
    """``h(p) = coeff p^powers exp(-|p|^2 / (2 cutoff^2))``, the p-factor of a cut-off monomial.

    One factor ``t^a exp(-t^2 / (2 cutoff^2))`` per axis, ``coeff`` on axis 0.
    """
    def axis(a):
        def h(t):
            cut = np.exp(-np.square(t) / (2.0 * cutoff**2))
            return t**a * cut if a else cut

        return h

    return _scaled_factor(complex(coeff), _AxisProduct(axis(a) for a in powers))


def _kron_sum(mats) -> np.ndarray:
    """``sum_r kron(mats[r][0], ..., mats[r][-1])`` of per-axis ``n x n`` matrices, written once.

    With ``P_r`` the Kronecker product of all but the last axis (``n^{N-1}``
    square), entry ``((I, i), (J, j))`` is ``sum_r P_r[I, J] M_r[i, j]``: one
    matmul over ``r``, batched over the rows ``(I, i)``, straight into the
    kernel, so no temporary is of the kernel's order.
    """
    lead = np.stack([reduce(np.kron, m[:-1], np.ones((1, 1))) for m in mats])  # (R, m, m)
    last = np.stack([m[-1] for m in mats])  # (R, n, n)
    m, n = lead.shape[1], last.shape[1]
    kern = np.empty((m * n, m * n), dtype=complex)
    np.matmul(lead.transpose(1, 2, 0)[:, None], last.transpose(1, 0, 2)[None],
              out=kern.reshape(m, n, m, n))
    return kern
