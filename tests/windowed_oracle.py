"""The windowed map written out over whole arrays: the streamed map's oracle.

``grid._windowed_kernel`` streams one block of the first axis's midpoint
index at a time and multiplies the mask into its scatter.  The oracle samples
the whole midpoint table, contracts every momentum axis over it, gathers
every pair with one ``2N``-array fancy index and multiplies the mask in as
one ``n^N x n^N`` Kronecker table; the tests require the two to agree bit for
bit.
"""

import math
from functools import reduce

import numpy as np

from magweyl import grid as G
from mask_oracle import difference_mask


def windowed_kernel(f, grid, mask):
    """Field-free kernel of an evaluator or symbol table, its mask multiplied in."""
    alias, interp = 1.0, None  # alias weight per momentum axis
    if isinstance(f, G.SymbolEvaluator):
        vals = f.sample(grid, kind="midpoint").values
    else:
        vals = f.values
        if f.kind == "standard":
            # (1/2L) e^{i m p} over the midpoints m and the lattice's momenta p, times F
            interp = (np.exp(1j * np.outer(grid.midpoint_axis, grid.momentum_axis))
                      / (2.0 * grid.L)) @ grid._fwd_matrix
        elif f.alias_doubled:
            alias = 0.5
    n, N = grid.n, grid.dim
    S, T = 2 * n - 1, n // 2
    s = np.arange(S)[:, None]
    phase = alias * grid._inv_matrix[2 * np.arange(T) + (s + n // 2) % 2]  # (s, t, k)
    for a in range(N):
        if interp is not None:
            vals = G._apply_axes(vals, interp, [a])
        shape = vals.shape
        pre, mid = S**a, math.prod(shape[a + 1:N + a])
        if a < N - 1:
            vals = phase[:, None] @ vals.reshape(pre, S, mid, n, n ** (N - 1 - a))
        else:
            vals = vals.reshape(pre, S, mid, n) @ phase.transpose(0, 2, 1)
        vals = vals.reshape(shape[:N + a] + (T,) + shape[N + a + 1:])
    i = np.arange(n)
    axis_shape = [(1,) * a + (n,) + (1,) * (N - 1) + (n,) + (1,) * (N - 1 - a) for a in range(N)]
    pairs = tuple(ij.reshape(sh) for ij in (i[:, None] + i, ((i[:, None] - i + n // 2) % n) // 2)
                  for sh in axis_shape)
    kern = vals[pairs].reshape(grid.size, grid.size)
    if isinstance(f, G.SymbolGrid) and f.kind == "standard":
        steps = np.subtract.outer(i, i)
        return kern * reduce(np.kron, [((steps > -n // 2) & (steps <= n // 2)) * 1.0] * N)
    return kern * difference_mask(grid) if mask else kern
