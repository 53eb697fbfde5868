"""The one-period difference mask as one ``n^N x n^N`` Kronecker table.

Every kernel route applies the mask per axis (``grid._trapezoid``); the
tests compare against the whole table written out at once.
"""

from functools import reduce

import numpy as np

from magweyl import grid as G


def difference_mask(grid):
    """Trapezoid weights over the pair differences, one box period per axis.

    Entry weight is the product over axes of 1 for ``|x_a - y_a| < L``, 1/2
    for ``|x_a - y_a| = L`` and 0 beyond.
    """
    i = np.arange(grid.n)
    return reduce(np.kron, [G._trapezoid(np.subtract.outer(i, i), grid.n)] * grid.dim)
