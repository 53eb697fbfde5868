import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Measure the tracemalloc peak of one call: in bytes, or in kernels of ``grid``.

    A kernel of ``grid`` is its ``n^N x n^N`` complex matrix, ``16 n^{2N}``
    bytes, the unit the memory figures of the roadmap read in.
    """
    def measure(call, grid=None):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak if grid is None else peak / (16 * grid.size**2)

    return measure
