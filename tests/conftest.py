import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Measure the tracemalloc peak of one call, in bytes."""
    def measure(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
