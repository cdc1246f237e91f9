import pytest

from hazecast import autodiff


@pytest.fixture
def blas_threads():
    """Getter of numpy's OpenBLAS thread count, set to 2 for the test and restored after."""
    threads = autodiff._openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, put = threads
    before = get()
    put(2)
    yield get
    put(before)
