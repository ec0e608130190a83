"""End-to-end compile-once / run-many: the iterative-SpMV scenario at a
test-friendly scale.  The cached and uncached paths must produce identical
numerics AND identical simulated metrics — caching is a wall-clock
optimization of the simulator, never a change to what it simulates."""
import numpy as np
import pytest

from scenario_iterative import run_iterative_spmv
from repro.core import clear_caches

ITERS = 8
KW = dict(n=600, density=5e-3, pieces=4, iterations=ITERS)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def test_cached_and_uncached_runs_are_equivalent():
    cached = run_iterative_spmv(cached=True, **KW)
    uncached = run_iterative_spmv(cached=False, **KW)
    assert cached.checksum == pytest.approx(uncached.checksum)
    assert cached.sim_seconds == pytest.approx(uncached.sim_seconds)
    assert cached.comm_events == uncached.comm_events
    assert cached.comm_bytes == pytest.approx(uncached.comm_bytes)


def test_all_repeat_iterations_amortize():
    cached = run_iterative_spmv(cached=True, **KW)
    assert cached.kernel_cache_hits == ITERS - 1
    assert cached.trace_hits == ITERS - 1


def test_uncached_never_records():
    uncached = run_iterative_spmv(cached=False, **KW)
    assert uncached.trace_hits == 0
    assert uncached.kernel_cache_hits == 0


def test_checksum_approximates_dominant_eigenvalue():
    """The power iteration is numerically sensible: the norm of the final
    un-normalized product converges to A's dominant eigenvalue."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    r = run_iterative_spmv(cached=True, n=300, density=2e-2, pieces=2,
                           iterations=60, seed=43)
    rng = np.random.default_rng(43)
    A = sp.random(300, 300, density=2e-2, random_state=rng, format="csr")
    A.data += 1.0
    lam = abs(spla.eigs(A, k=1, return_eigenvectors=False)[0])
    assert r.checksum == pytest.approx(float(lam), rel=1e-2)
