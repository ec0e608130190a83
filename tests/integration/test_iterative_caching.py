"""End-to-end compile-once / run-many: the iterative-SpMV scenario at a
test-friendly scale, repeated recompiles and kernel-cache eviction.  The
cached and uncached paths must produce identical numerics AND identical
simulated metrics — caching is a wall-clock optimization of the simulator,
never a change to what it simulates."""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from scenario_iterative import run_iterative_spmv
from repro.core import cache_budgets, cache_stats, clear_caches, set_cache_budget

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
    import scipy.sparse.linalg as spla

    r = run_iterative_spmv(cached=True, n=300, density=2e-2, pieces=2,
                           iterations=60, seed=43)
    rng = np.random.default_rng(43)
    A = sp.random(300, 300, density=2e-2, random_state=rng, format="csr")
    A.data += 1.0
    lam = abs(spla.eigs(A, k=1, return_eigenvectors=False)[0])
    assert r.checksum == pytest.approx(float(lam), rel=1e-2)



def _spmv_world(nodes, n=400, density=2e-2):
    """A session over one CSR matrix ``B`` with ``a[i] = B[i, j] * c[j]``
    assigned."""
    rng = np.random.default_rng(5)
    M = sp.random(n, n, density=density, format="csr", random_state=rng)
    s = repro.session(nodes=nodes)
    B = s.tensor("B", M, repro.CSR)
    c = s.tensor("c", rng.random(n))
    a = s.zeros("a", (n,))
    i, j = repro.index_vars("i j")
    a[i] = B[i, j] * c[j]
    return s, M, B, c, a


@pytest.mark.parametrize("fresh", ["use_cache_false", "clear_caches"])
def test_recompiles_share_the_residency_facts_they_place(fresh):
    """Compiling one SpMV 200 times on one session and executing each
    compile places equal partitions of every operand 200 times.  A
    placement equal to an earlier one (bounds and processors) shares that
    placement's fact, so each region holds one fact, and every execution
    books the very same steps."""
    s, M, B, c, a = _spmv_world(nodes=8)
    with s:
        steps = []
        for _ in range(200):
            if fresh == "clear_caches":
                clear_caches()
            ck = s.compile_kernel(a, use_cache=fresh == "clear_caches")
            steps.append(s.execute(ck).metrics.steps)
        assert np.allclose(a.vals.data, M @ c.vals.data)
        assert steps[0] and all(st == steps[0] for st in steps)
        tables = s.runtime._residency
        assert [len(tables[r.uid].whole) for t in (B, c, a) for r in t.regions()] == [1] * 5


def _program_runs(chained: bool):
    """Two runs of a three-statement program over one CSR operand ``B``:
    ``a = B c``, then two more products with ``B`` — of fresh inputs, or
    (``chained``) each of the output before.  Returns each run's steps
    and output bytes."""
    s, M, B, c, a = _spmv_world(nodes=4)
    n = M.shape[0]
    rng = np.random.default_rng(6)
    with s:
        y = s.zeros("y", (n,))
        i, j, k = repro.index_vars("i j k")
        if chained:
            z = s.zeros("z", (n,))
            y[i] = B[i, j] * a[j]
            z[i] = B[i, j] * y[j]
        else:
            d, E = s.tensor("d", rng.random(n)), s.tensor("E", rng.random((n, 3)))
            z = s.zeros("Z", (n, 3))
            y[i] = B[i, j] * d[j]
            z[i, k] = B[i, j] * E[j, k]
        p = s.program()
        for t in (a, y, z):
            p.define(t)
        out = []
        for _ in range(2):
            res = p.run()
            assert len(res) == 3
            out.append(([r.metrics.steps for r in res.results],
                        [t.vals.data.tobytes() for t in (a, y, z)]))
        return out


def _under_one_byte_kernel_budget(fn):
    budgets = cache_budgets()
    clear_caches()
    set_cache_budget(kernel_bytes=1)
    try:
        out = fn()
        assert cache_stats()["kernel_evictions"] > 0
        return out
    finally:
        set_cache_budget(kernel_bytes=budgets["kernel_bytes"])


def test_kernel_cache_eviction_mid_program_keeps_values_and_steps():
    """A three-statement program over one CSR operand, run twice under a
    one-byte kernel budget — each statement's compile evicts the kernel
    before it, so every run recompiles and derives fresh partitions of
    ``B`` — gives values and steps bit-identical to the unbudgeted run."""
    reference = _program_runs(chained=False)
    assert _under_one_byte_kernel_budget(lambda: _program_runs(chained=False)) == reference


def test_kernel_cache_eviction_mid_chain_keeps_steps():
    """As above, with each statement reading the output before it: the
    budgeted second run recompiles, and its reads of ``a`` and ``y`` book
    no staging, where the unbudgeted second run gathers them."""
    reference = _program_runs(chained=True)
    assert _under_one_byte_kernel_budget(lambda: _program_runs(chained=True)) == reference
